//! The home agent (§3.1, §3.4).
//!
//! On an accepted registration the home agent becomes the mobile host's
//! stand-in on the home subnet: it adds a proxy-ARP entry so it receives
//! packets for the home address, broadcasts a gratuitous ARP "to void any
//! stale ARP cache entries on hosts in the same subnet", installs a VIF
//! tunnel route (every packet for the home address is IP-in-IP
//! encapsulated to the care-of address), and records a mobility binding.
//! Deregistration and binding expiry undo all of it.
//!
//! The protocol is [`HomeAgentMachine`], world-free like
//! [`crate::RegistrationMachine`]: datagrams, timers, crash and restart
//! in; [`Effects`] and [`HaEvent`]s out. [`HomeAgent`] is the module
//! around it: the socket, and the tunnel route and proxy-ARP entry each
//! event names. Requests are served first come, first served, each
//! charged [`HA_PROCESSING`] (Figure 7's 1.48 ms on the Pentium 90's one
//! CPU), so a burst of N takes N × 1.48 ms (experiment A2). Accepted
//! mutations are written ahead to a [`BindingJournal`], replayed on
//! restart and streamed to a standby as [`BindingReplica`]s;
//! `docs/ha_recovery.md` tells that story and `docs/ha_fleet.md` the
//! [`ShardDirectory`] check.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, IdHashMap, IdHashSet, Line, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{Effect, Effects, IfaceId, Module, ModuleCtx, SocketId};
use mosquitonet_wire::Cidr;

use crate::binding::{BindOutcome, BindingTable};
use crate::fleet::ShardDirectory;
use crate::journal::{Applied, BindingJournal, JournalRecord};
use crate::messages::{
    classify, BindingReplica, BindingUpdate, MessageKind, RegistrationReply, RegistrationRequest,
    ReplicaOp, ReplyCode, REGISTRATION_PORT,
};
use crate::timing::{HA_PROCESSING, MAX_LIFETIME_SECS};

const TOKEN_SWEEP: u64 = 1;
const TOKEN_SERVE: u64 = 2;
const SWEEP_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Home agent configuration.
#[derive(Clone, Debug)]
pub struct HomeAgentConfig {
    /// The agent's own address (what mobile hosts register with).
    pub addr: Ipv4Addr,
    /// The interface on the home subnet (where proxy ARP operates).
    pub home_iface: IfaceId,
    /// The home subnet; only addresses inside it are served.
    pub home_subnet: Cidr,
    /// Per-mobile-host authentication keys (home address → (SPI, key)): a
    /// keyed home's requests must verify and pass its identification floor,
    /// its replies are signed. Unkeyed homes are served as in the paper.
    pub auth_keys: IdHashMap<Ipv4Addr, (u32, u64)>,
    /// Send a binding update to the previous care-of address when a host
    /// moves — enables the previous-foreign-agent forwarding of §5.1.
    pub notify_previous: bool,
    /// Replicate every accepted binding mutation to this standby home
    /// agent (its registration port). `None` disables replication.
    pub replicate_to: Option<Ipv4Addr>,
    /// Fleet membership: this agent's shard id and the fleet's directory;
    /// homes the directory assigns to another shard are denied and
    /// counted. `None` is the paper's standalone agent.
    pub fleet: Option<(u16, ShardDirectory)>,
}

impl HomeAgentConfig {
    /// A default configuration for `addr` serving `home_subnet` via
    /// `home_iface`.
    pub fn new(addr: Ipv4Addr, home_iface: IfaceId, home_subnet: Cidr) -> HomeAgentConfig {
        HomeAgentConfig {
            addr,
            home_iface,
            home_subnet,
            auth_keys: IdHashMap::default(),
            notify_previous: false,
            replicate_to: None,
            fleet: None,
        }
    }
}

mosquitonet_sim::counters! {
    /// Home-agent counters: `{host}/reg/*`.
    pub struct HaStats {
        /// Requests answered (accepted or denied).
        pub processed => "processed",
        /// Registrations accepted.
        pub accepted => "accepted",
        /// Registrations denied (any code).
        pub denied => "denied",
        /// Bindings reclaimed by the expiry sweep.
        pub binding_expiries => "binding_expiries",
        /// Requests and replicas that failed the wire checksum.
        pub corrupt_dropped => "corrupt_dropped",
        /// Binding replicas forwarded to the standby.
        pub replicas_sent => "replicas_sent",
        /// Binding replicas applied from the primary.
        pub replicas_applied => "replicas_applied",
        /// Journal records replayed across restarts.
        pub journal_replayed => "journal_replayed",
    }
}

/// What the machine asks of the host it runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaEvent {
    /// Tunnel `home` to `care_of` and answer ARP for it (again on each
    /// refresh; the machine emits the first serve's gratuitous ARP).
    Serve {
        /// The mobile host's home address.
        home: Ipv4Addr,
        /// Where its packets are tunneled.
        care_of: Ipv4Addr,
    },
    /// Remove `home`'s tunnel and proxy-ARP entry.
    Unserve {
        /// The mobile host's home address.
        home: Ipv4Addr,
    },
}

struct PendingRequest {
    request: RegistrationRequest,
    reply_to: (Ipv4Addr, u16),
}

/// The home agent's side of the registration protocol (§3.1, UDP 434):
/// shard check, verification and floors, the journal, the boot epoch,
/// replicas, replies, the homes served and the FIFO service queue.
pub struct HomeAgentMachine {
    cfg: HomeAgentConfig,
    /// The mobility binding table.
    pub bindings: BindingTable,
    /// The write-ahead journal (stable storage: survives [`Self::crash`]).
    pub journal: BindingJournal,
    /// The boot epoch: stable storage, bumped by every restart.
    epoch: u16,
    /// Homes stood in for; a standby holds bindings without serving them.
    serving: IdHashSet<Ipv4Addr>,
    /// Requests waiting for the CPU; the service timer is armed iff any.
    queue: VecDeque<PendingRequest>,
    events: Vec<HaEvent>,
    sock: Option<SocketId>,
    /// The `reg/*` counters.
    pub stats: HaStats,
    /// Keyed registrations denied as unsigned, forged or tampered
    /// (`reg/auth_fail`, bound only on a keyed agent).
    pub auth_fail: Counter,
    /// Keyed registrations denied for not advancing the floor, i.e.
    /// replays (`reg/auth_replay`, bound only on a keyed agent).
    pub auth_replay: Counter,
    /// Registrations denied because another fleet shard owns the home
    /// (`reg/wrong_shard`, bound only on a fleet shard).
    pub wrong_shard: Counter,
}

impl HomeAgentMachine {
    /// Creates a machine with `cfg`; [`Self::start`] gives it its socket.
    pub fn new(cfg: HomeAgentConfig) -> HomeAgentMachine {
        HomeAgentMachine {
            cfg,
            bindings: BindingTable::new(),
            journal: BindingJournal::new(),
            epoch: 0,
            serving: IdHashSet::default(),
            queue: VecDeque::new(),
            events: Vec::new(),
            sock: None,
            stats: HaStats::default(),
            auth_fail: Counter::default(),
            auth_replay: Counter::default(),
            wrong_shard: Counter::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HomeAgentConfig {
        &self.cfg
    }

    /// The current boot epoch.
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Takes the events produced since the last call, in order.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, HaEvent> {
        self.events.drain(..)
    }

    /// Binds the `reg/*` counters under `scope` (the host's): the auth
    /// pair only on a keyed agent and `wrong_shard` only on a fleet shard,
    /// so other topologies keep the metric sets their goldens pin.
    pub fn register_metrics(&self, scope: &MetricsScope) {
        let reg = scope.scope("reg");
        let HomeAgentMachine {
            cfg,
            stats,
            auth_fail,
            auth_replay,
            wrong_shard,
            ..
        } = self;
        stats.register_into(&reg);
        if !cfg.auth_keys.is_empty() {
            reg.register_counter("auth_fail", auth_fail);
            reg.register_counter("auth_replay", auth_replay);
        }
        if cfg.fleet.is_some() {
            reg.register_counter("wrong_shard", wrong_shard);
        }
    }

    /// Starts the agent: its datagrams leave from `sock`; the sweep is armed.
    pub fn start(&mut self, fx: &mut Effects, sock: SocketId) {
        self.sock = Some(sock);
        fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
    }

    /// Handles a datagram from `reply_to`: a request joins the service
    /// queue, a replica is applied at once, anything else is ignored.
    pub fn on_datagram(
        &mut self,
        fx: &mut Effects,
        now: SimTime,
        reply_to: (Ipv4Addr, u16),
        payload: &[u8],
    ) {
        match classify(payload) {
            Some(MessageKind::Request) => match RegistrationRequest::parse(payload) {
                Ok(request) => {
                    self.queue.push_back(PendingRequest { request, reply_to });
                    if self.queue.len() == 1 {
                        fx.set_timer(HA_PROCESSING, TOKEN_SERVE);
                    }
                }
                Err(_) => {
                    // Detected (wire checksum), counted, never acted on.
                    self.stats.corrupt_dropped.inc();
                    fx.trace("drop.reg_corrupt: registration request failed parse");
                }
            },
            Some(MessageKind::Replica) => match BindingReplica::parse(payload) {
                Ok(replica) => self.on_replica(fx, now, &replica),
                Err(_) => {
                    self.stats.corrupt_dropped.inc();
                    fx.trace("drop.reg_corrupt: binding replica failed parse");
                }
            },
            _ => {}
        }
    }

    /// Handles a timer token: the service timer answers the queue's head,
    /// the sweep timer expires bindings.
    pub fn on_timer(&mut self, fx: &mut Effects, now: SimTime, token: u64) {
        match token {
            TOKEN_SERVE => self.answer_head(fx, now),
            TOKEN_SWEEP => {
                // One record reproduces the whole sweep on replay.
                if let Applied::Sweep(expired) = self.commit(JournalRecord::Sweep { at: now }) {
                    for (home, binding) in expired {
                        self.stats.binding_expiries.inc();
                        self.unserve(home);
                        let line = Line::new("binding expired: {} (was at {})");
                        fx.trace(line.addr(home).addr(binding.care_of));
                    }
                }
                fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
            }
            _ => {}
        }
    }

    /// The node crashed: the table, the served set (the host's proxy-ARP
    /// and tunnel entries die with it) and every queued request are lost.
    pub fn crash(&mut self) {
        self.bindings = BindingTable::new();
        self.serving.clear();
        self.queue.clear();
    }

    /// The node is back: a new epoch, the journal replayed (or cleared if
    /// `storage_lost`), and every binding live at `now` served again, in
    /// address order.
    pub fn restart(&mut self, fx: &mut Effects, now: SimTime, storage_lost: bool) {
        self.epoch = self.epoch.wrapping_add(1);
        if storage_lost {
            // Boot empty; the bumped epoch makes every host re-register.
            self.journal.clear();
            let line = Line::new("ha restart: epoch {} with journal lost, booting empty");
            fx.trace(line.num(self.epoch.into()));
        } else {
            let (table, stats) = self.journal.replay();
            let replayed = stats.binds + stats.unbinds + stats.expiries;
            self.stats.journal_replayed.add(replayed);
            self.bindings = table;
            let line = Line::new(
                "ha restart: epoch {}, journal replayed ({} binds, {} unbinds, {} expiries)",
            );
            let line = line.num(self.epoch.into()).num(stats.binds);
            fx.trace(line.num(stats.unbinds).num(stats.expiries));
            for (home, binding) in self.bindings.live(now) {
                self.serve(fx, home, binding.care_of);
            }
        }
        fx.set_timer(SWEEP_INTERVAL, TOKEN_SWEEP);
    }

    /// The one commit path: applies `record` to the table and journals it
    /// if it took effect. Journal replay applies the same records the
    /// same way ([`JournalRecord::apply_to`]).
    fn commit(&mut self, record: JournalRecord) -> Applied {
        let applied = record.apply_to(&mut self.bindings);
        if applied.took_effect() {
            self.journal.append(record);
        }
        applied
    }

    /// Stands in for `home`; the first serve claims the address with a
    /// gratuitous ARP that voids stale neighbour caches.
    fn serve(&mut self, fx: &mut Effects, home: Ipv4Addr, care_of: Ipv4Addr) {
        self.events.push(HaEvent::Serve { home, care_of });
        if self.serving.insert(home) {
            let iface = self.cfg.home_iface;
            fx.push(Effect::GratuitousArp { iface, addr: home });
        }
    }

    fn unserve(&mut self, home: Ipv4Addr) {
        self.serving.remove(&home);
        self.events.push(HaEvent::Unserve { home });
    }

    fn send(&self, fx: &mut Effects, to: (Ipv4Addr, u16), payload: Bytes) {
        fx.send_udp(self.sock.expect("started"), to, payload);
    }

    /// Streams an accepted mutation to the configured standby.
    fn replicate(&mut self, fx: &mut Effects, record: &JournalRecord) {
        if let (Some(standby), Some(replica)) = (self.cfg.replicate_to, record.replica()) {
            self.stats.replicas_sent.inc();
            self.send(fx, (standby, REGISTRATION_PORT), replica.to_bytes());
        }
    }

    /// Ends the head's service: decides it and sends the reply, signed for
    /// a keyed home so forged denials can't knock its binding down.
    fn answer_head(&mut self, fx: &mut Effects, now: SimTime) {
        let Some(head) = self.queue.pop_front() else {
            return;
        };
        let req = &head.request;
        // The next request's service starts as this one's ends.
        if !self.queue.is_empty() {
            fx.set_timer(HA_PROCESSING, TOKEN_SERVE);
        }
        let (code, lifetime) = self.decide(fx, now, req);
        self.stats.processed.inc();
        if code == ReplyCode::Accepted {
            self.stats.accepted.inc();
        } else {
            self.stats.denied.inc();
        }
        let mut reply = RegistrationReply {
            code,
            lifetime,
            home_addr: req.home_addr,
            home_agent: self.cfg.addr,
            epoch: self.epoch,
            ident: req.ident,
            auth: None,
        };
        if let Some(&(spi, key)) = self.cfg.auth_keys.get(&req.home_addr) {
            reply = reply.sign(spi, key);
        }
        self.send(fx, head.reply_to, reply.to_bytes());
    }

    /// Decides one request: the reply code and the granted lifetime, with
    /// every effect of an acceptance (commit, serve, replica, update) done.
    fn decide(
        &mut self,
        fx: &mut Effects,
        now: SimTime,
        req: &RegistrationRequest,
    ) -> (ReplyCode, u16) {
        let (home, ident) = (req.home_addr, req.ident);
        if req.home_agent != self.cfg.addr || !self.cfg.home_subnet.contains(home) {
            return (ReplyCode::DeniedUnknownHome, 0);
        }
        // An off-shard binding would fork out of the owner's replica
        // stream and journal, so the denial comes before any mutation.
        if let Some((own_shard, directory)) = &self.cfg.fleet {
            let owner = directory.resolve(home);
            if owner != *own_shard {
                self.wrong_shard.inc();
                let line = Line::new("drop.wrong_shard: {} is owned by fleet shard {}");
                fx.trace(line.addr(home).num(owner.into()));
                return (ReplyCode::DeniedUnknownHome, 0);
            }
        }
        // A keyed home authenticates, and its identification must pass
        // every floor this agent has held for it — journal replay restores
        // them, so a captured request stays dead across restarts.
        if let Some(&(_spi, key)) = self.cfg.auth_keys.get(&home) {
            if !req.verify(key) {
                self.auth_fail.inc();
                let line = Line::new("drop.auth_fail: registration for {} unsigned or bad digest");
                fx.trace(line.addr(home));
                return (ReplyCode::DeniedAuth, 0);
            }
            if ident <= self.bindings.last_ident(home) {
                self.auth_replay.inc();
                let line = Line::new("drop.auth_replay: registration for {} replays ident {}");
                fx.trace(line.addr(home).num(ident));
                return (ReplyCode::DeniedIdent, 0);
            }
        }
        let (care_of, granted) = (req.care_of, req.lifetime.min(MAX_LIFETIME_SECS));
        let lifetime = SimDuration::from_secs(granted.into());
        let record = match req.is_deregistration() {
            true => JournalRecord::Unbind { home, ident },
            false => JournalRecord::Bind {
                home,
                care_of,
                lifetime,
                ident,
                at: now,
            },
        };
        let outcome = match self.commit(record) {
            Applied::Unbind(Some(_)) => {
                self.unserve(home);
                self.replicate(fx, &record);
                fx.trace(Line::new("deregistered {}").addr(home));
                return (ReplyCode::Accepted, 0);
            }
            // Deregistration is idempotent, but a live binding the
            // identification did not advance past makes it a replay.
            Applied::Unbind(None) if self.bindings.get(home, now).is_some() => {
                return (ReplyCode::DeniedIdent, 0);
            }
            Applied::Unbind(None) => return (ReplyCode::Accepted, 0),
            Applied::Bind(BindOutcome::ReplayRejected) => return (ReplyCode::DeniedIdent, 0),
            Applied::Bind(outcome) => outcome,
            Applied::Sweep(_) => unreachable!("a request commits a bind or an unbind"),
        };
        self.serve(fx, home, care_of);
        self.replicate(fx, &record);
        match outcome {
            BindOutcome::Created => {
                let line = Line::new("registered {} at care-of {}");
                fx.trace(line.addr(home).addr(care_of));
            }
            BindOutcome::Moved { previous } => {
                let line = Line::new("moved {} from {} to {}");
                fx.trace(line.addr(home).addr(previous).addr(care_of));
                if self.cfg.notify_previous {
                    let update = BindingUpdate {
                        lifetime: 10,
                        home_addr: home,
                        new_care_of: care_of,
                    };
                    self.send(fx, (previous, REGISTRATION_PORT), update.to_bytes());
                }
            }
            BindOutcome::Refreshed | BindOutcome::ReplayRejected => {}
        }
        (ReplyCode::Accepted, granted)
    }

    /// Journals a replica from the primary without serving its host. A
    /// primary refuses replicas: replication is one-way, so one arriving
    /// here is forged, and could raise a floor past the host's own ident.
    fn on_replica(&mut self, fx: &mut Effects, now: SimTime, replica: &BindingReplica) {
        if self.cfg.replicate_to.is_some() {
            let line = Line::new("drop.replica_refused: replica for {} sent to a primary");
            fx.trace(line.addr(replica.home_addr));
            return;
        }
        let record = JournalRecord::from_replica(replica, now);
        if !self.commit(record).took_effect() {
            return;
        }
        self.stats.replicas_applied.inc();
        let line = match replica.op {
            ReplicaOp::Bind => "replica applied: Bind {}",
            ReplicaOp::Unbind => "replica applied: Unbind {}",
        };
        fx.trace(Line::new(line).addr(replica.home_addr));
    }
}

/// The home agent module: registration port 434, and the tunnel route
/// and proxy-ARP entry of every [`HaEvent`] its machine produces.
pub struct HomeAgent {
    /// The protocol.
    pub machine: HomeAgentMachine,
}

impl HomeAgent {
    /// Creates a home agent with `cfg`.
    pub fn new(cfg: HomeAgentConfig) -> HomeAgent {
        HomeAgent {
            machine: HomeAgentMachine::new(cfg),
        }
    }

    /// Applies the machine's events to the host.
    fn apply(&mut self, ctx: &mut ModuleCtx<'_>) {
        let iface = self.machine.config().home_iface;
        for event in self.machine.drain_events() {
            match event {
                HaEvent::Serve { home, care_of } => {
                    ctx.set_tunnel(home, Some(care_of));
                    ctx.core.arp_mut(iface).add_proxy(home);
                }
                HaEvent::Unserve { home } => {
                    ctx.set_tunnel(home, None);
                    ctx.core.arp_mut(iface).remove_proxy(home);
                }
            }
        }
    }
}

impl Module for HomeAgent {
    fn name(&self) -> &'static str {
        "home-agent"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let sock = ctx
            .udp_bind(None, REGISTRATION_PORT)
            .expect("registration port busy");
        self.machine.start(ctx.fx, sock);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.machine.register_metrics(scope);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        self.machine.on_timer(ctx.fx, ctx.now, token);
        self.apply(ctx);
    }

    fn on_crash(&mut self, _ctx: &mut ModuleCtx<'_>) {
        self.machine.crash();
    }

    fn on_restart(&mut self, ctx: &mut ModuleCtx<'_>, storage_lost: bool) {
        self.machine.restart(ctx.fx, ctx.now, storage_lost);
        self.apply(ctx);
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.machine.on_datagram(ctx.fx, ctx.now, src, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DirectoryEntry;
    use mosquitonet_sim::{MetricsRegistry, Snapshot};

    const HA: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 1);
    const STANDBY: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 3);
    const HOME: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 9);
    /// A second home, never keyed.
    const HOME_B: Ipv4Addr = Ipv4Addr::new(36, 135, 0, 10);
    const COA: Ipv4Addr = Ipv4Addr::new(36, 8, 0, 42);
    const COA2: Ipv4Addr = Ipv4Addr::new(36, 134, 0, 42);
    const KEY: u64 = 0xfeed;

    fn req(home: Ipv4Addr, care_of: Ipv4Addr, lifetime: u16, ident: u64) -> RegistrationRequest {
        RegistrationRequest {
            lifetime,
            home_addr: home,
            home_agent: HA,
            care_of,
            ident,
            auth: None,
        }
    }

    fn replica(ident: u64) -> Bytes {
        let replica = BindingReplica {
            op: ReplicaOp::Bind,
            lifetime: 300,
            home_addr: HOME,
            care_of: COA2,
            ident,
        };
        replica.to_bytes()
    }

    /// The machine, a hand-set clock, and the one timer a test needs the
    /// world for: the service timer, fired where it was armed to.
    struct Rig {
        m: HomeAgentMachine,
        fx: Effects,
        now: SimTime,
        serve_at: Option<SimTime>,
        words: Vec<String>,
        journaled: usize,
        registry: MetricsRegistry,
        counted: Snapshot,
    }

    impl Rig {
        fn new(tweak: fn(&mut HomeAgentConfig)) -> Rig {
            let subnet = "36.135.0.0/16".parse().expect("cidr");
            let mut cfg = HomeAgentConfig::new(HA, IfaceId(0), subnet);
            tweak(&mut cfg);
            let mut m = HomeAgentMachine::new(cfg);
            let mut fx = Effects::new();
            m.start(&mut fx, SocketId(0));
            fx.drain();
            let registry = MetricsRegistry::new();
            m.register_metrics(&registry.scope("h"));
            let counted = registry.snapshot();
            Rig {
                m,
                fx,
                now: SimTime::ZERO,
                serve_at: None,
                words: Vec::new(),
                journaled: 0,
                registry,
                counted,
            }
        }

        fn deliver(&mut self, bytes: Bytes) {
            let from = (COA, REGISTRATION_PORT);
            self.m.on_datagram(&mut self.fx, self.now, from, &bytes);
            self.collect();
        }

        fn fire(&mut self, token: u64) {
            self.m.on_timer(&mut self.fx, self.now, token);
            self.collect();
        }

        /// Moves the clock to the armed service timer and fires it.
        fn serve(&mut self) {
            self.now = self.serve_at.take().expect("service timer armed");
            self.fire(TOKEN_SERVE);
        }

        fn register(&mut self, request: RegistrationRequest) -> String {
            self.deliver(request.to_bytes());
            self.serve();
            self.outcome()
        }

        fn restart(&mut self, storage_lost: bool) -> String {
            self.m.crash();
            self.serve_at = None; // the node's timers die with it
            self.outcome();
            self.m.restart(&mut self.fx, self.now, storage_lost);
            self.collect();
            format!("epoch {} {}", self.m.epoch(), self.outcome())
        }

        /// Records a word per effect (`reply:CODE/LIFETIME[/signed]`,
        /// `replica:OP>TO`, `update>TO`, `garp:ADDR`, `+serve`, `+sweep`;
        /// traces left out), per event and per record journaled.
        fn collect(&mut self) {
            for effect in self.fx.drain() {
                let word = match effect {
                    Effect::SendUdp { dst, payload, .. } => match classify(&payload) {
                        Some(MessageKind::Reply) => {
                            let r = RegistrationReply::parse(&payload).expect("reply");
                            let signed = if r.auth.is_some() { "/signed" } else { "" };
                            format!("reply:{:?}/{}{signed}", r.code, r.lifetime)
                        }
                        Some(MessageKind::Replica) => {
                            let op = BindingReplica::parse(&payload).expect("replica").op;
                            format!("replica:{op:?}>{}", dst.0)
                        }
                        Some(MessageKind::Update) => format!("update>{}", dst.0),
                        other => panic!("unexpected {other:?} to {dst:?}"),
                    },
                    Effect::GratuitousArp { addr, .. } => format!("garp:{addr}"),
                    Effect::SetTimer { delay, token } if token == TOKEN_SERVE => {
                        self.serve_at = Some(self.now + delay);
                        "+serve".to_string()
                    }
                    Effect::SetTimer {
                        token: TOKEN_SWEEP, ..
                    } => "+sweep".to_string(),
                    Effect::Trace(_) => continue,
                    other => panic!("unexpected {other:?}"),
                };
                self.words.push(word);
            }
            for event in self.m.drain_events() {
                self.words.push(match event {
                    HaEvent::Serve { home, care_of } => format!("serve:{home}>{care_of}"),
                    HaEvent::Unserve { home } => format!("unserve:{home}"),
                });
            }
            for record in self.m.journal.records().iter().skip(self.journaled) {
                self.words.push(match record {
                    JournalRecord::Bind { .. } => "rec:Bind".to_string(),
                    JournalRecord::Unbind { .. } => "rec:Unbind".to_string(),
                    JournalRecord::Sweep { .. } => "rec:Sweep".to_string(),
                });
            }
            self.journaled = self.m.journal.len();
        }

        /// The words since the last outcome, then ` | ` and the counters
        /// that moved (`none` for an empty list).
        fn outcome(&mut self) -> String {
            let counted = self.registry.snapshot();
            let moved: Vec<&str> = counted
                .iter()
                .filter(|&(name, _)| counted.counter(name) != self.counted.counter(name))
                .map(|(name, _)| &name["h/reg/".len()..])
                .collect();
            let words = std::mem::take(&mut self.words);
            let list = |items: Vec<&str>| match items.is_empty() {
                true => "none".to_string(),
                false => items.join(" "),
            };
            let words = list(words.iter().map(String::as_str).collect());
            let outcome = format!("{words} | {}", list(moved));
            self.counted = counted;
            outcome
        }
    }

    #[test]
    fn each_input_yields_its_effects_events_and_records() {
        type Tweak = fn(&mut HomeAgentConfig);
        let plain: Tweak = |_| {};
        let keyed: Tweak = |c| {
            c.auth_keys.insert(HOME, (7, KEY));
        };
        let primary: Tweak = |c| c.replicate_to = Some(STANDBY);
        let notify: Tweak = |c| c.notify_previous = true;
        let off_shard: Tweak = |c| {
            let row = |shard| DirectoryEntry {
                shard,
                active: HA,
                standby: STANDBY,
            };
            let directory = ShardDirectory::new(1, (0..2).map(row));
            c.fleet = Some((1 - directory.resolve(HOME), directory));
        };
        let created = "+serve garp:36.135.0.9 replica:Bind>36.135.0.3 reply:Accepted/600 \
            serve:36.135.0.9>36.8.0.42 rec:Bind | accepted processed replicas_sent";
        let in_one_instant = "t+1480us t+2960us t+4440us +serve +serve reply:Accepted/0 \
            +serve reply:Accepted/0 reply:Accepted/0 | accepted processed";
        let restarted = "epoch 1 garp:36.135.0.9 garp:36.135.0.10 +sweep \
            serve:36.135.0.9>36.134.0.42 serve:36.135.0.10>36.8.0.42 | journal_replayed";
        let unkeyed_beside_keyed = "+serve garp:36.135.0.10 reply:Accepted/300 \
            serve:36.135.0.10>36.8.0.42 rec:Bind | accepted processed";
        type Row = (&'static str, Tweak, fn(&mut Rig) -> String, &'static str);
        let rows: [Row; 18] = [
            (
                "unknown home",
                plain,
                |r| r.register(req(COA2, COA, 300, 1)),
                "+serve reply:DeniedUnknownHome/0 | denied processed",
            ),
            (
                "off-shard",
                off_shard,
                |r| r.register(req(HOME, COA, 300, 1)),
                "+serve reply:DeniedUnknownHome/0 | denied processed wrong_shard",
            ),
            (
                "corrupt request",
                plain,
                |r| {
                    let mut bytes = req(HOME, COA, 300, 1).to_bytes().to_vec();
                    bytes[3] ^= 1; // breaks the wire checksum
                    r.deliver(bytes.into());
                    r.outcome()
                },
                "none | corrupt_dropped",
            ),
            (
                "replayed ident",
                plain,
                |r| {
                    r.register(req(HOME, COA, 300, 5));
                    r.register(req(HOME, COA2, 300, 5))
                },
                "+serve reply:DeniedIdent/0 | denied processed",
            ),
            (
                "create, capped at the longest lifetime, replicated",
                primary,
                |r| r.register(req(HOME, COA, 900, 1)),
                created,
            ),
            (
                "move, notifying the previous care-of",
                notify,
                |r| {
                    r.register(req(HOME, COA, 300, 1));
                    r.register(req(HOME, COA2, 300, 2))
                },
                "+serve update>36.8.0.42 reply:Accepted/300 serve:36.135.0.9>36.134.0.42 \
                 rec:Bind | accepted processed",
            ),
            (
                "deregister",
                plain,
                |r| {
                    r.register(req(HOME, COA, 300, 1));
                    r.register(req(HOME, COA, 0, 2))
                },
                "+serve reply:Accepted/0 unserve:36.135.0.9 rec:Unbind | accepted processed",
            ),
            (
                "idempotent deregistration",
                plain,
                |r| r.register(req(HOME, COA, 0, 1)),
                "+serve reply:Accepted/0 | accepted processed",
            ),
            (
                "expiry sweep",
                plain,
                |r| {
                    r.register(req(HOME, COA, 300, 1));
                    r.now += SimDuration::from_secs(301);
                    r.fire(TOKEN_SWEEP);
                    r.outcome()
                },
                "+sweep unserve:36.135.0.9 rec:Sweep | binding_expiries",
            ),
            (
                "three requests in one instant",
                plain,
                |r| {
                    for ident in 1..=3 {
                        r.deliver(req(HOME, COA, 0, ident).to_bytes());
                    }
                    let times: Vec<String> = (0..3)
                        .map(|_| {
                            r.serve();
                            r.now.to_string()
                        })
                        .collect();
                    format!("{} {}", times.join(" "), r.outcome())
                },
                in_one_instant,
            ),
            (
                "crash with requests queued",
                plain,
                |r| {
                    r.deliver(req(HOME, COA, 300, 1).to_bytes());
                    r.deliver(req(HOME_B, COA, 300, 1).to_bytes());
                    r.m.crash();
                    r.fire(TOKEN_SERVE);
                    r.outcome()
                },
                "+serve | none",
            ),
            (
                "restart",
                plain,
                |r| {
                    r.register(req(HOME_B, COA, 300, 1));
                    r.register(req(HOME, COA2, 300, 1));
                    r.restart(false)
                },
                restarted,
            ),
            (
                "restart with the journal lost",
                plain,
                |r| {
                    r.register(req(HOME, COA, 300, 1));
                    format!("{} records {}", r.restart(true), r.m.journal.len())
                },
                "epoch 1 +sweep | none records 0",
            ),
            (
                "replica at a standby",
                plain,
                |r| {
                    r.deliver(replica(1));
                    r.outcome()
                },
                "rec:Bind | replicas_applied",
            ),
            (
                "replica at a primary",
                primary,
                |r| {
                    r.deliver(replica(1 << 40));
                    format!("{} floor {}", r.outcome(), r.m.bindings.last_ident(HOME))
                },
                "none | none floor 0",
            ),
            (
                "keyed home, unsigned",
                keyed,
                |r| r.register(req(HOME, COA, 300, 1)),
                "+serve reply:DeniedAuth/0/signed | auth_fail denied processed",
            ),
            (
                "keyed home, signed, then replayed",
                keyed,
                |r| {
                    let first = r.register(req(HOME, COA, 300, 4).sign(7, KEY));
                    let again = r.register(req(HOME, COA2, 300, 4).sign(7, KEY));
                    format!("{first} / {again}")
                },
                "+serve garp:36.135.0.9 reply:Accepted/300/signed serve:36.135.0.9>36.8.0.42 \
                 rec:Bind | accepted processed / \
                 +serve reply:DeniedIdent/0/signed | auth_replay denied processed",
            ),
            (
                "unkeyed home beside a keyed one, unsigned",
                keyed,
                |r| r.register(req(HOME_B, COA, 300, 1)),
                unkeyed_beside_keyed,
            ),
        ];
        for (name, tweak, act, want) in rows {
            assert_eq!(act(&mut Rig::new(tweak)), want, "{name}");
        }
    }
}
