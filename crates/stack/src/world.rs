//! The network world: hosts wired to LANs under the discrete-event engine.
//!
//! This module owns all *scheduling*: frame transmission and delivery,
//! module timers, TCP retransmission timers, ARP retries, interface power
//! transitions, and the application of module [`Effect`]s. The IP
//! forwarding logic itself lives in [`crate::ip`].

use std::collections::HashMap;

use bytes::BufMut;
use mosquitonet_link::{
    Attachment, AttachmentKey, EtherType, FaultVerdict, Frame, Lan, FRAME_HEADER_LEN,
};
use mosquitonet_sim::{
    Counter, IdHashMap, Line, MetricCell, ShardEnvelope, ShardWorld, Sim, SimDuration, SimTime,
    TraceKind, NO_FLIGHT,
};
use mosquitonet_wire::{ArpPacket, EnvelopeArena, Ipv4Packet, MacAddr, PacketBuf, PacketBytes};

use crate::arp::ArpAction;
use crate::host::{Host, HostId};
use crate::iface::{IfaceId, LanId};
use crate::ip;
use crate::proto::{Effect, Effects, Module, ModuleCtx, ModuleId};
use crate::tcp::ConnId;
use crate::telemetry::DropReason::{
    ArpFailure, FaultDrop, IfaceDown, LeftLan, Malformed, MediumLoss, TxMtu,
};
use crate::telemetry::{emit, note, note_text, Event, SILENT};

/// Retry interval for unanswered ARP requests (classic 1 s).
pub const ARP_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The simulation world: all hosts and LANs.
#[derive(Default)]
pub struct Network {
    /// Hosts, indexed by [`HostId`].
    pub hosts: Vec<Host>,
    /// LANs, indexed by [`LanId`].
    pub lans: Vec<Lan>,
    /// Who holds each [`AttachmentKey`] ever handed out, indexed by the
    /// key (keys are dense: the next one is this table's length); `None`
    /// once detached.
    attach_map: Vec<Option<(HostId, IfaceId)>>,
    attach_keys: IdHashMap<(HostId, IfaceId), AttachmentKey>,
    /// Cross-shard plumbing; `None` (the default) keeps the world fully
    /// unsharded — zero overhead, byte-identical to the classic engine.
    sharding: Option<Sharding>,
}

/// A simulation over a [`Network`].
pub type NetSim = Sim<Network>;

/// A frame crossing a shard boundary: the wire bytes plus enough metadata
/// to replay delivery on the peer shard's copy of the portal segment.
#[derive(Debug, Clone)]
pub struct WireEnvelope {
    /// Global portal id naming the distributed segment the frame is on.
    pub portal: u32,
    /// Destination MAC (repeated so recipients are found without parsing).
    pub dst: MacAddr,
    /// Sender MAC (for the receiving segment's self-exclusion rules).
    pub src: MacAddr,
    /// Flight-recorder id (already namespaced by the origin shard).
    pub flight: u64,
    /// The full wire bytes, frame header included.
    pub bytes: Vec<u8>,
}

/// One staged cross-shard transmission, pointing into the bump arena.
#[derive(Debug)]
struct Staged {
    dst_shard: u32,
    seq: u64,
    at: SimTime,
    portal: u32,
    dst: MacAddr,
    src: MacAddr,
    flight: u64,
    /// Index of the wire bytes in [`Sharding::arena`].
    index: usize,
}

/// Per-shard state for a world participating in a sharded run.
#[derive(Debug, Default)]
struct Sharding {
    /// This world's shard id.
    shard: u32,
    /// Total shard count in the run.
    shards: u32,
    /// Local portal LANs: LAN -> global portal id.
    portal_of_lan: HashMap<LanId, u32>,
    /// Global portal id -> the local copy of that segment.
    lan_of_portal: HashMap<u32, LanId>,
    /// Which shard owns a unicast MAC attached to a portal segment.
    /// Unlisted (and broadcast) destinations fan out to every peer.
    mac_directory: HashMap<MacAddr, u32>,
    /// Bump arena staging outbound frame bytes; reset at each barrier.
    arena: EnvelopeArena,
    staged: Vec<Staged>,
    next_seq: u64,
    /// Mirrors the arena's reset count into `pktbuf/arena_resets`.
    arena_resets: Counter,
}

impl Network {
    /// Marks this world as shard `shard` of `shards` in a sharded run.
    /// Call before adding portals; unsharded worlds never call it.
    pub fn enable_sharding(&mut self, shard: u32, shards: u32) {
        assert!(shard < shards, "shard {shard} out of range 0..{shards}");
        self.sharding = Some(Sharding {
            shard,
            shards,
            ..Sharding::default()
        });
    }

    /// This world's shard id, when sharded.
    pub fn shard_id(&self) -> Option<u32> {
        self.sharding.as_ref().map(|s| s.shard)
    }

    /// Registers `lan` as the local copy of the distributed portal
    /// segment `portal`. Frames transmitted onto it reach local
    /// attachments normally and are additionally staged as envelopes for
    /// the peer shards, arriving one trunk delay later. The segment must
    /// be fixed-delay and lossless (see
    /// [`backbone_trunk`](mosquitonet_link::presets::backbone_trunk)):
    /// its minimum latency is the scheduler's lookahead bound.
    pub fn add_portal(&mut self, lan: LanId, portal: u32) {
        let min = self.lans[lan.0].min_latency();
        assert!(
            min > SimDuration::ZERO,
            "portal segment {} has zero minimum latency: no lookahead",
            self.lans[lan.0].name()
        );
        let sh = self
            .sharding
            .as_mut()
            .expect("enable_sharding before add_portal");
        sh.portal_of_lan.insert(lan, portal);
        sh.lan_of_portal.insert(portal, lan);
    }

    /// Records that unicast frames for `mac` on a portal segment should
    /// only be enveloped to `shard` (instead of fanned out to every
    /// peer). Broadcast and unlisted MACs still reach all shards.
    pub fn register_portal_mac(&mut self, mac: MacAddr, shard: u32) {
        let sh = self
            .sharding
            .as_mut()
            .expect("enable_sharding before register_portal_mac");
        sh.mac_directory.insert(mac, shard);
    }

    /// How many times the cross-shard staging arena has been recycled.
    pub fn arena_resets(&self) -> u64 {
        self.sharding.as_ref().map_or(0, |s| s.arena.resets())
    }
}

/// Stages cross-shard copies of a frame transmitted onto a portal
/// segment. The arrival instant is `tx_time` plus the segment's (fixed)
/// latency, which the conservative scheduler's lookahead guarantees lies
/// at or beyond the current window's end.
fn stage_cross_shard(
    w: &mut Network,
    lan: LanId,
    now: SimTime,
    tx_delay: SimDuration,
    dst: MacAddr,
    src: MacAddr,
    wire: &PacketBytes,
) {
    let trunk = w.lans[lan.0].min_latency();
    let Some(sh) = w.sharding.as_mut() else {
        return;
    };
    let Some(&portal) = sh.portal_of_lan.get(&lan) else {
        return;
    };
    let me = sh.shard;
    let targets = match sh.mac_directory.get(&dst) {
        Some(&owner) if owner == me => return, // stays local
        Some(&owner) => owner..owner + 1,
        // Broadcast or unknown unicast: every peer judges for itself.
        None if sh.shards > 1 => 0..sh.shards,
        None => return, // no peers
    };
    let at = now + tx_delay + trunk;
    let flight = wire.flight();
    let index = sh.arena.stage(wire);
    for dst_shard in targets.filter(|&s| s != me) {
        let seq = sh.next_seq;
        sh.next_seq += 1;
        sh.staged.push(Staged {
            dst_shard,
            seq,
            at,
            portal,
            dst,
            src,
            flight,
            index,
        });
    }
}

impl ShardWorld for Network {
    type Payload = WireEnvelope;

    fn shard_outbox(sim: &mut Sim<Network>) -> Vec<ShardEnvelope<WireEnvelope>> {
        let w = sim.world_mut();
        let Some(sh) = w.sharding.as_mut() else {
            return Vec::new();
        };
        let src_shard = sh.shard;
        let staged = std::mem::take(&mut sh.staged);
        staged
            .into_iter()
            .map(|s| ShardEnvelope {
                src_shard,
                dst_shard: s.dst_shard,
                seq: s.seq,
                at: s.at,
                payload: WireEnvelope {
                    portal: s.portal,
                    dst: s.dst,
                    src: s.src,
                    flight: s.flight,
                    bytes: sh.arena.get(s.index).to_vec(),
                },
            })
            .collect()
    }

    fn shard_inject(sim: &mut Sim<Network>, env: ShardEnvelope<WireEnvelope>) {
        let at = env.at;
        let WireEnvelope {
            portal,
            dst,
            src,
            flight,
            bytes,
        } = env.payload;
        let (w, _, mut queue) = sim.split();
        let Some(sh) = w.sharding.as_ref() else {
            return;
        };
        let Some(&lan_id) = sh.lan_of_portal.get(&portal) else {
            debug_assert!(false, "envelope for unknown portal {portal}");
            return;
        };
        // The trunk is lossless and its delay is already baked into
        // `at`, so delivery needs no medium draws here — and must not
        // make any: cross-shard traffic never touches this shard's
        // RNG stream.
        let mut recipients = w.lans[lan_id.0]
            .recipients(dst, src)
            .filter_map(|key| w.resolve_attachment(key))
            .peekable();
        if recipients.peek().is_none() {
            return;
        }
        let bytes = PacketBytes::from_vec(bytes).with_flight(flight);
        for (h, i) in recipients {
            let copy = bytes.clone();
            let at = at + w.hosts[h.0].core.proc_delay;
            queue.schedule_at(at, move |sim| receive_frame(sim, h, i, lan_id, copy));
        }
    }

    fn at_barrier(sim: &mut Sim<Network>) {
        let w = sim.world_mut();
        if let Some(sh) = w.sharding.as_mut() {
            if !sh.arena.is_empty() {
                sh.arena.reset();
                sh.arena_resets.inc();
            }
        }
    }
}

impl Network {
    /// Creates an empty world.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a host; returns its handle.
    pub fn add_host(&mut self, name: impl Into<String>) -> HostId {
        let id = HostId(self.hosts.len());
        self.hosts.push(Host::new(id, name));
        id
    }

    /// Shared host access.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0]
    }

    /// Exclusive host access.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0]
    }

    /// Adds a LAN; returns its handle.
    pub fn add_lan(&mut self, lan: Lan) -> LanId {
        let id = LanId(self.lans.len());
        self.lans.push(lan);
        id
    }

    /// Attaches a host interface to a LAN (plugging the cable / entering
    /// radio range). The interface must not already be attached.
    pub fn attach(&mut self, host: HostId, iface: IfaceId, lan: LanId) {
        self.attach_with(host, iface, lan, false);
    }

    fn attach_with(&mut self, host: HostId, iface: IfaceId, lan: LanId, promiscuous: bool) {
        assert!(
            !self.attach_keys.contains_key(&(host, iface)),
            "{:?}/{:?} already attached",
            host,
            iface
        );
        let key = AttachmentKey(self.attach_map.len() as u64);
        let mac = self.hosts[host.0].core.iface(iface).device.mac();
        self.lans[lan.0].attach(Attachment {
            key,
            mac,
            promiscuous,
        });
        self.hosts[host.0].core.iface_mut(iface).lan = Some(lan);
        self.attach_map.push(Some((host, iface)));
        self.attach_keys.insert((host, iface), key);
    }

    /// Detaches an interface from its LAN (unplugging / leaving range).
    pub fn detach(&mut self, host: HostId, iface: IfaceId) {
        if let Some(key) = self.attach_keys.remove(&(host, iface)) {
            if let Some(lan) = self.hosts[host.0].core.iface(iface).lan {
                self.lans[lan.0].detach(key);
            }
            self.attach_map[key.0 as usize] = None;
            self.hosts[host.0].core.iface_mut(iface).lan = None;
        }
    }

    /// Attaches an interface in promiscuous mode: it receives every frame
    /// on the LAN regardless of destination MAC (a sniffer tap). Combine
    /// with [`HostCore::capture`](crate::HostCore) on the host to log a
    /// `tcpdump`-style line per frame.
    pub fn attach_promiscuous(&mut self, host: HostId, iface: IfaceId, lan: LanId) {
        self.attach_with(host, iface, lan, true);
    }

    /// Moves an interface to a different LAN (physical roaming).
    pub fn move_iface(&mut self, host: HostId, iface: IfaceId, lan: Option<LanId>) {
        self.detach(host, iface);
        if let Some(lan) = lan {
            self.attach(host, iface, lan);
        }
    }

    fn resolve_attachment(&self, key: AttachmentKey) -> Option<(HostId, IfaceId)> {
        *self.attach_map.get(key.0 as usize)?
    }
}

/// Starts every module on every host (call once after building the world).
/// Also binds every host's counters into the run's metrics registry.
pub fn start(sim: &mut NetSim) {
    register_metrics(sim);
    let hosts = sim.world().hosts.len();
    for h in 0..hosts {
        let modules = sim.world().hosts[h].module_count();
        for m in 0..modules {
            dispatch(sim, HostId(h), ModuleId(m), |module, ctx| {
                module.on_start(ctx);
            });
        }
    }
}

/// Binds every host's packet-path counters — IP stats, per-interface
/// device and ARP counters, TCP retransmits — and every installed
/// module's metrics into the run's registry under `{host}/...`.
///
/// [`start`] calls this; worlds that add hosts, interfaces, or modules
/// afterwards can call it again — rebinding is idempotent.
pub fn register_metrics(sim: &mut NetSim) {
    let registry = sim.metrics().clone();
    let w = sim.world();
    for h in &w.hosts {
        let host_scope = registry.scope(h.core.name.as_str());
        h.core.stats.register_into(&host_scope.scope("ip"));
        h.fastpath
            .stats
            .register_into(&host_scope.scope("fastpath"));
        host_scope.register(
            "tcp/retransmits",
            MetricCell::Counter(h.core.tcp.retransmits.clone()),
        );
        for (i, ifc) in h.core.ifaces.iter().enumerate() {
            let if_scope = host_scope.scope(&format!("if{i}.{}", ifc.device.name()));
            ifc.device.counters.register_into(&if_scope);
            h.core.arp[i].stats.register_into(&if_scope);
        }
        for module in h.modules.iter().flatten() {
            module.register_metrics(&host_scope);
        }
        // A host-level fault plan counts the crashes/restarts it applied
        // under `{host}/fault.{crash,restart}`.
        if let Some(plan) = &h.fault {
            plan.register_metrics(&host_scope);
        }
    }
    // Fault-injection plans count what they perturb per LAN; bind each
    // plan's `fault.{kind}` counters under `lan.{name}/`.
    for lan in &w.lans {
        if let Some(plan) = &lan.fault {
            plan.register_metrics(&registry.scope(format!("lan.{}", lan.name())));
        }
    }
    // Sharded worlds count staging-arena recycles; merged snapshots sum
    // the per-shard cells under the one `pktbuf/arena_resets` id.
    if let Some(sh) = &w.sharding {
        registry.register(
            "pktbuf/arena_resets",
            MetricCell::Counter(sh.arena_resets.clone()),
        );
    }
}

/// Installs a module on a running world and starts it immediately (its
/// metrics are bound like [`register_metrics`] would).
pub fn add_module(sim: &mut NetSim, host: HostId, module: Box<dyn Module>) -> ModuleId {
    let id = sim.world_mut().hosts[host.0].add_module(module);
    let registry = sim.metrics().clone();
    let h = &sim.world().hosts[host.0];
    if let Some(m) = &h.modules[id.0] {
        m.register_metrics(&registry.scope(h.core.name.as_str()));
    }
    dispatch(sim, host, id, |m, ctx| m.on_start(ctx));
    id
}

/// Runs `f` against one module with a [`ModuleCtx`], then applies the
/// effects (and any pending TCP output) it produced.
///
/// This is also the public entry point experiment harnesses use to issue
/// commands to a module (e.g. "switch to the radio now") with full access
/// to the host and the effects queue.
pub fn dispatch<R>(
    sim: &mut NetSim,
    host: HostId,
    module: ModuleId,
    f: impl FnOnce(&mut dyn Module, &mut ModuleCtx<'_>) -> R,
) -> R {
    let now = sim.now();
    let t0 = sim.profiler().begin();
    let mut fx = Effects::new();
    let (result, mod_name) = {
        let w = sim.world_mut();
        let h = &mut w.hosts[host.0];
        let Some(mut m) = h.take_module(module) else {
            panic!(
                "module {module:?} on host {} re-entered or missing",
                h.core.name
            );
        };
        let name = m.name();
        let mut ctx = ModuleCtx {
            core: &mut h.core,
            fx: &mut fx,
            now,
            me: module,
        };
        let r = f(m.as_mut(), &mut ctx);
        h.put_module(module, m);
        (r, name)
    };
    drain_pending_tcp(sim, host);
    apply_effects(sim, host, module, fx);
    sim.profiler_mut().end_module(mod_name, t0);
    result
}

/// Applies queued effects for `(host, module)`.
pub(crate) fn apply_effects(sim: &mut NetSim, host: HostId, module: ModuleId, mut fx: Effects) {
    for effect in fx.drain() {
        match effect {
            Effect::SendUdp {
                sock,
                dst,
                payload,
                opts,
            } => {
                ip::udp_send(sim, host, sock, dst, [payload], opts);
            }
            Effect::SendUdpBurst {
                sock,
                dst,
                payloads,
                opts,
            } => {
                ip::udp_send(sim, host, sock, dst, payloads, opts);
            }
            Effect::SendIp { packet, opts } => {
                ip::ip_send_packet(sim, host, packet, opts);
            }
            Effect::SetTimer { delay, token } => {
                set_module_timer(sim, host, module, delay, token);
            }
            Effect::CancelTimer { token } => {
                if let Some(ev) = sim.world_mut().hosts[host.0]
                    .module_timers
                    .remove(&(module, token))
                {
                    sim.cancel(ev);
                }
            }
            Effect::BringIfaceUp(iface) => {
                bring_iface_up(sim, host, iface);
            }
            Effect::BringIfaceDown(iface) => {
                let h = &mut sim.world_mut().hosts[host.0];
                let _quiesce = h.core.iface_mut(iface).device.bring_down();
                // Power transitions invalidate the fast path: a cached
                // decision through this interface must not outlive it.
                h.core.iface_mut(iface).note_power_change();
                note_text(sim, host, TraceKind::Device, |w| {
                    format!("{} down", w.hosts[host.0].core.iface(iface).device.name())
                });
            }
            Effect::GratuitousArp { iface, addr } => {
                let mac = sim.world().hosts[host.0].core.iface(iface).device.mac();
                let arp = ArpPacket::gratuitous(mac, addr);
                let frame = Frame::new(
                    mosquitonet_wire::MacAddr::BROADCAST,
                    mac,
                    EtherType::Arp,
                    arp.to_bytes(),
                );
                transmit_frame(sim, host, iface, frame, mosquitonet_sim::NO_FLIGHT);
            }
            Effect::Trace(line) => note(sim, host, TraceKind::Mobility, line),
        }
    }
}

fn set_module_timer(
    sim: &mut NetSim,
    host: HostId,
    module: ModuleId,
    delay: SimDuration,
    token: u64,
) {
    // Re-arming an existing token cancels the previous instance.
    if let Some(old) = sim.world_mut().hosts[host.0]
        .module_timers
        .remove(&(module, token))
    {
        sim.cancel(old);
    }
    let ev = sim.schedule_in(delay, move |sim| {
        sim.world_mut().hosts[host.0]
            .module_timers
            .remove(&(module, token));
        dispatch(sim, host, module, |m, ctx| m.on_timer(ctx, token));
    });
    sim.world_mut().hosts[host.0]
        .module_timers
        .insert((module, token), ev);
}

/// Drains TCP output queued by synchronous `HostCore::tcp_*` calls.
pub(crate) fn drain_pending_tcp(sim: &mut NetSim, host: HostId) {
    loop {
        let pending = std::mem::take(&mut sim.world_mut().hosts[host.0].core.pending_tcp);
        if pending.is_empty() {
            return;
        }
        for (conn, out) in pending {
            ip::apply_tcp_out(sim, host, conn, out);
        }
    }
}

/// (Re)arms or cancels the retransmission timer for a connection.
pub(crate) fn set_tcp_timer(sim: &mut NetSim, host: HostId, conn: ConnId, op: crate::tcp::TimerOp) {
    use crate::tcp::TimerOp;
    match op {
        TimerOp::Keep => {}
        TimerOp::Cancel => {
            if let Some(ev) = sim.world_mut().hosts[host.0].tcp_timers.remove(&conn) {
                sim.cancel(ev);
            }
        }
        TimerOp::Arm(delay) => {
            if let Some(ev) = sim.world_mut().hosts[host.0].tcp_timers.remove(&conn) {
                sim.cancel(ev);
            }
            let ev = sim.schedule_in(delay, move |sim| {
                sim.world_mut().hosts[host.0].tcp_timers.remove(&conn);
                let out = sim.world_mut().hosts[host.0].core.tcp.on_rto(conn);
                ip::apply_tcp_out(sim, host, conn, out);
            });
            sim.world_mut().hosts[host.0].tcp_timers.insert(conn, ev);
        }
    }
}

/// Begins powering an interface up; when the device is ready, every module
/// on the host receives `on_iface_up`. Returns the instant the device will
/// be ready (callers sequencing work after the bring-up — e.g. a node
/// restart — schedule at or after it).
pub fn bring_iface_up(sim: &mut NetSim, host: HostId, iface: IfaceId) -> SimTime {
    let now = sim.now();
    let ready_at = {
        let dev = &mut sim.world_mut().hosts[host.0].core.iface_mut(iface).device;
        dev.begin_bring_up(now)
    };
    // An already-up device completes "immediately": modules are still
    // notified, so callers get uniform ensure-up-then-continue semantics.
    sim.schedule_at(ready_at, move |sim| {
        let now = sim.now();
        let h = &mut sim.world_mut().hosts[host.0];
        h.core.iface_mut(iface).device.poll(now);
        h.core.iface_mut(iface).note_power_change();
        let modules = h.module_count();
        note_text(sim, host, TraceKind::Device, |w| {
            format!("{} up", w.hosts[host.0].core.iface(iface).device.name())
        });
        for m in 0..modules {
            dispatch(sim, host, ModuleId(m), |module, ctx| {
                module.on_iface_up(ctx, iface);
            });
        }
    });
    ready_at
}

/// Schedules every crash/restart cycle in the host's installed fault plan
/// (see [`Host::fault`]). Call once after installing the plan; pair with
/// [`register_metrics`] so the plan's counters appear in sidecars.
pub fn install_host_faults(sim: &mut NetSim, host: HostId) {
    let events: Vec<mosquitonet_link::HostFaultEvent> = sim.world().hosts[host.0]
        .fault
        .as_ref()
        .map(|p| p.events().to_vec())
        .unwrap_or_default();
    for ev in events {
        sim.schedule_at(ev.at, move |sim| crash_host(sim, host));
        sim.schedule_at(ev.at + ev.restart_after, move |sim| {
            restart_host(sim, host, ev.lose_journal)
        });
    }
}

/// Crashes a node: every timer dies, every interface powers off, and all
/// volatile state — ARP caches *and* proxy duties, VIF tunnel routes, the
/// fast-path decision cache, each module's in-memory tables (via
/// [`Module::on_crash`]) — is wiped. Static boot configuration (addresses,
/// kernel routes, socket binds) survives, as it would in files on a real
/// host. Counted as `{host}/fault.crash` when a plan is installed.
pub fn crash_host(sim: &mut NetSim, host: HostId) {
    if let Some(plan) = &sim.world().hosts[host.0].fault {
        plan.note_crash();
    }
    let line = Line::new("fault.crash: node down, volatile state lost");
    note(sim, host, TraceKind::Marker, line);
    // Every armed timer dies with the node.
    let (module_timers, tcp_timers) = {
        let h = &mut sim.world_mut().hosts[host.0];
        (
            std::mem::take(&mut h.module_timers),
            std::mem::take(&mut h.tcp_timers),
        )
    };
    for (_, ev) in module_timers {
        sim.cancel(ev);
    }
    for (_, ev) in tcp_timers {
        sim.cancel(ev);
    }
    {
        let h = &mut sim.world_mut().hosts[host.0];
        for i in 0..h.core.ifaces.len() {
            let ifc = h.core.iface_mut(IfaceId(i));
            let _quiesce = ifc.device.bring_down();
            ifc.note_power_change();
        }
        for arp in &mut h.core.arp {
            arp.crash_wipe();
        }
        h.core.clear_all_tunnels();
        h.fastpath.flush();
    }
    let modules = sim.world().hosts[host.0].module_count();
    for m in 0..modules {
        dispatch(sim, host, ModuleId(m), |module, ctx| module.on_crash(ctx));
    }
}

/// Restarts a crashed node: physical (LAN-attached, non-VIF) interfaces
/// power back up, and once the slowest is ready every module receives
/// [`Module::on_restart`] with `storage_lost` saying whether durable
/// storage (e.g. the home agent's binding journal) was destroyed too.
/// Counted as `{host}/fault.restart` when a plan is installed.
pub fn restart_host(sim: &mut NetSim, host: HostId, storage_lost: bool) {
    let now = sim.now();
    if let Some(plan) = &sim.world().hosts[host.0].fault {
        plan.note_restart();
    }
    let line = if storage_lost {
        "fault.restart: node rebooting, journal lost"
    } else {
        "fault.restart: node rebooting"
    };
    note(sim, host, TraceKind::Marker, Line::new(line));
    let n_ifaces = sim.world().hosts[host.0].core.ifaces.len();
    let mut ready = now;
    for i in 0..n_ifaces {
        let ifc = sim.world().hosts[host.0].core.iface(IfaceId(i));
        if ifc.is_vif || ifc.lan.is_none() {
            continue;
        }
        let at = bring_iface_up(sim, host, IfaceId(i));
        ready = ready.max(at);
    }
    // Same-time events fire FIFO, so scheduling after the bring-ups means
    // the devices are up (and modules' on_iface_up has run) before the
    // restart hooks see them.
    sim.schedule_at(ready, move |sim| {
        let modules = sim.world().hosts[host.0].module_count();
        for m in 0..modules {
            dispatch(sim, host, ModuleId(m), |module, ctx| {
                module.on_restart(ctx, storage_lost)
            });
        }
    });
}

/// Hands a frame to a device for transmission onto its LAN.
///
/// Convenience wrapper over [`transmit_wire`] for the control-plane paths
/// (ARP, module-built frames) that assemble a [`Frame`] value: the payload
/// is copied once into a pooled buffer and the header prepended in place.
/// The IP output path skips this and assembles its wire bytes directly.
/// `flight` tags the buffer for the flight recorder ([`NO_FLIGHT`] for
/// untracked control traffic like ARP).
///
/// [`NO_FLIGHT`]: mosquitonet_sim::NO_FLIGHT
pub(crate) fn transmit_frame(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    frame: Frame,
    flight: u64,
) {
    let mut buf = PacketBuf::with_headroom(FRAME_HEADER_LEN);
    buf.put_slice(&frame.payload);
    Frame::write_header(
        frame.dst,
        frame.src,
        frame.ethertype,
        buf.prepend(FRAME_HEADER_LEN),
    );
    buf.set_flight(flight);
    transmit_wire(sim, host, iface, frame.dst, buf.freeze());
}

/// Hands fully-assembled wire bytes (frame header included) to a device
/// for transmission onto its LAN; `dst` repeats the destination MAC so
/// recipients are found without re-parsing the header.
///
/// The frame is charged the device's serialization + fixed cost, then each
/// recipient's one receive event is scheduled after the medium's (possibly
/// jittered) one-way delay plus that host's `proc_delay`, minus frames the
/// medium loses. Fan-out clones of `wire` share one pooled backing buffer;
/// only a fault-injected `corrupt` copy pays for its own storage.
pub(crate) fn transmit_wire(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    dst: MacAddr,
    wire: PacketBytes,
) {
    let now = sim.now();
    let flight = wire.flight();
    let wire_len = wire.len();
    let payload_len = wire_len - FRAME_HEADER_LEN;
    let (w, rng, mut queue) = sim.split();
    let ifc = &mut w.hosts[host.0].core.ifaces[iface.0];
    let tx_drop = if payload_len > ifc.device.mtu {
        // No fragmentation in this stack (DESIGN.md §6): oversized
        // packets die at the device, loudly.
        ifc.device.counters.tx_dropped_mtu.inc();
        Some(TxMtu)
    } else if !ifc.device.note_tx(wire_len) {
        Some(IfaceDown)
    } else {
        None
    };
    let lan_id = match (tx_drop, ifc.lan) {
        (None, Some(lan_id)) => lan_id,
        // No LAN: the interface is unattached, the cable unplugged.
        (reason, _) => {
            let event = Event::Drop(reason.unwrap_or(IfaceDown));
            emit(sim, host, flight, "dev", event, SILENT);
            return;
        }
    };
    // Frames queue behind the transmitter (half-duplex serial links like
    // STRIP make this very visible).
    let tx_time = ifc.device.schedule_tx(now, wire_len);
    let src_mac = ifc.device.mac();
    // One pass over the recipients, each taken from medium to delivery
    // event before the next: the medium draws (engine RNG — sequence
    // unchanged by the fault layer), then the fault plan's verdict from
    // its own stream, then the attachment's owner, then the event. The
    // plan steps aside for the walk because it is judged (`&mut`) while
    // the LAN it hangs on is being read.
    let mut fault = w.lans[lan_id.0].fault.take();
    let mut lost = 0u64;
    let mut faults: Vec<&'static str> = Vec::new();
    let lan = &w.lans[lan_id.0];
    for key in lan.recipients(dst, src_mac) {
        if lan.draw_loss(rng) {
            lost += 1;
            continue;
        }
        let delay = tx_time + lan.draw_delay(rng);
        let verdict = match fault.as_mut() {
            Some(plan) => {
                let verdict = plan.judge(now, payload_len);
                faults.extend(verdict.codes());
                verdict
            }
            None => FaultVerdict::default(),
        };
        if verdict.drop {
            continue;
        }
        let Some((h, i)) = w.resolve_attachment(key) else {
            continue;
        };
        // Arrival and the recipient's receive delay are one event.
        let delay = delay + verdict.extra_delay + w.hosts[h.0].core.proc_delay;
        let bytes = match verdict.corrupt {
            Some((off, mask)) => {
                // The verdict's offset addresses the payload; skip the
                // frame header so addressing stays intact and the damage
                // is caught by the checksums that guard the payload.
                let mut v = wire.to_vec();
                v[FRAME_HEADER_LEN + off] ^= mask;
                PacketBytes::from_vec(v).with_flight(flight)
            }
            None => wire.clone(),
        };
        if let Some(gap) = verdict.duplicate_after {
            let dup = bytes.clone();
            queue.schedule_in(delay + gap, move |sim| {
                receive_frame(sim, h, i, lan_id, dup)
            });
        }
        queue.schedule_in(delay, move |sim| receive_frame(sim, h, i, lan_id, bytes));
    }
    w.lans[lan_id.0].fault = fault;
    // Portal segments also reach the peer shards' attachments, one
    // (fixed) trunk delay later, via the barrier exchange.
    if w.sharding.is_some() {
        stage_cross_shard(w, lan_id, now, tx_time, dst, src_mac, &wire);
    }
    if lost > 0 {
        let line = Line::new("drop.medium_loss: {} cop(ies)").num(lost);
        let event = Event::WireDrop(MediumLoss);
        emit(sim, host, flight, "wire", event, Some(line));
    }
    for code in faults {
        // The one drop whose line names something (the LAN): the hop here,
        // the text only if the trace is on.
        let kind = if code == FaultDrop.code() {
            let event = Event::WireDrop(FaultDrop);
            emit(sim, host, flight, "wire", event, SILENT);
            TraceKind::PacketDropped
        } else {
            TraceKind::Marker
        };
        note_text(sim, host, kind, |w| {
            format!("{code}: injected on {}", w.lans[lan_id.0].name())
        });
    }
}

/// A host's stack takes a frame: one event per frame per recipient, at
/// arrival plus the host's `proc_delay` (read when the frame was
/// transmitted). *A frame belongs to a host once its stack takes it, at
/// the end of the receive delay*: an interface that went down or left
/// the LAN the frame was sent on at any point before then loses it
/// (`drop.rx_down` / `drop.left_lan`), as a kernel's backlog flush on
/// `dev_close` would — the wire it was on stayed behind.
fn receive_frame(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    from_lan: LanId,
    bytes: PacketBytes,
) {
    if sim.world().hosts[host.0].core.ifaces[iface.0].lan != Some(from_lan) {
        let line = Line::new("drop.left_lan: frame for an interface that left the LAN");
        let event = Event::WireDrop(LeftLan);
        emit(sim, host, bytes.flight(), "wire", event, Some(line));
        return;
    }
    let accepted = {
        let h = &mut sim.world_mut().hosts[host.0];
        h.core.ifaces[iface.0].device.note_rx(bytes.len())
    };
    if !accepted {
        // The device counted it (`drop.rx_down`); IP never saw the frame.
        let line = Line::new("drop.iface_down: frame for downed interface");
        let event = Event::WireDrop(IfaceDown);
        emit(sim, host, bytes.flight(), "dev", event, Some(line));
        return;
    }
    // Capture-mode taps feed the pcap sidecar: raw frame bytes, before any
    // parsing, exactly as tcpdump would see them.
    if sim.flights().capture_enabled() && sim.world().hosts[host.0].core.capture {
        let now = sim.now();
        sim.flights_mut().capture_frame(now, host.0 as u32, &bytes);
    }
    let malformed = Event::Drop(Malformed);
    let Ok(frame) = Frame::parse(&bytes) else {
        emit(sim, host, bytes.flight(), "wire", malformed, SILENT);
        return;
    };
    if sim.world().hosts[host.0].core.capture {
        note_text(sim, host, TraceKind::Capture, |w| {
            let dev = w.hosts[host.0].core.ifaces[iface.0].device.name();
            format!("{dev}: {}", crate::sniff::frame_summary(&frame))
        });
    }
    match frame.ethertype {
        EtherType::Arp => match ArpPacket::parse(&frame.payload) {
            Ok(arp) => arp_input(sim, host, iface, &arp),
            // ARP travels untracked: the counter is the only witness.
            Err(_) => emit(sim, host, NO_FLIGHT, "arp", malformed, SILENT),
        },
        EtherType::Ipv4 => match Ipv4Packet::parse(&frame.payload) {
            Ok(pkt) => ip::ip_input_flight(sim, host, Some(iface), pkt, 0, bytes.flight()),
            Err(_) => emit(sim, host, bytes.flight(), "ip", malformed, SILENT),
        },
    }
}

fn arp_input(sim: &mut NetSim, host: HostId, iface: IfaceId, arp: &ArpPacket) {
    let now = sim.now();
    let (released, action, my_mac) = {
        let core = &mut sim.world_mut().hosts[host.0].core;
        let ifc = &core.ifaces[iface.0];
        let my_mac = ifc.device.mac();
        let is_mine = |addr| ifc.addrs().iter().any(|a| a.addr == addr);
        let (released, action) = core.arp[iface.0].input(arp, my_mac, is_mine, now);
        (released, action, my_mac)
    };
    // Send packets that were parked awaiting this resolution; each keeps
    // the flight id it parked with.
    for (pkt, flight) in released {
        let frame = Frame::new(arp.sender_mac, my_mac, EtherType::Ipv4, pkt.to_bytes());
        transmit_frame(sim, host, iface, frame, flight);
    }
    if let ArpAction::Reply(reply) = action {
        let frame = Frame::new(arp.sender_mac, my_mac, EtherType::Arp, reply.to_bytes());
        transmit_frame(sim, host, iface, frame, mosquitonet_sim::NO_FLIGHT);
    }
}

/// Transmits an ARP who-has for `target` and arms the retry timer for the
/// resolution identified by `generation`.
pub(crate) fn arp_solicit(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    target: std::net::Ipv4Addr,
    generation: u64,
) {
    let (my_mac, my_ip) = {
        let core = &sim.world().hosts[host.0].core;
        let ifc = &core.ifaces[iface.0];
        (
            ifc.device.mac(),
            ifc.primary_addr()
                .unwrap_or(std::net::Ipv4Addr::UNSPECIFIED),
        )
    };
    let req = ArpPacket::request(my_mac, my_ip, target);
    let frame = Frame::new(
        mosquitonet_wire::MacAddr::BROADCAST,
        my_mac,
        EtherType::Arp,
        req.to_bytes(),
    );
    transmit_frame(sim, host, iface, frame, mosquitonet_sim::NO_FLIGHT);
    sim.schedule_in(ARP_RETRY_INTERVAL, move |sim| {
        arp_retry(sim, host, iface, target, generation);
    });
}

fn arp_retry(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    target: std::net::Ipv4Addr,
    generation: u64,
) {
    let verdict = sim.world_mut().hosts[host.0].core.arp[iface.0].retry(target, generation);
    match verdict {
        Ok(false) => {} // resolved meanwhile, or a stale timer
        Ok(true) => arp_solicit(sim, host, iface, target, generation),
        Err(dropped) => {
            // One casualty per parked packet; the first carries the one
            // trace line that speaks for the whole queue.
            let n = dropped.len();
            for (i, (_, flight)) in dropped.iter().enumerate() {
                let line = Line::new("drop.arp_failure: {} unresolved, {} packet(s)")
                    .addr(target)
                    .num(n as u64);
                let event = Event::Drop(ArpFailure);
                emit(sim, host, *flight, "arp", event, (i == 0).then_some(line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_link::presets;
    use mosquitonet_wire::MacAddr;
    use std::net::Ipv4Addr;

    #[test]
    fn attach_detach_move() {
        let mut net = Network::new();
        let h = net.add_host("mh");
        let eth = net.hosts[h.0]
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let lan_a = net.add_lan(presets::ethernet_lan("a"));
        let lan_b = net.add_lan(presets::ethernet_lan("b"));
        net.attach(h, eth, lan_a);
        assert_eq!(net.hosts[h.0].core.iface(eth).lan, Some(lan_a));
        assert_eq!(net.lans[lan_a.0].len(), 1);
        net.move_iface(h, eth, Some(lan_b));
        assert_eq!(net.lans[lan_a.0].len(), 0);
        assert_eq!(net.lans[lan_b.0].len(), 1);
        assert_eq!(net.hosts[h.0].core.iface(eth).lan, Some(lan_b));
        net.detach(h, eth);
        assert_eq!(net.hosts[h.0].core.iface(eth).lan, None);
        assert_eq!(net.lans[lan_b.0].len(), 0);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_attach_panics() {
        let mut net = Network::new();
        let h = net.add_host("mh");
        let eth = net.hosts[h.0]
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let lan = net.add_lan(presets::ethernet_lan("a"));
        net.attach(h, eth, lan);
        net.attach(h, eth, lan);
    }

    #[test]
    fn transmit_on_downed_iface_counts_drop() {
        let mut net = Network::new();
        let h = net.add_host("mh");
        let eth = net.hosts[h.0]
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let lan = net.add_lan(presets::ethernet_lan("a"));
        net.attach(h, eth, lan);
        let mut sim = Sim::new(net);
        let frame = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::from_index(1),
            EtherType::Arp,
            ArpPacket::gratuitous(MacAddr::from_index(1), Ipv4Addr::new(1, 1, 1, 1)).to_bytes(),
        );
        transmit_frame(&mut sim, h, eth, frame, mosquitonet_sim::NO_FLIGHT);
        assert_eq!(
            sim.world().hosts[h.0].core.stats.dropped_iface_down.get(),
            1
        );
    }

    #[test]
    fn bring_iface_up_fires_module_hook_after_bring_up_time() {
        use std::any::Any;

        struct Probe {
            up_at_ms: Option<u64>,
        }
        impl Module for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn on_iface_up(&mut self, ctx: &mut ModuleCtx<'_>, _iface: IfaceId) {
                self.up_at_ms = Some(ctx.now.as_millis());
            }
            fn as_any(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut net = Network::new();
        let h = net.add_host("mh");
        let eth = net.hosts[h.0]
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let mid = net.hosts[h.0].add_module(Box::new(Probe { up_at_ms: None }));
        let mut sim = Sim::new(net);
        start(&mut sim);
        bring_iface_up(&mut sim, h, eth);
        sim.run();
        let probe: &mut Probe = sim.world_mut().hosts[h.0].module_mut(mid).unwrap();
        assert_eq!(
            probe.up_at_ms,
            Some(presets::ETHERNET_BRING_UP.as_millis()),
            "hook fires exactly when the device becomes ready"
        );
        assert!(sim.world().hosts[h.0].core.iface(eth).device.is_up());
    }

    #[test]
    fn frames_flow_between_two_attached_hosts() {
        // A gratuitous ARP from one host lands in the other's ARP cache.
        let mut net = Network::new();
        let a = net.add_host("a");
        let b = net.add_host("b");
        let ia = net.hosts[a.0]
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(1)));
        let ib = net.hosts[b.0]
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(2)));
        let lan = net.add_lan(presets::ethernet_lan("lan"));
        net.attach(a, ia, lan);
        net.attach(b, ib, lan);
        let mut sim = Sim::new(net);
        bring_iface_up(&mut sim, a, ia);
        bring_iface_up(&mut sim, b, ib);
        sim.run();
        let addr = Ipv4Addr::new(36, 135, 0, 9);
        // Pre-seed b's cache so the gratuitous announcement overwrites it.
        let stale = MacAddr::from_index(99);
        let t = sim.now();
        sim.world_mut().hosts[b.0].core.arp[ib.0].insert(addr, stale, t);
        let mac_a = MacAddr::from_index(1);
        let g = ArpPacket::gratuitous(mac_a, addr);
        let frame = Frame::new(MacAddr::BROADCAST, mac_a, EtherType::Arp, g.to_bytes());
        transmit_frame(&mut sim, a, ia, frame, mosquitonet_sim::NO_FLIGHT);
        sim.run();
        assert_eq!(
            sim.world().hosts[b.0].core.arp[ib.0].lookup(addr),
            Some(mac_a),
            "gratuitous ARP voided the stale entry across the wire"
        );
    }

    #[test]
    fn frames_flow_across_shards_via_portal() {
        // Two single-host shards joined by a backbone portal: a
        // gratuitous ARP broadcast from shard 0 must land in shard 1's
        // ARP cache — and identically at every thread count.
        use mosquitonet_sim::{run_sharded, SimDuration};

        let addr = Ipv4Addr::new(36, 135, 0, 9);
        let run = |threads: usize| {
            let build = |shard: u32| {
                let mut net = Network::new();
                net.enable_sharding(shard, 2);
                let h = net.add_host(if shard == 0 { "a" } else { "b" });
                let iface = net.hosts[h.0].core.add_iface(presets::wired_ethernet(
                    "eth0",
                    MacAddr::from_index(shard + 1),
                ));
                let lan = net.add_lan(presets::backbone_trunk("backbone", presets::TRUNK_ONE_WAY));
                net.attach(h, iface, lan);
                net.add_portal(lan, 7);
                let mut sim = Sim::new(net);
                bring_iface_up(&mut sim, h, iface);
                if shard == 0 {
                    sim.schedule_in(SimDuration::from_millis(1), move |sim| {
                        let mac = MacAddr::from_index(1);
                        let g = ArpPacket::gratuitous(mac, Ipv4Addr::new(36, 135, 0, 9));
                        let frame =
                            Frame::new(MacAddr::BROADCAST, mac, EtherType::Arp, g.to_bytes());
                        transmit_frame(sim, h, iface, frame, mosquitonet_sim::NO_FLIGHT);
                    });
                }
                sim
            };
            let deadline = SimTime::ZERO + SimDuration::from_millis(100);
            run_sharded(
                2,
                threads,
                presets::TRUNK_ONE_WAY,
                deadline,
                build,
                |_shard, sim: Sim<Network>| {
                    let w = sim.world();
                    let learned = w.hosts[0].core.arp[0].lookup(addr);
                    (learned, w.arena_resets())
                },
            )
        };
        for threads in [1, 2] {
            let results = run(threads);
            assert_eq!(
                results[1].0,
                Some(MacAddr::from_index(1)),
                "broadcast crossed the portal at {threads} thread(s)"
            );
            assert_eq!(results[0].0, None, "sender learned nothing");
            assert!(
                results[0].1 >= 1,
                "shard 0 recycled its staging arena at a barrier"
            );
        }
    }

    #[test]
    fn cached_decisions_invalidated_on_iface_down_and_tunnel_teardown() {
        use crate::ip;
        use crate::proto::SourceSel;
        use crate::route::RouteEntry;

        let mut net = Network::new();
        let h = net.add_host("r");
        let eth = net.hosts[h.0]
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(1)));
        let lan = net.add_lan(presets::ethernet_lan("lan"));
        net.attach(h, eth, lan);
        net.hosts[h.0]
            .core
            .iface_mut(eth)
            .add_addr(Ipv4Addr::new(10, 0, 0, 1), "10.0.0.0/24".parse().unwrap());
        net.hosts[h.0].core.routes.add(RouteEntry {
            dest: "10.0.0.0/24".parse().unwrap(),
            gateway: None,
            iface: eth,
            metric: 0,
        });
        let mut sim = Sim::new(net);
        bring_iface_up(&mut sim, h, eth);
        sim.run();

        let dst = Ipv4Addr::new(10, 0, 0, 7);
        let warm = |sim: &mut NetSim| {
            let host = &mut sim.world_mut().hosts[h.0];
            ip::resolve_route(host, dst, SourceSel::Unspecified, None)
        };

        assert!(warm(&mut sim).is_some(), "route resolves while iface is up");
        warm(&mut sim);
        let hits = sim.world().hosts[h.0].fastpath.stats.hit.get();
        assert_eq!(hits, 1, "second lookup is served from the decision cache");

        // Interface power-down must invalidate every cached decision.
        let mut fx = Effects::new();
        fx.push(Effect::BringIfaceDown(eth));
        apply_effects(&mut sim, h, ModuleId(0), fx);
        warm(&mut sim);
        {
            let host = &sim.world().hosts[h.0];
            assert_eq!(
                host.fastpath.stats.hit.get(),
                hits,
                "no stale cache hit after interface down"
            );
            assert!(
                host.fastpath.stats.invalidate.get() >= 1,
                "iface down flushed the cache via the validity token"
            );
        }

        // Tunnel-binding teardown must do the same.
        let home = Ipv4Addr::new(36, 135, 0, 9);
        sim.world_mut().hosts[h.0]
            .core
            .set_tunnel(home, Ipv4Addr::new(36, 8, 0, 42));
        warm(&mut sim);
        warm(&mut sim);
        let hits = sim.world().hosts[h.0].fastpath.stats.hit.get();
        let invalidations = sim.world().hosts[h.0].fastpath.stats.invalidate.get();
        sim.world_mut().hosts[h.0].core.clear_tunnel(home);
        warm(&mut sim);
        let host = &sim.world().hosts[h.0];
        assert_eq!(
            host.fastpath.stats.hit.get(),
            hits,
            "no stale cache hit after tunnel teardown"
        );
        assert!(
            host.fastpath.stats.invalidate.get() > invalidations,
            "clear_tunnel flushed the cache via route_config_gen"
        );
    }
}
