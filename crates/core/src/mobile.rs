//! The mobile host manager (§3.1, §3.3, §5.2).
//!
//! This module is the software the paper added to the mobile host: it
//! serves as the host's *own foreign agent* (care-of acquisition,
//! registration with the home agent, decapsulation is enabled host-wide),
//! owns the Mobile Policy Table and plugs it into the stack's
//! `route_override` hook (the modified `ip_rt_route()`), performs hot and
//! cold device switches with the paper's exact step sequence, and plays
//! both of the §5.2 roles: the *home role* (applications keep the home
//! address) and the *local role* (DHCP lease refresh, answering pings —
//! the latter handled by the stack, which replies from whichever address
//! was pinged).

use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{IdHashMap, Line, MetricsScope, SimDuration, SimTime};
use mosquitonet_stack::{
    Effect, EncapSpec, HostCore, IfaceId, Module, ModuleCtx, RouteAnswer, RouteDecision,
    RouteEntry, SocketId, SourceSel,
};
use mosquitonet_wire::{Cidr, IcmpMessage};

use mosquitonet_dhcp::{ClientEvent, DhcpClientMachine, DhcpClientStats, DHCP_CLIENT_PORT};

use crate::messages::{classify, MessageKind};
use crate::policy::{MobilePolicyTable, SendMode};
use crate::registration::{RegEvent, RegistrationMachine};
use crate::timing::{CHANGE_ROUTE, CONFIGURE_IFACE, POST_REGISTRATION};

/// Timer tokens.
const TOKEN_AFTER_DOWN: u64 = 0x2;
const TOKEN_CONFIGURED: u64 = 0x3;
const TOKEN_ROUTED: u64 = 0x4;
const TOKEN_POST_REG: u64 = 0x5;
const TOKEN_AUTOSWITCH: u64 = 0x7;
const TOKEN_REG_BASE: u64 = 0x10;
const TOKEN_DHCP_BASE: u64 = 0x100;
const TOKEN_PROBE_BASE: u64 = 0x200;

/// How long a triangle-route probe waits for its echo before falling back
/// to the reverse tunnel.
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// ICMP ident used by reachability probes.
const PROBE_IDENT: u16 = 0x4d50; // "MP"

/// Static configuration of a mobile host.
#[derive(Clone, Debug)]
pub struct MobileHostConfig {
    /// The permanent home address.
    pub home_addr: Ipv4Addr,
    /// The home subnet.
    pub home_subnet: Cidr,
    /// Default router on the home subnet.
    pub home_router: Ipv4Addr,
    /// The home agent to register with.
    pub home_agent: Ipv4Addr,
    /// Standby home agents to fail over to (in order) when the current
    /// agent stops answering past a full retry budget.
    pub standby_agents: Vec<Ipv4Addr>,
    /// The VIF that holds the home address while roaming.
    pub vif: IfaceId,
    /// Requested binding lifetime, seconds.
    pub lifetime: u16,
    /// Optional (SPI, key) for signed registrations.
    pub auth: Option<(u32, u64)>,
}

/// How a new care-of address is obtained.
#[derive(Clone, Copy, Debug)]
pub enum AddressPlan {
    /// Pre-assigned (the paper's experiments switch between known
    /// addresses).
    Static {
        /// The care-of address.
        addr: Ipv4Addr,
        /// Its subnet.
        subnet: Cidr,
        /// Default router on the visited subnet.
        router: Ipv4Addr,
    },
    /// Acquire via DHCP.
    Dhcp,
}

/// Hot or cold, per the paper's §4 definitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchStyle {
    /// "We shut down one interface before starting up the other."
    Cold,
    /// "Both of the interfaces are available and we just switch."
    Hot,
}

/// A commanded network switch.
#[derive(Clone, Copy, Debug)]
pub struct SwitchPlan {
    /// Target interface (must already be attached to the target LAN).
    pub iface: IfaceId,
    /// How to get the care-of address there.
    pub address: AddressPlan,
    /// Hot or cold.
    pub style: SwitchStyle,
}

/// One network the automatic switcher may roam onto.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The interface reaching this network.
    pub iface: IfaceId,
    /// How to get an address there ([`AddressPlan::Dhcp`] lets one
    /// interface serve many networks).
    pub address: AddressPlan,
}

/// Configuration for automatic network selection — the paper's §6 future
/// work: "we plan to experiment with techniques for determining when to
/// switch between networks".
///
/// The policy is preference-ordered availability: the first candidate
/// whose interface is physically attached (in range / plugged in) wins.
/// While the host is at home and the home network is attached, the
/// policy stays put; once away it roams among the candidates but never
/// *returns* home by itself (home detection requires knowing the home
/// subnet is really the home network — an explicit
/// [`MobileHost::return_home`] decision).
/// A better candidate must stay available for `stability` consecutive
/// monitor ticks before a switch is made (hysteresis against flapping);
/// losing the *current* network triggers an immediate switch. When the
/// chosen candidate's device is powered down, it is powered up one tick
/// ahead, so the eventual switch is hot — "being able to bring up one
/// interface before turning off the other is advantageous" (§4).
#[derive(Clone, Debug)]
pub struct AutoSwitchConfig {
    /// Candidates in preference order, best first.
    pub candidates: Vec<Candidate>,
    /// Monitor tick interval.
    pub interval: SimDuration,
    /// Ticks a better candidate must persist before switching to it.
    pub stability: u32,
}

impl AutoSwitchConfig {
    /// A config with the defaults used by the paper-era hardware: a
    /// 250 ms monitor and two stable ticks of hysteresis.
    pub fn new(candidates: Vec<Candidate>) -> AutoSwitchConfig {
        AutoSwitchConfig {
            candidates,
            interval: SimDuration::from_millis(250),
            stability: 2,
        }
    }
}

/// Timestamps of one registration/hand-off, for the Figure 7 breakdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistrationTimeline {
    /// Switch commanded.
    pub start: Option<SimTime>,
    /// New interface ready (cold switches only).
    pub iface_up: Option<SimTime>,
    /// Care-of address configured on the interface.
    pub iface_configured: Option<SimTime>,
    /// Route table updated.
    pub route_changed: Option<SimTime>,
    /// First registration request transmitted.
    pub request_sent: Option<SimTime>,
    /// Registration reply received.
    pub reply_received: Option<SimTime>,
    /// Post-registration processing finished; hand-off complete.
    pub done: Option<SimTime>,
}

impl RegistrationTimeline {
    /// Total switch time, when complete.
    pub fn total(&self) -> Option<SimDuration> {
        Some(self.done? - self.start?)
    }

    /// Request→reply latency, when complete.
    pub fn request_to_reply(&self) -> Option<SimDuration> {
        Some(self.reply_received? - self.request_sent?)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    BringingDown,
    BringingUp,
    Acquiring,
    Configuring,
    ChangingRoute,
    Registering,
    PostRegistration,
}

#[derive(Clone, Copy, Debug)]
struct SwitchOp {
    plan: SwitchPlan,
    phase: Phase,
    /// Resolved lease/static target (filled in during Acquiring).
    target: Option<(Ipv4Addr, Cidr, Ipv4Addr)>,
    /// True when this op returns the host to its home network.
    going_home: bool,
    /// The interface being left (the target itself when one card is
    /// carried to a new network).
    old_iface: IfaceId,
    /// True when the target address lives in a subnet the interface was
    /// already configured for — a same-network address switch, where ARP
    /// state stays valid.
    same_network: bool,
}

#[derive(Clone, Copy, Debug)]
enum Location {
    Home {
        iface: IfaceId,
    },
    Away {
        iface: IfaceId,
        care_of: Ipv4Addr,
        registered: bool,
    },
}

struct ProbeState {
    token: u64,
    seq: u16,
}

mosquitonet_sim::counters! {
    /// The mobile host's own counters: `{host}/mobility/*`.
    pub struct MobilityStats {
        /// Completed hand-offs.
        pub handoffs => "handoffs",
        /// Switches the automatic policy initiated (instrumentation).
        pub autoswitches => "autoswitches",
        /// Triangle-route probes that timed out (correspondent reverted to
        /// the reverse tunnel).
        pub probe_timeouts => "probe_timeouts",
    }
}

/// The mobile host manager module.
pub struct MobileHost {
    cfg: MobileHostConfig,
    /// The Mobile Policy Table, consulted by `route_override`.
    pub policy: MobilePolicyTable,
    location: Location,
    switching: Option<SwitchOp>,
    reg_sock: Option<SocketId>,
    dhcp_sock: Option<SocketId>,
    dhcp: Option<DhcpClientMachine>,
    /// The registration client: identification, signing and verification,
    /// retry and failover, renewal and lapse, and the `reg/*` counters.
    pub reg: RegistrationMachine,
    /// Timelines of completed switches, oldest first.
    pub timelines: Vec<RegistrationTimeline>,
    current: RegistrationTimeline,
    probes: IdHashMap<Ipv4Addr, ProbeState>,
    /// The subnet each interface was last configured for — survives the
    /// address being removed, so re-joining the same network (e.g. the
    /// radio cell after a stint on the wire) keeps its ARP cache warm.
    last_subnet: IdHashMap<IfaceId, Cidr>,
    next_probe_token: u64,
    probe_seq: u16,
    /// Hand-off, autoswitch and probe counters.
    pub mobility: MobilityStats,
    /// DHCP lifecycle counters, cloned into each care-of acquisition
    /// machine (shared cells, so the registry binding outlives the
    /// short-lived machines).
    pub dhcp_stats: DhcpClientStats,
    autoswitch: Option<AutoSwitchConfig>,
    /// Consecutive ticks the same better candidate has been available.
    autoswitch_stable: u32,
    /// True while no home agent is answering: the Mobile Policy Table
    /// degrades reverse-tunnel destinations to direct encapsulation so
    /// traffic keeps moving without an agent.
    degraded: bool,
    /// Bumped whenever location / registration state changes an answer
    /// `route_override` could give; folded with the policy table's
    /// generation into [`Module::route_generation`] so the fast-path
    /// decision cache flushes on every such change.
    route_gen: u64,
}

impl MobileHost {
    /// Creates a mobile host manager that starts **at home** on `iface`.
    pub fn new_at_home(cfg: MobileHostConfig, home_iface: IfaceId) -> MobileHost {
        let reg = RegistrationMachine::new(
            cfg.home_addr,
            cfg.home_agent,
            &cfg.standby_agents,
            cfg.auth,
            TOKEN_REG_BASE,
        );
        MobileHost {
            cfg,
            policy: MobilePolicyTable::new(SendMode::ReverseTunnel),
            location: Location::Home { iface: home_iface },
            switching: None,
            reg_sock: None,
            dhcp_sock: None,
            dhcp: None,
            reg,
            timelines: Vec::new(),
            current: RegistrationTimeline::default(),
            probes: IdHashMap::default(),
            last_subnet: IdHashMap::default(),
            next_probe_token: TOKEN_PROBE_BASE,
            probe_seq: 0,
            mobility: MobilityStats::default(),
            dhcp_stats: DhcpClientStats::default(),
            autoswitch: None,
            autoswitch_stable: 0,
            degraded: false,
            route_gen: 0,
        }
    }

    /// Enables the automatic switch policy (call via `stack::dispatch`, or
    /// before the world starts). The first monitor tick fires after one
    /// interval.
    pub fn enable_autoswitch(&mut self, ctx: &mut ModuleCtx<'_>, cfg: AutoSwitchConfig) {
        ctx.fx.set_timer(cfg.interval, TOKEN_AUTOSWITCH);
        self.autoswitch = Some(cfg);
        self.autoswitch_stable = 0;
        ctx.fx.trace("autoswitch enabled");
    }

    /// One monitor tick of the §6 automatic switch policy.
    fn autoswitch_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(cfg) = self.autoswitch.clone() else {
            return;
        };
        ctx.fx.set_timer(cfg.interval, TOKEN_AUTOSWITCH);
        if self.switching.is_some() {
            return; // a switch is already in flight
        }
        let attached = |ctx: &ModuleCtx<'_>, iface: IfaceId| ctx.core.iface(iface).lan.is_some();
        let current = match self.location {
            Location::Home { iface } => {
                // Home always wins while it is physically there.
                if attached(ctx, iface) {
                    self.autoswitch_stable = 0;
                    return;
                }
                iface
            }
            Location::Away { iface, .. } => iface,
        };
        let Some(best) = cfg
            .candidates
            .iter()
            .copied()
            .find(|c| attached(ctx, c.iface))
        else {
            return; // nowhere to go; keep monitoring
        };
        let current_alive = attached(ctx, current);
        if best.iface == current && current_alive {
            self.autoswitch_stable = 0;
            return;
        }
        // Power the chosen device ahead of time so the switch can be hot.
        let powered = ctx.core.iface(best.iface).device.is_up();
        if !powered {
            ctx.fx.push(Effect::BringIfaceUp(best.iface));
            // Fall through: the stability counter still advances.
        }
        let (style, line) = if current_alive {
            // A preferable network appeared: wait out the hysteresis, then
            // switch hot (the current interface keeps working meanwhile).
            self.autoswitch_stable += 1;
            if self.autoswitch_stable < cfg.stability || !powered {
                return;
            }
            (
                SwitchStyle::Hot,
                "autoswitch: preferring iface IfaceId({}); hot switch",
            )
        } else {
            // The network under our feet vanished: switch now, cold (the
            // old interface has nothing left to offer).
            let line = "autoswitch: current network lost; cold switch to iface IfaceId({})";
            (SwitchStyle::Cold, line)
        };
        self.autoswitch_stable = 0;
        self.mobility.autoswitches.inc();
        ctx.fx.trace(Line::new(line).num(best.iface.0 as u64));
        let plan = SwitchPlan {
            iface: best.iface,
            address: best.address,
            style,
        };
        self.start_switch(ctx, plan);
    }

    /// Where the host currently is: `None` while at home, or
    /// `Some((iface, care_of, registered))` while away.
    pub fn away_status(&self) -> Option<(IfaceId, Ipv4Addr, bool)> {
        match self.location {
            Location::Home { .. } => None,
            Location::Away {
                iface,
                care_of,
                registered,
            } => Some((iface, care_of, registered)),
        }
    }

    /// True when a switch is in progress.
    pub fn is_switching(&self) -> bool {
        self.switching.is_some()
    }

    /// The configuration.
    pub fn config(&self) -> &MobileHostConfig {
        &self.cfg
    }

    // ----- Commands (invoked via `stack::dispatch` by the harness) -----

    /// Begins a switch to another network. The target interface must
    /// already be physically attached to the target LAN.
    ///
    /// # Panics
    ///
    /// Panics if a switch is already in progress.
    pub fn start_switch(&mut self, ctx: &mut ModuleCtx<'_>, plan: SwitchPlan) {
        let line = match plan.style {
            SwitchStyle::Cold => "switch start: Cold to iface IfaceId({})",
            SwitchStyle::Hot => "switch start: Hot to iface IfaceId({})",
        };
        let line = Line::new(line).num(plan.iface.0 as u64);
        self.begin_switch(ctx, plan, false, line);
    }

    /// Switches the care-of address on the *current* interface (the §4
    /// same-subnet experiment isolating the software overhead). The old
    /// care-of address keeps accepting packets until the configure step
    /// replaces it; from then until the home agent's binding moves,
    /// in-flight packets are the measured loss.
    ///
    /// # Panics
    ///
    /// Panics when not away, or when a switch is in progress.
    pub fn switch_address(&mut self, ctx: &mut ModuleCtx<'_>, plan: AddressPlan) {
        assert!(self.switching.is_none(), "switch already in progress");
        let Location::Away { iface, .. } = self.location else {
            panic!("switch_address requires being away from home");
        };
        let plan = SwitchPlan {
            iface,
            address: plan,
            style: SwitchStyle::Hot,
        };
        self.begin_switch(ctx, plan, false, "address switch start".into());
    }

    /// Returns home onto `iface` (which must be attached to the home LAN).
    pub fn return_home(&mut self, ctx: &mut ModuleCtx<'_>, iface: IfaceId, style: SwitchStyle) {
        let plan = SwitchPlan {
            iface,
            address: AddressPlan::Static {
                addr: self.cfg.home_addr,
                subnet: self.cfg.home_subnet,
                router: self.cfg.home_router,
            },
            style,
        };
        self.begin_switch(ctx, plan, true, "returning home".into());
    }

    /// The first steps every switch shares (§4): "the mobile host deletes
    /// the route to the first interface, brings the interface down, brings
    /// the new interface up, adds its route, and finally registers". A hot
    /// switch skips the power steps and acquires its address at once.
    fn begin_switch(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        plan: SwitchPlan,
        going_home: bool,
        line: Line,
    ) {
        assert!(self.switching.is_none(), "switch already in progress");
        self.current = RegistrationTimeline {
            start: Some(ctx.now),
            ..RegistrationTimeline::default()
        };
        ctx.fx.trace(line);
        let old_iface = match self.location {
            Location::Home { iface } => {
                if !going_home {
                    // Leaving home: the home address moves from the
                    // physical interface to the VIF so tunneled packets
                    // stay local and connections keep their endpoint.
                    ctx.core.iface_mut(iface).remove_addr(self.cfg.home_addr);
                    ctx.core
                        .iface_mut(self.cfg.vif)
                        .add_addr(self.cfg.home_addr, self.cfg.home_subnet);
                }
                iface
            }
            Location::Away { iface, care_of, .. } => {
                if plan.style == SwitchStyle::Cold {
                    ctx.core.iface_mut(iface).remove_addr(care_of);
                }
                iface
            }
        };
        self.switching = Some(SwitchOp {
            plan,
            phase: Phase::BringingDown,
            target: None,
            going_home,
            old_iface,
            same_network: false,
        });
        match plan.style {
            SwitchStyle::Cold => {
                // When old == new (same card carried to a new network) the
                // device still cycles down and up.
                ctx.core.routes.remove_iface(old_iface);
                let quiesce = ctx.core.iface(old_iface).device.power.bring_down;
                ctx.fx.push(Effect::BringIfaceDown(old_iface));
                ctx.fx.set_timer(quiesce, TOKEN_AFTER_DOWN);
            }
            SwitchStyle::Hot => self.begin_acquire(ctx),
        }
    }

    /// Probes whether the triangle route works toward `correspondent`:
    /// optimistically installs the Triangle policy, pings, and falls back
    /// to the reverse tunnel if no echo returns (§3.2).
    pub fn probe_triangle(&mut self, ctx: &mut ModuleCtx<'_>, correspondent: Ipv4Addr) {
        self.policy.learn(correspondent, SendMode::Triangle);
        self.probe_seq = self.probe_seq.wrapping_add(1);
        let token = self.next_probe_token;
        self.next_probe_token += 1;
        self.probes.insert(
            correspondent,
            ProbeState {
                token,
                seq: self.probe_seq,
            },
        );
        // An unspecified source engages the policy table: the probe goes
        // out exactly the way real triangle traffic would.
        ctx.fx.send_ping(correspondent, PROBE_IDENT, self.probe_seq);
        ctx.fx.set_timer(PROBE_TIMEOUT, token);
        ctx.fx
            .trace(Line::new("probing triangle route to {}").addr(correspondent));
    }

    // ----- Internal machinery -----

    fn begin_acquire(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Any DHCP machine from a previous network is obsolete.
        if let Some(mut old) = self.dhcp.take() {
            old.abandon(ctx.fx);
        }
        let Some(op) = &mut self.switching else {
            return;
        };
        op.phase = Phase::Acquiring;
        match op.plan.address {
            AddressPlan::Static {
                addr,
                subnet,
                router,
            } => {
                op.target = Some((addr, subnet, router));
                // Charge the interface-configuration cost (Figure 7).
                ctx.fx.set_timer(CONFIGURE_IFACE, TOKEN_CONFIGURED);
                op.phase = Phase::Configuring;
            }
            AddressPlan::Dhcp => {
                let iface = op.plan.iface;
                let mac = ctx.core.iface(iface).device.mac();
                let sock = self.dhcp_sock.expect("dhcp socket bound");
                let seed = (self.reg.ident() as u32).wrapping_add(1);
                let mut machine = DhcpClientMachine::new(iface, mac, sock, TOKEN_DHCP_BASE, seed);
                machine.stats = self.dhcp_stats.clone();
                machine.start(ctx.fx);
                self.dhcp = Some(machine);
            }
        }
    }

    fn finish_configure(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(op) = &mut self.switching else {
            return;
        };
        let (addr, subnet, _router) = op.target.expect("target resolved");
        let iface = op.plan.iface;
        // Same subnet as this interface last carried ⇒ same network, and
        // neighbor state stays valid (the §4 same-subnet experiment, and
        // the radio re-joining its own cell). This is the heuristic a
        // real host has: it cannot see link identity, only addressing.
        op.same_network = self.last_subnet.get(&iface) == Some(&subnet);
        self.last_subnet.insert(iface, subnet);
        // The interface joins a (possibly) new network: every address it
        // carried on the old one is stale now.
        ctx.core.iface_mut(iface).clear_addrs();
        if op.going_home {
            // The home address returns to the physical interface.
            ctx.core
                .iface_mut(self.cfg.vif)
                .remove_addr(self.cfg.home_addr);
        }
        ctx.core.iface_mut(iface).add_addr(addr, subnet);
        self.current.iface_configured = Some(ctx.now);
        op.phase = Phase::ChangingRoute;
        ctx.fx.set_timer(CHANGE_ROUTE, TOKEN_ROUTED);
    }

    fn finish_route_change(&mut self, ctx: &mut ModuleCtx<'_>) {
        let Some(op) = &mut self.switching else {
            return;
        };
        let (addr, subnet, router) = op.target.expect("target resolved");
        let iface = op.plan.iface;
        // Routes learned on the interface's previous network are invalid
        // on the new one (a stale on-link route would black-hole traffic
        // by ARPing for off-link neighbors), and so are its ARP entries
        // (two sites may reuse the same gateway address with different
        // hardware beneath it). A same-network address switch keeps both:
        // the neighbors have not changed, which is what lets the §4
        // experiment's re-registration run at warm-cache speed.
        ctx.core.routes.remove_iface(iface);
        if !op.same_network {
            ctx.core.arp_mut(iface).clear_cache();
        }
        ctx.core.routes.add(RouteEntry {
            dest: subnet,
            gateway: None,
            iface,
            metric: 0,
        });
        ctx.core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(router),
            iface,
            metric: 0,
        });
        self.current.route_changed = Some(ctx.now);
        op.phase = Phase::Registering;
        // Old probe results are stale on a new network, and so is a verdict
        // still in flight: a probe cleared here lets its timer fire
        // harmlessly, as one answered by an echo does.
        self.policy.forget_learned();
        self.probes.clear();
        // A switch starts a fresh registration attempt: full retry budget.
        self.reg.fresh_attempt();
        if op.going_home {
            // Reclaim the home address on the wire before deregistering.
            ctx.fx.push(Effect::GratuitousArp {
                iface,
                addr: self.cfg.home_addr,
            });
            self.location = Location::Home { iface };
        } else {
            self.location = Location::Away {
                iface,
                care_of: addr,
                registered: false,
            };
        }
        self.route_gen += 1;
        // No gratuitous ARP for a care-of address: the router resolves it
        // when the registration reply (or the first tunneled packet)
        // needs it, and the cache stays warm thereafter — which is why
        // the paper's Figure 7 numbers (and ours) assume warm caches.
        self.send_registration(ctx);
    }

    fn send_registration(&mut self, ctx: &mut ModuleCtx<'_>) {
        let (care_of, lifetime) = match self.location {
            Location::Home { .. } => (self.cfg.home_addr, 0),
            Location::Away { care_of, .. } => (care_of, self.cfg.lifetime),
        };
        let opts = mosquitonet_stack::SendOptions {
            src: SourceSel::Addr(care_of),
            iface: None,
            ttl: None,
            label: Some("reg"),
        };
        let sock = self.reg_sock.expect("bound");
        let home_agent = self.reg.home_agent();
        let event = self
            .reg
            .send(ctx.fx, sock, home_agent, opts, care_of, lifetime);
        if self.current.request_sent.is_none() {
            self.current.request_sent = Some(ctx.now);
        }
        self.on_reg_event(ctx, event);
    }

    /// What a registration-client event means for mobility: the
    /// `registered` flag, degraded forwarding, the switch phases and the
    /// timeline.
    fn on_reg_event(&mut self, ctx: &mut ModuleCtx<'_>, event: RegEvent) {
        match event {
            RegEvent::None | RegEvent::Denied(_) => {}
            RegEvent::Resend => self.send_registration(ctx),
            RegEvent::BudgetSpent { failed_over } => {
                // Degrade gracefully: the binding is treated as lost and —
                // while away — the policy table falls back to agent-less
                // forwarding so traffic keeps moving.
                if self.switching.is_none() {
                    self.set_registered(false);
                }
                if matches!(self.location, Location::Away { .. }) && !self.degraded {
                    self.degraded = true;
                    self.reg.stats.degradations.inc();
                    self.route_gen += 1;
                    ctx.fx.trace(
                        "no home agent answering; degrading reverse tunnels to direct encapsulation",
                    );
                }
                if failed_over {
                    self.route_gen += 1;
                }
            }
            RegEvent::Accepted { epoch_changed, .. } => {
                if self.degraded {
                    self.degraded = false;
                    self.route_gen += 1;
                    ctx.fx
                        .trace("home agent reachable again; restoring policy routing");
                }
                if let Some(op) = &mut self.switching {
                    // Only the reply to the switch's own registration
                    // advances the switch; a straggling refresh reply
                    // arriving mid-switch (same ident only if no request
                    // was sent yet) must not fast-forward past the
                    // configure/route steps.
                    if op.phase == Phase::Registering {
                        self.current.reply_received = Some(ctx.now);
                        op.phase = Phase::PostRegistration;
                        ctx.fx.set_timer(POST_REGISTRATION, TOKEN_POST_REG);
                    }
                } else {
                    self.current.reply_received = Some(ctx.now);
                }
                self.set_registered(true);
                if epoch_changed && self.switching.is_none() {
                    self.reg.note_epoch_change(ctx.fx);
                    self.send_registration(ctx);
                }
            }
            RegEvent::Lapsed => {
                self.set_registered(false);
                self.send_registration(ctx);
            }
        }
    }

    /// Records whether the home agent holds the binding (no-op at home).
    fn set_registered(&mut self, held: bool) {
        if let Location::Away { registered, .. } = &mut self.location {
            *registered = held;
            self.route_gen += 1;
        }
    }

    fn finish_switch(&mut self, ctx: &mut ModuleCtx<'_>) {
        // After a hot switch the old interface stays configured (its
        // address keeps accepting in-flight tunnels), but only the NEW
        // interface may carry the default route from here on.
        if let Some(op) = &self.switching {
            if op.plan.style == SwitchStyle::Hot && op.old_iface != op.plan.iface {
                ctx.core
                    .routes
                    .remove_for_iface(Cidr::DEFAULT, op.old_iface);
            }
        }
        self.current.done = Some(ctx.now);
        self.timelines.push(self.current);
        self.mobility.handoffs.inc();
        self.switching = None;
        ctx.fx.trace(match self.current.total() {
            Some(total) => Line::new("handoff complete in {}").span(total),
            None => Line::new("handoff complete in ?"),
        });
    }
}

impl Module for MobileHost {
    fn name(&self) -> &'static str {
        "mobile-host"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.reg_sock = ctx.udp_bind(None, 0);
        self.dhcp_sock = ctx.udp_bind(None, DHCP_CLIENT_PORT);
        assert!(self.reg_sock.is_some() && self.dhcp_sock.is_some());
        // The mobile host decapsulates for itself (§2: "networking
        // software in the mobile host decapsulates the tunneled packets").
        ctx.core.ipip_decap = true;
        // Configure the home network while at home.
        if let Location::Home { iface } = self.location {
            ctx.core
                .iface_mut(iface)
                .add_addr(self.cfg.home_addr, self.cfg.home_subnet);
            ctx.core.routes.add(RouteEntry {
                dest: self.cfg.home_subnet,
                gateway: None,
                iface,
                metric: 0,
            });
            ctx.core.routes.add(RouteEntry {
                dest: Cidr::DEFAULT,
                gateway: Some(self.cfg.home_router),
                iface,
                metric: 0,
            });
        }
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.reg.register_metrics(scope);
        self.mobility.register_into(&scope.scope("mobility"));
        self.policy.stats.register_into(&scope.scope("policy"));
        self.dhcp_stats.register_into(&scope.scope("dhcp"));
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        // DHCP machine tokens.
        if let Some(dhcp) = &mut self.dhcp {
            if dhcp.owns_token(token) {
                dhcp.on_timer(ctx.fx, token, ctx.now);
                return;
            }
        }
        if self.reg.owns_token(token) {
            let holding = self.switching.is_none() && self.away_status().is_some_and(|s| s.2);
            let event = self.reg.on_timer(ctx.fx, token, holding);
            return self.on_reg_event(ctx, event);
        }
        match token {
            TOKEN_AFTER_DOWN => {
                // Old device quiesced; power the new one up.
                if let Some(op) = &mut self.switching {
                    op.phase = Phase::BringingUp;
                    ctx.fx.push(Effect::BringIfaceUp(op.plan.iface));
                }
            }
            TOKEN_CONFIGURED => self.finish_configure(ctx),
            TOKEN_ROUTED => self.finish_route_change(ctx),
            TOKEN_POST_REG => self.finish_switch(ctx),
            TOKEN_AUTOSWITCH => self.autoswitch_tick(ctx),
            probe if probe >= TOKEN_PROBE_BASE => {
                // A probe timed out: the triangle route is filtered —
                // revert this correspondent to the reverse tunnel.
                let expired: Vec<Ipv4Addr> = self
                    .probes
                    .iter()
                    .filter(|(_, p)| p.token == probe)
                    .map(|(a, _)| *a)
                    .collect();
                for ch in expired {
                    self.mobility.probe_timeouts.inc();
                    self.probes.remove(&ch);
                    self.policy.learn(ch, SendMode::ReverseTunnel);
                    let line = "triangle probe to {} timed out; reverting to tunnel";
                    ctx.fx.trace(Line::new(line).addr(ch));
                }
            }
            _ => {}
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        if Some(sock) == self.dhcp_sock {
            let Some(dhcp) = &mut self.dhcp else { return };
            if let ClientEvent::Acquired(lease) = dhcp.on_udp(ctx.fx, payload, ctx.now) {
                if let Some(op) = &mut self.switching {
                    if op.phase == Phase::Acquiring {
                        op.target = Some((lease.addr, lease.subnet, lease.router));
                        op.phase = Phase::Configuring;
                        ctx.fx.set_timer(CONFIGURE_IFACE, TOKEN_CONFIGURED);
                    }
                }
            }
            return;
        }
        if Some(sock) == self.reg_sock && classify(payload) == Some(MessageKind::Reply) {
            let event = self.reg.on_reply(ctx.fx, payload);
            self.on_reg_event(ctx, event);
        }
    }

    fn on_iface_up(&mut self, ctx: &mut ModuleCtx<'_>, iface: IfaceId) {
        if let Some(op) = &self.switching {
            if op.phase == Phase::BringingUp && op.plan.iface == iface {
                self.current.iface_up = Some(ctx.now);
                self.begin_acquire(ctx);
            }
        }
    }

    fn on_icmp(&mut self, _ctx: &mut ModuleCtx<'_>, from: Ipv4Addr, msg: &IcmpMessage) {
        if let IcmpMessage::EchoReply { ident, seq, .. } = msg {
            if *ident == PROBE_IDENT {
                if let Some(p) = self.probes.get(&from) {
                    if p.seq == *seq {
                        // Probe succeeded: Triangle stays learned. The
                        // timer will fire harmlessly (token cleared here).
                        self.probes.remove(&from);
                    }
                }
            }
        }
    }

    /// The `ip_rt_route()` override (§3.3): packets with an unspecified
    /// source, or sourced from the home address, are subject to mobile IP;
    /// everything else is outside its scope.
    ///
    /// A successful decision is cacheable and carries the per-mode policy
    /// counter its lookup charged (replayed hits must keep charging it). A
    /// lookup that charged the counter but then failed to resolve a route
    /// is [`RouteAnswer::Once`]: the charge is a per-call side effect a
    /// cached fall-through would silently skip.
    fn route_override(&mut self, core: &HostCore, dst: Ipv4Addr, src: SourceSel) -> RouteAnswer {
        let (care_of, registered) = match self.location {
            Location::Home { .. } => return RouteAnswer::Pass,
            Location::Away {
                care_of,
                registered,
                ..
            } => (care_of, registered),
        };
        match src {
            SourceSel::Addr(a) if a != self.cfg.home_addr => return RouteAnswer::Pass,
            _ => {}
        }
        if !registered && !self.degraded {
            // Mid-switch: nothing sensible to do; let normal routing try.
            return RouteAnswer::Pass;
        }
        let mut mode = self.policy.lookup(dst);
        if self.degraded && mode == SendMode::ReverseTunnel {
            // No home agent to tunnel through: fall back to direct
            // encapsulation so the correspondent still sees the home
            // address (the degradation ladder's next rung; DirectLocal
            // destinations already bypass the agent).
            mode = SendMode::DirectEncap;
        }
        let on_hit = Some(self.policy.stats.counter_for(mode).clone());
        let (home, home_agent) = (self.cfg.home_addr, self.reg.home_agent());
        // One row per mode: where the route points, the inner source, and
        // the far end of the tunnel when the packet is encapsulated.
        let (target, inner_src, outer_dst) = match mode {
            SendMode::ReverseTunnel => (home_agent, home, Some(home_agent)),
            SendMode::DirectEncap => (dst, home, Some(dst)),
            // Unspecified sources take the local address — the pure local
            // role; an application that explicitly bound the home address
            // keeps it (this degenerates to the triangle route).
            SendMode::DirectLocal if src == SourceSel::Unspecified => (dst, care_of, None),
            SendMode::Triangle | SendMode::DirectLocal => (dst, home, None),
        };
        let Some(rt) = core.routes.lookup(target) else {
            return RouteAnswer::Once(None);
        };
        let decision = RouteDecision {
            iface: rt.iface,
            src: inner_src,
            next_hop: rt.gateway.unwrap_or(target),
            encap: outer_dst.map(|outer_dst| EncapSpec {
                outer_src: care_of,
                outer_dst,
            }),
        };
        RouteAnswer::Decide { decision, on_hit }
    }

    fn route_generation(&self) -> u64 {
        self.route_gen.wrapping_add(self.policy.generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosquitonet_link::presets;
    use mosquitonet_stack::{Host, HostId};
    use mosquitonet_wire::MacAddr;

    fn cfg(vif: IfaceId) -> MobileHostConfig {
        MobileHostConfig {
            home_addr: Ipv4Addr::new(36, 135, 0, 9),
            home_subnet: "36.135.0.0/24".parse().unwrap(),
            home_router: Ipv4Addr::new(36, 135, 0, 1),
            home_agent: Ipv4Addr::new(36, 135, 0, 1),
            standby_agents: Vec::new(),
            vif,
            lifetime: crate::timing::DEFAULT_LIFETIME_SECS,
            auth: None,
        }
    }

    /// Builds a host core configured as if away & registered, and the
    /// matching MobileHost, without a network.
    fn away_mobile() -> (Host, MobileHost, IfaceId) {
        let mut host = Host::new(HostId(0), "mh");
        let eth = host
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let vif = host.core.add_vif(presets::loopback("vif0"));
        let mut mh = MobileHost::new_at_home(cfg(vif), eth);
        // Hand-place the away state (integration tests exercise the real
        // sequence; unit tests focus on route_override policy logic).
        mh.location = Location::Away {
            iface: eth,
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            registered: true,
        };
        host.core
            .iface_mut(eth)
            .add_addr(Ipv4Addr::new(36, 8, 0, 42), "36.8.0.0/24".parse().unwrap());
        host.core.routes.add(RouteEntry {
            dest: "36.8.0.0/24".parse().unwrap(),
            gateway: None,
            iface: eth,
            metric: 0,
        });
        host.core.routes.add(RouteEntry {
            dest: Cidr::DEFAULT,
            gateway: Some(Ipv4Addr::new(36, 8, 0, 1)),
            iface: eth,
            metric: 0,
        });
        (host, mh, eth)
    }

    const CH: Ipv4Addr = Ipv4Addr::new(36, 40, 0, 7);

    #[test]
    fn pinned_foreign_source_is_outside_mobile_ip() {
        let (host, mut mh, _eth) = away_mobile();
        let d = mh
            .route_override(&host.core, CH, SourceSel::Addr(Ipv4Addr::new(36, 8, 0, 42)))
            .decision();
        assert!(d.is_none(), "local-role packets bypass the policy table");
    }

    #[test]
    fn unspecified_source_tunnels_by_default() {
        let (host, mut mh, eth) = away_mobile();
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .expect("subject to mobile IP");
        assert_eq!(d.src, mh.cfg.home_addr, "home role source");
        assert_eq!(d.iface, eth);
        assert_eq!(d.next_hop, Ipv4Addr::new(36, 8, 0, 1), "via visited router");
        let encap = d.encap.expect("reverse tunnel encapsulates");
        assert_eq!(encap.outer_src, Ipv4Addr::new(36, 8, 0, 42));
        assert_eq!(encap.outer_dst, mh.cfg.home_agent);
    }

    #[test]
    fn home_source_is_also_subject_to_mobile_ip() {
        let (host, mut mh, _eth) = away_mobile();
        let d = mh
            .route_override(
                &host.core,
                CH,
                SourceSel::Addr(Ipv4Addr::new(36, 135, 0, 9)),
            )
            .decision();
        assert!(d.is_some(), "§3.3: home-address source means mobile IP");
    }

    #[test]
    fn triangle_policy_goes_direct_unencapsulated() {
        let (host, mut mh, _eth) = away_mobile();
        mh.policy.set(Cidr::host(CH), SendMode::Triangle);
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .unwrap();
        assert_eq!(d.src, mh.cfg.home_addr);
        assert!(d.encap.is_none(), "triangle sends in the clear");
    }

    #[test]
    fn direct_encap_policy_wraps_toward_correspondent() {
        let (host, mut mh, _eth) = away_mobile();
        mh.policy.set(Cidr::host(CH), SendMode::DirectEncap);
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .unwrap();
        let encap = d.encap.unwrap();
        assert_eq!(encap.outer_dst, CH, "tunnel terminates at the CH");
        assert_eq!(
            encap.outer_src,
            Ipv4Addr::new(36, 8, 0, 42),
            "filter-safe local source"
        );
        assert_eq!(d.src, mh.cfg.home_addr, "inner packet keeps home source");
    }

    #[test]
    fn direct_local_uses_care_of_source() {
        let (host, mut mh, _eth) = away_mobile();
        mh.policy.set(Cidr::host(CH), SendMode::DirectLocal);
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .unwrap();
        assert_eq!(d.src, Ipv4Addr::new(36, 8, 0, 42));
        assert!(d.encap.is_none());
    }

    #[test]
    fn at_home_no_override() {
        let mut host = Host::new(HostId(0), "mh");
        let eth = host
            .core
            .add_iface(presets::pcmcia_ethernet("eth0", MacAddr::from_index(1)));
        let vif = host.core.add_vif(presets::loopback("vif0"));
        let mut mh = MobileHost::new_at_home(cfg(vif), eth);
        assert!(mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .is_none());
        assert!(mh.away_status().is_none());
    }

    #[test]
    fn unregistered_away_falls_through() {
        let (host, mut mh, eth) = away_mobile();
        mh.location = Location::Away {
            iface: eth,
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            registered: false,
        };
        assert!(mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .is_none());
        assert_eq!(
            mh.away_status(),
            Some((eth, Ipv4Addr::new(36, 8, 0, 42), false))
        );
    }

    #[test]
    fn degraded_reverse_tunnel_falls_back_to_direct_encap() {
        let (host, mut mh, eth) = away_mobile();
        mh.location = Location::Away {
            iface: eth,
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            registered: false,
        };
        mh.degraded = true;
        let gen_before = mh.route_generation();
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .expect("degraded forwarding still routes");
        assert_eq!(d.src, mh.cfg.home_addr, "home role survives degradation");
        let encap = d.encap.expect("falls back to direct encapsulation");
        assert_eq!(
            encap.outer_dst, CH,
            "tunnel terminates at the CH, not the dead agent"
        );
        assert_eq!(encap.outer_src, Ipv4Addr::new(36, 8, 0, 42));
        assert_eq!(
            mh.route_generation(),
            gen_before,
            "lookup itself moves no tokens"
        );
    }

    #[test]
    fn degraded_direct_local_policy_is_untouched() {
        let (host, mut mh, eth) = away_mobile();
        mh.location = Location::Away {
            iface: eth,
            care_of: Ipv4Addr::new(36, 8, 0, 42),
            registered: false,
        };
        mh.degraded = true;
        mh.policy.set(Cidr::host(CH), SendMode::DirectLocal);
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .unwrap();
        assert_eq!(d.src, Ipv4Addr::new(36, 8, 0, 42), "local role kept");
        assert!(d.encap.is_none(), "DirectLocal already needs no agent");
    }

    #[test]
    fn registered_reverse_tunnel_targets_current_home_agent() {
        let (host, mut mh, _eth) = away_mobile();
        let standby = Ipv4Addr::new(36, 135, 0, 3);
        let (home, primary) = (mh.cfg.home_addr, mh.cfg.home_agent);
        mh.reg = RegistrationMachine::new(home, primary, &[standby], None, TOKEN_REG_BASE);
        // Unanswered sends spend the retry budget; the ring then rotates.
        let mut fx = mosquitonet_stack::Effects::new();
        while mh.reg.home_agent() != standby {
            let opts = mosquitonet_stack::SendOptions::default();
            mh.reg.send(&mut fx, SocketId(0), primary, opts, home, 0);
        }
        let d = mh
            .route_override(&host.core, CH, SourceSel::Unspecified)
            .decision()
            .unwrap();
        assert_eq!(
            d.encap.unwrap().outer_dst,
            standby,
            "reverse tunnel follows the failover target"
        );
    }

    #[test]
    fn timeline_math() {
        let tl = RegistrationTimeline {
            start: Some(SimTime::ZERO),
            iface_up: None,
            iface_configured: Some(SimTime::from_nanos(1_200_000)),
            route_changed: Some(SimTime::from_nanos(1_800_000)),
            request_sent: Some(SimTime::from_nanos(1_800_000)),
            reply_received: Some(SimTime::from_nanos(6_590_000)),
            done: Some(SimTime::from_nanos(7_390_000)),
        };
        assert_eq!(tl.total().unwrap(), SimDuration::from_micros(7_390));
        assert_eq!(
            tl.request_to_reply().unwrap(),
            SimDuration::from_micros(4_790)
        );
        assert_eq!(RegistrationTimeline::default().total(), None);
    }
}
