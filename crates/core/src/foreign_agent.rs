//! The foreign-agent baseline (the IETF design MosquitoNet argues against).
//!
//! MosquitoNet's core claim is that foreign agents can be dispensed with.
//! To *measure* what that choice costs (§5.1 lists "Packet loss" as the
//! main disadvantage: "if a foreign agent in the old network receives the
//! new registration before the packets arrive, it can forward the packets
//! to the mobile host's new care-of address"), this module implements a
//! working FA: periodic agent advertisements, registration relay,
//! FA-terminated tunnels (the FA's address is the care-of address), direct
//! link-layer delivery to visiting hosts, and previous-FA forwarding
//! driven by binding updates from the home agent.
//!
//! [`FaMobileHost`] is the matching mobile-host side: it keeps its home
//! address on the visited link (as RFC 2002 hosts with an FA care-of do),
//! uses the FA as its default router, and registers *through* the FA —
//! with the same [`RegistrationMachine`] the agentless host drives, so the
//! two differ in who decapsulates, not in how a registration is retried,
//! signed, verified or renewed.

use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{IdHashMap, Line, MetricsScope, SimDuration};
use mosquitonet_stack::{IfaceId, Module, ModuleCtx, RouteEntry, SocketId, SourceSel};
use mosquitonet_wire::Cidr;

use crate::messages::{
    classify, AgentAdvertisement, BindingUpdate, MessageKind, RegistrationReply,
    RegistrationRequest, REGISTRATION_PORT,
};
use crate::registration::{RegEvent, RegistrationMachine};

const TOKEN_ADVERTISE: u64 = 0x10;
const TOKEN_FORWARD_EXPIRE_BASE: u64 = 0x2000;
/// Base of the FA-mode host's registration-client tokens (its own module).
const TOKEN_FA_REG_BASE: u64 = 0x10;

/// How often a foreign agent advertises itself.
pub const ADVERTISE_INTERVAL: SimDuration = SimDuration::from_millis(1_000);

/// Foreign agent configuration.
#[derive(Clone, Copy, Debug)]
pub struct ForeignAgentConfig {
    /// The agent's address — also the care-of address it offers.
    pub addr: Ipv4Addr,
    /// Interface on the visited LAN.
    pub iface: IfaceId,
}

mosquitonet_sim::counters! {
    /// Foreign-agent counters: `{host}/reg/*`.
    pub struct ForeignAgentStats {
        /// Registrations relayed toward home agents.
        pub relayed_requests => "relayed_requests",
        /// Replies relayed back to visitors.
        pub relayed_replies => "relayed_replies",
        /// Binding updates accepted (previous-FA forwarding armed).
        pub forwarding_armed => "forwarding_armed",
    }
}

/// The foreign agent module. The hosting machine must have `forwarding`
/// and `ipip_decap` enabled (the test-bed builder does this).
pub struct ForeignAgent {
    cfg: ForeignAgentConfig,
    sock: Option<SocketId>,
    seq: u16,
    /// Visiting mobile hosts: home address → the (addr, port) that sent
    /// the relayed registration.
    visitors: IdHashMap<Ipv4Addr, (Ipv4Addr, u16)>,
    next_expire_token: u64,
    forward_tokens: IdHashMap<u64, Ipv4Addr>,
    /// The `reg/*` counters.
    pub stats: ForeignAgentStats,
}

impl ForeignAgent {
    /// Creates a foreign agent with `cfg`.
    pub fn new(cfg: ForeignAgentConfig) -> ForeignAgent {
        ForeignAgent {
            cfg,
            sock: None,
            seq: 0,
            visitors: IdHashMap::default(),
            next_expire_token: TOKEN_FORWARD_EXPIRE_BASE,
            forward_tokens: IdHashMap::default(),
            stats: ForeignAgentStats::default(),
        }
    }

    /// Currently registered visitors.
    pub fn visitor_count(&self) -> usize {
        self.visitors.len()
    }

    fn advertise(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.seq = self.seq.wrapping_add(1);
        let adv = AgentAdvertisement {
            seq: self.seq,
            agent_addr: self.cfg.addr,
        };
        ctx.fx.send_udp_opts(
            self.sock.expect("bound"),
            (Ipv4Addr::BROADCAST, REGISTRATION_PORT),
            adv.to_bytes(),
            mosquitonet_stack::SendOptions {
                src: SourceSel::Addr(self.cfg.addr),
                iface: Some(self.cfg.iface),
                ttl: None,
                label: Some("fa-adv"),
            },
        );
        ctx.fx.set_timer(ADVERTISE_INTERVAL, TOKEN_ADVERTISE);
    }
}

impl Module for ForeignAgent {
    fn name(&self) -> &'static str {
        "foreign-agent"
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, REGISTRATION_PORT);
        assert!(self.sock.is_some(), "registration port busy");
        self.advertise(ctx);
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.stats.register_into(&scope.scope("reg"));
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        if token == TOKEN_ADVERTISE {
            self.advertise(ctx);
        } else if let Some(home) = self.forward_tokens.remove(&token) {
            // Previous-FA forwarding grace period over.
            ctx.set_tunnel(home, None);
            ctx.fx
                .trace(Line::new("previous-FA forwarding for {} expired").addr(home));
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        match classify(payload) {
            Some(MessageKind::Advertisement) => {
                // An advertisement with an unspecified agent address is a
                // *solicitation* from a just-arrived mobile host: answer
                // immediately instead of waiting out the beacon interval.
                if let Ok(adv) = AgentAdvertisement::parse(payload) {
                    if adv.agent_addr.is_unspecified() {
                        self.advertise(ctx);
                    }
                }
            }
            Some(MessageKind::Request) => {
                let Ok(req) = RegistrationRequest::parse(payload) else {
                    return;
                };
                // Relay toward the home agent ("the protocol only requires
                // it to relay registration requests... and decapsulate
                // packets", §2). The visitor is on our link — install its
                // delivery route NOW so even a denial reply reaches it
                // (routing a denial via the default gateway would send it
                // toward the visitor's distant home network instead).
                ctx.core.routes.add(RouteEntry {
                    dest: Cidr::host(req.home_addr),
                    gateway: None,
                    iface: self.cfg.iface,
                    metric: 0,
                });
                self.visitors.insert(req.home_addr, src);
                self.stats.relayed_requests.inc();
                ctx.fx.send_udp(
                    self.sock.expect("bound"),
                    (req.home_agent, REGISTRATION_PORT),
                    payload.clone(),
                );
            }
            Some(MessageKind::Reply) => {
                let Ok(reply) = RegistrationReply::parse(payload) else {
                    return;
                };
                let Some(&visitor) = self.visitors.get(&reply.home_addr) else {
                    return;
                };
                self.stats.relayed_replies.inc();
                match reply.code {
                    crate::messages::ReplyCode::Accepted if reply.lifetime > 0 => {
                        // Visitor registered here (the delivery route was
                        // installed at relay time). Any previous-FA
                        // forwarding state for it is now stale (the host
                        // came *back*) and must go, or packets would loop
                        // out to its former care-of address.
                        ctx.set_tunnel(reply.home_addr, None);
                        self.forward_tokens.retain(|_, h| *h != reply.home_addr);
                        let line = Line::new("visitor {} registered via this FA");
                        ctx.fx.trace(line.addr(reply.home_addr));
                    }
                    crate::messages::ReplyCode::Accepted => {
                        // Deregistration: the visitor is leaving; its
                        // delivery route goes once the reply below is out.
                        self.visitors.remove(&reply.home_addr);
                    }
                    _ => {} // denial: keep the route so the denial delivers
                }
                ctx.fx
                    .send_udp(self.sock.expect("bound"), visitor, payload.clone());
            }
            Some(MessageKind::Update) => {
                // The home agent tells us the visitor moved: forward
                // in-flight packets to its new care-of address (§5.1).
                let Ok(update) = BindingUpdate::parse(payload) else {
                    return;
                };
                ctx.core.routes.remove(Cidr::host(update.home_addr));
                ctx.set_tunnel(update.home_addr, Some(update.new_care_of));
                self.visitors.remove(&update.home_addr);
                self.stats.forwarding_armed.inc();
                let token = self.next_expire_token;
                self.next_expire_token += 1;
                self.forward_tokens.insert(token, update.home_addr);
                ctx.fx
                    .set_timer(SimDuration::from_secs(u64::from(update.lifetime)), token);
                let line = Line::new("forwarding {} to new care-of {} for {}s");
                let line = line.addr(update.home_addr).addr(update.new_care_of);
                ctx.fx.trace(line.num(update.lifetime.into()));
            }
            _ => {}
        }
    }
}

/// The foreign-agent-dependent mobile host (IETF baseline): keeps its home
/// address on the visited link, discovers agents by advertisement, and
/// registers through them.
pub struct FaMobileHost {
    /// Home address (kept on the physical interface everywhere).
    pub home_addr: Ipv4Addr,
    home_subnet: Cidr,
    iface: IfaceId,
    lifetime: u16,
    sock: Option<SocketId>,
    current_fa: Option<Ipv4Addr>,
    pending_fa: Option<Ipv4Addr>,
    previous_fa: Option<Ipv4Addr>,
    /// Notify the previous foreign agent of the new care-of address when
    /// registering, so it can forward in-flight packets (§5.1).
    pub notify_previous: bool,
    /// The registration client and its `reg/*` counters. Set `reg.auth`
    /// before the world starts for a keyed host: requests are signed (the
    /// relaying FA forwards the trailing extension untouched) and only
    /// signed replies are trusted.
    pub reg: RegistrationMachine,
}

impl FaMobileHost {
    /// Creates an FA-mode mobile host using `iface` as its roaming
    /// interface.
    pub fn new(
        home_addr: Ipv4Addr,
        home_subnet: Cidr,
        home_agent: Ipv4Addr,
        iface: IfaceId,
        lifetime: u16,
    ) -> FaMobileHost {
        FaMobileHost {
            home_addr,
            home_subnet,
            iface,
            lifetime,
            sock: None,
            current_fa: None,
            pending_fa: None,
            previous_fa: None,
            notify_previous: false,
            reg: RegistrationMachine::new(home_addr, home_agent, &[], None, TOKEN_FA_REG_BASE),
        }
    }

    /// The foreign agent currently registered through, if any.
    pub fn current_fa(&self) -> Option<Ipv4Addr> {
        self.current_fa
    }

    /// Notes a physical move: forget the current agent, solicit a new one
    /// on the link, and re-register when its advertisement arrives.
    pub fn moved(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.previous_fa = self.current_fa.take();
        self.pending_fa = None;
        // The retry timer belongs to the registration attempt we just
        // abandoned; left armed it would fire with no agent pending.
        self.reg.abandon(ctx.fx);
        ctx.core.routes.remove(Cidr::DEFAULT);
        // The old agent is no longer on-link; a stale host route would
        // make packets for it (the previous-FA notification!) ARP into
        // the void on the new link.
        if let Some(prev) = self.previous_fa {
            ctx.core.routes.remove(Cidr::host(prev));
        }
        // Agent solicitation: an advertisement with an unspecified agent
        // address, answered immediately by any FA on the link.
        let solicit = AgentAdvertisement {
            seq: 0,
            agent_addr: Ipv4Addr::UNSPECIFIED,
        };
        ctx.fx.send_udp_opts(
            self.sock.expect("bound"),
            (Ipv4Addr::BROADCAST, REGISTRATION_PORT),
            solicit.to_bytes(),
            mosquitonet_stack::SendOptions {
                src: SourceSel::Addr(self.home_addr),
                iface: Some(self.iface),
                ttl: None,
                label: Some("fa-sol"),
            },
        );
        ctx.fx.trace("fa-mh moved; soliciting agents");
    }

    fn register_via(&mut self, ctx: &mut ModuleCtx<'_>, fa: Ipv4Addr) {
        self.pending_fa = Some(fa);
        let opts = mosquitonet_stack::SendOptions {
            src: SourceSel::Addr(self.home_addr),
            iface: Some(self.iface),
            ttl: None,
            label: Some("reg"),
        };
        // The FA relays the request and its address is the care-of
        // address. A spent retry budget has nothing to degrade to here:
        // the machine already restarted the schedule, and the
        // solicitation went out in [`Self::moved`].
        let sock = self.sock.expect("bound");
        self.reg.send(ctx.fx, sock, fa, opts, fa, self.lifetime);
        // Previous-FA notification: tell the agent we just left where we
        // went, so packets still landing there chase us. Sent at
        // registration time — the point of §5.1's "if a foreign agent in
        // the old network receives the new registration before the
        // packets arrive, it can forward" — not at HA-rebind time, which
        // would always lose the race against the last tunneled packets.
        if self.notify_previous {
            if let Some(prev) = self.previous_fa.filter(|p| *p != fa) {
                let update = BindingUpdate {
                    lifetime: 10,
                    home_addr: self.home_addr,
                    new_care_of: fa,
                };
                ctx.fx
                    .send_udp(sock, (prev, REGISTRATION_PORT), update.to_bytes());
            }
        }
    }
}

impl Module for FaMobileHost {
    fn name(&self) -> &'static str {
        "fa-mobile-host"
    }

    fn register_metrics(&self, scope: &MetricsScope) {
        self.reg.register_metrics(scope);
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, REGISTRATION_PORT);
        assert!(self.sock.is_some(), "registration port busy");
        // The home address lives on the roaming interface itself — with a
        // foreign agent there is no colocated care-of address (§2,
        // Figure 2 bottom).
        ctx.core
            .iface_mut(self.iface)
            .add_addr(self.home_addr, self.home_subnet);
        ctx.core.ipip_decap = true; // harmless; FA decapsulates for us
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {
        let holding = self.current_fa.is_some();
        match self.reg.on_timer(ctx.fx, token, holding) {
            RegEvent::Resend => {}
            RegEvent::Lapsed => self.current_fa = None,
            _ => return,
        }
        if let Some(fa) = self.pending_fa {
            self.register_via(ctx, fa);
        }
    }

    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        match classify(payload) {
            Some(MessageKind::Advertisement) => {
                let Ok(adv) = AgentAdvertisement::parse(payload) else {
                    return;
                };
                if self.current_fa != Some(adv.agent_addr)
                    && self.pending_fa != Some(adv.agent_addr)
                {
                    // New agent heard: use it as default router and
                    // register through it.
                    ctx.core.routes.add(RouteEntry {
                        dest: Cidr::DEFAULT,
                        gateway: Some(adv.agent_addr),
                        iface: self.iface,
                        metric: 0,
                    });
                    // The visited link is "on-link" only via the FA; a
                    // host route to the FA itself keeps ARP working.
                    ctx.core.routes.add(RouteEntry {
                        dest: Cidr::host(adv.agent_addr),
                        gateway: None,
                        iface: self.iface,
                        metric: 0,
                    });
                    self.register_via(ctx, adv.agent_addr);
                }
            }
            Some(MessageKind::Reply) => {
                let RegEvent::Accepted { epoch_changed, .. } = self.reg.on_reply(ctx.fx, payload)
                else {
                    return;
                };
                // A reply that outran a move finds no agent pending.
                let Some(fa) = self.pending_fa else { return };
                self.current_fa = Some(fa);
                ctx.fx.trace(Line::new("fa-mh registered via {}").addr(fa));
                if epoch_changed {
                    self.reg.note_epoch_change(ctx.fx);
                    self.register_via(ctx, fa);
                }
            }
            _ => {}
        }
    }
}
