//! Protocol-module framework: how mobility software attaches to the stack.
//!
//! The paper's implementation strategy was to touch the kernel in exactly
//! three places (§3.3): override `ip_rt_route()`, add a Mobile Policy
//! Table consulted by it, and add the VIF encapsulating interface. This
//! module reproduces that shape: a [`Module`] is a piece of software on a
//! host (the mobile-host manager, the home agent, a DHCP client, an echo
//! server…) that receives stack callbacks — including the
//! [`Module::route_override`] hook, which is this stack's `ip_rt_route()`
//! extension point.
//!
//! Modules mutate their host freely through [`ModuleCtx`], but anything
//! that needs the event loop (transmitting, timers, interface power
//! transitions) is queued as an [`Effect`] and applied by the world after
//! the callback returns, which keeps borrows simple and re-entrancy
//! impossible.

use std::any::Any;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_sim::{Counter, Line, MetricsScope, SimDuration, SimTime};
use mosquitonet_wire::{IcmpMessage, Ipv4Packet};

use crate::host::HostCore;
use crate::iface::IfaceId;
use crate::tcp::{ConnId, TcpEvent};
use crate::udp::SocketId;

// TCP opens/sends/closes are *not* effects: modules call the synchronous
// `HostCore::tcp_connect`/`tcp_send`/`tcp_close`, whose segment
// transmissions are drained by the world right after the callback.

/// Identifies a module within its host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModuleId(pub usize);

/// Where an outgoing packet's source address comes from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SourceSel {
    /// The application did not specify; the stack (and mobile IP policy)
    /// chooses. This is the paper's "requiring mobile IP" case.
    #[default]
    Unspecified,
    /// The application pinned a source address — "outside the scope of
    /// mobile IP" unless the pinned address *is* the home address (§3.3).
    Addr(Ipv4Addr),
}

/// Options for an outgoing send.
#[derive(Clone, Copy, Default, Debug)]
pub struct SendOptions {
    /// Source-address selection.
    pub src: SourceSel,
    /// Force a specific outgoing interface (mobile-aware applications).
    pub iface: Option<IfaceId>,
    /// Override the default TTL.
    pub ttl: Option<u8>,
    /// Flight-recorder label for the packet's journey (e.g. `"reg"` for
    /// registration traffic); ignored unless the recorder is enabled.
    pub label: Option<&'static str>,
}

/// Tunnel endpoints for one level of IP-in-IP encapsulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EncapSpec {
    /// Outer source — must be a concrete local address ("VIF must set the
    /// source address in the outer header to a specific physical
    /// interface", §3.3).
    pub outer_src: Ipv4Addr,
    /// Outer destination (care-of address or home agent).
    pub outer_dst: Ipv4Addr,
}

/// The answer of a route lookup — what the paper's `ip_rt_route()` returns
/// (recommended interface and source address), extended with the optional
/// encapsulation the Mobile Policy Table can request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteDecision {
    /// Egress interface for the (possibly outer) packet.
    pub iface: IfaceId,
    /// Source address for the inner packet.
    pub src: Ipv4Addr,
    /// Link-layer next hop for the (possibly outer) packet.
    pub next_hop: Ipv4Addr,
    /// If set, encapsulate the packet with these outer addresses and route
    /// the result through `iface`/`next_hop`.
    pub encap: Option<EncapSpec>,
}

/// A module's answer to [`Module::route_override`], telling the fast path
/// whether the resolution may be replayed from the decision cache.
#[derive(Clone, Debug)]
pub enum RouteAnswer {
    /// The module does not handle this destination; fall through to the
    /// next module (or the kernel table). The fall-through is cacheable.
    Pass,
    /// The module decided the route. The decision is cacheable; `on_hit`
    /// (if any) is a counter the cache must bump on every replayed hit so
    /// per-mode statistics stay identical to the uncached path.
    Decide {
        /// The route decision.
        decision: RouteDecision,
        /// Counter charged once per lookup, hit or miss.
        on_hit: Option<Counter>,
    },
    /// A one-shot resolution with side effects that must re-run on every
    /// lookup (e.g. a policy counter was charged but the route then failed
    /// to resolve). Never cached.
    Once(Option<RouteDecision>),
}

impl RouteAnswer {
    /// The route this answer dictates, if any.
    pub fn decision(&self) -> Option<RouteDecision> {
        match self {
            RouteAnswer::Pass => None,
            RouteAnswer::Decide { decision, .. } => Some(*decision),
            RouteAnswer::Once(d) => *d,
        }
    }
}

/// A deferred action queued by a module and applied by the world.
#[derive(Debug)]
pub enum Effect {
    /// Send a UDP datagram from `sock`.
    SendUdp {
        /// Originating socket.
        sock: SocketId,
        /// Destination address and port.
        dst: (Ipv4Addr, u16),
        /// Payload.
        payload: Bytes,
        /// Send options.
        opts: SendOptions,
    },
    /// Send a burst of UDP datagrams from `sock` to one destination,
    /// resolving the route once for the whole burst (the saturation
    /// path). The wire behavior — one datagram per payload, in order — is
    /// identical to queueing `payloads.len()` `SendUdp`s.
    SendUdpBurst {
        /// Originating socket.
        sock: SocketId,
        /// Destination address and port shared by the burst.
        dst: (Ipv4Addr, u16),
        /// One datagram payload per entry, sent in order.
        payloads: Vec<Bytes>,
        /// Send options shared by the burst.
        opts: SendOptions,
    },
    /// Send a raw, fully-formed IP packet (ICMP probes, odd protocols).
    SendIp {
        /// The packet; a `0.0.0.0` source engages source selection.
        packet: Ipv4Packet,
        /// Send options.
        opts: SendOptions,
    },
    /// Arm a timer; `on_timer(token)` fires on the owning module.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque token returned to the module.
        token: u64,
    },
    /// Disarm the timer with `token` (no-op if not armed).
    CancelTimer {
        /// Token passed to `SetTimer`.
        token: u64,
    },
    /// Begin powering an interface up; all modules get `on_iface_up` when
    /// it completes.
    BringIfaceUp(IfaceId),
    /// Power an interface down immediately (its quiesce time is charged to
    /// the caller's time-line by the device model).
    BringIfaceDown(IfaceId),
    /// Broadcast a gratuitous ARP for `addr` out `iface`.
    GratuitousArp {
        /// Interface to broadcast on.
        iface: IfaceId,
        /// Address being claimed.
        addr: Ipv4Addr,
    },
    /// Append a mobility-category trace entry, rendered only if read.
    Trace(Line),
}

/// The queue of effects a module produced during one callback.
#[derive(Debug, Default)]
pub struct Effects {
    items: Vec<Effect>,
}

impl Effects {
    /// Creates an empty queue.
    pub fn new() -> Effects {
        Effects::default()
    }

    /// Queues an effect.
    pub fn push(&mut self, effect: Effect) {
        self.items.push(effect);
    }

    /// Drains the queued effects in order.
    pub fn drain(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.items)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Convenience: queue a UDP send.
    pub fn send_udp(&mut self, sock: SocketId, dst: (Ipv4Addr, u16), payload: Bytes) {
        self.push(Effect::SendUdp {
            sock,
            dst,
            payload,
            opts: SendOptions::default(),
        });
    }

    /// Convenience: queue a UDP send with options.
    pub fn send_udp_opts(
        &mut self,
        sock: SocketId,
        dst: (Ipv4Addr, u16),
        payload: Bytes,
        opts: SendOptions,
    ) {
        self.push(Effect::SendUdp {
            sock,
            dst,
            payload,
            opts,
        });
    }

    /// Convenience: queue a UDP burst to one destination.
    pub fn send_udp_burst(
        &mut self,
        sock: SocketId,
        dst: (Ipv4Addr, u16),
        payloads: Vec<Bytes>,
        opts: SendOptions,
    ) {
        self.push(Effect::SendUdpBurst {
            sock,
            dst,
            payloads,
            opts,
        });
    }

    /// Convenience: arm a timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.push(Effect::SetTimer { delay, token });
    }

    /// Convenience: trace a mobility event — a [`Line`], or a string
    /// literal for a line without arguments. Nothing here takes a built
    /// `String`: whether the trace is on is not a module's to know, so a
    /// module must not pay for text.
    pub fn trace(&mut self, line: impl Into<Line>) {
        self.push(Effect::Trace(line.into()));
    }

    /// Convenience: queue an ICMP echo request ("ping") to `dst`. The
    /// source is chosen by the stack (and thus by mobility policy); the
    /// reply arrives via [`Module::on_icmp`].
    pub fn send_ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) {
        let packet = Ipv4Packet::new(
            mosquitonet_wire::Ipv4Header::new(
                Ipv4Addr::UNSPECIFIED,
                dst,
                mosquitonet_wire::IpProto::Icmp,
            ),
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload: Bytes::new(),
            }
            .to_bytes(),
        );
        self.push(Effect::SendIp {
            packet,
            opts: SendOptions::default(),
        });
    }
}

/// Context handed to module callbacks.
pub struct ModuleCtx<'a> {
    /// The host's mutable state (interfaces, routes, ARP, sockets, tunnels).
    pub core: &'a mut HostCore,
    /// Deferred actions to apply after the callback.
    pub fx: &'a mut Effects,
    /// Current simulation time.
    pub now: SimTime,
    /// The id of the module being called (its socket/connection owner id).
    pub me: ModuleId,
}

impl ModuleCtx<'_> {
    /// Binds a UDP socket owned by this module.
    pub fn udp_bind(&mut self, local_addr: Option<Ipv4Addr>, port: u16) -> Option<SocketId> {
        self.core.udp_bind(self.me, local_addr, port)
    }

    /// Opens a TCP connection owned by this module.
    pub fn tcp_connect(&mut self, local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16)) -> ConnId {
        self.core.tcp_connect(self.me, local, remote)
    }

    /// Starts a TCP listener owned by this module.
    pub fn tcp_listen(&mut self, local_addr: Option<Ipv4Addr>, port: u16) {
        self.core.tcp_listen(self.me, local_addr, port)
    }

    /// Joins a multicast group on `iface`, emitting an IGMP membership
    /// report on that link (the §5.2 local-role action).
    pub fn join_multicast(&mut self, iface: IfaceId, group: Ipv4Addr) {
        if self.core.join_multicast(iface, group) {
            self.send_igmp(
                iface,
                group,
                mosquitonet_wire::IgmpMessage::MembershipReport { group },
            );
        }
    }

    /// Leaves a multicast group on `iface`, emitting an IGMP leave.
    pub fn leave_multicast(&mut self, iface: IfaceId, group: Ipv4Addr) {
        if self.core.leave_multicast(iface, group) {
            self.send_igmp(
                iface,
                group,
                mosquitonet_wire::IgmpMessage::LeaveGroup { group },
            );
        }
    }

    fn send_igmp(&mut self, iface: IfaceId, group: Ipv4Addr, msg: mosquitonet_wire::IgmpMessage) {
        let mut header = mosquitonet_wire::Ipv4Header::new(
            Ipv4Addr::UNSPECIFIED,
            group,
            mosquitonet_wire::IpProto::Other(mosquitonet_wire::IGMP_PROTO),
        );
        header.ttl = 1; // IGMP is link-local
        self.fx.push(Effect::SendIp {
            packet: Ipv4Packet::new(header, msg.to_bytes()),
            opts: SendOptions {
                src: SourceSel::Unspecified,
                iface: Some(iface),
                ttl: Some(1),
                label: Some("igmp"),
            },
        });
    }
}

/// A piece of software running on a host.
///
/// Default implementations make every hook optional; a module implements
/// only what it needs. `as_any` enables the experiment harness to reach a
/// concrete module for inspection.
#[allow(unused_variables)]
pub trait Module: Any {
    /// Short name for traces.
    fn name(&self) -> &'static str;

    /// Called once when the world starts.
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {}

    /// A timer armed by this module fired.
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, token: u64) {}

    /// A datagram arrived on a UDP socket owned by this module.
    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        sock: SocketId,
        src: (Ipv4Addr, u16),
        dst: Ipv4Addr,
        payload: &Bytes,
    ) {
    }

    /// An ICMP message addressed to this host arrived.
    fn on_icmp(&mut self, ctx: &mut ModuleCtx<'_>, from: Ipv4Addr, msg: &IcmpMessage) {}

    /// The `ip_rt_route()` override (§3.3): given a destination and the
    /// application's source selection, optionally dictate the route.
    ///
    /// Consulted for locally-originated packets only, in module order; the
    /// first decision wins. [`RouteAnswer::Pass`] (the default) falls
    /// through to the next module and then the kernel routing table. The
    /// fast-path decision cache replays `Pass` and [`RouteAnswer::Decide`];
    /// a resolution with per-lookup side effects (counter charges, probes)
    /// that a replay would skip answers [`RouteAnswer::Once`].
    fn route_override(&mut self, core: &HostCore, dst: Ipv4Addr, src: SourceSel) -> RouteAnswer {
        RouteAnswer::Pass
    }

    /// A monotone counter over every input that can change this module's
    /// [`Module::route_override`] answers. The fast-path decision cache
    /// folds it into its validity token: any bump flushes cached
    /// decisions. Return `None` to disable caching entirely while this
    /// module is installed (the conservative default is `Some(0)` —
    /// correct for modules that never override routes).
    fn route_generation(&self) -> Option<u64> {
        Some(0)
    }

    /// A locally-addressed IP packet no built-in handler claimed
    /// (non-UDP/TCP/ICMP protocols). Return `true` if consumed.
    fn on_ip_unclaimed(&mut self, ctx: &mut ModuleCtx<'_>, packet: &Ipv4Packet) -> bool {
        false
    }

    /// An interface finished powering up.
    fn on_iface_up(&mut self, ctx: &mut ModuleCtx<'_>, iface: IfaceId) {}

    /// The host just crashed: wipe every piece of state that would live in
    /// volatile memory on a real node (tables, pending work, serving
    /// duties). State modeling durable storage — a write-ahead journal, a
    /// boot epoch — survives; `on_restart` decides what to do with it.
    /// Kernel-side volatile state (ARP, tunnels, fast path) is wiped by
    /// the world itself before this hook runs.
    fn on_crash(&mut self, ctx: &mut ModuleCtx<'_>) {}

    /// The host finished rebooting after a crash: interfaces are powered
    /// back up and timers may be armed again. `storage_lost` reports
    /// whether the fault also destroyed durable storage, in which case
    /// journaled state must not be replayed.
    fn on_restart(&mut self, ctx: &mut ModuleCtx<'_>, storage_lost: bool) {}

    /// A TCP connection owned by this module changed state or delivered
    /// data.
    fn on_tcp_event(&mut self, ctx: &mut ModuleCtx<'_>, conn: ConnId, event: &TcpEvent) {}

    /// Binds this module's metric cells under `scope` (the owning host's
    /// scope, `{host}/...`). Called by the world's metrics-registration
    /// pass; the default registers nothing.
    fn register_metrics(&self, scope: &MetricsScope) {
        let _ = scope;
    }

    /// Dynamic downcast support for the experiment harness.
    fn as_any(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_queue_preserves_order() {
        let mut fx = Effects::new();
        fx.set_timer(SimDuration::from_millis(1), 10);
        fx.trace("hello");
        fx.push(Effect::CancelTimer { token: 10 });
        let items = fx.drain();
        assert_eq!(items.len(), 3);
        assert!(matches!(items[0], Effect::SetTimer { token: 10, .. }));
        assert!(matches!(&items[1], Effect::Trace(line) if line.to_string() == "hello"));
        assert!(matches!(items[2], Effect::CancelTimer { token: 10 }));
        assert!(fx.is_empty());
    }

    #[test]
    fn source_sel_default_is_unspecified() {
        assert_eq!(SourceSel::default(), SourceSel::Unspecified);
        let opts = SendOptions::default();
        assert_eq!(opts.src, SourceSel::Unspecified);
        assert!(opts.iface.is_none());
    }
}
