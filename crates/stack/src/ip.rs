//! The IP layer: output with source selection and override hooks, input,
//! forwarding, VIF tunneling, ICMP, and transport dispatch.
//!
//! The output path reproduces the paper's §3.3 decision structure:
//!
//! 1. A packet whose source address is pinned to a specific interface is
//!    "outside the scope of mobile IP" — it goes straight out.
//! 2. Otherwise the (overridden) route lookup runs: modules' `route_override`
//!    hooks — where `mosquitonet-core` plugs in the Mobile Policy Table —
//!    get first claim, exactly like the modified `ip_rt_route()`.
//! 3. A VIF tunnel entry (the home agent's per-mobile-host route) triggers
//!    IP-in-IP encapsulation, after which the outer packet is routed
//!    normally — "we can consider IP-within-IP to have delivered a new
//!    packet to IP, which treats the packet based on the same set of rules
//!    as before" (§3.3).
//! 4. Failing all of those, the plain kernel routing table answers.

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes};
use mosquitonet_link::{EtherType, Frame, FRAME_HEADER_LEN};
use mosquitonet_sim::{Line, NO_FLIGHT};
use mosquitonet_wire::{
    ipip, IcmpMessage, IgmpMessage, IpProto, Ipv4Header, Ipv4Packet, PacketBuf, TcpSegment,
    UdpDatagram, UnreachableCode, IPV4_HEADER_LEN,
};

use mosquitonet_sim::Counter;

use crate::host::{Host, HostId};
use crate::iface::IfaceId;
use crate::proto::{EncapSpec, ModuleId, RouteAnswer, RouteDecision, SendOptions, SourceSel};
use crate::tcp::{ConnId, TcpOut, TcpTable};
use crate::telemetry::DropReason::{
    ArpQueue, FilterIngress, Malformed, NoRoute, NoSocket, NotLocal, Ttl, Unclaimed,
};
use crate::telemetry::{emit, Event, SILENT};
use crate::udp::SocketId;
use crate::world::{self, NetSim};

/// Maximum decapsulation nesting accepted on input.
const MAX_DECAP_DEPTH: u32 = 4;

/// Picks the source address a packet leaving `iface` toward `dst` should
/// carry: an address on the subnet containing `dst` if one is configured,
/// else the interface's primary address.
fn iface_src(host: &Host, iface: IfaceId, dst: Ipv4Addr) -> Ipv4Addr {
    let ifc = host.core.iface(iface);
    ifc.subnet_containing(dst)
        .map(|a| a.addr)
        .or_else(|| ifc.primary_addr())
        .unwrap_or(Ipv4Addr::UNSPECIFIED)
}

/// The fast-path validity token: a wrapping sum of generation counters
/// over every input that feeds a route decision. Any routing-relevant
/// mutation — a kernel route change, a tunnel-binding move, an interface
/// address change or power transition (down, bring-up, crash), a policy
/// update or re-registration (via the owning module's `route_generation`)
/// — changes the sum, flushing the decision cache on the next lookup.
/// Returns `None` (caching disabled for this call) when a module slot is
/// vacant (nested dispatch) or a module declares itself uncacheable.
fn fastpath_token(host: &Host) -> Option<u64> {
    let core = &host.core;
    let mut token = core
        .routes
        .generation()
        .wrapping_add(core.route_config_generation())
        .wrapping_add(core.ifaces.len() as u64);
    for ifc in &core.ifaces {
        token = token
            .wrapping_add(ifc.addr_generation())
            .wrapping_add(ifc.power_generation());
    }
    token = token.wrapping_add(host.modules.len() as u64);
    for slot in &host.modules {
        token = token.wrapping_add(slot.as_ref()?.route_generation()?);
    }
    Some(token)
}

/// The full output-path route resolution (`ip_rt_route()` with the §3.3
/// extensions), fronted by the per-host decision cache. Returns `None`
/// when there is no route.
///
/// Public so benchmarks can measure the warm- and cold-cache paths; the
/// stack's own send paths are the intended callers.
pub fn resolve_route(
    host: &mut Host,
    dst: Ipv4Addr,
    src_sel: SourceSel,
    forced_iface: Option<IfaceId>,
) -> Option<RouteDecision> {
    // Forced interface: mobile-aware applications addressing a device
    // directly bypass every table (and the cache — there is nothing to
    // look up).
    if let Some(iface) = forced_iface {
        let src = match src_sel {
            SourceSel::Addr(a) => a,
            SourceSel::Unspecified => iface_src(host, iface, dst),
        };
        return Some(RouteDecision {
            iface,
            src,
            next_hop: dst,
            encap: None,
        });
    }

    let token = fastpath_token(host);
    let key = (dst, src_sel, None);
    if let Some(tok) = token {
        if let Some(d) = host.fastpath.lookup(tok, &key) {
            return Some(d);
        }
    }
    let (decision, on_hit, cacheable) = resolve_route_uncached(host, dst, src_sel);
    // No negative caching: a missing route today may exist after the next
    // module action without any generation moving.
    if let (Some(tok), Some(d), true) = (token, decision, cacheable) {
        host.fastpath.insert(tok, key, d, on_hit);
    }
    decision
}

/// The uncached resolution walk: module hooks, VIF tunnels, kernel table.
/// Returns the decision, the counter a cached replay must keep charging,
/// and whether the resolution may be cached at all.
fn resolve_route_uncached(
    host: &mut Host,
    dst: Ipv4Addr,
    src_sel: SourceSel,
) -> (Option<RouteDecision>, Option<Counter>, bool) {
    let mut cacheable = true;

    // Module hooks (Mobile Policy Table) — first claim wins.
    for idx in 0..host.modules.len() {
        if let Some(mut module) = host.take_module(ModuleId(idx)) {
            let answer = module.route_override(&host.core, dst, src_sel);
            host.put_module(ModuleId(idx), module);
            match answer {
                RouteAnswer::Pass => {}
                RouteAnswer::Decide { decision, on_hit } => {
                    return (Some(decision), on_hit, cacheable);
                }
                RouteAnswer::Once(d) => {
                    if d.is_some() {
                        return (d, None, false);
                    }
                    // A side-effecting fall-through (e.g. a policy counter
                    // charged before the route failed to resolve): keep
                    // walking, but the result must re-run every time.
                    cacheable = false;
                }
            }
        }
    }

    // VIF tunnel entries (the home agent's encapsulating routes).
    if let Some(care_of) = host.core.tunnel_to(dst) {
        let Some(rt) = host.core.routes.lookup(care_of) else {
            return (None, None, false);
        };
        let outer_src = iface_src(host, rt.iface, care_of);
        let src = match src_sel {
            SourceSel::Addr(a) => a,
            SourceSel::Unspecified => outer_src,
        };
        return (
            Some(RouteDecision {
                iface: rt.iface,
                src,
                next_hop: rt.gateway.unwrap_or(care_of),
                encap: Some(EncapSpec {
                    outer_src,
                    outer_dst: care_of,
                }),
            }),
            None,
            cacheable,
        );
    }

    // The unmodified kernel routing table.
    let Some(rt) = host.core.routes.lookup(dst) else {
        return (None, None, false);
    };
    let src = match src_sel {
        SourceSel::Addr(a) => a,
        SourceSel::Unspecified => iface_src(host, rt.iface, dst),
    };
    (
        Some(RouteDecision {
            iface: rt.iface,
            src,
            next_hop: rt.gateway.unwrap_or(dst),
            encap: None,
        }),
        None,
        cacheable,
    )
}

/// Sends one UDP datagram per payload from `sock` to `dst`, in order, each
/// with its own IP ident and flight. A single datagram is a burst of one:
/// the socket lookup and the route resolution (one fast-path decision-cache
/// consultation) run once however many payloads follow. A closed socket or
/// an empty burst sends nothing, resolves nothing and mints no flight.
pub fn udp_send(
    sim: &mut NetSim,
    host: HostId,
    sock: SocketId,
    dst: (Ipv4Addr, u16),
    payloads: impl IntoIterator<Item = Bytes>,
    opts: SendOptions,
) {
    let mut payloads = payloads.into_iter().peekable();
    if payloads.peek().is_none() {
        return;
    }
    let h = &mut sim.world_mut().hosts[host.0];
    let Some(s) = h.core.udp.get(sock) else {
        return; // closed socket
    };
    let src_port = s.port;
    // A socket bound to a concrete address pins the source (§3.3's
    // "outside the scope of mobile IP" case), unless the caller pinned
    // one explicitly.
    let src_sel = match (opts.src, s.local_addr) {
        (SourceSel::Addr(a), _) => SourceSel::Addr(a),
        (SourceSel::Unspecified, Some(a)) => SourceSel::Addr(a),
        (SourceSel::Unspecified, None) => SourceSel::Unspecified,
    };
    // Local destination: deliver without touching the wire, one input
    // event per datagram after the usual processing delay.
    if h.core.is_local_addr(dst.0) {
        let src = match src_sel {
            SourceSel::Addr(a) => a,
            SourceSel::Unspecified => dst.0,
        };
        let proc = h.core.proc_delay;
        for payload in payloads {
            let flight = sim.flights_mut().begin_flight(opts.label);
            let bytes = UdpDatagram::new(src_port, dst.1, payload).to_bytes(src, dst.0);
            let mut header = Ipv4Header::new(src, dst.0, IpProto::Udp);
            header.ident = sim.world_mut().hosts[host.0].core.next_ident();
            let pkt = Ipv4Packet::new(header, bytes);
            emit(sim, host, flight, "udp", Event::Sent, SILENT);
            sim.schedule_in(proc, move |sim| {
                ip_input_flight(sim, host, None, pkt, 0, flight)
            });
        }
        return;
    }
    let decision = resolve_route(h, dst.0, src_sel, opts.iface);
    for payload in payloads {
        let flight = sim.flights_mut().begin_flight(opts.label);
        emit(sim, host, flight, "udp", Event::Sent, SILENT);
        let Some(decision) = decision else {
            emit(sim, host, flight, "udp", Event::Drop(NoRoute), SILENT);
            continue;
        };
        let mut header = Ipv4Header::new(decision.src, dst.0, IpProto::Udp);
        if let Some(ttl) = opts.ttl {
            header.ttl = ttl;
        }
        header.ident = sim.world_mut().hosts[host.0].core.next_ident();
        let body = Body::Udp(UdpDatagram::new(src_port, dst.1, payload));
        send_resolved(sim, host, Outgoing { header, body }, decision, flight);
    }
}

/// Sends a raw IP packet (used for ICMP and by module effects). A packet
/// with an unspecified source engages source selection and the mobility
/// hooks; a concrete source is honored as-is.
pub fn ip_send_packet(sim: &mut NetSim, host: HostId, mut packet: Ipv4Packet, opts: SendOptions) {
    let flight = sim.flights_mut().begin_flight(opts.label);
    emit(sim, host, flight, "ip", Event::Sent, SILENT);
    let dst = packet.header.dst;
    let src_sel = if packet.header.src.is_unspecified() {
        opts.src
    } else {
        SourceSel::Addr(packet.header.src)
    };
    // Loopback.
    if sim.world().hosts[host.0].core.is_local_addr(dst) {
        if packet.header.src.is_unspecified() {
            packet.header.src = dst;
        }
        let proc = sim.world().hosts[host.0].core.proc_delay;
        sim.schedule_in(proc, move |sim| {
            ip_input_flight(sim, host, None, packet, 0, flight)
        });
        return;
    }
    let h = &mut sim.world_mut().hosts[host.0];
    let Some(decision) = resolve_route(h, dst, src_sel, opts.iface) else {
        emit(sim, host, flight, "ip", Event::Drop(NoRoute), SILENT);
        return;
    };
    packet.header.src = decision.src;
    send_resolved(sim, host, packet.into(), decision, flight);
}

/// An outgoing packet: its IP header and what follows it.
struct Outgoing {
    header: Ipv4Header,
    body: Body,
}

enum Body {
    /// Transport bytes that already exist (forwarded packets, ICMP, TCP,
    /// module-built packets).
    Raw(Bytes),
    /// A UDP datagram this host originates: serialized straight into the
    /// wire buffer, never assembled anywhere else first.
    Udp(UdpDatagram),
}

impl From<Ipv4Packet> for Outgoing {
    fn from(packet: Ipv4Packet) -> Outgoing {
        Outgoing {
            header: packet.header,
            body: Body::Raw(packet.payload),
        }
    }
}

impl Outgoing {
    /// Appends the body at `buf`'s tail, then prepends the IP header
    /// into the headroom in front of it.
    fn write_into(&self, buf: &mut PacketBuf) {
        let Ipv4Header { src, dst, .. } = self.header;
        match &self.body {
            Body::Raw(bytes) => buf.put_slice(bytes),
            Body::Udp(dgram) => dgram.write_into(src, dst, buf),
        }
        let total = buf.len() + IPV4_HEADER_LEN;
        assert!(total <= u16::MAX as usize, "IPv4 packet too large: {total}");
        self.header
            .write_header(total as u16, buf.prepend(IPV4_HEADER_LEN));
    }

    /// The packet as a value (only an ARP miss needs one, to park).
    fn into_packet(self) -> Ipv4Packet {
        let Ipv4Header { src, dst, .. } = self.header;
        let payload = match self.body {
            Body::Raw(bytes) => bytes,
            Body::Udp(dgram) => dgram.to_bytes(src, dst),
        };
        Ipv4Packet::new(self.header, payload)
    }
}

/// Sends a packet along a resolved decision, encapsulating if requested.
fn send_resolved(
    sim: &mut NetSim,
    host: HostId,
    out: Outgoing,
    decision: RouteDecision,
    flight: u64,
) {
    sim.world_mut().hosts[host.0].core.stats.ip_output.inc();
    if decision.encap.is_some() {
        emit(sim, host, flight, "tunnel", Event::Encap, SILENT);
    }
    transmit_ip(
        sim,
        host,
        decision.iface,
        out,
        decision.encap,
        decision.next_hop,
        flight,
    );
}

/// The single serialization point of the output path — link-layer
/// transmission with broadcast detection, ARP resolution and parking.
/// Once the destination MAC is known, the packet is written exactly once
/// into a pooled buffer with headroom, the optional IP-in-IP outer header
/// and the frame header are prepended in place, and the finished wire
/// bytes go to the device. An ARP miss (cold path) parks the
/// fully-encapsulated packet and defers assembly until resolution.
fn transmit_ip(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    out: Outgoing,
    encap: Option<EncapSpec>,
    next_hop: Ipv4Addr,
    flight: u64,
) {
    // Broadcast detection looks at the *outer* destination when the packet
    // is to be encapsulated.
    let header_dst = encap.map(|e| e.outer_dst).unwrap_or(out.header.dst);
    let h = &mut sim.world_mut().hosts[host.0];
    let ifc = h.core.iface(iface);
    let my_mac = ifc.device.mac();
    let broadcast = next_hop == Ipv4Addr::BROADCAST
        || header_dst == Ipv4Addr::BROADCAST
        || header_dst.is_multicast()
        || ifc.is_subnet_broadcast(next_hop);
    let dst_mac = if broadcast {
        Some(mosquitonet_wire::MacAddr::BROADCAST)
    } else {
        h.core.arp[iface.0].lookup(next_hop)
    };
    let Some(mac) = dst_mac else {
        let packet = out.into_packet();
        let parked = match encap {
            Some(e) => ipip::encapsulate(&packet, e.outer_src, e.outer_dst),
            None => packet,
        };
        let (solicit, evicted) = h.core.arp[iface.0].park(next_hop, parked, flight);
        if let Some(victim) = evicted {
            // The bounded ARP queue silently dropped its oldest occupant;
            // the flight recorder is the only witness (no counter moves
            // here).
            emit(sim, host, victim, "arp", Event::Drop(ArpQueue), SILENT);
        }
        if let Some(generation) = solicit {
            world::arp_solicit(sim, host, iface, next_hop, generation);
        }
        return;
    };
    let headroom = FRAME_HEADER_LEN
        + if encap.is_some() {
            ipip::ENCAP_OVERHEAD
        } else {
            0
        }
        + IPV4_HEADER_LEN;
    let mut buf = PacketBuf::with_headroom(headroom);
    out.write_into(&mut buf);
    if let Some(e) = encap {
        ipip::prepend_outer(&mut buf, out.header.tos, e.outer_src, e.outer_dst);
    }
    Frame::write_header(mac, my_mac, EtherType::Ipv4, buf.prepend(FRAME_HEADER_LEN));
    buf.set_flight(flight);
    world::transmit_wire(sim, host, iface, mac, buf.freeze());
}

/// IP input: local delivery or forwarding.
///
/// `iface` is `None` for loopback-delivered packets; `depth` counts
/// decapsulation nesting. Packets entering here are untracked by the
/// flight recorder; the stack's own paths use the flight-carrying
/// internal variant.
pub fn ip_input(
    sim: &mut NetSim,
    host: HostId,
    iface: Option<IfaceId>,
    packet: Ipv4Packet,
    depth: u32,
) {
    ip_input_flight(sim, host, iface, packet, depth, NO_FLIGHT);
}

/// [`ip_input`] with the packet's flight id threaded through (the id
/// travels in packet-buffer metadata on the wire, and as an explicit
/// parameter between parse and retransmit).
pub(crate) fn ip_input_flight(
    sim: &mut NetSim,
    host: HostId,
    iface: Option<IfaceId>,
    packet: Ipv4Packet,
    depth: u32,
    flight: u64,
) {
    let (local, broadcast, forwarding) = {
        let core = &mut sim.world_mut().hosts[host.0].core;
        core.stats.ip_input.inc();
        (
            core.is_local_addr(packet.header.dst),
            core.is_broadcast_addr(packet.header.dst),
            core.forwarding,
        )
    };
    // Link-local multicast: deliver to members on the arriving interface;
    // silently ignore otherwise. Never forwarded (multicast routing is out
    // of scope — see DESIGN.md).
    if packet.header.dst.is_multicast() {
        let member = sim.world().hosts[host.0]
            .core
            .is_multicast_member(iface, packet.header.dst);
        if member {
            local_deliver(sim, host, iface, packet, depth, flight);
        }
        return;
    }
    if local || broadcast {
        local_deliver(sim, host, iface, packet, depth, flight);
    } else if forwarding {
        forward(sim, host, iface, packet, flight);
    } else {
        let line = Line::new("drop.not_local: {} -> {}")
            .addr(packet.header.src)
            .addr(packet.header.dst);
        emit(sim, host, flight, "ip", Event::Drop(NotLocal), Some(line));
    }
}

/// The forwarding path (routers, home agents, foreign agents).
fn forward(
    sim: &mut NetSim,
    host: HostId,
    in_iface: Option<IfaceId>,
    mut packet: Ipv4Packet,
    flight: u64,
) {
    // TTL.
    if packet.header.ttl <= 1 {
        let line = Line::new("drop.ttl: {} -> {}")
            .addr(packet.header.src)
            .addr(packet.header.dst);
        emit(sim, host, flight, "ip.fwd", Event::Drop(Ttl), Some(line));
        let quote = packet.invoking_quote();
        icmp_error(
            sim,
            host,
            packet.header.src,
            IcmpMessage::TimeExceeded { invoking: quote },
        );
        return;
    }
    packet.header.ttl -= 1;

    // VIF tunnel entries: the home agent's "all packets for the mobile
    // host's home IP address must be encapsulated" routes (§3.1).
    let tunnel = sim.world().hosts[host.0].core.tunnel_to(packet.header.dst);
    if let Some(care_of) = tunnel {
        let (rt, outer_src) = {
            let h = &sim.world().hosts[host.0];
            match h.core.routes.lookup(care_of) {
                Some(rt) => {
                    let src = iface_src(h, rt.iface, care_of);
                    (rt, src)
                }
                None => {
                    emit(sim, host, flight, "tunnel", Event::Drop(NoRoute), SILENT);
                    return;
                }
            }
        };
        sim.world_mut().hosts[host.0].core.stats.forwarded.inc();
        let inner_dst = packet.header.dst;
        let line = Line::new("tunnel {} -> care-of {}")
            .addr(inner_dst)
            .addr(care_of);
        emit(sim, host, flight, "tunnel", Event::Encap, Some(line));
        transmit_ip(
            sim,
            host,
            rt.iface,
            packet.into(),
            Some(EncapSpec {
                outer_src,
                outer_dst: care_of,
            }),
            rt.gateway.unwrap_or(care_of),
            flight,
        );
        return;
    }

    // Plain forwarding.
    let rt = match sim.world().hosts[host.0]
        .core
        .routes
        .lookup(packet.header.dst)
    {
        Some(rt) => rt,
        None => {
            emit(sim, host, flight, "ip.fwd", Event::Drop(NoRoute), SILENT);
            let quote = packet.invoking_quote();
            icmp_error(
                sim,
                host,
                packet.header.src,
                IcmpMessage::DestUnreachable {
                    code: UnreachableCode::Net,
                    invoking: quote,
                },
            );
            return;
        }
    };

    // Transit-traffic filter (§3.2): a security-conscious router drops
    // packets leaving through an upstream interface whose source address is
    // not local to the site.
    {
        let core = &sim.world().hosts[host.0].core;
        if core.transit_filter
            && core.upstream_ifaces.contains(&rt.iface)
            && !core.local_subnets().any(|s| s.contains(packet.header.src))
        {
            let src = packet.header.src;
            let line =
                Line::new("drop.filter.ingress: src {} not local, egress upstream").addr(src);
            let event = Event::Drop(FilterIngress);
            emit(sim, host, flight, "ip.fwd", event, Some(line));
            return;
        }
    }

    // ICMP redirect: forwarding back out the arrival interface tells the
    // on-link sender about the better gateway (§5.2's third transparency
    // problem arises exactly here).
    if let Some(in_if) = in_iface {
        let send_redirect = {
            let core = &sim.world().hosts[host.0].core;
            core.send_redirects
                && in_if == rt.iface
                && core
                    .iface(in_if)
                    .subnet_containing(packet.header.src)
                    .is_some()
        };
        if send_redirect {
            sim.world_mut().hosts[host.0]
                .core
                .stats
                .redirects_sent
                .inc();
            let gw = rt.gateway.unwrap_or(packet.header.dst);
            let quote = packet.invoking_quote();
            icmp_error(
                sim,
                host,
                packet.header.src,
                IcmpMessage::Redirect {
                    gateway: gw,
                    invoking: quote,
                },
            );
        }
    }

    emit(sim, host, flight, "ip.fwd", Event::Forwarded, SILENT);
    let next_hop = rt.gateway.unwrap_or(packet.header.dst);
    transmit_ip(sim, host, rt.iface, packet.into(), None, next_hop, flight);
}

/// Sends an ICMP error/notification from this host to `dst`.
fn icmp_error(sim: &mut NetSim, host: HostId, dst: Ipv4Addr, msg: IcmpMessage) {
    if dst.is_unspecified() || dst == Ipv4Addr::BROADCAST {
        return; // never ICMP a broadcast source
    }
    let packet = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, dst, IpProto::Icmp),
        msg.to_bytes(),
    );
    ip_send_packet(sim, host, packet, SendOptions::default());
}

/// Delivery to local transports. The `Delivered` (or terminal `Dropped`)
/// hop is recorded per transport, after its parse succeeds.
fn local_deliver(
    sim: &mut NetSim,
    host: HostId,
    in_iface: Option<IfaceId>,
    packet: Ipv4Packet,
    depth: u32,
    flight: u64,
) {
    sim.world_mut().hosts[host.0].core.stats.delivered.inc();
    match packet.header.protocol {
        IpProto::Udp => udp_input(sim, host, &packet, flight),
        IpProto::Icmp => icmp_input(sim, host, in_iface, &packet, flight),
        IpProto::Tcp => tcp_input(sim, host, &packet, flight),
        IpProto::IpIp => ipip_input(sim, host, in_iface, packet, depth, flight),
        IpProto::Other(mosquitonet_wire::IGMP_PROTO) => igmp_input(sim, host, &packet, flight),
        IpProto::Other(_) => unclaimed_input(sim, host, &packet, flight),
    }
}

fn igmp_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    // Host-side IGMP subset: reports/queries are traced, not acted on
    // (there is no multicast router to satisfy).
    match IgmpMessage::parse(&packet.payload) {
        Ok(msg) => {
            // As `{msg:?}` prints the message.
            let line = match msg {
                IgmpMessage::MembershipQuery { .. } => "IGMP MembershipQuery { group: {} } from {}",
                IgmpMessage::MembershipReport { .. } => {
                    "IGMP MembershipReport { group: {} } from {}"
                }
                IgmpMessage::LeaveGroup { .. } => "IGMP LeaveGroup { group: {} } from {}",
            };
            let line = Line::new(line).addr(msg.group()).addr(packet.header.src);
            emit(sim, host, flight, "igmp", Event::Delivered, Some(line));
        }
        Err(_) => emit(sim, host, flight, "igmp", Event::Drop(Malformed), SILENT),
    }
}

fn udp_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    let dgram = match UdpDatagram::parse(&packet.payload, packet.header.src, packet.header.dst) {
        Ok(d) => d,
        Err(_) => {
            emit(sim, host, flight, "udp", Event::Drop(Malformed), SILENT);
            return;
        }
    };
    let target = sim.world().hosts[host.0]
        .core
        .udp
        .deliver_to(packet.header.dst, dgram.dst_port);
    match target {
        Some(sock) => {
            let owner = sim.world().hosts[host.0]
                .core
                .udp
                .get(sock)
                .expect("live")
                .owner;
            emit(sim, host, flight, "udp", Event::Delivered, SILENT);
            let src = (packet.header.src, dgram.src_port);
            world::dispatch(sim, host, owner, |m, ctx| {
                m.on_udp(ctx, sock, src, packet.header.dst, &dgram.payload);
            });
        }
        None => {
            emit(sim, host, flight, "udp", Event::Drop(NoSocket), SILENT);
            // Port unreachable — but never for broadcasts or multicasts
            // (RFC 1122: ICMP errors are never sent for non-unicast
            // datagrams).
            if !non_unicast_dst(sim, host, packet.header.dst) {
                let quote = packet.invoking_quote();
                icmp_error(
                    sim,
                    host,
                    packet.header.src,
                    IcmpMessage::DestUnreachable {
                        code: UnreachableCode::Port,
                        invoking: quote,
                    },
                );
            }
        }
    }
}

/// True when `dst` must never be replied or errored to: a multicast group
/// or one of this host's broadcast addresses.
fn non_unicast_dst(sim: &NetSim, host: HostId, dst: Ipv4Addr) -> bool {
    dst.is_multicast() || sim.world().hosts[host.0].core.is_broadcast_addr(dst)
}

fn icmp_input(
    sim: &mut NetSim,
    host: HostId,
    in_iface: Option<IfaceId>,
    packet: &Ipv4Packet,
    flight: u64,
) {
    let msg = match IcmpMessage::parse(&packet.payload) {
        Ok(m) => m,
        Err(_) => {
            emit(sim, host, flight, "icmp", Event::Drop(Malformed), SILENT);
            return;
        }
    };
    emit(sim, host, flight, "icmp", Event::Delivered, SILENT);
    match &msg {
        IcmpMessage::EchoRequest { .. }
            // The mobile host's *local role* (§5.2): answer pings addressed
            // to whichever of our addresses was pinged, sourcing the reply
            // from that same address. Broadcast and multicast echoes are
            // never answered (a reply storm from every group member).
            if !non_unicast_dst(sim, host, packet.header.dst) => {
                let reply = msg.echo_reply_for().expect("echo request");
                let reply_pkt = Ipv4Packet::new(
                    Ipv4Header::new(packet.header.dst, packet.header.src, IpProto::Icmp),
                    reply.to_bytes(),
                );
                ip_send_packet(sim, host, reply_pkt, SendOptions::default());
            }
        IcmpMessage::Redirect { gateway, invoking } => {
            let accept = sim.world().hosts[host.0].core.accept_redirects;
            if accept {
                if let (Ok(original), Some(in_if)) = (Ipv4Packet::parse_header_prefix(invoking), in_iface)
                {
                    let core = &mut sim.world_mut().hosts[host.0].core;
                    core.routes.add(crate::route::RouteEntry {
                        dest: mosquitonet_wire::Cidr::host(original.dst),
                        gateway: Some(*gateway),
                        iface: in_if,
                        metric: 0,
                    });
                    core.stats.redirects_accepted.inc();
                }
            }
        }
        _ => {}
    }
    // All ICMP (including echo replies and unreachables) is visible to
    // modules — reachability probes live there.
    let from = packet.header.src;
    let modules = sim.world().hosts[host.0].module_count();
    for m in 0..modules {
        let msg = msg.clone();
        world::dispatch(sim, host, ModuleId(m), move |module, ctx| {
            module.on_icmp(ctx, from, &msg);
        });
    }
}

fn ipip_input(
    sim: &mut NetSim,
    host: HostId,
    in_iface: Option<IfaceId>,
    packet: Ipv4Packet,
    depth: u32,
    flight: u64,
) {
    let decap_enabled = sim.world().hosts[host.0].core.ipip_decap;
    if !decap_enabled || depth >= MAX_DECAP_DEPTH {
        unclaimed_input(sim, host, &packet, flight);
        return;
    }
    match ipip::decapsulate(&packet) {
        Ok(inner) => {
            let line = Line::new("decapsulated {} -> {} (outer from {})")
                .addr(inner.header.src)
                .addr(inner.header.dst)
                .addr(packet.header.src);
            emit(sim, host, flight, "tunnel", Event::Decap, Some(line));
            // "The packet... will take the reverse of the dotted path" —
            // the inner packet re-enters IP as if freshly received.
            ip_input_flight(sim, host, in_iface, inner, depth + 1, flight);
        }
        Err(_) => {
            emit(sim, host, flight, "tunnel", Event::Drop(Malformed), SILENT);
        }
    }
}

fn unclaimed_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    let modules = sim.world().hosts[host.0].module_count();
    for m in 0..modules {
        let claimed = world::dispatch(sim, host, ModuleId(m), |module, ctx| {
            module.on_ip_unclaimed(ctx, packet)
        });
        if claimed {
            emit(sim, host, flight, "module", Event::Delivered, SILENT);
            return;
        }
    }
    // Nobody wanted it.
    emit(sim, host, flight, "ip", Event::Drop(Unclaimed), SILENT);
}

fn tcp_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    let seg = match TcpSegment::parse(&packet.payload, packet.header.src, packet.header.dst) {
        Ok(s) => s,
        Err(_) => {
            emit(sim, host, flight, "tcp", Event::Drop(Malformed), SILENT);
            return;
        }
    };
    emit(sim, host, flight, "tcp", Event::Delivered, SILENT);
    let local = (packet.header.dst, seg.dst_port);
    let remote = (packet.header.src, seg.src_port);
    let conn = sim.world().hosts[host.0]
        .core
        .tcp
        .lookup(local.0, local.1, remote.0, remote.1);
    if let Some(conn) = conn {
        let out = sim.world_mut().hosts[host.0]
            .core
            .tcp
            .on_segment(conn, &seg);
        apply_tcp_out(sim, host, conn, out);
        return;
    }
    // Passive open?
    if seg.flags.syn && !seg.flags.ack {
        let listener = sim.world().hosts[host.0]
            .core
            .tcp
            .lookup_listener(local.0, local.1);
        if let Some(l) = listener {
            let (conn, out) = sim.world_mut().hosts[host.0]
                .core
                .tcp
                .accept(l, local, remote, &seg);
            apply_tcp_out(sim, host, conn, out);
            return;
        }
    }
    // No connection, no listener: RST (unless this itself is a RST).
    if !seg.flags.rst {
        let rst = TcpTable::rst_for(&seg);
        let bytes = rst.to_bytes(local.0, remote.0);
        let pkt = Ipv4Packet::new(Ipv4Header::new(local.0, remote.0, IpProto::Tcp), bytes);
        ip_send_packet(sim, host, pkt, SendOptions::default());
    }
}

/// Applies a [`TcpOut`]: transmit segments, adjust the RTO timer, deliver
/// events to the owning module.
pub(crate) fn apply_tcp_out(sim: &mut NetSim, host: HostId, conn: ConnId, out: TcpOut) {
    let (local, remote, owner) = {
        let tcb = sim.world().hosts[host.0].core.tcp.get(conn).expect("conn");
        (tcb.local, tcb.remote, tcb.owner)
    };
    for seg in out.send {
        let bytes = seg.to_bytes(local.0, remote.0);
        let pkt = Ipv4Packet::new(Ipv4Header::new(local.0, remote.0, IpProto::Tcp), bytes);
        // The source is the connection's local (home) address; mobility
        // policy hooks see it and may tunnel or triangle-route it.
        ip_send_packet(sim, host, pkt, SendOptions::default());
    }
    world::set_tcp_timer(sim, host, conn, out.timer);
    for event in out.events {
        world::dispatch(sim, host, owner, |m, ctx| {
            m.on_tcp_event(ctx, conn, &event);
        });
    }
}
