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
//!
//! Every packet a host makes, a UDP datagram, an ICMP message, a TCP
//! segment or a module's packet, leaves through one function, `originate`;
//! forwarded packets join its output path at `transmit_ip`.

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes};
use mosquitonet_link::{EtherType, FRAME_HEADER_LEN};
use mosquitonet_sim::NO_FLIGHT;
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
use crate::telemetry::{emit, Event};
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

/// The source a packet carries: the one its sender pinned, else the one
/// [`iface_src`] picks for leaving `iface` toward `dst`.
fn source(host: &Host, src_sel: SourceSel, iface: IfaceId, dst: Ipv4Addr) -> Ipv4Addr {
    match src_sel {
        SourceSel::Addr(a) => a,
        SourceSel::Unspecified => iface_src(host, iface, dst),
    }
}

/// A VIF tunnel toward `care_of` (the home agent's per-mobile-host route,
/// §3.1): the route to the care-of address, encapsulated with that route's
/// interface address as the outer source, which is also the packet's
/// source unless its sender pinned one. `None` when no route reaches it.
fn tunnel_route(host: &Host, care_of: Ipv4Addr) -> Option<RouteDecision> {
    let rt = host.core.routes.lookup(care_of)?;
    let outer_src = iface_src(host, rt.iface, care_of);
    Some(RouteDecision {
        iface: rt.iface,
        src: outer_src,
        next_hop: rt.gateway.unwrap_or(care_of),
        encap: Some(EncapSpec {
            outer_src,
            outer_dst: care_of,
        }),
    })
}

/// The fast-path validity token: a wrapping sum of generation counters
/// over the inputs that may feed any route decision — kernel routes, each
/// interface's addresses and power, each module's `route_generation` (a
/// policy update or re-registration). Any change moves the sum and flushes
/// the decision cache on the next lookup. A tunnel binding feeds its own
/// home's decision only; `host::set_tunnel` forgets that home. A vacant
/// module slot is the module whose callback runs, which never resolves a
/// route.
fn fastpath_token(host: &Host) -> u64 {
    let core = &host.core;
    let mut token = core
        .routes
        .generation()
        .wrapping_add(core.ifaces.len() as u64);
    for ifc in &core.ifaces {
        token = token.wrapping_add(ifc.generation());
    }
    token = token.wrapping_add(host.modules.len() as u64);
    for module in host.modules.iter().flatten() {
        token = token.wrapping_add(module.route_generation());
    }
    token
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
        return Some(RouteDecision {
            iface,
            src: source(host, src_sel, iface, dst),
            next_hop: dst,
            encap: None,
        });
    }

    let token = fastpath_token(host);
    let key = (dst, src_sel, None);
    if let Some(d) = host.fastpath.lookup(token, &key) {
        return Some(d);
    }
    let (decision, on_hit, cacheable) = resolve_route_uncached(host, dst, src_sel);
    // No negative caching: a missing route today may exist after the next
    // module action without any generation moving.
    if let (Some(d), true) = (decision, cacheable) {
        host.fastpath.insert(token, key, d, on_hit);
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
        let Some(mut decision) = tunnel_route(host, care_of) else {
            return (None, None, false);
        };
        if let SourceSel::Addr(a) = src_sel {
            decision.src = a;
        }
        return (Some(decision), None, cacheable);
    }

    // The unmodified kernel routing table.
    let Some(rt) = host.core.routes.lookup(dst) else {
        return (None, None, false);
    };
    (
        Some(RouteDecision {
            iface: rt.iface,
            src: source(host, src_sel, rt.iface, dst),
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
    let Some(s) = sim.world().hosts[host.0].core.udp.get(sock) else {
        return; // closed socket
    };
    let src_port = s.port;
    // A socket bound to a concrete address pins the source (§3.3's
    // "outside the scope of mobile IP" case), unless the caller pinned
    // one explicitly.
    let src = match (opts.src, s.local_addr) {
        (SourceSel::Addr(a), _) | (SourceSel::Unspecified, Some(a)) => a,
        (SourceSel::Unspecified, None) => Ipv4Addr::UNSPECIFIED,
    };
    let header = Ipv4Header::new(src, dst.0, IpProto::Udp);
    let bodies = payloads.map(|payload| Body::Udp(UdpDatagram::new(src_port, dst.1, payload)));
    originate(sim, host, header, bodies, opts);
}

/// Sends a raw IP packet built outside the stack (a module's
/// [`Effect::SendIp`](crate::Effect::SendIp), a harness). A packet with an
/// unspecified source engages source selection and the mobility hooks; a
/// concrete source is honored as-is.
pub fn ip_send_packet(sim: &mut NetSim, host: HostId, packet: Ipv4Packet, opts: SendOptions) {
    originate(sim, host, packet.header, Some(packet.payload), opts);
}

/// The one way a packet leaves the host that made it: one packet per body
/// under `header`, from the header's source if it pins one, else from
/// `opts.src`'s choice, with `opts.ttl` if set. The destination is checked
/// and its route resolved once for all bodies. Each packet gets its own
/// flight and `Sent` hop (point `udp` for a datagram, `ip` otherwise),
/// and a datagram its own IP ident once it is routed or local.
fn originate(
    sim: &mut NetSim,
    host: HostId,
    mut header: Ipv4Header,
    bodies: impl IntoIterator<Item = impl Into<Body>>,
    opts: SendOptions,
) {
    let src_sel = match header.src {
        a if a.is_unspecified() => opts.src,
        a => SourceSel::Addr(a),
    };
    if let Some(ttl) = opts.ttl {
        header.ttl = ttl;
    }
    let h = &mut sim.world_mut().hosts[host.0];
    let local = h.core.is_local_addr(header.dst);
    let decision = (!local)
        .then(|| resolve_route(h, header.dst, src_sel, opts.iface))
        .flatten();
    // A local destination is its own source unless the sender pinned one.
    header.src = match (decision, src_sel) {
        (Some(d), _) => d.src,
        (None, SourceSel::Addr(a)) => a,
        (None, SourceSel::Unspecified) => header.dst,
    };
    for body in bodies {
        let mut out = Outgoing {
            header,
            body: body.into(),
        };
        let udp = matches!(out.body, Body::Udp(_));
        let point = if udp { "udp" } else { "ip" };
        let flight = sim.flights_mut().begin_flight(opts.label);
        emit(sim, host, flight, point, Event::Sent);
        if !local && decision.is_none() {
            emit(sim, host, flight, point, Event::Drop(NoRoute));
            continue;
        }
        if udp {
            out.header.ident = sim.world_mut().hosts[host.0].core.next_ident();
        }
        let Some(decision) = decision else {
            // Local: no wire, one input event after the processing delay.
            let payload = match out.body {
                Body::Raw(bytes) => bytes,
                Body::Udp(dgram) => dgram.to_bytes(header.src, header.dst),
            };
            let packet = Ipv4Packet::new(out.header, payload);
            let proc = sim.world().hosts[host.0].core.proc_delay;
            sim.schedule_in(proc, move |sim| {
                ip_input_flight(sim, host, None, packet, 0, flight)
            });
            continue;
        };
        send_resolved(sim, host, out, decision, flight);
    }
}

/// An outgoing packet: its IP header and what follows it.
struct Outgoing {
    header: Ipv4Header,
    body: Body,
}

enum Body {
    /// Transport bytes that already exist (forwarded packets, ICMP, TCP,
    /// module-built packets): serialized before they reach IP, then copied
    /// once into the wire buffer.
    Raw(Bytes),
    /// A UDP datagram this host originates: serialized straight into the
    /// wire buffer, never assembled anywhere else first.
    Udp(UdpDatagram),
}

impl From<Bytes> for Body {
    fn from(bytes: Bytes) -> Body {
        Body::Raw(bytes)
    }
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
        emit(sim, host, flight, "tunnel", Event::Encap);
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
/// The packet is written exactly once into a pooled buffer with headroom
/// and the optional IP-in-IP outer header is prepended in place; the
/// buffer then either gets its frame header and goes to the device, or,
/// on an ARP miss (cold path), is parked as it is until resolution.
fn transmit_ip(
    sim: &mut NetSim,
    host: HostId,
    iface: IfaceId,
    out: Outgoing,
    encap: Option<EncapSpec>,
    next_hop: Ipv4Addr,
    flight: u64,
) {
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
    buf.set_flight(flight);
    // Broadcast detection looks at the *outer* destination when the packet
    // is encapsulated.
    let header_dst = encap.map(|e| e.outer_dst).unwrap_or(out.header.dst);
    let h = &mut sim.world_mut().hosts[host.0];
    let ifc = h.core.iface(iface);
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
        let (solicit, evicted) = h.core.arp[iface.0].park(next_hop, buf);
        if let Some(victim) = evicted {
            // The bounded ARP queue silently dropped its oldest occupant;
            // the flight recorder is the only witness (no counter moves
            // here).
            emit(sim, host, victim.flight(), "arp", Event::Drop(ArpQueue));
        }
        if let Some(generation) = solicit {
            world::arp_solicit(sim, host, iface, next_hop, generation);
        }
        return;
    };
    world::frame_and_transmit(sim, host, iface, mac, EtherType::Ipv4, buf);
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
        emit(sim, host, flight, "ip", Event::Drop(NotLocal));
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
        emit(sim, host, flight, "ip.fwd", Event::Drop(Ttl));
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
        let Some(route) = tunnel_route(&sim.world().hosts[host.0], care_of) else {
            emit(sim, host, flight, "tunnel", Event::Drop(NoRoute));
            return;
        };
        sim.world_mut().hosts[host.0].core.stats.forwarded.inc();
        emit(sim, host, flight, "tunnel", Event::Encap);
        let (iface, encap, next_hop) = (route.iface, route.encap, route.next_hop);
        transmit_ip(sim, host, iface, packet.into(), encap, next_hop, flight);
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
            emit(sim, host, flight, "ip.fwd", Event::Drop(NoRoute));
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
            emit(sim, host, flight, "ip.fwd", Event::Drop(FilterIngress));
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

    emit(sim, host, flight, "ip.fwd", Event::Forwarded);
    let next_hop = rt.gateway.unwrap_or(packet.header.dst);
    transmit_ip(sim, host, rt.iface, packet.into(), None, next_hop, flight);
}

/// Sends an ICMP error/notification from this host to `dst`.
fn icmp_error(sim: &mut NetSim, host: HostId, dst: Ipv4Addr, msg: IcmpMessage) {
    if dst.is_unspecified() || dst == Ipv4Addr::BROADCAST {
        return; // never ICMP a broadcast source
    }
    let header = Ipv4Header::new(Ipv4Addr::UNSPECIFIED, dst, IpProto::Icmp);
    let bytes = msg.to_bytes();
    originate(sim, host, header, Some(bytes), SendOptions::default());
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
    // Host-side IGMP subset: reports/queries are delivered, not acted on
    // (there is no multicast router to satisfy).
    let event = match IgmpMessage::parse(&packet.payload) {
        Ok(_) => Event::Delivered,
        Err(_) => Event::Drop(Malformed),
    };
    emit(sim, host, flight, "igmp", event);
}

fn udp_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    let dgram = match UdpDatagram::parse(&packet.payload, packet.header.src, packet.header.dst) {
        Ok(d) => d,
        Err(_) => {
            emit(sim, host, flight, "udp", Event::Drop(Malformed));
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
            emit(sim, host, flight, "udp", Event::Delivered);
            let src = (packet.header.src, dgram.src_port);
            world::dispatch(sim, host, owner, |m, ctx| {
                m.on_udp(ctx, sock, src, packet.header.dst, &dgram.payload);
            });
        }
        None => {
            emit(sim, host, flight, "udp", Event::Drop(NoSocket));
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
            emit(sim, host, flight, "icmp", Event::Drop(Malformed));
            return;
        }
    };
    emit(sim, host, flight, "icmp", Event::Delivered);
    match &msg {
        IcmpMessage::EchoRequest { .. }
            // The mobile host's *local role* (§5.2): answer pings addressed
            // to whichever of our addresses was pinged, sourcing the reply
            // from that same address. Broadcast and multicast echoes are
            // never answered (a reply storm from every group member).
            if !non_unicast_dst(sim, host, packet.header.dst) => {
                let reply = msg.echo_reply_for().expect("echo request");
                let header = Ipv4Header::new(packet.header.dst, packet.header.src, IpProto::Icmp);
                originate(sim, host, header, Some(reply.to_bytes()), SendOptions::default());
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
            emit(sim, host, flight, "tunnel", Event::Decap);
            // "The packet... will take the reverse of the dotted path" —
            // the inner packet re-enters IP as if freshly received.
            ip_input_flight(sim, host, in_iface, inner, depth + 1, flight);
        }
        Err(_) => {
            emit(sim, host, flight, "tunnel", Event::Drop(Malformed));
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
            emit(sim, host, flight, "module", Event::Delivered);
            return;
        }
    }
    // Nobody wanted it.
    emit(sim, host, flight, "ip", Event::Drop(Unclaimed));
}

fn tcp_input(sim: &mut NetSim, host: HostId, packet: &Ipv4Packet, flight: u64) {
    let seg = match TcpSegment::parse(&packet.payload, packet.header.src, packet.header.dst) {
        Ok(s) => s,
        Err(_) => {
            emit(sim, host, flight, "tcp", Event::Drop(Malformed));
            return;
        }
    };
    emit(sim, host, flight, "tcp", Event::Delivered);
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
        let bytes = TcpTable::rst_for(&seg).to_bytes(local.0, remote.0);
        let header = Ipv4Header::new(local.0, remote.0, IpProto::Tcp);
        originate(sim, host, header, Some(bytes), SendOptions::default());
    }
}

/// Applies a [`TcpOut`]: transmit segments, adjust the RTO timer, deliver
/// events to the owning module.
pub(crate) fn apply_tcp_out(sim: &mut NetSim, host: HostId, conn: ConnId, out: TcpOut) {
    let (local, remote, owner) = {
        let tcb = sim.world().hosts[host.0].core.tcp.get(conn).expect("conn");
        (tcb.local, tcb.remote, tcb.owner)
    };
    // The source is the connection's local (home) address; mobility
    // policy hooks see it and may tunnel or triangle-route it.
    let header = Ipv4Header::new(local.0, remote.0, IpProto::Tcp);
    for seg in out.send {
        let bytes = seg.to_bytes(local.0, remote.0);
        originate(sim, host, header, Some(bytes), SendOptions::default());
    }
    world::set_tcp_timer(sim, host, conn, out.timer);
    for event in out.events {
        world::dispatch(sim, host, owner, |m, ctx| {
            m.on_tcp_event(ctx, conn, &event);
        });
    }
}
