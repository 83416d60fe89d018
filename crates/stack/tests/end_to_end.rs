//! End-to-end tests of the stack: ARP-resolved UDP across a LAN, routed
//! forwarding, ICMP (ping, port unreachable, redirects), VIF tunnel
//! entries, the transit-traffic filter, a TCP session over a router, the
//! UDP local-destination shortcut, packets parked on an ARP miss, and the
//! wire bytes of the raw sends (TCP segments, a RST, a ping and its reply)
//! held to hex fixtures.

use std::any::Any;
use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_link::{presets, EtherType, FaultPlan, FaultRates, Frame};
use mosquitonet_sim::{HopAction, Json, ShardEnvelope, ShardWorld, Sim, SimDuration, Snapshot};
use mosquitonet_stack::{
    self as stack, ConnId, EncapSpec, HostCore, HostId, IfaceId, Module, ModuleCtx, NetSim,
    Network, RouteAnswer, RouteDecision, RouteEntry, SocketId, SourceSel, TcpEvent, WireEnvelope,
};
use mosquitonet_wire::{
    ArpPacket, Cidr, IcmpMessage, IpProto, Ipv4Header, Ipv4Packet, MacAddr, PacketBytes,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

fn cidr(s: &str) -> Cidr {
    s.parse().unwrap()
}

/// A UDP echo server on port 7.
struct EchoServer {
    sock: Option<SocketId>,
    echoed: u64,
}

impl EchoServer {
    fn new() -> Self {
        EchoServer {
            sock: None,
            echoed: 0,
        }
    }
}

impl Module for EchoServer {
    fn name(&self) -> &'static str {
        "echo-server"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 7);
        assert!(self.sock.is_some());
    }
    fn on_udp(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        sock: SocketId,
        src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.echoed += 1;
        ctx.fx.send_udp(sock, src, payload.clone());
    }
}

/// A UDP client that sends `count` datagrams at an interval and counts
/// echo replies.
struct EchoClient {
    dst: (Ipv4Addr, u16),
    interval: SimDuration,
    count: u64,
    sent: u64,
    received: u64,
    sock: Option<SocketId>,
}

impl EchoClient {
    fn new(dst: (Ipv4Addr, u16), interval: SimDuration, count: u64) -> Self {
        EchoClient {
            dst,
            interval,
            count,
            sent: 0,
            received: 0,
            sock: None,
        }
    }
}

impl Module for EchoClient {
    fn name(&self) -> &'static str {
        "echo-client"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 0);
        ctx.fx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _token: u64) {
        if self.sent < self.count {
            self.sent += 1;
            let msg = format!("seq {}", self.sent);
            ctx.fx
                .send_udp(self.sock.unwrap(), self.dst, Bytes::from(msg));
            ctx.fx.set_timer(self.interval, 0);
        }
    }
    fn on_udp(
        &mut self,
        _ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        _payload: &Bytes,
    ) {
        self.received += 1;
    }
}

/// Collects ICMP messages for assertions.
struct IcmpProbe {
    replies: Vec<(Ipv4Addr, IcmpMessage)>,
}

impl Module for IcmpProbe {
    fn name(&self) -> &'static str {
        "icmp-probe"
    }
    fn on_icmp(&mut self, _ctx: &mut ModuleCtx<'_>, from: Ipv4Addr, msg: &IcmpMessage) {
        self.replies.push((from, msg.clone()));
    }
}

/// Builds: hostA (10.0.1.2) — lanA — router (10.0.1.1 / 10.0.2.1) — lanB —
/// hostB (10.0.2.2), with default routes through the router.
struct TwoNets {
    sim: NetSim,
    a: HostId,
    b: HostId,
    router: HostId,
    a_if: IfaceId,
    b_if: IfaceId,
    #[allow(dead_code)] // kept for symmetric topology access in future tests
    r_ifa: IfaceId,
    r_ifb: IfaceId,
}

fn two_nets() -> TwoNets {
    let mut net = Network::new();
    let a = net.add_host("hostA");
    let b = net.add_host("hostB");
    let router = net.add_host("router");
    let lan_a = net.add_lan(presets::ethernet_lan("lanA"));
    let lan_b = net.add_lan(presets::ethernet_lan("lanB"));

    let a_if = net
        .host_mut(a)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(1)));
    let b_if = net
        .host_mut(b)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(2)));
    let r_ifa = net
        .host_mut(router)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(3)));
    let r_ifb = net
        .host_mut(router)
        .core
        .add_iface(presets::wired_ethernet("eth1", MacAddr::from_index(4)));

    net.host_mut(a)
        .core
        .iface_mut(a_if)
        .add_addr(ip("10.0.1.2"), cidr("10.0.1.0/24"));
    net.host_mut(b)
        .core
        .iface_mut(b_if)
        .add_addr(ip("10.0.2.2"), cidr("10.0.2.0/24"));
    net.host_mut(router)
        .core
        .iface_mut(r_ifa)
        .add_addr(ip("10.0.1.1"), cidr("10.0.1.0/24"));
    net.host_mut(router)
        .core
        .iface_mut(r_ifb)
        .add_addr(ip("10.0.2.1"), cidr("10.0.2.0/24"));
    net.host_mut(router).core.forwarding = true;

    net.host_mut(a).core.routes.add(RouteEntry {
        dest: cidr("10.0.1.0/24"),
        gateway: None,
        iface: a_if,
        metric: 0,
    });
    net.host_mut(a).core.routes.add(RouteEntry {
        dest: cidr("0.0.0.0/0"),
        gateway: Some(ip("10.0.1.1")),
        iface: a_if,
        metric: 0,
    });
    net.host_mut(b).core.routes.add(RouteEntry {
        dest: cidr("10.0.2.0/24"),
        gateway: None,
        iface: b_if,
        metric: 0,
    });
    net.host_mut(b).core.routes.add(RouteEntry {
        dest: cidr("0.0.0.0/0"),
        gateway: Some(ip("10.0.2.1")),
        iface: b_if,
        metric: 0,
    });
    net.host_mut(router).core.routes.add(RouteEntry {
        dest: cidr("10.0.1.0/24"),
        gateway: None,
        iface: r_ifa,
        metric: 0,
    });
    net.host_mut(router).core.routes.add(RouteEntry {
        dest: cidr("10.0.2.0/24"),
        gateway: None,
        iface: r_ifb,
        metric: 0,
    });

    net.attach(a, a_if, lan_a);
    net.attach(router, r_ifa, lan_a);
    net.attach(router, r_ifb, lan_b);
    net.attach(b, b_if, lan_b);

    let mut sim = Sim::new(net);
    for (h, i) in [(a, a_if), (b, b_if), (router, r_ifa), (router, r_ifb)] {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    TwoNets {
        sim,
        a,
        b,
        router,
        a_if,
        b_if,
        r_ifa,
        r_ifb,
    }
}

#[test]
fn udp_echo_across_router_with_arp() {
    let mut t = two_nets();
    t.sim
        .world_mut()
        .host_mut(t.b)
        .add_module(Box::new(EchoServer::new()));
    let client_mid = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .add_module(Box::new(EchoClient::new(
            (ip("10.0.2.2"), 7),
            SimDuration::from_millis(10),
            20,
        )));
    stack::start(&mut t.sim);
    t.sim.run_for(SimDuration::from_secs(5));
    let client: &mut EchoClient = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .module_mut(client_mid)
        .unwrap();
    assert_eq!(client.sent, 20);
    assert_eq!(client.received, 20, "every datagram echoed back");
    // ARP caches were populated along the way.
    assert!(t.sim.world().host(t.a).core.arp[t.a_if.0]
        .lookup(ip("10.0.1.1"))
        .is_some());
    assert!(t.sim.world().host(t.router).core.arp[t.r_ifb.0]
        .lookup(ip("10.0.2.2"))
        .is_some());
    assert!(t.sim.world().host(t.router).core.stats.forwarded.get() >= 40);
}

#[test]
fn ping_round_trip_reports_to_module() {
    let mut t = two_nets();
    let probe_mid = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .add_module(Box::new(IcmpProbe { replies: vec![] }));
    stack::start(&mut t.sim);
    let req = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 9,
            seq: 1,
            payload: Bytes::from_static(b"hi"),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, req, Default::default());
    t.sim.run_for(SimDuration::from_secs(2));
    let probe: &mut IcmpProbe = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .module_mut(probe_mid)
        .unwrap();
    assert_eq!(probe.replies.len(), 1);
    let (from, msg) = &probe.replies[0];
    assert_eq!(
        *from,
        ip("10.0.2.2"),
        "reply sourced from the pinged address"
    );
    assert!(matches!(
        msg,
        IcmpMessage::EchoReply {
            ident: 9,
            seq: 1,
            ..
        }
    ));
}

#[test]
fn udp_to_closed_port_yields_port_unreachable() {
    let mut t = two_nets();
    let probe_mid = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .add_module(Box::new(IcmpProbe { replies: vec![] }));
    stack::start(&mut t.sim);
    // Bind an ephemeral socket on A and fire at a port nobody owns on B.
    let sock = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .core
        .udp
        .bind(stack::ModuleId(0), None, 0)
        .unwrap();
    stack::udp_send(
        &mut t.sim,
        t.a,
        sock,
        (ip("10.0.2.2"), 4242),
        [Bytes::from_static(b"?")],
        Default::default(),
    );
    t.sim.run_for(SimDuration::from_secs(2));
    let probe: &mut IcmpProbe = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .module_mut(probe_mid)
        .unwrap();
    assert!(probe.replies.iter().any(|(from, m)| {
        *from == ip("10.0.2.2")
            && matches!(
                m,
                IcmpMessage::DestUnreachable {
                    code: mosquitonet_wire::UnreachableCode::Port,
                    ..
                }
            )
    }));
}

#[test]
fn vif_tunnel_entry_encapsulates_forwarded_traffic() {
    // Put a tunnel entry on the router: traffic for a phantom address
    // 10.0.9.9 is IPIP-encapsulated toward hostB, which decapsulates.
    let mut t = two_nets();
    t.sim
        .world_mut()
        .host_mut(t.router)
        .set_tunnel(ip("10.0.9.9"), Some(ip("10.0.2.2")));
    t.sim.world_mut().host_mut(t.b).core.ipip_decap = true;
    // B also owns the phantom address on a VIF so the inner packet is local.
    let vif = t
        .sim
        .world_mut()
        .host_mut(t.b)
        .core
        .add_vif(presets::loopback("vif0"));
    t.sim
        .world_mut()
        .host_mut(t.b)
        .core
        .iface_mut(vif)
        .add_addr(ip("10.0.9.9"), cidr("10.0.9.9/32"));
    t.sim
        .world_mut()
        .host_mut(t.b)
        .add_module(Box::new(EchoServer::new()));
    let client_mid = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .add_module(Box::new(EchoClient::new(
            (ip("10.0.9.9"), 7),
            SimDuration::from_millis(50),
            3,
        )));
    stack::start(&mut t.sim);
    t.sim.run_for(SimDuration::from_secs(5));
    let client: &mut EchoClient = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .module_mut(client_mid)
        .unwrap();
    assert_eq!(client.received, 3, "tunneled datagrams echoed");
    assert_eq!(
        t.sim.world().host(t.router).core.stats.encapsulated.get(),
        3
    );
    assert_eq!(t.sim.world().host(t.b).core.stats.decapsulated.get(), 3);
}

#[test]
fn transit_filter_drops_foreign_sources_on_upstream() {
    let mut t = two_nets();
    // Router filters: lanA side is "the site", r_ifb is upstream.
    {
        let core = &mut t.sim.world_mut().host_mut(t.router).core;
        core.transit_filter = true;
        core.upstream_ifaces = vec![t.r_ifb];
    }
    t.sim
        .world_mut()
        .host_mut(t.b)
        .add_module(Box::new(EchoServer::new()));
    stack::start(&mut t.sim);
    // A packet from hostA with a *spoofed* non-local source (a triangle
    // route in disguise) must be dropped at the router.
    let spoofed = Ipv4Packet::new(
        Ipv4Header::new(ip("192.168.77.5"), ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 1,
            seq: 1,
            payload: Bytes::new(),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, spoofed, Default::default());
    // A legitimately-sourced packet passes.
    let legit = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 2,
            seq: 1,
            payload: Bytes::new(),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, legit, Default::default());
    t.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        t.sim.world().host(t.router).core.stats.dropped_filter.get(),
        1
    );
    // Only the legit ping reached B.
    assert_eq!(t.sim.world().host(t.b).core.stats.delivered.get(), 1);
}

#[test]
fn icmp_redirect_installs_host_route() {
    // hostA and a second router R2 share lanA; R2 owns the shorter path to
    // 10.0.3.0/24. A's default goes to the main router, which redirects.
    let mut net = Network::new();
    let a = net.add_host("hostA");
    let r1 = net.add_host("r1");
    let r2 = net.add_host("r2");
    let lan_a = net.add_lan(presets::ethernet_lan("lanA"));
    let lan_c = net.add_lan(presets::ethernet_lan("lanC"));
    let a_if = net
        .host_mut(a)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(1)));
    let r1_if = net
        .host_mut(r1)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(2)));
    let r2_ifa = net
        .host_mut(r2)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(3)));
    let r2_ifc = net
        .host_mut(r2)
        .core
        .add_iface(presets::wired_ethernet("eth1", MacAddr::from_index(4)));
    net.host_mut(a)
        .core
        .iface_mut(a_if)
        .add_addr(ip("10.0.1.2"), cidr("10.0.1.0/24"));
    net.host_mut(r1)
        .core
        .iface_mut(r1_if)
        .add_addr(ip("10.0.1.1"), cidr("10.0.1.0/24"));
    net.host_mut(r2)
        .core
        .iface_mut(r2_ifa)
        .add_addr(ip("10.0.1.3"), cidr("10.0.1.0/24"));
    net.host_mut(r2)
        .core
        .iface_mut(r2_ifc)
        .add_addr(ip("10.0.3.1"), cidr("10.0.3.0/24"));
    for r in [r1, r2] {
        net.host_mut(r).core.forwarding = true;
    }
    net.host_mut(r1).core.send_redirects = true;
    net.host_mut(a).core.routes.add(RouteEntry {
        dest: cidr("10.0.1.0/24"),
        gateway: None,
        iface: a_if,
        metric: 0,
    });
    net.host_mut(a).core.routes.add(RouteEntry {
        dest: cidr("0.0.0.0/0"),
        gateway: Some(ip("10.0.1.1")),
        iface: a_if,
        metric: 0,
    });
    net.host_mut(r1).core.routes.add(RouteEntry {
        dest: cidr("10.0.1.0/24"),
        gateway: None,
        iface: r1_if,
        metric: 0,
    });
    net.host_mut(r1).core.routes.add(RouteEntry {
        dest: cidr("10.0.3.0/24"),
        gateway: Some(ip("10.0.1.3")),
        iface: r1_if,
        metric: 0,
    });
    net.host_mut(r2).core.routes.add(RouteEntry {
        dest: cidr("10.0.1.0/24"),
        gateway: None,
        iface: r2_ifa,
        metric: 0,
    });
    net.host_mut(r2).core.routes.add(RouteEntry {
        dest: cidr("10.0.3.0/24"),
        gateway: None,
        iface: r2_ifc,
        metric: 0,
    });
    // A destination host on lanC.
    let d = net.add_host("dest");
    let d_if = net
        .host_mut(d)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(5)));
    net.host_mut(d)
        .core
        .iface_mut(d_if)
        .add_addr(ip("10.0.3.9"), cidr("10.0.3.0/24"));
    net.host_mut(d).core.routes.add(RouteEntry {
        dest: cidr("10.0.3.0/24"),
        gateway: None,
        iface: d_if,
        metric: 0,
    });
    net.host_mut(d).core.routes.add(RouteEntry {
        dest: cidr("0.0.0.0/0"),
        gateway: Some(ip("10.0.3.1")),
        iface: d_if,
        metric: 0,
    });
    net.attach(a, a_if, lan_a);
    net.attach(r1, r1_if, lan_a);
    net.attach(r2, r2_ifa, lan_a);
    net.attach(r2, r2_ifc, lan_c);
    net.attach(d, d_if, lan_c);
    let mut sim = Sim::new(net);
    for (h, i) in [
        (a, a_if),
        (r1, r1_if),
        (r2, r2_ifa),
        (r2, r2_ifc),
        (d, d_if),
    ] {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    stack::start(&mut sim);
    // Ping the far host twice: first via r1 (generating a redirect),
    // after which A has a /32 route via r2.
    for seq in [1u16, 2] {
        let req = Ipv4Packet::new(
            Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.3.9"), IpProto::Icmp),
            IcmpMessage::EchoRequest {
                ident: 5,
                seq,
                payload: Bytes::new(),
            }
            .to_bytes(),
        );
        stack::ip_send_packet(&mut sim, a, req, Default::default());
        sim.run_for(SimDuration::from_secs(3));
    }
    assert_eq!(sim.world().host(r1).core.stats.redirects_sent.get(), 1);
    assert_eq!(sim.world().host(a).core.stats.redirects_accepted.get(), 1);
    let rt = sim
        .world()
        .host(a)
        .core
        .routes
        .lookup(ip("10.0.3.9"))
        .unwrap();
    assert_eq!(
        rt.gateway,
        Some(ip("10.0.1.3")),
        "host route now points at r2"
    );
    // The second ping went straight through r2 (r1 forwarded only once).
    assert_eq!(sim.world().host(r1).core.stats.forwarded.get(), 1);
}

/// TCP client/server pair used by the session tests.
struct TcpServerApp {
    received: Vec<u8>,
    peer_closed: bool,
}

impl Module for TcpServerApp {
    fn name(&self) -> &'static str {
        "tcp-server"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.tcp_listen(None, 513);
    }
    fn on_tcp_event(&mut self, ctx: &mut ModuleCtx<'_>, conn: ConnId, event: &TcpEvent) {
        match event {
            TcpEvent::Data(d) => {
                self.received.extend_from_slice(d);
                // Echo it back, remote-login style.
                ctx.tcp_send(conn, d);
            }
            TcpEvent::PeerClosed => {
                self.peer_closed = true;
                ctx.tcp_close(conn);
            }
            _ => {}
        }
    }
}

struct TcpClientApp {
    server: Ipv4Addr,
    local: Ipv4Addr,
    to_send: Vec<u8>,
    echoed: Vec<u8>,
    conn: Option<ConnId>,
    closed: bool,
}

impl Module for TcpClientApp {
    fn name(&self) -> &'static str {
        "tcp-client"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let conn = ctx.tcp_connect((self.local, 1023), (self.server, 513));
        self.conn = Some(conn);
    }
    fn on_tcp_event(&mut self, ctx: &mut ModuleCtx<'_>, conn: ConnId, event: &TcpEvent) {
        match event {
            TcpEvent::Connected => {
                ctx.tcp_send(conn, &self.to_send);
            }
            TcpEvent::Data(d) => {
                self.echoed.extend_from_slice(d);
                if self.echoed.len() >= self.to_send.len() {
                    ctx.tcp_close(conn);
                }
            }
            TcpEvent::Closed => self.closed = true,
            _ => {}
        }
    }
}

/// The 3000 bytes [`TcpClientApp`] sends in [`tcp_session`].
fn tcp_payload() -> Vec<u8> {
    (0..3000u32).map(|i| (i % 251) as u8).collect()
}

/// A TCP session across the router, run for 30 s with the flight recorder
/// on and the router capturing: [`TcpClientApp`] on hostA sends
/// [`tcp_payload`] to port 513 on hostB, where [`TcpServerApp`] listens
/// unless `listen` is false (then the SYN meets a closed port). Returns
/// the world and the client's module id.
fn tcp_session(listen: bool) -> (TwoNets, stack::ModuleId) {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    let net = t.sim.world_mut();
    net.host_mut(t.router).core.capture = true;
    if listen {
        net.host_mut(t.b).add_module(Box::new(TcpServerApp {
            received: vec![],
            peer_closed: false,
        }));
    }
    let client_mid = net.host_mut(t.a).add_module(Box::new(TcpClientApp {
        server: ip("10.0.2.2"),
        local: ip("10.0.1.2"),
        to_send: tcp_payload(),
        echoed: vec![],
        conn: None,
        closed: false,
    }));
    stack::start(&mut t.sim);
    t.sim.run_for(SimDuration::from_secs(30));
    (t, client_mid)
}

#[test]
fn tcp_session_echoes_across_router_and_closes() {
    let (mut t, client_mid) = tcp_session(true);
    let client: &mut TcpClientApp = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .module_mut(client_mid)
        .unwrap();
    assert_eq!(client.echoed, tcp_payload(), "full stream echoed in order");
    assert!(client.closed, "graceful teardown completed");
}

#[test]
fn effects_trace_lands_in_sim_trace() {
    struct Tracer;
    impl Module for Tracer {
        fn name(&self) -> &'static str {
            "tracer"
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.fx.trace("registration accepted coa=10.0.2.2");
        }
    }
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    t.sim.world_mut().host_mut(t.a).add_module(Box::new(Tracer));
    stack::start(&mut t.sim);
    let notes = stack::render_notes(&t.sim);
    assert!(notes.contains("Mobility [hostA] registration accepted coa=10.0.2.2"));
}

/// `two_nets` started with a [`Recorder`] on hostB, the A → router → B
/// path ARP-warm (one ping, while everything is up) and a socket on hostA
/// to send from.
fn warm_two_nets() -> (TwoNets, SocketId) {
    let mut t = two_nets();
    let recorder = Box::new(Recorder::default());
    t.sim.world_mut().host_mut(t.b).add_module(recorder);
    stack::start(&mut t.sim);
    let warm = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 3,
            seq: 1,
            payload: Bytes::new(),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, warm, Default::default());
    t.sim.run_for(SimDuration::from_secs(2));
    let core = &mut t.sim.world_mut().host_mut(t.a).core;
    let sock = core.udp.bind(stack::ModuleId(0), None, 0).unwrap();
    (t, sock)
}

/// One datagram from hostA to port 9 on hostB.
fn send_to_b(t: &mut TwoNets, sock: SocketId) {
    let dst = (ip("10.0.2.2"), 9);
    let payload = [Bytes::from_static(b"x")];
    stack::udp_send(&mut t.sim, t.a, sock, dst, payload, Default::default());
}

fn b_down(t: &mut TwoNets) {
    let core = &mut t.sim.world_mut().host_mut(t.b).core;
    core.iface_mut(t.b_if).device.bring_down();
}

fn b_leaves(t: &mut TwoNets) {
    t.sim.world_mut().move_iface(t.b, t.b_if, None);
}

fn b_rx_dropped_down(t: &TwoNets) -> u64 {
    let device = &t.sim.world().host(t.b).core.ifaces[t.b_if.0].device;
    device.counters.rx_dropped_down.get()
}

#[test]
fn frames_to_downed_device_are_lost() {
    // Bring B's interface down and fire UDP at it: the router forwards,
    // the frame dies at the downed device — the paper's loss window.
    let (mut t, sock) = warm_two_nets();
    let rx_before = b_rx_dropped_down(&t);
    b_down(&mut t);
    send_to_b(&mut t, sock);
    t.sim.run_for(SimDuration::from_secs(2));
    let lost = b_rx_dropped_down(&t) - rx_before;
    assert_eq!(lost, 1, "frame lost at downed interface");
}

#[test]
fn an_interface_lost_inside_the_receive_delay_loses_the_frame() {
    // A frame belongs to a host once its stack takes it. Here the frame is
    // on B's wire within 3 ms, interface up and attached; B's stack would
    // take it 50 ms later; the interface goes at 25 ms.
    let b_down: fn(&mut TwoNets) = b_down;
    let lose = [
        (b_down, "drop.iface_down", 1),
        (b_leaves, "drop.left_lan", 0),
    ];
    for (lose, code, rx_down) in lose {
        let (mut t, sock) = warm_two_nets();
        t.sim.flights_mut().set_enabled(true);
        t.sim.world_mut().host_mut(t.b).core.proc_delay = SimDuration::from_millis(50);
        let before = t.sim.metrics().snapshot();
        send_to_b(&mut t, sock);
        t.sim.run_for(SimDuration::from_millis(25));
        lose(&mut t);
        t.sim.run_for(SimDuration::from_secs(1));
        let after = t.sim.metrics().snapshot();
        let moved = |name| after.counter(name) - before.counter(name);
        assert_eq!(moved("router/ip/forwarded"), 1, "{code}: reached B's wire");
        let hops = t.sim.flights().hops_in_order();
        let dropped = hops.iter().filter(|h| h.action == HopAction::Dropped(code));
        assert_eq!(dropped.count(), 1, "{code}");
        assert_eq!(moved("hostB/if0.eth0/drop.rx_down"), rx_down, "{code}");
        assert_eq!(moved("hostB/ip/input"), 0, "{code}: IP never saw it");
    }
}

#[test]
fn a_duplicate_and_a_cross_shard_copy_cost_one_event_per_recipient() {
    // Fault plan on lanB duplicating every delivery: A → router is one
    // receive event, router → B is one for the frame and one for its copy.
    let (mut t, sock) = warm_two_nets();
    let rates = FaultRates {
        duplicate: 1.0,
        ..FaultRates::default()
    };
    t.sim.world_mut().lans[1].set_fault_plan(Some(FaultPlan::new(rates, 1)));
    let b_input = |t: &TwoNets| t.sim.world().host(t.b).core.stats.ip_input.get();
    let (events, input) = (t.sim.events_executed(), b_input(&t));
    send_to_b(&mut t, sock);
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(b_input(&t) - input, 2, "B's IP took both copies");
    assert_eq!(t.sim.events_executed() - events, 3);

    // An envelope injected from a peer shard: one event for its recipient.
    let mut net = Network::new();
    net.enable_sharding(1, 2);
    let h = net.add_host("b");
    let lan = net.add_lan(presets::backbone_trunk("bb", presets::TRUNK_ONE_WAY));
    let eth = presets::wired_ethernet("eth0", MacAddr::from_index(2));
    let iface = net.host_mut(h).core.add_iface(eth);
    net.attach(h, iface, lan);
    net.add_portal(lan, 7);
    let mut sim = Sim::new(net);
    stack::bring_iface_up(&mut sim, h, iface);
    sim.run();
    let (mac, addr) = (MacAddr::from_index(1), ip("36.135.0.9"));
    let arp = ArpPacket::gratuitous(mac, addr).to_bytes();
    let frame = Frame::new(MacAddr::BROADCAST, mac, EtherType::Arp, arp);
    let envelope = ShardEnvelope {
        src_shard: 0,
        dst_shard: 1,
        seq: 0,
        at: sim.now() + presets::TRUNK_ONE_WAY,
        payload: WireEnvelope {
            portal: 7,
            dst: frame.dst,
            src: mac,
            bytes: PacketBytes::from_vec(frame.to_bytes().to_vec()),
        },
    };
    let events = sim.events_executed();
    Network::shard_inject(&mut sim, envelope);
    sim.run();
    assert_eq!(sim.events_executed() - events, 1);
    let learned = sim.world().host(h).core.arp[iface.0].lookup(addr);
    assert_eq!(learned, Some(mac), "and the frame was processed");
}

/// Binds port 9 and records what arrives there, in order.
#[derive(Default)]
struct Recorder {
    sock: Option<SocketId>,
    got: Vec<Bytes>,
}

impl Module for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.sock = ctx.udp_bind(None, 9);
    }
    fn on_udp(
        &mut self,
        _ctx: &mut ModuleCtx<'_>,
        _sock: SocketId,
        _src: (Ipv4Addr, u16),
        _dst: Ipv4Addr,
        payload: &Bytes,
    ) {
        self.got.push(payload.clone());
    }
}

const LOCAL_BURST: u64 = 5;

fn numbered_payloads() -> Vec<Bytes> {
    (0..LOCAL_BURST)
        .map(|i| Bytes::from(i.to_be_bytes().to_vec()))
        .collect()
}

/// What a run of [`local_sends`] left behind.
#[derive(Debug, PartialEq)]
struct LocalRun {
    got: Vec<Bytes>,
    metrics: Snapshot,
    notes: String,
    journeys: Json,
}

/// Sends the numbered payloads from hostA's recorder socket to `port` on
/// hostA's own address — as one burst effect or as that many single
/// sends. Returns the metrics from just before the sends, and the run.
fn local_sends(port: u16, burst: bool) -> (Snapshot, LocalRun) {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    let mid = t
        .sim
        .world_mut()
        .host_mut(t.a)
        .add_module(Box::new(Recorder::default()));
    stack::start(&mut t.sim);
    let before = t.sim.metrics().snapshot();
    stack::dispatch(&mut t.sim, t.a, mid, |m, ctx| {
        let sock = (m as &mut dyn Any)
            .downcast_mut::<Recorder>()
            .unwrap()
            .sock
            .unwrap();
        let dst = (ip("10.0.1.2"), port);
        if burst {
            ctx.fx
                .send_udp_burst(sock, dst, numbered_payloads(), Default::default());
        } else {
            for payload in numbered_payloads() {
                ctx.fx.send_udp(sock, dst, payload);
            }
        }
    });
    t.sim.run_for(SimDuration::from_secs(1));
    let names = ["hostA", "hostB", "router"].map(String::from);
    let recorder: &mut Recorder = t.sim.world_mut().host_mut(t.a).module_mut(mid).unwrap();
    let got = std::mem::take(&mut recorder.got);
    let run = LocalRun {
        got,
        metrics: t.sim.metrics().snapshot(),
        notes: stack::render_notes(&t.sim),
        journeys: t.sim.flights().export(&names, None),
    };
    (before, run)
}

#[test]
fn local_burst_is_n_deliveries_in_send_order() {
    let (before, run) = local_sends(9, true);
    assert_eq!(run.got, numbered_payloads(), "one on_udp each, send order");
    for name in ["hostA/ip/input", "hostA/ip/delivered"] {
        let moved = run.metrics.counter(name) - before.counter(name);
        assert_eq!(moved, LOCAL_BURST, "{name}");
    }
    assert_eq!(
        local_sends(9, false).1,
        run,
        "N single sends are the same run"
    );
}

#[test]
fn local_burst_to_an_unbound_port_drops_every_datagram() {
    let run = local_sends(10, true).1;
    assert!(run.got.is_empty());
    let journeys = run.journeys.render_pretty();
    let no_socket = journeys.matches(r#""action": "drop.no_socket""#).count();
    assert_eq!(no_socket as u64, LOCAL_BURST, "{journeys}");
    assert_eq!(
        local_sends(10, false).1,
        run,
        "N single sends are the same run"
    );
}

#[test]
fn closed_socket_sends_nothing_and_mints_no_flight() {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    let core = &mut t.sim.world_mut().host_mut(t.a).core;
    let sock = core.udp.bind(stack::ModuleId(0), None, 0).unwrap();
    core.udp.close(sock);
    let first = t.sim.flights_mut().begin_flight(None);
    let events = t.sim.events_executed();
    for dst in [ip("10.0.1.2"), ip("10.0.2.2")] {
        let payloads = [Bytes::from_static(b"a"), Bytes::from_static(b"b")];
        stack::udp_send(
            &mut t.sim,
            t.a,
            sock,
            (dst, 9),
            payloads,
            Default::default(),
        );
    }
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(t.sim.events_executed(), events, "nothing was scheduled");
    assert!(t.sim.flights().is_empty(), "no hop recorded");
    assert_eq!(t.sim.flights_mut().begin_flight(None), first + 1);
}

/// The home address of [`ReverseTunnel`]'s mobile host (on no interface).
const HOME: Ipv4Addr = Ipv4Addr::new(10, 0, 9, 9);

/// hostA as a mobile host away from home, as its policy table answers
/// every route (§3.3): the packet keeps the home address as its source and
/// leaves reverse-tunnelled, the outer header from the care-of address
/// (hostA's own) to the home agent (hostB), via the router.
struct ReverseTunnel {
    iface: IfaceId,
}

impl Module for ReverseTunnel {
    fn name(&self) -> &'static str {
        "reverse-tunnel"
    }
    fn route_override(&mut self, _core: &HostCore, _dst: Ipv4Addr, _src: SourceSel) -> RouteAnswer {
        let decision = RouteDecision {
            iface: self.iface,
            src: HOME,
            next_hop: ip("10.0.1.1"),
            encap: Some(EncapSpec {
                outer_src: ip("10.0.1.2"),
                outer_dst: ip("10.0.2.2"),
            }),
        };
        RouteAnswer::Decide {
            decision,
            on_hit: None,
        }
    }
}

/// The IPv4 frames every host captured, in order, as (host, wire bytes).
fn ipv4_frames(sim: &NetSim) -> Vec<(u32, Vec<u8>)> {
    let ipv4 = EtherType::Ipv4.number().to_be_bytes();
    let captures = sim.flights().captures().iter();
    captures
        .filter(|c| c.bytes[12..14] == ipv4)
        .map(|c| (c.host, c.bytes.clone()))
        .collect()
}

/// One datagram from hostA to hostB's port 9 on a fresh `two_nets`, with
/// every host capturing; `tunnel` sends it through [`ReverseTunnel`] (hostB
/// decapsulates). hostA's entry for the router and the router's for hostB
/// are learned by ARP when `cold_a` / `cold_router`, else installed up
/// front. Returns the IPv4 frames captured: the one reaching the router
/// and the one it forwards to hostB.
fn first_send_frames(cold_a: bool, cold_router: bool, tunnel: bool) -> Vec<(u32, Vec<u8>)> {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    let now = t.sim.now();
    let net = t.sim.world_mut();
    if tunnel {
        let module = Box::new(ReverseTunnel { iface: t.a_if });
        net.host_mut(t.a).add_module(module);
    }
    let recorder = net.host_mut(t.b).add_module(Box::new(Recorder::default()));
    net.host_mut(t.b).core.ipip_decap = true;
    for h in [t.a, t.router, t.b] {
        net.host_mut(h).core.capture = true;
    }
    if !cold_a {
        let arp = &mut net.host_mut(t.a).core.arp[t.a_if.0];
        arp.insert(ip("10.0.1.1"), MacAddr::from_index(3), now);
    }
    if !cold_router {
        let arp = &mut net.host_mut(t.router).core.arp[t.r_ifb.0];
        arp.insert(ip("10.0.2.2"), MacAddr::from_index(2), now);
    }
    stack::start(&mut t.sim);
    let core = &mut t.sim.world_mut().host_mut(t.a).core;
    let sock = core.udp.bind(stack::ModuleId(0), None, 0).unwrap();
    let payload = [Bytes::from_static(b"first after a move")];
    stack::udp_send(
        &mut t.sim,
        t.a,
        sock,
        (ip("10.0.2.2"), 9),
        payload,
        Default::default(),
    );
    t.sim.run_for(SimDuration::from_secs(2));
    let recorder: &mut Recorder = t
        .sim
        .world_mut()
        .host_mut(t.b)
        .module_mut(recorder)
        .unwrap();
    assert_eq!(recorder.got.len(), 1, "delivered once");
    let frames = ipv4_frames(&t.sim);
    let (router, b) = (t.router.0 as u32, t.b.0 as u32);
    let hosts: Vec<u32> = frames.iter().map(|(h, _)| *h).collect();
    assert_eq!(hosts, [router, b], "into the router, out to hostB");
    frames
}

#[test]
fn a_parked_udp_send_reaches_the_wire_as_a_warm_one_does() {
    let warm = first_send_frames(false, false, false);
    assert_eq!(warm[0].1[14 + 9], 17, "plain UDP");
    assert_eq!(first_send_frames(true, false, false), warm);
}

#[test]
fn a_parked_reverse_tunnelled_send_reaches_the_wire_as_a_warm_one_does() {
    let warm = first_send_frames(false, false, true);
    let (outer, inner) = (&warm[0].1[14..], &warm[0].1[34..]);
    assert_eq!(outer[9], 4, "IP-in-IP");
    assert_eq!(
        outer[12..20],
        [10, 0, 1, 2, 10, 0, 2, 2],
        "care-of to agent"
    );
    assert_eq!(inner[12..16], HOME.octets(), "the home address inside");
    assert_eq!(first_send_frames(true, false, true), warm);
}

#[test]
fn a_parked_forwarded_packet_reaches_the_wire_as_a_warm_one_does() {
    for tunnel in [false, true] {
        let warm = first_send_frames(false, false, tunnel);
        assert_eq!(first_send_frames(false, true, tunnel), warm);
        assert_eq!(first_send_frames(true, true, tunnel), warm);
    }
}

/// Four datagrams to an on-link address nobody holds, one more than the
/// resolution queue keeps: the oldest is evicted when the fourth parks,
/// and the other three die when the resolution fails, each casualty
/// recorded at hostA under its own flight.
#[test]
fn a_parked_packet_that_never_leaves_drops_under_its_own_flight() {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    let core = &mut t.sim.world_mut().host_mut(t.a).core;
    let sock = core.udp.bind(stack::ModuleId(0), None, 0).unwrap();
    let payloads = (0..4u8).map(|i| Bytes::from(vec![i]));
    let dst = (ip("10.0.1.77"), 9);
    stack::udp_send(&mut t.sim, t.a, sock, dst, payloads, Default::default());
    t.sim.run_for(SimDuration::from_secs(5));
    let mut journeys = t.sim.flights().journeys();
    journeys.sort_by_key(|j| j.flight);
    let ends: Vec<_> = journeys
        .iter()
        .map(|j| {
            let last = j.hops.last().expect("a hop");
            (j.flight, last.host, last.point, j.drop_reason())
        })
        .collect();
    let first = journeys[0].flight;
    let a = t.a.0 as u32;
    assert_eq!(
        ends,
        [
            (first, a, "arp", Some("drop.arp_queue")),
            (first + 1, a, "arp", Some("drop.arp_failure")),
            (first + 2, a, "arp", Some("drop.arp_failure")),
            (first + 3, a, "arp", Some("drop.arp_failure")),
        ]
    );
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// Holds the IPv4 frames the router captured to `fixture`, one frame per
/// line in hex, and every flight's `Sent` hop to point `ip`: each frame is
/// a raw send one of the end hosts originated (TCP or ICMP, never UDP).
fn assert_raw_sends(sim: &NetSim, fixture: &str) {
    let frames: Vec<String> = ipv4_frames(sim).iter().map(|(_, b)| hex(b)).collect();
    let want: Vec<&str> = fixture.lines().collect();
    assert_eq!(frames, want, "wire bytes");
    let journeys = sim.flights().journeys();
    let sent: Vec<&str> = journeys
        .iter()
        .flat_map(|j| j.hops.iter().filter(|h| h.action == HopAction::Sent))
        .map(|h| h.point)
        .collect();
    assert_eq!(sent, vec!["ip"; frames.len()], "one raw send per frame");
}

// The fixtures below are the frames the stack wrote before `udp_send` and
// `ip_send_packet` shared one origination path; that path must not move a
// byte of them.

#[test]
fn a_tcp_session_keeps_its_wire_bytes() {
    let (t, _) = tcp_session(true);
    assert_raw_sends(&t.sim, include_str!("fixtures/tcp_session.hex"));
}

#[test]
fn a_rst_to_a_closed_port_keeps_its_wire_bytes() {
    let (t, _) = tcp_session(false);
    assert_raw_sends(&t.sim, include_str!("fixtures/tcp_rst.hex"));
}

#[test]
fn a_ping_and_its_echo_reply_keep_their_wire_bytes() {
    let mut t = two_nets();
    t.sim.flights_mut().set_enabled(true);
    t.sim.world_mut().host_mut(t.router).core.capture = true;
    let req = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 9,
            seq: 1,
            payload: Bytes::from_static(b"hi"),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, req, Default::default());
    t.sim.run_for(SimDuration::from_secs(2));
    assert_raw_sends(&t.sim, include_str!("fixtures/ping.hex"));
}
