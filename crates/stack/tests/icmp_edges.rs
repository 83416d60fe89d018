//! Edge cases of the IP layer's error paths: TTL expiry, net unreachable,
//! ARP resolution failure, decapsulation limits, and filter silence; and
//! the send options a raw packet honours as a UDP datagram does.

use std::net::Ipv4Addr;

use bytes::Bytes;
use mosquitonet_link::presets;
use mosquitonet_sim::{HopAction, Sim, SimDuration};
use mosquitonet_stack::{
    self as stack, Effect, HostId, IfaceId, Module, ModuleCtx, NetSim, Network, RouteEntry,
    SendOptions, SourceSel,
};
use mosquitonet_wire::{
    ipip, Cidr, IcmpMessage, IpProto, Ipv4Header, Ipv4Packet, MacAddr, UnreachableCode,
};

fn ip(s: &str) -> Ipv4Addr {
    s.parse().expect("addr")
}

fn cidr(s: &str) -> Cidr {
    s.parse().expect("cidr")
}

struct IcmpLog {
    msgs: Vec<(Ipv4Addr, IcmpMessage)>,
}

impl Module for IcmpLog {
    fn name(&self) -> &'static str {
        "icmp-log"
    }
    fn on_icmp(&mut self, _ctx: &mut ModuleCtx<'_>, from: Ipv4Addr, msg: &IcmpMessage) {
        self.msgs.push((from, msg.clone()));
    }
}

/// host A — lanA — router — lanB — host B, with a logger module on A.
struct Bed {
    sim: NetSim,
    a: HostId,
    b: HostId,
    router: HostId,
    log_mid: stack::ModuleId,
    a_if: IfaceId,
}

fn bed() -> Bed {
    let mut net = Network::new();
    let a = net.add_host("a");
    let b = net.add_host("b");
    let router = net.add_host("r");
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
    let r_a = net
        .host_mut(router)
        .core
        .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(3)));
    let r_b = net
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
        .iface_mut(r_a)
        .add_addr(ip("10.0.1.1"), cidr("10.0.1.0/24"));
    net.host_mut(router)
        .core
        .iface_mut(r_b)
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
        iface: r_a,
        metric: 0,
    });
    net.host_mut(router).core.routes.add(RouteEntry {
        dest: cidr("10.0.2.0/24"),
        gateway: None,
        iface: r_b,
        metric: 0,
    });
    let log_mid = net
        .host_mut(a)
        .add_module(Box::new(IcmpLog { msgs: vec![] }));
    net.attach(a, a_if, lan_a);
    net.attach(b, b_if, lan_b);
    net.attach(router, r_a, lan_a);
    net.attach(router, r_b, lan_b);
    let mut sim = Sim::new(net);
    for (h, i) in [(a, a_if), (b, b_if), (router, r_a), (router, r_b)] {
        stack::bring_iface_up(&mut sim, h, i);
    }
    sim.run();
    stack::start(&mut sim);
    Bed {
        sim,
        a,
        b,
        router,
        log_mid,
        a_if,
    }
}

fn log(bed: &mut Bed) -> &mut IcmpLog {
    let a = bed.a;
    let mid = bed.log_mid;
    bed.sim
        .world_mut()
        .host_mut(a)
        .module_mut(mid)
        .expect("log")
}

fn ping(dst: Ipv4Addr, ttl: Option<u8>) -> (Ipv4Packet, stack::SendOptions) {
    let mut header = Ipv4Header::new(Ipv4Addr::UNSPECIFIED, dst, IpProto::Icmp);
    if let Some(t) = ttl {
        header.ttl = t;
    }
    (
        Ipv4Packet::new(
            header,
            IcmpMessage::EchoRequest {
                ident: 1,
                seq: 1,
                payload: Bytes::new(),
            }
            .to_bytes(),
        ),
        stack::SendOptions::default(),
    )
}

#[test]
fn ttl_expiry_generates_time_exceeded() {
    let mut t = bed();
    let (pkt, opts) = ping(ip("10.0.2.2"), Some(1));
    stack::ip_send_packet(&mut t.sim, t.a, pkt, opts);
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(t.sim.world().host(t.router).core.stats.dropped_ttl.get(), 1);
    let l = log(&mut t);
    assert!(
        l.msgs
            .iter()
            .any(|(from, m)| *from == ip("10.0.1.1")
                && matches!(m, IcmpMessage::TimeExceeded { .. })),
        "router reported TTL expiry: {:?}",
        l.msgs
    );
}

#[test]
fn no_route_generates_net_unreachable() {
    let mut t = bed();
    let (pkt, opts) = ping(ip("192.0.2.1"), None); // router has no route
    stack::ip_send_packet(&mut t.sim, t.a, pkt, opts);
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        t.sim
            .world()
            .host(t.router)
            .core
            .stats
            .dropped_no_route
            .get(),
        1
    );
    let l = log(&mut t);
    assert!(l.msgs.iter().any(|(_, m)| matches!(
        m,
        IcmpMessage::DestUnreachable {
            code: UnreachableCode::Net,
            ..
        }
    )));
}

#[test]
fn arp_failure_drops_after_retries() {
    let mut t = bed();
    t.sim.flights_mut().set_enabled(true);
    // On-link destination that does not exist: ARP will retry and fail.
    let (pkt, opts) = ping(ip("10.0.1.77"), None);
    stack::ip_send_packet(&mut t.sim, t.a, pkt, opts);
    // 3 tries × 1 s retry interval.
    t.sim.run_for(SimDuration::from_secs(5));
    assert_eq!(
        t.sim.world().host(t.a).core.stats.dropped_arp_failure.get(),
        1
    );
    let journeys = t.sim.flights().journeys();
    let reasons: Vec<_> = journeys.iter().map(|j| j.drop_reason()).collect();
    assert_eq!(
        reasons,
        [Some("drop.arp_failure")],
        "the ping's hop names the failure"
    );
}

#[test]
fn forwarding_disabled_drops_transit() {
    let mut t = bed();
    t.sim.world_mut().host_mut(t.router).core.forwarding = false;
    let (pkt, opts) = ping(ip("10.0.2.2"), None);
    stack::ip_send_packet(&mut t.sim, t.a, pkt, opts);
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        t.sim
            .world()
            .host(t.router)
            .core
            .stats
            .dropped_not_local
            .get(),
        1
    );
    assert_eq!(t.sim.world().host(t.b).core.stats.delivered.get(), 0);
}

#[test]
fn nested_decapsulation_is_depth_limited() {
    let mut t = bed();
    t.sim.world_mut().host_mut(t.b).core.ipip_decap = true;
    // Build a 6-deep IPIP matryoshka all addressed to B; depth cap is 4.
    let inner = Ipv4Packet::new(
        Ipv4Header::new(ip("10.0.1.2"), ip("10.0.2.2"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 9,
            seq: 9,
            payload: Bytes::new(),
        }
        .to_bytes(),
    );
    let mut pkt = inner;
    for _ in 0..6 {
        pkt = ipip::encapsulate(&pkt, ip("10.0.1.2"), ip("10.0.2.2"));
    }
    stack::ip_send_packet(&mut t.sim, t.a, pkt, stack::SendOptions::default());
    t.sim.run_for(SimDuration::from_secs(1));
    let b = &t.sim.world().host(t.b).core.stats;
    assert!(
        b.decapsulated.get() <= 4,
        "depth limited, got {}",
        b.decapsulated.get()
    );
    assert!(b.unclaimed.get() >= 1, "the too-deep packet was refused");
    // No echo reply came back (the inner request never surfaced).
    let l = log(&mut t);
    assert!(l
        .msgs
        .iter()
        .all(|(_, m)| !matches!(m, IcmpMessage::EchoReply { .. })));
}

#[test]
fn redirects_ignored_when_disabled() {
    let mut t = bed();
    t.sim.world_mut().host_mut(t.a).core.accept_redirects = false;
    // Hand-deliver a redirect to A.
    let original = Ipv4Packet::new(
        Ipv4Header::new(ip("10.0.1.2"), ip("10.0.2.2"), IpProto::Icmp),
        Bytes::from_static(&[0u8; 8]),
    );
    let redirect = IcmpMessage::Redirect {
        gateway: ip("10.0.1.99"),
        invoking: original.invoking_quote(),
    };
    let pkt = Ipv4Packet::new(
        Ipv4Header::new(ip("10.0.1.1"), ip("10.0.1.2"), IpProto::Icmp),
        redirect.to_bytes(),
    );
    let routes_before = t.sim.world().host(t.a).core.routes.len();
    let a = t.a;
    let a_if = t.a_if;
    stack::ip_input(&mut t.sim, a, Some(a_if), pkt, 0);
    t.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(
        t.sim.world().host(t.a).core.routes.len(),
        routes_before,
        "no host route installed"
    );
    assert_eq!(
        t.sim.world().host(t.a).core.stats.redirects_accepted.get(),
        0
    );
}

#[test]
fn directed_broadcast_is_received_not_forwarded() {
    let mut t = bed();
    // A sends to its own subnet's broadcast; the router receives it as a
    // local broadcast and must not forward it to lanB.
    let pkt = Ipv4Packet::new(
        Ipv4Header::new(Ipv4Addr::UNSPECIFIED, ip("10.0.1.255"), IpProto::Icmp),
        IcmpMessage::EchoRequest {
            ident: 2,
            seq: 1,
            payload: Bytes::new(),
        }
        .to_bytes(),
    );
    stack::ip_send_packet(&mut t.sim, t.a, pkt, stack::SendOptions::default());
    t.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(t.sim.world().host(t.router).core.stats.forwarded.get(), 0);
    assert_eq!(t.sim.world().host(t.b).core.stats.ip_input.get(), 0);
}

#[test]
fn a_module_raw_send_honours_its_ttl_option() {
    let mut t = bed();
    t.sim.flights_mut().set_enabled(true);
    // A default-TTL packet; only the option asks for one hop.
    let (packet, _) = ping(ip("10.0.2.2"), None);
    let opts = SendOptions {
        ttl: Some(1),
        ..SendOptions::default()
    };
    let (a, mid) = (t.a, t.log_mid);
    stack::dispatch(&mut t.sim, a, mid, |_, ctx| {
        ctx.fx.push(Effect::SendIp { packet, opts });
    });
    t.sim.run_for(SimDuration::from_secs(1));
    let router = &t.sim.world().host(t.router).core.stats;
    assert_eq!(router.dropped_ttl.get(), 1, "the router refused it");
    assert_eq!(t.sim.world().host(t.b).core.stats.delivered.get(), 0);
    let hops = t.sim.flights().hops_in_order();
    let expired: Vec<_> = hops
        .iter()
        .filter(|h| h.action == HopAction::Dropped("drop.ttl"))
        .map(|h| (h.host, h.point))
        .collect();
    assert_eq!(expired, [(t.router.0 as u32, "ip.fwd")]);
    let l = log(&mut t);
    assert!(
        l.msgs
            .iter()
            .any(|(from, m)| *from == ip("10.0.1.1")
                && matches!(m, IcmpMessage::TimeExceeded { .. })),
        "router reported TTL expiry: {:?}",
        l.msgs
    );
}

#[test]
fn a_raw_send_to_a_local_address_keeps_the_pinned_source() {
    let mut t = bed();
    let a_if = t.a_if;
    let core = &mut t.sim.world_mut().host_mut(t.a).core;
    core.iface_mut(a_if)
        .add_addr(ip("10.0.1.3"), cidr("10.0.1.0/24"));
    // The header leaves the source unspecified; the option pins it.
    let (pkt, _) = ping(ip("10.0.1.2"), None);
    let opts = SendOptions {
        src: SourceSel::Addr(ip("10.0.1.3")),
        ..SendOptions::default()
    };
    stack::ip_send_packet(&mut t.sim, t.a, pkt, opts);
    t.sim.run_for(SimDuration::from_secs(1));
    let l = log(&mut t);
    let requests: Vec<Ipv4Addr> = l
        .msgs
        .iter()
        .filter(|(_, m)| matches!(m, IcmpMessage::EchoRequest { .. }))
        .map(|(from, _)| *from)
        .collect();
    assert_eq!(requests, [ip("10.0.1.3")], "arrived from the pinned source");
}
