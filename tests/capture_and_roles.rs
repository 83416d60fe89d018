//! Two cross-cutting capabilities: the promiscuous capture tap (a
//! simulated `tcpdump`), and §5.2's claim that mobile-aware applications
//! can "use two different network services at once" — which full
//! transparency would forbid and MosquitoNet's partial transparency
//! permits.

use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::{SimDuration, TraceKind};
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, COA_DEPT, COA_RADIO, MH_HOME, ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

#[test]
fn sniffer_sees_the_tunnel_on_the_home_lan() {
    // A separate (off-router) home agent: correspondent packets then
    // really cross the home Ethernet to the proxy-ARPing agent, where the
    // sniffer can watch them.
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        ..TestbedConfig::default()
    });
    // Drop a sniffer box on the home Ethernet.
    let (sniffer, tap) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("sniffer");
        let tap = h_iface(net, h);
        net.host_mut(h).core.capture = true;
        net.attach_promiscuous(h, tap, tb.lan_home);
        (h, tap)
    };
    stack::bring_iface_up(&mut tb.sim, sniffer, tap);
    tb.run_for(SimDuration::from_secs(1));

    // The usual roam + echo.
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // The capture shows the protocol happening on the wire: gratuitous
    // ARP from the HA claiming the home address, and CH->home UDP echoes
    // arriving for the proxy. (The tunnel itself leaves on the dept LAN.)
    let captures: Vec<String> = tb
        .sim
        .trace()
        .of_kind(TraceKind::Capture)
        .map(|e| e.detail.to_string())
        .collect();
    assert!(
        captures
            .iter()
            .any(|l| l.contains("ARP announce 36.135.0.9")),
        "gratuitous ARP captured: {captures:#?}"
    );
    assert!(
        captures
            .iter()
            .any(|l| l.contains("UDP 36.8.0.7") && l.contains("36.135.0.9:7")),
        "echo traffic toward the home address captured"
    );
}

#[test]
fn sniffer_on_dept_lan_sees_encapsulated_packets() {
    let mut tb = build(TestbedConfig::default());
    let (sniffer, tap) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("sniffer");
        let tap = h_iface(net, h);
        net.host_mut(h).core.capture = true;
        net.attach_promiscuous(h, tap, tb.lan_dept);
        (h, tap)
    };
    stack::bring_iface_up(&mut tb.sim, sniffer, tap);
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(3));
    let has_tunnel = tb
        .sim
        .trace()
        .of_kind(TraceKind::Capture)
        .any(|e| e.detail.contains("IPIP") && e.detail.contains("> 36.8.0.42 |"));
    assert!(has_tunnel, "IP-in-IP packets visible on the visited LAN");
}

/// §5.2: "applications would not be able to use two different network
/// services at once" under full transparency. Here a mobile-aware
/// application pins the radio while ordinary traffic rides the Ethernet
/// care-of path — both at the same time.
#[test]
fn two_network_services_at_once() {
    let mut tb = build(TestbedConfig::default());
    // MH visits the dept net on Ethernet and ALSO powers its radio.
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    let radio = tb.mh_radio;
    tb.power_up_mh_iface(radio);
    tb.run_for(SimDuration::from_secs(2));
    // The mobile-aware application configures the radio address by hand
    // (it is not the mobile-IP care-of; the MH stays registered on eth).
    {
        let core = &mut tb.sim.world_mut().host_mut(tb.mh).core;
        core.iface_mut(radio)
            .add_addr(COA_RADIO, topology::radio_subnet());
        core.routes.add(stack::RouteEntry {
            dest: topology::radio_subnet(),
            gateway: None,
            iface: radio,
            metric: 0,
        });
    }

    // Service 1 (home role, via Ethernet tunnel): CH echoes to home addr.
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let home_mid = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    // Service 2 (mobile-aware, pinned to the radio): talk to the router's
    // radio address directly, sourcing from the radio interface.
    let router = tb.router;
    stack::add_module(&mut tb.sim, router, Box::new(UdpEchoResponder::new(9)));
    let mut radio_sender = UdpEchoSender::new((ROUTER_RADIO, 9), SimDuration::from_millis(300));
    radio_sender.padding = 0;
    let radio_mid = stack::add_module(&mut tb.sim, mh, Box::new(radio_sender));
    // Pin its traffic to the radio path (DirectLocal policy sources from
    // the local role; the radio device counters prove the physical path).
    tb.with_mh(|m, _| {
        m.policy.set(
            mosquitonet::wire::Cidr::host(ROUTER_RADIO),
            mosquitonet::mip::SendMode::DirectLocal,
        )
    });

    let radio_tx_before = tb.sim.world().host(mh).core.ifaces[radio.0]
        .device
        .counters
        .tx_frames
        .get();
    tb.run_for(SimDuration::from_secs(4));

    // Both services worked, over different physical networks.
    {
        let s: &mut UdpEchoSender = tb.module(ch, home_mid);
        assert!(s.received() > 20, "home-role stream flowed over Ethernet");
    }
    {
        let s: &mut UdpEchoSender = tb.module(mh, radio_mid);
        assert!(s.received() > 5, "radio service answered");
    }
    let radio_tx_after = tb.sim.world().host(mh).core.ifaces[radio.0]
        .device
        .counters
        .tx_frames
        .get();
    assert!(
        radio_tx_after > radio_tx_before + 5,
        "the second service really used the radio"
    );
}

fn h_iface(net: &mut stack::Network, h: stack::HostId) -> stack::IfaceId {
    use mosquitonet::link::presets;
    use mosquitonet::wire::MacAddr;
    net.host_mut(h)
        .core
        .add_iface(presets::wired_ethernet("tap0", MacAddr::from_index(200)))
}
