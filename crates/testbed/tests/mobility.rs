//! Full-system mobility tests on the Figure 5 test-bed: the complete
//! MosquitoNet protocol running over the simulated networks.

use std::net::Ipv4Addr;

use mosquitonet_core::{AddressPlan, SendMode, SwitchPlan, SwitchStyle, PROBE_TIMEOUT};
use mosquitonet_sim::SimDuration;
use mosquitonet_stack::{self as stack};
use mosquitonet_testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_DEPT, CH_FAR, COA_DEPT, COA_DEPT_ALT, COA_FOREIGN,
    COA_RADIO, FOREIGN_ROUTER, MH_HOME, ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet_testbed::workload::{
    TcpEchoServer, TcpStreamClient, UdpEchoResponder, UdpEchoSender,
};
use mosquitonet_wire::Cidr;

const ECHO_PORT: u16 = 7;

fn dept_plan(style: SwitchStyle) -> SwitchPlan {
    SwitchPlan {
        iface: mosquitonet_stack::IfaceId(0), // placeholder, fixed by caller
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style,
    }
}

/// Installs the echo workload: responder on the MH, sender on the dept CH.
fn install_echo(tb: &mut Testbed, interval: SimDuration) -> stack::ModuleId {
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let ch = tb.ch_dept;
    stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new((MH_HOME, ECHO_PORT), interval)),
    )
}

fn sender(tb: &mut Testbed, mid: stack::ModuleId) -> &mut UdpEchoSender {
    tb.module(tb.ch_dept, mid)
}

#[test]
fn echo_works_while_mh_is_at_home() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(100));
    tb.run_for(SimDuration::from_secs(5));
    let s = sender(&mut tb, sender_mid);
    assert!(s.sent() >= 49);
    assert!(
        s.received() >= s.sent() - 1,
        "no loss at home (last may be in flight)"
    );
}

#[test]
fn cold_switch_to_dept_keeps_connectivity() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(100));
    tb.run_for(SimDuration::from_secs(2));

    // Physically carry the MH to the department net and switch.
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // Handoff completed, binding installed, echoes flowing again.
    assert_eq!(tb.mh_module().mobility.handoffs.get(), 1);
    let status = tb.mh_module().away_status().expect("away");
    assert_eq!(status.1, COA_DEPT);
    assert!(status.2, "registered");
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("binding");
    assert_eq!(binding.care_of, COA_DEPT);
    // The HA is proxy-ARPing and tunneling.
    assert!(tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .tunnel_to(MH_HOME)
        .is_some());

    // Echo still works at the new location (give it a fresh window).
    let before = sender(&mut tb, sender_mid).received();
    tb.run_for(SimDuration::from_secs(3));
    let s = sender(&mut tb, sender_mid);
    assert!(
        s.received() > before + 25,
        "echoes keep flowing via the tunnel ({} -> {})",
        before,
        s.received()
    );
    // And packets did go through the encapsulation path.
    assert!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .stats
            .encapsulated
            .get()
            > 0
    );
    assert!(tb.sim.world().host(tb.mh).core.stats.decapsulated.get() > 0);
}

#[test]
fn same_subnet_address_switch_loses_almost_nothing() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(10));
    // Settle at the department net first.
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert_eq!(tb.mh_module().mobility.handoffs.get(), 1);

    // Switch the care-of address on the same subnet (the §4 experiment).
    let t0 = tb.sim.now();
    tb.with_mh(|mh, ctx| {
        mh.switch_address(
            ctx,
            AddressPlan::Static {
                addr: COA_DEPT_ALT,
                subnet: topology::dept_subnet(),
                router: ROUTER_DEPT,
            },
        )
    });
    tb.run_for(SimDuration::from_secs(3));
    let t1 = tb.sim.now();
    assert_eq!(tb.mh_module().mobility.handoffs.get(), 2);
    let lost = sender(&mut tb, sender_mid).lost_in_window(t0, t1);
    assert!(lost <= 1, "at most one 10ms-spaced packet lost, got {lost}");
}

#[test]
fn hot_switch_to_radio_loses_nothing() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(250));
    // Settle on the dept net.
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // Bring the radio up *before* switching — "being able to bring up one
    // interface before turning off the other is advantageous" (§4).
    let radio = tb.mh_radio;
    tb.power_up_mh_iface(radio);
    tb.run_for(SimDuration::from_secs(2));

    let t0 = tb.sim.now();
    let plan = SwitchPlan {
        iface: radio,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style: SwitchStyle::Hot,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(6));
    let t1 = tb.sim.now();
    assert_eq!(tb.mh_module().mobility.handoffs.get(), 2);
    let status = tb.mh_module().away_status().expect("away");
    assert_eq!(status.1, COA_RADIO);
    let lost = sender(&mut tb, sender_mid).lost_in_window(t0, t1);
    // "When doing hot switching, we usually see no packet loss. (The only
    // lost packet we observed was dropped by the radio itself...)" §4 —
    // allow exactly that: any loss must be a radio medium drop.
    if lost > 0 {
        assert!(lost <= 1, "more than the occasional radio drop: {lost}");
        let journeys = tb.sim.flights().journeys();
        assert!(
            journeys
                .iter()
                .any(|j| j.drop_reason() == Some("drop.medium_loss")),
            "loss without a radio-medium drop hop"
        );
    }
}

#[test]
fn return_home_deregisters_and_restores_direct_path() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(100));
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().is_some());

    // Carry it back home.
    tb.move_mh_eth(Some(tb.lan_home));
    let eth = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.return_home(ctx, eth, SwitchStyle::Cold));
    tb.run_for(SimDuration::from_secs(5));

    assert!(tb.mh_module().away_status().is_none(), "home again");
    let now = tb.sim.now();
    assert!(
        tb.ha_module().bindings.get(MH_HOME, now).is_none(),
        "binding removed on deregistration"
    );
    assert!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .tunnel_to(MH_HOME)
            .is_none(),
        "tunnel removed"
    );
    // Echoes flow directly again.
    let before = sender(&mut tb, sender_mid).received();
    tb.run_for(SimDuration::from_secs(3));
    assert!(sender(&mut tb, sender_mid).received() > before + 25);
}

#[test]
fn a_hot_return_home_loses_nothing() {
    let mut tb = build(TestbedConfig::default());
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(100));
    let (eth, radio) = (tb.mh_eth, tb.mh_radio);
    tb.power_up_mh_iface(radio);
    tb.run_for(SimDuration::from_secs(2));

    // Leave home onto the radio while the wire stays plugged in, then come
    // back to the wire: neither move powers a device down.
    let plan = SwitchPlan {
        iface: radio,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style: SwitchStyle::Hot,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    let t0 = tb.sim.now();
    tb.with_mh(|mh, ctx| mh.return_home(ctx, eth, SwitchStyle::Hot));
    tb.run_for(SimDuration::from_secs(5));
    let t1 = tb.sim.now();
    tb.run_for(SimDuration::from_secs(1)); // let the last echoes land

    let mh = tb.mh_module();
    assert_eq!(mh.mobility.handoffs.get(), 2);
    assert!(mh.away_status().is_none(), "home again");
    assert!(
        mh.timelines.iter().all(|t| t.iface_up.is_none()),
        "a hot move powers no device up"
    );
    let now = tb.sim.now();
    assert!(
        tb.ha_module().bindings.get(MH_HOME, now).is_none(),
        "binding removed on deregistration"
    );
    let core = &tb.sim.world().host(tb.mh).core;
    assert!(
        core.iface(eth).has_addr(MH_HOME),
        "the wire carries the home address"
    );
    assert!(
        !core
            .routes
            .entries()
            .iter()
            .any(|r| r.iface == radio && r.dest == Cidr::DEFAULT),
        "only the wire carries the default route"
    );
    // The radio's own medium drops an echo while the host is away at this
    // seed, so the window opens at the return.
    let lost = sender(&mut tb, sender_mid).lost_in_window(t0, t1);
    assert_eq!(lost, 0, "a hot return loses no echo");
}

#[test]
fn dhcp_acquired_care_of_address_works() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    let sender_mid = install_echo(&mut tb, SimDuration::from_millis(100));
    tb.run_for(SimDuration::from_secs(1));
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Dhcp,
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(10));
    assert_eq!(tb.mh_module().mobility.handoffs.get(), 1);
    let (_, coa, registered) = tb.mh_module().away_status().expect("away");
    assert!(registered);
    assert!(
        topology::dept_subnet().contains(coa),
        "leased address {coa} on the visited subnet"
    );
    assert_ne!(coa, MH_HOME);
    let before = sender(&mut tb, sender_mid).received();
    tb.run_for(SimDuration::from_secs(2));
    assert!(sender(&mut tb, sender_mid).received() > before);
}

#[test]
fn triangle_route_shortens_reverse_path() {
    let mut tb = build(TestbedConfig::default());
    install_echo(&mut tb, SimDuration::from_millis(100));
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // Count HA decapsulations with the default reverse tunnel...
    let ha_before = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .decapsulated
        .get();
    tb.run_for(SimDuration::from_secs(2));
    let ha_tunnel = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .decapsulated
        .get()
        - ha_before;
    assert!(ha_tunnel > 0, "reverse tunnel passes through the HA");

    // ...then switch the policy to the triangle route: the MH's replies
    // now go straight to the CH, bypassing the HA on the way out.
    tb.with_mh(|mh, _ctx| {
        mh.policy
            .set(mosquitonet_wire::Cidr::host(CH_DEPT), SendMode::Triangle)
    });
    let ha_before = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .decapsulated
        .get();
    let mh_encap_before = tb.sim.world().host(tb.mh).core.stats.encapsulated.get();
    tb.run_for(SimDuration::from_secs(2));
    let ha_after = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .decapsulated
        .get()
        - ha_before;
    let mh_encap = tb.sim.world().host(tb.mh).core.stats.encapsulated.get() - mh_encap_before;
    assert_eq!(ha_after, 0, "no reverse-tunnel decapsulation at the HA");
    assert_eq!(mh_encap, 0, "triangle route sends unencapsulated");
}

#[test]
fn a_probe_in_flight_across_a_move_learns_nothing() {
    // The §3.2 failure case: a foreign site whose router drops transit
    // traffic, so a triangle probe to the far correspondent never returns.
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        with_far_ch: true,
        with_foreign_site: true,
        foreign_transit_filter: true,
        ..TestbedConfig::default()
    });
    tb.move_mh_eth(tb.lan_foreign);
    let at = |addr| AddressPlan::Static {
        addr,
        subnet: topology::foreign_subnet(),
        router: FOREIGN_ROUTER,
    };
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: at(COA_FOREIGN),
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().is_some_and(|s| s.2));

    // Probe, then move before the probe times out: its verdict belongs to
    // the network the host left.
    tb.with_mh(|mh, ctx| mh.probe_triangle(ctx, CH_FAR));
    let other = Ipv4Addr::new(128, 32, 0, 43);
    tb.with_mh(|mh, ctx| mh.switch_address(ctx, at(other)));
    tb.run_for(PROBE_TIMEOUT + SimDuration::from_secs(1));

    let mh = tb.mh_module();
    assert_eq!(mh.mobility.handoffs.get(), 2);
    assert_eq!(mh.away_status().map(|s| s.1), Some(other));
    assert!(
        mh.policy.entries().iter().all(|e| !e.learned),
        "an old-network verdict was learned: {:?}",
        mh.policy.entries()
    );
    assert_eq!(
        mh.mobility.probe_timeouts.get(),
        0,
        "the stale probe timed out"
    );
}

#[test]
fn tcp_session_survives_a_cold_handoff() {
    let mut tb = build(TestbedConfig::default());
    // Remote-login stand-in: server on the dept CH, client on the MH
    // bound to its *home* address.
    let ch = tb.ch_dept;
    let server_mid = stack::add_module(&mut tb.sim, ch, Box::new(TcpEchoServer::new(513)));
    let mh = tb.mh;
    let mut client = TcpStreamClient::new((MH_HOME, 1023), (CH_DEPT, 513));
    client.bursts = 16;
    client.interval = SimDuration::from_millis(500);
    let client_mid = stack::add_module(&mut tb.sim, mh, Box::new(client));

    // Let the session get going at home.
    tb.run_for(SimDuration::from_secs(3));
    {
        let c: &mut TcpStreamClient = tb.module(mh, client_mid);
        assert!(!c.echoed.is_empty(), "session active before the move");
    }

    // Move mid-stream.
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mhm, ctx| mhm.start_switch(ctx, plan));

    // Let retransmission carry the stream across and finish.
    tb.run_for(SimDuration::from_secs(40));
    let expected = {
        let c: &mut TcpStreamClient = tb.module(mh, client_mid);
        assert!(!c.reset, "connection must not reset across the hand-off");
        let expected = c.expected_stream();
        assert_eq!(
            c.echoed, expected,
            "every byte echoed in order across the hand-off"
        );
        expected
    };
    let s: &mut TcpEchoServer = tb.module(ch, server_mid);
    assert_eq!(s.bytes_received, expected.len() as u64);
}

#[test]
fn registration_timeline_matches_figure_7_shape() {
    let mut tb = build(TestbedConfig::default());
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(SwitchStyle::Cold);
    plan.iface = tb.mh_eth;
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // Re-register on the same subnet to isolate the software overhead.
    // The first two switches warm the router's ARP cache for both
    // addresses (as the paper's repeated runs would); measure the third.
    for target in [COA_DEPT_ALT, COA_DEPT, COA_DEPT_ALT] {
        tb.with_mh(|mh, ctx| {
            mh.switch_address(
                ctx,
                AddressPlan::Static {
                    addr: target,
                    subnet: topology::dept_subnet(),
                    router: ROUTER_DEPT,
                },
            )
        });
        tb.run_for(SimDuration::from_secs(3));
    }
    let tl = *tb.mh_module().timelines.last().expect("timeline");
    let total_us = tl.total().expect("complete").as_micros();
    let rr_us = tl.request_to_reply().expect("complete").as_micros();
    // Paper: total 7.39 ms, request→reply 4.79 ms. Allow ±15%.
    assert!(
        (6_300..=8_500).contains(&total_us),
        "total switch {total_us}us vs paper 7390us"
    );
    assert!(
        (4_100..=5_500).contains(&rr_us),
        "request->reply {rr_us}us vs paper 4790us"
    );
}
