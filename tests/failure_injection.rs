//! Failure injection across the system: lossy radio registration, a
//! crashed home agent, binding expiry, and operation while the home agent
//! is unreachable (the paper's local role is "especially useful if the
//! home agent is not reachable or has crashed", §5.2).

use mosquitonet::mip::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_DEPT, COA_DEPT, COA_RADIO, MH_HOME, ROUTER_DEPT,
    ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::Cidr;

fn dept_plan(tb: &Testbed) -> SwitchPlan {
    SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_DEPT,
            subnet: topology::dept_subnet(),
            router: ROUTER_DEPT,
        },
        style: SwitchStyle::Cold,
    }
}

#[test]
fn registration_survives_a_very_lossy_radio() {
    // Crank the radio cell's loss to 20%: the registration request or
    // reply will often vanish, and the 1 s retransmission must carry the
    // hand-off anyway.
    let mut tb = build(TestbedConfig {
        seed: 42,
        ..TestbedConfig::default()
    });
    let cell = tb.cell;
    tb.sim.world_mut().lans[cell.0].loss_probability = 0.20;
    let plan = SwitchPlan {
        iface: tb.mh_radio,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(30));
    let status = tb.mh_module().away_status().expect("away");
    assert!(status.2, "registered despite 20% radio loss");
    assert!(
        tb.mh_module().reg.stats.requests_sent.get() >= 1,
        "at least the original request went out"
    );
}

#[test]
fn home_agent_crash_blocks_home_role_but_not_local_role() {
    // Build with a SEPARATE home agent so we can crash it without taking
    // the router down.
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        ..TestbedConfig::default()
    });
    tb.move_mh_eth(Some(tb.lan_dept));
    let mut plan = dept_plan(&tb);
    plan.address = AddressPlan::Static {
        addr: COA_DEPT,
        subnet: topology::dept_subnet(),
        router: ROUTER_DEPT,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().expect("away").2);

    // Crash the home agent (its interface goes down, hard).
    let ha = tb.ha_host;
    tb.sim
        .world_mut()
        .host_mut(ha)
        .core
        .iface_mut(stack::IfaceId(0))
        .device
        .bring_down();

    // Home-role traffic now dies...
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let home_echo = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));
    {
        let s: &mut UdpEchoSender = tb.module(ch, home_echo);
        s.stop();
        assert_eq!(s.received(), 0, "home role dead with the HA down");
    }

    // ...but the local role still works: correspond directly, ignoring
    // mobile IP entirely (§5.2).
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_DEPT), SendMode::DirectLocal));
    stack::add_module(&mut tb.sim, ch, Box::new(UdpEchoResponder::new(9)));
    let direct = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new(
            (CH_DEPT, 9),
            SimDuration::from_millis(100),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));
    let s: &mut UdpEchoSender = tb.module(mh, direct);
    assert!(
        s.received() >= s.sent().saturating_sub(1),
        "local role unaffected by the HA crash ({}/{})",
        s.received(),
        s.sent()
    );
}

#[test]
fn binding_expires_when_the_mobile_host_disappears() {
    let mut tb = build(TestbedConfig::default());
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = dept_plan(&tb);
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    let lifetime = binding.expires - now;

    // The MH falls off the network entirely (no deregistration, no
    // renewal possible).
    tb.move_mh_eth(None);
    let mh = tb.mh;
    let eth = tb.mh_eth;
    tb.sim
        .world_mut()
        .host_mut(mh)
        .core
        .iface_mut(eth)
        .device
        .bring_down();

    // After the lifetime (+ sweep slack), the binding and its tunnel are
    // gone.
    tb.run_for(lifetime + SimDuration::from_secs(5));
    let now = tb.sim.now();
    assert!(
        tb.ha_module().bindings.get(MH_HOME, now).is_none(),
        "binding swept after expiry"
    );
    assert!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .tunnel_to(MH_HOME)
            .is_none(),
        "tunnel removed with the binding"
    );
    assert!(
        !tb.sim.world().host(tb.ha_host).core.arp[tb.router_home_if.0].is_proxying(MH_HOME),
        "proxy ARP stopped"
    );
}

#[test]
fn mh_refreshes_binding_before_expiry_while_away() {
    let mut tb = build(TestbedConfig::default());
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = dept_plan(&tb);
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    let accepted_before = tb.ha_module().stats.accepted.get();
    // Default lifetime is 300 s; the MH re-registers at half-life. Run
    // 400 s: at least one refresh must have happened, and the binding
    // must still be live.
    tb.run_for(SimDuration::from_secs(400));
    assert!(
        tb.ha_module().stats.accepted.get() > accepted_before,
        "binding refreshed at half-life"
    );
    let now = tb.sim.now();
    assert!(tb.ha_module().bindings.get(MH_HOME, now).is_some());
}

#[test]
fn unplugged_cable_mid_stream_recovers_after_reattach_and_switch() {
    let mut tb = build(TestbedConfig::default());
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let sender = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = dept_plan(&tb);
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    // Yank the cable for 3 seconds: echoes stop.
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(3));
    // Plug it back in and re-announce (the switch re-registers).
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = dept_plan(&tb);
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));

    let before = tb.module::<UdpEchoSender>(ch, sender).received();
    tb.run_for(SimDuration::from_secs(3));
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    assert!(
        s.received() > before + 25,
        "stream recovered after reattachment"
    );
}
