//! End-to-end tests of the foreign-agent baseline (§2's IETF design, §5.1's
//! comparison): discovery by advertisement/solicitation, registration
//! relay, FA-terminated tunneling, and previous-FA forwarding.

use mosquitonet::mip::ForeignAgent;
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    build, MhMode, Testbed, TestbedConfig, FA_FOREIGN2_ADDR, FA_FOREIGN_ADDR, MH_HOME,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

fn fa_cfg(notify: bool) -> TestbedConfig {
    TestbedConfig {
        with_foreign_site: true,
        with_foreign_agents: true,
        ha_notify_previous: notify,
        mh_mode: MhMode::ForeignAgent,
        ..TestbedConfig::default()
    }
}

fn fa_bed(notify: bool) -> Testbed {
    build(fa_cfg(notify))
}

fn place_mh_on_first_cell(tb: &mut Testbed) {
    let lan = tb.lan_foreign.expect("foreign site");
    tb.move_mh_eth(Some(lan));
    let (mh, eth) = (tb.mh, tb.mh_eth);
    stack::bring_iface_up(&mut tb.sim, mh, eth);
    tb.run_for(SimDuration::from_secs(1));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
}

#[test]
fn fa_discovery_and_registration() {
    let mut tb = fa_bed(false);
    place_mh_on_first_cell(&mut tb);
    assert_eq!(
        tb.fa_mh_module().current_fa(),
        Some(FA_FOREIGN_ADDR),
        "registered through the cell's FA"
    );
    // The HA's binding names the FA as the care-of address (Figure 2,
    // bottom: "the mobile host's care-of address is the IP address of the
    // foreign agent").
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(binding.care_of, FA_FOREIGN_ADDR);
    // The FA holds a visitor entry and a host route for delivery.
    let (fa_host, fa_mod) = tb.fa_foreign.expect("fa");
    let fa: &mut ForeignAgent = tb.module(fa_host, fa_mod);
    assert_eq!(fa.visitor_count(), 1);
    assert!(fa.stats.relayed_requests.get() >= 1);
    assert!(fa.stats.relayed_replies.get() >= 1);
}

#[test]
fn traffic_flows_via_fa_decapsulation() {
    let mut tb = fa_bed(false);
    place_mh_on_first_cell(&mut tb);
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
    tb.run_for(SimDuration::from_secs(3));
    let (fa_host, _) = tb.fa_foreign.expect("fa");
    assert!(
        tb.sim.world().host(fa_host).core.stats.decapsulated.get() > 0,
        "the FA, not the mobile host, decapsulates"
    );
    assert_eq!(
        tb.sim.world().host(tb.mh).core.stats.decapsulated.get(),
        0,
        "the MH never decapsulates in FA mode"
    );
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    assert!(s.received() > 20, "echo stream flowing");
}

#[test]
fn cell_to_cell_move_re_registers_via_new_fa() {
    let mut tb = fa_bed(false);
    place_mh_on_first_cell(&mut tb);
    let lan2 = tb.lan_foreign2.expect("second cell");
    tb.move_mh_eth(Some(lan2));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
    assert_eq!(tb.fa_mh_module().current_fa(), Some(FA_FOREIGN2_ADDR));
    let now = tb.sim.now();
    let binding = tb.ha_module().bindings.get(MH_HOME, now).expect("bound");
    assert_eq!(
        binding.care_of, FA_FOREIGN2_ADDR,
        "binding moved to the new FA"
    );
}

#[test]
fn previous_fa_forwarding_rescues_in_flight_packets() {
    let mut tb = fa_bed(true);
    place_mh_on_first_cell(&mut tb);
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    let ch = tb.ch_dept;
    let sender = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(20),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));

    // Move to the adjacent cell mid-stream.
    let t0 = tb.sim.now();
    let lan2 = tb.lan_foreign2.expect("second cell");
    tb.move_mh_eth(Some(lan2));
    tb.with_fa_mh(|m, ctx| m.moved(ctx));
    tb.run_for(SimDuration::from_secs(3));
    let t1 = tb.sim.now();

    // The old FA armed forwarding...
    let (fa1_host, fa1_mod) = tb.fa_foreign.expect("fa1");
    {
        let fa1: &mut ForeignAgent = tb.module(fa1_host, fa1_mod);
        assert!(
            fa1.stats.forwarding_armed.get() >= 1,
            "binding update received"
        );
    }
    // ...re-encapsulated the stragglers...
    assert!(
        tb.sim.world().host(fa1_host).core.stats.encapsulated.get() > 0,
        "old FA re-tunneled in-flight packets"
    );
    // ...and the hand-off lost (almost) nothing.
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    let lost = s.lost_in_window(t0, t1);
    // Up to two packets can still die: one in flight to the old cell
    // before the notification lands, and one whose echo was generated in
    // the instant between detachment and the new default route. The
    // A1 experiment measures the distribution; here we bound it.
    assert!(lost <= 2, "forwarding trimmed the loss to {lost}");
}

/// The registration client is the agentless host's. A binding held through
/// a foreign agent is renewed at half its lifetime (the baseline's own
/// client never renewed: the binding lapsed at the home agent after 300 s
/// and the host did not notice), and a restarted home agent is noticed by
/// the boot epoch in the next renewal's reply and re-registered with.
#[test]
fn a_binding_held_through_an_fa_is_renewed_and_reasserted_after_a_restart() {
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        ..fa_cfg(false)
    });
    place_mh_on_first_cell(&mut tb);
    let bound_via = |tb: &mut Testbed| {
        let now = tb.sim.now();
        let binding = tb.ha_module().bindings.get(MH_HOME, now);
        binding.map(|b| b.care_of)
    };
    tb.run_for(SimDuration::from_secs(320));
    assert_eq!(bound_via(&mut tb), Some(FA_FOREIGN_ADDR), "past 300 s");
    assert_eq!(tb.fa_mh_module().current_fa(), Some(FA_FOREIGN_ADDR));
    let reg = tb.fa_mh_module().reg.stats.clone();
    assert_eq!(reg.binding_lapses.get(), 0);
    assert_eq!(reg.replies_accepted.get(), 3, "at 0, 150 and 300 s");
    let (fa_host, fa_mod) = tb.fa_foreign.expect("fa");
    let fa: &mut ForeignAgent = tb.module(fa_host, fa_mod);
    assert_eq!(
        fa.stats.relayed_replies.get(),
        3,
        "the renewals went via the FA"
    );

    let ha = tb.ha_host;
    stack::crash_host(&mut tb.sim, ha);
    tb.run_for(SimDuration::from_secs(3));
    stack::restart_host(&mut tb.sim, ha, false);
    tb.run_for(SimDuration::from_secs(150));
    assert_eq!(reg.epoch_changes.get(), 1, "one restart, noticed once");
    assert_eq!(
        reg.replies_accepted.get(),
        5,
        "the renewal, the reassertion"
    );
    assert_eq!(bound_via(&mut tb), Some(FA_FOREIGN_ADDR));
}
