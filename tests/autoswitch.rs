//! Tests of the automatic switch policy (the paper's §6 future work,
//! implemented): preference-ordered candidates, hot switches to better
//! networks, cold recovery when the current network disappears, and
//! hysteresis against flapping.

use mosquitonet::mip::{AddressPlan, AutoSwitchConfig, Candidate};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    build, Testbed, TestbedConfig, COA_RADIO, MH_HOME, ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

/// Preference: wired Ethernet (via DHCP, works on any net with a server),
/// then the radio (static address in the home cell).
fn enable(tb: &mut Testbed) {
    let eth = tb.mh_eth;
    let radio = tb.mh_radio;
    let cfg = AutoSwitchConfig::new(vec![
        Candidate {
            iface: eth,
            address: AddressPlan::Dhcp,
        },
        Candidate {
            iface: radio,
            address: AddressPlan::Static {
                addr: COA_RADIO,
                subnet: mosquitonet::testbed::topology::radio_subnet(),
                router: ROUTER_RADIO,
            },
        },
    ]);
    tb.with_mh(|m, ctx| m.enable_autoswitch(ctx, cfg));
}

fn echo(tb: &mut Testbed) -> stack::ModuleId {
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
    )
}

#[test]
fn stays_put_while_at_home() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    enable(&mut tb);
    tb.run_for(SimDuration::from_secs(10));
    assert!(tb.mh_module().away_status().is_none(), "still at home");
    assert_eq!(
        tb.mh_module().autoswitches.get(),
        0,
        "no pointless switching"
    );
}

#[test]
fn losing_the_home_network_falls_back_to_the_radio() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    let sender = echo(&mut tb);
    enable(&mut tb);
    tb.run_for(SimDuration::from_secs(2));

    // Walk out of the office: the Ethernet loses its LAN; the radio is in
    // range (attached) but powered down.
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(8));

    let (iface, coa, registered) = tb.mh_module().away_status().expect("roamed");
    assert_eq!(iface, tb.mh_radio, "fell back to the radio");
    assert_eq!(coa, COA_RADIO);
    assert!(registered);
    assert!(tb.mh_module().autoswitches.get() >= 1);
    // The stream survived the fallback.
    let before = {
        let ch = tb.ch_dept;
        let s: &mut UdpEchoSender = tb.module(ch, sender);
        s.received()
    };
    tb.run_for(SimDuration::from_secs(3));
    let ch = tb.ch_dept;
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    assert!(s.received() > before + 5, "echoes flowing over the radio");
}

#[test]
fn arriving_at_a_wired_network_upgrades_hot() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    let sender = echo(&mut tb);
    enable(&mut tb);
    // Leave home; live on the radio for a while.
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(8));
    assert_eq!(tb.mh_module().away_status().expect("away").0, tb.mh_radio);

    // Arrive somewhere with wired Ethernet (the department net, which
    // runs DHCP): plug in. The policy prefers wired and upgrades.
    let t0 = tb.sim.now();
    tb.move_mh_eth(Some(tb.lan_dept));
    tb.run_for(SimDuration::from_secs(12));
    let t1 = tb.sim.now();
    let (iface, coa, registered) = tb.mh_module().away_status().expect("away");
    assert_eq!(iface, tb.mh_eth, "upgraded to the wired network");
    assert!(registered);
    assert!(
        mosquitonet::testbed::topology::dept_subnet().contains(coa),
        "DHCP-leased department address, got {coa}"
    );
    assert!(tb.mh_module().autoswitches.get() >= 2);
    // The upgrade was hot: the radio stayed up during it, and losses in
    // the upgrade window are nil-to-one.
    let ch = tb.ch_dept;
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    let lost = s.lost_in_window(t0, t1);
    assert!(lost <= 1, "hot upgrade lost {lost}");
}

#[test]
fn hysteresis_prevents_flapping_on_a_blinking_network() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    enable(&mut tb);
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(8));
    let switches_before = tb.mh_module().autoswitches.get();
    // The Ethernet blinks into range for less time than the hysteresis
    // (2 ticks × 250 ms): no switch.
    tb.move_mh_eth(Some(tb.lan_dept));
    tb.run_for(SimDuration::from_millis(300));
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(3));
    assert_eq!(
        tb.mh_module().autoswitches.get(),
        switches_before,
        "a blink shorter than the hysteresis causes no switch"
    );
    assert_eq!(
        tb.mh_module().away_status().expect("away").0,
        tb.mh_radio,
        "still on the radio"
    );
}
