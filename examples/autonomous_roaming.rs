//! The paper's §6 future work, implemented: the mobile host decides *for
//! itself* when to switch networks. A monitor inside the mobile-host
//! manager watches physical attachment, prefers wired over wireless,
//! powers the better device up ahead of time (so upgrades are hot), and
//! falls back cold when the ground disappears.
//!
//! The walk: office Ethernet → out of range (radio fallback) → arrive at
//! the department (wired upgrade via DHCP) → out of range again.
//!
//! Run with: `cargo run --example autonomous_roaming`

use mosquitonet::mip::{AddressPlan, AutoSwitchConfig, Candidate};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, COA_RADIO, MH_HOME, ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

fn main() {
    let mut tb = build(TestbedConfig {
        with_dhcp: true, // the department offers leases to visitors
        ..TestbedConfig::default()
    });

    // The user's traffic: something is always talking to the home address.
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

    // Hand the keys to the monitor: prefer wired (lease whatever the local
    // DHCP offers), fall back to the radio.
    let (eth, radio) = (tb.mh_eth, tb.mh_radio);
    let cfg = AutoSwitchConfig::new(vec![
        Candidate {
            iface: eth,
            address: AddressPlan::Dhcp,
        },
        Candidate {
            iface: radio,
            address: AddressPlan::Static {
                addr: COA_RADIO,
                subnet: topology::radio_subnet(),
                router: ROUTER_RADIO,
            },
        },
    ]);
    tb.with_mh(|m, ctx| m.enable_autoswitch(ctx, cfg));

    fn checkpoint(
        tb: &mut topology::Testbed,
        sender: stack::ModuleId,
        radio: stack::IfaceId,
        label: &str,
    ) {
        let where_ = match tb.mh_module().away_status() {
            None => "home Ethernet".to_string(),
            Some((iface, coa, _)) if iface == radio => format!("radio, care-of {coa}"),
            Some((_, coa, _)) => format!("wired, care-of {coa}"),
        };
        let switches = tb.mh_module().mobility.autoswitches.get();
        let now = tb.sim.now();
        let ch = tb.ch_dept;
        let s: &mut UdpEchoSender = tb.module(ch, sender);
        println!(
            "[{:>9}] {label:<38} -> {where_:<28} ({} echoes, {switches} switches so far)",
            now.to_string(),
            s.received(),
        );
    }

    tb.run_for(SimDuration::from_secs(3));
    checkpoint(&mut tb, sender, radio, "at the desk");

    // Walk out: the Ethernet cable stays behind.
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(8));
    checkpoint(&mut tb, sender, radio, "left the office (cable gone)");

    // Arrive at the department and plug in; the monitor upgrades hot.
    tb.move_mh_eth(Some(tb.lan_dept));
    tb.run_for(SimDuration::from_secs(12));
    checkpoint(&mut tb, sender, radio, "plugged in at the department");

    // Off again.
    tb.move_mh_eth(None);
    tb.run_for(SimDuration::from_secs(8));
    checkpoint(&mut tb, sender, radio, "unplugged again");

    let ch = tb.ch_dept;
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    println!(
        "\n{} pings sent to the one unchanging home address; {} echoed \
         ({} lost across {} autonomous switches)",
        s.sent(),
        s.received(),
        s.sent() - s.received(),
        tb.mh_module().mobility.autoswitches.get()
    );
    assert!(tb.mh_module().mobility.autoswitches.get() >= 3);
}
