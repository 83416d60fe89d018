//! Figure 6-style telemetry check: during a cold Ethernet → radio switch
//! the in-flight echo stream is dropped for a *specific, attributable*
//! reason, and the metrics registry names it exactly.
//!
//! This pins the drop-by-reason counters end to end: the correspondent
//! keeps sending to the home address, the home agent keeps tunneling to
//! the now-dead department care-of address, and every casualty must show
//! up under a stable `drop.*` code rather than vanish silently. The
//! router's ARP cache is still warm for the old care-of address, so the
//! tunneled frames make it onto the department wire and die at the mobile
//! host's powered-down NIC — `drop.rx_down`, and nothing else.

use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, COA_DEPT, COA_RADIO, MH_HOME, ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

const ECHO_PORT: u16 = 7;

#[test]
fn cold_wired_to_wireless_switch_attributes_every_drop() {
    let mut tb = build(TestbedConfig {
        seed: 1996,
        ..TestbedConfig::default()
    });
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(ECHO_PORT)));
    let ch = tb.ch_dept;
    let sender_mid = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, ECHO_PORT),
            SimDuration::from_millis(50),
        )),
    );

    // Settle on the department Ethernet (registered, echoes flowing).
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
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));

    let before = tb.sim.metrics().snapshot();

    // Cold switch to the radio: the Ethernet goes down first, then the
    // radio takes 0.75 s to come up, then registration runs over it.
    let radio_plan = SwitchPlan {
        iface: tb.mh_radio,
        address: AddressPlan::Static {
            addr: COA_RADIO,
            subnet: topology::radio_subnet(),
            router: ROUTER_RADIO,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, radio_plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(
        tb.mh_module().away_status().map(|s| s.2).unwrap_or(false),
        "switch to the radio completed"
    );

    let after = tb.sim.metrics().snapshot();
    let moved = |name: &str| after.counter(name) - before.counter(name);

    // The echo stream never paused, so the sender lost packets while the
    // department care-of address was dead.
    let lost = {
        let s: &mut UdpEchoSender = tb.module(ch, sender_mid);
        s.sent() - s.received()
    };
    assert!(lost > 0, "a cold switch must lose in-flight packets");

    // Every loss is attributed. The router's ARP cache is warm for
    // COA_DEPT, so the tunneled frames still go out on the department
    // wire; they die at the MH's powered-down Ethernet, counted as
    // `drop.rx_down`. With seed 1996 the dead window (0.75 s radio
    // bring-up + radio-RTT registration) swallows exactly 23 frames —
    // the 50 ms echo tunnels plus the LAN's broadcast chatter.
    assert_eq!(
        moved("mh/if0.eth0/drop.rx_down"),
        23,
        "the dead-window casualties land on the downed NIC, exactly"
    );

    // ...and *only* there. Every other drop reason on the path must stay
    // silent: routes exist (tunnel), TTL is fresh, no filter is
    // configured, and the router never even misses an ARP resolution.
    for code in [
        "router/ip/drop.no_route",
        "router/ip/drop.ttl",
        "router/ip/drop.filter.ingress",
        "router/ip/drop.arp_failure",
        "router/if1.eth1/arp.failures",
        "mh/ip/drop.no_route",
        "mh/ip/drop.arp_failure",
        "ch-dept/ip/drop.no_route",
        "ch-dept/ip/drop.arp_failure",
    ] {
        assert_eq!(moved(code), 0, "{code} must stay silent");
    }

    // The switch itself is visible in the registry: the Ethernet went
    // down, the radio came up, and exactly one hand-off re-registered.
    assert_eq!(moved("mh/if0.eth0/down_transitions"), 1);
    assert_eq!(moved("mh/if1.strip0/up_transitions"), 1);
    assert_eq!(moved("mh/mobility/handoffs"), 1);
    assert_eq!(moved("router/reg/accepted"), 1);

    // Once re-registered over the radio, traffic flows again: the HA
    // encapsulates toward COA_RADIO and the MH decapsulates.
    assert!(moved("router/ip/encap") > 0);
    assert!(moved("mh/ip/decap") > 0);
}
