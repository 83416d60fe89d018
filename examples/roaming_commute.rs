//! The paper's motivating scenario (§1): a long-lived "remote login"
//! session survives a commute. The mobile host starts on its office
//! Ethernet, hot-switches to the Metricom radio as it leaves the building,
//! and later cold-switches onto the department Ethernet at its
//! destination. The TCP session — keyed to the home address — never
//! resets; retransmission rides out every hand-off.
//!
//! Run with: `cargo run --example roaming_commute`

use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, CH_DEPT, COA_DEPT, COA_RADIO, MH_HOME, ROUTER_DEPT, ROUTER_RADIO,
};
use mosquitonet::testbed::workload::{TcpEchoServer, TcpStreamClient};

fn main() {
    let mut tb = build(TestbedConfig::default());

    // The "login server" lives on the department net; the session is bound
    // to the mobile host's home address.
    let ch = tb.ch_dept;
    stack::add_module(&mut tb.sim, ch, Box::new(TcpEchoServer::new(513)));
    let mh = tb.mh;
    let mut client = TcpStreamClient::new((MH_HOME, 1023), (CH_DEPT, 513));
    client.bursts = 30;
    client.burst = 48;
    client.interval = SimDuration::from_millis(700);
    let client_mid = stack::add_module(&mut tb.sim, mh, Box::new(client));

    tb.run_for(SimDuration::from_secs(4));
    println!(
        "[{}] session running at the office (home net)",
        tb.sim.now()
    );

    // Leaving the building: the radio is already warm (hot switch).
    let radio = tb.mh_radio;
    tb.power_up_mh_iface(radio);
    tb.run_for(SimDuration::from_secs(2));
    tb.with_mh(|m, ctx| {
        m.start_switch(
            ctx,
            SwitchPlan {
                iface: radio,
                address: AddressPlan::Static {
                    addr: COA_RADIO,
                    subnet: topology::radio_subnet(),
                    router: ROUTER_RADIO,
                },
                style: SwitchStyle::Hot,
            },
        )
    });
    tb.run_for(SimDuration::from_secs(8));
    println!(
        "[{}] walking: session continues over the packet radio (care-of {})",
        tb.sim.now(),
        tb.mh_module().away_status().expect("away").1
    );

    // Arriving: plug into the faster department Ethernet (cold switch —
    // "If we arrive at a site where there is a higher speed connection,
    // we may want to switch once again", §1).
    tb.move_mh_eth(Some(tb.lan_dept));
    let eth = tb.mh_eth;
    tb.with_mh(|m, ctx| {
        m.start_switch(
            ctx,
            SwitchPlan {
                iface: eth,
                address: AddressPlan::Static {
                    addr: COA_DEPT,
                    subnet: topology::dept_subnet(),
                    router: ROUTER_DEPT,
                },
                style: SwitchStyle::Cold,
            },
        )
    });
    tb.run_for(SimDuration::from_secs(10));
    println!(
        "[{}] arrived: session now on the wired department net (care-of {})",
        tb.sim.now(),
        tb.mh_module().away_status().expect("away").1
    );

    // Let the stream (and any retransmission tail) finish.
    let expected_len = tb
        .module::<TcpStreamClient>(mh, client_mid)
        .expected_stream()
        .len();
    for _ in 0..20 {
        let done = tb.module::<TcpStreamClient>(mh, client_mid).echoed.len() >= expected_len;
        if done {
            break;
        }
        tb.run_for(SimDuration::from_secs(10));
    }

    let c: &mut TcpStreamClient = tb.module(mh, client_mid);
    let expected = c.expected_stream();
    println!(
        "\nsession verdict: sent {} bytes, {} echoed back in order, reset = {}",
        c.sent,
        c.echoed.len(),
        c.reset
    );
    assert!(!c.reset, "the session must never reset");
    assert_eq!(c.echoed, expected, "every byte echoed in order");
    println!(
        "the remote login survived two device switches — \
              no application restart, as §1 demands."
    );
}
