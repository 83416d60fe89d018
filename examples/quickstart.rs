//! Quickstart: build the paper's test-bed, walk the mobile host through a
//! full roam — home → department Ethernet → back home — while a
//! correspondent pings its *home* address the whole time.
//!
//! Run with: `cargo run --example quickstart`

use mosquitonet::mip::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{self, build, TestbedConfig, COA_DEPT, MH_HOME, ROUTER_DEPT};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};

fn main() {
    // 1. The Figure 5 test-bed: home net 36.135, department net 36.8, a
    //    radio cell, and a router that doubles as the home agent.
    let mut tb = build(TestbedConfig::default());

    // 2. A correspondent host pings the mobile host's HOME address every
    //    100 ms, and never learns that the host moves.
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
    report(&mut tb, sender, "at home");

    // 3. Carry the laptop to the department net and switch (cold: the
    //    paper's §4 sequence — route deleted, interface cycled, care-of
    //    address configured, registration sent).
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
    let timeline = *tb.mh_module().timelines.last().expect("switch done");
    println!(
        "hand-off complete in {} (request->reply {})",
        timeline.total().expect("total"),
        timeline.request_to_reply().expect("rr"),
    );
    report(
        &mut tb,
        sender,
        "visiting 36.8 (tunneled via the home agent)",
    );

    // 4. And home again: deregistration, proxy-ARP teardown, direct path.
    tb.move_mh_eth(Some(tb.lan_home));
    let eth = tb.mh_eth;
    tb.with_mh(|m, ctx| m.return_home(ctx, eth, SwitchStyle::Cold));
    tb.run_for(SimDuration::from_secs(5));
    report(&mut tb, sender, "back home (binding removed)");

    // 5. The correspondent's view: one address, brief blips, no breakage.
    let ch = tb.ch_dept;
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    println!(
        "\ncorrespondent sent {} pings to {MH_HOME}, got {} echoes back \
         ({} lost across two cold hand-offs)",
        s.sent(),
        s.received(),
        s.sent() - s.received(),
    );
}

fn report(tb: &mut mosquitonet::testbed::topology::Testbed, sender: stack::ModuleId, label: &str) {
    let away = tb.mh_module().away_status();
    let now = tb.sim.now();
    let ch = tb.ch_dept;
    let s: &mut UdpEchoSender = tb.module(ch, sender);
    match away {
        None => println!(
            "[{now}] {label}: MH at home, {} echoes so far",
            s.received()
        ),
        Some((_, coa, reg)) => println!(
            "[{now}] {label}: MH away at care-of {coa} (registered: {reg}), {} echoes so far",
            s.received()
        ),
    }
}
