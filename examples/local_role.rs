//! The two roles of a visiting mobile host (§5.2): the *home role* keeps
//! applications pinned to the home address, while the *local role* lets
//! the host behave as an ordinary citizen of the visited network —
//! answering pings on its care-of address, refreshing its DHCP lease, and
//! fetching a "web page" directly without any mobility machinery.
//!
//! Run with: `cargo run --example local_role`

use mosquitonet::mip::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{build, TestbedConfig, CH_DEPT, MH_HOME};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::Cidr;

fn main() {
    // The department net runs a DHCP server; the mobile host acquires its
    // care-of address like any visitor would.
    let mut tb = build(TestbedConfig {
        with_dhcp: true,
        ..TestbedConfig::default()
    });
    tb.run_for(SimDuration::from_secs(1));
    tb.move_mh_eth(Some(tb.lan_dept));
    let eth = tb.mh_eth;
    tb.with_mh(|m, ctx| {
        m.start_switch(
            ctx,
            SwitchPlan {
                iface: eth,
                address: AddressPlan::Dhcp,
                style: SwitchStyle::Cold,
            },
        )
    });
    tb.run_for(SimDuration::from_secs(10));
    let (_, coa, _) = tb.mh_module().away_status().expect("registered");
    println!("care-of address leased via DHCP: {coa}");

    // LOCAL ROLE, part 1: the visited network's management station pings
    // the care-of address — the stack answers from that same address
    // ("foreign networks are unlikely to let visiting mobile hosts
    // connect if the mobile hosts do not respond to local network
    // management tools", §5.2).
    let dhcp_host = tb.dhcp_host.expect("dhcp host");
    let mgmt = stack::add_module(
        &mut tb.sim,
        dhcp_host,
        Box::new(UdpEchoSender::new((coa, 7), SimDuration::from_millis(200))),
    );
    let mh = tb.mh;
    stack::add_module(&mut tb.sim, mh, Box::new(UdpEchoResponder::new(7)));
    tb.run_for(SimDuration::from_secs(3));
    {
        let s: &mut UdpEchoSender = tb.module(dhcp_host, mgmt);
        s.stop();
        println!(
            "management probe of the care-of address: {}/{} answered",
            s.received(),
            s.sent()
        );
        assert!(s.received() > 0);
    }

    // LOCAL ROLE, part 2: a quick web fetch straight from the visited
    // network — "the mobile host may request a web page directly from a
    // web server. The web server simply responds and does not need to
    // track the mobile host further" (§3.2).
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_DEPT), SendMode::DirectLocal));
    let ch = tb.ch_dept;
    stack::add_module(&mut tb.sim, ch, Box::new(UdpEchoResponder::new(80)));
    let fetch = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new(
            (CH_DEPT, 80),
            SimDuration::from_millis(100),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));
    {
        let s: &mut UdpEchoSender = tb.module(mh, fetch);
        s.stop();
        println!(
            "direct 'web fetch' from {CH_DEPT}: {}/{} responses, no tunnel involved",
            s.received(),
            s.sent()
        );
        assert!(s.received() > 0);
    }

    // HOME ROLE: meanwhile the same correspondent still reaches the host
    // at its unchanging home address, through the home agent.
    let home_echo = stack::add_module(
        &mut tb.sim,
        ch,
        Box::new(UdpEchoSender::new(
            (MH_HOME, 7),
            SimDuration::from_millis(100),
        )),
    );
    tb.run_for(SimDuration::from_secs(2));
    let ha_decap = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .encapsulated
        .get();
    let s: &mut UdpEchoSender = tb.module(ch, home_echo);
    println!(
        "home-role echoes to {MH_HOME}: {}/{} (home agent tunneled {} packets so far)",
        s.received(),
        s.sent(),
        ha_decap
    );
    assert!(s.received() > 0);
    println!("\nboth roles served simultaneously — §5.2's partial transparency.");
}
