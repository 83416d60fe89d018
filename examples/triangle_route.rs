//! The Mobile Policy Table at work (§3.2): the mobile host visits a
//! foreign site, tries the triangle-route optimization toward a distant
//! correspondent, and — when the site's router turns out to forbid
//! transit traffic — probes, notices, and falls back to the reverse
//! tunnel automatically.
//!
//! Run with: `cargo run --example triangle_route`

use mosquitonet::mip::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, TestbedConfig, CH_FAR, COA_FOREIGN, FOREIGN_ROUTER,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::Cidr;

fn main() {
    // A foreign site whose router drops transit traffic — packets leaving
    // the site with a non-local source address die at the border (§3.2).
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        with_far_ch: true,
        with_foreign_site: true,
        foreign_transit_filter: true,
        ..TestbedConfig::default()
    });
    let ch_far = tb.ch_far.expect("far CH built");
    stack::add_module(&mut tb.sim, ch_far, Box::new(UdpEchoResponder::new(7)));

    // Visit the filtered site.
    tb.move_mh_eth(tb.lan_foreign);
    let eth = tb.mh_eth;
    tb.with_mh(|m, ctx| {
        m.start_switch(
            ctx,
            SwitchPlan {
                iface: eth,
                address: AddressPlan::Static {
                    addr: COA_FOREIGN,
                    subnet: topology::foreign_subnet(),
                    router: FOREIGN_ROUTER,
                },
                style: SwitchStyle::Cold,
            },
        )
    });
    tb.run_for(SimDuration::from_secs(5));
    println!(
        "[{}] registered at foreign care-of {}",
        tb.sim.now(),
        tb.mh_module().away_status().expect("away").1
    );

    // Optimistically try the triangle route to the far correspondent.
    tb.with_mh(|m, ctx| m.probe_triangle(ctx, CH_FAR));
    println!(
        "[{}] probing the triangle route to {CH_FAR} (policy now: {:?})",
        tb.sim.now(),
        tb.mh_module().policy.lookup(CH_FAR)
    );

    // The probe's ping dies at the transit filter; after the timeout the
    // policy table reverts this correspondent to the reverse tunnel.
    tb.run_for(SimDuration::from_secs(5));
    let policy = tb.mh_module().policy.lookup(CH_FAR);
    println!(
        "[{}] probe verdict: policy for {CH_FAR} is now {policy:?}",
        tb.sim.now()
    );
    assert_eq!(policy, SendMode::ReverseTunnel, "fallback engaged");

    // Traffic flows anyway — "this basic protocol is simple and always
    // works" (§3.2).
    let mh = tb.mh;
    let echo = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new(
            (CH_FAR, 7),
            SimDuration::from_millis(250),
        )),
    );
    tb.run_for(SimDuration::from_secs(5));
    let s: &mut UdpEchoSender = tb.module(mh, echo);
    println!(
        "\nthrough the tunnel: {} of {} echoes returned from {CH_FAR}",
        s.received(),
        s.sent()
    );
    assert!(s.received() > 0, "connectivity survived the filter");

    // Meanwhile, a *learned* entry for a filter-free path would have kept
    // Triangle; show the table state for the curious.
    println!("\nMobile Policy Table:");
    for e in tb.mh_module().policy.entries() {
        println!(
            "  {:<20} {:?}{}",
            e.dest.to_string(),
            e.mode,
            if e.learned {
                "  (learned by probe)"
            } else {
                ""
            }
        );
    }
    let _ = Cidr::DEFAULT; // (re-exported types are available to users)
}
