//! §3.2's third send mode, end to end: "A variant of the triangle route
//! optimization, suitable for use on networks that forbid transit traffic,
//! still sends the packet directly to the correspondent host but
//! encapsulates the packet using the mobile host's local source IP
//! address... It is appropriate when the mobile host knows that the
//! destination host has transparent IP-in-IP decapsulation capability
//! such as is found in recent Linux development kernels."

use mosquitonet::mip::{AddressPlan, SendMode, SwitchPlan, SwitchStyle};
use mosquitonet::sim::SimDuration;
use mosquitonet::stack;
use mosquitonet::testbed::topology::{
    self, build, Testbed, TestbedConfig, CH_FAR, COA_FOREIGN, FOREIGN_ROUTER,
};
use mosquitonet::testbed::workload::{UdpEchoResponder, UdpEchoSender};
use mosquitonet::wire::Cidr;

fn visit_filtered_foreign_site(filter: bool) -> Testbed {
    let mut tb = build(TestbedConfig {
        ha_on_router: false,
        with_far_ch: true,
        with_foreign_site: true,
        foreign_transit_filter: filter,
        ..TestbedConfig::default()
    });
    let ch_far = tb.ch_far.expect("far CH");
    stack::add_module(&mut tb.sim, ch_far, Box::new(UdpEchoResponder::new(7)));
    // The far CH runs a "recent Linux development kernel": it
    // transparently decapsulates IP-in-IP.
    tb.sim.world_mut().host_mut(ch_far).core.ipip_decap = true;
    tb.move_mh_eth(tb.lan_foreign);
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Static {
            addr: COA_FOREIGN,
            subnet: topology::foreign_subnet(),
            router: FOREIGN_ROUTER,
        },
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|m, ctx| m.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(5));
    assert!(tb.mh_module().away_status().map(|s| s.2).unwrap_or(false));
    tb
}

fn run_echo(tb: &mut Testbed) -> (u64, u64) {
    let mh = tb.mh;
    let mid = stack::add_module(
        &mut tb.sim,
        mh,
        Box::new(UdpEchoSender::new(
            (CH_FAR, 7),
            SimDuration::from_millis(200),
        )),
    );
    tb.run_for(SimDuration::from_secs(4));
    let s: &mut UdpEchoSender = tb.module(mh, mid);
    s.stop();
    (s.sent(), s.received())
}

#[test]
fn direct_encap_reaches_a_decapsulating_correspondent() {
    let mut tb = visit_filtered_foreign_site(false);
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_FAR), SendMode::DirectEncap));
    let ha_decap_before = tb
        .sim
        .world()
        .host(tb.ha_host)
        .core
        .stats
        .decapsulated
        .get();
    let (sent, received) = run_echo(&mut tb);
    assert!(
        received >= sent - 1,
        "direct-encap delivery: {received}/{sent}"
    );
    // Outbound packets bypassed the home agent entirely...
    assert_eq!(
        tb.sim
            .world()
            .host(tb.ha_host)
            .core
            .stats
            .decapsulated
            .get(),
        ha_decap_before,
        "no reverse-tunnel traffic through the HA"
    );
    // ...because the CH itself decapsulated them.
    let ch = tb.ch_far.expect("far CH");
    assert!(
        tb.sim.world().host(ch).core.stats.decapsulated.get() >= received,
        "the correspondent's kernel unwrapped the tunnels"
    );
}

#[test]
fn direct_encap_passes_the_transit_filter_where_triangle_dies() {
    // Triangle route first: the filtering router eats everything.
    let mut tb = visit_filtered_foreign_site(true);
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_FAR), SendMode::Triangle));
    let (sent, received) = run_echo(&mut tb);
    assert!(sent > 10);
    assert_eq!(received, 0, "triangle route dies at the filter");
    let filtered = tb
        .sim
        .world()
        .host(tb.foreign_router.expect("frouter"))
        .core
        .stats
        .dropped_filter
        .get();
    assert!(
        filtered >= sent.saturating_sub(3),
        "the filter did the killing ({filtered} of {sent}; the tail was in flight)"
    );

    // Direct-encapsulated: the outer source is the (local) care-of
    // address, so the same filter passes it.
    let mut tb = visit_filtered_foreign_site(true);
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_FAR), SendMode::DirectEncap));
    let (sent, received) = run_echo(&mut tb);
    assert!(
        received >= sent - 1,
        "direct-encap is filter-safe: {received}/{sent}"
    );
    assert_eq!(
        tb.sim
            .world()
            .host(tb.foreign_router.expect("frouter"))
            .core
            .stats
            .dropped_filter
            .get(),
        0
    );
}

#[test]
fn direct_encap_to_a_non_decapsulating_host_fails_informatively() {
    // Using DirectEncap against a plain 1.2.13-era host is a
    // misconfiguration: packets arrive but nobody unwraps them.
    let mut tb = visit_filtered_foreign_site(false);
    let ch = tb.ch_far.expect("far CH");
    tb.sim.world_mut().host_mut(ch).core.ipip_decap = false;
    tb.with_mh(|m, _| m.policy.set(Cidr::host(CH_FAR), SendMode::DirectEncap));
    let (sent, received) = run_echo(&mut tb);
    assert!(sent > 10);
    assert_eq!(received, 0);
    let unclaimed = tb.sim.world().host(ch).core.stats.unclaimed.get();
    assert!(
        unclaimed >= sent.saturating_sub(3),
        "the un-unwrapped tunnels were counted, not silently vanished \
         ({unclaimed} of {sent}; the tail was in flight)"
    );
}
