//! Ablation A3 (§5.1 security note): tunneled packets mis-delivered to a
//! newcomer that DHCP hands a departed mobile host's care-of address.

use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_dhcp::{DhcpClientModule, ReusePolicy};
use mosquitonet_link::presets;
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack as stack;
use mosquitonet_wire::MacAddr;

use super::common::install_echo;
use super::{metrics, with_result, Experiment, SEED};
use crate::report;
use crate::topology::{build, TestbedConfig};

fn run_a3_policy(policy: ReusePolicy, seed: u64) -> (u64, bool, Json) {
    let mut tb = build(TestbedConfig {
        seed,
        with_dhcp: true,
        dhcp_policy: policy,
        dhcp_lease: SimDuration::from_secs(20),
        ..TestbedConfig::default()
    });
    // Continuous stream toward the MH's home address.
    install_echo(&mut tb, SimDuration::from_millis(50));
    // MH acquires its care-of via DHCP on the dept net.
    tb.move_mh_eth(Some(tb.lan_dept));
    let plan = SwitchPlan {
        iface: tb.mh_eth,
        address: AddressPlan::Dhcp,
        style: SwitchStyle::Cold,
    };
    tb.with_mh(|mh, ctx| mh.start_switch(ctx, plan));
    tb.run_for(SimDuration::from_secs(8));
    let (_, mh_coa, registered) = tb.mh_module().away_status().expect("away");
    assert!(registered, "MH must be registered before departing");

    // The MH vanishes without deregistering or releasing its lease
    // (battery died / drove out of coverage). The HA keeps tunneling.
    tb.move_mh_eth(None);
    // Wait out the DHCP lease so the address becomes reassignable.
    tb.run_for(SimDuration::from_secs(30));

    // A newcomer arrives and runs DHCP.
    let (newcomer, newcomer_mid, n_if) = {
        let net = tb.sim.world_mut();
        let h = net.add_host("newcomer");
        let ifc = net
            .host_mut(h)
            .core
            .add_iface(presets::wired_ethernet("eth0", MacAddr::from_index(90)));
        let mid = net
            .host_mut(h)
            .add_module(Box::new(DhcpClientModule::new(ifc)));
        net.attach(h, ifc, tb.lan_dept);
        (h, mid, ifc)
    };
    stack::bring_iface_up(&mut tb.sim, newcomer, n_if);
    tb.run_for(SimDuration::from_secs(1));
    // Start the newcomer's modules (it was added after world start).
    stack::dispatch(&mut tb.sim, newcomer, newcomer_mid, |m, ctx| {
        m.on_start(ctx)
    });
    tb.run_for(SimDuration::from_secs(5));
    let newcomer_addr = {
        let c: &mut DhcpClientModule = tb.module(newcomer, newcomer_mid);
        c.lease().expect("newcomer got a lease").addr
    };

    // Measure mis-delivery for a fixed window while the stale binding
    // still tunnels the mobile host's traffic.
    let before = tb.sim.world().host(newcomer).core.stats.unclaimed.get();
    tb.run_for(SimDuration::from_secs(10));
    let misdelivered = tb.sim.world().host(newcomer).core.stats.unclaimed.get() - before;
    (
        misdelivered,
        newcomer_addr != mh_coa,
        tb.sim.metrics().to_json(),
    )
}

/// Runs the DHCP address-reuse experiment (A3, §5.1 security note)
/// under both reuse policies. Returns the metrics body: `result`
/// (tunneled packets mis-delivered to the newcomer under first-available
/// and least-recently-used reuse, `first_available_misdelivered` and
/// `lru_misdelivered`, and whether the LRU server handed the newcomer a
/// different address, `lru_gave_different_address`), then the
/// registries of both runs.
pub fn run_a3(seed: u64) -> Json {
    let (first_available, _, fa_metrics) = run_a3_policy(ReusePolicy::FirstAvailable, seed);
    let (lru, lru_different, lru_metrics) = run_a3_policy(ReusePolicy::LeastRecentlyUsed, seed);
    let result = Json::obj([
        ("first_available_misdelivered", Json::from(first_available)),
        ("lru_misdelivered", Json::from(lru)),
        ("lru_gave_different_address", Json::from(lru_different)),
    ]);
    let metrics = Json::obj([
        ("first_available", fa_metrics),
        ("least_recently_used", lru_metrics),
    ]);
    with_result(result, metrics)
}

pub(super) const A3: Experiment = Experiment {
    name: "a3_address_reuse",
    about: "A3: tunneled-packet mis-delivery under both DHCP reuse policies (§5.1)",
    params: &[SEED],
    artifacts: &["a3.metrics"],
    run: |p| metrics("a3", run_a3(p.get("seed"))),
    render: report::render_a3,
};
