//! Ablation A3 (§5.1 security note): tunneled packets mis-delivered to a
//! newcomer that DHCP hands a departed mobile host's care-of address.

use mosquitonet_core::{AddressPlan, SwitchPlan, SwitchStyle};
use mosquitonet_dhcp::{DhcpClientModule, ReusePolicy};
use mosquitonet_link::presets;
use mosquitonet_sim::{Json, SimDuration};
use mosquitonet_stack as stack;
use mosquitonet_wire::MacAddr;

use super::common::install_echo;
use super::{with_result, Experiment, SEED};
use crate::report;
use crate::topology::{build, TestbedConfig};

/// Result of the DHCP address-reuse experiment (A3, §5.1 security note).
#[derive(Debug)]
pub struct A3Result {
    /// Tunneled packets mis-delivered to the newcomer under
    /// first-available reuse.
    pub first_available_misdelivered: u64,
    /// Same under least-recently-used reuse.
    pub lru_misdelivered: u64,
    /// Did the LRU server hand the newcomer a different address?
    pub lru_gave_different_address: bool,
    /// Metric registries for both reuse-policy runs.
    pub metrics: Json,
}

impl A3Result {
    /// Renders everything but `metrics`: the sidecar's `result` member.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "first_available_misdelivered",
                Json::from(self.first_available_misdelivered),
            ),
            ("lru_misdelivered", Json::from(self.lru_misdelivered)),
            (
                "lru_gave_different_address",
                Json::from(self.lru_gave_different_address),
            ),
        ])
    }
}

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

/// Runs the A3 experiment under both reuse policies.
pub fn run_a3(seed: u64) -> A3Result {
    let (first_available_misdelivered, _, fa_metrics) =
        run_a3_policy(ReusePolicy::FirstAvailable, seed);
    let (lru_misdelivered, lru_gave_different_address, lru_metrics) =
        run_a3_policy(ReusePolicy::LeastRecentlyUsed, seed);
    A3Result {
        first_available_misdelivered,
        lru_misdelivered,
        lru_gave_different_address,
        metrics: Json::obj([
            ("first_available", fa_metrics),
            ("least_recently_used", lru_metrics),
        ]),
    }
}

pub(super) const A3: Experiment = Experiment {
    name: "a3_address_reuse",
    about: "A3: tunneled-packet mis-delivery under both DHCP reuse policies (§5.1)",
    params: &[SEED],
    artifacts: &["a3.metrics"],
    run: |p| {
        let r = run_a3(p.get("seed"));
        with_result(report::render_a3(&r), "a3", r.to_json(), r.metrics)
    },
};
