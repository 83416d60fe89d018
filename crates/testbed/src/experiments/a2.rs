//! Ablation A2 (§4): home-agent reply latency under simultaneous
//! registration bursts.

use std::net::Ipv4Addr;

use mosquitonet_core::{HomeAgent, HomeAgentConfig};
use mosquitonet_link::presets;
use mosquitonet_sim::{Json, Sim, SimDuration};
use mosquitonet_stack::{self as stack, Network};
use mosquitonet_wire::{Cidr, MacAddr};

use super::common::{percentile, summary_ms};
use super::{metrics, with_result, Experiment, SEED};
use crate::report;
use crate::topology::{self, COA_DEPT, ROUTER_DEPT};
use crate::workload::RegistrationStorm;

/// Runs the home-agent scaling experiment (A2) for each burst size.
///
/// Returns the metrics body: `result`, one row per size (the
/// simultaneously registering `mobile_hosts`, the `completed`
/// registrations, the mean, 95th-percentile and worst reply latency in
/// ms, and `span_ms` from first request sent to last reply received),
/// then the per-burst registries keyed `burst_{n}` (each burst size runs
/// a fresh two-net world).
pub fn run_a2(sizes: &[u32], seed: u64) -> Json {
    let mut metrics = Vec::new();
    let rows = sizes
        .iter()
        .map(|&n| {
            // A minimal two-net topology with a wide home subnet so
            // thousands of logical mobile hosts fit.
            let mut net = Network::new();
            let home: Cidr = "36.135.0.0/16".parse().expect("const");
            let dept = topology::dept_subnet();
            let lan_home = net.add_lan(presets::ethernet_lan("home"));
            let lan_dept = net.add_lan(presets::ethernet_lan("dept"));
            let router = net.add_host("router-ha");
            net.host_mut(router).core.forwarding = true;
            net.host_mut(router).core.ipip_decap = true;
            let r_home = topology::add_numbered_iface(
                &mut net,
                router,
                presets::wired_ethernet("eth0", MacAddr::from_index(1)),
                topology::ROUTER_HOME,
                home,
            );
            let r_dept = topology::add_numbered_iface(
                &mut net,
                router,
                presets::wired_ethernet("eth1", MacAddr::from_index(2)),
                ROUTER_DEPT,
                dept,
            );
            let ha_cfg = HomeAgentConfig::new(topology::ROUTER_HOME, r_home, home);
            net.host_mut(router)
                .add_module(Box::new(HomeAgent::new(ha_cfg)));

            net.attach(router, r_home, lan_home);
            net.attach(router, r_dept, lan_dept);

            let (storm_host, s_if) = topology::add_leaf_host(
                &mut net,
                "storm",
                3,
                COA_DEPT,
                dept,
                ROUTER_DEPT,
                lan_dept,
            );
            let storm_mid = net
                .host_mut(storm_host)
                .add_module(Box::new(RegistrationStorm::new(
                    topology::ROUTER_HOME,
                    Ipv4Addr::new(36, 135, 4, 1),
                    n,
                    COA_DEPT,
                )));

            let mut sim = Sim::with_seed(net, seed);
            stack::bring_iface_up(&mut sim, router, r_home);
            stack::bring_iface_up(&mut sim, router, r_dept);
            stack::bring_iface_up(&mut sim, storm_host, s_if);
            sim.run();
            // Warm both ARP caches so the burst measures home-agent
            // service time, not neighbor discovery (the storm does not
            // retransmit, and a cold ARP queue would shed the burst).
            let t = sim.now();
            sim.world_mut().hosts[storm_host.0].core.arp[s_if.0].insert(
                ROUTER_DEPT,
                MacAddr::from_index(2),
                t,
            );
            sim.world_mut().hosts[router.0].core.arp[r_dept.0].insert(
                COA_DEPT,
                MacAddr::from_index(3),
                t,
            );
            stack::start(&mut sim);
            // Generous budget: N × (stagger + processing) + slack.
            sim.run_for(SimDuration::from_millis(u64::from(n) * 2 + 2_000));

            let storm: &mut RegistrationStorm = sim
                .world_mut()
                .host_mut(storm_host)
                .module_mut(storm_mid)
                .expect("storm");
            let latencies = storm.latencies();
            let completed = latencies.len() as u32;
            let mean = summary_ms(&latencies);
            let mut sorted_ms: Vec<f64> = latencies.iter().map(|l| l.as_millis_f64()).collect();
            sorted_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p95 = percentile(&sorted_ms, 95);
            let span_ms = storm
                .completions
                .iter()
                .map(|(_, s, _)| *s)
                .min()
                .zip(storm.completions.iter().map(|(_, _, r)| *r).max())
                .map(|(first, last)| (last - first).as_millis_f64())
                .unwrap_or(0.0);
            metrics.push((format!("burst_{n}"), sim.metrics().to_json()));
            Json::obj([
                ("mobile_hosts", Json::from(n)),
                ("completed", Json::from(completed)),
                ("mean_reply_ms", Json::from(mean.mean())),
                ("p95_reply_ms", Json::from(p95)),
                ("max_reply_ms", Json::from(mean.max().unwrap_or(0.0))),
                ("span_ms", Json::from(span_ms)),
            ])
        })
        .collect();
    with_result(Json::Arr(rows), Json::obj(metrics))
}

pub(super) const A2: Experiment = Experiment {
    name: "a2_ha_scaling",
    about: "A2: home-agent reply latency under simultaneous registration bursts (§4)",
    params: &[SEED],
    artifacts: &["a2.metrics"],
    run: |p| {
        metrics(
            "a2",
            run_a2(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512], p.get("seed")),
        )
    },
    render: report::render_a2,
};
