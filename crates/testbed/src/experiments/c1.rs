//! Claim C1 (§3.2): the byte overhead of IP-in-IP encapsulation.

use mosquitonet_sim::{Json, MetricsRegistry};
use mosquitonet_wire::{ipip, IpProto, Ipv4Header, Ipv4Packet};

use super::{metrics, with_result, Experiment};
use crate::report;
use crate::topology::{self, CH_DEPT, COA_DEPT, MH_HOME};

/// Measures the byte overhead of IP-in-IP encapsulation across sizes
/// (claim C1, §3.2). Returns the table: one row per inner `payload` size
/// with the `plain` and `encapsulated` lengths, the added bytes
/// (`overhead`) and `overhead_pct` of the plain length.
pub fn run_c1() -> Json {
    Json::arr([0usize, 64, 256, 512, 1024, 1452].map(|payload| {
        let inner = Ipv4Packet::new(
            Ipv4Header::new(CH_DEPT, MH_HOME, IpProto::Udp),
            vec![0u8; payload].into(),
        );
        let outer = ipip::encapsulate(&inner, topology::ROUTER_HOME, COA_DEPT);
        let plain = inner.total_len();
        let encapsulated = outer.total_len();
        Json::obj([
            ("payload", Json::from(payload)),
            ("plain", Json::from(plain)),
            ("encapsulated", Json::from(encapsulated)),
            ("overhead", Json::from(encapsulated - plain)),
            (
                "overhead_pct",
                Json::from((encapsulated - plain) as f64 * 100.0 / plain as f64),
            ),
        ])
    }))
}

pub(super) const C1: Experiment = Experiment {
    name: "c1_encap_overhead",
    about: "C1: IP-in-IP encapsulation byte overhead (§3.2)",
    params: &[],
    artifacts: &["c1.metrics"],
    // C1 is analytic (no simulated hosts); the sidecar carries an empty
    // registry so downstream tooling sees a uniform file set.
    run: |_| {
        metrics(
            "c1",
            with_result(run_c1(), MetricsRegistry::new().to_json()),
        )
    },
    render: report::render_c1,
};
