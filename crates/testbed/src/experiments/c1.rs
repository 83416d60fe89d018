//! Claim C1 (§3.2): the byte overhead of IP-in-IP encapsulation.

use mosquitonet_sim::{Json, MetricsRegistry};
use mosquitonet_wire::{ipip, IpProto, Ipv4Header, Ipv4Packet};

use super::common::result_row;
use super::{with_result, Experiment};
use crate::report;
use crate::topology::{self, CH_DEPT, COA_DEPT, MH_HOME};

result_row! {
    /// One row of the encapsulation-overhead table (claim C1, §3.2).
    #[derive(Debug)]
    pub struct C1Row {
        /// Inner payload bytes.
        pub payload: usize,
        /// Plain packet length.
        pub plain: usize,
        /// Encapsulated length.
        pub encapsulated: usize,
        /// Added bytes.
        pub overhead: usize,
        /// Overhead as a percentage of the plain length.
        pub overhead_pct: f64,
    }
}

/// Measures the byte overhead of IP-in-IP encapsulation across sizes.
pub fn run_c1() -> Vec<C1Row> {
    [0usize, 64, 256, 512, 1024, 1452]
        .into_iter()
        .map(|payload| {
            let inner = Ipv4Packet::new(
                Ipv4Header::new(CH_DEPT, MH_HOME, IpProto::Udp),
                vec![0u8; payload].into(),
            );
            let outer = ipip::encapsulate(&inner, topology::ROUTER_HOME, COA_DEPT);
            let plain = inner.total_len();
            let encapsulated = outer.total_len();
            C1Row {
                payload,
                plain,
                encapsulated,
                overhead: encapsulated - plain,
                overhead_pct: (encapsulated - plain) as f64 * 100.0 / plain as f64,
            }
        })
        .collect()
}

pub(super) const C1: Experiment = Experiment {
    name: "c1_encap_overhead",
    about: "C1: IP-in-IP encapsulation byte overhead (§3.2)",
    params: &[],
    artifacts: &["c1.metrics"],
    run: |_| {
        let rows = run_c1();
        let result = Json::arr(rows.iter().map(C1Row::to_json));
        // C1 is analytic (no simulated hosts); the sidecar carries an
        // empty registry so downstream tooling sees a uniform file set.
        let metrics = MetricsRegistry::new().to_json();
        with_result(report::render_c1(&rows), "c1", result, metrics)
    },
};
