//! The Figure 7 phase histograms and the A1 foreign-agent ablation's
//! registries, read straight off the typed runners and compared with the
//! `metrics` body of their goldens, which the `PINNED` table in
//! `goldens.rs` pins (and regenerates) whole.

use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::{run_a1, run_fig7};

/// The `metrics` body of the sidecar golden `file`.
fn golden_metrics(file: &str) -> Json {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    doc.get("metrics").cloned().expect("a metrics member")
}

#[test]
fn fig7_phase_histogram_export_matches_golden() {
    let result = run_fig7(4, 1996);
    let phases = result.metrics.get("phases").expect("phases");

    // Sanity before the byte comparison: all five phase histograms are
    // present and each holds one sample per measured run (runs + 1
    // switches, minus the settle and ARP warm-up timelines).
    let metrics = phases.get("metrics").expect("metrics");
    for phase in ["configure", "route", "request_reply", "post", "total"] {
        let h = metrics.get(&format!("mh/reg_phase/{phase}")).expect(phase);
        assert_eq!(h.get("type"), Some(&Json::from("histogram")), "{phase}");
        assert_eq!(h.get("count"), Some(&Json::from(4u64)), "{phase} samples");
    }

    let golden = golden_metrics("fig7.metrics.json");
    assert_eq!(
        phases.render_pretty(),
        golden.get("phases").expect("golden phases").render_pretty(),
        "fig7 phase histograms drifted from fig7.metrics.json"
    );
}

/// The A1 ablation's three registries (agentless, foreign agents, foreign
/// agents + previous-FA forwarding): the one golden that runs
/// `FaMobileHost`, so the foreign-agent baseline's registration client is
/// pinned beside the agentless one.
#[test]
fn a1_foreign_agent_ablation_export_matches_golden() {
    let result = run_a1(4, 1996);
    assert_eq!(
        result.metrics.render_pretty(),
        golden_metrics("a1.metrics.json").render_pretty(),
        "a1 registries drifted from a1.metrics.json"
    );
}
