//! Golden-file tests for the Figure 7 metrics export and, at the end, the
//! A1 foreign-agent ablation's.
//!
//! `run_fig7` records every measured registration phase into a dedicated
//! registry of fixed-bucket latency histograms; the sidecar rendering of
//! that registry must stay byte-stable for a fixed (runs, seed) — the
//! simulation is deterministic and `Json` preserves member order. If a
//! deliberate timing or schema change moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test fig7_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_sim::Json;
use mosquitonet_testbed::experiments::{run_a1, run_fig7};
use mosquitonet_testbed::report::{sidecar, SidecarKind};

fn obj_get<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(members) => members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn fig7_phase_histogram_export_matches_golden() {
    let result = run_fig7(4, 1996);
    let phases = obj_get(&result.metrics, "phases");

    // Sanity before the byte comparison: all five phase histograms are
    // present and each holds one sample per measured run (runs + 1
    // switches, minus the settle and ARP warm-up timelines).
    let metrics = obj_get(phases, "metrics");
    for phase in ["configure", "route", "request_reply", "post", "total"] {
        let h = obj_get(metrics, &format!("mh/reg_phase/{phase}"));
        assert_eq!(obj_get(h, "type"), &Json::from("histogram"), "{phase}");
        assert_eq!(obj_get(h, "count"), &Json::from(4u64), "{phase} samples");
    }

    assert_golden(
        "fig7_phases.metrics.json",
        &sidecar(SidecarKind::Metrics, "fig7_phases", phases).render_pretty(),
    );
}

/// The A1 ablation's three registries (agentless, foreign agents, foreign
/// agents + previous-FA forwarding): the one golden that runs
/// `FaMobileHost`, so the foreign-agent baseline's registration client is
/// pinned beside the agentless one. Regenerate as above.
#[test]
fn a1_foreign_agent_ablation_export_matches_golden() {
    let result = run_a1(4, 1996);
    assert_golden(
        "a1.metrics.json",
        &sidecar(SidecarKind::Metrics, "a1", &result.metrics).render_pretty(),
    );
}
