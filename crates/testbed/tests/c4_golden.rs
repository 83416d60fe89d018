//! Golden-file test for the C4 lossy-registration chaos experiment.
//!
//! `run_c4` drives same-subnet address switches under a seeded
//! [`FaultPlan`](mosquitonet_link::FaultPlan) loss sweep; every RNG in
//! play (engine, fault plans, retry jitter) is derived from the seed, so
//! the sidecar export must be byte-stable for a fixed (switches, seed).
//! If a deliberate protocol or timing change moves the export, regenerate
//! with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test c4_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::run_c4;
use mosquitonet_testbed::report::{sidecar, SidecarKind};

const SWITCHES: u32 = 2;
const SEED: u64 = 1996;

#[test]
fn c4_export_matches_golden_and_survives_loss() {
    let result = run_c4(SWITCHES, SEED);

    // The acceptance bar: at 20 % uniform loss on the care-of link every
    // commanded switch still completes its registration.
    for row in &result.rows {
        if row.loss_pct <= 20 {
            assert_eq!(
                row.completed, row.switches,
                "at {} % loss only {}/{} switches completed",
                row.loss_pct, row.completed, row.switches
            );
        }
        // Loss rates above 0 must actually have injected faults.
        if row.loss_pct > 0 {
            assert!(
                row.drops_injected > 0,
                "{} % loss injected nothing",
                row.loss_pct
            );
        } else {
            assert_eq!(row.drops_injected, 0, "0 % loss must inject nothing");
            assert_eq!(row.retries, 0, "lossless switches should not retry");
        }
    }

    assert_golden(
        "c4_lossy_registration.metrics.json",
        &sidecar(
            SidecarKind::Metrics,
            "c4_lossy_registration",
            &result.metrics,
        )
        .render_pretty(),
    );
}

/// Two same-seed runs must produce byte-identical sidecars: the fault
/// plans and retry backoffs own their RNGs, nothing reads the wall clock,
/// and `Json` preserves member order.
#[test]
fn c4_same_seed_runs_are_byte_identical() {
    let a = run_c4(1, 7).metrics.render_pretty();
    let b = run_c4(1, 7).metrics.render_pretty();
    assert_eq!(a, b);
}
