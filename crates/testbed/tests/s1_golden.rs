//! Golden-file test for the S1 many-correspondents scale experiment.
//!
//! `run_s1` drives one probe per correspondent per phase through the
//! unified decision cache; every row is an exact counter delta and every
//! RNG derives from the seed, so the sidecar must be byte-stable for a
//! fixed (correspondents, seed). If a deliberate change to the cache or
//! the registration path moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test s1_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::{run_s1, S1Row};
use mosquitonet_testbed::report::{sidecar, SidecarKind};

/// CI runs `experiment s1_many_correspondents` with the same population so the sidecar it emits
/// diffs cleanly against the golden file kept here.
const CORRESPONDENTS: u32 = 512;
const SEED: u64 = 1996;

fn row<'a>(rows: &'a [S1Row], phase: &str) -> &'a S1Row {
    rows.iter()
        .find(|r| r.phase == phase)
        .unwrap_or_else(|| panic!("missing phase {phase}"))
}

#[test]
fn s1_export_matches_golden_and_cache_behaves() {
    let result = run_s1(CORRESPONDENTS, SEED);
    let n = u64::from(CORRESPONDENTS);

    // The acceptance bar, phase by phase. The sends in each round happen
    // back to back with no intervening control traffic, so the deltas are
    // exact, not approximate.
    let cold = row(&result.rows, "cold");
    assert_eq!(cold.misses, n, "first contact must fully resolve");
    assert_eq!(cold.hits, 0, "nothing can hit an empty cache");
    assert!(
        cold.cache_entries >= n,
        "every correspondent decision must be cached"
    );

    let warm = row(&result.rows, "warm");
    assert_eq!(warm.hits, n, "steady state must be pure cache replay");
    assert_eq!(warm.misses, 0, "a warm-phase miss means a bogus flush");

    // Re-registration moves the validity token: the flush lands either on
    // the registration's own lookups or on the first rewarm probe.
    let rereg = row(&result.rows, "reregister");
    let rewarm = row(&result.rows, "rewarm");
    assert!(
        rereg.invalidations + rewarm.invalidations >= 1,
        "the care-of move must invalidate the cache"
    );
    assert_eq!(
        rewarm.misses, n,
        "after invalidation every correspondent re-resolves"
    );

    let steady = row(&result.rows, "steady");
    assert_eq!(steady.hits, n, "the refilled cache must replay again");
    assert_eq!(steady.misses, 0);

    assert_golden(
        "s1_many_correspondents.metrics.json",
        &sidecar(
            SidecarKind::Metrics,
            "s1_many_correspondents",
            &result.metrics,
        )
        .render_pretty(),
    );
}

/// Two same-seed runs must produce byte-identical sidecars: the decision
/// cache is deterministic state, the counters are exact deltas, and
/// `Json` preserves member order.
#[test]
fn s1_same_seed_runs_are_byte_identical() {
    let a = run_s1(64, 7).metrics.render_pretty();
    let b = run_s1(64, 7).metrics.render_pretty();
    assert_eq!(a, b);
}
