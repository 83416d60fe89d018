//! Golden-file test for the C6 standby-failover experiment.
//!
//! `run_c6` kills the primary home agent for good and waits for the MH
//! to fail over to the replica-fed standby; every RNG in play derives
//! from the seed, so the sidecar export must be byte-stable for a fixed
//! seed. If a deliberate protocol or timing change moves the export,
//! regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test c6_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::run_c6;
use mosquitonet_testbed::report::{sidecar, SidecarKind};

const SEED: u64 = 1996;

#[test]
fn c6_export_matches_golden_and_standby_takes_over() {
    let result = run_c6(SEED);

    // The acceptance bar: exactly one failover, entered through the
    // degradation ladder, landing on a standby that had absorbed the
    // primary's replicas — and once it takes over, traffic is clean in
    // both directions via the standby's tunnel.
    assert_eq!(result.ha_failovers, 1, "one rotation to the standby");
    assert_eq!(result.degradations, 1, "one entry into degraded mode");
    assert!(
        result.direct_encap_lookups > 0,
        "degraded reverse tunnels must have resolved as direct encap"
    );
    assert!(
        result.replicas_applied >= 1,
        "the standby must have applied the primary's replicas"
    );
    assert!(
        result.standby_accepted >= 1,
        "the standby must accept the MH's direct registration"
    );
    assert!(
        result.standby_encapsulated > 0,
        "post-failover inbound traffic must flow via the standby's tunnel"
    );
    assert!(result.in_lost_during > 0, "the outage must actually bite");
    assert_eq!(result.in_lost_after, 0, "inbound clean after failover");
    assert_eq!(result.out_lost_after, 0, "outbound clean after failover");

    assert_golden(
        "c6_standby_failover.metrics.json",
        &sidecar(SidecarKind::Metrics, "c6_standby_failover", &result.metrics).render_pretty(),
    );
}

/// Two same-seed runs must produce byte-identical sidecars: the crash is
/// scripted, the failover path is driven entirely by seeded timers, and
/// nothing reads the wall clock.
#[test]
fn c6_same_seed_runs_are_byte_identical() {
    let a = run_c6(7).metrics.render_pretty();
    let b = run_c6(7).metrics.render_pretty();
    assert_eq!(a, b);
}
