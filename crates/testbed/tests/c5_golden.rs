//! Golden-file test for the C5 home-agent crash-recovery experiment.
//!
//! `run_c5` crashes the home agent mid-session (journal intact) and
//! restarts it; every RNG in play derives from the seed, so the sidecar
//! export must be byte-stable for a fixed seed. If a deliberate protocol
//! or timing change moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test c5_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::run_c5;
use mosquitonet_testbed::report::{sidecar, SidecarKind};

const SEED: u64 = 1996;

#[test]
fn c5_export_matches_golden_and_session_survives_the_crash() {
    let result = run_c5(SEED);

    // The acceptance bar: the in-flight correspondent session survives
    // the crash+restart. The settled window before the crash is clean,
    // the outage costs packets, and after the MH reconverges (epoch
    // change seen, re-registered) not one more probe is lost.
    assert_eq!(result.lost_before, 0, "pre-crash window must be clean");
    assert!(result.lost_during > 0, "the outage must actually bite");
    assert_eq!(
        result.lost_after, 0,
        "post-reconvergence probes must all complete"
    );
    // The restart really went through the journal and the epoch machinery.
    assert_eq!(result.ha_epoch, 1, "one restart, one epoch bump");
    assert_eq!(result.epoch_changes, 1, "MH saw exactly one epoch change");
    assert!(
        result.journal_replayed >= 1,
        "the restarted agent must replay the MH's binding"
    );

    assert_golden(
        "c5_ha_crash_recovery.metrics.json",
        &sidecar(
            SidecarKind::Metrics,
            "c5_ha_crash_recovery",
            &result.metrics,
        )
        .render_pretty(),
    );

    assert_golden(
        "c5_ha_crash_recovery.journeys.json",
        &sidecar(
            SidecarKind::Journeys,
            "c5_ha_crash_recovery",
            &result.journeys,
        )
        .render_pretty(),
    );
}

/// The flight recorder's reconstruction of the outage must agree exactly
/// with the sender's own bookkeeping: during the home-agent downtime the
/// correspondent's probes all die inside the network, so the number of
/// dropped correspondent-origin flights equals the probes the sender
/// counted lost in the crash-to-reconvergence window, and the blackout
/// edges equal the first and last lost send times.
#[test]
fn c5_blackout_from_flights_equals_golden_loss_window() {
    let result = run_c5(SEED);
    assert_eq!(result.lost_before, 0, "pre-crash window must be clean");
    assert_eq!(
        result.lost_after, 0,
        "post-reconvergence window must be clean"
    );
    let (lost, first_us, last_us) = result
        .blackout
        .expect("the outage drops probes, so a blackout must be derivable");
    assert_eq!(
        lost, result.lost_during,
        "dropped correspondent flights must equal the sender's loss count"
    );
    assert_eq!(
        lost as usize,
        result.lost_during_times_us.len(),
        "sender bookkeeping is self-consistent"
    );
    assert_eq!(
        Some(first_us),
        result.lost_during_times_us.first().copied(),
        "blackout start must be the first lost probe's send time"
    );
    assert_eq!(
        Some(last_us),
        result.lost_during_times_us.last().copied(),
        "blackout end must be the last lost probe's send time"
    );
}

/// Two same-seed runs must produce byte-identical sidecars: the crash
/// schedule is scripted, every RNG is seeded, and nothing reads the wall
/// clock.
#[test]
fn c5_same_seed_runs_are_byte_identical() {
    let a = run_c5(7).metrics.render_pretty();
    let b = run_c5(7).metrics.render_pretty();
    assert_eq!(a, b);
}
