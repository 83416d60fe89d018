//! Golden-file test for the C7 spoofed/replayed-registration experiment.
//!
//! `run_c7` aims forged and replayed registrations at a home agent that
//! requires authentication, crashing and restarting the agent partway;
//! every RNG in play derives from the seed, so the sidecar export must be
//! byte-stable for a fixed seed. If a deliberate protocol or timing
//! change moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test c7_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::run_c7;
use mosquitonet_testbed::report::{sidecar, SidecarKind};

const SEED: u64 = 1996;

#[test]
fn c7_export_matches_golden_and_binding_never_moves() {
    let result = run_c7(SEED);

    // The acceptance bar: the attack accomplishes nothing. No injection
    // is accepted, the binding stays at the genuine care-of address, and
    // the echo session doesn't notice the attack at all (the crash
    // window is the only loss).
    assert_eq!(result.attacker_accepted, 0, "no injection may be accepted");
    assert!(result.binding_intact, "the binding must never move");
    assert_eq!(result.lost_attack, 0, "the attack must not disturb traffic");
    assert_eq!(result.lost_after, 0, "post-recovery probes must complete");
    // Every injection is accounted for on both ends: the forgeries die
    // at the authentication check, the replays (including the one sent
    // after the restart, against the journal-restored floor) die at the
    // identification window.
    assert_eq!(result.auth_failures, result.spoofs, "each forgery denied");
    assert_eq!(result.auth_replays, result.replays, "each replay denied");
    assert_eq!(
        result.attacker_denied,
        result.spoofs + result.replays,
        "the attacker saw a denial for every injection"
    );
    assert_eq!(result.ha_epoch, 1, "one restart, one epoch bump");

    assert_golden(
        "c7_spoofed_registration.metrics.json",
        &sidecar(
            SidecarKind::Metrics,
            "c7_spoofed_registration",
            &result.metrics,
        )
        .render_pretty(),
    );
}

/// Two same-seed runs must produce byte-identical sidecars: the
/// injection schedule is scripted, every RNG is seeded, and nothing
/// reads the wall clock.
#[test]
fn c7_same_seed_runs_are_byte_identical() {
    let a = run_c7(7).metrics.render_pretty();
    let b = run_c7(7).metrics.render_pretty();
    assert_eq!(a, b);
}
