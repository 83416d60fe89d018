//! Same-seed determinism of the C5 home-agent crash-recovery run. Its
//! goldens are pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::run_c5;

/// Two same-seed runs must produce byte-identical sidecars: the crash
/// schedule is scripted, every RNG is seeded, and nothing reads the wall
/// clock.
#[test]
fn c5_same_seed_runs_are_byte_identical() {
    let a = run_c5(7).metrics.render_pretty();
    let b = run_c5(7).metrics.render_pretty();
    assert_eq!(a, b);
}
