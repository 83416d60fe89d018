//! Same-seed determinism of the C7 spoofed/replayed-registration run. Its
//! goldens are pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::run_c7;

/// Two same-seed runs must produce byte-identical sidecars: the
/// injection schedule is scripted, every RNG is seeded, and nothing
/// reads the wall clock.
#[test]
fn c7_same_seed_runs_are_byte_identical() {
    let a = run_c7(7).0.render_pretty();
    let b = run_c7(7).0.render_pretty();
    assert_eq!(a, b);
}
