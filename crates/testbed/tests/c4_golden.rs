//! Same-seed determinism of the C4 lossy-registration chaos run. Its
//! goldens are pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::run_c4;

/// Two same-seed runs must produce byte-identical sidecars: the fault
/// plans and retry backoffs own their RNGs, nothing reads the wall clock,
/// and `Json` preserves member order.
#[test]
fn c4_same_seed_runs_are_byte_identical() {
    let a = run_c4(1, 7).metrics.render_pretty();
    let b = run_c4(1, 7).metrics.render_pretty();
    assert_eq!(a, b);
}
