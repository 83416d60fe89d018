//! Same-seed determinism of the S1 many-correspondents run. Its golden is
//! pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::run_s1;

/// Two same-seed runs must produce byte-identical sidecars: the decision
/// cache is deterministic state, the counters are exact deltas, and
/// `Json` preserves member order.
#[test]
fn s1_same_seed_runs_are_byte_identical() {
    let a = run_s1(64, 7).metrics.render_pretty();
    let b = run_s1(64, 7).metrics.render_pretty();
    assert_eq!(a, b);
}
