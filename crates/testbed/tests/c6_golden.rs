//! Same-seed determinism of the C6 standby-failover run. Its goldens are
//! pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::run_c6;

/// Two same-seed runs must produce byte-identical sidecars: the crash is
/// scripted, the failover path is driven entirely by seeded timers, and
/// nothing reads the wall clock.
#[test]
fn c6_same_seed_runs_are_byte_identical() {
    let a = run_c6(7).0.render_pretty();
    let b = run_c6(7).0.render_pretty();
    assert_eq!(a, b);
}
