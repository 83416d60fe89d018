//! Determinism of the S2 home-agent fleet from run to run. Its goldens are
//! pinned by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::{run_s2, S2Config};

/// Two same-seed runs in one process must produce byte-identical
/// sidecars: the second reuses the first's warm packet pool and
/// allocator, and no output may depend on them.
#[test]
fn s2_same_seed_runs_are_byte_identical() {
    let cfg = S2Config {
        shards: 2,
        mobile_hosts: 50,
        burst: 2,
        ticks: 5,
        seed: 7,
        batching: true,
    };
    let (a, b) = (run_s2(&cfg, 1), run_s2(&cfg, 1));
    assert_eq!(a.to_json().render_pretty(), b.to_json().render_pretty());
    assert_eq!(a.journeys.render_pretty(), b.journeys.render_pretty());
    assert_eq!(a.metrics.render_pretty(), b.metrics.render_pretty());
}
