//! Determinism of the S2 home-agent fleet: across seeds and across worker
//! counts. Its goldens are pinned, at 1, 2 and 4 threads, by the `PINNED`
//! table in `goldens.rs`.

use mosquitonet_testbed::experiments::{run_s2, S2Config};

/// The `PINNED` row's parameters: `s2_ha_fleet shards=4 mobile_hosts=200
/// burst=4 ticks=20 seed=1996`.
const SMOKE: S2Config = S2Config {
    shards: 4,
    mobile_hosts: 200,
    burst: 4,
    ticks: 20,
    seed: 1996,
    batching: true,
};

/// Thread count must not leak into any deterministic output: the smoke
/// fleet stepped by two workers is byte-identical to the single-thread
/// run the goldens pin.
#[test]
fn s2_two_worker_run_is_byte_identical_to_single_thread() {
    let one = run_s2(&SMOKE, 1);
    let two = run_s2(&SMOKE, 2);
    assert_eq!(one.to_json().render_pretty(), two.to_json().render_pretty());
    assert_eq!(one.journeys.render_pretty(), two.journeys.render_pretty());
    assert_eq!(one.metrics.render_pretty(), two.metrics.render_pretty());
}

/// Two same-seed runs must produce byte-identical bench sidecars.
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
    let a = run_s2(&cfg, 1).to_json().render_pretty();
    let b = run_s2(&cfg, 1).to_json().render_pretty();
    assert_eq!(a, b);
}
