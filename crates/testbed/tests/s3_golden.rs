//! Same-seed determinism of the S3 saturation run. Its goldens are pinned
//! by the `PINNED` table in `goldens.rs`.

use mosquitonet_testbed::experiments::{run_s3, S3Config};

/// Two same-seed runs must produce byte-identical bench sidecars.
#[test]
fn s3_same_seed_runs_are_byte_identical() {
    let cfg = S3Config {
        pairs: 1,
        burst: 4,
        ticks: 5,
        seed: 7,
        batching: true,
    };
    let a = run_s3(&cfg).render_pretty();
    let b = run_s3(&cfg).render_pretty();
    assert_eq!(a, b);
}
