//! Golden-file test for the S3 saturation benchmark's deterministic
//! sidecar.
//!
//! Every quantity in the `mosquitonet.bench/v1` sidecar is an exact
//! counter or a virtual-time delta — wall-clock rates are kept out of it
//! by construction — so the export must be byte-stable for a fixed
//! config. CI runs `experiment s3_saturation` at these same smoke-scale
//! parameters and diffs its sidecar against the golden kept here. If a
//! deliberate change to the packet path moves the export, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p mosquitonet-testbed --test s3_golden
//! ```
//! and review the diff like any other golden change.

mod common;

use common::assert_golden;
use mosquitonet_testbed::experiments::{run_s3, run_s3_sharded, S3Config};
use mosquitonet_testbed::report::{sidecar, SidecarKind};

/// CI's smoke-scale parameters: `experiment s3_saturation pairs=2 burst=8
/// ticks=10 seed=1996`.
const SMOKE: S3Config = S3Config {
    pairs: 2,
    burst: 8,
    ticks: 10,
    seed: 1996,
    batching: true,
};

#[test]
fn s3_export_matches_golden_and_saturates_cleanly() {
    let result = run_s3(&SMOKE);

    assert_eq!(result.rows.len(), 3, "tunnel, direct, and fa rows");
    for row in &result.rows {
        let expected = u64::from(SMOKE.pairs) * u64::from(SMOKE.burst) * u64::from(SMOKE.ticks);
        assert_eq!(
            row.sent, expected,
            "{}: senders must pump every tick",
            row.mode
        );
        assert_eq!(
            row.delivered, row.sent,
            "{}: the drain window must land every queued frame",
            row.mode
        );
        assert!(
            row.pps > 0,
            "{}: a delivery rate must be measured",
            row.mode
        );
        assert!(
            row.batches <= row.events,
            "{}: a batch executes at least one event",
            row.mode
        );
        assert_ne!(row.wall_ns, 0, "{}: wall clock must advance", row.mode);
    }
    let tunnel = &result.rows[0];
    assert!(
        tunnel.ha_decapsulated >= tunnel.sent,
        "reverse tunnel must route every datagram through the home agent"
    );
    let direct = &result.rows[1];
    assert_eq!(
        direct.ha_forwarded, 0,
        "direct encapsulation must bypass the home agent"
    );

    assert_golden(
        "s3_saturation.bench.json",
        &sidecar(SidecarKind::Bench, "s3_saturation", &result.to_json()).render_pretty(),
    );
}

/// The sharded variant's three sidecars at CI's smoke parameters
/// (the same run with `threads=<n>`, 4 shards). CI runs the
/// experiment at 1, 2, and 4 worker threads and diffs all of them against
/// these same goldens, so this test pins single-thread output and the
/// `shard_determinism` proptest carries the identity to other thread
/// counts.
#[test]
fn s3_sharded_exports_match_goldens_and_saturate_cleanly() {
    let result = run_s3_sharded(&SMOKE, 4, 1);

    let per_shard = u64::from(SMOKE.pairs) * u64::from(SMOKE.burst) * u64::from(SMOKE.ticks);
    assert_eq!(
        result.row.sent,
        per_shard * 4,
        "every campus pumps every tick"
    );
    assert_eq!(
        result.row.delivered, result.row.sent,
        "the drain window must land every queued frame, local and cross-shard"
    );
    assert!(
        result.arena_resets > 0,
        "cross-shard staging must recycle the envelope arena"
    );

    for (name, rendered) in [
        (
            "s3_sharded.bench.json",
            sidecar(SidecarKind::Bench, "s3_sharded", &result.to_json()).render_pretty(),
        ),
        (
            "s3_sharded.journeys.json",
            sidecar(SidecarKind::Journeys, "s3_sharded", &result.journeys).render_pretty(),
        ),
        (
            "s3_sharded.metrics.json",
            sidecar(SidecarKind::Metrics, "s3_sharded", &result.metrics).render_pretty(),
        ),
    ] {
        assert_golden(name, &rendered);
    }
}

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
    let a = run_s3(&cfg).to_json().render_pretty();
    let b = run_s3(&cfg).to_json().render_pretty();
    assert_eq!(a, b);
}
