//! Property test for the sharded world engine: stepping the same sharded
//! config twice in one process must produce *byte-identical* output — not
//! statistically similar traffic, but the same packets taking the same
//! hops at the same virtual instants, the same metrics counters, and the
//! same measured row. The second run shares the first's thread-local
//! packet pool and allocator state, so this also checks that no output
//! depends on them.
//!
//! The sharded S3 topology is the sharpest probe available: every campus
//! pumps both intra-shard flows (never crossing a barrier) and
//! cross-shard flows (staged as envelopes over the backbone trunk), so
//! any synchronization slip — a frame executed in the wrong window, an
//! envelope injected out of (shard, seq) order, an RNG stream touched by
//! foreign traffic — shows up as a byte diff in the journeys sidecar.

use proptest::prelude::*;

use mosquitonet_testbed::experiments::{run_s3_sharded, S3Config, S3Row};

/// Everything in an [`S3Row`] except `wall_ns` (real time) must match.
fn assert_rows_equal(a: &S3Row, b: &S3Row) {
    prop_assert_eq!(a.mode, b.mode);
    prop_assert_eq!(a.sent, b.sent);
    prop_assert_eq!(a.delivered, b.delivered);
    prop_assert_eq!(a.bytes, b.bytes);
    prop_assert_eq!(a.mh_output, b.mh_output);
    prop_assert_eq!(a.mh_encapsulated, b.mh_encapsulated);
    prop_assert_eq!(a.ha_forwarded, b.ha_forwarded);
    prop_assert_eq!(a.ha_decapsulated, b.ha_decapsulated);
    prop_assert_eq!(a.events, b.events);
    prop_assert_eq!(a.batches, b.batches);
    prop_assert_eq!(a.span_ns, b.span_ns);
    prop_assert_eq!(a.pps, b.pps);
    prop_assert_eq!(a.ns_per_packet, b.ns_per_packet);
}

proptest! {
    #[test]
    fn repeated_runs_in_one_process_are_byte_identical(
        wide in any::<bool>(),
        burst in 1u32..=3,
        ticks in 1u32..=3,
        seed in 1u64..=4,
    ) {
        let shards = if wide { 4 } else { 2 };
        let cfg = S3Config { pairs: 2, burst, ticks, seed, batching: true };

        let first = run_s3_sharded(&cfg, shards, 1);
        // The topology must actually carry traffic, or the identity
        // checks below would pass vacuously.
        prop_assert!(first.row.delivered > 0, "sharded S3 delivered nothing");

        let again = run_s3_sharded(&cfg, shards, 1);
        prop_assert_eq!(
            again.journeys.render_pretty(),
            first.journeys.render_pretty(),
            "journeys sidecar diverged"
        );
        prop_assert_eq!(
            again.metrics.render_pretty(),
            first.metrics.render_pretty(),
            "metrics sidecar diverged"
        );
        assert_rows_equal(&again.row, &first.row);
        prop_assert_eq!(again.arena_resets, first.arena_resets);
    }
}
