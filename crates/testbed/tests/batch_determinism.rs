//! Property test for the engine's per-tick batching: a batched run must
//! be *observationally identical* to an unbatched run of the same seed —
//! not merely similar rates, but the same packets taking the same hops at
//! the same virtual instants.
//!
//! The S3 mixed topology is the sharpest probe available: one
//! correspondent takes direct IP-in-IP, the other rides the reverse
//! tunnel through the home agent, and the per-destination fastpath cache
//! is live on both paths. The flight recorder's journeys export captures
//! every hop with microsecond timestamps, so any batching-induced
//! reordering shows up as a byte diff.

use proptest::prelude::*;

use mosquitonet_testbed::experiments::{run_s3_mode, S3Config, S3Mode};

proptest! {
    #[test]
    fn batched_and_unbatched_runs_are_identical(
        pairs in 1u32..=2,
        burst in 1u32..=4,
        ticks in 1u32..=4,
        seed in 1u64..=4,
    ) {
        let cfg = S3Config { pairs, burst, ticks, seed, batching: true };
        let (batched_row, batched_journeys) = run_s3_mode(S3Mode::Mixed, &cfg);
        let (unbatched_row, unbatched_journeys) =
            run_s3_mode(S3Mode::Mixed, &S3Config { batching: false, ..cfg });

        // Same packets, same hops, same timing — byte for byte.
        prop_assert_eq!(
            batched_journeys.render_pretty(),
            unbatched_journeys.render_pretty(),
            "flight-recorder journeys diverged between batched and unbatched runs"
        );

        // Same measured row. `batches` legitimately differs (an unbatched
        // run executes every event as its own batch) and `wall_ns` is
        // real time; everything else must match exactly.
        prop_assert_eq!(batched_row.sent, unbatched_row.sent);
        prop_assert_eq!(batched_row.delivered, unbatched_row.delivered);
        prop_assert_eq!(batched_row.bytes, unbatched_row.bytes);
        prop_assert_eq!(batched_row.mh_output, unbatched_row.mh_output);
        prop_assert_eq!(batched_row.mh_encapsulated, unbatched_row.mh_encapsulated);
        prop_assert_eq!(batched_row.ha_forwarded, unbatched_row.ha_forwarded);
        prop_assert_eq!(batched_row.ha_decapsulated, unbatched_row.ha_decapsulated);
        prop_assert_eq!(batched_row.events, unbatched_row.events);
        prop_assert_eq!(batched_row.span_ns, unbatched_row.span_ns);
        prop_assert_eq!(batched_row.pps, unbatched_row.pps);
        prop_assert_eq!(batched_row.ns_per_packet, unbatched_row.ns_per_packet);
    }
}
