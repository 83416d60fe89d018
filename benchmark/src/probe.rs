//! The timing loop behind every probe: call one function of a layer
//! until a batch's time budget is spent, five batches, report the median
//! nanoseconds per call and the exact allocations per call.

use std::time::{Duration, Instant};

use crate::alloc;
use crate::stats::median;

/// Batches per probe; the reported time is their median.
pub const BATCHES: usize = 5;

/// One probe's result.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median over batches of wall nanoseconds per call.
    pub ns_per_op: f64,
    /// Allocations per call over the last batch (0 in the untraced
    /// binary, which has no counting allocator).
    pub allocs_per_op: f64,
}

/// Times `op` alone. The loop checks the clock once per chunk and doubles
/// the chunk until a check costs under a percent of the chunk.
pub fn time_op(batch: Duration, mut op: impl FnMut()) -> Timing {
    let mut chunk = 1u64;
    time_batches(|| {
        let allocs0 = alloc::counts().0;
        let started = Instant::now();
        let mut iters = 0u64;
        loop {
            for _ in 0..chunk {
                op();
            }
            iters += chunk;
            let elapsed = started.elapsed();
            if elapsed >= batch {
                let allocs = alloc::counts().0 - allocs0;
                return (elapsed, iters, allocs);
            }
            if chunk < 4096 && elapsed * 64 < batch {
                chunk *= 2;
            }
        }
    })
}

/// Times `op` in chunks of `chunk` calls with `untimed` run before each
/// chunk and left out of the measurement — for a call that needs its
/// fixture restored (a cache refilled, an event queue drained). The batch
/// ends once the *timed* part reaches `batch`, or the whole loop 8× that.
pub fn time_chunks(
    batch: Duration,
    chunk: u64,
    mut op: impl FnMut(),
    mut untimed: impl FnMut(),
) -> Timing {
    time_batches(|| {
        let loop_started = Instant::now();
        let (mut timed, mut iters, mut allocs) = (Duration::ZERO, 0u64, 0u64);
        while timed < batch && loop_started.elapsed() < batch * 8 {
            untimed();
            let allocs0 = alloc::counts().0;
            let started = Instant::now();
            for _ in 0..chunk {
                op();
            }
            timed += started.elapsed();
            allocs += alloc::counts().0 - allocs0;
            iters += chunk;
        }
        (timed, iters, allocs)
    })
}

fn time_batches(mut batch: impl FnMut() -> (Duration, u64, u64)) -> Timing {
    let mut ns = Vec::with_capacity(BATCHES);
    let mut allocs_per_op = 0.0;
    for _ in 0..BATCHES {
        let (elapsed, iters, allocs) = batch();
        ns.push(elapsed.as_nanos() as f64 / iters as f64);
        allocs_per_op = allocs as f64 / iters as f64;
    }
    Timing {
        ns_per_op: median(&ns),
        allocs_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_grows_with_the_work_per_call() {
        // black_box is a hint: confirm the loop body is really measured.
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
                std::hint::black_box(x);
            }
        };
        let batch = Duration::from_millis(2);
        let short = time_op(batch, spin(10)).ns_per_op;
        let long = time_op(batch, spin(1000)).ns_per_op;
        assert!(long > short * 5.0, "short {short} ns, long {long} ns");
    }

    #[test]
    fn untimed_part_runs_before_every_chunk_and_is_not_charged() {
        let mut restores = 0u64;
        let mut calls = 0u64;
        let t = time_chunks(
            Duration::from_micros(200),
            4,
            || calls += 1,
            || {
                restores += 1;
                std::thread::sleep(Duration::from_micros(50));
            },
        );
        assert_eq!(calls, restores * 4);
        assert!(t.ns_per_op < 25_000.0, "sleep leaked into {}", t.ns_per_op);
    }
}
