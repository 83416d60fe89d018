//! A fixed reference loop that measures how fast the machine is *now*.
//!
//! The sandbox this benchmark runs in is a shared virtual machine whose
//! speed wanders by up to 2× over seconds to minutes (measured: a pure CPU
//! loop took 39 to 81 ms within one minute, CPU time equal to wall time,
//! no steal reported). The wall-clock median of a 24 s run then moves by
//! 7–38 % between runs of identical code (interquartile range of ten
//! runs over their median), which is wider than any bound the benchmark
//! may set. So every repeat is bracketed by two calls of this yardstick,
//! and the end-to-end times are divided by the repeat's *slowdown*:
//! yardstick time ÷ [`NOMINAL_NS`]. The corrected figures read as wall
//! time on a machine that runs the yardstick in exactly the nominal
//! time; run to run they move by 2–9 %.
//!
//! The loop is the simulator's instruction mix, not the simulator: a
//! binary heap and a hash set of pending ids, a boxed allocation per
//! step, a formatted string every fourth step, and one dependent load
//! per step from a walk through 8 MB. About half its time is that load
//! missing the caches and half is computing on a small working set,
//! because the machine's slow spells come in both kinds and the
//! workloads feel them differently: measured over 24 s chunks, the
//! compute half alone steadies `bulk_tunnel` (spread 24 % → 5 %) and does
//! nothing for `reg_churn`, whose 300 MB of tables need the memory half
//! (9 % → 7 %); an arithmetic-only loop steadies neither. It depends on
//! nothing in the repository, so no change to the program can move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Yardstick time, in nanoseconds, on the reference machine: the median
/// on the 2-core container the benchmark was defined on. It only fixes
/// the scale of the corrected figures.
pub const NOMINAL_NS: f64 = 33_000_000.0;

const PENDING: u64 = 4096;
const STEPS: u32 = 100_000;
const WALK_LEN: usize = 2_000_000;

/// The reference loop and its state.
pub struct Yardstick {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    pending: HashSet<u64>,
    walk: Vec<u32>,
    next_id: u64,
    at: u32,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// Builds the loop's state and runs it once, so the first timed call
    /// finds its memory already touched.
    pub fn new() -> Yardstick {
        let mut heap = BinaryHeap::new();
        let mut pending = HashSet::new();
        for id in 0..PENDING {
            heap.push(Reverse((id * 7, id)));
            pending.insert(id);
        }
        // One cycle through all of `walk` (Sattolo's shuffle from a fixed
        // seed), so every load depends on the one before.
        let mut walk: Vec<u32> = (0..WALK_LEN as u32).collect();
        let mut state = 12_345u64;
        for i in (1..WALK_LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            walk.swap(i, (state >> 33) as usize % i);
        }
        let mut yardstick = Yardstick {
            heap,
            pending,
            walk,
            next_id: PENDING,
            at: 0,
        };
        yardstick.run_ns();
        yardstick
    }

    /// Runs the fixed amount of work and returns the wall nanoseconds it
    /// took. Every call does identical work.
    pub fn run_ns(&mut self) -> f64 {
        let started = Instant::now();
        let mut log: Vec<String> = Vec::new();
        for _ in 0..STEPS {
            let Reverse((due, id)) = self.heap.pop().expect("the heap never drains");
            self.pending.remove(&id);
            let body: Box<[u8; 96]> = Box::new([due as u8; 96]);
            self.next_id += 1;
            self.heap.push(Reverse((
                due + PENDING * 7 + u64::from(body[3] & 1),
                self.next_id,
            )));
            self.pending.insert(self.next_id);
            if self.next_id.is_multiple_of(4) {
                log.push(format!(
                    "udp 36.135.0.9:4000 -> 36.8.0.7:9000 seq {}",
                    self.next_id
                ));
            }
            self.at = self.walk[self.at as usize];
            black_box(&body);
        }
        black_box((self.at, log.len()));
        started.elapsed().as_nanos() as f64
    }
}

/// The slowdown of a repeat bracketed by two yardstick calls: their mean
/// over the nominal time. Above 1 the machine was slower than nominal.
pub fn slowdown(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns + after_ns) / 2.0 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_does_the_same_work() {
        let mut y = Yardstick::new();
        let (heap, pending, id) = (y.heap.len(), y.pending.len(), y.next_id);
        assert!(y.run_ns() > 0.0);
        assert_eq!((y.heap.len(), y.pending.len()), (heap, pending));
        assert_eq!(y.next_id - id, u64::from(STEPS));
    }

    #[test]
    fn slowdown_is_relative_to_nominal() {
        assert_eq!(slowdown(NOMINAL_NS, NOMINAL_NS), 1.0);
        assert_eq!(slowdown(NOMINAL_NS, 3.0 * NOMINAL_NS), 2.0);
    }
}
