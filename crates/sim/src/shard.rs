//! Conservative parallel stepping of sharded worlds.
//!
//! The topology is partitioned into *shards* — disjoint sub-worlds that
//! exchange traffic only through explicit inter-shard links. Each shard
//! owns a full [`Sim`]: its own event queue, RNG stream, metrics
//! registry, and flight-recorder segment. Shards step in parallel under
//! classic conservative (lookahead) synchronization:
//!
//! 1. every shard publishes the time of its next pending event;
//! 2. all workers agree on the global minimum `T`;
//! 3. each shard executes every event strictly before `T + L`, where
//!    `L` is the *lookahead* — the minimum latency of the inter-shard
//!    link model (for the network stack: the sending device's fixed
//!    transmit cost plus the trunk delay, not the trunk delay alone);
//! 4. frames that crossed a shard boundary during the window are
//!    exchanged as timestamped [`ShardEnvelope`]s at the barrier and
//!    injected in canonical `(source shard, sequence)` order.
//!
//! Step 3 is safe because an envelope emitted at time `t ≥ T` arrives
//! no earlier than `t + L ≥ T + L` — nothing another shard does during
//! the window can affect events below the window bound. Every quantity
//! that drives control flow (window bounds, envelope order, per-shard
//! event order) is independent of the worker count, so a run with `N`
//! threads is byte-identical to the same run with one thread. See
//! `docs/parallel_engine.md` for the full determinism argument.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::engine::Sim;
use crate::rng::mix64;
use crate::time::{SimDuration, SimTime};

/// A timestamped cross-shard message. Envelopes are staged by the
/// source shard during a window and injected into the destination shard
/// at the following barrier, sorted by `(src_shard, seq)` so injection
/// order never depends on thread scheduling.
#[derive(Debug)]
pub struct ShardEnvelope<P> {
    /// Stable id of the emitting shard.
    pub src_shard: u32,
    /// Stable id of the receiving shard.
    pub dst_shard: u32,
    /// Per-source-shard monotonic sequence number; `(src_shard, seq)`
    /// totally orders every envelope of a run.
    pub seq: u64,
    /// Absolute arrival time. Must be at or after the window bound the
    /// envelope was staged in — the lookahead contract.
    pub at: SimTime,
    /// The message itself (e.g. a wire frame plus addressing metadata).
    pub payload: P,
}

/// World types steppable by [`run_sharded`]. The world stages outgoing
/// envelopes while its events execute; the scheduler drains them at the
/// window boundary and injects them into their destination shards.
pub trait ShardWorld: Sized {
    /// Payload carried across shard boundaries. Must be `Send`: this is
    /// the *only* data that crosses threads — each `Sim` is built, run,
    /// and consumed on a single worker thread.
    type Payload: Send + 'static;

    /// Drains every envelope staged since the last call. Order within
    /// the returned vector is preserved into `seq` order by the caller's
    /// world, so stage envelopes in deterministic (event-execution)
    /// order.
    fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<Self::Payload>>;

    /// Moves every envelope staged since the last call onto the end of
    /// `out`, in staging order. The runner calls this once per shard and
    /// window, with a buffer it keeps across rounds; a world that keeps
    /// its own staging buffer overrides it to hand the envelopes over
    /// without giving the buffer up. The default appends what
    /// [`ShardWorld::shard_outbox`] returns.
    fn drain_outbox(sim: &mut Sim<Self>, out: &mut Vec<ShardEnvelope<Self::Payload>>) {
        out.append(&mut Self::shard_outbox(sim));
    }

    /// Injects one envelope received from another shard, scheduling its
    /// delivery at `env.at`.
    fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<Self::Payload>);

    /// Called once per shard at each barrier, after injection — the hook
    /// a world uses for per-round bookkeeping (the packet world counts
    /// the rounds it sent envelopes in).
    fn at_barrier(_sim: &mut Sim<Self>) {}
}

/// Idle marker in the published next-event-time slots.
const IDLE: u64 = u64::MAX;

/// Envelopes bound for one shard. Senders lock it once per round and
/// destination; its owner reads `has_mail` first, so a shard that received
/// nothing costs no lock. The `Vec` is drained in place, never taken, so it
/// keeps its capacity from round to round. `has_mail` is set before the
/// exchange barrier and read after it; the barrier's lock orders the two,
/// so `Relaxed` suffices (with one worker they are in program order).
struct Inbox<P> {
    mail: Mutex<Vec<ShardEnvelope<P>>>,
    has_mail: AtomicBool,
}

impl<P> Inbox<P> {
    fn new() -> Self {
        Inbox {
            mail: Mutex::new(Vec::new()),
            has_mail: AtomicBool::new(false),
        }
    }
}

/// Locks `m`, ignoring poison: a panicking worker breaks the round barrier,
/// and the run re-raises its panic, before anything reads a value it may
/// have left half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Moves every staged envelope into its destination's inbox, leaving
/// `staged` empty with its capacity. Grouped by destination first, each
/// inbox takes its run of envelopes under one lock; the owner restores
/// the canonical order, so the order here is free.
fn post<P>(inboxes: &[Inbox<P>], staged: &mut Vec<ShardEnvelope<P>>) {
    staged.sort_unstable_by_key(|env| env.dst_shard);
    let mut outgoing = staged.drain(..).peekable();
    while let Some(first) = outgoing.next() {
        let dst = first.dst_shard;
        let inbox = &inboxes[dst as usize];
        let mut mail = lock(&inbox.mail);
        mail.push(first);
        mail.extend(std::iter::from_fn(|| {
            outgoing.next_if(|env| env.dst_shard == dst)
        }));
        inbox.has_mail.store(true, Ordering::Relaxed);
    }
}

/// The barrier between a round's phases. Unlike `std::sync::Barrier` it
/// can be broken: a worker that panics breaks it, and every wait, pending
/// or later, then returns `false`, so the other workers leave the loop
/// instead of waiting for a party that is gone.
struct RoundBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    all_here: Condvar,
}

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    round: u64,
    broken: bool,
}

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        RoundBarrier {
            parties,
            state: Mutex::new(BarrierState::default()),
            all_here: Condvar::new(),
        }
    }

    /// Waits until every party has arrived; `false` once the barrier is
    /// broken. A lone party waits for nobody and takes no lock.
    fn wait(&self) -> bool {
        if self.parties == 1 {
            return true;
        }
        let mut state = lock(&self.state);
        let round = state.round;
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.round += 1;
            self.all_here.notify_all();
        }
        while state.round == round && !state.broken {
            state = self
                .all_here
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.broken
    }

    /// Releases every waiting party, now and in every later round.
    fn break_barrier(&self) {
        lock(&self.state).broken = true;
        self.all_here.notify_all();
    }
}

/// Derives shard `shard`'s RNG seed from the run's master seed.
///
/// The derivation depends only on the *stable shard id* — never on
/// spawn order or thread assignment — so per-shard streams are
/// reproducible across thread counts and machines. A SplitMix64 round
/// decorrelates adjacent shard ids (master seeds are often small).
///
/// # Examples
///
/// ```
/// use mosquitonet_sim::shard_seed;
///
/// // Pure in both arguments, distinct across neighboring shards.
/// assert_eq!(shard_seed(1996, 3), shard_seed(1996, 3));
/// assert_ne!(shard_seed(1996, 0), shard_seed(1996, 1));
/// ```
pub fn shard_seed(master: u64, shard: u32) -> u64 {
    mix64(master ^ u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Steps `shards` sharded worlds to `deadline` on `threads` worker
/// threads and returns one `finish` result per shard, in shard order.
///
/// `build(shard_id)` constructs each shard's [`Sim`] *on the worker
/// thread that owns it* — `Sim` is deliberately not `Send` (events are
/// plain boxed closures, metrics are `Rc`-shared), so worlds never
/// migrate between threads. Shard `i` is owned by worker `i % threads`;
/// ownership affects only which thread executes a shard, never the
/// order of its events, so any thread count from 1 to `shards` produces
/// byte-identical results.
///
/// `lookahead` must be a lower bound on the latency of the inter-shard
/// link model: an envelope staged at time `t` must arrive no earlier
/// than `t + lookahead`. Violations panic in debug builds.
///
/// Like [`Sim::run_until`], events scheduled exactly at `deadline`
/// execute, and every shard's clock ends at `deadline`.
///
/// A round neither allocates nor locks on its own once warm: the
/// exchange buffers keep their capacity, and a shard that received
/// nothing takes no lock.
///
/// # Panics
///
/// If `build`, an event or `finish` panics on any worker, every other
/// worker leaves the loop at its next barrier, and `run_sharded`
/// re-raises the first panic.
///
/// # Examples
///
/// Two shards, one envelope from shard 0 to shard 1, stepped on two
/// worker threads (any thread count gives byte-identical results):
///
/// ```
/// use mosquitonet_sim::{
///     run_sharded, shard_seed, ShardEnvelope, ShardWorld, Sim, SimDuration, SimTime,
/// };
///
/// struct Counting {
///     arrivals: u64,
///     outbox: Vec<ShardEnvelope<()>>,
/// }
///
/// impl ShardWorld for Counting {
///     type Payload = ();
///     fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<()>> {
///         std::mem::take(&mut sim.world_mut().outbox)
///     }
///     fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<()>) {
///         sim.schedule_at(env.at, |sim| sim.world_mut().arrivals += 1);
///     }
/// }
///
/// let lookahead = SimDuration::from_micros(10); // = the inter-shard latency
/// let deadline = SimTime::ZERO + SimDuration::from_millis(1);
/// let arrivals = run_sharded(
///     2,
///     2,
///     lookahead,
///     deadline,
///     |id| {
///         let world = Counting { arrivals: 0, outbox: Vec::new() };
///         let mut sim = Sim::with_seed(world, shard_seed(1996, id));
///         if id == 0 {
///             sim.schedule_at(SimTime::ZERO, move |sim| {
///                 let at = sim.now() + SimDuration::from_micros(10);
///                 sim.world_mut().outbox.push(ShardEnvelope {
///                     src_shard: 0,
///                     dst_shard: 1,
///                     seq: 0,
///                     at,
///                     payload: (),
///                 });
///             });
///         }
///         sim
///     },
///     |_, sim| sim.into_world().arrivals,
/// );
/// assert_eq!(arrivals, vec![0, 1]);
/// ```
pub fn run_sharded<W, B, F, R>(
    shards: u32,
    threads: usize,
    lookahead: SimDuration,
    deadline: SimTime,
    build: B,
    finish: F,
) -> Vec<R>
where
    W: ShardWorld,
    B: Fn(u32) -> Sim<W> + Sync,
    F: Fn(u32, Sim<W>) -> R + Sync,
    R: Send,
{
    assert!(shards > 0, "at least one shard");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot make progress"
    );
    let n = shards as usize;
    let threads = threads.clamp(1, n);
    let deadline_ns = deadline.as_nanos();

    // Published next-event time per shard, re-read by every worker after
    // the publish barrier to compute the identical global minimum.
    let next_at: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
    // Envelopes bound for each shard, filled between the two barriers of
    // a round and drained (sorted) by the owner before injection.
    let inboxes: Vec<Inbox<W::Payload>> = (0..n).map(|_| Inbox::new()).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let barrier = RoundBarrier::new(threads);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    let worker = |w: usize| {
        let mut owned: Vec<(u32, Sim<W>)> = (0..shards)
            .filter(|i| *i as usize % threads == w)
            .map(|i| (i, build(i)))
            .collect();
        // What the owned shards staged in a window; kept across rounds.
        let mut staged: Vec<ShardEnvelope<W::Payload>> = Vec::new();
        loop {
            for (i, sim) in owned.iter_mut() {
                let t = sim.next_event_at().map_or(IDLE, SimTime::as_nanos);
                next_at[*i as usize].store(t, Ordering::Relaxed);
            }
            if !barrier.wait() {
                return;
            }
            // Every worker computes the same minimum from the same
            // published values, so all exit the same round.
            let t_min = next_at
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .min()
                .expect("at least one shard");
            if t_min > deadline_ns {
                break;
            }
            let end = SimTime::from_nanos(
                t_min
                    .saturating_add(lookahead.as_nanos())
                    .min(deadline_ns.saturating_add(1)),
            );
            for (_, sim) in owned.iter_mut() {
                sim.run_window(end);
                W::drain_outbox(sim, &mut staged);
            }
            for env in &staged {
                debug_assert!(
                    env.at >= end,
                    "lookahead violation: envelope at {:?} inside window ending {:?}",
                    env.at,
                    end
                );
            }
            post(&inboxes, &mut staged);
            if !barrier.wait() {
                return;
            }
            for (i, sim) in owned.iter_mut() {
                let inbox = &inboxes[*i as usize];
                // Nobody sends before the next publish barrier, so the
                // inbox is the owner's alone until then.
                if inbox.has_mail.load(Ordering::Relaxed) {
                    inbox.has_mail.store(false, Ordering::Relaxed);
                    let mut mail = lock(&inbox.mail);
                    mail.sort_unstable_by_key(|env| (env.src_shard, env.seq));
                    for env in mail.drain(..) {
                        W::shard_inject(sim, env);
                    }
                }
                W::at_barrier(sim);
            }
            // No barrier here: a worker republishing its own slots cannot
            // race another worker's round-k reads, because those happen
            // before the barrier above.
        }
        for (i, mut sim) in owned {
            sim.run_until(deadline);
            *lock(&results[i as usize]) = Some(finish(i, sim));
        }
    };
    // A worker that panics breaks the barrier, so the others leave the
    // loop at their next wait; the first panic is re-raised below.
    let guarded = |w: usize| {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| worker(w))) {
            lock(&first_panic).get_or_insert(payload);
            barrier.break_barrier();
        }
    };

    std::thread::scope(|scope| {
        let guarded = &guarded;
        for w in 0..threads {
            scope.spawn(move || guarded(w));
        }
    });
    if let Some(payload) = lock(&first_panic).take() {
        panic::resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutex")
                .expect("every shard finished")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sharded golden sidecar hangs off these derived seeds, so the
    /// shared `mix64` must keep producing exactly them.
    #[test]
    fn shard_seed_is_pinned() {
        let seeds: Vec<u64> = (0..4).map(|s| shard_seed(1996, s)).collect();
        assert_eq!(
            seeds,
            [
                0x8da2_d71a_13e0_e2e1,
                0xf84b_b896_fb67_0560,
                0xc341_057c_a9eb_38ce,
                0x50d2_aba0_7524_8a79,
            ]
        );
    }

    /// Toy shard world: events log `(time, tag)` pairs; a "send" stages
    /// an envelope to a peer shard that logs on arrival.
    struct Toy {
        id: u32,
        log: Vec<(u64, u64)>,
        outbox: Vec<ShardEnvelope<u64>>,
        seq: u64,
        barriers_seen: u64,
    }

    impl Toy {
        fn send(&mut self, dst: u32, at: SimTime, tag: u64) {
            let seq = self.seq;
            self.seq += 1;
            self.outbox.push(ShardEnvelope {
                src_shard: self.id,
                dst_shard: dst,
                seq,
                at,
                payload: tag,
            });
        }
    }

    impl ShardWorld for Toy {
        type Payload = u64;
        fn shard_outbox(sim: &mut Sim<Self>) -> Vec<ShardEnvelope<u64>> {
            std::mem::take(&mut sim.world_mut().outbox)
        }
        fn shard_inject(sim: &mut Sim<Self>, env: ShardEnvelope<u64>) {
            let tag = env.payload;
            sim.schedule_at(env.at, move |sim| {
                let now = sim.now().as_nanos();
                sim.world_mut().log.push((now, tag));
            });
        }
        fn at_barrier(sim: &mut Sim<Self>) {
            sim.world_mut().barriers_seen += 1;
        }
    }

    const LINK: SimDuration = SimDuration::from_micros(10);

    /// A ping-pong run between `shards` toys: shard 0 starts, each
    /// arrival triggers a reply to the next shard, plus local chatter
    /// between hops.
    fn ping_pong(shards: u32, threads: usize) -> Vec<Vec<(u64, u64)>> {
        let deadline = SimTime::ZERO + SimDuration::from_millis(1);
        run_sharded(
            shards,
            threads,
            LINK,
            deadline,
            |id| {
                let mut sim = Sim::with_seed(
                    Toy {
                        id,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seq: 0,
                        barriers_seen: 0,
                    },
                    1000 + u64::from(id),
                );
                fn hop(sim: &mut Sim<Toy>, round: u64, shards: u32) {
                    let now = sim.now();
                    let jitter = sim.rng().range_u64(0..3);
                    sim.world_mut().log.push((now.as_nanos(), 900 + jitter));
                    if round < 8 {
                        let (me, dst);
                        {
                            let w = sim.world_mut();
                            me = w.id;
                            dst = (w.id + 1) % shards;
                            w.send(dst, now + LINK, round);
                        }
                        // Local follow-up inside the same window.
                        let _ = me;
                        sim.schedule_in(SimDuration::from_nanos(jitter + 1), move |sim| {
                            let t = sim.now().as_nanos();
                            sim.world_mut().log.push((t, 800 + round));
                        });
                    }
                }
                if id == 0 {
                    sim.schedule_in(SimDuration::from_micros(1), move |sim| {
                        hop(sim, 0, shards);
                    });
                }
                // Arrivals re-trigger hops: wire inject->hop via a
                // relay event the toy schedules for every logged tag.
                // (Done inside shard_inject's scheduled event below is
                // simpler; here we pre-schedule a scanner per shard.)
                fn scan(sim: &mut Sim<Toy>, seen: usize, shards: u32) {
                    let log_len = sim.world().log.len();
                    if log_len > seen {
                        for idx in seen..log_len {
                            let (_, tag) = sim.world().log[idx];
                            if tag < 800 {
                                hop(sim, tag + 1, shards);
                            }
                        }
                    }
                    if sim.now() < SimTime::ZERO + SimDuration::from_micros(900) {
                        sim.schedule_in(SimDuration::from_micros(2), move |sim| {
                            scan(sim, log_len, shards);
                        });
                    }
                }
                sim.schedule_in(SimDuration::from_micros(2), move |sim| scan(sim, 0, shards));
                sim
            },
            |_, sim| sim.into_world().log,
        )
    }

    #[test]
    fn thread_counts_produce_identical_logs() {
        let one = ping_pong(4, 1);
        let two = ping_pong(4, 2);
        let four = ping_pong(4, 4);
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert!(
            one.iter().map(Vec::len).sum::<usize>() > 20,
            "the run must actually exchange traffic"
        );
    }

    #[test]
    fn lookahead_boundary_arrival_is_neither_lost_nor_reordered() {
        // Shard 0 schedules an event at exactly t, which stages an
        // envelope arriving at exactly t + lookahead — the window bound
        // itself. The envelope must be injected (not lost) and execute
        // after every shard-1 event strictly before the bound and
        // before every shard-1 event after it.
        let t = SimTime::ZERO + SimDuration::from_micros(50);
        let arrival = t + LINK;
        let deadline = SimTime::ZERO + SimDuration::from_millis(1);
        for threads in [1usize, 2] {
            let logs = run_sharded(
                2,
                threads,
                LINK,
                deadline,
                |id| {
                    let mut sim = Sim::with_seed(
                        Toy {
                            id,
                            log: Vec::new(),
                            outbox: Vec::new(),
                            seq: 0,
                            barriers_seen: 0,
                        },
                        id.into(),
                    );
                    if id == 0 {
                        sim.schedule_at(t, move |sim| {
                            let w = sim.world_mut();
                            w.send(1, arrival, 42);
                        });
                    } else {
                        // One event just inside the window bound, one at
                        // the bound (same instant as the arrival, but
                        // scheduled locally before injection), one after.
                        for (dt, tag) in [(0u64, 1), (LINK.as_nanos() - 1, 2), (LINK.as_nanos(), 3)]
                        {
                            sim.schedule_at(t + SimDuration::from_nanos(dt), move |sim| {
                                let now = sim.now().as_nanos();
                                sim.world_mut().log.push((now, tag));
                            });
                        }
                        sim.schedule_at(arrival + SimDuration::from_nanos(1), |sim| {
                            let now = sim.now().as_nanos();
                            sim.world_mut().log.push((now, 4));
                        });
                    }
                    sim
                },
                |_, sim| sim.into_world().log,
            );
            let shard1 = &logs[1];
            let tags: Vec<u64> = shard1.iter().map(|&(_, tag)| tag).collect();
            assert_eq!(
                tags,
                vec![1, 2, 3, 42, 4],
                "boundary arrival lost or reordered with {threads} thread(s)"
            );
            let arrived = shard1.iter().find(|&&(_, tag)| tag == 42).expect("arrival");
            assert_eq!(arrived.0, arrival.as_nanos(), "arrival time preserved");
        }
    }

    /// A toy shard with nothing scheduled.
    fn toy(id: u32) -> Sim<Toy> {
        let world = Toy {
            id,
            log: Vec::new(),
            outbox: Vec::new(),
            seq: 0,
            barriers_seen: 0,
        };
        Sim::with_seed(world, id.into())
    }

    /// Runs `f` on a thread of its own and re-raises its panic here; fails
    /// instead if it has not finished within ten seconds, so a run that a
    /// worker's panic hangs fails the test rather than hanging it.
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => panic!("the run hung: no result after 10 s"),
        }
    }

    /// Two toys to 1 ms on `threads` workers, shard 1 built by `shard1`.
    fn run_two(threads: usize, shard0: fn(&mut Sim<Toy>), shard1: fn(u32) -> Sim<Toy>) {
        let deadline = SimTime::ZERO + SimDuration::from_millis(1);
        run_sharded(
            2,
            threads,
            LINK,
            deadline,
            |id| {
                if id == 1 {
                    return shard1(id);
                }
                let mut sim = toy(id);
                shard0(&mut sim);
                sim
            },
            |_, sim| sim.now(),
        );
    }

    /// Shard 0 keeps a timer every microsecond, so it has work in every
    /// round while shard 1 fails.
    fn busy(sim: &mut Sim<Toy>) {
        fn tick(sim: &mut Sim<Toy>) {
            sim.schedule_in(SimDuration::from_micros(1), tick);
        }
        tick(sim);
    }

    #[test]
    #[should_panic(expected = "shard 1 failed to build")]
    fn a_panic_in_a_shards_build_is_re_raised_promptly() {
        within_10s(|| run_two(2, busy, |_| panic!("shard 1 failed to build")));
    }

    #[test]
    #[should_panic(expected = "an event on shard 1 failed")]
    fn a_panic_in_an_event_is_re_raised_promptly() {
        within_10s(|| {
            run_two(2, busy, |id| {
                let mut sim = toy(id);
                sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(30), |_| {
                    panic!("an event on shard 1 failed")
                });
                sim
            })
        });
    }

    /// Shard 0 stages, at 50 µs, an envelope due half a lookahead later:
    /// inside the window it was staged in.
    #[cfg(debug_assertions)]
    fn stage_inside_the_window(sim: &mut Sim<Toy>) {
        sim.schedule_at(SimTime::ZERO + SimDuration::from_micros(50), |sim| {
            let at = sim.now() + SimDuration::from_micros(5);
            sim.world_mut().send(1, at, 7);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn an_envelope_inside_its_window_is_a_lookahead_violation_on_one_thread() {
        within_10s(|| run_two(1, stage_inside_the_window, toy));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn an_envelope_inside_its_window_is_a_lookahead_violation_on_two_threads() {
        within_10s(|| run_two(2, stage_inside_the_window, toy));
    }

    #[test]
    fn barrier_hook_fires_and_clocks_reach_deadline() {
        let deadline = SimTime::ZERO + SimDuration::from_micros(100);
        let info = run_sharded(
            2,
            2,
            LINK,
            deadline,
            |id| {
                let mut sim = Sim::with_seed(
                    Toy {
                        id,
                        log: Vec::new(),
                        outbox: Vec::new(),
                        seq: 0,
                        barriers_seen: 0,
                    },
                    7,
                );
                if id == 0 {
                    sim.schedule_in(SimDuration::from_micros(1), |sim| {
                        let now = sim.now();
                        let w = sim.world_mut();
                        w.send(1, now + LINK, 5);
                    });
                }
                sim
            },
            |_, sim| {
                let now = sim.now();
                let w = sim.into_world();
                (now, w.barriers_seen, w.log)
            },
        );
        for (now, barriers, _) in &info {
            assert_eq!(*now, deadline, "every shard clock ends at the deadline");
            assert!(*barriers >= 1, "the barrier hook must fire");
        }
        assert_eq!(info[1].2, vec![(11_000, 5)], "the envelope was delivered");
    }
}
