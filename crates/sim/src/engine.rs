//! The discrete-event engine: a future-event queue over a user world.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::flightrec::{FlightRecorder, HopAction};
use crate::metrics::MetricsRegistry;
use crate::profile::Profiler;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// A handle into the engine's event slab: the slot the event's closure
/// sits in, tagged with the event's scheduling sequence number. Slots are
/// reused but sequence numbers never are, so a handle kept past its
/// event's execution or cancellation is recognised as stale — cancelling
/// it returns `false` and cannot touch the slot's next occupant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>)>;

/// What the future-event heap orders: earliest time first, FIFO among
/// same-time events (`seq` is allocated in scheduling order). `Copy`, so
/// sifting moves three words and never a closure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// One slab slot: the closure of the event with sequence number `seq`,
/// until it runs or is cancelled. The slot stays claimed while its key is
/// in the heap and goes back on the free list when the key is popped.
struct Slot<W> {
    seq: u64,
    run: Option<EventFn<W>>,
}

/// The future-event set: a binary heap of [`EventKey`]s over a slab of
/// closures.
struct EventQueue<W> {
    /// The next event's sequence number: its identity, and the FIFO
    /// tie-break among same-time events.
    next_seq: u64,
    heap: BinaryHeap<Reverse<EventKey>>,
    /// Event closures, addressed by [`EventKey::slot`]. Grows to the
    /// high-water mark of keys in the heap and never shrinks.
    slots: Vec<Slot<W>>,
    free_slots: Vec<u32>,
    /// Events scheduled and neither run nor cancelled.
    pending: usize,
}

impl<W> EventQueue<W> {
    fn new() -> Self {
        EventQueue {
            next_seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            pending: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, run: EventFn<W>) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let occupant = Slot {
            seq,
            run: Some(run),
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(occupant);
                slot
            }
        };
        self.pending += 1;
        self.heap.push(Reverse(EventKey { at, seq, slot }));
        EventId { seq, slot }
    }

    fn cancel(&mut self, id: EventId) -> bool {
        // The closure is dropped now; the slot and its heap key are
        // reclaimed when the key reaches the head of the queue.
        let cancelled = self
            .slots
            .get_mut(id.slot as usize)
            .filter(|slot| slot.seq == id.seq)
            .and_then(|slot| slot.run.take());
        if cancelled.is_some() {
            self.pending -= 1;
        }
        cancelled.is_some()
    }

    /// The key of the next runnable event, left in the queue. Keys of
    /// cancelled events met on the way are popped and their slots freed.
    fn peek_runnable(&mut self) -> Option<EventKey> {
        loop {
            let &Reverse(key) = self.heap.peek()?;
            if self.slots[key.slot as usize].run.is_some() {
                return Some(key);
            }
            self.heap.pop();
            self.free_slots.push(key.slot);
        }
    }

    /// Takes the next runnable event off the queue if it is due at or
    /// before `deadline` (`None`: whenever it is due); a later event stays
    /// where it is.
    fn pop_runnable(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, EventFn<W>)> {
        let key = self.peek_runnable()?;
        if deadline.is_some_and(|d| key.at > d) {
            return None;
        }
        self.heap.pop();
        self.free_slots.push(key.slot);
        self.pending -= 1;
        let run = self.slots[key.slot as usize].run.take();
        Some((key.at, run.expect("a runnable slot holds its closure")))
    }
}

/// The scheduling part of a [`Sim`], lent out by [`Sim::split`] beside the
/// world and the RNG: code that walks world state while it draws
/// randomness can schedule what it decides on the spot instead of listing
/// it for later.
pub struct Scheduler<'a, W> {
    now: SimTime,
    events: &'a mut EventQueue<W>,
}

impl<W> Scheduler<'_, W> {
    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; a discrete-event simulation must never
    /// travel backwards.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < {:?}",
            self.now
        );
        self.events.schedule(at, Box::new(f))
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }
}

/// A discrete-event simulation over a world of type `W`.
///
/// `Sim` owns the world, the virtual clock, a deterministic RNG, and a
/// [`Trace`] for experiment instrumentation. Event handlers receive
/// `&mut Sim<W>` and may mutate the world and schedule further events.
///
/// Events scheduled for the same instant fire in scheduling (FIFO) order,
/// which keeps runs reproducible regardless of heap internals.
pub struct Sim<W> {
    now: SimTime,
    events: EventQueue<W>,
    world: W,
    rng: SimRng,
    trace: Trace,
    metrics: MetricsRegistry,
    flights: FlightRecorder,
    profiler: Profiler,
    events_executed: u64,
    /// Per-tick batching (default on): `run`/`run_until` drain every
    /// event scheduled at the same instant as one batch, amortizing
    /// profiler and loop overhead. Execution order is identical to the
    /// unbatched path, so same-seed runs stay byte-identical.
    batching: bool,
    batches_executed: u64,
}

impl<W> Sim<W> {
    /// Creates a simulation over `world` with the default RNG seed.
    pub fn new(world: W) -> Self {
        Self::with_seed(world, 0x6d6f_7371_7569_746f) // "mosquito"
    }

    /// Creates a simulation over `world` with an explicit RNG seed.
    ///
    /// Two simulations built with the same world state and seed execute
    /// identically, event for event.
    pub fn with_seed(world: W, seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            world,
            rng: SimRng::new(seed),
            trace: Trace::new(),
            metrics: MetricsRegistry::new(),
            flights: FlightRecorder::new(),
            profiler: Profiler::new(),
            events_executed: 0,
            batching: true,
            batches_executed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The deterministic random number generator for this run.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Split borrow: the world, the RNG and the event queue together, for
    /// code that draws randomness and schedules events while holding world
    /// state.
    pub fn split(&mut self) -> (&mut W, &mut SimRng, Scheduler<'_, W>) {
        let scheduler = Scheduler {
            now: self.now,
            events: &mut self.events,
        };
        (&mut self.world, &mut self.rng, scheduler)
    }

    fn scheduler(&mut self) -> Scheduler<'_, W> {
        self.split().2
    }

    /// The experiment trace log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Exclusive access to the trace log.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The metrics registry for this run. The registry is internally
    /// shared (`Rc`), so cloning the returned reference hands out handles
    /// that stay live for the whole simulation.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The packet flight recorder (disabled by default).
    pub fn flights(&self) -> &FlightRecorder {
        &self.flights
    }

    /// Exclusive access to the flight recorder.
    pub fn flights_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flights
    }

    /// Records one hop for `flight` at the current virtual time; a cheap
    /// no-op when the recorder is disabled or `flight` is
    /// [`NO_FLIGHT`](crate::flightrec::NO_FLIGHT).
    #[inline]
    pub fn record_hop(&mut self, flight: u64, host: u32, point: &'static str, action: HopAction) {
        let now = self.now;
        self.flights.hop(flight, now, host, point, action);
    }

    /// The engine wall-time profiler (disabled by default).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Exclusive access to the profiler.
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Enables or disables per-tick batching in [`Sim::run`] and
    /// [`Sim::run_until`]. On by default; the unbatched path executes the
    /// same events in the same order one profiler tick at a time, and
    /// exists so determinism tests can compare the two modes.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// True when `run`/`run_until` drain same-instant batches.
    pub fn batching_enabled(&self) -> bool {
        self.batching
    }

    /// Number of per-tick batches drained by the batched path so far.
    /// Stays zero when batching is off or only [`Sim::step`] is used.
    pub fn batches_executed(&self) -> u64 {
        self.batches_executed
    }

    /// Number of events currently pending (cancelled events excluded).
    pub fn pending_events(&self) -> usize {
        self.events.pending
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; a discrete-event simulation must never
    /// travel backwards.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim<W>) + 'static) -> EventId {
        self.scheduler().schedule_at(at, f)
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim<W>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired. Cancelling an already
    /// executed (or already cancelled) event returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.events.cancel(id)
    }

    /// Runs one event as its own profiler tick.
    fn run_tick(&mut self, at: SimTime, run: EventFn<W>) {
        self.now = at;
        self.events_executed += 1;
        let t0 = self.profiler.begin();
        run(self);
        self.profiler.end_tick(t0);
    }

    /// Runs a single event if one is pending. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.events.pop_runnable(None) {
            Some((at, run)) => {
                self.run_tick(at, run);
                true
            }
            None => false,
        }
    }

    /// Drains the full batch of events scheduled at the next runnable
    /// instant (bounded by `deadline` when given), including same-instant
    /// events the batch members schedule mid-batch. Returns `false` when
    /// no runnable event at or before the deadline remains.
    ///
    /// Execution order is identical to repeated [`Sim::step`]: each member
    /// is popped only when its turn comes, so an earlier member can still
    /// cancel it, and events scheduled mid-batch get larger sequence
    /// numbers than everything already queued for the instant.
    fn run_batch(&mut self, deadline: Option<SimTime>) -> bool {
        let Some((batch_at, first)) = self.events.pop_runnable(deadline) else {
            return false;
        };
        self.now = batch_at;
        let t0 = self.profiler.begin();
        let mut in_batch: u64 = 0;
        let mut next = Some(first);
        while let Some(run) = next {
            self.events_executed += 1;
            in_batch += 1;
            run(self);
            // Nothing can be queued before `now`, so "due by `batch_at`"
            // is "due at `batch_at`".
            next = self.events.pop_runnable(Some(batch_at)).map(|(_, run)| run);
        }
        self.profiler.end_batch(t0, in_batch);
        self.batches_executed += 1;
        true
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&mut self) {
        if self.batching {
            while self.run_batch(None) {}
        } else {
            while self.step() {}
        }
    }

    /// Time of the next runnable event, or `None` when the queue holds
    /// nothing but cancelled entries. Cancelled heads encountered along
    /// the way are discarded, which is why this takes `&mut self`.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.events.peek_runnable().map(|key| key.at)
    }

    /// Runs every event scheduled strictly before `end` without advancing
    /// the clock past the last executed event. This is the conservative
    /// time-window primitive of the sharded scheduler: a shard may safely
    /// execute everything below the window bound because cross-shard
    /// traffic can only arrive at or after it (the lookahead contract).
    ///
    /// # Panics
    ///
    /// Panics if `end` is not in the future — a window that cannot make
    /// progress indicates a broken barrier computation.
    pub fn run_window(&mut self, end: SimTime) {
        assert!(
            end > self.now,
            "empty window: end {end:?} <= now {:?}",
            self.now
        );
        // `at < end` over nanosecond instants is `at <= end - 1ns`.
        let deadline = SimTime::from_nanos(end.as_nanos() - 1);
        self.drain_until(deadline);
    }

    /// Runs events until (and including) those scheduled at `deadline`,
    /// then advances the clock to `deadline` even if the queue drained early.
    ///
    /// Events scheduled after `deadline` remain queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.drain_until(deadline);
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Executes every event with `at <= deadline` without the final clock
    /// advance of [`Sim::run_until`].
    fn drain_until(&mut self, deadline: SimTime) {
        if self.batching {
            while self.run_batch(Some(deadline)) {}
        } else {
            while let Some((at, run)) = self.events.pop_runnable(Some(deadline)) {
                self.run_tick(at, run);
            }
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Consumes the simulation and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for (label, ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let order = Rc::clone(&order);
            sim.schedule_in(SimDuration::from_millis(ms), move |_| {
                order.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for i in 0..100 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_nanos(42), move |_| {
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(0u32);
        fn tick(sim: &mut Sim<u32>) {
            *sim.world_mut() += 1;
            if *sim.world() < 5 {
                sim.schedule_in(SimDuration::from_millis(1), tick);
            }
        }
        sim.schedule_in(SimDuration::from_millis(1), tick);
        sim.run();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(0u32);
        let id = sim.schedule_in(SimDuration::from_millis(1), |sim| {
            *sim.world_mut() += 1;
        });
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double cancel reports false");
        sim.run();
        assert_eq!(*sim.world(), 0);
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim = Sim::new(());
        assert!(!sim.cancel(EventId { seq: 999, slot: 0 }));
        assert!(!sim.cancel(EventId { seq: 0, slot: 7 }));
    }

    #[test]
    fn stale_handle_cannot_cancel_the_slots_next_occupant() {
        let mut sim = Sim::new(0u32);
        let fired = sim.schedule_in(SimDuration::from_millis(1), |sim| *sim.world_mut() += 1);
        sim.run();
        // The slab has one slot, so this event moves into the one `fired`
        // vacated.
        let occupant = sim.schedule_in(SimDuration::from_millis(1), |sim| *sim.world_mut() += 10);
        assert_eq!(sim.events.slots.len(), 1, "the slot was reused");
        assert!(!sim.cancel(fired), "a fired event's handle is stale");
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(*sim.world(), 11, "the new occupant ran");
        assert!(!sim.cancel(occupant));
    }

    #[test]
    fn slab_grows_to_the_high_water_mark_of_queued_events_only() {
        let mut sim = Sim::new(());
        for round in 0..50 {
            let ids: Vec<EventId> = (0..8)
                .map(|i| sim.schedule_in(SimDuration::from_nanos(i), |_| {}))
                .collect();
            // Cancelled events hold their slot until their key surfaces.
            sim.cancel(ids[round % 8]);
            sim.run();
        }
        assert_eq!(sim.events.slots.len(), 8);
        assert_eq!(sim.events_executed(), 50 * 7);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for ms in [5u64, 10, 15, 20] {
            sim.schedule_in(SimDuration::from_millis(ms), move |sim| {
                sim.world_mut().push(ms);
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(12));
        assert_eq!(*sim.world(), vec![5, 10]);
        assert_eq!(sim.now().as_millis(), 12);
        assert_eq!(sim.pending_events(), 2);
        sim.run();
        assert_eq!(*sim.world(), vec![5, 10, 15, 20]);
    }

    #[test]
    fn run_until_inclusive_of_deadline_events() {
        let mut sim = Sim::new(0u32);
        sim.schedule_in(SimDuration::from_millis(10), |sim| *sim.world_mut() += 1);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn run_until_skips_cancelled_heads() {
        let mut sim = Sim::new(0u32);
        let id = sim.schedule_in(SimDuration::from_millis(1), |sim| *sim.world_mut() += 100);
        sim.schedule_in(SimDuration::from_millis(2), |sim| *sim.world_mut() += 1);
        sim.cancel(id);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(());
        sim.schedule_in(SimDuration::from_millis(5), |sim| {
            sim.schedule_at(SimTime::from_nanos(0), |_| {});
        });
        sim.run();
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim = Sim::with_seed(Vec::new(), seed);
            fn tick(sim: &mut Sim<Vec<u64>>) {
                let jitter = sim.rng().range_u64(0..1000);
                sim.world_mut().push(jitter);
                if sim.world().len() < 20 {
                    sim.schedule_in(SimDuration::from_nanos(jitter + 1), tick);
                }
            }
            sim.schedule_in(SimDuration::ZERO, tick);
            sim.run();
            sim.into_world()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn run_for_advances_relative_span() {
        let mut sim = Sim::new(());
        sim.run_for(SimDuration::from_secs(1));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now().as_millis(), 3000);
    }

    #[test]
    fn batching_is_on_by_default_and_counts_batches() {
        let mut sim = Sim::new(0u32);
        assert!(sim.batching_enabled());
        for _ in 0..3 {
            sim.schedule_at(SimTime::from_nanos(5), |sim| *sim.world_mut() += 1);
        }
        sim.schedule_in(SimDuration::from_millis(1), |sim| *sim.world_mut() += 10);
        sim.run();
        assert_eq!(*sim.world(), 13);
        assert_eq!(sim.events_executed(), 4);
        // Three same-instant events drain as one batch; the later event
        // is a batch of one.
        assert_eq!(sim.batches_executed(), 2);
    }

    #[test]
    fn batched_same_time_events_fire_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        for i in 0..100 {
            let order = Rc::clone(&order);
            sim.schedule_at(SimTime::from_nanos(42), move |_| {
                order.borrow_mut().push(i);
            });
        }
        assert!(sim.batching_enabled());
        sim.run();
        assert_eq!(*order.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn batch_member_scheduling_same_instant_keeps_fifo() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(());
        let at = SimTime::from_nanos(7);
        {
            let order = Rc::clone(&order);
            sim.schedule_at(at, move |sim| {
                order.borrow_mut().push("first");
                let order2 = Rc::clone(&order);
                // Scheduled mid-batch at the same instant: must run after
                // every already-scheduled same-instant event.
                sim.schedule_at(at, move |_| order2.borrow_mut().push("late"));
            });
        }
        {
            let order = Rc::clone(&order);
            sim.schedule_at(at, move |_| order.borrow_mut().push("second"));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "late"]);
        assert_eq!(sim.batches_executed(), 1);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn batch_member_can_cancel_later_same_instant_event() {
        let mut sim = Sim::new(0u32);
        let at = SimTime::from_nanos(3);
        let victim = Rc::new(RefCell::new(None));
        {
            let victim = Rc::clone(&victim);
            sim.schedule_at(at, move |sim| {
                let id = victim.borrow_mut().take().expect("victim id set");
                assert!(sim.cancel(id));
                *sim.world_mut() += 1;
            });
        }
        let id = sim.schedule_at(at, |sim| *sim.world_mut() += 100);
        *victim.borrow_mut() = Some(id);
        sim.run();
        assert_eq!(*sim.world(), 1, "cancelled batch member must not run");
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn batched_and_unbatched_runs_are_identical() {
        fn run(batching: bool) -> (Vec<u64>, u64, SimTime) {
            let mut sim = Sim::with_seed(Vec::new(), 1996);
            sim.set_batching(batching);
            fn tick(sim: &mut Sim<Vec<u64>>) {
                let jitter = sim.rng().range_u64(0..3);
                sim.world_mut().push(jitter);
                if sim.world().len() < 50 {
                    // Frequently lands on the same instant, exercising
                    // the batch drain.
                    sim.schedule_in(SimDuration::from_nanos(jitter), tick);
                }
            }
            for _ in 0..4 {
                sim.schedule_in(SimDuration::ZERO, tick);
            }
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
            sim.run();
            let executed = sim.events_executed();
            let now = sim.now();
            (sim.into_world(), executed, now)
        }
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn batched_run_until_respects_deadline() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for ms in [5u64, 10, 10, 15] {
            sim.schedule_in(SimDuration::from_millis(ms), move |sim| {
                sim.world_mut().push(ms);
            });
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(12));
        assert_eq!(*sim.world(), vec![5, 10, 10]);
        assert_eq!(sim.now().as_millis(), 12);
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(*sim.world(), vec![5, 10, 10, 15]);
    }
}
