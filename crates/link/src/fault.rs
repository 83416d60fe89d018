//! Deterministic per-link fault injection.
//!
//! A [`FaultPlan`] sits on a [`Lan`](crate::Lan) and perturbs frame
//! delivery: it can drop, duplicate, reorder, corrupt, and delay frames
//! with configurable per-kind rates, optionally restricted to a time
//! window. The plan carries its *own* [`SimRng`] stream (seed it from a
//! forked experiment RNG or an explicit constant), so installing or
//! removing a plan never perturbs the medium's ordinary delay/loss draw
//! sequence — a run without a plan is byte-identical to a run before the
//! fault layer existed.
//!
//! The plan itself is pure: it only *decides* what happens to a delivery
//! ([`FaultPlan::judge`]) and counts what it injected. Applying the
//! verdict — skipping the event, cloning the frame, flipping a byte,
//! stretching the delay — is the `mosquitonet-stack` world's job, which
//! also records one `fault.{kind}` trace entry per injected fault so
//! every perturbation is attributable after the fact.

use mosquitonet_sim::{Counter, MetricCell, MetricsScope, SimDuration, SimRng, SimTime};

/// The kinds of fault a [`FaultPlan`] can inject, in the order they are
/// judged for each delivery.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// The delivery is silently discarded.
    Drop,
    /// A second copy of the frame is delivered shortly after the first.
    Duplicate,
    /// The delivery is held back long enough for later frames to overtake it.
    Reorder,
    /// One payload byte of the delivered copy is flipped.
    Corrupt,
    /// The delivery is late by an extra drawn delay (ordering preserved
    /// only by luck; smaller than [`FaultKind::Reorder`]'s penalty).
    Delay,
}

impl FaultKind {
    /// The stable metric/trace suffix for this kind (`fault.{kind}`).
    pub fn code(self) -> &'static str {
        match self {
            FaultKind::Drop => "fault.drop",
            FaultKind::Duplicate => "fault.duplicate",
            FaultKind::Reorder => "fault.reorder",
            FaultKind::Corrupt => "fault.corrupt",
            FaultKind::Delay => "fault.delay",
        }
    }
}

/// Per-kind injection rates in `[0, 1]`, judged independently per
/// delivered copy (so a frame can be both delayed and corrupted).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultRates {
    /// Probability a delivery is dropped.
    pub drop: f64,
    /// Probability a delivery is duplicated.
    pub duplicate: f64,
    /// Probability a delivery is reordered (held back by the plan's
    /// reorder hold, see [`FaultPlan::with_reorder_hold`]).
    pub reorder: f64,
    /// Probability one payload byte of a delivery is corrupted.
    pub corrupt: f64,
    /// Probability a delivery is delayed by a draw from
    /// `[0, max_extra_delay]`.
    pub delay: f64,
}

/// What the plan decided for one delivery; the world applies it.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultVerdict {
    /// Discard this delivery (nothing else in the verdict applies).
    pub drop: bool,
    /// Deliver a second copy this long after the first.
    pub duplicate_after: Option<SimDuration>,
    /// Extra latency to add to the delivery (reorder hold + delay draw).
    pub extra_delay: SimDuration,
    /// `extra_delay` includes a reorder hold.
    pub reordered: bool,
    /// `extra_delay` includes a delay draw.
    pub delayed: bool,
    /// Flip the byte at `payload[offset % payload_len]` with this
    /// (nonzero) XOR mask.
    pub corrupt: Option<(usize, u8)>,
}

impl FaultVerdict {
    /// True when the verdict changes nothing.
    pub fn is_clean(&self) -> bool {
        !self.drop
            && self.duplicate_after.is_none()
            && self.extra_delay.is_zero()
            && self.corrupt.is_none()
    }

    /// The `fault.{kind}` codes this verdict injects, in trace order.
    /// Empty for a clean verdict; a drop verdict is only `fault.drop`
    /// (nothing else in it applies).
    pub fn codes(&self) -> impl Iterator<Item = &'static str> {
        let kept = !self.drop;
        [
            (self.drop, FaultKind::Drop),
            (kept && self.duplicate_after.is_some(), FaultKind::Duplicate),
            (kept && self.corrupt.is_some(), FaultKind::Corrupt),
            (kept && self.reordered, FaultKind::Reorder),
            (kept && self.delayed, FaultKind::Delay),
        ]
        .into_iter()
        .filter(|&(injected, _)| injected)
        .map(|(_, kind)| kind.code())
    }
}

/// A deterministic fault-injection plan for one link.
///
/// # Examples
///
/// ```
/// use mosquitonet_link::{FaultPlan, FaultRates};
/// use mosquitonet_sim::SimTime;
///
/// let mut plan = FaultPlan::new(FaultRates { drop: 1.0, ..FaultRates::default() }, 7);
/// let verdict = plan.judge(SimTime::ZERO, 64);
/// assert!(verdict.drop);
/// assert_eq!(plan.injected(mosquitonet_link::FaultKind::Drop), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rates: FaultRates,
    /// Active window; faults are only injected at `window.0 <= now < window.1`.
    /// `None` means always active.
    window: Option<(SimTime, SimTime)>,
    /// Hold applied to reordered deliveries. Pick it larger than the
    /// medium's inter-frame spacing so a later frame actually overtakes.
    reorder_hold: SimDuration,
    /// Upper bound of the uniform extra delay drawn for delay faults.
    max_extra_delay: SimDuration,
    /// Gap between the original delivery and its duplicate.
    duplicate_gap: SimDuration,
    rng: SimRng,
    injected: [Counter; 5],
}

impl FaultPlan {
    /// Creates a plan with the given rates and its own RNG stream.
    ///
    /// Default shape parameters: 5 ms reorder hold, 2 ms max extra delay,
    /// 500 µs duplicate gap.
    pub fn new(rates: FaultRates, seed: u64) -> FaultPlan {
        FaultPlan {
            rates,
            window: None,
            reorder_hold: SimDuration::from_millis(5),
            max_extra_delay: SimDuration::from_millis(2),
            duplicate_gap: SimDuration::from_micros(500),
            rng: SimRng::new(seed),
            injected: Default::default(),
        }
    }

    /// A plan that only drops, with probability `rate` — the uniform-loss
    /// chaos configuration the `c4_lossy_registration` experiment sweeps.
    pub fn uniform_loss(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(
            FaultRates {
                drop: rate,
                ..FaultRates::default()
            },
            seed,
        )
    }

    /// Restricts injection to `[from, until)`.
    pub fn with_window(mut self, from: SimTime, until: SimTime) -> FaultPlan {
        self.window = Some((from, until));
        self
    }

    /// Overrides the reorder hold duration.
    pub fn with_reorder_hold(mut self, hold: SimDuration) -> FaultPlan {
        self.reorder_hold = hold;
        self
    }

    /// Overrides the maximum extra delay for delay faults.
    pub fn with_max_extra_delay(mut self, max: SimDuration) -> FaultPlan {
        self.max_extra_delay = max;
        self
    }

    /// Overrides the duplicate delivery gap.
    pub fn with_duplicate_gap(mut self, gap: SimDuration) -> FaultPlan {
        self.duplicate_gap = gap;
        self
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// The active window, if any.
    pub fn window(&self) -> Option<(SimTime, SimTime)> {
        self.window
    }

    /// True when the plan injects at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        match self.window {
            None => true,
            Some((from, until)) => now >= from && now < until,
        }
    }

    /// Judges one delivery of a frame whose payload is `payload_len`
    /// bytes long, counting every fault it injects.
    ///
    /// Draw order is fixed (drop, duplicate, reorder, corrupt, delay) and
    /// every rate is judged on every call — even after a drop decision —
    /// so the stream position depends only on how many deliveries were
    /// judged, not on their outcomes.
    pub fn judge(&mut self, now: SimTime, payload_len: usize) -> FaultVerdict {
        if !self.active_at(now) {
            return FaultVerdict::default();
        }
        let drop = self.rng.chance(self.rates.drop);
        let duplicate = self.rng.chance(self.rates.duplicate);
        let reorder = self.rng.chance(self.rates.reorder);
        let corrupt = self.rng.chance(self.rates.corrupt);
        let delay = self.rng.chance(self.rates.delay);
        // Corruption draws always happen too, keeping the stream aligned.
        let corrupt_offset = self.rng.next_u64() as usize;
        let corrupt_mask = (self.rng.range_u64(1..256)) as u8;
        let delay_extra = if self.max_extra_delay.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.range_u64(0..self.max_extra_delay.as_nanos() + 1))
        };

        if drop {
            self.injected[0].inc();
            return FaultVerdict {
                drop: true,
                ..FaultVerdict::default()
            };
        }
        let mut verdict = FaultVerdict::default();
        if duplicate {
            self.injected[1].inc();
            verdict.duplicate_after = Some(self.duplicate_gap);
        }
        if reorder {
            self.injected[2].inc();
            verdict.extra_delay += self.reorder_hold;
            verdict.reordered = true;
        }
        if corrupt && payload_len > 0 {
            self.injected[3].inc();
            verdict.corrupt = Some((corrupt_offset % payload_len, corrupt_mask));
        }
        if delay {
            self.injected[4].inc();
            verdict.extra_delay += delay_extra;
            verdict.delayed = true;
        }
        verdict
    }

    /// How many faults of `kind` this plan has injected.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[Self::slot(kind)].get()
    }

    /// Total injected faults across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.get()).sum()
    }

    /// Registers the plan's `fault.{kind}` counters under `scope` (the
    /// world binds each LAN's plan at `lan.{name}/fault.{kind}`).
    pub fn register_metrics(&self, scope: &MetricsScope) {
        for kind in [
            FaultKind::Drop,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Corrupt,
            FaultKind::Delay,
        ] {
            scope.register(
                kind.code(),
                MetricCell::Counter(self.injected[Self::slot(kind)].clone()),
            );
        }
    }

    fn slot(kind: FaultKind) -> usize {
        match kind {
            FaultKind::Drop => 0,
            FaultKind::Duplicate => 1,
            FaultKind::Reorder => 2,
            FaultKind::Corrupt => 3,
            FaultKind::Delay => 4,
        }
    }
}

/// One scheduled node crash in a [`HostFaultPlan`].
#[derive(Clone, Copy, Debug)]
pub struct HostFaultEvent {
    /// When the node crashes.
    pub at: SimTime,
    /// How long it stays down before restarting.
    pub restart_after: SimDuration,
    /// Whether the crash also destroys the node's durable storage (the
    /// home agent's binding journal), forcing an empty-state boot.
    pub lose_journal: bool,
}

/// A deterministic whole-node fault plan: scheduled crashes and restarts
/// for one host, the node-level sibling of the per-link [`FaultPlan`].
///
/// Like the link plan it is pure decision + counting: the plan holds the
/// schedule and the `fault.crash` / `fault.restart` counters, while the
/// `mosquitonet-stack` world applies the events (wiping volatile state,
/// powering interfaces, dispatching module crash/restart hooks) and
/// records a trace entry per transition. Random schedules draw from the
/// plan's own seeded [`SimRng`] at construction time, so two plans built
/// with the same parameters and seed are identical and installing one
/// never perturbs the engine's RNG stream.
///
/// # Examples
///
/// ```
/// use mosquitonet_link::HostFaultPlan;
/// use mosquitonet_sim::{SimDuration, SimTime};
///
/// let plan = HostFaultPlan::random(
///     3,
///     SimTime::ZERO + SimDuration::from_secs(10),
///     SimDuration::from_secs(90),
///     SimDuration::from_secs(2),
///     SimDuration::from_secs(8),
///     42,
/// );
/// assert_eq!(plan.events().len(), 3);
/// // Crashes are ordered and each restart lands before the next crash.
/// for pair in plan.events().windows(2) {
///     assert!(pair[0].at + pair[0].restart_after < pair[1].at);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct HostFaultPlan {
    events: Vec<HostFaultEvent>,
    crashes: Counter,
    restarts: Counter,
}

impl HostFaultPlan {
    /// A plan with an explicit, already-ordered schedule. Each event's
    /// restart must complete before the next crash begins.
    pub fn scripted(events: Vec<HostFaultEvent>) -> HostFaultPlan {
        for pair in events.windows(2) {
            assert!(
                pair[0].at + pair[0].restart_after < pair[1].at,
                "host fault events overlap"
            );
        }
        HostFaultPlan {
            events,
            crashes: Counter::default(),
            restarts: Counter::default(),
        }
    }

    /// `count` seeded-random crash/restart cycles. The window starting at
    /// `start`, `span` long, is cut into `count` equal slots; each slot
    /// gets one crash at a random offset in its first half and a downtime
    /// drawn from `[min_down, max_down]` (clamped so the restart always
    /// lands inside the slot — cycles never overlap).
    pub fn random(
        count: usize,
        start: SimTime,
        span: SimDuration,
        min_down: SimDuration,
        max_down: SimDuration,
        seed: u64,
    ) -> HostFaultPlan {
        assert!(count > 0, "empty plan");
        let mut rng = SimRng::new(seed);
        let slot = SimDuration::from_nanos(span.as_nanos() / count as u64);
        let half = slot.as_nanos() / 2;
        assert!(
            min_down.as_nanos() <= max_down.as_nanos() && max_down.as_nanos() < half,
            "downtime bounds must fit a half slot"
        );
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let slot_start = start + SimDuration::from_nanos(slot.as_nanos() * i as u64);
            let at = slot_start + SimDuration::from_nanos(rng.range_u64(0..half.max(1)));
            let restart_after = SimDuration::from_nanos(
                rng.range_u64(min_down.as_nanos()..max_down.as_nanos() + 1),
            );
            // Every tenth crash (deterministically drawn) also loses the
            // journal, exercising the empty-boot recovery path.
            let lose_journal = rng.chance(0.1);
            events.push(HostFaultEvent {
                at,
                restart_after,
                lose_journal,
            });
        }
        HostFaultPlan::scripted(events)
    }

    /// The crash schedule, in time order.
    pub fn events(&self) -> &[HostFaultEvent] {
        &self.events
    }

    /// Counts one applied crash (the stack world calls this).
    pub fn note_crash(&self) {
        self.crashes.inc();
    }

    /// Counts one applied restart (the stack world calls this).
    pub fn note_restart(&self) {
        self.restarts.inc();
    }

    /// Crashes applied so far.
    pub fn crashes(&self) -> u64 {
        self.crashes.get()
    }

    /// Restarts applied so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Registers the plan's counters under `scope` (the world binds each
    /// host's plan at `{host}/fault.crash` and `{host}/fault.restart`).
    pub fn register_metrics(&self, scope: &MetricsScope) {
        scope.register("fault.crash", MetricCell::Counter(self.crashes.clone()));
        scope.register("fault.restart", MetricCell::Counter(self.restarts.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn zero_rates_are_clean() {
        let mut plan = FaultPlan::new(FaultRates::default(), 1);
        for i in 0..100 {
            assert!(plan.judge(t(i), 100).is_clean());
        }
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let mut plan = FaultPlan::uniform_loss(1.0, 2);
        for i in 0..50 {
            assert!(plan.judge(t(i), 100).drop);
        }
        assert_eq!(plan.injected(FaultKind::Drop), 50);
        assert_eq!(plan.injected_total(), 50);
    }

    #[test]
    fn rates_are_respected_statistically() {
        let mut plan = FaultPlan::uniform_loss(0.25, 3);
        let drops = (0..40_000).filter(|i| plan.judge(t(*i), 64).drop).count();
        let frac = drops as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }

    #[test]
    fn window_gates_injection() {
        let mut plan = FaultPlan::uniform_loss(1.0, 4).with_window(t(10), t(20));
        assert!(plan.judge(t(9), 64).is_clean());
        assert!(plan.judge(t(10), 64).drop);
        assert!(plan.judge(t(19), 64).drop);
        assert!(plan.judge(t(20), 64).is_clean());
        assert_eq!(plan.injected(FaultKind::Drop), 2);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let mk = || {
            FaultPlan::new(
                FaultRates {
                    drop: 0.2,
                    duplicate: 0.2,
                    reorder: 0.2,
                    corrupt: 0.2,
                    delay: 0.2,
                },
                99,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..500 {
            let (va, vb) = (a.judge(t(i), 80), b.judge(t(i), 80));
            assert_eq!(va.drop, vb.drop);
            assert_eq!(va.duplicate_after, vb.duplicate_after);
            assert_eq!(va.extra_delay, vb.extra_delay);
            assert_eq!(va.corrupt, vb.corrupt);
        }
        assert_eq!(a.injected_total(), b.injected_total());
    }

    #[test]
    fn corrupt_offset_stays_in_payload() {
        let mut plan = FaultPlan::new(
            FaultRates {
                corrupt: 1.0,
                ..FaultRates::default()
            },
            5,
        );
        for i in 0..200 {
            let v = plan.judge(t(i), 7);
            let (off, mask) = v.corrupt.expect("corrupt verdict");
            assert!(off < 7);
            assert_ne!(mask, 0);
        }
    }

    #[test]
    fn corrupt_on_empty_payload_is_skipped() {
        let mut plan = FaultPlan::new(
            FaultRates {
                corrupt: 1.0,
                ..FaultRates::default()
            },
            6,
        );
        assert!(plan.judge(t(0), 0).corrupt.is_none());
    }

    #[test]
    fn stream_position_is_outcome_independent() {
        // Two plans with the same seed but different payload lengths see
        // identical drop/delay decisions: the draw count per judgement is
        // fixed.
        let mut a = FaultPlan::new(
            FaultRates {
                drop: 0.3,
                delay: 0.3,
                ..FaultRates::default()
            },
            42,
        );
        let mut b = a.clone();
        for i in 0..300 {
            let va = a.judge(t(i), 10);
            let vb = b.judge(t(i), 1000);
            assert_eq!(va.drop, vb.drop);
            assert_eq!(va.extra_delay, vb.extra_delay);
        }
    }

    #[test]
    fn counters_register_under_scope() {
        use mosquitonet_sim::MetricsRegistry;
        let mut plan = FaultPlan::uniform_loss(1.0, 8);
        let reg = MetricsRegistry::new();
        plan.register_metrics(&reg.scope("lan.cell"));
        plan.judge(t(0), 64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("lan.cell/fault.drop"), 1);
        assert_eq!(snap.counter("lan.cell/fault.corrupt"), 0);
    }

    #[test]
    fn host_plan_random_is_deterministic_and_ordered() {
        let mk = || {
            HostFaultPlan::random(
                5,
                t(1_000),
                SimDuration::from_secs(100),
                SimDuration::from_secs(1),
                SimDuration::from_secs(6),
                0xfeed,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.events().len(), 5);
        for (ea, eb) in a.events().iter().zip(b.events()) {
            assert_eq!(ea.at, eb.at);
            assert_eq!(ea.restart_after, eb.restart_after);
            assert_eq!(ea.lose_journal, eb.lose_journal);
        }
        for pair in a.events().windows(2) {
            assert!(pair[0].at + pair[0].restart_after < pair[1].at);
        }
    }

    #[test]
    #[should_panic(expected = "host fault events overlap")]
    fn host_plan_rejects_overlapping_script() {
        HostFaultPlan::scripted(vec![
            HostFaultEvent {
                at: t(0),
                restart_after: SimDuration::from_secs(10),
                lose_journal: false,
            },
            HostFaultEvent {
                at: t(5_000),
                restart_after: SimDuration::from_secs(1),
                lose_journal: false,
            },
        ]);
    }

    #[test]
    fn host_plan_counters_register() {
        use mosquitonet_sim::MetricsRegistry;
        let plan = HostFaultPlan::scripted(vec![HostFaultEvent {
            at: t(10),
            restart_after: SimDuration::from_secs(1),
            lose_journal: true,
        }]);
        let reg = MetricsRegistry::new();
        plan.register_metrics(&reg.scope("home-agent"));
        plan.note_crash();
        plan.note_crash();
        plan.note_restart();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("home-agent/fault.crash"), 2);
        assert_eq!(snap.counter("home-agent/fault.restart"), 1);
    }
}
