//! Wall-clock profiler for the engine event loop.
//!
//! The simulation's *virtual* clock is deterministic; this module measures
//! the *real* time the engine spends executing events — the whole-system
//! profile the Mpps saturation work needs. Two levels of accounting:
//!
//! - **drain duration** — real nanoseconds per engine drain, one sample
//!   per instant [`Sim::run`](crate::Sim::run) and its kin reach (a
//!   [`Sim::step`](crate::Sim::step) is a drain of one event), with the
//!   events each drain ran;
//! - **per-module dispatch** — real nanoseconds per protocol-module
//!   upcall, keyed by the module's static name (recorded by the stack's
//!   dispatcher).
//!
//! Samples land in the existing metric cells ([`Counter`] totals plus a
//! [`LatencyHistogram`] per label) and are registered under `profile/…` in
//! whatever [`MetricsRegistry`] the profiler is enabled against, so
//! sidecar exports pick them up for free. Because wall time is
//! nondeterministic, the profiler is **off by default** and nothing is
//! registered until [`Profiler::enable`] runs — golden exports never see
//! these rows. While disabled, [`Profiler::begin`] returns `None` without
//! reading the clock, and every recording call is a no-op.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Counter, LatencyHistogram, MetricsRegistry};
use crate::time::SimDuration;

/// Histogram bucket bounds for profile samples, in microseconds. Event
/// handlers are fast; sub-microsecond drains land in the first bucket and
/// the exact mean is recoverable from the `total_ns` counter.
const PROFILE_BOUNDS_US: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 1000, 10_000];

fn clock_ns() -> u64 {
    use std::time::Instant;
    std::thread_local! {
        static BASE: Instant = Instant::now();
    }
    BASE.with(|b| b.elapsed().as_nanos() as u64)
}

/// The metric cells accounting one profiled label.
#[derive(Clone, Debug)]
struct Cells {
    calls: Counter,
    total_ns: Counter,
    hist: LatencyHistogram,
}

impl Cells {
    fn new() -> Cells {
        Cells {
            calls: Counter::new(),
            total_ns: Counter::new(),
            hist: LatencyHistogram::with_bounds(PROFILE_BOUNDS_US),
        }
    }

    fn record(&self, ns: u64) {
        self.calls.inc();
        self.total_ns.add(ns);
        self.hist.record(SimDuration::from_nanos(ns));
    }

    fn register(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(format!("{prefix}/calls"), &self.calls);
        registry.register_counter(format!("{prefix}/total_ns"), &self.total_ns);
        registry.register_histogram(format!("{prefix}/us"), &self.hist);
    }
}

/// Per-subsystem wall-time accounting for the sim engine.
///
/// Disabled by default; the hot-path cost while disabled is one branch in
/// [`Profiler::begin`]. Enable with a registry to start sampling:
///
/// ```
/// use mosquitonet_sim::{MetricsRegistry, Sim, SimDuration};
///
/// let reg = MetricsRegistry::new();
/// let mut sim = Sim::new(0u64);
/// sim.profiler_mut().enable(&reg);
/// sim.schedule_in(SimDuration::from_millis(1), |_| {});
/// sim.run();
/// assert_eq!(reg.snapshot().counter("profile/batch/calls"), 1);
/// ```
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    registry: Option<MetricsRegistry>,
    /// Registration prefix; `None` means the default `profile`. Sharded
    /// runs use `profile/shard/{id}` so merged snapshots keep every
    /// shard's cells distinct.
    prefix: Option<String>,
    /// One sample per engine drain (see [`Profiler::end_batch`]).
    batch: Option<Cells>,
    /// Total events executed inside the drains.
    batch_events: Counter,
    modules: BTreeMap<&'static str, Cells>,
}

impl Profiler {
    /// Creates a disabled profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Enables sampling and registers all profile cells (current and
    /// future) under `profile/…` in `registry`.
    pub fn enable(&mut self, registry: &MetricsRegistry) {
        self.prefix = None;
        self.enable_at_prefix(registry);
    }

    /// Like [`Profiler::enable`], but registers under `{prefix}/…`
    /// instead of `profile/…`. Sharded runs pass `profile/shard/{id}` so
    /// every shard's cells stay distinct in the merged snapshot.
    pub fn enable_with_prefix(&mut self, registry: &MetricsRegistry, prefix: impl Into<String>) {
        self.prefix = Some(prefix.into());
        self.enable_at_prefix(registry);
    }

    fn enable_at_prefix(&mut self, registry: &MetricsRegistry) {
        self.enabled = true;
        let prefix = self.prefix.clone();
        let prefix = prefix.as_deref().unwrap_or("profile");
        let batch = self.batch.get_or_insert_with(Cells::new);
        batch.register(registry, &format!("{prefix}/batch"));
        registry.register_counter(format!("{prefix}/batch/events"), &self.batch_events);
        for (name, cells) in &self.modules {
            cells.register(registry, &format!("{prefix}/module.{name}"));
        }
        self.registry = Some(registry.clone());
    }

    /// True when sampling.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Takes a wall-clock timestamp, or `None` when disabled. Pass the
    /// result to [`Profiler::end_batch`] or [`Profiler::end_module`].
    #[inline]
    pub fn begin(&self) -> Option<u64> {
        self.enabled.then(clock_ns)
    }

    /// Accounts one engine drain of `events` events started at `started`
    /// (from [`Profiler::begin`]); a no-op for `None`. The drain is one
    /// `profile/batch/…` sample, and `profile/batch/events` accumulates
    /// the drain sizes so the mean drain width is `events / calls`.
    #[inline]
    pub fn end_batch(&mut self, started: Option<u64>, events: u64) {
        let Some(t0) = started else { return };
        let ns = self.elapsed_since(t0);
        self.batch.get_or_insert_with(Cells::new).record(ns);
        self.batch_events.add(events);
    }

    /// Accounts one protocol-module dispatch started at `started`;
    /// a no-op for `None`. The first sample for a new module name
    /// registers its cells under `profile/module.{name}/…`.
    #[inline]
    pub fn end_module(&mut self, name: &'static str, started: Option<u64>) {
        let Some(t0) = started else { return };
        let ns = self.elapsed_since(t0);
        if !self.modules.contains_key(name) {
            let cells = Cells::new();
            if let Some(reg) = &self.registry {
                let prefix = self.prefix.as_deref().unwrap_or("profile");
                cells.register(reg, &format!("{prefix}/module.{name}"));
            }
            self.modules.insert(name, cells);
        }
        self.modules.get(name).expect("just inserted").record(ns);
    }

    #[inline]
    fn elapsed_since(&self, t0: u64) -> u64 {
        clock_ns().saturating_sub(t0)
    }

    /// Deterministically-ordered summary of everything sampled so far
    /// (labels sorted; values are wall-clock and therefore vary run to
    /// run — never golden-pin this).
    pub fn to_json(&self) -> Json {
        let row = |cells: &Cells| {
            Json::obj([
                ("calls", Json::UInt(cells.calls.get())),
                ("total_ns", Json::UInt(cells.total_ns.get())),
                ("hist", cells.hist.snapshot().to_json()),
            ])
        };
        let mut members = Vec::new();
        if let Some(batch) = &self.batch {
            members.push((
                "batch".to_string(),
                Json::obj([
                    ("calls", Json::UInt(batch.calls.get())),
                    ("events", Json::UInt(self.batch_events.get())),
                    ("total_ns", Json::UInt(batch.total_ns.get())),
                    ("hist", batch.hist.snapshot().to_json()),
                ]),
            ));
        }
        for (name, cells) in &self.modules {
            members.push((format!("module.{name}"), row(cells)));
        }
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_samples_nothing() {
        let mut p = Profiler::new();
        assert!(p.begin().is_none());
        p.end_batch(None, 1);
        p.end_module("mobile", None);
        assert_eq!(p.to_json().render(), "{}");
    }

    #[test]
    fn enabled_profiler_accounts_ticks_and_modules() {
        let reg = MetricsRegistry::new();
        let mut p = Profiler::new();
        p.enable(&reg);
        let t0 = p.begin();
        assert!(t0.is_some());
        p.end_batch(t0, 1);
        let m0 = p.begin();
        p.end_module("mobile", m0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("profile/batch/calls"), 1);
        assert_eq!(snap.counter("profile/module.mobile/calls"), 1);
        let text = p.to_json().render();
        assert!(text.contains("\"module.mobile\""), "{text}");
    }

    #[test]
    fn end_batch_accounts_tick_and_batch_cells() {
        let reg = MetricsRegistry::new();
        let mut p = Profiler::new();
        p.enable(&reg);
        let t0 = p.begin();
        p.end_batch(t0, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("profile/batch/calls"), 1);
        assert_eq!(snap.counter("profile/batch/events"), 3);
        assert!(
            snap.iter()
                .all(|(name, _)| name.starts_with("profile/batch/")),
            "a drain is one sample, in one family of cells"
        );
        assert!(p.to_json().render().contains("\"batch\""));
    }

    #[test]
    fn prefixed_enable_registers_shard_scoped_cells() {
        let reg = MetricsRegistry::new();
        let mut p = Profiler::new();
        p.enable_with_prefix(&reg, "profile/shard/2");
        let t0 = p.begin();
        p.end_batch(t0, 2);
        let m0 = p.begin();
        p.end_module("mobile", m0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("profile/shard/2/batch/calls"), 1);
        assert_eq!(snap.counter("profile/shard/2/batch/events"), 2);
        assert_eq!(snap.counter("profile/shard/2/module.mobile/calls"), 1);
        assert_eq!(snap.counter("profile/batch/calls"), 0, "no unscoped cells");
    }

    #[test]
    fn late_enable_registers_existing_module_cells() {
        let mut p = Profiler::new();
        p.enabled = true; // sample before any registry is attached
        let m0 = p.begin();
        p.end_module("ha", m0);
        let reg = MetricsRegistry::new();
        p.enable(&reg);
        assert_eq!(reg.snapshot().counter("profile/module.ha/calls"), 1);
    }
}
