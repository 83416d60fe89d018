//! Structured telemetry: a typed, hierarchical metrics registry.
//!
//! The paper's results are all measurements — packets lost per device
//! switch (Figure 6), registration latency decomposed into phases
//! (Figure 7), care-of switch timings (Table 1) — so the simulator carries
//! a first-class metrics layer instead of string-matching on the trace:
//!
//! * [`Counter`] and [`LatencyHistogram`] are cheap interior-mutable
//!   cells (`Rc<Cell<_>>`; the engine is single-threaded by
//!   design). Handles clone for ~1 ns and increment for ~1–2 ns, so hot
//!   packet paths hold *pre-resolved* handles and never touch a name
//!   lookup.
//! * [`MetricsRegistry`] maps hierarchical `host/subsystem/name` paths to
//!   cells. Components create their cells *detached* at construction time
//!   and are bound into the registry later (`register_*`), which frees
//!   callers from any create-then-register ordering. A family of counters
//!   is declared with [`counters!`](crate::counters), which names each
//!   counter once, beside its field.
//! * [`Snapshot`] captures every value at an instant; two snapshots'
//!   [`Snapshot::counter`] readings give an exact movement, so tests
//!   assert on deltas instead of grepping trace strings.
//! * [`MetricsRegistry::to_json`] / [`Snapshot::to_json`] render the
//!   machine-readable sidecar every experiment binary emits.
//!
//! # Naming scheme
//!
//! Paths are `/`-separated, lower-case, with `.`-separated leaf names for
//! families of related metrics: `mh/ip/drop.no_route`,
//! `ha/reg/request_rx`, `mh/if0.eth0/tx_frames`. See `docs/telemetry.md`.
//!
//! # Examples
//!
//! ```
//! use mosquitonet_sim::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let tx = registry.counter("mh/ip/tx");
//! let before = registry.snapshot();
//! tx.inc();
//! tx.add(2);
//! let after = registry.snapshot();
//! assert_eq!(after.counter("mh/ip/tx") - before.counter("mh/ip/tx"), 3);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use crate::json::Json;
use crate::time::SimDuration;

/// A monotonically increasing counter.
///
/// Handles are cheap to clone (an `Rc` bump) and increment (a `Cell`
/// read-modify-write); every clone observes the same value.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Creates a detached counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.set(self.cell.get().wrapping_add(1));
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Default latency bucket upper bounds, in microseconds.
///
/// Spans the magnitudes the paper measures: sub-millisecond send-path
/// phases (Figure 7's ~50–600 µs components) up to multi-second DHCP
/// acquisitions (Table 1 / Figure 6).
pub const DEFAULT_LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000,
];

struct HistogramInner {
    /// Bucket upper bounds (inclusive), in microseconds, ascending.
    bounds_us: Vec<u64>,
    /// One count per bound, plus a final overflow bucket.
    counts: Vec<Cell<u64>>,
    total: Cell<u64>,
    sum_us: Cell<u64>,
}

/// A fixed-bucket latency histogram over [`SimDuration`] samples.
#[derive(Clone)]
pub struct LatencyHistogram {
    inner: Rc<HistogramInner>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates a detached histogram with [`DEFAULT_LATENCY_BOUNDS_US`].
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::with_bounds(DEFAULT_LATENCY_BOUNDS_US)
    }

    /// Creates a detached histogram with explicit bucket upper bounds
    /// (inclusive, microseconds, strictly ascending).
    pub fn with_bounds(bounds_us: &[u64]) -> LatencyHistogram {
        assert!(!bounds_us.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds_us.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        LatencyHistogram {
            inner: Rc::new(HistogramInner {
                bounds_us: bounds_us.to_vec(),
                counts: (0..=bounds_us.len()).map(|_| Cell::new(0)).collect(),
                total: Cell::new(0),
                sum_us: Cell::new(0),
            }),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, sample: SimDuration) {
        let us = sample.as_micros();
        let idx = self
            .inner
            .bounds_us
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(self.inner.bounds_us.len()); // overflow bucket
        let cell = &self.inner.counts[idx];
        cell.set(cell.get() + 1);
        self.inner.total.set(self.inner.total.get() + 1);
        self.inner.sum_us.set(self.inner.sum_us.get() + us);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.inner.total.get()
    }

    /// Sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.inner.sum_us.get()
    }

    /// Mean sample in microseconds, or 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sum_us() as f64 / self.total() as f64
        }
    }

    /// The current bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds_us: self.inner.bounds_us.clone(),
            counts: self.inner.counts.iter().map(Cell::get).collect(),
            total: self.total(),
            sum_us: self.sum_us(),
        }
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LatencyHistogram(n={}, mean={:.1}µs)",
            self.total(),
            self.mean_us()
        )
    }
}

/// Immutable capture of one histogram's buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive, µs); `counts` has one extra
    /// overflow entry at the end.
    pub bounds_us: Vec<u64>,
    /// Per-bucket sample counts (`bounds_us.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total samples.
    pub total: u64,
    /// Sum of samples in µs.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Renders as JSON: `{"count", "sum_us", "buckets": [{"le_us", "count"}...], "overflow"}`.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .bounds_us
            .iter()
            .zip(&self.counts)
            .map(|(&le, &c)| Json::obj([("le_us", Json::from(le)), ("count", Json::from(c))]))
            .collect();
        Json::obj([
            ("count", Json::from(self.total)),
            ("sum_us", Json::from(self.sum_us)),
            ("buckets", Json::Arr(buckets)),
            (
                "overflow",
                Json::from(*self.counts.last().expect("overflow bucket")),
            ),
        ])
    }
}

/// One registered metric cell of any kind.
#[derive(Clone, Debug)]
pub(crate) enum MetricCell {
    /// A monotonic counter.
    Counter(Counter),
    /// A latency histogram.
    Histogram(LatencyHistogram),
}

/// The value of one metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Histogram bucket state.
    Histogram(HistogramSnapshot),
}

/// A hierarchical name → metric-cell registry.
///
/// Clones share the same underlying map, so the world, hosts, and the
/// experiment harness can all hold the registry without lifetimes.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, MetricCell>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter at `path`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `path` is registered as a different metric kind.
    pub fn counter(&self, path: impl Into<String>) -> Counter {
        let path = path.into();
        let mut map = self.inner.borrow_mut();
        match map
            .entry(path.clone())
            .or_insert_with(|| MetricCell::Counter(Counter::new()))
        {
            MetricCell::Counter(c) => c.clone(),
            other => panic!("metric {path} is a {}, not a counter", kind_name(other)),
        }
    }

    /// Returns the histogram at `path`, creating it (with the default
    /// bounds) if absent.
    ///
    /// # Panics
    ///
    /// Panics if `path` is registered as a different metric kind.
    pub fn histogram(&self, path: impl Into<String>) -> LatencyHistogram {
        let path = path.into();
        let mut map = self.inner.borrow_mut();
        match map
            .entry(path.clone())
            .or_insert_with(|| MetricCell::Histogram(LatencyHistogram::new()))
        {
            MetricCell::Histogram(h) => h.clone(),
            other => panic!("metric {path} is a {}, not a histogram", kind_name(other)),
        }
    }

    /// Binds an existing (detached) cell under `path`. Idempotent:
    /// re-registering replaces the mapping, so a world can rebind after
    /// topology changes without bookkeeping.
    fn register(&self, path: String, cell: MetricCell) {
        self.inner.borrow_mut().insert(path, cell);
    }

    /// Binds an existing counter under `path`.
    pub fn register_counter(&self, path: impl Into<String>, counter: &Counter) {
        self.register(path.into(), MetricCell::Counter(counter.clone()));
    }

    /// Binds an existing histogram under `path`.
    pub fn register_histogram(&self, path: impl Into<String>, histogram: &LatencyHistogram) {
        self.register(path.into(), MetricCell::Histogram(histogram.clone()));
    }

    /// A view that prefixes every path with `prefix/`.
    pub fn scope(&self, prefix: impl Into<String>) -> MetricsScope {
        MetricsScope {
            registry: self.clone(),
            prefix: prefix.into(),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// All registered paths, sorted.
    pub fn names(&self) -> Vec<String> {
        self.inner.borrow().keys().cloned().collect()
    }

    /// Captures every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            values: self
                .inner
                .borrow()
                .iter()
                .map(|(name, cell)| {
                    let value = match cell {
                        MetricCell::Counter(c) => MetricValue::Counter(c.get()),
                        MetricCell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Renders the whole registry as the experiment sidecar JSON document
    /// (see `docs/telemetry.md` for the schema).
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.inner.borrow();
        writeln!(f, "MetricsRegistry ({} metrics)", map.len())?;
        for (name, cell) in map.iter() {
            writeln!(f, "  {name} = {cell:?}")?;
        }
        Ok(())
    }
}

/// A registry view with a fixed path prefix (typically one host).
#[derive(Clone, Debug)]
pub struct MetricsScope {
    registry: MetricsRegistry,
    prefix: String,
}

impl MetricsScope {
    /// The counter at `prefix/name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(format!("{}/{name}", self.prefix))
    }

    /// The histogram at `prefix/name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> LatencyHistogram {
        self.registry.histogram(format!("{}/{name}", self.prefix))
    }

    /// Binds an existing counter at `prefix/name`.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        self.registry
            .register_counter(format!("{}/{name}", self.prefix), counter);
    }

    /// A nested scope at `prefix/name`.
    pub fn scope(&self, name: &str) -> MetricsScope {
        MetricsScope {
            registry: self.registry.clone(),
            prefix: format!("{}/{name}", self.prefix),
        }
    }
}

/// Declares a family of counters from one list: each field is named once,
/// beside the expression that gives its registry name (a literal, or a
/// code such as `DropReason::NoRoute.code()`). Generates the
/// `Clone + Default + Debug` struct of [`Counter`]s (a clone shares its
/// cells) and a `register_into(&MetricsScope)` that binds every field
/// under the scope at its declared name.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$doc:meta])* pub $field:ident => $metric:expr,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Default, Debug)]
        pub struct $name {
            $($(#[$doc])* pub $field: $crate::Counter,)*
        }

        impl $name {
            /// Binds every counter under `scope` at its declared name.
            pub fn register_into(&self, scope: &$crate::MetricsScope) {
                $(scope.register_counter($metric, &self.$field);)*
            }
        }
    };
}

/// All metric values at one instant, comparable and exportable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    values: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Merges per-shard snapshots into one document. Paths unique to a
    /// shard (host-scoped metrics, `profile/shard/{id}/…`) carry over
    /// unchanged; on a path collision counters sum and
    /// histograms merge bucket-wise. The result is a `BTreeMap` like any
    /// other snapshot, so its JSON rendering is byte-stable for a given
    /// set of parts.
    ///
    /// # Panics
    ///
    /// Panics when colliding paths have different metric kinds or
    /// histogram bounds — shards of one run share a registration scheme,
    /// so a mismatch is a wiring bug.
    pub fn merged(parts: impl IntoIterator<Item = Snapshot>) -> Snapshot {
        let mut values: BTreeMap<String, MetricValue> = BTreeMap::new();
        for part in parts {
            for (name, v) in part.values {
                match values.entry(name) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(v);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let merged = match (e.get(), &v) {
                            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                                MetricValue::Counter(a.wrapping_add(*b))
                            }
                            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                                assert_eq!(
                                    a.bounds_us,
                                    b.bounds_us,
                                    "histogram {} bounds differ across shards",
                                    e.key()
                                );
                                MetricValue::Histogram(HistogramSnapshot {
                                    bounds_us: a.bounds_us.clone(),
                                    counts: a
                                        .counts
                                        .iter()
                                        .zip(&b.counts)
                                        .map(|(x, y)| x + y)
                                        .collect(),
                                    total: a.total + b.total,
                                    sum_us: a.sum_us + b.sum_us,
                                })
                            }
                            _ => panic!("metric {} changes kind across shards", e.key()),
                        };
                        *e.get_mut() = merged;
                    }
                }
            }
        }
        Snapshot { values }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The counter `name`'s value; 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram `name`'s state, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Renders the snapshot as the sidecar JSON document.
    pub fn to_json(&self) -> Json {
        let metrics: Vec<(String, Json)> = self
            .values
            .iter()
            .map(|(name, value)| {
                let j = match value {
                    MetricValue::Counter(v) => {
                        Json::obj([("type", Json::from("counter")), ("value", Json::from(*v))])
                    }
                    MetricValue::Histogram(h) => {
                        let mut obj = vec![("type".to_string(), Json::from("histogram"))];
                        if let Json::Obj(members) = h.to_json() {
                            obj.extend(members);
                        }
                        Json::Obj(obj)
                    }
                };
                (name.clone(), j)
            })
            .collect();
        Json::obj([
            ("schema", Json::from("mosquitonet.metrics/v1")),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

fn kind_name(cell: &MetricCell) -> &'static str {
    match cell {
        MetricCell::Counter(_) => "counter",
        MetricCell::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let r = MetricsRegistry::new();
        let a = r.counter("h/ip/tx");
        let b = r.counter("h/ip/tx");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn detached_cells_bind_later() {
        let c = Counter::new();
        c.add(5);
        let r = MetricsRegistry::new();
        r.register_counter("mh/ip/tx", &c);
        assert_eq!(r.snapshot().counter("mh/ip/tx"), 5);
        c.inc();
        assert_eq!(r.snapshot().counter("mh/ip/tx"), 6);
        // Rebinding is idempotent.
        r.register_counter("mh/ip/tx", &c);
        assert_eq!(r.len(), 1);
    }

    fn code() -> &'static str {
        "named.by_code"
    }

    counters! {
        /// A family for the test below.
        pub struct TestFamily {
            /// Named by a literal.
            pub plain => "plain",
            /// Named by an expression.
            pub computed => code(),
        }
    }

    #[test]
    fn a_counter_family_registers_every_member_at_its_declared_name() {
        let family = TestFamily::default();
        let shared = family.clone();
        let r = MetricsRegistry::new();
        family.register_into(&r.scope("h"));
        assert_eq!(r.names(), ["h/named.by_code", "h/plain"]);
        shared.plain.inc();
        shared.computed.add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("h/plain"), 1);
        assert_eq!(snap.counter("h/named.by_code"), 3);
        assert_eq!(family.computed.get(), 3, "a clone shares its cells");
    }

    #[test]
    #[should_panic(expected = "is a counter, not a histogram")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn scope_prefixes_paths() {
        let r = MetricsRegistry::new();
        let mh = r.scope("mh");
        mh.counter("ip/tx").inc();
        mh.scope("if0.eth0").counter("tx_frames").add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("mh/ip/tx"), 1);
        assert_eq!(snap.counter("mh/if0.eth0/tx_frames"), 4);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = LatencyHistogram::with_bounds(&[100, 1_000]);
        h.record(SimDuration::from_micros(40));
        h.record(SimDuration::from_micros(100)); // inclusive upper bound
        h.record(SimDuration::from_micros(999));
        h.record(SimDuration::from_micros(5_000)); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.total, 4);
        assert_eq!(s.sum_us, 40 + 100 + 999 + 5_000);
        assert_eq!(h.mean_us(), (40.0 + 100.0 + 999.0 + 5000.0) / 4.0);
    }

    #[test]
    fn merged_snapshots_union_and_sum() {
        let a = MetricsRegistry::new();
        a.counter("shard0/ip/tx").add(3);
        a.counter("pktbuf/arena_resets").add(2);
        a.histogram("lat").record(SimDuration::from_micros(75));
        let b = MetricsRegistry::new();
        b.counter("shard1/ip/tx").add(5);
        b.counter("pktbuf/arena_resets").add(4);
        b.histogram("lat").record(SimDuration::from_micros(150));
        let m = Snapshot::merged([a.snapshot(), b.snapshot()]);
        assert_eq!(m.counter("shard0/ip/tx"), 3);
        assert_eq!(m.counter("shard1/ip/tx"), 5);
        assert_eq!(m.counter("pktbuf/arena_resets"), 6);
        let h = m.histogram("lat").expect("merged histogram");
        assert_eq!(h.total, 2);
        assert_eq!(h.sum_us, 225);
        // Order of parts does not change the rendered document when no
        // collisions exist; with sums it is commutative anyway.
        let m2 = Snapshot::merged([b.snapshot(), a.snapshot()]);
        assert_eq!(m.to_json().render(), m2.to_json().render());
    }

    #[test]
    fn snapshot_json_schema() {
        let r = MetricsRegistry::new();
        r.counter("mh/ip/tx").add(3);
        r.histogram("mh/reg/latency_us")
            .record(SimDuration::from_micros(75));
        let json = r.to_json().render();
        assert!(
            json.contains(r#""schema":"mosquitonet.metrics/v1""#),
            "{json}"
        );
        assert!(
            json.contains(r#""mh/ip/tx":{"type":"counter","value":3}"#),
            "{json}"
        );
        assert!(json.contains(r#""type":"histogram","count":1"#), "{json}");
    }
}
