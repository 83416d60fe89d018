//! Measurement statistics used by the experiment harness.
//!
//! The paper reports means with standard deviations (Figure 7) and
//! iteration-count histograms of packets lost (Figure 6); [`Summary`] and
//! [`Histogram`] produce exactly those.

use crate::json::Json;

/// Accumulates samples and reports mean, standard deviation and extremes.
///
/// Uses Welford's online algorithm, so it is numerically stable for the
/// small-microsecond magnitudes the registration breakdown produces.
///
/// # Examples
///
/// ```
/// use mosquitonet_sim::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.stddev() - 2.138).abs() < 0.001);
/// ```
#[derive(Clone, Debug)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in samples {
            s.add(x);
        }
        s
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator), or 0 with < 2 samples.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Renders as JSON: `{"count", "mean", "stddev", "min", "max"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count())),
            ("mean", Json::from(self.mean())),
            ("stddev", Json::from(self.stddev())),
            ("min", self.min().map(Json::from).unwrap_or(Json::Null)),
            ("max", self.max().map(Json::from).unwrap_or(Json::Null)),
        ])
    }

    /// Merges another summary into this one (parallel Welford combine).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram over small non-negative integer outcomes.
///
/// Matches the presentation of the paper's Figure 6: the x-axis is "number
/// of packets lost" and the bar height is "number of iterations with that
/// loss". Out-of-range outcomes are clamped into the final (overflow)
/// bucket and reported via [`Histogram::overflow`].
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with buckets for outcomes `0..=max_value`.
    pub fn new(max_value: usize) -> Self {
        Histogram {
            buckets: vec![0; max_value + 1],
            overflow: 0,
            total: 0,
        }
    }

    /// Records one outcome.
    pub fn record(&mut self, value: usize) {
        self.total += 1;
        match self.buckets.get_mut(value) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Count of iterations with exactly `value` (0 if out of range).
    pub fn count(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// Count of outcomes beyond the largest bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total outcomes recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bucket counts, index = outcome value.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Largest outcome recorded that fits in a bucket, if any.
    pub fn max_recorded(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Mean outcome over all in-range records.
    pub fn mean(&self) -> f64 {
        let in_range: u64 = self.buckets.iter().sum();
        if in_range == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        weighted as f64 / in_range as f64
    }

    /// Renders as JSON: `{"buckets", "overflow", "total", "mean"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "buckets",
                Json::arr(self.buckets.iter().map(|&c| Json::from(c))),
            ),
            ("overflow", Json::from(self.overflow)),
            ("total", Json::from(self.total)),
            ("mean", Json::from(self.mean())),
        ])
    }

    /// Rebuilds a histogram from its [`Histogram::to_json`] document
    /// (`mean` is derived, so it is not read). Panics naming the member
    /// that is missing or mistyped.
    pub fn from_json(j: &Json) -> Histogram {
        let buckets = j.at::<&[Json]>("buckets").iter();
        Histogram {
            buckets: buckets.map(|b| b.at::<u64>("")).collect(),
            overflow: j.at("overflow"),
            total: j.at("total"),
        }
    }

    /// Renders an ASCII bar chart in the style of the paper's Figure 6.
    /// Bars are scaled down when any count exceeds the 50-column budget.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{label}\n"));
        let hi = self.max_recorded().unwrap_or(0);
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let scale = peak.div_ceil(50); // >=1; '#' represents `scale` runs
        for v in 0..=hi {
            let c = self.count(v);
            let bar = "#".repeat((c / scale) as usize + usize::from(!c.is_multiple_of(scale)));
            out.push_str(&format!("  {v:>3} lost | {bar:<20} {c}\n"));
        }
        if self.overflow > 0 {
            out.push_str(&format!(
                "  >{:>2} lost | overflow {}\n",
                self.buckets.len() - 1,
                self.overflow
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.stddev() - 1.2909944).abs() < 1e-6);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = Summary::from_samples(&[7.39]);
        assert_eq!(s.mean(), 7.39);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn merge_equals_single_pass() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let whole = Summary::from_samples(&all);
        let mut merged = Summary::from_samples(&all[..37]);
        merged.merge(&Summary::from_samples(&all[37..]));
        assert!((whole.mean() - merged.mean()).abs() < 1e-9);
        assert!((whole.stddev() - merged.stddev()).abs() < 1e-9);
        assert_eq!(whole.count(), merged.count());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Summary::from_samples(&[1.0, 2.0]);
        a.merge(&Summary::new());
        assert_eq!(a.count(), 2);
        let mut b = Summary::new();
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert_eq!(b.mean(), 1.5);
    }

    #[test]
    fn histogram_counts_and_overflow() {
        let mut h = Histogram::new(5);
        for v in [0, 0, 0, 1, 1, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.count(0), 3);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 7);
        assert_eq!(h.max_recorded(), Some(5));
    }

    #[test]
    fn histogram_mean_ignores_overflow() {
        let mut h = Histogram::new(2);
        h.record(0);
        h.record(2);
        h.record(100); // overflow
        assert_eq!(h.mean(), 1.0);
    }

    #[test]
    fn histogram_render_contains_bars() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(0);
        h.record(2);
        let s = h.render("cold switch");
        assert!(s.contains("cold switch"));
        assert!(s.contains("0 lost | ##"));
        assert!(s.contains("2 lost | #"));
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new(2);
        for v in [0, 0, 1, 5] {
            h.record(v);
        }
        let back = Json::parse(&h.to_json().render()).expect("parse");
        let back = Histogram::from_json(&back);
        assert_eq!(back.buckets(), h.buckets());
        assert_eq!((back.overflow(), back.total()), (1, 4));
        assert_eq!(back.render("x"), h.render("x"));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(4);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_recorded(), None);
    }
}
