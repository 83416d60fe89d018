//! Order statistics for repeat timings: median, quartiles, extremes.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is the rule the benchmark
//! driver applies to the values this harness prints — the spread a run of
//! `run.sh` shows is then the spread the driver will see.

/// Median, quartiles, extremes and sample count of one metric's repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median
    /// is 0): the spread figure the acceptance rule is stated in.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method. A single sample is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Summarises one metric's repeats.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, _, q3) = quartiles(values);
    let v = sorted(values);
    Summary {
        median: median(values),
        q1,
        q3,
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn summary_carries_extremes_count_and_spread() {
        let s = summarize(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.min, s.max, s.n), (9.0, 13.0, 5));
        assert_eq!(s.median, 11.0);
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }
}
