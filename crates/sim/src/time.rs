//! Virtual time: instants and durations with nanosecond resolution.
//!
//! The paper reports measurements from microseconds (per-step registration
//! costs, Figure 7) up to seconds (device bring-up, Figure 6), so nanosecond
//! ticks in a `u64` give headroom of ~584 years of simulated time — far more
//! than any experiment needs.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is in the future, which
    /// mirrors `std::time::Instant::saturating_duration_since` and avoids
    /// panics in measurement code fed with out-of-order samples.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference between two instants.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from a float of seconds, saturating at zero.
    ///
    /// Handy for rate computations such as serialization delays
    /// (`bytes * 8 / bits_per_second`).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds, truncating.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("instant before simulation start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration between simulation instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration difference"),
        )
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(250).as_micros(), 250_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(t1 - t0, SimDuration::from_millis(10));
        assert_eq!(t1.as_millis(), 10);
    }

    #[test]
    fn saturating_since_handles_future_instants() {
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(50);
        assert_eq!(t1.saturating_since(t0), SimDuration::ZERO);
        assert_eq!(t0.saturating_since(t1), SimDuration::from_nanos(50));
    }

    #[test]
    fn checked_since_rejects_reversed_order() {
        let t0 = SimTime::from_nanos(100);
        let t1 = SimTime::from_nanos(50);
        assert!(t1.checked_since(t0).is_none());
        assert_eq!(t0.checked_since(t1), Some(SimDuration::from_nanos(50)));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.001_234_5),
            SimDuration::from_nanos(1_234_500)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_millis(250);
        assert_eq!(d * 4, SimDuration::from_secs(1));
        assert_eq!(d / 5, SimDuration::from_millis(50));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(SimDuration::from_secs(3).to_string(), "3s");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7ms");
        assert_eq!(SimDuration::from_micros(9).to_string(), "9us");
        assert_eq!(SimDuration::from_nanos(11).to_string(), "11ns");
        assert_eq!(SimDuration::ZERO.to_string(), "0ns");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_millis(5)).to_string(),
            "t+5ms"
        );
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn sub_panics_on_reversed_instants() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }
}
