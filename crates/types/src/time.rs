//! Simulated time.
//!
//! The discrete-event simulator measures time in nanoseconds since the start
//! of the run. Wrapping the value in [`SimTime`] / [`SimDuration`] newtypes
//! keeps instants and durations from being mixed up and gives convenient
//! constructors mirroring `std::time::Duration`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time (nanoseconds since the start of the run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Time zero (the start of the simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// Returns the raw nanosecond count.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Returns the time in (fractional) milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time in (fractional) seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, saturating at zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000_000_000.0).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns true if the duration is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_millis(5), SimDuration::from_micros(5_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn negative_float_durations_saturate_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(t1.as_millis_f64(), 10.0);
        assert_eq!(t1 - t0, SimDuration::from_millis(10));
        // Subtraction saturates rather than underflowing.
        assert_eq!(t0 - t1, SimDuration::ZERO);
        assert_eq!(t1.since(t0), SimDuration::from_millis(10));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_millis(6);
        assert_eq!(d * 2, SimDuration::from_millis(12));
        assert_eq!(d / 3, SimDuration::from_millis(2));
        assert_eq!(
            d + SimDuration::from_millis(4),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            d - SimDuration::from_millis(10),
            SimDuration::ZERO,
            "subtraction saturates"
        );
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime(1_500_000).to_string(), "1.500ms");
    }
}
