//! Simulation time.
//!
//! Time is represented as seconds since simulation start in an `f64` wrapped
//! in [`SimTime`].  The wrapper provides a total order (NaN is rejected at
//! construction) so times can be used as keys in the event queue, plus the
//! small amount of arithmetic the simulator needs.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.  Panics on NaN, infinite or negative
    /// values: an event at +∞ never fires, and its year in the calendar
    /// queue would saturate the cursor.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be a non-negative, finite number of seconds, got {secs}"
        );
        SimTime(secs)
    }

    /// The value in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Saturating subtraction returning a duration in seconds (>= 0).
    pub fn saturating_since(self, earlier: SimTime) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so partial_cmp is always Some.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.5);
        assert!(a < b);
        assert_eq!(b - a, 1.5);
        assert_eq!((a + 0.5).as_secs(), 1.5);
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
    }

    #[test]
    fn saturating_since_never_negative() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.saturating_since(b), 0.0);
        assert_eq!(b.saturating_since(a), 1.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite number of seconds, got inf")]
    fn infinite_time_rejected() {
        let _ = SimTime::ZERO + f64::INFINITY;
    }

    #[test]
    fn add_assign_works() {
        let mut t = SimTime::from_secs(1.0);
        t += 0.25;
        assert_eq!(t.as_secs(), 1.25);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500000s");
    }
}
