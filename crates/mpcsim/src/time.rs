//! Simulated time: fixed-point nanoseconds.
//!
//! The paper's cost model is expressed in microseconds (constant tests
//! 30 µs, left token 32 µs, network latency 0.5 µs, …). We store
//! nanoseconds in a `u64` so that sub-microsecond quantities (the 0.5 µs
//! Nectar latency) are exact and all arithmetic is integral and
//! deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Whole nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting).
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("simulated time underflow"))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("simulated time overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}us", self.0 / 1_000)
        } else {
            write!(f, "{:.3}us", self.as_us())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(3), SimTime::from_ns(3_000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(10);
        let b = SimTime::from_us(4);
        assert_eq!(a + b, SimTime::from_us(14));
        assert_eq!(a - b, SimTime::from_us(6));
        assert_eq!(b * 3, SimTime::from_us(12));
        assert_eq!(a / 2, SimTime::from_us(5));
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn sum_of_iter() {
        let total: SimTime = (1..=4).map(SimTime::from_us).sum();
        assert_eq!(total, SimTime::from_us(10));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_us(16).to_string(), "16us");
        assert_eq!(SimTime::from_ns(500).to_string(), "0.500us");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(999) < SimTime::from_us(1));
    }
}
