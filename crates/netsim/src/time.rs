//! Virtual time: nanosecond-resolution instants and durations.
//!
//! Integer nanoseconds keep event ordering exact and runs reproducible —
//! no floating-point drift between trials (repeatability, §2.1 of the
//! paper).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_secs_f64(s: f64) -> SimTime {
        SimTime((s * 1e9).round() as u64)
    }

    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole microseconds (truncating), the histogram tick unit.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Transmission time of `bytes` at `bits_per_sec`.
    pub fn serialization(bytes: usize, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let bits = bytes as u128 * 8;
        SimDuration(((bits * 1_000_000_000) / bits_per_sec as u128) as u64)
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    pub fn mul_f64(self, f: f64) -> SimDuration {
        SimDuration((self.0 as f64 * f).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, o: SimDuration) -> SimDuration {
        SimDuration(self.0 + o.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, o: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(o.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).0, 3_000_000);
        assert_eq!(SimTime::from_micros(5).0, 5_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t, SimTime::from_millis(1500));
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
        // Saturating subtraction of a later time.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(
            t.since(SimTime::from_secs(1)),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn serialization_delay() {
        // 1250 bytes at 1 Gb/s = 10 µs.
        let d = SimDuration::serialization(1250, 1_000_000_000);
        assert_eq!(d, SimDuration::from_micros(10));
        // Zero bandwidth means "infinite" (no serialization delay modeled).
        assert_eq!(SimDuration::serialization(1250, 0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_micros(1) < SimDuration::from_millis(1));
    }
}
