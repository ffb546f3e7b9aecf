//! Simulated time in integer picoseconds, plus frequency/cycle math.
//!
//! All simulated clocks in `fluctrace` are integer picosecond counters.
//! A picosecond granularity means that a 3.333… GHz core clock (0.3 ns
//! period) is representable without rounding drift: one cycle at
//! `f` Hz spans `10^12 / f` ps, and cycle↔time conversions use exact
//! 128-bit intermediate arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute point in simulated time, measured in picoseconds since
/// the start of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// Duration elapsed since `earlier`. Panics (in debug) if `earlier`
    /// is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "SimTime::since: earlier > self");
        SimDuration(self.0 - earlier.0)
    }
    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Construct from fractional nanoseconds, rounding to the nearest
    /// picosecond.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns >= 0.0, "negative duration");
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }
    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }
    /// Duration as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Duration as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    /// Checked division producing a unitless ratio.
    #[inline]
    pub fn ratio(self, other: SimDuration) -> f64 {
        self.0 as f64 / other.0 as f64
    }
    /// Multiply by an integer fraction `num/den` with exact 128-bit
    /// intermediate math (used for proportional interpolation inside
    /// execution segments).
    #[inline]
    pub fn mul_frac(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "mul_frac by zero denominator");
        SimDuration(((self.0 as u128 * num as u128) / den as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < PS_PER_NS * 10 {
            write!(f, "{}ps", self.0)
        } else if self.0 < PS_PER_US * 10 {
            write!(f, "{:.1}ns", self.as_ns_f64())
        } else {
            write!(f, "{:.3}us", self.as_us_f64())
        }
    }
}

/// A clock frequency in Hertz.
///
/// Provides exact conversions between cycle counts and [`SimDuration`]s
/// using 128-bit intermediates, so converting N cycles to time and back
/// is lossless for all realistic N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Freq(u64);

impl Freq {
    /// Construct from Hertz.
    #[inline]
    pub const fn hz(hz: u64) -> Self {
        Freq(hz)
    }
    /// Construct from megahertz.
    #[inline]
    pub const fn mhz(mhz: u64) -> Self {
        Freq(mhz * 1_000_000)
    }
    /// Construct from gigahertz (integer).
    #[inline]
    pub const fn ghz(ghz: u64) -> Self {
        Freq(ghz * 1_000_000_000)
    }
    /// The raw frequency in Hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }
    /// Duration of `cycles` clock cycles at this frequency.
    ///
    /// Exact: `cycles * 10^12 / hz` computed in 128 bits.
    #[inline]
    pub fn cycles_to_dur(self, cycles: u64) -> SimDuration {
        SimDuration::from_ps(((cycles as u128 * PS_PER_S as u128) / self.0 as u128) as u64)
    }
    /// Number of whole cycles elapsed in `dur` at this frequency.
    #[inline]
    pub fn dur_to_cycles(self, dur: SimDuration) -> u64 {
        ((dur.as_ps() as u128 * self.0 as u128) / PS_PER_S as u128) as u64
    }
    /// Number of whole cycles on a clock that started at t=0, at
    /// absolute time `t` — i.e. a timestamp counter value.
    #[inline]
    pub fn tsc_at(self, t: SimTime) -> u64 {
        ((t.as_ps() as u128 * self.0 as u128) / PS_PER_S as u128) as u64
    }
    /// The period of one cycle.
    #[inline]
    pub fn period(self) -> SimDuration {
        self.cycles_to_dur(1)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GHz", self.0 as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(2).as_ps(), 2 * PS_PER_MS);
        assert_eq!(SimDuration::from_us(3).as_ns(), 3_000);
        assert!((SimDuration::from_ns(1500).as_us_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(40);
        assert_eq!((t + d).as_ns(), 140);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
        assert_eq!(d * 3, SimDuration::from_ns(120));
        assert_eq!(d / 4, SimDuration::from_ns(10));
    }

    #[test]
    fn mul_frac_is_proportional() {
        let d = SimDuration::from_ns(1000);
        assert_eq!(d.mul_frac(1, 4), SimDuration::from_ns(250));
        assert_eq!(d.mul_frac(0, 7), SimDuration::ZERO);
        assert_eq!(d.mul_frac(7, 7), d);
        // No overflow for large values; u64::MAX/2 over u64::MAX is just
        // below one half, so the truncated result is (big/2 - 1ps).
        let big = SimDuration::from_ms(10_000);
        let half = big.mul_frac(u64::MAX / 2, u64::MAX);
        assert!(big / 2 - half <= SimDuration::from_ps(1));
    }

    #[test]
    fn freq_conversions_exact_at_3ghz() {
        let f = Freq::ghz(3);
        // 3 cycles at 3 GHz = exactly 1 ns.
        assert_eq!(f.cycles_to_dur(3), SimDuration::from_ns(1));
        assert_eq!(f.dur_to_cycles(SimDuration::from_ns(1)), 3);
        // Round trip for a large cycle count.
        let c = 123_456_789_012;
        assert_eq!(f.dur_to_cycles(f.cycles_to_dur(c)), c);
    }

    #[test]
    fn freq_tsc_matches_dur_to_cycles() {
        let f = Freq::mhz(2_600);
        let t = SimTime::from_us(150);
        assert_eq!(f.tsc_at(t), f.dur_to_cycles(t.since(SimTime::ZERO)));
    }

    #[test]
    fn non_integer_period_does_not_drift() {
        // 3.333 GHz has a non-integral ps period; summing cycle-by-cycle
        // conversions must stay within 1 ps per conversion of the exact value.
        let f = Freq::mhz(3_333);
        let exact = f.cycles_to_dur(1_000_000);
        let period_ps_x1m = (1_000_000u128 * PS_PER_S as u128) / f.as_hz() as u128;
        assert_eq!(exact.as_ps() as u128, period_ps_x1m);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_ns(100)), "100.0ns");
        assert_eq!(format!("{}", SimDuration::from_us(15)), "15.000us");
        assert_eq!(format!("{}", Freq::ghz(3)), "3.000GHz");
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
