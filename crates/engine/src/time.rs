//! Picosecond-resolution simulation time.
//!
//! The simulated system mixes a 2 GHz processor (500 ps period) with a
//! 400 MHz memory channel (2500 ps period), so a picosecond base unit keeps
//! every clock edge exactly representable in an integer.

use crate::Clock;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation timeline, in picoseconds.
///
/// `SimTime` is an absolute coordinate; [`Duration`] is a span between two
/// instants. The distinction catches unit bugs (e.g. scheduling an event at
/// "150 ns" instead of "now + 150 ns") at compile time.
///
/// # Examples
///
/// ```
/// use mellow_engine::{Duration, SimTime};
///
/// let start = SimTime::from_ns(100);
/// let end = start + Duration::from_ns(50);
/// assert_eq!(end - start, Duration::from_ns(50));
/// assert_eq!(end.as_ps(), 150_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in picoseconds.
///
/// See [`SimTime`] for the absolute-versus-relative distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of the simulation timeline.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "never scheduled" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ps` picoseconds after the origin.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates an instant `ns` nanoseconds after the origin.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1000)
    }

    /// Creates an instant `us` microseconds after the origin.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Returns the instant as picoseconds since the origin.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the instant as (truncated) nanoseconds since the origin.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Returns the instant as fractional seconds since the origin.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Returns the span since `earlier`, saturating at zero if `earlier`
    /// is actually later than `self`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the time elapsed since the origin as a [`Duration`].
    #[inline]
    pub const fn since_origin(self) -> Duration {
        Duration(self.0)
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a span of `ps` picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a span of `ns` nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * 1000)
    }

    /// Creates a span of `us` microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * 1_000_000)
    }

    /// Returns the span in picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the span in (truncated) nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1000
    }

    /// Returns the span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Returns the fraction `self / total`, or 0.0 when `total` is empty.
    ///
    /// This is the workhorse behind "percentage of execution time" metrics
    /// such as bank utilization (Figs. 3, 12) and write-drain time (Fig. 13).
    #[inline]
    pub fn fraction_of(self, total: Duration) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Returns `self - other`, clamping at zero instead of panicking.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a dimensionless factor, rounding to the
    /// nearest picosecond.
    ///
    /// Used for derived timings such as "3.0× slow write pulse".
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or the result overflows `u64`.
    #[inline]
    pub fn scale(self, factor: f64) -> Duration {
        assert!(factor >= 0.0, "duration scale factor must be non-negative");
        let scaled = self.0 as f64 * factor;
        assert!(scaled <= u64::MAX as f64, "scaled duration overflows");
        Duration(scaled.round() as u64)
    }
}

/// Generates a clock-domain cycle-count newtype.
///
/// `CoreCycles` and `MemCycles` share every mechanism; only the domain
/// (and therefore which [`Clock`] they may legally meet) differs, so
/// the shared surface lives in one macro and domain-crossing
/// conversions are written out explicitly below.
macro_rules! cycle_newtype {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Zero cycles.
            pub const ZERO: $name = $name(0);
            /// One cycle.
            pub const ONE: $name = $name(1);

            /// Wraps a raw cycle count. This is the only entry point
            /// for untyped counts; keep call sites rare and obvious.
            #[inline]
            pub const fn new(count: u64) -> Self {
                $name(count)
            }

            /// Returns the raw cycle count. The explicit escape hatch
            /// out of the domain — pair it with a comment when the
            /// destination is another integer domain.
            #[inline]
            pub const fn count(self) -> u64 {
                self.0
            }

            /// Returns the count as `f64` for ratio arithmetic (IPC,
            /// utilization); never for further integer time math.
            #[inline]
            pub fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Returns `true` at exactly zero cycles.
            #[inline]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Returns the instant of this cycle's rising edge on
            /// `clock`, which must be the domain's own clock.
            #[inline]
            pub fn edge(self, clock: &Clock) -> SimTime {
                SimTime::from_ps(clock.period().as_ps() * self.0)
            }

            /// Returns the span occupied by this many cycles of
            /// `clock`, which must be the domain's own clock.
            #[inline]
            pub fn span(self, clock: &Clock) -> Duration {
                Duration::from_ps(clock.period().as_ps() * self.0)
            }

            /// Returns the first cycle of `clock` whose rising edge is
            /// at or after `t` (the inverse of [`edge`](Self::edge),
            /// rounding up).
            #[inline]
            pub fn at_or_after(t: SimTime, clock: &Clock) -> Self {
                $name(t.as_ps().div_ceil(clock.period().as_ps()))
            }

            /// Returns the cycle of `clock` containing `t` (rounding
            /// down).
            #[inline]
            pub fn containing(t: SimTime, clock: &Clock) -> Self {
                $name(t.as_ps() / clock.period().as_ps())
            }

            /// Returns `true` when the cycle index is a multiple of
            /// the dimensionless `divisor`.
            #[inline]
            pub const fn is_multiple_of(self, divisor: u64) -> bool {
                self.0 % divisor == 0
            }

            /// Returns the smallest multiple of the dimensionless
            /// `divisor` at or above this cycle.
            #[inline]
            pub fn next_multiple_of(self, divisor: u64) -> Self {
                $name(self.0.next_multiple_of(divisor))
            }

            /// Returns the larger of two counts.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of two counts.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<u64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: u64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

cycle_newtype!(
    /// A count of (or index into) core-clock cycles — 500 ps each in
    /// the paper's 2 GHz configuration.
    ///
    /// Core-domain quantities must not meet memory-domain or picosecond
    /// quantities through raw integers; convert explicitly via
    /// [`CoreCycles::edge`]/[`CoreCycles::span`] (into [`SimTime`] /
    /// [`Duration`]) or [`CoreCycles::to_mem`] (into [`MemCycles`]).
    /// `mellow-lint`'s clock-domain rule enforces this outside the
    /// engine's time layer.
    ///
    /// # Examples
    ///
    /// ```
    /// use mellow_engine::{Clock, CoreCycles, SimTime};
    ///
    /// let core = Clock::from_ghz(2);
    /// let c = CoreCycles::new(10);
    /// assert_eq!(c.edge(&core), SimTime::from_ns(5));
    /// assert_eq!(CoreCycles::at_or_after(SimTime::from_ps(4_999), &core), c);
    /// assert_eq!(c.to_mem(5), mellow_engine::MemCycles::new(2));
    /// ```
    CoreCycles,
    "core cycles"
);

cycle_newtype!(
    /// A count of (or index into) memory-clock cycles (edges) — 2500 ps
    /// each in the paper's 400 MHz configuration.
    ///
    /// See [`CoreCycles`] for the domain-discipline contract.
    MemCycles,
    "memory cycles"
);

impl CoreCycles {
    /// Converts to whole memory-clock cycles, given `divisor` core
    /// cycles per memory cycle (5 for 2 GHz / 400 MHz), rounding down.
    ///
    /// The only sanctioned core→memory domain crossing.
    #[inline]
    pub const fn to_mem(self, divisor: u64) -> MemCycles {
        MemCycles(self.0 / divisor)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.since_origin())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0ns")
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1000) {
            write!(f, "{}ns", ps / 1000)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_ns(150).as_ps(), 150_000);
        assert_eq!(SimTime::from_us(500).as_ns(), 500_000);
        assert_eq!(Duration::from_ns(1).as_ps(), 1000);
        assert_eq!(Duration::from_us(2).as_ns(), 2000);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let a = SimTime::from_ns(100);
        let d = Duration::from_ns(40);
        assert_eq!((a + d) - a, d);
        assert_eq!((a + d) - d, a);
        assert_eq!(d + d, Duration::from_ns(80));
        assert_eq!(d * 3, Duration::from_ns(120));
        assert_eq!(d / 4, Duration::from_ns(10));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Duration::from_ns(5);
        let b = Duration::from_ns(9);
        assert_eq!(b.saturating_sub(a), Duration::from_ns(4));
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_ns(10);
        let late = SimTime::from_ns(20);
        assert_eq!(late.saturating_since(early), Duration::from_ns(10));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn fraction_of_handles_zero_total() {
        assert_eq!(Duration::from_ns(5).fraction_of(Duration::ZERO), 0.0);
        let half = Duration::from_ns(5).fraction_of(Duration::from_ns(10));
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Duration::from_ns(150).scale(3.0), Duration::from_ns(450));
        assert_eq!(Duration::from_ps(3).scale(0.5), Duration::from_ps(2)); // 1.5 rounds to 2
        assert_eq!(Duration::from_ns(150).scale(1.5), Duration::from_ns(225));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scale_rejects_negative() {
        let _ = Duration::from_ns(1).scale(-1.0);
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Duration::from_ns(450).to_string(), "450ns");
        assert_eq!(Duration::from_us(500).to_string(), "500us");
        assert_eq!(Duration::from_ps(7).to_string(), "7ps");
        assert_eq!(Duration::ZERO.to_string(), "0ns");
    }

    #[test]
    fn seconds_conversion() {
        let one_sec = Duration::from_ps(1_000_000_000_000);
        assert!((one_sec.as_secs_f64() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_ns(n)).sum();
        assert_eq!(total, Duration::from_ns(6));
    }

    #[test]
    fn core_cycles_convert_through_the_core_clock() {
        let core = Clock::from_ghz(2);
        let c = CoreCycles::new(60);
        assert_eq!(c.edge(&core), SimTime::from_ns(30));
        assert_eq!(c.span(&core), Duration::from_ns(30));
        assert_eq!(CoreCycles::at_or_after(SimTime::from_ns(30), &core), c);
        assert_eq!(
            CoreCycles::at_or_after(SimTime::from_ps(29_999), &core),
            c,
            "at_or_after rounds up to the next edge"
        );
        assert_eq!(CoreCycles::containing(SimTime::from_ps(30_499), &core), c);
    }

    #[test]
    fn mem_cycles_convert_through_the_mem_clock() {
        let mem = Clock::from_mhz(400);
        let m = MemCycles::new(60);
        assert_eq!(m.span(&mem), Duration::from_ns(150)); // normal write pulse
        assert_eq!(MemCycles::at_or_after(SimTime::from_ns(150), &mem), m);
    }

    #[test]
    fn core_to_mem_crossing_floors() {
        // 2 GHz / 400 MHz: five core cycles per memory cycle.
        assert_eq!(CoreCycles::new(10).to_mem(5), MemCycles::new(2));
        assert_eq!(CoreCycles::new(14).to_mem(5), MemCycles::new(2));
        assert_eq!(CoreCycles::new(15).to_mem(5), MemCycles::new(3));
    }

    #[test]
    fn cycle_arithmetic_and_alignment() {
        let a = CoreCycles::new(7);
        assert_eq!(a + CoreCycles::ONE, CoreCycles::new(8));
        assert_eq!(a - CoreCycles::new(3), CoreCycles::new(4));
        assert_eq!(a * 3, CoreCycles::new(21));
        assert!(a.next_multiple_of(5) == CoreCycles::new(10));
        assert!(CoreCycles::new(10).is_multiple_of(5));
        assert!(!a.is_multiple_of(5));
        assert_eq!(a.max(CoreCycles::new(9)), CoreCycles::new(9));
        assert_eq!(a.min(CoreCycles::new(9)), a);
        assert!(CoreCycles::ZERO.is_zero());
        assert_eq!(a.count(), 7);
        assert_eq!(a.as_f64(), 7.0);
        assert_eq!(a.to_string(), "7 core cycles");
        assert_eq!(MemCycles::new(2).to_string(), "2 memory cycles");
    }
}
