//! Fixed-frequency clock domains.

use crate::Duration;

/// A fixed-frequency clock domain.
///
/// Its period converts cycle counts to and from simulation time through
/// the domain-tagged [`CoreCycles`](crate::CoreCycles) and
/// [`MemCycles`](crate::MemCycles). The period must be an integer number
/// of picoseconds, which holds for every frequency used by the paper's
/// configuration (2 GHz core = 500 ps, 400 MHz memory = 2500 ps).
///
/// # Examples
///
/// ```
/// use mellow_engine::{Clock, Duration, MemCycles, SimTime};
///
/// let mem = Clock::from_mhz(400);
/// assert_eq!(mem.period(), Duration::from_ps(2500));
/// // A 60-cycle write pulse at 400 MHz is the paper's 150 ns normal write.
/// assert_eq!(MemCycles::new(60).span(&mem), Duration::from_ns(150));
/// assert_eq!(MemCycles::containing(SimTime::from_ns(150), &mem), MemCycles::new(60));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
}

impl Clock {
    /// Creates a clock running at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or the period is not a whole number of
    /// picoseconds (i.e. `mhz` does not divide 10⁶).
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be non-zero");
        assert!(
            1_000_000 % mhz == 0,
            "{mhz} MHz has a non-integral picosecond period"
        );
        Clock {
            period_ps: 1_000_000 / mhz,
        }
    }

    /// Creates a clock running at `ghz` gigahertz.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Clock::from_mhz`].
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_mhz(ghz * 1000)
    }

    /// Returns the clock period.
    #[inline]
    pub fn period(&self) -> Duration {
        Duration::from_ps(self.period_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemCycles, SimTime};

    #[test]
    fn paper_clock_domains() {
        let core = Clock::from_ghz(2);
        assert_eq!(core.period(), Duration::from_ps(500));
        let mem = Clock::from_mhz(400);
        assert_eq!(mem.period(), Duration::from_ps(2500));
        // Table II: tRCD = 48 memory cycles = 120 ns.
        assert_eq!(MemCycles::new(48).span(&mem), Duration::from_ns(120));
        // Table II: 3.0x slow write = 180 cycles = 450 ns.
        assert_eq!(MemCycles::new(180).span(&mem), Duration::from_ns(450));
    }

    #[test]
    fn cycle_indexing() {
        let mem = Clock::from_mhz(400);
        let at = |ps| MemCycles::containing(SimTime::from_ps(ps), &mem);
        assert_eq!(at(0), MemCycles::ZERO);
        assert_eq!(at(2499), MemCycles::ZERO);
        assert_eq!(at(2500), MemCycles::ONE);
        assert_eq!(MemCycles::ONE.edge(&mem), SimTime::from_ps(2500));
    }

    #[test]
    #[should_panic(expected = "non-integral")]
    fn rejects_awkward_frequency() {
        let _ = Clock::from_mhz(3);
    }
}
