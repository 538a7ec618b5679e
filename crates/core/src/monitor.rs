//! The LLC utility monitor identifying *useless* LRU stack positions
//! (paper §IV-B1, Fig. 7).

/// Profiles LLC hits by LRU stack position to find positions whose lines
/// are unlikely to be reused — the candidates for Eager Mellow Writes.
///
/// One monitor serves the whole LLC (the counters are shared across sets,
/// 360 bits of state in the paper's configuration). On every LLC request
/// the controller records either a hit at some stack position (0 = MRU,
/// `assoc − 1` = LRU) or a miss. Every `T_sample` (500 µs) the controller
/// calls [`sample`](Self::sample), which computes the *eager position*:
/// the smallest position `p` such that positions `p..assoc` together
/// received fewer than `THRESHOLD_RATIO` (1/32) of all requests. Dirty
/// lines at stack positions ≥ `p` are then considered useless until the
/// next sample.
///
/// Before the first sample completes no position is eager (the monitor
/// has no evidence yet).
///
/// # Examples
///
/// ```
/// use mellow_core::UtilityMonitor;
///
/// let mut m = UtilityMonitor::new(8);
/// // 97% of requests hit at MRU, a trickle at position 6:
/// for _ in 0..970 { m.record_hit(0); }
/// for _ in 0..30 { m.record_hit(6); }
/// m.sample();
/// // Positions from 1 up contribute 3% (< 1/32 is false at p=1? 30/1000
/// // = 3% which is just under 1/32 = 3.125%), so the eager position is 1.
/// assert_eq!(m.eager_position(), 1);
/// assert!(m.is_useless(5));
/// assert!(!m.is_useless(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilityMonitor {
    hit_counters: Vec<u64>,
    miss_counter: u64,
    /// Positions `>= eager_position` are useless; `assoc` means none.
    eager_position: usize,
}

impl UtilityMonitor {
    /// The paper's `THRESHOLD_RATIO` as numerator/denominator: 1/32.
    pub const THRESHOLD_RATIO: (u64, u64) = (1, 32);

    /// Creates a monitor for an `assoc`-way cache.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero.
    pub fn new(assoc: usize) -> Self {
        assert!(assoc > 0, "associativity must be non-zero");
        UtilityMonitor {
            hit_counters: vec![0; assoc],
            miss_counter: 0,
            eager_position: assoc,
        }
    }

    /// Returns the cache associativity this monitor profiles.
    pub fn assoc(&self) -> usize {
        self.hit_counters.len()
    }

    /// Records a hit at LRU stack position `pos` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= assoc`.
    #[inline]
    pub fn record_hit(&mut self, pos: usize) {
        self.hit_counters[pos] += 1;
    }

    /// Records a miss.
    #[inline]
    pub fn record_miss(&mut self) {
        self.miss_counter += 1;
    }

    /// Ends a profiling period: recomputes the eager position from the
    /// counters, resets them, and returns the new position.
    ///
    /// With no requests recorded the monitor keeps its previous decision.
    pub fn sample(&mut self) -> usize {
        let assoc = self.assoc();
        let total: u64 = self.hit_counters.iter().sum::<u64>() + self.miss_counter;
        if total > 0 {
            // Smallest p with sum(hits[p..]) * den < total * num.
            let (num, den) = Self::THRESHOLD_RATIO;
            let mut tail: u64 = 0;
            let mut position = assoc;
            for p in (0..assoc).rev() {
                tail += self.hit_counters[p];
                if tail * den < total * num {
                    position = p;
                } else {
                    break;
                }
            }
            self.eager_position = position;
            self.hit_counters.fill(0);
            self.miss_counter = 0;
        }
        self.eager_position
    }

    /// Returns the current eager position (`assoc` when no position is
    /// useless).
    pub fn eager_position(&self) -> usize {
        self.eager_position
    }

    /// Returns whether LRU stack position `pos` is currently useless,
    /// i.e. a dirty line there is an Eager Mellow Write candidate.
    #[inline]
    pub fn is_useless(&self, pos: usize) -> bool {
        pos >= self.eager_position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_no_useless_positions() {
        let m = UtilityMonitor::new(16);
        assert_eq!(m.eager_position(), 16);
        assert!(!m.is_useless(15));
    }

    #[test]
    fn fig7_style_distribution() {
        // Motivational example of Fig. 7: positions 3..8 together get
        // under 1/32 of requests -> eager position 3.
        let mut m = UtilityMonitor::new(8);
        let hits = [600u64, 250, 100, 10, 5, 3, 2, 1]; // total hits 971
        for (pos, &n) in hits.iter().enumerate() {
            for _ in 0..n {
                m.record_hit(pos);
            }
        }
        for _ in 0..29 {
            m.record_miss(); // total requests 1000
        }
        // Tails: pos3.. = 21 (< 31.25), pos2.. = 121 (not) -> p = 3.
        assert_eq!(m.sample(), 3);
        assert!(m.is_useless(3));
        assert!(m.is_useless(7));
        assert!(!m.is_useless(2));
    }

    #[test]
    fn uniform_hits_mark_nothing_useless() {
        let mut m = UtilityMonitor::new(4);
        for pos in 0..4 {
            for _ in 0..100 {
                m.record_hit(pos);
            }
        }
        assert_eq!(m.sample(), 4);
    }

    #[test]
    fn all_misses_mark_everything_useless() {
        // A streaming workload that never hits: every dirty line is a
        // writeback candidate.
        let mut m = UtilityMonitor::new(4);
        for _ in 0..1000 {
            m.record_miss();
        }
        assert_eq!(m.sample(), 0);
        assert!(m.is_useless(0));
    }

    #[test]
    fn sample_resets_counters() {
        let mut m = UtilityMonitor::new(4);
        for _ in 0..1000 {
            m.record_hit(0);
        }
        m.record_hit(3);
        assert_eq!(m.sample(), 1);
        // New period with a different profile: heavy tail hits.
        for pos in 0..4 {
            for _ in 0..100 {
                m.record_hit(pos);
            }
        }
        assert_eq!(m.sample(), 4, "old counts must not leak into new period");
    }

    #[test]
    fn empty_period_keeps_previous_decision() {
        let mut m = UtilityMonitor::new(4);
        for _ in 0..100 {
            m.record_hit(0);
        }
        m.record_miss();
        let p = m.sample();
        assert_eq!(m.sample(), p, "no data -> no change");
    }

    #[test]
    fn threshold_is_strict_less_than() {
        // Exactly 1/32 of requests at the tail is NOT below the ratio.
        let mut m = UtilityMonitor::new(2);
        for _ in 0..31 {
            m.record_hit(0);
        }
        m.record_hit(1); // tail = 1, total = 32: 1/32 not < 1/32
        assert_eq!(m.sample(), 2);

        let mut m2 = UtilityMonitor::new(2);
        for _ in 0..32 {
            m2.record_hit(0);
        }
        m2.record_hit(1); // tail = 1, total = 33: 1/33 < 1/32
        assert_eq!(m2.sample(), 1);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_rejected() {
        let _ = UtilityMonitor::new(0);
    }
}
