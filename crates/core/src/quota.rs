//! The Wear Quota lifetime guarantee (paper §IV-C).

use mellow_engine::Duration;

/// The lifetime the Wear Quota guarantees (`T_lifetime`, 8 years in the
/// paper), in seconds.
const TARGET_LIFETIME_SECS: f64 = 8.0 * 365.25 * 24.0 * 3600.0;

/// Returns `WearBound_bank`: the per-period wear budget of one bank, in
/// normal-write equivalents.
///
/// The quota divides execution into sample periods (`T_sample`) and
/// budgets each bank's wear per period so that, sustained, the bank
/// lasts the paper's 8-year `T_lifetime`:
///
/// ```text
/// WearBound_blk  = Endur_blk · T_sample / T_lifetime
/// WearBound_bank = BlkNum_bank · WearBound_blk · Ratio_quota
/// ```
///
/// `Ratio_quota` (0.9 in the paper) conservatively absorbs the wear
/// leveler's overhead.
pub fn wear_bound_per_period(
    endurance_per_block: f64,
    blocks_per_bank: u64,
    sample_period: Duration,
    ratio_quota: f64,
) -> f64 {
    let bound_blk = endurance_per_block * sample_period.as_secs_f64() / TARGET_LIFETIME_SECS;
    blocks_per_bank as f64 * bound_blk * ratio_quota
}

/// Per-bank Wear Quota state.
///
/// At the start of each period the controller calls
/// [`start_period`](Self::start_period) with every bank's cumulative
/// wear; banks whose cumulative wear exceeds the accumulated quota
/// (`ExceedQuota > 0`, §IV-C) are restricted to slow writes for the
/// period.
///
/// # Examples
///
/// ```
/// use mellow_core::{wear_bound_per_period, WearQuota};
/// use mellow_engine::Duration;
///
/// let bound = wear_bound_per_period(5e6, 1 << 20, Duration::from_us(500), 0.9);
/// let mut quota = WearQuota::new(bound, 2);
/// // Bank 0 stayed in budget; bank 1 doubled it.
/// quota.start_period(&[bound * 0.5, bound * 2.0]);
/// assert!(!quota.exceeded(0));
/// assert!(quota.exceeded(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WearQuota {
    /// `WearBound_bank`, in normal-write equivalents.
    bound_per_period: f64,
    /// Periods completed so far (`Num_previous_periods`).
    periods: u64,
    /// Whether each bank is slow-only for the current period.
    exceeded: Vec<bool>,
}

impl WearQuota {
    /// Creates quota state for `banks` banks, each budgeted
    /// `bound_per_period` normal-write equivalents per period (see
    /// [`wear_bound_per_period`]).
    ///
    /// # Panics
    ///
    /// Panics if the bound is not positive and finite, or `banks` is zero.
    pub fn new(bound_per_period: f64, banks: usize) -> Self {
        assert!(
            bound_per_period > 0.0 && bound_per_period.is_finite(),
            "wear bound must be positive and finite, got {bound_per_period}"
        );
        assert!(banks > 0, "bank count must be non-zero");
        WearQuota {
            bound_per_period,
            periods: 0,
            exceeded: vec![false; banks],
        }
    }

    /// Returns the number of completed periods.
    pub fn periods(&self) -> u64 {
        self.periods
    }

    /// Begins a new period given each bank's *cumulative* wear (in
    /// normal-write equivalents) at the period boundary.
    ///
    /// Implements §IV-C: `ExceedQuota = ΣWear_bank − WearBound_bank ·
    /// Num_previous_periods`; a positive value restricts the bank to slow
    /// writes for the coming period.
    ///
    /// # Panics
    ///
    /// Panics if `bank_wear.len()` differs from the configured bank
    /// count.
    pub fn start_period(&mut self, bank_wear: &[f64]) {
        assert_eq!(
            bank_wear.len(),
            self.exceeded.len(),
            "bank count mismatch in wear snapshot"
        );
        self.periods += 1;
        let allowance = self.bound_per_period * self.periods as f64;
        for (flag, &wear) in self.exceeded.iter_mut().zip(bank_wear) {
            *flag = wear > allowance;
        }
    }

    /// Returns whether `bank` is restricted to slow writes this period.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn exceeded(&self, bank: usize) -> bool {
        self.exceeded[bank]
    }

    /// Returns how many banks are currently restricted.
    pub fn exceeded_count(&self) -> usize {
        self.exceeded.iter().filter(|&&e| e).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's parameters for a 2^20-block bank.
    fn paper_bound() -> f64 {
        wear_bound_per_period(5e6, 1 << 20, Duration::from_us(500), 0.9)
    }

    #[test]
    fn bound_matches_section_iv_c() {
        // WearBound_bank = BlkNum_bank * Endur_blk * T_sample / T_lifetime
        // * Ratio_quota, with 5e6 block endurance, T_sample = 500 us,
        // Ratio_quota = 0.9 and T_lifetime = 8 years of 365.25 days.
        let eight_years = 8.0 * 365.25 * 24.0 * 3600.0;
        for (blocks_per_bank, low, high) in [
            // A 2^20-block bank: about 9.3 normal writes per period.
            (1u64 << 20, 9.0, 10.0),
            // `MemConfig::paper_default()`: 16 GiB of 64 B blocks over
            // 16 banks, with its 0.9 leveling efficiency as Ratio_quota.
            ((16u64 << 30) / 64 / 16, 149.0, 150.0),
        ] {
            let bound = wear_bound_per_period(5e6, blocks_per_bank, Duration::from_us(500), 0.9);
            let expect = blocks_per_bank as f64 * 5e6 * 500e-6 / eight_years * 0.9;
            assert!(
                (bound - expect).abs() / expect < 1e-12,
                "{bound} vs {expect}"
            );
            assert!(bound > low && bound < high, "bound = {bound}");
        }
    }

    #[test]
    fn under_budget_banks_unrestricted() {
        let bound = paper_bound();
        let mut q = WearQuota::new(bound, 4);
        q.start_period(&[0.0, bound * 0.99, bound * 0.5, 0.0]);
        assert_eq!(q.exceeded_count(), 0);
    }

    #[test]
    fn cumulative_accounting_allows_catching_up() {
        let bound = paper_bound();
        let mut q = WearQuota::new(bound, 1);
        // Period 1: bank wrote double its budget -> restricted.
        q.start_period(&[bound * 2.0]);
        assert!(q.exceeded(0));
        // Period 2: no further wear; cumulative 2.0 <= allowance 2.0 ->
        // released.
        q.start_period(&[bound * 2.0]);
        assert!(!q.exceeded(0));
        assert_eq!(q.periods(), 2);
    }

    #[test]
    fn banks_restricted_independently() {
        let bound = paper_bound();
        let mut q = WearQuota::new(bound, 3);
        q.start_period(&[bound * 3.0, 0.0, bound * 1.01]);
        assert!(q.exceeded(0));
        assert!(!q.exceeded(1));
        assert!(q.exceeded(2));
        assert_eq!(q.exceeded_count(), 2);
    }

    #[test]
    fn long_run_average_meets_target() {
        // A bank writing just under its bound every period must never be
        // restricted; one writing 1.5x the bound must be restricted a
        // positive fraction of periods.
        let bound = paper_bound();
        let mut on_budget = WearQuota::new(bound, 1);
        let mut over = WearQuota::new(bound, 1);
        let mut cum_on = 0.0;
        let mut cum_over = 0.0;
        let mut restricted = 0;
        for _ in 0..1000 {
            cum_on += bound * 0.999;
            on_budget.start_period(&[cum_on]);
            assert!(!on_budget.exceeded(0));

            // The over-writer only adds wear when unrestricted (slow-only
            // periods wear 1/9 as fast; approximate with zero for the
            // test's purpose).
            if !over.exceeded(0) {
                cum_over += bound * 1.5;
            }
            over.start_period(&[cum_over]);
            if over.exceeded(0) {
                restricted += 1;
            }
        }
        assert!(restricted > 250, "restricted {restricted} of 1000");
        // Cumulative wear stays within one period's slack of the quota.
        assert!(cum_over <= bound * 1001.5);
    }

    #[test]
    #[should_panic(expected = "bank count mismatch")]
    fn wrong_snapshot_size_rejected() {
        let mut q = WearQuota::new(paper_bound(), 2);
        q.start_period(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "wear bound must be positive")]
    fn non_positive_bound_rejected() {
        let _ = WearQuota::new(0.0, 1);
    }
}
