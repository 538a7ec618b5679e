//! `u64` bank masks: bit `b` stands for bank `b`, which caps a
//! controller at 64 banks (checked by [`MemConfig::validate`]).
//!
//! The controller's per-edge passes visit the set bits of a mask —
//! banks with queued work, busy banks, banks writing — instead of
//! asking every bank whether it can act.
//!
//! [`MemConfig::validate`]: crate::MemConfig::validate

/// The most banks a mask can hold.
pub(crate) const MAX_BANKS: usize = 64;

/// The mask holding every bank of an `n`-bank controller.
pub(crate) fn all_banks(n: usize) -> u64 {
    debug_assert!((1..=MAX_BANKS).contains(&n), "{n} banks");
    u64::MAX >> (MAX_BANKS - n)
}

/// The banks set in a mask, in ascending order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BankBits(u64);

impl Iterator for BankBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bank = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bank)
    }
}

/// The banks set in `mask`, in ascending order.
#[inline]
pub(crate) fn banks(mask: u64) -> BankBits {
    BankBits(mask)
}

/// The banks set in `mask` in round-robin order from `start`: first
/// the banks at or above `start` in ascending order, then those below
/// it. For an `n`-bank mask this is `(start + i) % n` for `i` in
/// `0..n`, keeping the banks whose bit is set.
#[inline]
pub(crate) fn banks_from(mask: u64, start: usize) -> std::iter::Chain<BankBits, BankBits> {
    debug_assert!(start < MAX_BANKS, "start {start}");
    let below = (1u64 << start) - 1;
    banks(mask & !below).chain(banks(mask & below))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_engine::DetRng;

    /// The round-robin visit order the controller has always used.
    fn reference(mask: u64, start: usize, n: usize) -> Vec<usize> {
        (0..n)
            .map(|i| (start + i) % n)
            .filter(|&b| mask >> b & 1 == 1)
            .collect()
    }

    #[test]
    fn rotated_iteration_is_round_robin_order_for_small_bank_counts() {
        for n in 1..=8 {
            for mask in 0..1u64 << n {
                for start in 0..n {
                    assert_eq!(
                        banks_from(mask, start).collect::<Vec<_>>(),
                        reference(mask, start, n),
                        "n {n}, mask {mask:#b}, start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn rotated_iteration_is_round_robin_order_for_16_and_64_banks() {
        let mut rng = DetRng::seed_from(0xB17);
        for n in [16, 64] {
            let all = all_banks(n);
            for draw in 0..2_000 {
                // Mix sparse, dense and full masks.
                let mask = match draw % 3 {
                    0 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                    1 => rng.next_u64(),
                    _ => u64::MAX,
                } & all;
                let start = rng.below(n as u64) as usize;
                assert_eq!(
                    banks_from(mask, start).collect::<Vec<_>>(),
                    reference(mask, start, n),
                    "n {n}, mask {mask:#x}, start {start}"
                );
            }
        }
    }

    #[test]
    fn all_banks_sets_exactly_n_bits() {
        for n in 1..=MAX_BANKS {
            assert_eq!(
                banks(all_banks(n)).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
        }
    }
}
