//! Saturating counter-struct merging.
//!
//! The controller exposes several plain-counter stat blocks
//! (`FaultStats`, `RetentionStats`, `ScrubStats`) whose accounting
//! invariants only survive aggregation if every consumer folds them
//! the same way. This module is the one shared merge primitive:
//! monotone counters add with [`u64::saturating_add`] (an aggregate
//! that quietly wrapped would "prove" any invariant), and gauges —
//! snapshot values such as a remaining spare pool, which only shrinks
//! over a device's life — combine by minimum, i.e. the latest
//! snapshot.

/// Field-by-field saturating merge of one counter block into another.
pub trait SaturatingMerge {
    /// Folds `other` into `self`: counters saturating-add, gauges take
    /// the minimum.
    fn saturating_merge(&mut self, other: &Self);
}

/// Implements [`SaturatingMerge`] over the named `u64` fields:
/// `counters` saturating-add, `gauges_min` take the minimum (the
/// correct fold for monotonically shrinking snapshots).
#[macro_export]
macro_rules! impl_saturating_merge {
    ($ty:ty { counters: [$($counter:ident),* $(,)?] $(, gauges_min: [$($gauge:ident),* $(,)?])? $(,)? }) => {
        impl $crate::SaturatingMerge for $ty {
            fn saturating_merge(&mut self, other: &Self) {
                $(self.$counter = self.$counter.saturating_add(other.$counter);)*
                $($(self.$gauge = self.$gauge.min(other.$gauge);)*)?
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::SaturatingMerge;

    #[derive(Debug, Clone, Default, PartialEq)]
    struct DemoStats {
        hits: u64,
        misses: u64,
        remaining: u64,
    }

    crate::impl_saturating_merge!(DemoStats {
        counters: [hits, misses],
        gauges_min: [remaining],
    });

    #[test]
    fn counters_add_and_gauges_take_min() {
        let mut a = DemoStats {
            hits: 3,
            misses: 1,
            remaining: 8,
        };
        let b = DemoStats {
            hits: 4,
            misses: 0,
            remaining: 5,
        };
        a.saturating_merge(&b);
        assert_eq!(
            a,
            DemoStats {
                hits: 7,
                misses: 1,
                remaining: 5,
            }
        );
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut a = DemoStats {
            hits: u64::MAX - 1,
            ..DemoStats::default()
        };
        let b = DemoStats {
            hits: 10,
            ..DemoStats::default()
        };
        a.saturating_merge(&b);
        assert_eq!(a.hits, u64::MAX);
    }

    #[test]
    fn merge_leaves_the_other_operand_untouched() {
        let a = DemoStats {
            hits: 1,
            misses: 2,
            remaining: 4,
        };
        let b = DemoStats {
            hits: 10,
            misses: 20,
            remaining: 3,
        };
        let mut s = a.clone();
        s.saturating_merge(&b);
        assert_eq!(s.hits, 11);
        assert_eq!(s.misses, 22);
        assert_eq!(s.remaining, 3);
        assert_eq!(b.hits, 10, "merge must not mutate its operand");
    }
}
