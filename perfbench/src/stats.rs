//! Small measurement helpers: order statistics and host memory.

/// The median of `xs` (the mean of the middle two for an even count),
/// or NaN for none.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `xs`, or NaN for none: the fastest repetition.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The fastest time of each segment of a deterministic run over its
/// repetitions, and their sum.
///
/// Interference on a shared host only ever slows a run, and it
/// comes in bursts that can last the whole of a repetition. A segment
/// of a few tens of milliseconds needs just one calm moment among the
/// repetitions to be timed undisturbed, so the sum of the segments'
/// fastest times estimates an undisturbed run far more steadily than
/// any statistic of whole repetitions.
#[derive(Debug, Clone, Default)]
pub struct SegmentMinima {
    best: Vec<f64>,
}

impl SegmentMinima {
    /// Folds in one repetition's segment times. Returns `false`, and
    /// ignores the repetition, when it has a different segment count
    /// from the first (a run that is not deterministic).
    pub fn add(&mut self, segments: &[f64]) -> bool {
        if self.best.is_empty() {
            self.best = segments.to_vec();
            return true;
        }
        if self.best.len() != segments.len() {
            return false;
        }
        for (b, s) in self.best.iter_mut().zip(segments) {
            *b = b.min(*s);
        }
        true
    }

    /// The fastest time of each segment.
    pub fn segments(&self) -> &[f64] {
        &self.best
    }

    /// The sum of the segments' fastest times, or NaN before any
    /// repetition.
    pub fn total(&self) -> f64 {
        if self.best.is_empty() {
            f64::NAN
        } else {
            self.best.iter().sum()
        }
    }
}

/// `numerator / denominator`, or 0 when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The `q` quantile of a log2-bucketed histogram (bucket `i` covers
/// `[2^i, 2^(i+1))`), reported as the bucket's upper edge capped at
/// the largest sample.
pub fn histogram_quantile(buckets: &[u64], count: u64, max: u64, q: f64) -> f64 {
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return (1u64 << (i + 1)).min(max) as f64;
        }
    }
    max as f64
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.3, 0.2, 0.4]), 0.2);
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn segment_minima_sum_each_segments_fastest_time() {
        let mut m = SegmentMinima::default();
        assert!(m.total().is_nan());
        assert!(m.add(&[3.0, 1.0, 2.0]));
        assert!(m.add(&[1.0, 4.0, 2.5]));
        assert!(!m.add(&[0.1, 0.1]));
        assert_eq!(m.segments(), &[1.0, 1.0, 2.0]);
        assert_eq!(m.total(), 4.0);
    }

    #[test]
    fn histogram_quantile_reports_bucket_upper_edges() {
        // Samples 1, 2, 3, 100: buckets [1, 2, 0, 0, 0, 0, 1].
        let buckets = [1, 2, 0, 0, 0, 0, 1];
        assert_eq!(histogram_quantile(&buckets, 4, 100, 0.5), 4.0);
        assert_eq!(histogram_quantile(&buckets, 4, 100, 0.99), 100.0);
    }
}
