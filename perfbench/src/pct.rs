//! Nearest-rank percentiles that carry their sample count.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond its rank; with fewer, the tail value is one or two outliers and
//! run-to-run comparisons of it mean nothing.

use std::fmt;

/// Samples that must lie strictly beyond a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A percentile value with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The requested quantile in `(0, 1]`.
    pub q: f64,
    /// The sample at nearest rank `ceil(q * n)`.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

impl fmt::Display for Pct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} (p{:.1}, n={})",
            self.value,
            self.q * 100.0,
            self.n
        )
    }
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The requested quantile.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples beyond the requested rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{:.1} of {} samples has {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.n,
            self.beyond
        )
    }
}

impl std::error::Error for TooFewSamples {}

/// Nearest-rank percentile: the smallest sample with at least `q * n`
/// samples at or below it. Refused when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(samples: &[f64], q: f64) -> Result<Pct, TooFewSamples> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let n = samples.len();
    // The epsilon keeps products like 0.9 * 100 from rounding up a rank.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { q, n, beyond });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        q,
        value: sorted[rank - 1],
        n,
    })
}

/// The highest percentile the sample supports: the sample with exactly
/// [`MIN_BEYOND`] samples beyond it, reported as quantile `(n - 10) / n`.
pub fn tail(samples: &[f64]) -> Result<Pct, TooFewSamples> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return Err(TooFewSamples {
            q: 1.0,
            n,
            beyond: 0,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Pct {
        q: (n - MIN_BEYOND) as f64 / n as f64,
        value: sorted[n - MIN_BEYOND - 1],
        n,
    })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of a small set of repeated measurements (for example the set-up
/// repetitions of one run). Unlike [`percentile`] it does not refuse small
/// sets: it is the middle value, or the mean of the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of what is left after the lowest and the
/// highest quarter (rounded down) of the samples are set aside. Used over
/// per-slice figures of one run, it follows the run's typical slice and
/// ignores a few slices a shared host slowed down (or sped up).
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "interquartile mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        // Shuffled so the helper has to sort.
        let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let s = one_to(100);
        let p50 = percentile(&s, 0.5).unwrap();
        assert_eq!((p50.value, p50.n), (50.0, 100));
        assert_eq!(percentile(&s, 0.9).unwrap().value, 90.0);
        // rank ceil(0.801 * 100) = 81
        assert_eq!(percentile(&s, 0.801).unwrap().value, 81.0);
    }

    #[test]
    fn refuses_with_fewer_than_ten_beyond() {
        let s = one_to(100);
        // p90 of 100 leaves exactly 10 beyond: allowed.
        assert!(percentile(&s, 0.90).is_ok());
        // p91 leaves 9: refused, and the refusal says how many.
        let err = percentile(&s, 0.91).unwrap_err();
        assert_eq!((err.n, err.beyond), (100, 9));
        // p99 needs a thousand samples.
        assert!(percentile(&one_to(999), 0.99).is_err());
        let p99 = percentile(&one_to(1000), 0.99).unwrap();
        assert_eq!((p99.value, p99.n), (990.0, 1000));
        // p50 needs twenty.
        assert!(percentile(&one_to(19), 0.5).is_err());
        assert_eq!(percentile(&one_to(20), 0.5).unwrap().value, 10.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn tail_is_the_eleventh_largest() {
        let t = tail(&one_to(250)).unwrap();
        assert_eq!((t.value, t.n), (240.0, 250));
        assert!((t.q - 0.96).abs() < 1e-12);
        assert!(tail(&one_to(10)).is_err());
        assert_eq!(tail(&one_to(11)).unwrap().value, 1.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        // 8 samples: the lowest two and the highest two are set aside.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 5.0, 4.0, 3.0, 6.0, 2.0, -50.0]),
            3.5
        );
        // Fewer than four samples: nothing is set aside.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&one_to(15)), 8.0);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
