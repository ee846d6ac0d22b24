//! Summary statistics over timing samples.
//!
//! Percentiles are *exact*: nearest-rank over the sorted sample, so a
//! reported value is always one the run actually measured. Every
//! summary carries its sample count, and a tail percentile is only
//! available when at least [`MIN_BEYOND`] samples lie beyond it —
//! asking for the p99 of 300 samples is an error, not a number.

use std::fmt;

/// Samples that must lie strictly beyond a tail percentile's rank for
/// the percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark reports, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    Empty,
    NotFinite,
    OutOfRange(f64),
    /// `beyond` samples lie past percentile `p` of `count` samples,
    /// fewer than [`MIN_BEYOND`].
    TooFewSamples {
        p: f64,
        count: usize,
        beyond: usize,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::NotFinite => write!(f, "a sample is NaN or infinite"),
            StatsError::OutOfRange(p) => write!(f, "percentile {p} is outside (0, 100]"),
            StatsError::TooFewSamples { p, count, beyond } => {
                write!(f, "p{p} of {count} samples has {beyond} beyond it, fewer than {MIN_BEYOND}")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// A sorted, finite, non-empty sample.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Result<Summary, StatsError> {
        if samples.is_empty() {
            return Err(StatsError::Empty);
        }
        if samples.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NotFinite);
        }
        samples.sort_unstable_by(f64::total_cmp);
        Ok(Summary { sorted: samples })
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank (1-indexed) of percentile `p`.
    fn rank(&self, p: f64) -> usize {
        // 99.9 / 100 * 10 000 is 9990.000000000002 in floating point;
        // the nudge keeps such a product from rounding up a rank.
        let exact = p / 100.0 * self.sorted.len() as f64;
        ((exact - 1e-9).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// The middle sample; the mean of the two middle samples when the
    /// count is even. Always available.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// Exact nearest-rank percentile. Above the median it needs
    /// [`MIN_BEYOND`] samples beyond its rank.
    pub fn percentile(&self, p: f64) -> Result<f64, StatsError> {
        if !(p > 0.0 && p <= 100.0) {
            return Err(StatsError::OutOfRange(p));
        }
        let rank = self.rank(p);
        let beyond = self.sorted.len() - rank;
        if p > 50.0 && beyond < MIN_BEYOND {
            return Err(StatsError::TooFewSamples { p, count: self.sorted.len(), beyond });
        }
        Ok(self.sorted[rank - 1])
    }

    /// The highest percentile of [`TAIL_LADDER`] this sample supports.
    pub fn highest_tail(&self) -> Option<f64> {
        TAIL_LADDER.into_iter().find(|&p| self.percentile(p).is_ok())
    }

    /// First and third quartile by the exclusive method — what Python's
    /// `statistics.quantiles(values, n=4)` returns — for run-to-run
    /// spreads. Needs two samples.
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let at = |k: usize| {
            let pos = k * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            // Not clamped: like Python, two samples extrapolate.
            let frac = pos as f64 / 4.0 - j as f64;
            self.sorted[j - 1] + (self.sorted[j] - self.sorted[j - 1]) * frac
        };
        Some((at(1), at(3)))
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles()?;
        let m = self.median();
        (m != 0.0).then(|| (q3 - q1) / m.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((1..=n).map(|x| x as f64).collect()).unwrap()
    }

    #[test]
    fn rejects_empty_and_nan() {
        assert_eq!(Summary::new(vec![]).unwrap_err(), StatsError::Empty);
        assert_eq!(Summary::new(vec![1.0, f64::NAN]).unwrap_err(), StatsError::NotFinite);
    }

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(Summary::new(vec![3.0, 1.0, 2.0]).unwrap().median(), 2.0);
        assert_eq!(Summary::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap().median(), 2.5);
        assert_eq!(Summary::new(vec![7.0]).unwrap().median(), 7.0);
    }

    #[test]
    fn percentiles_are_nearest_rank_samples() {
        let s = ramp(1000);
        assert_eq!(s.percentile(50.0).unwrap(), 500.0);
        assert_eq!(s.percentile(95.0).unwrap(), 950.0);
        assert_eq!(s.percentile(99.0).unwrap(), 990.0);
        // An unsorted input gives the same answers.
        let mut v: Vec<f64> = (1..=1000).map(|x| x as f64).collect();
        v.reverse();
        assert_eq!(Summary::new(v).unwrap().percentile(99.0).unwrap(), 990.0);
    }

    #[test]
    fn p99_of_300_samples_is_an_error_not_a_number() {
        let s = ramp(300);
        assert_eq!(
            s.percentile(99.0).unwrap_err(),
            StatsError::TooFewSamples { p: 99.0, count: 300, beyond: 3 }
        );
        // p95 has 15 samples beyond it.
        assert_eq!(s.percentile(95.0).unwrap(), 285.0);
        assert_eq!(s.highest_tail(), Some(95.0));
    }

    #[test]
    fn exactly_ten_beyond_is_enough() {
        assert_eq!(ramp(200).percentile(95.0).unwrap(), 190.0);
        assert!(ramp(199).percentile(95.0).is_err());
        assert_eq!(ramp(1000).highest_tail(), Some(99.0));
        assert_eq!(ramp(10_000).highest_tail(), Some(99.9));
        assert_eq!(ramp(3).highest_tail(), None);
    }

    #[test]
    fn percentile_bounds_are_checked() {
        let s = ramp(100);
        assert_eq!(s.percentile(0.0).unwrap_err(), StatsError::OutOfRange(0.0));
        assert_eq!(s.percentile(100.5).unwrap_err(), StatsError::OutOfRange(100.5));
        // The lower half is never refused for lack of samples.
        assert_eq!(ramp(3).percentile(50.0).unwrap(), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = ramp(10).quartiles().unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = ramp(3).quartiles().unwrap();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(ramp(1).quartiles().is_none());
        assert!((ramp(10).spread().unwrap() - 1.0).abs() < 1e-12);
    }
}
