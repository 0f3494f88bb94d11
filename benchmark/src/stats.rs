//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its sample count, quartiles and — only when the
//! sample supports it — a tail percentile.  The rule (choosing-metrics §1)
//! is "the highest percentile that has at least ten samples beyond it": a
//! p90 needs 100 samples, a p99 needs 1000.  With fewer samples the tail is
//! `None` and prints as `null`; no percentile is ever made up.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles the benchmark is willing to report, ascending.
const TAIL_LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Percentile `p` (0–100) of an already sorted sample, linearly
/// interpolated between closest ranks.
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median; `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(percentile_sorted(&sorted(samples), 50.0))
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the driver's spread rule uses
/// that function, so the benchmark's own `--check` agrees with it).  Needs
/// two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let v = sorted(samples);
    let cut = |i: usize| {
        // Exclusive method: position i·(n+1)/4 on a 1-based axis.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// May percentile `p` be reported from `n` samples?  Only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    // The small allowance keeps 10 000 × 0.1% from rounding below ten.
    n as f64 * (100.0 - p) / 100.0 + 1e-9 >= MIN_BEYOND as f64
}

/// Percentile `p`, or `None` when the sample is too small to support it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !supports_percentile(samples.len(), p) {
        return None;
    }
    Some(percentile_sorted(&sorted(samples), p))
}

/// The highest percentile of the ladder (p90, p95, p99, p99.9) the sample
/// supports, with its value.
pub fn highest_supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| supports_percentile(samples.len(), *p))?;
    Some((p, percentile_sorted(&sorted(samples), p)))
}

/// A timing as the benchmark prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: Option<f64>,
    pub median: Option<f64>,
    pub q3: Option<f64>,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let q = quartiles(samples);
        Summary {
            n: samples.len(),
            q1: q.map(|q| q.0),
            median: median(samples),
            q3: q.map(|q| q.2),
            tail: highest_supported_tail(samples),
        }
    }
}

/// `1.234` or `null`.
pub fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} q1={} p50={} q3={}",
            self.n,
            fmt_opt(self.q1),
            fmt_opt(self.median),
            fmt_opt(self.q3)
        )?;
        match self.tail {
            Some((p, v)) => write!(f, " p{p}={v:.3}"),
            None => write!(f, " tail=null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(99, 90.0));
        assert!(supports_percentile(100, 90.0));
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(200, 95.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(!supports_percentile(9_999, 99.9));
        assert!(supports_percentile(10_000, 99.9));
    }

    #[test]
    fn too_few_samples_give_no_tail_never_a_made_up_one() {
        let small = ramp(24);
        assert_eq!(percentile(&small, 90.0), None);
        assert_eq!(highest_supported_tail(&small), None);
        let s = Summary::of(&small);
        assert_eq!(s.tail, None);
        assert!(s.to_string().ends_with("tail=null"), "{s}");
        assert_eq!(fmt_opt(percentile(&small, 90.0)), "null");
    }

    #[test]
    fn the_highest_supported_percentile_is_chosen() {
        assert_eq!(highest_supported_tail(&ramp(100)).unwrap().0, 90.0);
        assert_eq!(highest_supported_tail(&ramp(250)).unwrap().0, 95.0);
        assert_eq!(highest_supported_tail(&ramp(400)).unwrap().0, 95.0);
        assert_eq!(highest_supported_tail(&ramp(1000)).unwrap().0, 99.0);
        // p90 of 1..=101 sits exactly on rank 91.
        assert_eq!(percentile(&ramp(101), 90.0), Some(91.0));
    }
}
