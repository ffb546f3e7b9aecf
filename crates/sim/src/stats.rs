//! Streaming and batch statistics used by the evaluation harness.
//!
//! * [`RunningStats`] — Welford's online algorithm: numerically stable
//!   mean/variance without storing samples.
//! * [`Summary`] — batch percentile summary (mean, std, min/max, p50/p95/p99)
//!   from a sample vector.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0.0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Batch percentile summary of a sample set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Compute a summary from a slice of samples. Returns `None` for an
    /// empty slice.
    pub fn from_slice(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let mut stats = RunningStats::new();
        for &s in samples {
            stats.push(s);
        }
        Some(Summary {
            count: samples.len(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: sorted[0],
            max: *sorted.last().unwrap(),
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }
}

/// Percentile of an already-sorted slice by linear interpolation
/// (the "nearest-rank with interpolation" / R-7 method).
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&pct), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = RunningStats::new();
        s1.push(3.5);
        assert_eq!(s1.mean(), 3.5);
        assert_eq!(s1.std_dev(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        // Merging into empty copies the other side.
        let mut empty = RunningStats::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
    }

    #[test]
    fn percentiles() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile_sorted(&sorted, 50.0) - 50.5).abs() < 1e-9);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[42.0], 73.0), 42.0);
    }

    #[test]
    fn summary_from_slice() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.p50 - 3.0).abs() < 1e-12);
        assert!(Summary::from_slice(&[]).is_none());
    }

    proptest::proptest! {
        #[test]
        fn prop_welford_matches_naive(data in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let mut s = RunningStats::new();
            for &x in &data {
                s.push(x);
            }
            let n = data.len() as f64;
            let mean = data.iter().sum::<f64>() / n;
            let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            proptest::prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            proptest::prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        }

        #[test]
        fn prop_percentile_monotonic(mut data in proptest::collection::vec(-1e6f64..1e6, 2..200),
                                     a in 0.0f64..100.0, b in 0.0f64..100.0) {
            data.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            proptest::prop_assert!(percentile_sorted(&data, lo) <= percentile_sorted(&data, hi) + 1e-9);
        }
    }
}
