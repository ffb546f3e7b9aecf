//! Tail-latency characterisation.
//!
//! The paper motivates fluctuation diagnosis with Huang et al.'s
//! measurement that, across popular database engines under TPC-C,
//! "the standard deviation was twice the mean" and "the 99th percentile
//! was an order of magnitude greater than the mean". This module turns
//! a latency sample set into exactly those headline statistics.

use serde::{Deserialize, Serialize};

/// Headline tail statistics of a latency distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TailReport {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum.
    pub max: f64,
    /// `std_dev / mean` — Huang et al. report ≈ 2 for TPC-C.
    pub std_over_mean: f64,
    /// `p99 / mean` — Huang et al. report "an order of magnitude".
    pub p99_over_mean: f64,
}

/// Compute a [`TailReport`]; `None` on an empty slice.
pub fn tail_report(samples: &[f64]) -> Option<TailReport> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
    let n = sorted.len() as f64;
    let mean = sorted.iter().sum::<f64>() / n;
    let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let std_dev = var.sqrt();
    let pct = |p: f64| {
        let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    };
    Some(TailReport {
        count: sorted.len(),
        mean,
        std_dev,
        p50: pct(50.0),
        p99: pct(99.0),
        p999: pct(99.9),
        max: *sorted.last().unwrap(),
        std_over_mean: if mean == 0.0 { 0.0 } else { std_dev / mean },
        p99_over_mean: if mean == 0.0 { 0.0 } else { pct(99.0) / mean },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_distribution_has_thin_tail() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let r = tail_report(&samples).unwrap();
        assert!((r.mean - 500.5).abs() < 1e-9);
        assert!(r.std_over_mean < 0.6);
        assert!(r.p99_over_mean < 2.5);
        assert_eq!(r.max, 1000.0);
        assert_eq!(r.count, 1000);
    }

    #[test]
    fn heavy_tail_shows_in_ratios() {
        // 98% fast (1.0), 2% slow (100.0): std/mean ≈ 4.7, p99 = 100.
        let mut samples = vec![1.0; 980];
        samples.extend(vec![100.0; 20]);
        let r = tail_report(&samples).unwrap();
        assert!(r.std_over_mean > 2.0, "{}", r.std_over_mean);
        assert!(r.p99_over_mean > 10.0, "{}", r.p99_over_mean);
        assert_eq!(r.p50, 1.0);
        assert_eq!(r.p999, 100.0);
    }

    #[test]
    fn empty_and_constant() {
        assert!(tail_report(&[]).is_none());
        let r = tail_report(&[5.0; 10]).unwrap();
        assert_eq!(r.std_over_mean, 0.0);
        assert_eq!(r.p99, 5.0);
    }
}
