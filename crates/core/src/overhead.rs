//! §V.C — choosing a reset value within the overhead/accuracy trade-off.
//!
//! The paper's prior work \[6\] showed the method's extra execution time
//! is accurately predictable from the number of samples taken (≈250 ns
//! each), and §V.C observes that the sample interval is strongly linear
//! in the reset value. [`OverheadModel`] packages both relationships so
//! a reset value can be *chosen* for a target overhead or interval;
//! [`fit_inverse_reset`] fits the `a + b/R` law that measured overhead
//! and data-volume curves follow (used to validate Fig. 10 and the
//! §IV.C.3 volume table against the model).

use fluctrace_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Analytic model of PEBS sampling cost for one core.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OverheadModel {
    /// Execution dilation per sample (the microcode assist, ~250 ns).
    pub assist: SimDuration,
    /// Average rate of the counted hardware event (occurrences per
    /// second of target execution), e.g. µops/s for `UOPS_RETIRED.ALL`.
    pub event_rate_per_sec: f64,
}

impl OverheadModel {
    /// Model with the paper's 250 ns assist.
    pub fn new(event_rate_per_sec: f64) -> Self {
        assert!(event_rate_per_sec > 0.0, "non-positive event rate");
        OverheadModel {
            assist: SimDuration::from_ns(250),
            event_rate_per_sec,
        }
    }

    /// Samples per second of target execution at reset value `r`.
    pub fn samples_per_sec(&self, r: u64) -> f64 {
        assert!(r > 0);
        self.event_rate_per_sec / r as f64
    }

    /// Expected sample interval at reset value `r` (event period plus
    /// the assist itself, which also separates consecutive samples).
    pub fn sample_interval(&self, r: u64) -> SimDuration {
        let period_ns = r as f64 / self.event_rate_per_sec * 1e9;
        SimDuration::from_ns_f64(period_ns) + self.assist
    }

    /// Fraction of wall time spent in assists (the execution dilation),
    /// i.e. the relative overhead of sampling at reset value `r`.
    pub fn overhead_fraction(&self, r: u64) -> f64 {
        let per_sec = self.samples_per_sec(r) * self.assist.as_secs_f64();
        per_sec / (1.0 + per_sec)
    }

    /// Expected added latency for a work segment that takes `base` when
    /// unsampled.
    pub fn added_latency(&self, r: u64, base: SimDuration) -> SimDuration {
        let samples = self.event_rate_per_sec * base.as_secs_f64() / r as f64;
        SimDuration::from_ns_f64(samples * self.assist.as_ns_f64())
    }

    /// Smallest reset value whose relative overhead stays below
    /// `max_fraction` — the "finding the best reset value for a given
    /// overhead requirement" use-case of §V.C.
    pub fn min_reset_for_overhead(&self, max_fraction: f64) -> u64 {
        assert!(max_fraction > 0.0 && max_fraction < 1.0);
        // overhead_fraction decreases in r; solve per_sec/(1+per_sec) = f
        // → per_sec = f/(1-f) → r = rate·assist·(1-f)/f.
        let per_sec = max_fraction / (1.0 - max_fraction);
        let r = self.event_rate_per_sec * self.assist.as_secs_f64() / per_sec;
        (r.ceil() as u64).max(1)
    }
}

/// Least-squares fit of `y = a + b / r` over `(r, y)` points. Returns
/// `(a, b)`. Panics on fewer than two points.
pub fn fit_inverse_reset(points: &[(u64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    // Transform x = 1/r, ordinary least squares on (x, y).
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(r, y) in points {
        let x = 1.0 / r as f64;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    assert!(
        denom.abs() > 1e-30,
        "degenerate fit (all reset values equal)"
    );
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

/// Result of fitting the self-instrumentation overhead of the obs layer
/// (see [`fit_instrumentation`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InstrumentationFit {
    /// Fitted slope of `instrumented = slope × uninstrumented` (a
    /// through-origin least-squares fit over paired timings).
    pub slope: f64,
    /// `slope − 1`, clamped at 0: the fractional throughput cost of
    /// leaving the obs layer recording.
    pub overhead_fraction: f64,
}

/// Fit the cost of self-observability from paired
/// `(uninstrumented, instrumented)` wall timings of the same workload —
/// the "tracer traces itself" ledger. A through-origin least-squares fit
/// (`slope = Σxy / Σx²`) pools every pair instead of averaging noisy
/// per-pair ratios, so a single slow outlier run cannot dominate. CI
/// asserts `overhead_fraction` stays under the obs budget (3%).
pub fn fit_instrumentation(pairs: &[(f64, f64)]) -> InstrumentationFit {
    assert!(!pairs.is_empty(), "need at least one timing pair");
    let (mut sxx, mut sxy) = (0.0, 0.0);
    for &(base, instrumented) in pairs {
        assert!(
            base > 0.0 && instrumented >= 0.0,
            "non-positive base timing"
        );
        sxx += base * base;
        sxy += base * instrumented;
    }
    let slope = sxy / sxx;
    InstrumentationFit {
        slope,
        overhead_fraction: (slope - 1.0).max(0.0),
    }
}

/// Coefficient of determination (R²) of the `a + b/r` fit on `points`.
pub fn r_squared_inverse_reset(points: &[(u64, f64)], a: f64, b: f64) -> f64 {
    let mean = points.iter().map(|&(_, y)| y).sum::<f64>() / points.len() as f64;
    let ss_tot: f64 = points.iter().map(|&(_, y)| (y - mean).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|&(r, y)| (y - (a + b / r as f64)).powi(2))
        .sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OverheadModel {
        // 4.5e9 uops/s (IPC 1.5 at 3 GHz).
        OverheadModel::new(4.5e9)
    }

    #[test]
    fn sample_interval_scales_with_reset() {
        let m = model();
        // R = 4500: 1 µs period + 250 ns assist.
        let iv = m.sample_interval(4500);
        assert_eq!(iv, SimDuration::from_ns(1250));
        // Doubling R roughly doubles the interval (minus the fixed assist).
        let iv2 = m.sample_interval(9000);
        assert_eq!(iv2, SimDuration::from_ns(2250));
    }

    #[test]
    fn overhead_decreases_with_reset() {
        let m = model();
        let resets = [8_000u64, 12_000, 16_000, 20_000, 24_000];
        let fracs: Vec<f64> = resets.iter().map(|&r| m.overhead_fraction(r)).collect();
        assert!(fracs.windows(2).all(|w| w[0] > w[1]));
        // At 8K: 562.5k samples/s × 250ns ≈ 14% dilation.
        assert!((fracs[0] - 0.1233).abs() < 0.01, "{}", fracs[0]);
    }

    #[test]
    fn added_latency_for_acl_like_packet() {
        let m = model();
        // A 12 µs packet at R=8000: 4.5e9·12e-6/8000 = 6.75 samples
        // → ~1.7 µs added.
        let added = m.added_latency(8_000, SimDuration::from_us(12));
        assert!((added.as_ns_f64() - 1687.5).abs() < 1.0, "{}", added);
    }

    #[test]
    fn min_reset_for_overhead_is_tight() {
        let m = model();
        let r = m.min_reset_for_overhead(0.05);
        assert!(m.overhead_fraction(r) <= 0.05 + 1e-9);
        assert!(m.overhead_fraction(r.saturating_sub(r / 10).max(1)) > 0.05);
    }

    #[test]
    fn fit_recovers_exact_law() {
        let points: Vec<(u64, f64)> = [8_000u64, 12_000, 16_000, 20_000, 24_000]
            .iter()
            .map(|&r| (r, 24.0 + 1.97e6 / r as f64))
            .collect();
        let (a, b) = fit_inverse_reset(&points);
        assert!((a - 24.0).abs() < 1e-6);
        assert!((b - 1.97e6).abs() < 1.0);
        assert!(r_squared_inverse_reset(&points, a, b) > 0.999999);
    }

    #[test]
    fn fit_on_paper_volume_numbers() {
        // §IV.C.3: 270/194/153/125/106 MB/s for 8K..24K — the paper's
        // own measurements follow a + b/R with a small fixed part.
        let points = [
            (8_000u64, 270.0),
            (12_000, 194.0),
            (16_000, 153.0),
            (20_000, 125.0),
            (24_000, 106.0),
        ];
        let (a, b) = fit_inverse_reset(&points);
        assert!(a > 0.0 && a < 50.0, "fixed part a = {a}");
        assert!(b > 1.5e6 && b < 2.5e6, "b = {b}");
        assert!(r_squared_inverse_reset(&points, a, b) > 0.99);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn fit_needs_two_points() {
        fit_inverse_reset(&[(8000, 1.0)]);
    }

    #[test]
    fn instrumentation_fit_recovers_a_known_slope() {
        // Perfect 2% overhead across differently-sized workloads.
        let pairs: Vec<(f64, f64)> = [10.0, 20.0, 40.0, 80.0]
            .iter()
            .map(|&x| (x, x * 1.02))
            .collect();
        let fit = fit_instrumentation(&pairs);
        assert!((fit.slope - 1.02).abs() < 1e-12);
        assert!((fit.overhead_fraction - 0.02).abs() < 1e-12);
    }

    #[test]
    fn instrumentation_fit_clamps_negative_overhead() {
        // Instrumented runs came out faster (noise): the fraction clamps
        // to zero instead of going negative.
        let fit = fit_instrumentation(&[(10.0, 9.8), (20.0, 19.7)]);
        assert!(fit.slope < 1.0);
        assert_eq!(fit.overhead_fraction, 0.0);
    }

    #[test]
    fn instrumentation_fit_is_outlier_resistant_vs_ratio_mean() {
        // One tiny run with a large absolute-noise spike: the pooled
        // slope barely moves, while a mean of per-pair ratios would jump.
        let pairs = [(1.0, 2.0), (100.0, 101.0), (100.0, 100.5)];
        let fit = fit_instrumentation(&pairs);
        assert!(fit.overhead_fraction < 0.02, "{}", fit.overhead_fraction);
        let ratio_mean: f64 = pairs.iter().map(|&(x, y)| y / x - 1.0).sum::<f64>() / 3.0;
        assert!(ratio_mean > 0.3, "{ratio_mean}");
    }

    #[test]
    #[should_panic(expected = "at least one timing pair")]
    fn instrumentation_fit_needs_a_pair() {
        fit_instrumentation(&[]);
    }
}
