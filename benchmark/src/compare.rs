//! `--compare A.json B.json`: for every (workload, end-to-end metric)
//! apply the bound from `BENCHMARK.json` and print one row — improved,
//! unchanged, regressed or unresolved — with both medians and the
//! ratio with its base. The tool the A/A acceptance check and every
//! later performance claim use.

use crate::harness::median;
use crate::report::RunDoc;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `"better": "higher"`.
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics and bounds `BENCHMARK.json` fixes.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok(Bound {
                    name: n.to_string(),
                    higher_is_better: b == "higher",
                    bound: x,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// What a comparison of one metric on one workload says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so "unchanged" cannot
    /// be told from a change.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)` gives
/// them (exclusive method); `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and the third quartile as a share of the
/// median; 0 for a single run.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, _, q3)) => (q3 - q1).abs() / median(xs).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// Judge B against A for a metric with the given direction and bound.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    // Positive when B is worse.
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / base;
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if worse_by > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else if -worse_by > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The outcome of comparing two sets of runs.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// The printed table.
    pub table: String,
    /// Rows that regressed, `failed_frac` rises included.
    pub regressions: usize,
    /// Rows whose spread hides the answer.
    pub unresolved: usize,
    /// `(workload, seed)` pairs whose input digests differ: the two sets
    /// did not measure the same input.
    pub input_mismatches: usize,
}

fn by_workload(runs: &[RunDoc]) -> BTreeMap<&str, Vec<&RunDoc>> {
    let mut out: BTreeMap<&str, Vec<&RunDoc>> = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.traced) {
        out.entry(r.workload.as_str()).or_default().push(r);
    }
    out
}

fn values(runs: &[&RunDoc], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.end_to_end.get(metric))
        .collect()
}

/// Compare set B against set A under `bounds`.
pub fn compare(a: &[RunDoc], b: &[RunDoc], bounds: &[Bound]) -> Comparison {
    let mut out = Comparison::default();
    let (wa, wb) = (by_workload(a), by_workload(b));
    out.table.push_str(&format!(
        "{:<15} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread"
    ));
    for (workload, runs_a) in &wa {
        let Some(runs_b) = wb.get(workload) else {
            out.table
                .push_str(&format!("{workload:<15} missing from B\n"));
            out.regressions += 1;
            continue;
        };
        for bound in bounds {
            let (va, vb) = (values(runs_a, &bound.name), values(runs_b, &bound.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, bound.higher_is_better, bound.bound);
            match verdict {
                Verdict::Regressed => out.regressions += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let (ma, mb) = (median(&va), median(&vb));
            out.table.push_str(&format!(
                "{workload:<15} {:<18} {ma:>14.4} {mb:>14.4} {:>8.4} {:>6.1}% {:>6.1}%  {} (base A = {ma:.4})\n",
                bound.name,
                mb / ma.abs().max(f64::MIN_POSITIVE),
                bound.bound * 100.0,
                spread(&va).max(spread(&vb)) * 100.0,
                verdict.label(),
            ));
        }
        // `failed_frac` must be 0 and may never rise.
        let frac = |runs: &[&RunDoc]| {
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (frac(runs_a), frac(runs_b));
        let rose = fb > fa;
        if rose {
            out.regressions += 1;
        }
        out.table.push_str(&format!(
            "{workload:<15} {:<18} {fa:>14.6} {fb:>14.6} {:>8} {:>7} {:>7}  {}\n",
            "failed_frac",
            "-",
            "any",
            "-",
            if rose {
                "REGRESSED"
            } else if fb > 0.0 {
                "unchanged (but not 0)"
            } else {
                "unchanged"
            },
        ));

        // Same seed, same input; exact counts are listed when they move.
        for ra in runs_a {
            for rb in runs_b.iter().filter(|rb| rb.env.seed == ra.env.seed) {
                if ra.input_digest != rb.input_digest {
                    out.input_mismatches += 1;
                    out.table.push_str(&format!(
                        "{workload:<15} seed {} input_digest differs: {} vs {}\n",
                        ra.env.seed, ra.input_digest, rb.input_digest
                    ));
                }
                for (name, m) in ra.end_to_end.0.iter().filter(|(_, m)| m.exact) {
                    if let Some(other) = rb.end_to_end.get(name) {
                        if other != m.value {
                            out.table.push_str(&format!(
                                "{workload:<15} seed {} exact count {name} moved: {} -> {other}\n",
                                ra.env.seed, m.value
                            ));
                        }
                    }
                }
            }
        }
    }
    out.table.push_str(&format!(
        "{} regressed, {} unresolved, {} input mismatches\n",
        out.regressions, out.unresolved, out.input_mismatches
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.7];
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        let fast = [125.0, 126.0, 124.0, 125.5, 124.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&base, &same, true, 0.10), Verdict::Unchanged);
        assert_eq!(judge(&base, &slow, true, 0.10), Verdict::Regressed);
        assert_eq!(judge(&base, &fast, true, 0.10), Verdict::Improved);
        assert_eq!(judge(&base, &noisy, true, 0.10), Verdict::Unresolved);
        // Lower is better: the same numbers read the other way.
        assert_eq!(judge(&base, &slow, false, 0.10), Verdict::Improved);
        assert_eq!(judge(&base, &fast, false, 0.10), Verdict::Regressed);
    }
}
