//! The naive reference for fluctuation detection: one `BTreeMap` of
//! populations keyed by `(label, function)`, a full sort per population
//! for the median and another for the MAD.
//!
//! This is the detector `core::fluct` shipped with, moved here when
//! `detect` learned to label each item once, group rows by interned
//! integer keys and take medians by selection. Two edits made it an
//! oracle without changing what it computes: indexing became `get`
//! (this crate is held to the panic-safety rule), and the even-median
//! uses `u64::midpoint`, which equals `(a + b) / 2` wherever that sum
//! does not overflow. It is slow on purpose and obviously right: the
//! `detect_differential` suite demands the exact bytes of its report.

use fluctrace_core::{EstimateTable, FluctuationReport, GroupFuncStats, Outlier, TotalOutlier};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_sim::SimDuration;
use std::collections::BTreeMap;

fn median_of_sorted(xs: &[u64]) -> u64 {
    let n = xs.len();
    let upper = xs.get(n / 2).copied().unwrap_or(0);
    if n % 2 == 1 {
        upper
    } else {
        let lower = xs.get((n / 2).wrapping_sub(1)).copied().unwrap_or(0);
        lower.midpoint(upper)
    }
}

/// `fluctrace_core::detect`, the way it was first written: see the
/// module docs. `group_of` is called once per item for the function
/// populations and again for every item with a marked total.
pub fn naive_detect(
    table: &EstimateTable,
    mut group_of: impl FnMut(ItemId) -> Option<String>,
    threshold_sigmas: f64,
    min_abs: SimDuration,
) -> FluctuationReport {
    // Collect (group, func) -> [(item, elapsed_ps)].
    let mut pops: BTreeMap<(String, FuncId), Vec<(ItemId, u64)>> = BTreeMap::new();
    for ie in table.items() {
        let Some(group) = group_of(ie.item) else {
            continue;
        };
        for fe in ie.funcs {
            if fe.is_estimable() {
                pops.entry((group.clone(), fe.func))
                    .or_default()
                    .push((ie.item, fe.elapsed.as_ps()));
            }
        }
    }

    let mut groups = Vec::new();
    let mut outliers = Vec::new();
    for ((group, func), pop) in pops {
        let mut sorted: Vec<u64> = pop.iter().map(|&(_, e)| e).collect();
        sorted.sort_unstable();
        let median = median_of_sorted(&sorted);
        let mut devs: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(median)).collect();
        devs.sort_unstable();
        // 1.4826 · MAD ≈ σ for normal data.
        let mad = (median_of_sorted(&devs) as f64 * 1.4826) as u64;
        groups.push(GroupFuncStats {
            group: group.clone(),
            func,
            count: pop.len(),
            median: SimDuration::from_ps(median),
            mad: SimDuration::from_ps(mad),
            min: SimDuration::from_ps(sorted.first().copied().unwrap_or(0)),
            max: SimDuration::from_ps(sorted.last().copied().unwrap_or(0)),
        });
        if pop.len() < 3 {
            // Too few to call anything an outlier.
            continue;
        }
        for (item, elapsed) in pop {
            let dev = elapsed.abs_diff(median);
            if dev <= min_abs.as_ps() {
                continue;
            }
            let sigmas = if mad == 0 {
                f64::INFINITY
            } else {
                dev as f64 / mad as f64
            };
            if sigmas > threshold_sigmas {
                outliers.push(Outlier {
                    group: group.clone(),
                    func,
                    item,
                    elapsed: SimDuration::from_ps(elapsed),
                    median: SimDuration::from_ps(median),
                    sigmas,
                });
            }
        }
    }
    // Severity order: robust sigmas first, absolute deviation as the
    // tie-break (sigma is infinite for every outlier of a constant-MAD
    // group, so the absolute deviation does the real ranking there).
    outliers.sort_by(|a, b| {
        b.sigmas
            .partial_cmp(&a.sigmas)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let da = a.elapsed.as_ps().abs_diff(a.median.as_ps());
                let db = b.elapsed.as_ps().abs_diff(b.median.as_ps());
                db.cmp(&da)
            })
    });
    // Total-latency populations per group (from marks, where present).
    let mut total_pops: BTreeMap<String, Vec<(ItemId, u64)>> = BTreeMap::new();
    for ie in table.items() {
        let Some(total) = ie.marked_total else {
            continue;
        };
        let Some(group) = group_of(ie.item) else {
            continue;
        };
        total_pops
            .entry(group)
            .or_default()
            .push((ie.item, total.as_ps()));
    }
    let mut total_outliers = Vec::new();
    for (group, pop) in total_pops {
        if pop.len() < 3 {
            continue;
        }
        let mut sorted: Vec<u64> = pop.iter().map(|&(_, t)| t).collect();
        sorted.sort_unstable();
        let median = median_of_sorted(&sorted);
        let mut devs: Vec<u64> = sorted.iter().map(|&x| x.abs_diff(median)).collect();
        devs.sort_unstable();
        let mad = (median_of_sorted(&devs) as f64 * 1.4826) as u64;
        for (item, total) in pop {
            let dev = total.abs_diff(median);
            if dev <= min_abs.as_ps() {
                continue;
            }
            let sigmas = if mad == 0 {
                f64::INFINITY
            } else {
                dev as f64 / mad as f64
            };
            if sigmas > threshold_sigmas {
                total_outliers.push(TotalOutlier {
                    group: group.clone(),
                    item,
                    total: SimDuration::from_ps(total),
                    median: SimDuration::from_ps(median),
                    sigmas,
                });
            }
        }
    }
    total_outliers.sort_by(|a, b| {
        b.sigmas
            .partial_cmp(&a.sigmas)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                let da = a.total.as_ps().abs_diff(a.median.as_ps());
                let db = b.total.as_ps().abs_diff(b.median.as_ps());
                db.cmp(&da)
            })
    });

    FluctuationReport {
        groups,
        outliers,
        total_outliers,
        threshold_sigmas,
    }
}
