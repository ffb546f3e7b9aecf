//! Fluctuation detection: the diagnosis step.
//!
//! A *fluctuation* is "different performance for similar or identical
//! data-items". The caller therefore supplies a **content grouping** —
//! a label under which items should behave identically (the query's `n`
//! in the proof-of-concept app, the packet type in the ACL study) — and
//! the detector flags, per `(group, function)`, the items whose
//! estimated elapsed time deviates from their group.
//!
//! Robust statistics (median / MAD) are used so that the outliers being
//! hunted do not mask themselves by inflating the group's mean.
//!
//! ## Algorithm
//!
//! [`detect`] calls the grouping closure exactly once per item, in item
//! order, and interns the labels, looked up by `&str` so that only a
//! label not seen before is copied into a `String`; a label's *rank* is
//! its position in byte order. Every estimable `(item, function)` row is
//! keyed by the packed integer `rank << 32 | func` and the rows are
//! grouped by one stable counting sort over that key (a stable
//! comparison sort when the function ids are too sparse to count
//! densely), so each population keeps table (item) order and the
//! populations come out in label byte order, then function id — the
//! order a `BTreeMap` keyed by `(label, func)` would give, with no
//! string comparison or tree lookup per row. Medians and MADs are taken
//! by selection (`select_nth_unstable`) in scratch buffers reused across
//! populations; min and max by one scan. The total-latency populations
//! reuse the same per-item ranks.

use crate::estimate::EstimateTable;
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Statistics of one `(group, function)` population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupFuncStats {
    /// The content group label.
    pub group: String,
    /// The function.
    pub func: FuncId,
    /// Items contributing an estimable elapsed time.
    pub count: usize,
    /// Median elapsed time.
    pub median: SimDuration,
    /// Median absolute deviation (scaled by 1.4826 to be σ-comparable
    /// for normal data).
    pub mad: SimDuration,
    /// Minimum / maximum observed.
    pub min: SimDuration,
    /// Maximum observed.
    pub max: SimDuration,
}

/// One flagged item.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outlier {
    /// The content group label.
    pub group: String,
    /// The function whose time deviated.
    pub func: FuncId,
    /// The deviating item.
    pub item: ItemId,
    /// The item's estimated elapsed time for the function.
    pub elapsed: SimDuration,
    /// The group median it deviates from.
    pub median: SimDuration,
    /// Deviation in robust sigmas (|x − median| / MAD), `inf` when the
    /// group is otherwise constant.
    pub sigmas: f64,
}

/// An item whose *total* (mark-to-mark) time deviates from its group —
/// the way a fluctuation is first noticed before any function is
/// implicated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TotalOutlier {
    /// The content group label.
    pub group: String,
    /// The deviating item.
    pub item: ItemId,
    /// The item's total processing time (from marks).
    pub total: SimDuration,
    /// The group median it deviates from.
    pub median: SimDuration,
    /// Deviation in robust sigmas.
    pub sigmas: f64,
}

/// The detector's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FluctuationReport {
    /// Per-(group, function) statistics.
    pub groups: Vec<GroupFuncStats>,
    /// Items flagged as fluctuations, sorted by decreasing deviation.
    pub outliers: Vec<Outlier>,
    /// Items whose total latency deviates from their group (may include
    /// items no single sampled function explains — e.g. a function that
    /// only ever runs on the slow path).
    pub total_outliers: Vec<TotalOutlier>,
    /// The threshold used, in robust sigmas.
    pub threshold_sigmas: f64,
}

impl FluctuationReport {
    /// Outliers for one function.
    pub fn outliers_for(&self, func: FuncId) -> impl Iterator<Item = &Outlier> {
        self.outliers.iter().filter(move |o| o.func == func)
    }

    /// True if any fluctuation was flagged (function-level or total).
    pub fn any(&self) -> bool {
        !self.outliers.is_empty() || !self.total_outliers.is_empty()
    }
}

/// One population member: `(key, item, value in ps)`. The key is
/// `rank << 32 | func` for function rows and the bare rank for totals.
type Row = (u64, ItemId, u64);

/// Marks an item the grouping left out.
const NO_LABEL: u32 = u32::MAX;

/// Median of `xs` by selection (reorders `xs`): the middle element, or
/// the midpoint of the two middle ones — rounded down, and without the
/// overflow of `(a + b) / 2` when both are near `u64::MAX` ps. 0 for an
/// empty slice.
fn median_of(xs: &mut [u64]) -> u64 {
    let n = xs.len();
    if n == 0 {
        return 0;
    }
    let (lower, &mut upper, _) = xs.select_nth_unstable(n / 2);
    if n % 2 == 1 {
        upper
    } else {
        // Every element left of the upper middle is <= it; the lower
        // middle is the largest of them.
        lower.iter().copied().max().unwrap_or(upper).midpoint(upper)
    }
}

/// Median and scaled MAD of a population's values. `vals` holds the
/// values (and is reordered); `devs` is reused scratch.
fn robust_center(vals: &mut [u64], devs: &mut Vec<u64>) -> (u64, u64) {
    let median = median_of(vals);
    devs.clear();
    devs.extend(vals.iter().map(|&x| x.abs_diff(median)));
    // 1.4826 · MAD ≈ σ for normal data.
    let mad = (median_of(devs) as f64 * 1.4826) as u64;
    (median, mad)
}

/// Deviation of `value` in robust sigmas, if it counts as an outlier:
/// more than `min_abs` ps from the median and more than `threshold`
/// sigmas (infinitely many when the MAD is 0).
fn deviation(value: u64, median: u64, mad: u64, threshold: f64, min_abs: u64) -> Option<f64> {
    let dev = value.abs_diff(median);
    if dev <= min_abs {
        return None;
    }
    let sigmas = if mad == 0 {
        f64::INFINITY
    } else {
        dev as f64 / mad as f64
    };
    (sigmas > threshold).then_some(sigmas)
}

/// Stable counting sort: the `len` rows `rows()` yields, placed by
/// `slot(key)` (below `slots`), in yield order within a slot. Writes
/// each row once into a vector of exactly `len`.
fn counting_sort<I: Iterator<Item = Row>>(
    rows: impl Fn() -> I,
    len: usize,
    slots: usize,
    slot: impl Fn(u64) -> usize,
) -> Vec<Row> {
    // Slot sizes, then each slot's next free index.
    let mut next = vec![0usize; slots];
    for (key, ..) in rows() {
        if let Some(n) = next.get_mut(slot(key)) {
            *n += 1;
        }
    }
    let mut sum = 0usize;
    for n in next.iter_mut() {
        let count = *n;
        *n = sum;
        sum += count;
    }
    let mut out = vec![(0, ItemId(0), 0); len];
    for row in rows() {
        if let Some(n) = next.get_mut(slot(row.0)) {
            if let Some(dst) = out.get_mut(*n) {
                *dst = row;
            }
            *n += 1;
        }
    }
    out
}

/// The `len` rows `rows()` yields, grouped stably by key. Keys are `rank
/// << 32 | func` with `rank < ranks` and `func <= max_func`; when that
/// space is small (the symbol table's dense ids) it is one counting
/// sort, otherwise (sparse ids, e.g. from a deserialized table) a
/// stable comparison sort.
fn group_by_key<I: Iterator<Item = Row>>(
    rows: impl Fn() -> I,
    len: usize,
    ranks: usize,
    max_func: u32,
) -> Vec<Row> {
    let width = max_func as usize + 1;
    let slots = ranks.saturating_mul(width);
    if slots <= len.saturating_mul(2).max(1 << 12) {
        return counting_sort(rows, len, slots, |key| {
            (key >> 32) as usize * width + (key as u32) as usize
        });
    }
    let mut sorted: Vec<Row> = rows().collect();
    sorted.sort_by_key(|row| row.0);
    sorted
}

/// Detect fluctuations in `table`.
///
/// `group_of` labels each item with its content group (items expected to
/// behave identically); items mapped to `None` are ignored. It is called
/// exactly once per item of the table, in item order, and may return any
/// string type: a `&'static str` label costs no allocation. An item is
/// flagged when its elapsed time for some function deviates from the
/// group median by more than `threshold_sigmas` robust sigmas **and** by
/// more than `min_abs` (absolute guard so microscopic wobbles in
/// near-constant groups are not flagged).
pub fn detect<L: AsRef<str>>(
    table: &EstimateTable,
    mut group_of: impl FnMut(ItemId) -> Option<L>,
    threshold_sigmas: f64,
    min_abs: SimDuration,
) -> FluctuationReport {
    let min_abs = min_abs.as_ps();

    // Label every item once; intern the labels in first-seen order.
    let mut interned: BTreeMap<String, u32> = BTreeMap::new();
    let mut labels: Vec<u32> = Vec::with_capacity(table.len());
    let (mut n_rows, mut n_totals, mut max_func) = (0usize, 0usize, 0u32);
    for ie in table.items() {
        let Some(label) = group_of(ie.item) else {
            labels.push(NO_LABEL);
            continue;
        };
        let next = interned.len() as u32;
        let id = interned.get(label.as_ref()).copied().unwrap_or(next);
        if id == next {
            interned.insert(label.as_ref().to_owned(), id);
        }
        labels.push(id);
        for fe in ie.funcs.iter().filter(|fe| fe.is_estimable()) {
            n_rows += 1;
            max_func = max_func.max(fe.func.0);
        }
        n_totals += usize::from(ie.marked_total.is_some());
    }
    // Rank the labels in byte order; relabel the items by rank.
    let mut rank_of = vec![0u32; interned.len()];
    let mut names: Vec<String> = Vec::with_capacity(interned.len());
    for (rank, (name, id)) in (0u32..).zip(interned) {
        if let Some(r) = rank_of.get_mut(id as usize) {
            *r = rank;
        }
        names.push(name);
    }
    for label in &mut labels {
        if let Some(&rank) = rank_of.get(*label as usize) {
            *label = rank;
        }
    }
    let name_of = |key: u64| names.get(key as usize).cloned().unwrap_or_default();

    // Every estimable row keyed by (rank, func) and every marked total
    // by rank, grouped stably so each population keeps item order.
    let labelled = || {
        table
            .items()
            .zip(&labels)
            .filter(|&(_, &rank)| rank != NO_LABEL)
            .map(|(ie, &rank)| (ie, u64::from(rank)))
    };
    let func_rows = || {
        labelled().flat_map(|(ie, rank)| {
            ie.funcs
                .iter()
                .filter(|fe| fe.is_estimable())
                .map(move |fe| {
                    let key = (rank << 32) | u64::from(fe.func.0);
                    (key, ie.item, fe.elapsed.as_ps())
                })
        })
    };
    let total_rows = || {
        labelled()
            .filter_map(|(ie, rank)| ie.marked_total.map(|total| (rank, ie.item, total.as_ps())))
    };
    let rows = group_by_key(func_rows, n_rows, names.len(), max_func);
    let totals = counting_sort(total_rows, n_totals, names.len(), |rank| rank as usize);

    let mut vals: Vec<u64> = Vec::new();
    let mut devs: Vec<u64> = Vec::new();
    let mut groups = Vec::new();
    let mut outliers = Vec::new();
    for pop in rows.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(key, ..)) = pop.first() else {
            continue;
        };
        let (group, func) = (name_of(key >> 32), FuncId(key as u32));
        vals.clear();
        vals.extend(pop.iter().map(|&(_, _, elapsed)| elapsed));
        let min = vals.iter().copied().min().unwrap_or(0);
        let max = vals.iter().copied().max().unwrap_or(0);
        let (median, mad) = robust_center(&mut vals, &mut devs);
        // Too few to call anything an outlier.
        if pop.len() >= 3 {
            for &(_, item, elapsed) in pop {
                if let Some(sigmas) = deviation(elapsed, median, mad, threshold_sigmas, min_abs) {
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
        groups.push(GroupFuncStats {
            group,
            func,
            count: pop.len(),
            median: SimDuration::from_ps(median),
            mad: SimDuration::from_ps(mad),
            min: SimDuration::from_ps(min),
            max: SimDuration::from_ps(max),
        });
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
    let mut total_outliers = Vec::new();
    for pop in totals.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(rank, ..)) = pop.first() else {
            continue;
        };
        if pop.len() < 3 {
            continue;
        }
        vals.clear();
        vals.extend(pop.iter().map(|&(_, _, total)| total));
        let (median, mad) = robust_center(&mut vals, &mut devs);
        let group = name_of(rank);
        for &(_, item, total) in pop {
            if let Some(sigmas) = deviation(total, median, mad, threshold_sigmas, min_abs) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{
        CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
        TraceBundle, NO_TAG,
    };
    use fluctrace_sim::Freq;

    /// Build a table where item i's function-f time is `cycles[i]`.
    fn table_with_times(cycles: &[u64]) -> (EstimateTable, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let symtab: SymbolTable = b.build();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        let mut t = 0u64;
        for (i, &c) in cycles.iter().enumerate() {
            bundle.marks.push(MarkRecord {
                core: CoreId(0),
                tsc: t,
                item: ItemId(i as u64),
                kind: MarkKind::Start,
            });
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc: t + 10,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
            bundle.samples.push(PebsRecord {
                core: CoreId(0),
                tsc: t + 10 + c,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
            t += c + 1000;
            bundle.marks.push(MarkRecord {
                core: CoreId(0),
                tsc: t,
                item: ItemId(i as u64),
                kind: MarkKind::End,
            });
            t += 100;
        }
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        (EstimateTable::from_integrated(&it), f)
    }

    #[test]
    fn flags_the_slow_item() {
        // Items 0..7 take 3000 cycles, item 3 takes 30000.
        let mut cycles = vec![3000u64; 8];
        cycles[3] = 30_000;
        let (table, f) = table_with_times(&cycles);
        let report = detect(&table, |_| Some("same"), 5.0, SimDuration::from_ns(100));
        assert!(report.any());
        assert_eq!(report.outliers.len(), 1);
        let o = &report.outliers[0];
        assert_eq!(o.item, ItemId(3));
        assert_eq!(o.func, f);
        assert!(o.sigmas > 5.0);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].count, 8);
    }

    #[test]
    fn constant_series_never_flags() {
        let (table, _) = table_with_times(&[5000; 10]);
        let report = detect(&table, |_| Some("same"), 3.0, SimDuration::from_ns(10));
        assert!(!report.any());
    }

    #[test]
    fn near_constant_jitter_guarded_by_min_abs() {
        // ±3 cycles of jitter: robust sigma is tiny, so everything looks
        // like "infinite sigmas" without the absolute guard.
        let cycles: Vec<u64> = (0..10).map(|i| 5000 + (i % 3)).collect();
        let (table, _) = table_with_times(&cycles);
        let report = detect(&table, |_| Some("same"), 3.0, SimDuration::from_ns(100));
        assert!(!report.any(), "{:?}", report.outliers);
    }

    #[test]
    fn groups_are_separate_populations() {
        // Group "a": items 0-3 at 3000; group "b": items 4-7 at 30000.
        // Neither group fluctuates internally.
        let mut cycles = vec![3000u64; 8];
        for c in cycles.iter_mut().skip(4) {
            *c = 30_000;
        }
        let (table, _) = table_with_times(&cycles);
        let report = detect(
            &table,
            |item| Some(if item.0 < 4 { "a" } else { "b" }),
            3.0,
            SimDuration::from_ns(100),
        );
        assert!(!report.any());
        assert_eq!(report.groups.len(), 2);
    }

    #[test]
    fn ungrouped_items_ignored() {
        let mut cycles = vec![3000u64; 6];
        cycles[5] = 60_000; // would be an outlier, but excluded
        let (table, _) = table_with_times(&cycles);
        let report = detect(
            &table,
            |item| (item.0 != 5).then_some("g"),
            3.0,
            SimDuration::from_ns(100),
        );
        assert!(!report.any());
        assert_eq!(report.groups[0].count, 5);
    }

    #[test]
    fn too_small_population_not_flagged() {
        let (table, _) = table_with_times(&[3000, 30_000]);
        let report = detect(&table, |_| Some("g"), 3.0, SimDuration::from_ns(100));
        assert!(!report.any());
    }

    #[test]
    fn even_median_of_values_near_the_top_does_not_overflow() {
        // The two middle values sum past u64::MAX: `(a + b) / 2` panics
        // in a debug build and wraps in a release one.
        let max = u64::MAX;
        assert_eq!(median_of(&mut [max, 1, max - 1, max - 2]), max - 2);
        assert_eq!(median_of(&mut [max - 1, max]), max - 1);
        assert_eq!(median_of(&mut [4, 1, 3, 2]), 2);
        assert_eq!(median_of(&mut [7]), 7);
        assert_eq!(median_of(&mut []), 0);

        let f = FuncId(0);
        let mut table = EstimateTable::empty(Freq::ghz(3));
        for (i, ps) in (0u64..).zip([1, max - 2, max - 1, max]) {
            let elapsed = SimDuration::from_ps(ps);
            table.push_func(crate::estimate::FuncEstimate {
                item: ItemId(i),
                func: f,
                samples: 2,
                elapsed,
            });
            table.push_item(ItemId(i), Some(elapsed), 0);
        }
        let report = detect(&table, |_| Some("g"), 3.0, SimDuration::ZERO);
        assert_eq!(report.groups[0].median, SimDuration::from_ps(max - 2));
        assert_eq!(report.groups[0].min, SimDuration::from_ps(1));
        assert_eq!(report.groups[0].max, SimDuration::from_ps(max));
    }

    #[test]
    fn group_of_is_called_once_per_item() {
        // Every item has a marked total, so the total-latency pass would
        // ask for each label a second time if it did not reuse them.
        let mut cycles = vec![3000u64; 9];
        cycles[4] = 60_000;
        let (table, _) = table_with_times(&cycles);
        assert!(table.items().all(|ie| ie.marked_total.is_some()));
        let mut calls = Vec::new();
        let report = detect(
            &table,
            |item| {
                calls.push(item);
                (item.0 != 2).then_some("g")
            },
            3.0,
            SimDuration::from_ns(100),
        );
        let items: Vec<ItemId> = table.items().map(|ie| ie.item).collect();
        assert_eq!(calls, items, "once per item, in item order");
        assert_eq!(report.total_outliers.len(), 1);
    }

    #[test]
    fn outliers_sorted_by_severity() {
        let mut cycles = vec![3000u64; 12];
        cycles[2] = 30_000;
        cycles[9] = 90_000;
        let (table, _) = table_with_times(&cycles);
        let report = detect(&table, |_| Some("g"), 5.0, SimDuration::from_ns(100));
        assert_eq!(report.outliers.len(), 2);
        assert_eq!(report.outliers[0].item, ItemId(9));
        assert_eq!(report.outliers[1].item, ItemId(2));
    }
}
