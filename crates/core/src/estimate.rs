//! Step 3 of the paper's procedure: "The elapsed time of function `f_n`
//! for data-item `#M` is calculated by the difference between the
//! timestamps of the first and the last PEBS sample that belong to
//! `{f_n, data-item #M}`."
//!
//! Refinement over the paper's single-interval case: if an item occupies
//! several intervals (a preempted item under timer-switching with
//! scheduler logging, or several tag runs in register mode), first/last
//! differences are taken *per occupancy span* and summed, so time the
//! item spent switched-out is not counted.
//!
//! ## One assembly, several front ends
//!
//! Every estimator ends in the same private per-item builder, which
//! takes items in ascending id order with their per-function estimates
//! folded, interleaves the items that have intervals but no estimable
//! samples, attaches marked totals and unresolvable-sample counts,
//! tallies the `core.estimate.*` obs volumes and builds the final map.
//! The front ends differ only in how they reach it:
//!
//! * [`EstimateTable::from_soa`], in either mapping mode, folds each
//!   item in one pass over its runs in the `(item, start)`-sorted run
//!   index: each span's per-function `(first, last, count)` goes
//!   straight into the item's `(func, samples, cycles)` accumulator, so
//!   no span list, sort or tree is built;
//! * the AoS scan [`EstimateTable::from_integrated`] sees samples in
//!   time order: it collects a flat span list, and `assemble_table`
//!   sorts it by `(item, func)` and feeds each item's group to the same
//!   builder;
//! * [`crate::window`] already holds each completed item folded in the
//!   cycle domain — its marked cycles, its unresolvable-sample count and
//!   its per-function `(func, samples, cycles)` — and hands those rows,
//!   in item order, to `table_from_items`. Its per-window tables and
//!   its exact cumulative table both go this way.
//!
//! ## Reads
//!
//! [`EstimateTable::series_for_func`] — one function across every item,
//! the paper's Fig. 9 read — answers from a private per-function index
//! that the table builds the first time it is asked, not by scanning
//! every item. No front end above builds it, so building a table costs
//! nothing extra; a table that is only rendered or compared never pays
//! for it. The index holds exactly what the scan would return: the
//! estimable rows (≥ 2 samples) grouped by function and in item order
//! within each function, and for an item that lists a function twice
//! only the first entry, as [`ItemEstimate::func`] answers. It is keyed
//! by the functions that occur: a sorted list of distinct [`FuncId`]s,
//! their start offsets and one flat row column, so its memory is
//! O(estimable rows + distinct functions) whatever the largest id.
//! It is derived state: equality, `Debug`, serialization and
//! deserialization ignore it, and a clone starts without one.

use crate::integrate::{IntegratedTrace, MappingMode};
use crate::interval::ItemInterval;
use crate::soa::{SoaTrace, NO_FUNC, NO_SPAN};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Estimated elapsed time of one function for one data-item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuncEstimate {
    /// The data-item.
    pub item: ItemId,
    /// The function.
    pub func: FuncId,
    /// Number of samples attributed to `{func, item}`.
    pub samples: u32,
    /// Estimated elapsed time (sum of per-span first→last differences).
    pub elapsed: SimDuration,
}

impl FuncEstimate {
    /// True when enough samples existed to estimate a duration — the
    /// paper's §V.B.1 limitation: one sample gives no elapsed time.
    pub fn is_estimable(&self) -> bool {
        self.samples >= 2
    }
}

/// Everything estimated about one data-item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemEstimate {
    /// The data-item.
    pub item: ItemId,
    /// Exact processing time from the instrumentation marks (sum over
    /// the item's intervals). `None` in register-tag mode, where no
    /// marks exist.
    pub marked_total: Option<SimDuration>,
    /// Per-function estimates, ordered by function id.
    pub funcs: Vec<FuncEstimate>,
    /// Samples attributed to the item whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

impl ItemEstimate {
    /// Estimate for one function, if any samples hit it.
    pub fn func(&self, func: FuncId) -> Option<&FuncEstimate> {
        self.funcs.iter().find(|f| f.func == func)
    }

    /// Sum of the per-function estimated elapsed times.
    pub fn estimated_total(&self) -> SimDuration {
        self.funcs
            .iter()
            .fold(SimDuration::ZERO, |acc, f| acc + f.elapsed)
    }
}

/// Per-item per-function estimates for a whole trace.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateTable {
    items: BTreeMap<ItemId, ItemEstimate>,
    /// TSC frequency the estimates were converted with.
    pub freq: Freq,
    /// Interval-mode samples that carried an item but no interval index.
    /// Such samples are internally inconsistent (integration always sets
    /// both or neither), so instead of silently aliasing them onto span
    /// 0 — which would bridge unrelated timestamps into one bogus
    /// first→last difference — they are skipped and counted here.
    pub samples_missing_span: u64,
    /// The by-function index of [`Self::series_for_func`], built on
    /// first use.
    #[serde(skip)]
    series: SeriesIndex,
}

/// `Debug` shows the table's contents, never whether its index is built.
impl fmt::Debug for EstimateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EstimateTable")
            .field("items", &self.items)
            .field("freq", &self.freq)
            .field("samples_missing_span", &self.samples_missing_span)
            .finish()
    }
}

/// The lazily built by-function index of a table (see the module doc's
/// "Reads"). It is derived from the table's items, so it never makes
/// two tables differ: every index equals every other, and a clone
/// starts unbuilt and builds its own on demand.
#[derive(Default)]
struct SeriesIndex(OnceLock<ByFunc>);

impl Clone for SeriesIndex {
    fn clone(&self) -> Self {
        SeriesIndex::default()
    }
}

impl PartialEq for SeriesIndex {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A table's estimable rows grouped by function: `funcs` is sorted and
/// distinct, and the rows of `funcs[k]` are `rows[starts[k]..starts[k +
/// 1]]`, in item order.
struct ByFunc {
    funcs: Vec<FuncId>,
    starts: Vec<usize>,
    rows: Vec<(ItemId, SimDuration)>,
}

impl ByFunc {
    fn build(items: &BTreeMap<ItemId, ItemEstimate>) -> ByFunc {
        // One walk of the tree into a flat column, sized by every row,
        // estimable or not.
        let mut keyed = Vec::with_capacity(items.values().map(|ie| ie.funcs.len()).sum());
        keyed.extend(estimable_rows(items));
        // An item names a function at most once here, so the keys are
        // distinct and the unstable sort has one possible result.
        keyed.sort_unstable_by_key(|&(func, item, _)| (func, item));
        let distinct = keyed.chunk_by(|a, b| a.0 == b.0).count();
        let mut funcs = Vec::with_capacity(distinct);
        let mut starts = Vec::with_capacity(distinct + 1);
        let mut rows = Vec::with_capacity(keyed.len());
        for group in keyed.chunk_by(|a, b| a.0 == b.0) {
            if let Some(&(func, ..)) = group.first() {
                funcs.push(func);
                starts.push(rows.len());
            }
            rows.extend(group.iter().map(|&(_, item, elapsed)| (item, elapsed)));
        }
        starts.push(rows.len());
        ByFunc {
            funcs,
            starts,
            rows,
        }
    }

    fn series(&self, func: FuncId) -> &[(ItemId, SimDuration)] {
        let Ok(k) = self.funcs.binary_search(&func) else {
            return &[];
        };
        match (self.starts.get(k), self.starts.get(k + 1)) {
            (Some(&lo), Some(&hi)) => self.rows.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }
}

/// Every row [`EstimateTable::series_for_func`] returns, as `(func,
/// item, elapsed)` in item order: the estimable estimates, and of an
/// item that lists a function more than once (only a deserialized table
/// can) just the first, as [`ItemEstimate::func`] finds it.
fn estimable_rows(
    items: &BTreeMap<ItemId, ItemEstimate>,
) -> impl Iterator<Item = (FuncId, ItemId, SimDuration)> + '_ {
    items.values().flat_map(|ie| {
        let distinct = ie.funcs.is_sorted_by(|a, b| a.func < b.func);
        ie.funcs
            .iter()
            .filter(move |fe| {
                fe.is_estimable()
                    && (distinct
                        || ie
                            .func(fe.func)
                            .is_some_and(|first| std::ptr::eq(first, *fe)))
            })
            .map(move |fe| (fe.func, ie.item, fe.elapsed))
    })
}

impl EstimateTable {
    /// Assemble a table from pre-built per-item estimates (used by the
    /// batch-splitting extension).
    pub(crate) fn from_items_map(
        items: BTreeMap<ItemId, ItemEstimate>,
        freq: Freq,
    ) -> EstimateTable {
        EstimateTable {
            items,
            freq,
            samples_missing_span: 0,
            series: SeriesIndex::default(),
        }
    }

    /// Build the table from an integrated trace.
    ///
    /// ## Algorithm
    ///
    /// Samples arrive in `(core, tsc)` order, and their span ids — the
    /// interval index in interval mode, the item-run id in register
    /// mode — are non-decreasing in that order, so all samples of one
    /// occupancy span are **contiguous**. Instead of a `BTreeMap` insert
    /// per sample (the previous implementation, kept as
    /// [`Self::from_integrated_reference`]), one linear scan folds each
    /// span's per-function `(first, last, count)` into a small scratch
    /// vector, flushing it whenever the span id advances. The flat span
    /// list is then sorted once by `(item, func)` and group-folded into
    /// the final table by `assemble_table`.
    pub fn from_integrated(it: &IntegratedTrace) -> Self {
        obs::span!("estimate.run", it.samples.len());
        // All flushed spans: (item, func, first, last, count).
        let mut flat: Vec<(ItemId, FuncId, u64, u64, u32)> = Vec::new();
        // The current span's per-function accumulator.
        let mut scratch: Vec<(u32, u64, u64, u32)> = Vec::new();
        let mut unknown: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut samples_missing_span = 0u64;

        let mut run_id = 0u64;
        let mut last: Option<(fluctrace_cpu::CoreId, Option<ItemId>)> = None;
        let mut cur_span: Option<(u64, u64)> = None;
        for s in &it.samples {
            // Track register-mode runs (for *all* samples: a gap of
            // unattributed samples still splits a run).
            let cur = (s.core, s.item);
            if last != Some(cur) {
                run_id += 1;
                last = Some(cur);
            }
            let Some(item) = s.item else { continue };
            let Some(func) = s.func else {
                *unknown.entry(item).or_insert(0) += 1;
                continue;
            };
            let span = match it.mode {
                MappingMode::Intervals => match s.interval_idx {
                    Some(idx) => idx as u64,
                    None => {
                        samples_missing_span += 1;
                        continue;
                    }
                },
                MappingMode::RegisterTag => run_id,
            };
            if cur_span != Some((item.0, span)) {
                flush_span(&mut scratch, cur_span, &mut flat);
                cur_span = Some((item.0, span));
            }
            fold_sample(&mut scratch, func.0, s.tsc);
        }
        flush_span(&mut scratch, cur_span, &mut flat);

        assemble_table(flat, unknown, samples_missing_span, &it.intervals, it.freq)
    }

    /// Build the table from a columnar trace ([`crate::integrate_soa`]).
    /// Byte-identical to [`Self::from_integrated`] on the equivalent AoS
    /// trace — both scans feed the same per-item builder, and the
    /// conformance sweep pins the agreement against the oracle.
    ///
    /// The scan is the columnar twin of [`Self::from_integrated`],
    /// driven by the trace's item-run index instead of walking every
    /// row: attributed samples come in maximal same-item runs, sorted by
    /// `(item, start)`, so the scan jumps from run to run, touches only
    /// the three columns it needs (`tsc`, `func` and the span key) and
    /// skips unattributed gap samples without reading them at all. One
    /// item's runs are adjacent in the index, so each item is finished
    /// in one pass: every span's per-function
    /// `(first, last, count)` is folded straight into the item's
    /// `(func, samples, cycles)` accumulator, which is sorted by function
    /// and handed, with the item's unresolvable-sample count, to the same
    /// per-item builder `assemble_table` feeds — no flat span list, no
    /// re-sort, no tree. Span sums are commutative, so folding by item
    /// instead of by time cannot change the table. Register mode walks
    /// the same index; its spans split where the `core` column changes
    /// within a run.
    pub fn from_soa(soa: &SoaTrace) -> Self {
        if let Some(aos) = &soa.aos_fallback {
            // Reserved-id trace: the columns are ambiguous, the boxed
            // AoS trace is authoritative (see `SoaTrace::aos_fallback`).
            return Self::from_integrated(aos);
        }
        obs::span!("estimate.run", soa.cols.len());
        fold_item_runs(soa)
    }

    /// The previous `BTreeMap`-per-sample implementation, kept as an
    /// independently-written oracle for the linear-scan estimator (see
    /// the equivalence property test and the `estimate` benchmark).
    #[doc(hidden)]
    pub fn from_integrated_reference(it: &IntegratedTrace) -> Self {
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        struct SpanKey {
            item: ItemId,
            func: FuncId,
            span: u64,
        }
        let mut spans: BTreeMap<SpanKey, (u64, u64, u32)> = BTreeMap::new(); // (first, last, count)
        let mut unknown: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut samples_missing_span = 0u64;

        let mut run_id = 0u64;
        let mut last: Option<(fluctrace_cpu::CoreId, Option<ItemId>)> = None;
        for s in &it.samples {
            // Track register-mode runs.
            let cur = (s.core, s.item);
            if last != Some(cur) {
                run_id += 1;
                last = Some(cur);
            }
            let Some(item) = s.item else { continue };
            let Some(func) = s.func else {
                *unknown.entry(item).or_insert(0) += 1;
                continue;
            };
            let span = match it.mode {
                MappingMode::Intervals => match s.interval_idx {
                    Some(idx) => idx as u64,
                    None => {
                        samples_missing_span += 1;
                        continue;
                    }
                },
                MappingMode::RegisterTag => run_id,
            };
            let key = SpanKey { item, func, span };
            let entry = spans.entry(key).or_insert((s.tsc, s.tsc, 0));
            entry.0 = entry.0.min(s.tsc);
            entry.1 = entry.1.max(s.tsc);
            entry.2 += 1;
        }

        // Fold spans into per-(item, func) cycle totals; convert to time
        // once at the end so truncation does not accumulate per span.
        let mut cycle_sums: BTreeMap<(ItemId, FuncId), (u32, u64)> = BTreeMap::new();
        for (key, (first_tsc, last_tsc, count)) in spans {
            let e = cycle_sums.entry((key.item, key.func)).or_insert((0, 0));
            e.0 += count;
            e.1 += last_tsc.wrapping_sub(first_tsc);
        }
        let funcs: BTreeMap<(ItemId, FuncId), FuncEstimate> = cycle_sums
            .into_iter()
            .map(|((item, func), (samples, cycles))| {
                (
                    (item, func),
                    FuncEstimate {
                        item,
                        func,
                        samples,
                        elapsed: it.freq.cycles_to_dur(cycles),
                    },
                )
            })
            .collect();

        // Exact totals from marks.
        let mut totals: BTreeMap<ItemId, u64> = BTreeMap::new();
        for iv in &it.intervals {
            *totals.entry(iv.item).or_insert(0) += iv.cycles();
        }

        let mut items: BTreeMap<ItemId, ItemEstimate> = BTreeMap::new();
        for ((item, _), fe) in funcs {
            items
                .entry(item)
                .or_insert_with(|| ItemEstimate {
                    item,
                    marked_total: totals.get(&item).map(|&c| it.freq.cycles_to_dur(c)),
                    funcs: Vec::new(),
                    unknown_func_samples: 0,
                })
                .funcs
                .push(fe);
        }
        // Items that have intervals but no attributable samples still
        // appear (with empty func lists) so totals stay queryable.
        for (&item, &cycles) in &totals {
            items.entry(item).or_insert_with(|| ItemEstimate {
                item,
                marked_total: Some(it.freq.cycles_to_dur(cycles)),
                funcs: Vec::new(),
                unknown_func_samples: 0,
            });
        }
        for (item, n) in unknown {
            if let Some(ie) = items.get_mut(&item) {
                ie.unknown_func_samples = n;
            }
        }
        EstimateTable {
            items,
            freq: it.freq,
            samples_missing_span,
            series: SeriesIndex::default(),
        }
    }

    /// Estimate for `{item, func}`.
    pub fn get(&self, item: ItemId, func: FuncId) -> Option<&FuncEstimate> {
        self.items.get(&item).and_then(|ie| ie.func(func))
    }

    /// Everything about one item.
    pub fn item(&self, item: ItemId) -> Option<&ItemEstimate> {
        self.items.get(&item)
    }

    /// Iterate all items in id order.
    pub fn items(&self) -> impl Iterator<Item = &ItemEstimate> {
        self.items.values()
    }

    /// Number of items with any information.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Elapsed estimates of `func` across items that have ≥2 samples
    /// for it, in item order; empty for a function no item estimates.
    /// The first call builds the table's by-function index (one walk
    /// of the rows and a sort of the estimable ones); every call
    /// after it is a binary search over the distinct functions and
    /// allocates nothing.
    pub fn series_for_func(&self, func: FuncId) -> &[(ItemId, SimDuration)] {
        self.series
            .0
            .get_or_init(|| ByFunc::build(&self.items))
            .series(func)
    }
}

/// Move a finished span's per-function accumulators into the flat span
/// list (tagged with the span's item), clearing the scratch for reuse.
/// The scratch keys are raw ids; typed ids are minted here, at the flat
/// boundary.
fn flush_span(
    scratch: &mut Vec<(u32, u64, u64, u32)>,
    span: Option<(u64, u64)>,
    flat: &mut Vec<(ItemId, FuncId, u64, u64, u32)>,
) {
    let Some((item, _)) = span else {
        debug_assert!(scratch.is_empty());
        return;
    };
    for (func, first, last, count) in scratch.drain(..) {
        flat.push((ItemId(item), FuncId(func), first, last, count));
    }
}

/// Fold one sample into a span's per-function `(func, first, last,
/// count)` accumulator. Spans touch few distinct functions, so a linear
/// probe beats any map.
fn fold_sample(scratch: &mut Vec<(u32, u64, u64, u32)>, func: u32, tsc: u64) {
    match scratch.iter_mut().find(|e| e.0 == func) {
        Some(e) => {
            e.1 = e.1.min(tsc);
            e.2 = e.2.max(tsc);
            e.3 += 1;
        }
        None => scratch.push((func, tsc, tsc, 1)),
    }
}

/// [`EstimateTable::from_soa`]: one pass per item over its runs in the
/// `(item, start)`-sorted run index. Within a run, a span is a stretch
/// of one key: the `span` column (the interval index) in interval mode,
/// the `core` column in register mode, so a register-mode span is one
/// core's stretch of an item run — the AoS scan's `(core, item)` run.
/// Each finished span's per-function `(first, last, count)` goes
/// straight into the item's `(func, samples, cycles)` accumulator; when
/// the item's last run is done the accumulator is sorted by function
/// and the item is handed to the [`TableBuilder`]. Both scratch vectors
/// are reused across items.
fn fold_item_runs(soa: &SoaTrace) -> EstimateTable {
    let freq = soa.freq;
    let intervals = soa.mode == MappingMode::Intervals;
    let keys = if intervals {
        &soa.cols.span
    } else {
        &soa.cols.core
    };
    let mut builder = TableBuilder::new(&soa.intervals, freq);
    // The open span's (func, first, last, count) and the open item's
    // (func, samples, cycles).
    let mut span_acc: Vec<(u32, u64, u64, u32)> = Vec::new();
    let mut item_acc: Vec<(u32, u32, u64)> = Vec::new();
    let mut samples_missing_span = 0u64;
    for runs in soa.item_index.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(item, ..)) = runs.first() else {
            continue;
        };
        let mut unknown = 0u32;
        for &(_, start, end) in runs {
            let (lo, hi) = (start as usize, end as usize);
            let (Some(tscs), Some(funcs), Some(run_keys)) = (
                soa.cols.tsc.get(lo..hi),
                soa.cols.func.get(lo..hi),
                keys.get(lo..hi),
            ) else {
                continue;
            };
            // The span accumulator is empty when a run starts, so a first
            // key equal to this initial value (a core numbered
            // `u32::MAX`) merely skips a no-op fold.
            let mut cur = NO_SPAN;
            for ((&tsc, &func), &key) in tscs.iter().zip(funcs).zip(run_keys) {
                if func == NO_FUNC {
                    unknown += 1;
                    continue;
                }
                if key == NO_SPAN && intervals {
                    samples_missing_span += 1;
                    continue;
                }
                if key != cur {
                    fold_span(&mut span_acc, &mut item_acc, &mut builder);
                    cur = key;
                }
                fold_sample(&mut span_acc, func, tsc);
            }
            fold_span(&mut span_acc, &mut item_acc, &mut builder);
        }
        item_acc.sort_unstable_by_key(|&(func, _, _)| func);
        let mut funcs = Vec::with_capacity(item_acc.len());
        funcs.extend(
            item_acc
                .drain(..)
                .map(|(func, samples, cycles)| FuncEstimate {
                    item,
                    func: FuncId(func),
                    samples,
                    elapsed: freq.cycles_to_dur(cycles),
                }),
        );
        builder.push(item, funcs, unknown);
    }
    builder.finish(samples_missing_span)
}

/// Close the open span: fold its per-function `(first, last, count)`
/// into the item accumulator and count it for the obs volumes.
fn fold_span(
    span_acc: &mut Vec<(u32, u64, u64, u32)>,
    item_acc: &mut Vec<(u32, u32, u64)>,
    builder: &mut TableBuilder,
) {
    for (func, first, last, count) in span_acc.drain(..) {
        let cycles = last.wrapping_sub(first);
        builder.span(cycles);
        match item_acc.iter_mut().find(|e| e.0 == func) {
            Some(e) => {
                e.1 += count;
                e.2 = e.2.wrapping_add(cycles);
            }
            None => item_acc.push((func, count, cycles)),
        }
    }
}

/// The one assembly every estimator front end feeds. Items arrive in
/// ascending id order with their per-function estimates already folded
/// and sorted; the builder interleaves the items that have intervals but
/// no attributable samples (merge join against the exact marked totals),
/// attaches each item's marked total and unresolvable-sample count,
/// tallies the deterministic `core.estimate.*` obs volumes and builds
/// the final map. Because every front end ends here, the AoS scan, the
/// SoA fold and the windowed integrator produce the same table whenever
/// they fold the same spans.
struct TableBuilder {
    freq: Freq,
    /// Exact cycles from marks per item, coalesced and sorted by item.
    totals: Vec<(ItemId, u64)>,
    /// First entry of `totals` not yet emitted.
    next_total: usize,
    items: Vec<(ItemId, ItemEstimate)>,
    /// Spans folded so far (`core.estimate.spans`).
    spans: u64,
    /// `core.estimate.span_cycles`.
    span_cycles: &'static obs::Histogram,
}

impl TableBuilder {
    fn new(intervals: &[ItemInterval], freq: Freq) -> Self {
        let mut raw_totals: Vec<(ItemId, u64)> =
            intervals.iter().map(|iv| (iv.item, iv.cycles())).collect();
        raw_totals.sort_unstable_by_key(|&(item, _)| item);
        let mut totals: Vec<(ItemId, u64)> = Vec::with_capacity(raw_totals.len());
        for &(item, cycles) in &raw_totals {
            match totals.last_mut() {
                Some((last_item, acc)) if *last_item == item => *acc = acc.wrapping_add(cycles),
                _ => totals.push((item, cycles)),
            }
        }
        TableBuilder {
            freq,
            items: Vec::with_capacity(totals.len()),
            totals,
            next_total: 0,
            spans: 0,
            span_cycles: obs::histogram!("core.estimate.span_cycles"),
        }
    }

    /// Count one folded span (one function's first→last cycles within
    /// one occupancy span) for the obs volumes.
    fn span(&mut self, cycles: u64) {
        self.spans += 1;
        self.span_cycles.record(cycles);
    }

    /// Emit every interval-only item with an id below `item` (all that
    /// are left, for `None`). Such items still appear, with empty
    /// function lists, so their totals stay queryable.
    fn backfill_below(&mut self, item: Option<ItemId>) {
        while let Some(&(t_item, cycles)) = self.totals.get(self.next_total) {
            if item.is_some_and(|item| t_item >= item) {
                break;
            }
            self.items.push((
                t_item,
                ItemEstimate {
                    item: t_item,
                    marked_total: Some(self.freq.cycles_to_dur(cycles)),
                    funcs: Vec::new(),
                    unknown_func_samples: 0,
                },
            ));
            self.next_total += 1;
        }
    }

    /// Emit `item` (ids strictly ascending across calls) with its
    /// function estimates, sorted by function, and its count of samples
    /// whose IP resolved to no function. An item with no estimate and no
    /// interval is left out, so its unresolvable count is dropped.
    fn push(&mut self, item: ItemId, funcs: Vec<FuncEstimate>, unknown: u32) {
        self.backfill_below(Some(item));
        let marked_total = match self.totals.get(self.next_total) {
            Some(&(t_item, cycles)) if t_item == item => {
                self.next_total += 1;
                Some(self.freq.cycles_to_dur(cycles))
            }
            _ => None,
        };
        self.emit(item, marked_total, funcs, unknown);
    }

    /// Emit `item` with its marked total already known; the interval
    /// merge join of [`Self::push`] is bypassed.
    fn emit(
        &mut self,
        item: ItemId,
        marked_total: Option<SimDuration>,
        funcs: Vec<FuncEstimate>,
        unknown: u32,
    ) {
        if funcs.is_empty() && marked_total.is_none() {
            return;
        }
        self.items.push((
            item,
            ItemEstimate {
                item,
                marked_total,
                funcs,
                unknown_func_samples: unknown,
            },
        ));
    }

    /// Emit the interval-only items past the last pushed one, record the
    /// obs volumes and build the table.
    fn finish(mut self, samples_missing_span: u64) -> EstimateTable {
        self.backfill_below(None);
        // Self-observability: volumes and sim-cycle span widths only
        // (deterministic; estimator tick timings never enter the
        // registry).
        if obs::recording() {
            obs::counter!("core.estimate.runs").inc();
            obs::counter!("core.estimate.spans").add(self.spans);
            obs::counter!("core.estimate.samples_missing_span").add(samples_missing_span);
        }
        EstimateTable {
            items: self.items.into_iter().collect(),
            freq: self.freq,
            samples_missing_span,
            series: SeriesIndex::default(),
        }
    }
}

/// The flat-span-list front of [`TableBuilder`], for the AoS scan, which
/// sees samples in time order:
/// sort the span list by `(item, func)`, fold each item's group into
/// per-function estimates and feed the builder, merge-joining the
/// unresolvable-sample counts on the way. Counts for items absent from
/// the table (no span, no interval) are dropped.
fn assemble_table(
    mut flat: Vec<(ItemId, FuncId, u64, u64, u32)>,
    unknown: BTreeMap<ItemId, u32>,
    samples_missing_span: u64,
    intervals: &[ItemInterval],
    freq: Freq,
) -> EstimateTable {
    flat.sort_by_key(|&(item, func, _, _, _)| (item, func));
    let mut builder = TableBuilder::new(intervals, freq);
    let mut groups = flat.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut unknown = unknown.into_iter().peekable();
    loop {
        let next_group = groups
            .peek()
            .and_then(|g| g.first())
            .map(|&(item, ..)| item);
        let next_unknown = unknown.peek().map(|&(item, _)| item);
        let item = match (next_group, next_unknown) {
            (Some(g), Some(u)) => g.min(u),
            (Some(item), None) | (None, Some(item)) => item,
            (None, None) => break,
        };
        let funcs = match groups.next_if(|g| g.first().is_some_and(|e| e.0 == item)) {
            Some(group) => fold_func_groups(item, group, &mut builder, freq),
            None => Vec::new(),
        };
        let n = unknown.next_if(|&(u, _)| u == item).map_or(0, |(_, n)| n);
        builder.push(item, funcs, n);
    }
    builder.finish(samples_missing_span)
}

/// One completed item folded in the cycle domain, as
/// [`table_from_items`] takes it.
pub(crate) struct ItemCycles<F> {
    pub item: ItemId,
    /// Cycles between the item's Start and End marks.
    pub marked: u64,
    /// Samples inside the item whose IP resolved to no function.
    pub unknown: u32,
    /// Per-function `(func, samples, cycles)`, one entry per function
    /// in ascending `func`; each entry counts as one span.
    pub funcs: F,
}

/// The per-item front of [`TableBuilder`], for [`crate::window`]: rows
/// arrive in non-decreasing item order with their folds already in the
/// cycle domain, so there is no span list to sort. Consecutive rows of
/// one id (an item id that completed more than once) are merged the
/// way the flat-span fold merges them: marked and span cycles summed
/// with wrap-around, sample and unresolvable counts summed. Cycles are
/// converted to time once per function and once per item.
pub(crate) fn table_from_items<F>(
    rows: impl IntoIterator<Item = ItemCycles<F>>,
    freq: Freq,
) -> EstimateTable
where
    F: IntoIterator<Item = (FuncId, u32, u64)>,
{
    let mut builder = TableBuilder::new(&[], freq);
    let mut rows = rows.into_iter().peekable();
    // The item's `(func, samples, cycles)` entries, reused across items.
    let mut acc: Vec<(FuncId, u32, u64)> = Vec::new();
    while let Some(row) = rows.next() {
        let item = row.item;
        let (mut marked, mut unknown) = (row.marked, row.unknown);
        acc.clear();
        acc.extend(row.funcs);
        while let Some(again) = rows.next_if(|r| r.item == item) {
            marked = marked.wrapping_add(again.marked);
            unknown += again.unknown;
            acc.extend(again.funcs);
        }
        acc.sort_unstable_by_key(|&(func, ..)| func);
        let mut funcs = Vec::with_capacity(acc.len());
        for group in acc.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(func, ..)) = group.first() else {
                continue;
            };
            let mut samples = 0u32;
            let mut cycles = 0u64;
            for &(_, n, c) in group {
                builder.span(c);
                samples += n;
                cycles = cycles.wrapping_add(c);
            }
            funcs.push(FuncEstimate {
                item,
                func,
                samples,
                elapsed: freq.cycles_to_dur(cycles),
            });
        }
        builder.emit(item, Some(freq.cycles_to_dur(marked)), funcs, unknown);
    }
    builder.finish(0)
}

/// Fold one item's `(func)`-sorted spans into per-function estimates;
/// cycles are converted to time once per function so truncation does not
/// accumulate per span.
fn fold_func_groups(
    item: ItemId,
    group: &[(ItemId, FuncId, u64, u64, u32)],
    builder: &mut TableBuilder,
    freq: Freq,
) -> Vec<FuncEstimate> {
    let mut funcs = Vec::with_capacity(group.chunk_by(|a, b| a.1 == b.1).count());
    for func_group in group.chunk_by(|a, b| a.1 == b.1) {
        let Some(&(_, func, ..)) = func_group.first() else {
            continue;
        };
        let mut samples = 0u32;
        let mut cycles = 0u64;
        for &(_, _, first_tsc, last_tsc, count) in func_group {
            let span_cycles = last_tsc.wrapping_sub(first_tsc);
            builder.span(span_cycles);
            samples += count;
            cycles = cycles.wrapping_add(span_cycles);
        }
        funcs.push(FuncEstimate {
            item,
            func,
            samples,
            elapsed: freq.cycles_to_dur(cycles),
        });
    }
    funcs
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::integrate::integrate;
    use fluctrace_cpu::{
        encode_tag, CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTable,
        SymbolTableBuilder, TraceBundle, VirtAddr, NO_TAG,
    };

    fn setup() -> (SymbolTable, FuncId, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let g = b.add("g", 100);
        (b.build(), f, g)
    }

    fn sample(core: u32, tsc: u64, ip: VirtAddr, r13: u64) -> PebsRecord {
        PebsRecord {
            core: CoreId(core),
            tsc,
            ip,
            r13,
            event: HwEvent::UopsRetired,
        }
    }

    fn mark(core: u32, tsc: u64, item: u64, kind: MarkKind) -> MarkRecord {
        MarkRecord {
            core: CoreId(core),
            tsc,
            item: ItemId(item),
            kind,
        }
    }

    /// 3 GHz: 3000 cycles = 1 µs.
    fn freq() -> Freq {
        Freq::ghz(3)
    }

    #[test]
    fn first_to_last_sample_difference() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 1_000, ip, NO_TAG),
            sample(0, 2_500, ip, NO_TAG),
            sample(0, 4_000, ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 3);
        assert!(fe.is_estimable());
        // 3000 cycles at 3 GHz = 1 µs.
        assert_eq!(fe.elapsed, SimDuration::from_us(1));
        let ie = table.item(ItemId(1)).unwrap();
        assert_eq!(ie.marked_total, Some(freq().cycles_to_dur(10_000)));
        assert_eq!(ie.estimated_total(), SimDuration::from_us(1));
    }

    #[test]
    fn single_sample_gives_zero_elapsed_not_estimable() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 1000, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(0, 500, ip, NO_TAG)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 1);
        assert!(!fe.is_estimable());
        assert_eq!(fe.elapsed, SimDuration::ZERO);
        assert!(table.series_for_func(f).is_empty());
    }

    #[test]
    fn per_function_separation_within_item() {
        let (symtab, f, g) = setup();
        let f_ip = symtab.range(f).start;
        let g_ip = symtab.range(g).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 100_000, 1, MarkKind::End),
        ];
        // f: 0..30000 cycles; g: 40000..70000 cycles.
        bundle.samples = vec![
            sample(0, 10_000, f_ip, NO_TAG),
            sample(0, 40_000, g_ip, NO_TAG),
            sample(0, 25_000, f_ip, NO_TAG),
            sample(0, 70_000, g_ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(
            table.get(ItemId(1), f).unwrap().elapsed,
            freq().cycles_to_dur(15_000)
        );
        assert_eq!(
            table.get(ItemId(1), g).unwrap().elapsed,
            freq().cycles_to_dur(30_000)
        );
        let ie = table.item(ItemId(1)).unwrap();
        assert_eq!(ie.funcs.len(), 2);
    }

    #[test]
    fn preempted_item_sums_per_span_not_across_gap() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        // Item 1 runs in two slices: [0, 10k] and [50k, 60k]; item 2 in
        // between. Naive first→last would charge 59k cycles to item 1.
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
            mark(0, 10_000, 2, MarkKind::Start),
            mark(0, 50_000, 2, MarkKind::End),
            mark(0, 50_000, 1, MarkKind::Start),
            mark(0, 60_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 1_000, ip, NO_TAG),
            sample(0, 9_000, ip, NO_TAG),
            sample(0, 51_000, ip, NO_TAG),
            sample(0, 59_000, ip, NO_TAG),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let fe = table.get(ItemId(1), f).unwrap();
        // 8k + 8k cycles, not 58k.
        assert_eq!(fe.elapsed, freq().cycles_to_dur(16_000));
        assert_eq!(fe.samples, 4);
    }

    #[test]
    fn register_tag_mode_runs_sum_per_run() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        let t1 = encode_tag(ItemId(1));
        let t2 = encode_tag(ItemId(2));
        // Item 1 sampled in two runs separated by item 2.
        bundle.samples = vec![
            sample(0, 1_000, ip, t1),
            sample(0, 4_000, ip, t1),
            sample(0, 10_000, ip, t2),
            sample(0, 13_000, ip, t2),
            sample(0, 20_000, ip, t1),
            sample(0, 23_000, ip, t1),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::RegisterTag);
        let table = EstimateTable::from_integrated(&it);
        let fe1 = table.get(ItemId(1), f).unwrap();
        // (4k-1k) + (23k-20k) = 6k cycles = 2 µs.
        assert_eq!(fe1.elapsed, SimDuration::from_us(2));
        assert_eq!(fe1.samples, 4);
        // No marks → no exact total.
        assert_eq!(table.item(ItemId(1)).unwrap().marked_total, None);
    }

    #[test]
    fn item_without_samples_still_has_marked_total() {
        let (symtab, _, _) = setup();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 9, MarkKind::Start),
            mark(0, 3_000, 9, MarkKind::End),
        ];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let ie = table.item(ItemId(9)).unwrap();
        assert_eq!(ie.marked_total, Some(SimDuration::from_us(1)));
        assert!(ie.funcs.is_empty());
        assert_eq!(ie.estimated_total(), SimDuration::ZERO);
    }

    #[test]
    fn unknown_func_samples_counted() {
        let (symtab, _, _) = setup();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 10_000, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(0, 500, VirtAddr(0x10), NO_TAG)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(table.item(ItemId(1)).unwrap().unknown_func_samples, 1);
    }

    #[test]
    fn missing_interval_idx_is_skipped_and_counted_not_aliased() {
        use crate::integrate::AttributedSample;
        let (symtab, f, _) = setup();
        let _ = symtab;
        // Hand-built inconsistent trace: interval-mode samples carrying
        // an item but no interval index. The old estimator aliased these
        // onto span 0, bridging tsc 1_000 and 900_000 into one bogus
        // 299.67 µs estimate.
        let mk = |tsc: u64, idx: Option<u32>| AttributedSample {
            core: CoreId(0),
            tsc,
            item: Some(ItemId(1)),
            func: Some(f),
            interval_idx: idx,
        };
        let it = IntegratedTrace {
            samples: vec![
                mk(1_000, Some(0)),
                mk(4_000, Some(0)),
                mk(900_000, None), // inconsistent straggler
            ],
            intervals: vec![],
            errors: vec![],
            freq: freq(),
            mode: MappingMode::Intervals,
            item_index: vec![],
        };
        for table in [
            EstimateTable::from_integrated(&it),
            EstimateTable::from_integrated_reference(&it),
        ] {
            assert_eq!(table.samples_missing_span, 1);
            let fe = table.get(ItemId(1), f).unwrap();
            assert_eq!(fe.samples, 2, "straggler not counted");
            assert_eq!(fe.elapsed, SimDuration::from_us(1), "span not bridged");
        }
    }

    #[test]
    fn linear_scan_matches_reference_on_messy_trace() {
        // Multi-core, preemption, unknown IPs, gap samples, both modes.
        let (symtab, f, g) = setup();
        let ips = [symtab.range(f).start, symtab.range(g).start, VirtAddr(0x2)];
        for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
            let mut bundle = TraceBundle::default();
            let mut item = 0u64;
            for core in 0..4u32 {
                let mut tsc = 31u64 * core as u64;
                for rep in 0..25u64 {
                    bundle
                        .marks
                        .push(mark(core, tsc, item % 7, MarkKind::Start));
                    for k in 0..(rep % 5) {
                        let ip = ips[(rep + k) as usize % 3];
                        let tag = encode_tag(ItemId(item % 7));
                        bundle.samples.push(sample(core, tsc + 1 + k * 13, ip, tag));
                    }
                    tsc += 80;
                    bundle.marks.push(mark(core, tsc, item % 7, MarkKind::End));
                    // Gap sample between items: no tag, no interval.
                    bundle.samples.push(sample(core, tsc + 3, ips[0], NO_TAG));
                    tsc += 10;
                    item += 1;
                }
            }
            bundle.sort();
            let it = integrate(&bundle, &symtab, freq(), mode);
            let fast = EstimateTable::from_integrated(&it);
            let reference = EstimateTable::from_integrated_reference(&it);
            assert_eq!(fast, reference, "mode {mode:?}");
            // The columnar estimator agrees too, both from a directly
            // built SoA trace and from an AoS conversion.
            let soa = crate::soa::integrate_soa(&bundle, &symtab, freq(), mode);
            let columnar = EstimateTable::from_soa(&soa);
            assert_eq!(columnar, reference, "soa mode {mode:?}");
            let converted = crate::soa::SoaTrace::from_integrated(&it);
            assert_eq!(
                EstimateTable::from_soa(&converted),
                reference,
                "converted soa mode {mode:?}"
            );
        }
    }

    #[test]
    fn series_for_func_orders_by_item() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        for (i, base) in [(2u64, 100_000u64), (1, 0)] {
            bundle.marks.push(mark(0, base, i, MarkKind::Start));
            bundle.marks.push(mark(0, base + 50_000, i, MarkKind::End));
            bundle.samples.push(sample(0, base + 1_000, ip, NO_TAG));
            bundle.samples.push(sample(0, base + 4_000, ip, NO_TAG));
        }
        bundle.sort();
        let it = integrate(&bundle, &symtab, freq(), MappingMode::Intervals);
        let table = EstimateTable::from_integrated(&it);
        let series = table.series_for_func(f);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, ItemId(1));
        assert_eq!(series[1].0, ItemId(2));
        assert_eq!(series[0].1, SimDuration::from_us(1));
    }
}
