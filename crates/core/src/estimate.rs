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

use crate::integrate::{IntegratedTrace, MappingMode};
use crate::interval::ItemInterval;
use crate::soa::{SoaTrace, NO_FUNC, NO_ITEM, NO_SPAN};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// the final table — the only tree left is at the API boundary.
    pub fn from_integrated(it: &IntegratedTrace) -> Self {
        obs::span!("estimate.run", it.samples.len());
        // All flushed spans: (item, func, first, last, count).
        let mut flat: Vec<(ItemId, FuncId, u64, u64, u32)> = Vec::new();
        // The current span's per-function accumulator. Spans touch few
        // distinct functions, so a linear probe beats any map.
        let mut scratch: Vec<(FuncId, u64, u64, u32)> = Vec::new();
        let mut unknown: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut samples_missing_span = 0u64;

        let mut run_id = 0u64;
        let mut last: Option<(fluctrace_cpu::CoreId, Option<ItemId>)> = None;
        let mut cur_span: Option<(ItemId, u64)> = None;
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
            if cur_span != Some((item, span)) {
                flush_span(&mut scratch, cur_span, &mut flat);
                cur_span = Some((item, span));
            }
            match scratch.iter_mut().find(|e| e.0 == func) {
                Some(e) => {
                    e.1 = e.1.min(s.tsc);
                    e.2 = e.2.max(s.tsc);
                    e.3 += 1;
                }
                None => scratch.push((func, s.tsc, s.tsc, 1)),
            }
        }
        flush_span(&mut scratch, cur_span, &mut flat);

        assemble_table(flat, unknown, samples_missing_span, &it.intervals, it.freq)
    }

    /// Build the table from a columnar trace ([`crate::integrate_soa`]).
    /// Byte-identical to [`Self::from_integrated`] on the equivalent AoS
    /// trace — both scans feed the same [`assemble_table`] fold, and the
    /// conformance sweep pins the agreement against the oracle.
    ///
    /// The scan is the columnar twin of [`Self::from_integrated`].
    /// In interval mode it is driven by the trace's item-run index
    /// instead of walking every row: attributed samples come in maximal
    /// same-item runs, so the scan jumps from run to run, touches only
    /// the three columns it needs (`tsc`/`func`/`span`) and skips
    /// unattributed gap samples without reading them at all. Register
    /// mode keeps the row walk (run splitting needs the `core` column).
    /// Either way the flat span list feeds the same [`assemble_table`]
    /// fold as the AoS scan; span sums are commutative, so the run
    /// ordering (by item, not by time) cannot change the table.
    pub fn from_soa(soa: &SoaTrace) -> Self {
        if let Some(aos) = &soa.aos_fallback {
            // Reserved-id trace: the columns are ambiguous, the boxed
            // AoS trace is authoritative (see `SoaTrace::aos_fallback`).
            return Self::from_integrated(aos);
        }
        obs::span!("estimate.run", soa.cols.len());
        let mut flat: Vec<(ItemId, FuncId, u64, u64, u32)> = Vec::new();
        let mut scratch: Vec<(u32, u64, u64, u32)> = Vec::new();
        let mut unknown: BTreeMap<ItemId, u32> = BTreeMap::new();
        let mut samples_missing_span = 0u64;

        match soa.mode {
            MappingMode::Intervals => {
                for &(item, start, end) in &soa.item_index {
                    let (lo, hi) = (start as usize, end as usize);
                    let (Some(tscs), Some(funcs), Some(spans)) = (
                        soa.cols.tsc.get(lo..hi),
                        soa.cols.func.get(lo..hi),
                        soa.cols.span.get(lo..hi),
                    ) else {
                        continue;
                    };
                    let mut unknown_in_run = 0u32;
                    // NO_SPAN doubles as "no open span": sentinel-valued
                    // samples are skipped before the comparison, so a
                    // real span index can never collide with it.
                    let mut cur = NO_SPAN;
                    for ((&tsc, &func), &span_idx) in tscs.iter().zip(funcs).zip(spans) {
                        if func == NO_FUNC {
                            unknown_in_run += 1;
                            continue;
                        }
                        if span_idx == NO_SPAN {
                            samples_missing_span += 1;
                            continue;
                        }
                        if span_idx != cur {
                            for (f, first, last, count) in scratch.drain(..) {
                                flat.push((item, FuncId(f), first, last, count));
                            }
                            cur = span_idx;
                        }
                        match scratch.iter_mut().find(|e| e.0 == func) {
                            Some(e) => {
                                e.1 = e.1.min(tsc);
                                e.2 = e.2.max(tsc);
                                e.3 += 1;
                            }
                            None => scratch.push((func, tsc, tsc, 1)),
                        }
                    }
                    for (f, first, last, count) in scratch.drain(..) {
                        flat.push((item, FuncId(f), first, last, count));
                    }
                    if unknown_in_run > 0 {
                        *unknown.entry(item).or_insert(0) += unknown_in_run;
                    }
                }
            }
            MappingMode::RegisterTag => {
                let mut run_id = 0u64;
                let mut last: Option<(u32, u64)> = None;
                let mut cur_span: Option<(u64, u64)> = None;
                let rows = soa
                    .cols
                    .core
                    .iter()
                    .zip(&soa.cols.tsc)
                    .zip(&soa.cols.item)
                    .zip(&soa.cols.func);
                for (((&core, &tsc), &item), &func) in rows {
                    // Track runs for *all* samples: a gap of
                    // unattributed samples still splits a run.
                    let cur = (core, item);
                    if last != Some(cur) {
                        run_id += 1;
                        last = Some(cur);
                    }
                    if item == NO_ITEM {
                        continue;
                    }
                    if func == NO_FUNC {
                        *unknown.entry(ItemId(item)).or_insert(0) += 1;
                        continue;
                    }
                    if cur_span != Some((item, run_id)) {
                        flush_span_cols(&mut scratch, cur_span, &mut flat);
                        cur_span = Some((item, run_id));
                    }
                    match scratch.iter_mut().find(|e| e.0 == func) {
                        Some(e) => {
                            e.1 = e.1.min(tsc);
                            e.2 = e.2.max(tsc);
                            e.3 += 1;
                        }
                        None => scratch.push((func, tsc, tsc, 1)),
                    }
                }
                flush_span_cols(&mut scratch, cur_span, &mut flat);
            }
        }

        assemble_table(
            flat,
            unknown,
            samples_missing_span,
            &soa.intervals,
            soa.freq,
        )
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

    /// Consume the table, yielding item estimates in id order (lets
    /// [`crate::batch::split_batches_owned`] move pass-through items
    /// instead of cloning them).
    pub fn into_items(self) -> impl Iterator<Item = ItemEstimate> {
        self.items.into_values()
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
    /// for it, in item order (convenience for the evaluation harness).
    pub fn series_for_func(&self, func: FuncId) -> Vec<(ItemId, SimDuration)> {
        self.items()
            .filter_map(|ie| {
                ie.func(func)
                    .filter(|fe| fe.is_estimable())
                    .map(|fe| (ie.item, fe.elapsed))
            })
            .collect()
    }
}

/// Move a finished span's per-function accumulators into the flat span
/// list (tagged with the span's item), clearing the scratch for reuse.
fn flush_span(
    scratch: &mut Vec<(FuncId, u64, u64, u32)>,
    span: Option<(ItemId, u64)>,
    flat: &mut Vec<(ItemId, FuncId, u64, u64, u32)>,
) {
    let Some((item, _)) = span else {
        debug_assert!(scratch.is_empty());
        return;
    };
    for (func, first, last, count) in scratch.drain(..) {
        flat.push((item, func, first, last, count));
    }
}

/// [`flush_span`] with raw column ids (the SoA scan's scratch keys are
/// plain `u32`/`u64`; typed ids are minted here, at the flat boundary).
fn flush_span_cols(
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

/// The shared tail of both estimators: sort the flat span list, fold
/// per-(item, func), backfill sample-less items from the exact marked
/// totals, and record the deterministic obs volumes. Factoring this out
/// structurally guarantees the AoS and SoA scans produce the same table
/// whenever they produce the same flat spans — the differential sweep
/// then pins that the scans agree too.
///
/// `pub(crate)` for [`crate::window`]: the windowed integrator feeds its
/// per-window and cumulative span folds through this exact assembly so
/// window tables are structurally the same artifact as batch tables.
pub(crate) fn assemble_table(
    mut flat: Vec<(ItemId, FuncId, u64, u64, u32)>,
    unknown: BTreeMap<ItemId, u32>,
    samples_missing_span: u64,
    intervals: &[ItemInterval],
    freq: Freq,
) -> EstimateTable {
    // Fold spans into per-(item, func) estimates; convert cycles to
    // time once at the end so truncation does not accumulate per
    // span. Sorting the span list groups equal (item, func) pairs
    // and yields the ascending push order the table guarantees. From
    // here on every input is sorted by item, so the whole assembly is
    // merge joins over sorted lists — no tree lookups on the hot path;
    // the one `BTreeMap` left is built from the sorted result at the
    // API boundary.
    //
    // The run-driven SoA scan emits spans already grouped by ascending
    // item, so item-sorted input only needs per-group sorts by func —
    // each a handful of elements. Time-order scans interleave items and
    // take the full sort — a stable one, because a window's span list is
    // a few ascending runs (one per batch) that it merges instead of
    // re-sorting. Both end states are sorted by (item, func), and every
    // downstream fold over equal keys is commutative, so the resulting
    // table is identical whichever branch ran.
    if flat.is_sorted_by_key(|&(item, _, _, _, _)| item) {
        for group in flat.chunk_by_mut(|a, b| a.0 == b.0) {
            group.sort_unstable_by_key(|&(_, func, _, _, _)| func);
        }
    } else {
        flat.sort_by_key(|&(item, func, _, _, _)| (item, func));
    }

    // Exact totals from marks, coalesced into a sorted list.
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

    // Items that have intervals but no attributable samples still
    // appear (with empty func lists) so totals stay queryable — the
    // merge join interleaves them in item order.
    let backfill = |item: ItemId, cycles: u64| {
        (
            item,
            ItemEstimate {
                item,
                marked_total: Some(freq.cycles_to_dur(cycles)),
                funcs: Vec::new(),
                unknown_func_samples: 0,
            },
        )
    };
    let mut items: Vec<(ItemId, ItemEstimate)> = Vec::with_capacity(totals.len());
    let mut totals_iter = totals.iter().peekable();
    for group in flat.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(item, ..)) = group.first() else {
            continue;
        };
        while let Some(&&(t_item, cycles)) = totals_iter.peek() {
            if t_item >= item {
                break;
            }
            items.push(backfill(t_item, cycles));
            totals_iter.next();
        }
        let marked_total = match totals_iter.peek() {
            Some(&&(t_item, cycles)) if t_item == item => {
                totals_iter.next();
                Some(freq.cycles_to_dur(cycles))
            }
            _ => None,
        };
        let mut funcs = Vec::with_capacity(group.chunk_by(|a, b| a.1 == b.1).count());
        for func_group in group.chunk_by(|a, b| a.1 == b.1) {
            let Some(&(_, func, ..)) = func_group.first() else {
                continue;
            };
            let mut samples = 0u32;
            let mut cycles = 0u64;
            for &(_, _, first_tsc, last_tsc, count) in func_group {
                samples += count;
                cycles = cycles.wrapping_add(last_tsc.wrapping_sub(first_tsc));
            }
            funcs.push(FuncEstimate {
                item,
                func,
                samples,
                elapsed: freq.cycles_to_dur(cycles),
            });
        }
        items.push((
            item,
            ItemEstimate {
                item,
                marked_total,
                funcs,
                unknown_func_samples: 0,
            },
        ));
    }
    for &(t_item, cycles) in totals_iter {
        items.push(backfill(t_item, cycles));
    }

    // Unknown-function counts: merge join; counts for items absent from
    // the table (no span, no interval) are dropped, as before.
    let mut cursor = items.iter_mut().peekable();
    for (u_item, n) in unknown {
        while let Some((item, _)) = cursor.peek() {
            if *item < u_item {
                cursor.next();
            } else {
                break;
            }
        }
        if let Some((item, ie)) = cursor.peek_mut() {
            if *item == u_item {
                ie.unknown_func_samples = n;
                cursor.next();
            }
        }
    }

    // Self-observability: volumes and sim-cycle span widths only
    // (deterministic; estimator tick timings never enter the registry).
    if obs::recording() {
        obs::counter!("core.estimate.runs").inc();
        obs::counter!("core.estimate.spans").add(flat.len() as u64);
        obs::counter!("core.estimate.samples_missing_span").add(samples_missing_span);
        let span_cycles = obs::histogram!("core.estimate.span_cycles");
        for &(_, _, first_tsc, last_tsc, _) in &flat {
            span_cycles.record(last_tsc.wrapping_sub(first_tsc));
        }
    }

    EstimateTable {
        items: items.into_iter().collect(),
        freq,
        samples_missing_span,
    }
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
