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
//! An [`EstimateTable`] is two columns: a row per item, ascending by
//! item, and one flat [`FuncEstimate`] column in item-then-function
//! order. An [`ItemEstimate`] is a `Copy` view of a row and its entries.
//!
//! ## One fold, one assembly
//!
//! Every estimate, batch or streaming, is built from the same two
//! pieces. `SpanFold` is the one span fold: a span's `(func, tsc)`
//! samples become one `FuncSpan` per function — its samples and its
//! first→last cycles, in ascending function order — the one form a
//! span's estimate takes until it is converted to time. The
//! crate-private builder is the one assembly: it takes items in
//! ascending id order, each with its span entries, appends one estimate
//! per function (cycles summed, then converted to time once) and the
//! item's row with its marked total and unresolvable-sample count,
//! interleaves the items that have intervals but no estimable samples,
//! and tallies the `core.estimate.*` obs volumes. Nothing is allocated
//! per item.
//!
//! * [`EstimateTable::from_integrated`] (also named
//!   [`EstimateTable::from_soa`]) is one pass, in either mapping mode,
//!   over the trace's `(item, start)`-sorted item-run index, folding
//!   each span of each run's sample columns and handing the builder one
//!   item at a time;
//! * the streaming pairing core (`core::pairing`) folds each completed
//!   item's interval with the same `SpanFold`, and [`crate::window`]
//!   keeps the entries and feeds its items to the builder in id order —
//!   its per-window tables and its exact cumulative table alike.
//!
//! [`crate::split_batches`], whose input is already a table, appends to
//! the two columns directly.
//!
//! ## Reads
//!
//! [`EstimateTable::item`] is a binary search over the rows and, for the
//! item's entries, over the entry column's `item` field.
//! [`EstimateTable::series_for_func`] — one function across every item,
//! the paper's Fig. 9 read — answers from a private per-function index
//! built on its first call, not by scanning every item: the estimable
//! entries (≥ 2 samples; of a function an item lists twice, only the
//! first, as [`ItemEstimate::func`] answers) in function-then-item
//! order, with the distinct [`FuncId`]s and their start offsets, so its
//! memory is O(estimable rows + distinct functions) whatever the largest
//! id. No front end builds it, so a table that is only rendered or
//! compared never pays for it. It is derived state: equality, `Debug`,
//! serialization and deserialization ignore it, and a clone starts
//! without one.
//!
//! ## Wire format
//!
//! The JSON form is an object of items keyed by id, each with its
//! entries as an array. Reading it sorts the keys, keeps the last of a
//! repeated key and an item's entries as given; an item or entry whose
//! id differs from its key is refused, since reads find entries by id.

use crate::integrate::{IntegratedTrace, MappingMode, NO_FUNC, NO_SPAN};
use fluctrace_cpu::{FuncId, ItemId};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::iter::Peekable;
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

/// Everything estimated about one data-item: a view of one row of an
/// [`EstimateTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItemEstimate<'a> {
    /// The data-item.
    pub item: ItemId,
    /// Exact processing time from the instrumentation marks (sum over
    /// the item's intervals). `None` when the item has no interval, as
    /// in register-tag mode on a trace without marks.
    pub marked_total: Option<SimDuration>,
    /// Per-function estimates, ordered by function id.
    pub funcs: &'a [FuncEstimate],
    /// Samples attributed to the item whose IP resolved to no function.
    pub unknown_func_samples: u32,
}

impl<'a> ItemEstimate<'a> {
    /// Estimate for one function, if any samples hit it.
    pub fn func(&self, func: FuncId) -> Option<&'a FuncEstimate> {
        self.funcs.iter().find(|f| f.func == func)
    }

    /// Sum of the per-function estimated elapsed times.
    pub fn estimated_total(&self) -> SimDuration {
        self.funcs
            .iter()
            .fold(SimDuration::ZERO, |acc, f| acc + f.elapsed)
    }
}

/// One item of a table; its entries are the next `funcs` of the entry
/// column.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ItemRow {
    item: ItemId,
    marked_total: Option<SimDuration>,
    unknown_func_samples: u32,
    funcs: u32,
}

impl ItemRow {
    fn view(self, funcs: &[FuncEstimate]) -> ItemEstimate<'_> {
        ItemEstimate {
            item: self.item,
            marked_total: self.marked_total,
            funcs,
            unknown_func_samples: self.unknown_func_samples,
        }
    }
}

/// Per-item per-function estimates for a whole trace, in the two
/// columns the module doc describes.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateTable {
    /// One row per item, ascending by item.
    rows: Vec<ItemRow>,
    /// Every item's entries in item-then-function order; each entry's
    /// `item` is its row's.
    funcs: Vec<FuncEstimate>,
    /// TSC frequency the estimates were converted with.
    pub freq: Freq,
    /// Interval-mode rows the item index lists whose span is unset.
    /// Integration sets the span of every attributed row, so such a row
    /// had its span cleared afterwards; instead of silently aliasing it
    /// onto span 0 — which would bridge unrelated timestamps into one
    /// bogus first→last difference — it is skipped and counted here.
    pub samples_missing_span: u64,
    /// The by-function index of [`Self::series_for_func`], built on
    /// first use.
    series: SeriesIndex,
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

/// `Debug` never shows whether the index is built.
impl fmt::Debug for SeriesIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SeriesIndex")
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
    fn build(table: &EstimateTable) -> ByFunc {
        // One walk of the entry column into a flat column, sized by
        // every entry, estimable or not.
        let mut keyed = Vec::with_capacity(table.funcs.len());
        keyed.extend(estimable_rows(table));
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
    table: &EstimateTable,
) -> impl Iterator<Item = (FuncId, ItemId, SimDuration)> + '_ {
    table.items().flat_map(|ie| {
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
            .map(|fe| (fe.func, fe.item, fe.elapsed))
    })
}

impl EstimateTable {
    /// An empty table, to append items to in ascending id order.
    pub(crate) fn empty(freq: Freq) -> Self {
        EstimateTable {
            rows: Vec::new(),
            funcs: Vec::new(),
            freq,
            samples_missing_span: 0,
            series: SeriesIndex::default(),
        }
    }

    /// Append one entry of the item about to be appended.
    pub(crate) fn push_func(&mut self, fe: FuncEstimate) {
        self.funcs.push(fe);
    }

    /// Append `item` (ids strictly ascending across calls); its entries
    /// are the ones pushed for it since the previous item.
    pub(crate) fn push_item(
        &mut self,
        item: ItemId,
        marked_total: Option<SimDuration>,
        unknown_func_samples: u32,
    ) {
        let funcs = self.funcs.iter().rev().take_while(|fe| fe.item == item);
        self.rows.push(ItemRow {
            item,
            marked_total,
            unknown_func_samples,
            funcs: funcs.count() as u32,
        });
    }

    /// Build the table from an integrated trace.
    ///
    /// ## Algorithm
    ///
    /// The item-run index lists the maximal same-item runs sorted by
    /// `(item, start)`, so each item is folded in one pass over its runs.
    /// Within a run a span is a stretch of one key — the interval index
    /// in interval mode, the core in register mode — and each span is
    /// folded into one entry per function of the item's scratch list.
    /// The conformance oracle, which shares no code with this crate, is
    /// the independent reference for both modes.
    pub fn from_integrated(it: &IntegratedTrace) -> Self {
        obs::span!("estimate.run", it.cols.len());
        fold_item_runs(it)
    }

    /// [`Self::from_integrated`], under the name the production kernel
    /// ([`crate::integrate_soa`]) was first paired with.
    pub fn from_soa(it: &IntegratedTrace) -> Self {
        Self::from_integrated(it)
    }

    /// Estimate for `{item, func}`.
    pub fn get(&self, item: ItemId, func: FuncId) -> Option<&FuncEstimate> {
        self.item(item).and_then(|ie| ie.func(func))
    }

    /// Everything about one item.
    pub fn item(&self, item: ItemId) -> Option<ItemEstimate<'_>> {
        let k = self.rows.binary_search_by_key(&item, |row| row.item).ok()?;
        let row = *self.rows.get(k)?;
        let start = self.funcs.partition_point(|fe| fe.item < item);
        Some(row.view(self.funcs.get(start..start + row.funcs as usize)?))
    }

    /// Iterate all items in id order.
    pub fn items(&self) -> impl Iterator<Item = ItemEstimate<'_>> {
        let mut rest = self.funcs.as_slice();
        self.rows.iter().map(move |row| {
            let (funcs, tail) = rest
                .split_at_checked(row.funcs as usize)
                .unwrap_or((rest, &[]));
            rest = tail;
            row.view(funcs)
        })
    }

    /// Number of items with any information.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
            .get_or_init(|| ByFunc::build(self))
            .series(func)
    }
}

/// Written as a derive writes a struct of these fields.
impl Serialize for ItemEstimate<'_> {
    fn write_json(&self, out: &mut String) {
        let fields: [(&str, &dyn Serialize); 4] = [
            ("item", &self.item),
            ("marked_total", &self.marked_total),
            ("funcs", &self.funcs),
            ("unknown_func_samples", &self.unknown_func_samples),
        ];
        for (i, (name, value)) in fields.into_iter().enumerate() {
            let _ = write!(out, "{}\"{name}\":", if i == 0 { "{" } else { "," });
            value.write_json(out);
        }
        out.push('}');
    }
}

/// The module doc's "Wire format".
impl Serialize for EstimateTable {
    fn write_json(&self, out: &mut String) {
        // A row takes about 80–96 bytes and an entry 53–60 with ids of up
        // to 11 digits: reserve a little more, so that the document is
        // written without growing the buffer.
        out.reserve(96 * self.rows.len() + 64 * self.funcs.len());
        let _ = write!(out, "{{\"items\":{{");
        for (i, ie) in self.items().enumerate() {
            let _ = write!(out, "{}\"{}\":", if i == 0 { "" } else { "," }, ie.item.0);
            ie.write_json(out);
        }
        let _ = write!(out, "}},\"freq\":");
        self.freq.write_json(out);
        let _ = write!(
            out,
            ",\"samples_missing_span\":{}}}",
            self.samples_missing_span
        );
    }
}

/// One item as the wire format spells it.
#[derive(Deserialize)]
struct WireItem {
    item: ItemId,
    marked_total: Option<SimDuration>,
    funcs: Vec<FuncEstimate>,
    unknown_func_samples: u32,
}

/// Reads the module doc's "Wire format" through a map of wire items, so
/// the keys it keeps are by construction the ones a derived map kept.
impl Deserialize for EstimateTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: BTreeMap<ItemId, WireItem> = serde::from_field(v, "items")?;
        let mut table = EstimateTable::empty(serde::from_field(v, "freq")?);
        table.samples_missing_span = serde::from_field(v, "samples_missing_span")?;
        for (id, ie) in items {
            if ie.item != id || ie.funcs.iter().any(|fe| fe.item != id) {
                return Err(DeError::msg("an item or entry id differs from its key"));
            }
            table.funcs.extend(ie.funcs);
            table.push_item(id, ie.marked_total, ie.unknown_func_samples);
        }
        Ok(table)
    }
}

/// One function over one occupancy span, in the cycle domain: the
/// samples that hit it and the cycles from the first of them to the
/// last. It is the one form a span's estimate takes between the fold
/// and the table, in the batch fold, the streaming pairing core and the
/// windowed integrator's columns alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FuncSpan {
    pub func: FuncId,
    pub samples: u32,
    pub cycles: u64,
}

/// The one span fold (§III.D step 3: a function's time in a span is its
/// last sample's tsc minus its first). Samples are added one at a time,
/// in any order, and [`Self::close`] turns the span into one
/// [`FuncSpan`] per function. The fold is scratch kept across spans.
#[derive(Default)]
pub(crate) struct SpanFold {
    /// `(func, first tsc, last tsc, samples)` of each function of the
    /// open span, in order of first appearance.
    open: Vec<(FuncId, u64, u64, u32)>,
}

impl SpanFold {
    /// Fold one sample into the open span. A span touches few distinct
    /// functions, so a linear probe beats any map; probing from the
    /// newest function finds a run's function at the first step.
    pub(crate) fn add(&mut self, func: FuncId, tsc: u64) {
        match self.open.iter_mut().rev().find(|e| e.0 == func) {
            Some((_, first, last, samples)) => {
                *first = (*first).min(tsc);
                *last = (*last).max(tsc);
                *samples += 1;
            }
            None => self.open.push((func, tsc, tsc, 1)),
        }
    }

    /// Close the open span: append its entries to `out` in ascending
    /// `FuncId`, and start the next span empty.
    pub(crate) fn close(&mut self, out: &mut Vec<FuncSpan>) {
        self.open.sort_unstable_by_key(|e| e.0);
        out.extend(
            self.open
                .drain(..)
                .map(|(func, first, last, samples)| FuncSpan {
                    func,
                    samples,
                    cycles: last - first,
                }),
        );
    }
}

/// The fold of [`EstimateTable::from_integrated`]: one pass per item
/// over its runs in the item-run index, reading the `tsc`, `func` and
/// span-key columns of each run's rows into the [`SpanFold`] one span
/// at a time. The fold and the item's entries are reused across items.
fn fold_item_runs(it: &IntegratedTrace) -> EstimateTable {
    let cols = &it.cols;
    let intervals = it.mode == MappingMode::Intervals;
    let keys = if intervals { &cols.span } else { &cols.core };
    let index = it.item_index.as_slice();
    let mut totals: Vec<(ItemId, u64)> = it
        .intervals
        .iter()
        .map(|iv| (iv.item, iv.cycles()))
        .collect();
    totals.sort_unstable_by_key(|&(item, _)| item);
    let items = index.chunk_by(|a, b| a.0 == b.0).count();
    let marked = totals.chunk_by(|a, b| a.0 == b.0).count();
    let mut builder = TableBuilder::new(totals.into_iter(), it.freq, items.max(marked));
    // The open span and the open item's span entries.
    let mut fold = SpanFold::default();
    let mut spans: Vec<FuncSpan> = Vec::new();
    let mut samples_missing_span = 0u64;
    for runs in index.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(item, ..)) = runs.first() else {
            continue;
        };
        let mut unknown = 0u32;
        for &(_, start, end) in runs {
            let rows = start as usize..end as usize;
            let tscs = cols.tsc.get(rows.clone()).unwrap_or_default();
            let funcs = cols.func.get(rows.clone()).unwrap_or_default();
            let keys = keys.get(rows).unwrap_or_default();
            let mut cur = None;
            for ((&tsc, &func), &key) in tscs.iter().zip(funcs).zip(keys) {
                if func == NO_FUNC {
                    unknown += 1;
                    continue;
                }
                if intervals && key == NO_SPAN {
                    samples_missing_span += 1;
                    continue;
                }
                if cur != Some(key) {
                    fold.close(&mut spans);
                    cur = Some(key);
                }
                fold.add(FuncId(func), tsc);
            }
            fold.close(&mut spans);
        }
        builder.push(item, unknown, &mut spans);
    }
    builder.finish(samples_missing_span)
}

/// The one assembly every estimator front end feeds (the module doc's
/// "One fold, one assembly"): items in ascending id order, each with
/// its span entries. Marked totals come from a merge join against
/// `totals`, which also supplies the items that have intervals but no
/// estimable samples. Because the batch fold and the windowed
/// integrator both end here, they produce the same table whenever they
/// fold the same spans.
pub(crate) struct TableBuilder<T: Iterator<Item = (ItemId, u64)>> {
    /// Exact cycles from marks, ascending by item; the cycles of an
    /// item listed more than once are summed with wrap-around.
    totals: Peekable<T>,
    /// The columns appended so far.
    table: EstimateTable,
    /// Rows the table is expected to end with.
    rows_hint: usize,
    /// Spans folded so far (`core.estimate.spans`).
    spans: u64,
    /// `core.estimate.span_cycles`.
    span_cycles: &'static obs::Histogram,
}

impl<T: Iterator<Item = (ItemId, u64)>> TableBuilder<T> {
    /// A builder for about `rows` items, marked totals included; the
    /// hint sizes the columns.
    pub(crate) fn new(totals: T, freq: Freq, rows: usize) -> Self {
        let mut table = EstimateTable::empty(freq);
        table.rows.reserve_exact(rows);
        TableBuilder {
            totals: totals.peekable(),
            table,
            rows_hint: rows,
            spans: 0,
            span_cycles: obs::histogram!("core.estimate.span_cycles"),
        }
    }

    /// Append `item` (ids strictly ascending across calls) from its
    /// span entries in any order, with its count of samples whose IP
    /// resolved to no function; `spans` is left empty for reuse. One
    /// estimate per function: its samples and cycles summed (cycles
    /// with wrap-around) and converted to time once, so truncation does
    /// not accumulate per span. Every entry counts as one span for the
    /// obs volumes. An item with no estimate and no marked total is
    /// left out, so its unresolvable count is dropped.
    pub(crate) fn push(&mut self, item: ItemId, unknown: u32, spans: &mut Vec<FuncSpan>) {
        self.backfill_below(Some(item));
        let marked_total = self.take_total(item);
        spans.sort_unstable_by_key(|s| s.func);
        self.reserve(spans.len());
        for group in spans.chunk_by(|a, b| a.func == b.func) {
            let Some(&FuncSpan { func, .. }) = group.first() else {
                continue;
            };
            let (mut samples, mut cycles) = (0u32, 0u64);
            for s in group {
                self.spans += 1;
                self.span_cycles.record(s.cycles);
                samples += s.samples;
                cycles = cycles.wrapping_add(s.cycles);
            }
            let elapsed = self.table.freq.cycles_to_dur(cycles);
            self.table.push_func(FuncEstimate {
                item,
                func,
                samples,
                elapsed,
            });
        }
        spans.clear();
        if marked_total.is_some() || self.table.funcs.last().is_some_and(|fe| fe.item == item) {
            self.table.push_item(item, marked_total, unknown);
        }
    }

    /// Make room for `n` more entries. A full entry column grows by its
    /// entries per row so far times the rows still expected, and by at
    /// least an eighth: a few steps to its final size, where doubling
    /// would allocate about twice that size on the way.
    fn reserve(&mut self, n: usize) {
        let (rows, funcs) = (self.table.rows.len(), &mut self.table.funcs);
        if funcs.capacity() - funcs.len() < n {
            let per_row = funcs.len() / rows.max(1) + 1;
            let ahead = self.rows_hint.saturating_sub(rows) * per_row;
            funcs.reserve_exact(n + ahead.max(funcs.len() / 8));
        }
    }

    /// Take the totals listed next for `item`, as its one marked total
    /// (`None` when the next total is another item's).
    fn take_total(&mut self, item: ItemId) -> Option<SimDuration> {
        let mut cycles: Option<u64> = None;
        while let Some((_, c)) = self.totals.next_if(|&(t_item, _)| t_item == item) {
            cycles = Some(cycles.map_or(c, |sum| sum.wrapping_add(c)));
        }
        cycles.map(|c| self.table.freq.cycles_to_dur(c))
    }

    /// Append every interval-only item with an id below `item` (all that
    /// are left, for `None`). Such items still appear, with no entries,
    /// so their totals stay queryable.
    fn backfill_below(&mut self, item: Option<ItemId>) {
        while let Some(&(t_item, _)) = self.totals.peek() {
            if item.is_some_and(|item| t_item >= item) {
                break;
            }
            let total = self.take_total(t_item);
            self.table.push_item(t_item, total, 0);
        }
    }

    /// Append the interval-only items past the last pushed one, record
    /// the obs volumes and hand the table over.
    pub(crate) fn finish(mut self, samples_missing_span: u64) -> EstimateTable {
        self.backfill_below(None);
        // Self-observability: volumes and sim-cycle span widths only
        // (deterministic; estimator tick timings never enter the
        // registry).
        if obs::recording() {
            obs::counter!("core.estimate.runs").inc();
            obs::counter!("core.estimate.spans").add(self.spans);
            obs::counter!("core.estimate.samples_missing_span").add(samples_missing_span);
        }
        self.table.samples_missing_span = samples_missing_span;
        self.table
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
        let (_, f, _) = setup();
        // Hand-built inconsistent trace: interval-mode rows carrying an
        // item but no span. The old estimator aliased these onto span 0,
        // bridging tsc 1_000 and 900_000 into one bogus 299.67 µs
        // estimate.
        let it = IntegratedTrace {
            cols: crate::integrate::SampleColumns {
                core: vec![0; 3],
                tsc: vec![1_000, 4_000, 900_000],
                item: vec![1; 3],
                func: vec![f.0; 3],
                span: vec![0, 0, NO_SPAN], // an inconsistent straggler
            },
            intervals: vec![],
            errors: vec![],
            freq: freq(),
            mode: MappingMode::Intervals,
            // The run index integration builds for these rows.
            item_index: vec![(ItemId(1), 0, 3)],
        };
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(EstimateTable::from_soa(&it), table);
        assert_eq!(table.samples_missing_span, 1);
        let fe = table.get(ItemId(1), f).unwrap();
        assert_eq!(fe.samples, 2, "straggler not counted");
        assert_eq!(fe.elapsed, SimDuration::from_us(1), "span not bridged");
    }

    /// `(item, marked ps, (func, samples, elapsed ps), unknown)` rows.
    type Rows = Vec<(u64, Option<u64>, Vec<(u32, u32, u64)>, u32)>;

    /// A table's rows in the shape of the conformance oracle's.
    fn rows(table: &EstimateTable) -> Rows {
        table
            .items()
            .map(|ie| {
                let funcs = ie
                    .funcs
                    .iter()
                    .map(|f| (f.func.0, f.samples, f.elapsed.as_ps()))
                    .collect();
                let marked = ie.marked_total.map(|d| d.as_ps());
                (ie.item.0, marked, funcs, ie.unknown_func_samples)
            })
            .collect()
    }

    /// The conformance oracle's rows for a raw bundle.
    fn oracle_rows(bundle: &TraceBundle, symtab: &SymbolTable, mode: MappingMode) -> Rows {
        use fluctrace_conformance::oracle::{offline_oracle, register_oracle};
        let oracle = match mode {
            MappingMode::Intervals => offline_oracle,
            MappingMode::RegisterTag => register_oracle,
        };
        oracle(&bundle.marks, &bundle.samples, symtab, freq())
            .items
            .into_iter()
            .map(|r| (r.item, r.marked_total_ps, r.funcs, r.unknown_func_samples))
            .collect()
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
            let table = EstimateTable::from_integrated(&it);
            // The production kernel's trace gives the same table, and the
            // conformance oracle computes the same rows from the raw
            // bundle.
            let soa = crate::integrate::integrate_soa(&bundle, &symtab, freq(), mode);
            assert_eq!(EstimateTable::from_soa(&soa), table, "mode {mode:?}");
            assert_eq!(
                rows(&table),
                oracle_rows(&bundle, &symtab, mode),
                "oracle mode {mode:?}"
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
