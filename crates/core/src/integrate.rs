//! Step 2 of the paper's procedure (§III.D, Fig. 6): integrate the two
//! data streams.
//!
//! Each PEBS sample is attributed along two axes:
//!
//! * **data-item** — by locating the mark interval (same core) that
//!   contains the sample's timestamp, or, in
//!   [`MappingMode::RegisterTag`], by decoding the `r13` register value
//!   the sample captured (§V.A);
//! * **function** — by resolving the sampled instruction pointer against
//!   the target's symbol table.
//!
//! ## The integrated trace
//!
//! An [`IntegratedTrace`] keeps one row per sample, in `(core, tsc)`
//! order, as columns ([`SampleColumns`]: `core`, `tsc`, `item`, `func`
//! and `span`, the global interval index), about 28 bytes a sample.
//! An axis a sample has no value on holds a sentinel ([`NO_ITEM`],
//! [`NO_FUNC`], [`NO_SPAN`]). Samples outside every interval (busy-poll
//! spinning between items) or outside every known function are
//! retained, because profiles (§V.B.1) still use them. The estimator,
//! profiles, metric counts and the Chrome export all read these
//! columns.
//!
//! A row is attributed iff its item or its span is set. In interval
//! mode every attributed row has a span, so an interval may claim item
//! `u64::MAX`, which equals `NO_ITEM`. In register-tag mode
//! [`decode_tag`] yields `r13 − 1` with `r13 ≠ 0` and cannot produce
//! it. `NO_FUNC` and `NO_SPAN` are `u32::MAX`: they would take about
//! 4 billion functions or intervals to collide.
//!
//! ## Two kernels, one output
//!
//! The paper's mapping is strictly per-core: a sample can only belong
//! to an interval on its own core. Both streams arrive sorted by
//! `(core, tsc)`, so the bundle splits into per-core shards with two
//! `partition_point` walks. The columns are allocated once and each
//! shard fills its own disjoint chunk of them on a scoped worker pool
//! (`FLUCTRACE_THREADS`, see [`crate::parallel::run_parts`]). There is
//! no per-shard `Vec` and no splice of rows, and the trace is
//! **bit-identical** for every thread count, including the fully
//! sequential `FLUCTRACE_THREADS=1`. Bounds and the tie rule are the
//! crate's (see the crate doc, step 3).
//!
//! * [`integrate_soa`] is the production kernel. It runs the per-core
//!   walk of `pairing` — the one the online tracer and the windowed
//!   integrator run per batch — once over each core's samples, filling
//!   each interval's rows with its item and span. The trace's intervals
//!   and errors come from the same walk over each core's marks alone,
//!   run first, which also fixes each core's first span index. It
//!   checks the function the previous sample resolved to before
//!   searching the symbol table: consecutive samples usually share a
//!   function, so resolution is one range check. Speed is the
//!   benchmark's `analyze_wide` workload.
//! * [`integrate()`](fn@integrate) is the reference, and shares nothing
//!   with the walk. It pairs marks with [`build_intervals`], co-walks
//!   samples and intervals with a merge cursor, asks
//!   [`ItemInterval::contains`] of the candidate interval, resolves
//!   every IP with [`SymbolTable::resolve`] and decodes tags with
//!   [`decode_tag`]. The benchmark checks the production kernel's tables
//!   against this kernel's, and the tests compare whole traces.

use crate::interval::{build_intervals, IntervalError, ItemInterval};
use crate::pairing::{pair_marks, resolve, walk, Step};
use crate::parallel;
use fluctrace_cpu::{
    decode_tag, CoreId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, TraceBundle, NO_TAG,
};
use fluctrace_obs as obs;
use fluctrace_sim::Freq;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// How samples are mapped to data-items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingMode {
    /// Timestamp-in-mark-interval mapping — the paper's main procedure,
    /// valid for self-switching architectures.
    Intervals,
    /// `r13` register-tag mapping — the §V.A extension, also valid under
    /// timer-switching preemption.
    RegisterTag,
}

/// Sentinel in the `item` column: a sample outside every interval or
/// tag (unless its span is set; see the module doc).
pub const NO_ITEM: u64 = u64::MAX;
/// Sentinel in the `func` column: IP outside every known function.
pub const NO_FUNC: u32 = u32::MAX;
/// Sentinel in the `span` column: no interval index (a gap sample, or
/// any sample in register-tag mode, whose spans the estimator derives).
pub const NO_SPAN: u32 = u32::MAX;

/// The attributed sample columns. All vectors have equal length; row
/// `i` of every column describes the same sample, in `(core, tsc)`
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleColumns {
    /// Core the sample was taken on.
    pub core: Vec<u32>,
    /// TSC timestamp.
    pub tsc: Vec<u64>,
    /// Attributed item id, or [`NO_ITEM`].
    pub item: Vec<u64>,
    /// Resolved function id, or [`NO_FUNC`].
    pub func: Vec<u32>,
    /// Global interval index (interval mode), or [`NO_SPAN`].
    pub span: Vec<u32>,
}

impl SampleColumns {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.tsc.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.tsc.is_empty()
    }

    /// The item row `row` is attributed to: `None` unless its item or
    /// its span is set.
    pub fn item_at(&self, row: usize) -> Option<ItemId> {
        let (&item, &span) = (self.item.get(row)?, self.span.get(row)?);
        (item != NO_ITEM || span != NO_SPAN).then_some(ItemId(item))
    }

    /// Zero-filled columns of length `n`, ready for chunked writes.
    fn zeroed(n: usize) -> Self {
        SampleColumns {
            core: vec![0; n], // lint:allow(hot-path-alloc): one-time column allocation per integration, not per sample
            tsc: vec![0; n], // lint:allow(hot-path-alloc): one-time column allocation per integration, not per sample
            item: vec![0; n], // lint:allow(hot-path-alloc): one-time column allocation per integration, not per sample
            func: vec![0; n], // lint:allow(hot-path-alloc): one-time column allocation per integration, not per sample
            span: vec![0; n], // lint:allow(hot-path-alloc): one-time column allocation per integration, not per sample
        }
    }
}

/// The integrated trace: the attributed sample columns plus the
/// reconstructed intervals and any mark-pairing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegratedTrace {
    /// Attributed sample columns, in `(core, tsc)` order.
    pub cols: SampleColumns,
    /// Item intervals reconstructed from marks, in `(core, start)` order.
    pub intervals: Vec<ItemInterval>,
    /// Mark-pairing problems encountered.
    pub errors: Vec<IntervalError>,
    /// TSC frequency, for converting cycle differences to time.
    pub freq: Freq,
    /// The mapping mode used.
    pub mode: MappingMode,
    /// Per-item index into the rows: `(item, start, end)` half-open
    /// ranges of attributed rows, sorted by `(item, start)`. Built once
    /// during integration so per-item reads don't rescan every row.
    pub(crate) item_index: Vec<(ItemId, u32, u32)>,
}

/// Integrate a trace bundle against a symbol table with the reference
/// kernel.
///
/// `bundle` must be sorted (see [`TraceBundle::sort`]); `freq` is the
/// TSC frequency of the traced machine. Runs on the worker pool sized
/// by `FLUCTRACE_THREADS` (default: available parallelism); the result
/// is identical for every pool size.
pub fn integrate(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> IntegratedTrace {
    let threads = parallel::threads_for(bundle.samples.len());
    integrate_with_threads(bundle, symtab, freq, mode, threads)
}

/// [`integrate`] with an explicit worker count, honoured even for tiny
/// bundles (used by the determinism tests and benchmarks; `threads = 1`
/// is the sequential reference).
pub fn integrate_with_threads(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> IntegratedTrace {
    let threads = threads.max(1);
    obs::span!("integrate.run", threads);
    let shards: Vec<Shard<'_>> = shards_by_core(&bundle.marks, &bundle.samples).collect();
    let paired = pair_shards(&shards, threads, "integrate.shard", build_intervals);
    let (intervals, errors, shard_ivs) = paired;
    let mut cols = SampleColumns::zeroed(bundle.samples.len());
    let tasks: Vec<_> = chunk_rows(&shards, &mut cols).zip(shard_ivs).collect();
    let all_ivs = intervals.as_slice();
    parallel::run_parts(tasks, threads, |shard_idx, (mut rows, ivs)| {
        obs::span!("integrate.attribute", shard_idx);
        let base = ivs.start as u32;
        let ivs = all_ivs.get(ivs).unwrap_or_default();
        let marks = rows.marks;
        // Intervals that end before the current sample, and marks before
        // its tick. The candidate is the first interval left, so at a
        // coincident End/Start tick the closing item owns the sample; an
        // End at the sample's tick (marks at one tick sort End first)
        // also keeps an interval starting there from owning it.
        let (mut ended, mut passed) = (0usize, 0usize);
        rows.fill(0..rows.samples.len(), |s| {
            let (item, span) = match mode {
                MappingMode::Intervals => {
                    while ivs.get(ended).is_some_and(|iv| iv.end_tsc < s.tsc) {
                        ended += 1;
                    }
                    while marks.get(passed).is_some_and(|m| m.tsc < s.tsc) {
                        passed += 1;
                    }
                    let end_here = marks
                        .get(passed)
                        .is_some_and(|m| m.tsc == s.tsc && m.kind == MarkKind::End);
                    match ivs.get(ended) {
                        Some(iv) if iv.contains(s.tsc) && !(end_here && iv.start_tsc == s.tsc) => {
                            (iv.item.0, base + ended as u32)
                        }
                        _ => (NO_ITEM, NO_SPAN),
                    }
                }
                MappingMode::RegisterTag => (decode_tag(s.r13).map_or(NO_ITEM, |i| i.0), NO_SPAN),
            };
            (item, symtab.resolve(s.ip).map_or(NO_FUNC, |f| f.0), span)
        });
    });
    finish(&shards, cols, intervals, errors, freq, mode)
}

/// [`integrate()`](fn@integrate)'s production twin: same inputs, same
/// trace. Pool size from `FLUCTRACE_THREADS`, sequential for tiny
/// bundles.
pub fn integrate_soa(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> IntegratedTrace {
    let threads = parallel::threads_for(bundle.samples.len());
    integrate_soa_with_threads(bundle, symtab, freq, mode, threads)
}

/// [`integrate_soa`] with an explicit worker count (`threads = 1` is the
/// sequential reference; results are identical for every pool size).
pub fn integrate_soa_with_threads(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
    threads: usize,
) -> IntegratedTrace {
    let threads = threads.max(1);
    obs::span!("soa.integrate.run", threads);
    let shards: Vec<Shard<'_>> = shards_by_core(&bundle.marks, &bundle.samples).collect();
    // The walk over each core's marks alone gives its intervals and
    // errors, so the walk over its samples below knows their indices.
    let paired = pair_shards(&shards, threads, "soa.integrate.shard", pair_marks);
    let (intervals, errors, shard_ivs) = paired;
    let mut cols = SampleColumns::zeroed(bundle.samples.len());
    let tasks: Vec<_> = chunk_rows(&shards, &mut cols).zip(shard_ivs).collect();
    parallel::run_parts(tasks, threads, |shard_idx, (mut rows, ivs)| {
        obs::span!("soa.integrate.attribute", shard_idx);
        let (marks, samples) = (rows.marks, rows.samples);
        let mut memo = None;
        let mut fill = |rows: &mut Rows<'_>, range: Range<usize>, owner: (u64, u32)| {
            rows.fill(range, |s| {
                let (item, span) = match mode {
                    MappingMode::Intervals => owner,
                    // decode_tag's `ItemId(r13 - 1)`; r13 ≠ 0 on that arm.
                    MappingMode::RegisterTag if s.r13 == NO_TAG => (NO_ITEM, NO_SPAN),
                    MappingMode::RegisterTag => (s.r13.wrapping_sub(1), NO_SPAN),
                };
                let func = resolve(symtab, &mut memo, s.ip).map_or(NO_FUNC, |f| f.0);
                (item, func, span)
            })
        };
        // The k-th interval the walk closes is the shard's k-th interval.
        let mut spans = ivs.map(|span| span as u32);
        let tail = walk(&mut None, marks, samples, |range, step| {
            let owner = match step {
                Step::Closed(iv) => (iv.item.0, spans.next().unwrap_or(NO_SPAN)),
                Step::Opened | Step::Malformed(_) => (NO_ITEM, NO_SPAN),
            };
            fill(&mut rows, range, owner);
        });
        fill(&mut rows, tail..samples.len(), (NO_ITEM, NO_SPAN));
    });
    if obs::recording() {
        obs::counter!("core.soa.runs").inc();
        obs::counter!("core.soa.samples").add(cols.len() as u64);
    }
    finish(&shards, cols, intervals, errors, freq, mode)
}

/// Each shard's intervals and errors, paired by `pair` on the pool and
/// spliced in core order, with each shard's range of the intervals.
/// Concatenated per-core results are identical to one sequential walk:
/// either way an interval still open at a core boundary is truncated.
fn pair_shards(
    shards: &[Shard<'_>],
    threads: usize,
    shard_span: &'static str,
    pair: impl Fn(&[MarkRecord]) -> (Vec<ItemInterval>, Vec<IntervalError>) + Sync,
) -> (Vec<ItemInterval>, Vec<IntervalError>, Vec<Range<usize>>) {
    let marks = shards.iter().map(|sh| sh.marks).collect();
    let built = parallel::run_indexed(marks, threads, |shard_idx, marks| {
        obs::span!(shard_span, shard_idx);
        pair(marks)
    });
    let mut intervals = Vec::with_capacity(built.iter().map(|(ivs, _)| ivs.len()).sum());
    let mut errors = Vec::new();
    let mut shard_ivs = Vec::with_capacity(built.len());
    for (ivs, errs) in &built {
        shard_ivs.push(intervals.len()..intervals.len() + ivs.len());
        intervals.extend_from_slice(ivs);
        errors.extend_from_slice(errs);
    }
    (intervals, errors, shard_ivs)
}

/// Index the filled columns and assemble the trace. Records the run's
/// self-observability, the same for both kernels so a production run is
/// observably identical to a reference run: deterministic volumes and
/// sim-cycle distributions only, so obs snapshots stay byte-identical
/// across runs and thread counts.
fn finish(
    shards: &[Shard<'_>],
    cols: SampleColumns,
    intervals: Vec<ItemInterval>,
    errors: Vec<IntervalError>,
    freq: Freq,
    mode: MappingMode,
) -> IntegratedTrace {
    if obs::recording() {
        obs::counter!("core.integrate.runs").inc();
        obs::counter!("core.integrate.samples").add(cols.len() as u64);
        obs::counter!("core.integrate.intervals").add(intervals.len() as u64);
        obs::counter!("core.integrate.shards").add(shards.len() as u64);
        obs::counter!("core.integrate.errors").add(errors.len() as u64);
        let interval_cycles = obs::histogram!("core.integrate.interval_cycles");
        for iv in &intervals {
            interval_cycles.record(iv.cycles());
        }
        let shard_samples = obs::histogram!("core.integrate.shard_samples");
        for sh in shards {
            shard_samples.record(sh.samples.len() as u64);
        }
    }
    IntegratedTrace {
        item_index: build_item_index(&cols),
        cols,
        intervals,
        errors,
        freq,
        mode,
    }
}

/// One core's sub-slices of the `(core, tsc)`-sorted streams.
pub(crate) struct Shard<'a> {
    pub core: CoreId,
    pub marks: &'a [MarkRecord],
    pub samples: &'a [PebsRecord],
}

/// Split the `(core, tsc)`-sorted streams into per-core shards covering
/// the union of cores present in either stream, in ascending core order.
pub(crate) fn shards_by_core<'a>(
    mut marks: &'a [MarkRecord],
    mut samples: &'a [PebsRecord],
) -> impl Iterator<Item = Shard<'a>> {
    std::iter::from_fn(move || {
        let core = match (marks.first(), samples.first()) {
            (Some(m), Some(s)) => m.core.min(s.core),
            (Some(m), None) => m.core,
            (None, Some(s)) => s.core,
            (None, None) => return None,
        };
        let (shard_marks, rest) = marks.split_at(marks.partition_point(|m| m.core <= core));
        marks = rest;
        let (shard_samples, rest) = samples.split_at(samples.partition_point(|s| s.core <= core));
        samples = rest;
        Some(Shard {
            core,
            marks: shard_marks,
            samples: shard_samples,
        })
    })
}

/// One shard's marks and samples, and its disjoint chunk of the output
/// columns.
struct Rows<'a> {
    marks: &'a [MarkRecord],
    samples: &'a [PebsRecord],
    core: &'a mut [u32],
    tsc: &'a mut [u64],
    item: &'a mut [u64],
    func: &'a mut [u32],
    span: &'a mut [u32],
}

impl Rows<'_> {
    /// Write the rows `range`: `core` and `tsc` from the sample,
    /// `(item, func, span)` from `attribute`, called once per sample in
    /// trace order.
    fn fill(
        &mut self,
        range: Range<usize>,
        mut attribute: impl FnMut(&PebsRecord) -> (u64, u32, u32),
    ) {
        let rows = self
            .samples
            .get(range.clone())
            .unwrap_or_default()
            .iter()
            .zip(self.core.get_mut(range.clone()).unwrap_or_default())
            .zip(self.tsc.get_mut(range.clone()).unwrap_or_default())
            .zip(self.item.get_mut(range.clone()).unwrap_or_default())
            .zip(self.func.get_mut(range.clone()).unwrap_or_default())
            .zip(self.span.get_mut(range).unwrap_or_default());
        for (((((s, core), tsc), item), func), span) in rows {
            *core = s.core.0;
            *tsc = s.tsc;
            (*item, *func, *span) = attribute(s);
        }
    }
}

/// Split the output columns into per-shard chunks. The shards partition
/// the sample array in order, so each shard takes the next rows of
/// every column.
fn chunk_rows<'a>(
    shards: &'a [Shard<'a>],
    cols: &'a mut SampleColumns,
) -> impl Iterator<Item = Rows<'a>> {
    let mut core = cols.core.as_mut_slice();
    let mut tsc = cols.tsc.as_mut_slice();
    let mut item = cols.item.as_mut_slice();
    let mut func = cols.func.as_mut_slice();
    let mut span = cols.span.as_mut_slice();
    shards.iter().map(move |sh| {
        let len = sh.samples.len().min(tsc.len());
        Rows {
            marks: sh.marks,
            samples: sh.samples,
            core: split_front(&mut core, len),
            tsc: split_front(&mut tsc, len),
            item: split_front(&mut item, len),
            func: split_front(&mut func, len),
            span: split_front(&mut span, len),
        }
    })
}

/// Split the first `len` rows off `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    front
}

/// Collapse the attributed rows into `(item, start, end)` runs sorted by
/// `(item, start)`. Runs are maximal: consecutive rows of the same item
/// form one range.
fn build_item_index(cols: &SampleColumns) -> Vec<(ItemId, u32, u32)> {
    let mut runs: Vec<(ItemId, u32, u32)> = Vec::new();
    for (i, &raw) in cols.item.iter().enumerate() {
        // The span column is read only for the rare `NO_ITEM` rows.
        if raw == NO_ITEM && cols.span.get(i).is_none_or(|&span| span == NO_SPAN) {
            continue;
        }
        let item = ItemId(raw);
        match runs.last_mut() {
            Some((run_item, _, end)) if *run_item == item && *end == i as u32 => {
                *end = i as u32 + 1;
            }
            _ => runs.push((item, i as u32, i as u32 + 1)),
        }
    }
    runs.sort_unstable_by_key(|&(item, start, _)| (item, start));
    runs
}

impl IntegratedTrace {
    /// Rows attributed to `item`, in trace order. Served from the
    /// per-item index: `O(log r + k)` for `k` matching rows instead of a
    /// full scan.
    pub fn rows_of_item(&self, item: ItemId) -> impl Iterator<Item = usize> + '_ {
        let lo = self
            .item_index
            .partition_point(|&(run_item, _, _)| run_item < item);
        self.item_index
            .get(lo..)
            .unwrap_or_default()
            .iter()
            .take_while(move |&&(run_item, _, _)| run_item == item)
            .flat_map(|&(_, start, end)| start as usize..end as usize)
    }

    /// Fraction of samples that were attributed to some item.
    pub fn attribution_ratio(&self) -> f64 {
        if self.cols.is_empty() {
            return 0.0;
        }
        let attributed: usize = self
            .item_index
            .iter()
            .map(|&(_, start, end)| (end - start) as usize)
            .sum();
        attributed as f64 / self.cols.len() as f64
    }

    /// All distinct items observed (from intervals in interval mode,
    /// from tags in register mode), in ascending id order.
    pub fn items(&self) -> Vec<ItemId> {
        let mut ids: Vec<ItemId> = match self.mode {
            MappingMode::Intervals => self.intervals.iter().map(|iv| iv.item).collect(),
            // The index is already sorted by item; dedup below collapses
            // an item's multiple runs.
            MappingMode::RegisterTag => self.item_index.iter().map(|&(item, _, _)| item).collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::estimate::EstimateTable;
    use fluctrace_cpu::{
        encode_tag, CoreId, FuncId, HwEvent, MarkKind, SymbolTableBuilder, VirtAddr,
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

    /// Both kernels on the default pool; asserts they agree.
    fn both(bundle: &TraceBundle, symtab: &SymbolTable, mode: MappingMode) -> IntegratedTrace {
        let it = integrate(bundle, symtab, Freq::ghz(3), mode);
        assert_eq!(integrate_soa(bundle, symtab, Freq::ghz(3), mode), it);
        it
    }

    /// A messy multi-core bundle: preemption, unknown IPs, gap samples,
    /// and on every core malformed marks (an orphan End, a mismatched
    /// End, a Start while another item is open, a zero-length item) and
    /// samples at a coincident End/Start tick; odd cores end with a Start
    /// left open.
    fn messy_bundle(symtab: &SymbolTable, f: FuncId, g: FuncId) -> TraceBundle {
        let ips = [symtab.range(f).start, symtab.range(g).start, VirtAddr(0x2)];
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
                // A gap sample between items (attributed to nothing).
                bundle.samples.push(sample(core, tsc + 3, ips[0], NO_TAG));
                tsc += 10;
                item += 1;
            }
            let mut at = |dt: u64| {
                tsc += dt;
                tsc
            };
            let s = |tsc: u64, k: usize, item: u64| {
                sample(core, tsc, ips[k % 3], encode_tag(ItemId(item)))
            };
            let (t0, t1, t2, t3) = (at(0), at(7), at(9), at(40));
            bundle.marks.extend([
                // An orphan End.
                mark(core, t0, 90, MarkKind::End),
                // A mismatched End.
                mark(core, t1, 91, MarkKind::Start),
                mark(core, t2, 92, MarkKind::End),
                // A Start while item 93 is open: 93 is abandoned.
                mark(core, t3, 93, MarkKind::Start),
            ]);
            bundle
                .samples
                .extend([s(t0, 0, 90), s(t1 + 1, 1, 91), s(t2, 2, 91), s(t3, 0, 93)]);
            let (t4, t5, t6) = (at(5), at(30), at(30));
            bundle.marks.extend([
                mark(core, t4, 94, MarkKind::Start),
                // Items 94 and 95 meet at t5, where two samples sit.
                mark(core, t5, 94, MarkKind::End),
                mark(core, t5, 95, MarkKind::Start),
                mark(core, t6, 95, MarkKind::End),
            ]);
            bundle.samples.extend([
                s(t3 + 2, 1, 93),
                s(t4, 2, 94),
                s(t4 + 9, 0, 94),
                s(t5, 1, 94),
                s(t5, 2, 94),
                s(t5 + 4, 0, 95),
                s(t6, 1, 95),
            ]);
            // A zero-length item: its marks sort End first, so it is an
            // orphan End and then a Start that the next Start abandons.
            let t7 = at(6);
            bundle.marks.extend([
                mark(core, t7, 96, MarkKind::Start),
                mark(core, t7, 96, MarkKind::End),
            ]);
            bundle.samples.push(s(t7, 2, 96));
            let t8 = at(11);
            bundle.marks.push(mark(core, t8, 97, MarkKind::Start));
            bundle.samples.push(s(t8 + 1, 0, 97));
            if core % 2 == 0 {
                let t9 = at(20);
                bundle.marks.push(mark(core, t9, 97, MarkKind::End));
                bundle.samples.push(s(t9 + 2, 1, 97));
            }
        }
        bundle.sort();
        bundle
    }

    #[test]
    fn interval_mode_attribution() {
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 100, 1, MarkKind::Start),
            mark(0, 200, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 50, f_ip, NO_TAG),           // before the item
            sample(0, 150, f_ip, NO_TAG),          // inside
            sample(0, 160, VirtAddr(0x1), NO_TAG), // inside, unknown IP
            sample(0, 250, f_ip, NO_TAG),          // after
        ];
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::Intervals);
        assert!(it.errors.is_empty());
        assert_eq!(it.cols.item, vec![NO_ITEM, 1, 1, NO_ITEM]);
        assert_eq!(it.cols.span, vec![NO_SPAN, 0, 0, NO_SPAN]);
        assert_eq!(it.cols.func, vec![f.0, f.0, NO_FUNC, f.0]);
        let items: Vec<_> = (0..4).map(|row| it.cols.item_at(row)).collect();
        assert_eq!(items, [None, Some(ItemId(1)), Some(ItemId(1)), None]);
        assert_eq!(it.attribution_ratio(), 0.5);
        assert_eq!(it.items(), vec![ItemId(1)]);
    }

    #[test]
    fn cross_core_samples_do_not_leak() {
        // A sample on core 1 whose tsc falls inside core 0's interval
        // must not be attributed (the paper's mapping is per-core).
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 100, 1, MarkKind::Start),
            mark(0, 200, 1, MarkKind::End),
        ];
        bundle.samples = vec![sample(1, 150, f_ip, NO_TAG)];
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::Intervals);
        assert_eq!(it.cols.item_at(0), None);
    }

    #[test]
    fn register_tag_mode_ignores_intervals() {
        let (symtab, f, _) = setup();
        let f_ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        // No marks at all — timer-switching without scheduler logging.
        bundle.samples = vec![
            sample(0, 10, f_ip, encode_tag(ItemId(5))),
            sample(0, 20, f_ip, NO_TAG),
            sample(0, 30, f_ip, encode_tag(ItemId(6))),
        ];
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::RegisterTag);
        assert_eq!(it.cols.item, vec![5, NO_ITEM, 6]);
        assert_eq!(it.cols.span, vec![NO_SPAN; 3]);
        assert_eq!(it.items(), vec![ItemId(5), ItemId(6)]);
    }

    #[test]
    fn reserved_item_id_is_attributed_without_a_fallback() {
        // An interval may claim item u64::MAX, the NO_ITEM value: its
        // rows are attributed by their span, in both kernels, and both
        // estimator entry points see the item.
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, u64::MAX, MarkKind::Start),
                mark(0, 200, u64::MAX, MarkKind::End),
            ],
            samples: vec![
                sample(0, 50, ip, NO_TAG),
                sample(0, 150, ip, NO_TAG),
                sample(0, 170, ip, NO_TAG),
            ],
        };
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::Intervals);
        assert_eq!(it.cols.item, vec![NO_ITEM; 3]);
        assert_eq!(it.cols.span, vec![NO_SPAN, 0, 0]);
        assert_eq!(it.cols.item_at(0), None);
        assert_eq!(it.cols.item_at(1), Some(ItemId(u64::MAX)));
        assert_eq!(
            it.rows_of_item(ItemId(u64::MAX)).collect::<Vec<_>>(),
            [1, 2]
        );
        let table = EstimateTable::from_integrated(&it);
        assert_eq!(EstimateTable::from_soa(&it), table);
        let fe = table
            .get(ItemId(u64::MAX), f)
            .expect("the reserved id is estimated");
        assert_eq!((fe.samples, table.samples_missing_span), (2, 0));
    }

    #[test]
    fn rows_of_item_collects_scattered_runs() {
        // Item 1 occupies two intervals separated by item 2, plus an
        // appearance on a second core: three distinct index runs.
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            mark(0, 0, 1, MarkKind::Start),
            mark(0, 100, 1, MarkKind::End),
            mark(0, 200, 2, MarkKind::Start),
            mark(0, 300, 2, MarkKind::End),
            mark(0, 400, 1, MarkKind::Start),
            mark(0, 500, 1, MarkKind::End),
            mark(1, 0, 1, MarkKind::Start),
            mark(1, 100, 1, MarkKind::End),
        ];
        bundle.samples = vec![
            sample(0, 10, ip, NO_TAG),
            sample(0, 50, ip, NO_TAG),
            sample(0, 250, ip, NO_TAG),
            sample(0, 450, ip, NO_TAG),
            sample(1, 50, ip, NO_TAG),
        ];
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::Intervals);
        let item1: Vec<u64> = it.rows_of_item(ItemId(1)).map(|r| it.cols.tsc[r]).collect();
        assert_eq!(item1, vec![10, 50, 450, 50], "core 0 runs then core 1");
        assert_eq!(it.rows_of_item(ItemId(2)).count(), 1);
        assert_eq!(it.rows_of_item(ItemId(9)).count(), 0);
        assert_eq!(it.attribution_ratio(), 1.0);
    }

    #[test]
    fn kernels_agree_in_both_modes_at_every_thread_count() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
            let reference = integrate_with_threads(&bundle, &symtab, Freq::ghz(3), mode, 1);
            assert!(reference.attribution_ratio() > 0.5, "mode {mode:?}");
            // The fixture meets every kind of malformed mark.
            let kinds: Vec<_> = reference
                .errors
                .iter()
                .map(std::mem::discriminant)
                .collect();
            for want in [
                IntervalError::OrphanEnd {
                    core: CoreId(0),
                    item: ItemId(0),
                    tsc: 0,
                },
                IntervalError::UnclosedStart {
                    core: CoreId(0),
                    item: ItemId(0),
                    tsc: 0,
                },
                IntervalError::Mismatched {
                    core: CoreId(0),
                    started: ItemId(0),
                    ended: ItemId(0),
                },
                IntervalError::TruncatedStart {
                    core: CoreId(0),
                    item: ItemId(0),
                },
            ] {
                assert!(kinds.contains(&std::mem::discriminant(&want)), "{want:?}");
            }
            for threads in [1, 2, 3, 8] {
                let freq = Freq::ghz(3);
                let it = integrate_with_threads(&bundle, &symtab, freq, mode, threads);
                assert_eq!(it, reference, "reference, threads={threads} {mode:?}");
                let soa = integrate_soa_with_threads(&bundle, &symtab, freq, mode, threads);
                assert_eq!(soa, reference, "production, threads={threads} {mode:?}");
            }
        }
    }

    #[test]
    fn memoized_resolve_matches_binary_search() {
        // Long same-function runs (memo hits) mixed with padding-gap IPs
        // (memo misses that must not poison later hits).
        let mut b = SymbolTableBuilder::new();
        let ids: Vec<FuncId> = (0..16).map(|i| b.add(&format!("fn{i}"), 100)).collect();
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        let mut tsc = 0u64;
        for &id in &ids {
            for off in 0..5u64 {
                bundle
                    .samples
                    .push(sample(0, tsc, symtab.range(id).start.offset(off), NO_TAG));
                tsc += 3;
            }
            // Padding byte just past the function body (sizes are 100,
            // padded to 112).
            bundle
                .samples
                .push(sample(0, tsc, symtab.range(id).start.offset(105), NO_TAG));
            tsc += 3;
        }
        bundle.sort();
        let it = both(&bundle, &symtab, MappingMode::Intervals);
        for (i, (&func, s)) in it.cols.func.iter().zip(&bundle.samples).enumerate() {
            let want = symtab.resolve(s.ip).map_or(NO_FUNC, |f| f.0);
            assert_eq!(func, want, "row {i}");
        }
    }

    #[test]
    fn empty_bundle_is_empty_trace() {
        let (symtab, _, _) = setup();
        let it = both(&TraceBundle::default(), &symtab, MappingMode::Intervals);
        assert!(it.cols.is_empty());
        assert_eq!(it.attribution_ratio(), 0.0);
    }

    /// Up to four sparse cores, each a random run of Starts, Ends and
    /// samples over few items and small tsc steps: orphan and mismatched
    /// Ends, abandoned and truncated Starts, zero-length items, and
    /// samples at coincident End/Start ticks all turn up.
    fn random_bundle(seed: u64, symtab: &SymbolTable, f: FuncId, g: FuncId) -> TraceBundle {
        let ips = [symtab.range(f).start, symtab.range(g).start, VirtAddr(0x2)];
        let mut rng = fluctrace_sim::Rng::new(seed);
        let mut bundle = TraceBundle::default();
        for core in [0, 1, 5, u32::MAX] {
            if rng.gen_below(4) == 0 {
                continue;
            }
            let mut tsc = rng.gen_below(1 << 20);
            for _ in 0..rng.gen_below(60) {
                tsc += rng.gen_below(3);
                let item = rng.gen_below(4);
                match rng.gen_below(10) {
                    0..=2 => bundle.marks.push(mark(core, tsc, item, MarkKind::Start)),
                    3..=5 => bundle.marks.push(mark(core, tsc, item, MarkKind::End)),
                    _ => {
                        let ip = ips[rng.gen_below(3) as usize];
                        let r13 = [NO_TAG, encode_tag(ItemId(item))][rng.gen_below(2) as usize];
                        bundle.samples.push(sample(core, tsc, ip, r13));
                    }
                }
            }
        }
        bundle.sort();
        bundle
    }

    /// `bundle` cut into time-ordered batches at random ticks: every
    /// record of one tick lands in the same batch.
    fn cut_at_random_ticks(bundle: &TraceBundle, rng: &mut fluctrace_sim::Rng) -> Vec<TraceBundle> {
        let mut ticks: Vec<u64> = bundle.marks.iter().map(|m| m.tsc).collect();
        ticks.extend(bundle.samples.iter().map(|s| s.tsc));
        ticks.sort_unstable();
        ticks.dedup();
        let mut cuts: Vec<u64> = ticks
            .into_iter()
            .filter(|_| rng.gen_below(8) == 0)
            .collect();
        cuts.push(u64::MAX);
        let batch_of = |tsc: u64| cuts.partition_point(|&cut| cut <= tsc);
        let mut batches = vec![TraceBundle::default(); cuts.len() + 1];
        for &m in &bundle.marks {
            batches[batch_of(m.tsc)].marks.push(m);
        }
        for &s in &bundle.samples {
            batches[batch_of(s.tsc)].samples.push(s);
        }
        batches
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::cases_from_env(256))]

        /// The windowed integrator's exact cumulative table and the batch
        /// table come out of one span fold and one assembly: fed the
        /// bundle as one batch or cut at random ticks, at any window
        /// size, it renders the batch table byte for byte.
        #[test]
        fn one_assembly_gives_one_table(seed in proptest::prelude::any::<u64>()) {
            use crate::window::{CumulativeMode, WindowConfig, WindowedIntegrator};
            let (symtab, f, g) = setup();
            let bundle = random_bundle(seed, &symtab, f, g);
            let freq = Freq::ghz(3);
            let soa = integrate_soa(&bundle, &symtab, freq, MappingMode::Intervals);
            let batch = EstimateTable::from_integrated(&soa);
            let want = serde_json::to_string(&batch).expect("the table renders");
            let symtab = symtab.into_shared();
            let mut rng = fluctrace_sim::Rng::new(!seed);
            for batches in [vec![bundle.clone()], cut_at_random_ticks(&bundle, &mut rng)] {
                let mut config = WindowConfig::new(freq);
                config.window_items = 1 + rng.gen_below(4);
                config.max_windows = 2;
                config.cumulative = CumulativeMode::Exact;
                let mut wi = WindowedIntegrator::new(std::sync::Arc::clone(&symtab), config);
                for b in batches {
                    wi.ingest(b);
                }
                let got = wi.cumulative_table().expect("exact mode");
                let json = serde_json::to_string(&got).expect("the table renders");
                proptest::prop_assert_eq!(&json, &want, "seed {}", seed);
                proptest::prop_assert_eq!(&got, &batch, "seed {}", seed);
            }
        }

        #[test]
        fn kernels_agree_on_random_bundles(seed in proptest::prelude::any::<u64>()) {
            let (symtab, f, g) = setup();
            let bundle = random_bundle(seed, &symtab, f, g);
            for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
                let reference = integrate_with_threads(&bundle, &symtab, Freq::ghz(3), mode, 1);
                for threads in [1, 3] {
                    let soa = integrate_soa_with_threads(&bundle, &symtab, Freq::ghz(3), mode, threads);
                    proptest::prop_assert_eq!(&soa, &reference, "seed {} threads {} {:?}", seed, threads, mode);
                }
            }
        }
    }
}
