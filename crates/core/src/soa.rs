//! Structure-of-arrays fast path for the integrate→estimate hot
//! pipeline.
//!
//! The AoS path ([`crate::integrate`]) materializes a 48-byte
//! [`AttributedSample`] per sample, with three `Option` discriminants
//! that every downstream loop re-branches on. At the sample rates the
//! paper targets (hundreds of thousands of samples per second of traced
//! execution, §IV.C.3) the analysis pipeline itself becomes the
//! bottleneck, so this module keeps the *same attribution semantics* in
//! columnar form:
//!
//! * one column per field (`core`/`tsc`/`item`/`func`/`span`), with
//!   sentinel values ([`NO_ITEM`], [`NO_FUNC`], [`NO_SPAN`]) instead of
//!   `Option` — ~28 bytes per sample, no discriminants, and each kernel
//!   loop touches only the columns it needs;
//! * output columns are allocated once and split into per-shard chunks
//!   ([`crate::parallel::run_parts`]), so the parallel merge writes
//!   straight into its final location — no per-shard `Vec` + splice;
//! * symbol resolution memoizes the last hit: consecutive samples
//!   usually land in the same function, turning the per-sample binary
//!   search into a single range check.
//!
//! Correctness is anchored two ways: [`SoaTrace::to_integrated`] must
//! round-trip to the AoS trace bit for bit (unit + conformance tests),
//! and [`crate::EstimateTable::from_soa`] must equal `from_integrated`
//! and the PR 4 oracle byte for byte (the 240-seed differential sweep).
//! Speed is the benchmark's `analyze_wide` workload; its `--compare`
//! also drives `git bisect` to the commit that slowed it (EXPERIMENTS.md,
//! "Finding the commit").
//!
//! ## Sentinel safety
//!
//! `NO_ITEM` is `u64::MAX`. Register-tag decoding can never produce it
//! (`decode_tag` yields `r13 − 1` with `r13 ≠ 0`), and interval mode
//! checks the reconstructed intervals up front: if any interval carries
//! the reserved id — possible only from a hand-built mark stream — the
//! builder falls back to the AoS path and converts, trading speed for
//! unconditional correctness. `NO_FUNC`/`NO_SPAN` are `u32::MAX`; both
//! would require ~4 billion functions or intervals, a ceiling the AoS
//! path already shares (`interval_idx` is `u32` there too).

use crate::integrate::{
    build_item_index, build_shard_intervals, integrate_with_threads, record_integrate_obs,
    AttributedSample, IntegratedTrace, MappingMode, Phase1,
};
use crate::interval::{IntervalError, ItemInterval};
use crate::parallel;
use fluctrace_cpu::{
    AddrRange, CoreId, FuncId, ItemId, PebsRecord, SymbolTable, TraceBundle, NO_TAG,
};
use fluctrace_obs as obs;
use fluctrace_sim::Freq;

/// Sentinel in the `item` column: sample outside every interval / tag.
pub const NO_ITEM: u64 = u64::MAX;
/// Sentinel in the `func` column: IP outside every known function.
pub const NO_FUNC: u32 = u32::MAX;
/// Sentinel in the `span` column: no interval index (gap sample, or
/// register-tag mode where spans are run ids computed by the estimator).
pub const NO_SPAN: u32 = u32::MAX;

/// The attributed sample columns. All vectors have equal length; row
/// `i` of every column describes the same sample, in `(core, tsc)`
/// order — the same order the AoS path stores.
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

    /// Zero-filled columns of length `n`, ready for chunked writes.
    fn zeroed(n: usize) -> Self {
        SampleColumns {
            core: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            tsc: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            item: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            func: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
            span: vec![0; n], // lint:allow(hot-path-alloc): one-time transpose-time column allocation, not per sample
        }
    }
}

/// The columnar integrated trace: what [`IntegratedTrace`] holds, with
/// the sample rows transposed into [`SampleColumns`].
#[derive(Debug, Clone)]
pub struct SoaTrace {
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
    /// Per-item `(item, start, end)` sample ranges, as in the AoS trace.
    pub(crate) item_index: Vec<(ItemId, u32, u32)>,
    /// The reserved-id escape hatch: when a trace actually uses item
    /// `u64::MAX` the columns cannot represent it (it collides with
    /// [`NO_ITEM`]), so the full AoS trace is kept and the estimator /
    /// round-trip delegate to it. `None` on every realistic trace.
    pub(crate) aos_fallback: Option<Box<IntegratedTrace>>,
}

/// [`crate::integrate`]'s columnar twin: same inputs, same attribution,
/// columnar output. Pool size from `FLUCTRACE_THREADS`, sequential for
/// tiny bundles.
pub fn integrate_soa(
    bundle: &TraceBundle,
    symtab: &SymbolTable,
    freq: Freq,
    mode: MappingMode,
) -> SoaTrace {
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
) -> SoaTrace {
    let threads = threads.max(1);
    obs::span!("soa.integrate.run", threads);

    // Phase 1 is the AoS path's, under this kernel's span name.
    let Phase1 {
        shards,
        intervals,
        errors,
        shard_bounds,
    } = build_shard_intervals(bundle, threads, "soa.integrate.shard");

    // Interval bound columns for the branch-light sweep, plus the
    // sentinel-collision check (see module docs).
    let mut iv_start: Vec<u64> = Vec::with_capacity(intervals.len());
    let mut iv_end: Vec<u64> = Vec::with_capacity(intervals.len());
    let mut iv_item: Vec<u64> = Vec::with_capacity(intervals.len());
    let mut reserved_id = false;
    for iv in &intervals {
        iv_start.push(iv.start_tsc);
        iv_end.push(iv.end_tsc);
        iv_item.push(iv.item.0);
        reserved_id |= iv.item.0 == NO_ITEM;
    }
    if reserved_id && mode == MappingMode::Intervals {
        // An interval claims the reserved id: encode via the AoS path
        // instead (correctness over speed; counted for observability).
        if obs::recording() {
            obs::counter!("core.soa.fallbacks").inc();
        }
        return SoaTrace::from_integrated(&integrate_with_threads(
            bundle, symtab, freq, mode, threads,
        ));
    }

    // Phase 2 — attribution straight into pre-allocated columns. Each
    // shard's chunk is a disjoint split of the output, so workers write
    // their final bytes with no copy or splice afterwards.
    let n = bundle.samples.len();
    let mut cols = SampleColumns::zeroed(n);
    let tasks = chunk_tasks(
        &shards,
        &shard_bounds,
        &iv_start,
        &iv_end,
        &iv_item,
        &mut cols,
    );
    parallel::run_parts(tasks, threads, |shard_idx, task| {
        obs::span!("soa.integrate.attribute", shard_idx);
        attribute_columns(task, symtab, mode);
    });
    let item_index = build_item_index_cols(&cols.item);

    // The same deterministic volumes the AoS path records, plus the
    // soa-specific counters.
    record_integrate_obs(&shards, &intervals, &errors);
    if obs::recording() {
        obs::counter!("core.soa.runs").inc();
        obs::counter!("core.soa.samples").add(n as u64);
    }

    SoaTrace {
        cols,
        intervals,
        errors,
        freq,
        mode,
        item_index,
        aos_fallback: None,
    }
}

/// One shard's borrowed inputs plus its disjoint output chunk.
struct AttrTask<'a> {
    samples: &'a [PebsRecord],
    iv_start: &'a [u64],
    iv_end: &'a [u64],
    iv_item: &'a [u64],
    base: u32,
    out_core: &'a mut [u32],
    out_tsc: &'a mut [u64],
    out_item: &'a mut [u64],
    out_func: &'a mut [u32],
    out_span: &'a mut [u32],
}

/// Split the output columns into per-shard chunks. The shards partition
/// the sample array in order, so `split_at_mut` walks cleanly through
/// each column; the per-shard interval sub-slices come from the same
/// `shard_bounds` the AoS path uses.
fn chunk_tasks<'a>(
    shards: &[crate::integrate::Shard<'a>],
    shard_bounds: &[(usize, usize)],
    iv_start: &'a [u64],
    iv_end: &'a [u64],
    iv_item: &'a [u64],
    cols: &'a mut SampleColumns,
) -> Vec<AttrTask<'a>> {
    let mut rest_core = cols.core.as_mut_slice();
    let mut rest_tsc = cols.tsc.as_mut_slice();
    let mut rest_item = cols.item.as_mut_slice();
    let mut rest_func = cols.func.as_mut_slice();
    let mut rest_span = cols.span.as_mut_slice();
    let mut tasks = Vec::with_capacity(shards.len());
    for (shard_idx, sh) in shards.iter().enumerate() {
        let len = sh.samples.len().min(rest_tsc.len());
        let (out_core, rc) = rest_core.split_at_mut(len);
        let (out_tsc, rt) = rest_tsc.split_at_mut(len);
        let (out_item, ri) = rest_item.split_at_mut(len);
        let (out_func, rf) = rest_func.split_at_mut(len);
        let (out_span, rs) = rest_span.split_at_mut(len);
        rest_core = rc;
        rest_tsc = rt;
        rest_item = ri;
        rest_func = rf;
        rest_span = rs;
        let (base, ivs) = shard_bounds.get(shard_idx).copied().unwrap_or((0, 0));
        tasks.push(AttrTask {
            samples: sh.samples,
            iv_start: iv_start.get(base..base + ivs).unwrap_or_default(),
            iv_end: iv_end.get(base..base + ivs).unwrap_or_default(),
            iv_item: iv_item.get(base..base + ivs).unwrap_or_default(),
            base: base as u32,
            out_core,
            out_tsc,
            out_item,
            out_func,
            out_span,
        });
    }
    tasks
}

/// Attribute one shard's samples into its output chunk.
///
/// The interval cursor is the same incremental `partition_point` the
/// AoS path advances ("how many intervals start at or before this
/// timestamp"); function resolution checks the previously-hit range
/// before falling back to the symbol-table binary search — consecutive
/// samples overwhelmingly share a function, so the common case is one
/// compare instead of `O(log f)`.
fn attribute_columns(task: AttrTask<'_>, symtab: &SymbolTable, mode: MappingMode) {
    let AttrTask {
        samples,
        iv_start,
        iv_end,
        iv_item,
        base,
        out_core,
        out_tsc,
        out_item,
        out_func,
        out_span,
    } = task;
    let mut started = 0usize; // intervals with start_tsc <= current tsc
    let mut memo: Option<(u32, AddrRange)> = None;
    let rows = samples
        .iter()
        .zip(out_core.iter_mut())
        .zip(out_tsc.iter_mut())
        .zip(out_item.iter_mut())
        .zip(out_func.iter_mut())
        .zip(out_span.iter_mut());
    for (((((s, core), tsc), item), func), span) in rows {
        *core = s.core.0;
        *tsc = s.tsc;
        let (it, sp) = match mode {
            MappingMode::Intervals => {
                while iv_start.get(started).is_some_and(|&st| st <= s.tsc) {
                    started += 1;
                }
                // Candidate = latest-starting interval; `started == 0`
                // wraps to usize::MAX and both `get`s miss.
                let cand = started.wrapping_sub(1);
                match (iv_item.get(cand), iv_end.get(cand)) {
                    (Some(&iv_it), Some(&end)) if s.tsc <= end => {
                        (iv_it, base.wrapping_add(cand as u32))
                    }
                    _ => (NO_ITEM, NO_SPAN),
                }
            }
            MappingMode::RegisterTag => {
                if s.r13 == NO_TAG {
                    (NO_ITEM, NO_SPAN)
                } else {
                    // decode_tag's `ItemId(r13 - 1)` in sentinel form;
                    // r13 ≠ 0 here, so this cannot yield NO_ITEM.
                    (s.r13.wrapping_sub(1), NO_SPAN)
                }
            }
        };
        *item = it;
        *span = sp;
        *func = match memo {
            Some((f, range)) if range.contains(s.ip) => f,
            _ => match symtab.resolve(s.ip) {
                Some(f) => {
                    memo = Some((f.0, symtab.range(f)));
                    f.0
                }
                None => NO_FUNC,
            },
        };
    }
}

/// Columnar twin of [`crate::integrate::build_item_index`]: maximal
/// same-item runs over the `item` column, sorted by `(item, start)`.
fn build_item_index_cols(items: &[u64]) -> Vec<(ItemId, u32, u32)> {
    let mut runs: Vec<(ItemId, u32, u32)> = Vec::new();
    for (i, &raw) in items.iter().enumerate() {
        if raw == NO_ITEM {
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

impl SoaTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Fraction of samples attributed to some item (as in
    /// [`IntegratedTrace::attribution_ratio`]).
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

    /// Transpose back into the AoS [`IntegratedTrace`]. Bit-identical to
    /// running [`crate::integrate`] on the same bundle — the round-trip
    /// is one of the fast path's correctness anchors.
    pub fn to_integrated(&self) -> IntegratedTrace {
        if let Some(aos) = &self.aos_fallback {
            return (**aos).clone();
        }
        let rows = self
            .cols
            .core
            .iter()
            .zip(&self.cols.tsc)
            .zip(&self.cols.item)
            .zip(&self.cols.func)
            .zip(&self.cols.span);
        let samples: Vec<AttributedSample> = rows
            .map(
                |((((&core, &tsc), &item), &func), &span)| AttributedSample {
                    core: CoreId(core),
                    tsc,
                    item: (item != NO_ITEM).then_some(ItemId(item)),
                    func: (func != NO_FUNC).then_some(FuncId(func)),
                    interval_idx: (span != NO_SPAN).then_some(span),
                },
            )
            .collect();
        IntegratedTrace {
            samples,
            intervals: self.intervals.clone(),
            errors: self.errors.clone(),
            freq: self.freq,
            mode: self.mode,
            item_index: self.item_index.clone(),
        }
    }

    /// Transpose an AoS trace into columns (sentinel encoding). Used by
    /// the reserved-id fallback.
    pub fn from_integrated(it: &IntegratedTrace) -> SoaTrace {
        let n = it.samples.len();
        let mut cols = SampleColumns {
            core: Vec::with_capacity(n),
            tsc: Vec::with_capacity(n),
            item: Vec::with_capacity(n),
            func: Vec::with_capacity(n),
            span: Vec::with_capacity(n),
        };
        let mut reserved_id = false;
        for s in &it.samples {
            cols.core.push(s.core.0);
            cols.tsc.push(s.tsc);
            cols.item.push(s.item.map_or(NO_ITEM, |i| i.0));
            cols.func.push(s.func.map_or(NO_FUNC, |f| f.0));
            cols.span.push(s.interval_idx.unwrap_or(NO_SPAN));
            reserved_id |= s.item == Some(ItemId(NO_ITEM));
        }
        SoaTrace {
            cols,
            intervals: it.intervals.clone(),
            errors: it.errors.clone(),
            freq: it.freq,
            mode: it.mode,
            item_index: build_item_index(&it.samples),
            // lint:allow(hot-path-alloc): rare-path fallback built once per transpose when a reserved id is present, not per sample
            aos_fallback: reserved_id.then(|| Box::new(it.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::integrate;
    use fluctrace_cpu::{encode_tag, HwEvent, MarkKind, MarkRecord, SymbolTableBuilder, VirtAddr};

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

    /// A messy multi-core bundle: preemption, unknown IPs, gap samples.
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
                bundle.samples.push(sample(core, tsc + 3, ips[0], NO_TAG));
                tsc += 10;
                item += 1;
            }
        }
        bundle.sort();
        bundle
    }

    #[test]
    fn roundtrip_matches_aos_both_modes() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
            let aos = integrate(&bundle, &symtab, Freq::ghz(3), mode);
            let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), mode);
            assert_eq!(soa.to_integrated(), aos, "mode {mode:?}");
            assert_eq!(soa.attribution_ratio(), aos.attribution_ratio());
        }
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        let reference =
            integrate_soa_with_threads(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals, 1);
        for threads in [2, 3, 8] {
            let soa = integrate_soa_with_threads(
                &bundle,
                &symtab,
                Freq::ghz(3),
                MappingMode::Intervals,
                threads,
            );
            assert_eq!(soa.cols, reference.cols, "threads={threads}");
            assert_eq!(soa.intervals, reference.intervals);
            assert_eq!(soa.errors, reference.errors);
            assert_eq!(soa.item_index, reference.item_index);
        }
    }

    #[test]
    fn from_integrated_equals_direct_build() {
        let (symtab, f, g) = setup();
        let bundle = messy_bundle(&symtab, f, g);
        let aos = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let direct = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let converted = SoaTrace::from_integrated(&aos);
        assert_eq!(direct.cols, converted.cols);
        assert_eq!(direct.item_index, converted.item_index);
    }

    #[test]
    fn sentinels_appear_for_gap_and_unknown_samples() {
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, 1, MarkKind::Start),
                mark(0, 200, 1, MarkKind::End),
            ],
            samples: vec![
                sample(0, 50, ip, NO_TAG),             // before the interval
                sample(0, 150, ip, NO_TAG),            // inside
                sample(0, 160, VirtAddr(0x1), NO_TAG), // inside, unknown IP
                sample(0, 250, ip, NO_TAG),            // after
            ],
        };
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(soa.cols.item, vec![NO_ITEM, 1, 1, NO_ITEM]);
        assert_eq!(soa.cols.span, vec![NO_SPAN, 0, 0, NO_SPAN]);
        assert_eq!(soa.cols.func, vec![f.0, f.0, NO_FUNC, f.0]);
        assert_eq!(soa.len(), 4);
        assert!(!soa.is_empty());
    }

    #[test]
    fn reserved_item_id_falls_back_to_aos_path() {
        // A hand-built mark stream can claim item u64::MAX, which
        // collides with the NO_ITEM sentinel; the builder must detect it
        // and still produce correct attribution via the fallback.
        let (symtab, f, _) = setup();
        let ip = symtab.range(f).start;
        let mut bundle = TraceBundle {
            marks: vec![
                mark(0, 100, u64::MAX, MarkKind::Start),
                mark(0, 200, u64::MAX, MarkKind::End),
            ],
            samples: vec![sample(0, 150, ip, NO_TAG)],
        };
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let aos = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        assert_eq!(soa.to_integrated().samples, aos.samples);
        assert_eq!(
            aos.samples[0].item,
            Some(ItemId(u64::MAX)),
            "fallback keeps the reserved id attributable"
        );
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
        for (k, &id) in ids.iter().enumerate() {
            for off in 0..5u64 {
                bundle
                    .samples
                    .push(sample(0, tsc, symtab.range(id).start.offset(off), NO_TAG));
                tsc += 3;
            }
            // Padding byte just past the function body (unless it abuts
            // the next one — sizes are 100, padded to 112).
            let _ = k;
            bundle
                .samples
                .push(sample(0, tsc, symtab.range(id).start.offset(105), NO_TAG));
            tsc += 3;
        }
        bundle.sort();
        let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        for (i, (&func, s)) in soa.cols.func.iter().zip(&bundle.samples).enumerate() {
            let want = symtab.resolve(s.ip).map_or(NO_FUNC, |f| f.0);
            assert_eq!(func, want, "row {i}");
        }
    }

    #[test]
    fn empty_bundle_is_empty_trace() {
        let (symtab, _, _) = setup();
        let soa = integrate_soa(
            &TraceBundle::default(),
            &symtab,
            Freq::ghz(3),
            MappingMode::Intervals,
        );
        assert!(soa.is_empty());
        assert_eq!(soa.attribution_ratio(), 0.0);
        assert!(soa.to_integrated().samples.is_empty());
    }
}
