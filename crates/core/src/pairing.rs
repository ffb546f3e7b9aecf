//! The paper's integration rule — a sample belongs to the item whose
//! mark interval on its core contains its timestamp (§III.D) — as one
//! per-core walk, and the streaming fold that applies it as the stream
//! arrives (§IV.C.3).
//!
//! [`walk`] is the production kernel's one implementation of the rule:
//! batch integration (`integrate_soa`) runs it once per core over the
//! whole trace, and [`Pairing`] runs it over each batch, carrying a
//! core's open Start and its unfinished samples to the next batch. It
//! places each mark in its core's samples by galloping forward from the
//! previous mark's place, runs the Start/End state machine, and reports
//! every mark with the rows since the one before it: a completed
//! interval with its rows, or a malformed mark as an [`IntervalError`].
//! The bounds are inclusive, and a sample at an End's tick is the End's:
//! at a coincident End/Start tick the closing item owns it, and after a
//! malformed End no item does — the one tie rule a stream can apply
//! without looking past a batch cut. The reference kernel
//! (`integrate()`, `interval::build_intervals`) and the conformance
//! oracle stay separate: they are what this is checked against.
//!
//! The online worker and the windowed integrator both drive [`Pairing`]
//! and differ only in the closure that receives each completed item. An
//! item whose Start and End both arrived in the batch is folded where it
//! lies in the batch — no sample is copied and nothing is allocated per
//! item. Only a core's samples after its last mark are copied, into the
//! core's `pending` buffer, as the carry to the next batch; that buffer
//! is cleared and kept, never handed over. No tree is touched per sample
//! or per item: per-core state is a short sorted `Vec`, symbol lookup is
//! memoized on the last function's address range, and the divergence
//! baselines are dense over the symbol table. A completed item's
//! interval is one span: its contained, resolved samples go through the
//! batch estimator's span fold (`estimate::SpanFold`) into scratch kept
//! across items, so the streaming and batch estimates share one fold and
//! one span form.

use crate::estimate::{FuncSpan, SpanFold};
use crate::integrate::shards_by_core;
use crate::interval::{IntervalError, ItemInterval};
use fluctrace_cpu::{
    AddrRange, CoreId, FuncId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, TraceBundle,
    VirtAddr,
};
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// What one mark did, as [`walk`] reports it with the rows since the
/// mark before it.
pub(crate) enum Step {
    /// A Start with no item open: the rows were inter-item spin.
    Opened,
    /// An End closed the open item: the rows are its samples in this
    /// walk (all of them, unless its Start came in an earlier batch).
    Closed(ItemInterval),
    /// A malformed mark. The rows were the open item's, discarded with
    /// it (`UnclosedStart`, `Mismatched`), or spin (`OrphanEnd`).
    Malformed(IntervalError),
}

/// Walk one core's marks over its `tsc`-sorted samples, from the open
/// Start `open` (updated in place), calling `on_mark` with each mark's
/// rows and [`Step`]. Returns where the rows after the last mark begin.
///
/// A Start takes effect before a coincident sample and an End after it,
/// so samples at either mark's tsc belong to the item, and a mark never
/// takes effect before the one ahead of it. Marks at one tsc sort End
/// first, so where an End sits at a sample's tick the End takes the
/// sample — its closing item owns it, a malformed End gives it up — and
/// a Start at that tick opens after it.
pub(crate) fn walk(
    open: &mut Option<(ItemId, u64)>,
    marks: &[MarkRecord],
    samples: &[PebsRecord],
    mut on_mark: impl FnMut(Range<usize>, Step),
) -> usize {
    let mut at = 0;
    for m in marks {
        let (core, tsc, item, kind) = (m.core, m.tsc, m.item, m.kind);
        let rest = samples.get(at..).unwrap_or_default();
        let due = at + gallop(rest, |t| t < tsc || (t == tsc && kind == MarkKind::End));
        let step = match kind {
            MarkKind::Start => match open.replace((item, tsc)) {
                None => Step::Opened,
                Some((item, tsc)) => {
                    Step::Malformed(IntervalError::UnclosedStart { core, item, tsc })
                }
            },
            MarkKind::End => match open.take() {
                Some((started, start_tsc)) if started == item => Step::Closed(ItemInterval {
                    core,
                    item,
                    start_tsc,
                    end_tsc: tsc,
                }),
                Some((started, _)) => Step::Malformed(IntervalError::Mismatched {
                    core,
                    started,
                    ended: item,
                }),
                None => Step::Malformed(IntervalError::OrphanEnd { core, item, tsc }),
            },
        };
        on_mark(at..due, step);
        at = due;
    }
    at
}

/// One core's intervals and errors: [`walk`] over its marks alone, the
/// production counterpart of the reference `build_intervals`.
pub(crate) fn pair_marks(marks: &[MarkRecord]) -> (Vec<ItemInterval>, Vec<IntervalError>) {
    let (mut ivs, mut errs, mut open) = (Vec::with_capacity(marks.len() / 2), Vec::new(), None);
    walk(&mut open, marks, &[], |_, step| match step {
        Step::Closed(iv) => ivs.push(iv),
        Step::Malformed(error) => errs.push(error),
        Step::Opened => {}
    });
    if let (Some((item, _)), Some(m)) = (open, marks.first()) {
        errs.push(IntervalError::TruncatedStart { core: m.core, item });
    }
    (ivs, errs)
}

/// `rest.partition_point(|s| before(s.tsc))` by galloping: probe 1, 2,
/// 4, … rows ahead, then search the last stride, so placing a mark reads
/// only rows near the previous mark's place.
fn gallop(rest: &[PebsRecord], before: impl Fn(u64) -> bool) -> usize {
    let mut lo = 0;
    let mut stride = 1;
    while rest.get(lo + stride - 1).is_some_and(|s| before(s.tsc)) {
        lo += stride;
        stride *= 2;
    }
    let hi = (lo + stride - 1).min(rest.len());
    lo + rest
        .get(lo..hi)
        .unwrap_or_default()
        .partition_point(|s| before(s.tsc))
}

/// Exact accounting of everything the online tracer shed, evicted, or
/// could not attribute. A robust tracer is allowed to lose data under
/// overload — it is not allowed to lose data *silently*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossStats {
    /// Whole batches dropped by
    /// [`OnlineTracer::try_submit`](crate::online::OnlineTracer::try_submit)
    /// because the channel was full.
    pub batches_dropped: u64,
    /// Samples inside those dropped batches.
    pub samples_dropped: u64,
    /// Samples shed by the adaptive effective-reset policy.
    pub samples_thinned: u64,
    /// Oldest pending samples evicted by the
    /// [`OnlineConfig::max_pending`](crate::online::OnlineConfig::max_pending)
    /// bound.
    pub samples_evicted: u64,
    /// Pending samples discarded because their item could not complete
    /// (mismatched End, or a Start while the item was still open).
    pub samples_discarded: u64,
    /// `End` marks with no open item on their core.
    pub marks_orphaned: u64,
    /// `End` marks whose item id did not match the open item (the open
    /// item is discarded and counted, not silently lost).
    pub marks_mismatched: u64,
    /// `Start` marks that arrived while another item was still open,
    /// abandoning it.
    pub starts_abandoned: u64,
    /// `Start` marks still open when the stream ended; their pending
    /// samples are counted in `samples_discarded`, not silently dropped.
    pub starts_truncated: u64,
    /// Samples that arrived outside any item (between an End and the
    /// next Start, after an orphan End, or after the last End of the
    /// stream). Not a loss: inter-item spin is uninteresting by design,
    /// but it is still counted so sample conservation stays exact.
    pub samples_spin: u64,
    /// Samples attributed exactly at an interval bound (`tsc` equal to
    /// the start or end mark). Not a loss: proof that boundary samples
    /// are kept, where they were previously dropped at `end_tsc`.
    pub boundary_samples: u64,
}

impl LossStats {
    /// Total samples that were received but never attributed to an item.
    pub fn samples_lost(&self) -> u64 {
        self.samples_dropped + self.samples_thinned + self.samples_evicted + self.samples_discarded
    }

    /// Exact sample conservation: every one of `seen` samples a worker
    /// received was either among the `attributed` or landed in exactly
    /// one worker-side loss/spin bucket. (`samples_dropped` and
    /// `samples_thinned` are shed on the producer side before the worker
    /// counts `seen`, so they sit outside this identity.)
    pub fn conserves(&self, seen: u64, attributed: u64) -> bool {
        seen == attributed + self.samples_evicted + self.samples_discarded + self.samples_spin
    }

    /// The eleven counters by field name, in name order: the form the
    /// metric snapshots render.
    pub fn named(&self) -> [(&'static str, u64); 11] {
        [
            ("batches_dropped", self.batches_dropped),
            ("boundary_samples", self.boundary_samples),
            ("marks_mismatched", self.marks_mismatched),
            ("marks_orphaned", self.marks_orphaned),
            ("samples_discarded", self.samples_discarded),
            ("samples_dropped", self.samples_dropped),
            ("samples_evicted", self.samples_evicted),
            ("samples_spin", self.samples_spin),
            ("samples_thinned", self.samples_thinned),
            ("starts_abandoned", self.starts_abandoned),
            ("starts_truncated", self.starts_truncated),
        ]
    }

    /// True when nothing was lost and the mark stream was well-formed
    /// (boundary and spin samples are attribution accounting, not loss).
    pub fn is_clean(&self) -> bool {
        self.samples_lost() == 0
            && self.batches_dropped == 0
            && self.marks_orphaned == 0
            && self.marks_mismatched == 0
            && self.starts_abandoned == 0
            && self.starts_truncated == 0
    }

    /// Count a malformed mark and the `rows` samples given up with it:
    /// discarded with the open item, or spin after an orphan End.
    fn malformed(&mut self, error: &IntervalError, rows: u64) {
        *match error {
            IntervalError::OrphanEnd { .. } => &mut self.marks_orphaned,
            IntervalError::UnclosedStart { .. } => &mut self.starts_abandoned,
            IntervalError::Mismatched { .. } => &mut self.marks_mismatched,
            IntervalError::TruncatedStart { .. } => &mut self.starts_truncated,
        } += 1;
        if matches!(error, IntervalError::OrphanEnd { .. }) {
            self.samples_spin += rows;
        } else {
            self.samples_discarded += rows;
        }
    }
}

impl std::ops::AddAssign for LossStats {
    /// Counter-wise sum (ledgers of several shards into one total).
    fn add_assign(&mut self, other: LossStats) {
        self.batches_dropped += other.batches_dropped;
        self.samples_dropped += other.samples_dropped;
        self.samples_thinned += other.samples_thinned;
        self.samples_evicted += other.samples_evicted;
        self.samples_discarded += other.samples_discarded;
        self.marks_orphaned += other.marks_orphaned;
        self.marks_mismatched += other.marks_mismatched;
        self.starts_abandoned += other.starts_abandoned;
        self.starts_truncated += other.starts_truncated;
        self.samples_spin += other.samples_spin;
        self.boundary_samples += other.boundary_samples;
    }
}

/// The four settings the pairing core reads; `OnlineConfig` documents them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairingConfig {
    pub freq: Freq,
    pub divergence_factor: f64,
    pub warmup: u64,
    pub max_pending: usize,
}

/// Running totals of one stream, named as in `OnlineReport`. `loss`
/// holds the worker-side buckets only: `batches_dropped`,
/// `samples_dropped` and `samples_thinned` are shed on the producer side
/// before a batch gets here and stay zero.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PairingCounts {
    pub loss: LossStats,
    pub items_processed: u64,
    pub samples_seen: u64,
    pub samples_attributed: u64,
    /// Highest pending-sample backlog seen on any core.
    pub pending_peak: u64,
}

/// One completed item, as handed to the `on_item` closure.
pub(crate) struct Completed<'a> {
    pub interval: ItemInterval,
    /// The item's samples, folded in place: a slice of the batch when the
    /// item's Start and End arrived in the same batch, else of its core's
    /// `pending` buffer. Lent for the call only — a consumer that keeps
    /// the samples copies them.
    pub samples: &'a [PebsRecord],
    /// The interval's span fold: one entry per function, in ascending
    /// `FuncId`.
    pub spans: &'a [FuncSpan],
    /// Samples inside the interval whose IP resolved to no function.
    pub unknown: u32,
    /// The divergence rule's verdict: the worst diverging function
    /// (lowest `FuncId` on ties), its estimated elapsed time in this
    /// item, and the running mean that was compared against.
    pub divergence: Option<(FuncId, SimDuration, SimDuration)>,
    /// Totals as of this item: a window closing here pins its ledger
    /// snapshot to them.
    pub counts: &'a PairingCounts,
}

#[derive(Default)]
struct CoreState {
    /// Samples carried over from earlier batches, not yet assigned to a
    /// finished item, in arrival order. Cleared and kept, never handed
    /// over.
    pending: Vec<PebsRecord>,
    /// Open start mark.
    open: Option<(ItemId, u64)>,
}

/// Let `arrived` (the batch's next samples on a core) join the carry
/// `pending`, accounting as if they were pushed one by one behind it
/// under the `cap` bound: the backlog peaks at `cap + 1` before the
/// oldest sample is evicted, and every evicted sample is counted.
/// Eviction takes from the carry first. Returns the part of `arrived`
/// still buffered; nothing is copied.
fn arrive<'s>(
    pending: &mut Vec<PebsRecord>,
    arrived: &'s [PebsRecord],
    cap: usize,
    counts: &mut PairingCounts,
) -> &'s [PebsRecord] {
    if arrived.is_empty() {
        return arrived;
    }
    let total = pending.len() + arrived.len();
    counts.pending_peak = counts.pending_peak.max(total.min(cap + 1) as u64);
    let excess = total.saturating_sub(cap);
    if excess == 0 {
        return arrived;
    }
    // Lost-End overload: evict the oldest samples instead of growing
    // without bound, and account for every one of them.
    counts.loss.samples_evicted += excess as u64;
    let from_carry = excess.min(pending.len());
    pending.drain(..from_carry);
    arrived.get(excess - from_carry..).unwrap_or_default()
}

/// Per-core state in a `Vec` sorted by core id. Core ids come from store
/// files, so the id is never an index: `CoreId(u32::MAX)` costs one slot
/// like any other. Looked up once per core per batch.
#[derive(Default)]
struct Cores {
    slots: Vec<(CoreId, CoreState)>,
}

impl Cores {
    /// The state of `core`, created empty on first use.
    fn get(&mut self, core: CoreId) -> Option<&mut CoreState> {
        let found = self.slots.binary_search_by_key(&core, |(c, _)| *c);
        let i = found.unwrap_or_else(|i| {
            self.slots.insert(i, (core, CoreState::default()));
            i
        });
        self.slots.get_mut(i).map(|(_, state)| state)
    }
}

/// Resolve `ip`, answering from `memo` (the last function resolved and
/// its address range) when the IP falls inside it.
pub(crate) fn resolve(
    symtab: &SymbolTable,
    memo: &mut Option<(FuncId, AddrRange)>,
    ip: VirtAddr,
) -> Option<FuncId> {
    match *memo {
        Some((func, range)) if range.contains(ip) => Some(func),
        _ => {
            let func = symtab.resolve(ip)?;
            *memo = Some((func, symtab.range(func)));
            Some(func)
        }
    }
}

/// The streaming pairing state machine. See the module docs.
pub(crate) struct Pairing {
    cores: Cores,
    fold: ItemFold,
}

/// Everything an item's fold reads and updates, apart from the per-core
/// state its samples may be lent from.
struct ItemFold {
    symtab: Arc<SymbolTable>,
    /// The last function resolved and its address range.
    memo: Option<(FuncId, AddrRange)>,
    config: PairingConfig,
    /// The span fold of the item being finished, kept across items.
    fold: SpanFold,
    /// The item's span entries, kept across items; lent to `on_item`
    /// as [`Completed::spans`].
    spans: Vec<FuncSpan>,
    /// Running per-function baselines (count, mean in ps), indexed by
    /// `FuncId` and carried for the life of the stream.
    baselines: Vec<(u64, f64)>,
    counts: PairingCounts,
}

impl Pairing {
    pub(crate) fn new(symtab: Arc<SymbolTable>, config: PairingConfig) -> Self {
        Pairing {
            cores: Cores::default(),
            fold: ItemFold {
                // lint:allow(hot-path-alloc): the dense baselines are allocated once per stream, when the pairing core is built
                baselines: vec![(0, 0.0); symtab.len()],
                symtab,
                memo: None,
                config,
                fold: SpanFold::default(),
                spans: Vec::new(),
                counts: PairingCounts::default(),
            },
        }
    }

    pub(crate) fn counts(&self) -> &PairingCounts {
        &self.fold.counts
    }

    /// Cores seen so far.
    pub(crate) fn cores(&self) -> usize {
        self.cores.slots.len()
    }

    /// Ingest one batch, calling `on_item` once per completed item, in
    /// `(core, End tsc)` order.
    pub(crate) fn ingest(
        &mut self,
        mut batch: TraceBundle,
        mut on_item: impl FnMut(Completed<'_>),
    ) {
        batch.sort();
        self.fold.counts.samples_seen += batch.samples.len() as u64;
        for shard in shards_by_core(&batch.marks, &batch.samples) {
            if let Some(state) = self.cores.get(shard.core) {
                self.fold
                    .walk_core(state, shard.marks, shard.samples, &mut on_item);
            }
        }
    }

    /// Stream end: account for everything still buffered. An open item
    /// whose End never arrived is truncated; leftover samples with no
    /// open item are trailing spin. After this, sample conservation is
    /// exact. A second call finds nothing buffered and changes nothing;
    /// a later `ingest` simply starts the next stream segment.
    pub(crate) fn finish_stream(&mut self) {
        let loss = &mut self.fold.counts.loss;
        for (core, state) in &mut self.cores.slots {
            let rows = state.pending.len() as u64;
            match state.open.take() {
                Some((item, _)) => {
                    loss.malformed(&IntervalError::TruncatedStart { core: *core, item }, rows)
                }
                None => loss.samples_spin += rows,
            }
            state.pending.clear();
        }
    }
}

impl ItemFold {
    /// Run [`walk`] over one core's part of a batch, folding each item
    /// it closes and accounting for every sample it gives up; the rows
    /// after the core's last mark join the carry.
    fn walk_core(
        &mut self,
        state: &mut CoreState,
        marks: &[MarkRecord],
        samples: &[PebsRecord],
        on_item: &mut impl FnMut(Completed<'_>),
    ) {
        let cap = self.config.max_pending.max(1);
        let CoreState { pending, open } = state;
        let tail = walk(open, marks, samples, |rows, step| {
            let arrived = samples.get(rows).unwrap_or_default();
            let buffered = arrive(pending, arrived, cap, &mut self.counts);
            let given_up = (pending.len() + buffered.len()) as u64;
            match step {
                Step::Closed(interval) if pending.is_empty() => {
                    self.finish_item(interval, buffered, on_item)
                }
                Step::Closed(interval) => {
                    // The item began in an earlier batch: complete its
                    // carry and fold that.
                    pending.extend_from_slice(buffered);
                    self.finish_item(interval, pending, on_item);
                }
                Step::Opened => self.counts.loss.samples_spin += given_up,
                Step::Malformed(error) => self.counts.loss.malformed(&error, given_up),
            }
            // Nothing before a mark stays buffered. Spin kept after an
            // orphan End would count toward the eviction bound when
            // consecutive Starts are lost (phantom `samples_evicted`).
            pending.clear();
        });
        let arrived = samples.get(tail..).unwrap_or_default();
        let buffered = arrive(pending, arrived, cap, &mut self.counts);
        pending.extend_from_slice(buffered);
    }

    fn finish_item(
        &mut self,
        interval: ItemInterval,
        samples: &[PebsRecord],
        on_item: &mut impl FnMut(Completed<'_>),
    ) {
        self.counts.items_processed += 1;
        self.counts.samples_attributed += samples.len() as u64;
        let mut unknown = 0u32;
        for s in samples {
            if !interval.contains(s.tsc) {
                continue;
            }
            if interval.is_boundary(s.tsc) {
                self.counts.loss.boundary_samples += 1;
            }
            match resolve(&self.symtab, &mut self.memo, s.ip) {
                Some(func) => self.fold.add(func, s.tsc),
                None => unknown += 1,
            }
        }
        self.spans.clear();
        self.fold.close(&mut self.spans);
        let mut divergence: Option<(FuncId, SimDuration, SimDuration)> = None;
        for &FuncSpan { func, cycles, .. } in &self.spans {
            let elapsed = self.config.freq.cycles_to_dur(cycles);
            let Some((count, mean_ps)) = self.baselines.get_mut(func.index()) else {
                continue;
            };
            let diverges = *count >= self.config.warmup
                && elapsed.as_ps() as f64 > *mean_ps * self.config.divergence_factor
                && elapsed > SimDuration::ZERO;
            if diverges {
                // Strict `<` keeps the first maximum; spans iterate in
                // FuncId order, so ties resolve deterministically to the
                // lowest FuncId.
                if divergence.is_none_or(|(_, worst, _)| worst < elapsed) {
                    divergence = Some((func, elapsed, SimDuration::from_ps(*mean_ps as u64)));
                }
            } else {
                // Only non-anomalous observations update the baseline, so
                // a burst of anomalies cannot drag the mean up after the
                // warm-up (before warm-up everything trains the mean).
                *count += 1;
                *mean_ps += (elapsed.as_ps() as f64 - *mean_ps) / *count as f64;
            }
        }
        on_item(Completed {
            interval,
            samples,
            spans: &self.spans,
            unknown,
            divergence,
            counts: &self.counts,
        });
    }
}

#[cfg(test)]
mod tests {
    //! `Pairing::ingest` against a naive fold written here, which calls
    //! nothing in this module: one stable whole-batch sort under the tie
    //! rule, `BTreeMap` state, a linear scan of the symbol table and a
    //! `BTreeMap` span fold — no per-core walk, no memo, no shared span fold.

    use super::*;
    use fluctrace_cpu::{HwEvent, SymbolTableBuilder, NO_TAG};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Functions in the test table: more than 20, so one item can visit
    /// over 20 distinct ones.
    const FUNCS: u32 = 24;
    /// Function size; the builder's 16-byte padding leaves an 8-byte gap
    /// after each function.
    const SIZE: u64 = 40;
    /// Sparse core ids a case draws from, besides `u32::MAX`.
    const SPARSE: [u32; 6] = [0, 1, 5, 1 << 29, 3 << 29, u32::MAX - 1];

    fn symtab() -> Arc<SymbolTable> {
        let mut b = SymbolTableBuilder::new();
        for i in 0..FUNCS {
            b.add(&format!("f{i}"), SIZE);
        }
        b.build().into_shared()
    }

    /// `(loss, items, seen, attributed, pending_peak)`.
    type CountsKey = (LossStats, u64, u64, u64, u64);

    fn key(c: &PairingCounts) -> CountsKey {
        (
            c.loss,
            c.items_processed,
            c.samples_seen,
            c.samples_attributed,
            c.pending_peak,
        )
    }

    /// One completed item, owned.
    #[derive(Debug, PartialEq)]
    struct Done {
        interval: ItemInterval,
        samples: Vec<PebsRecord>,
        spans: Vec<FuncSpan>,
        unknown: u32,
        divergence: Option<(FuncId, SimDuration, SimDuration)>,
        counts: CountsKey,
    }

    #[derive(Clone, Copy)]
    enum Rec {
        Sample(PebsRecord),
        Mark(MarkRecord),
    }

    /// A core's pending samples and open Start.
    type NaiveCore = (Vec<PebsRecord>, Option<(ItemId, u64)>);

    /// The reference fold.
    struct Naive {
        symtab: Arc<SymbolTable>,
        config: PairingConfig,
        cores: BTreeMap<CoreId, NaiveCore>,
        baselines: BTreeMap<FuncId, (u64, f64)>,
        counts: PairingCounts,
        done: Vec<Done>,
    }

    impl Naive {
        fn new(symtab: Arc<SymbolTable>, config: PairingConfig) -> Self {
            Naive {
                symtab,
                config,
                cores: BTreeMap::new(),
                baselines: BTreeMap::new(),
                counts: PairingCounts::default(),
                done: Vec::new(),
            }
        }

        fn ingest(&mut self, batch: &TraceBundle) {
            self.counts.samples_seen += batch.samples.len() as u64;
            // The tie rule at one (core, tsc): where an End sits, samples
            // go first, then the Ends, then the Starts; elsewhere Starts
            // go before samples.
            let ends: BTreeSet<(CoreId, u64)> = batch
                .marks
                .iter()
                .filter(|m| m.kind == MarkKind::End)
                .map(|m| (m.core, m.tsc))
                .collect();
            let mut recs: Vec<(CoreId, u64, u8, Rec)> = batch
                .samples
                .iter()
                .map(|&s| (s.core, s.tsc, 1, Rec::Sample(s)))
                .collect();
            for &m in &batch.marks {
                let rank = match m.kind {
                    MarkKind::End => 2,
                    MarkKind::Start if ends.contains(&(m.core, m.tsc)) => 3,
                    MarkKind::Start => 0,
                };
                recs.push((m.core, m.tsc, rank, Rec::Mark(m)));
            }
            recs.sort_by_key(|&(core, tsc, rank, _)| (core, tsc, rank));
            for (.., rec) in recs {
                match rec {
                    Rec::Sample(s) => self.sample(s),
                    Rec::Mark(m) => self.mark(m),
                }
            }
        }

        fn sample(&mut self, s: PebsRecord) {
            let (pending, _) = self.cores.entry(s.core).or_default();
            pending.push(s);
            self.counts.pending_peak = self.counts.pending_peak.max(pending.len() as u64);
            while pending.len() > self.config.max_pending.max(1) {
                pending.remove(0);
                self.counts.loss.samples_evicted += 1;
            }
        }

        fn mark(&mut self, m: MarkRecord) {
            let loss = &mut self.counts.loss;
            let (pending, open) = self.cores.entry(m.core).or_default();
            let buffered = pending.len() as u64;
            match (m.kind, *open) {
                (MarkKind::Start, prev) => {
                    if prev.is_some() {
                        loss.starts_abandoned += 1;
                        loss.samples_discarded += buffered;
                    } else {
                        loss.samples_spin += buffered;
                    }
                    pending.clear();
                    *open = Some((m.item, m.tsc));
                }
                (MarkKind::End, Some((item, start_tsc))) if item == m.item => {
                    *open = None;
                    let samples = std::mem::take(pending);
                    let interval = ItemInterval {
                        core: m.core,
                        item,
                        start_tsc,
                        end_tsc: m.tsc,
                    };
                    self.complete(interval, samples);
                }
                (MarkKind::End, Some(_)) => {
                    loss.marks_mismatched += 1;
                    loss.samples_discarded += buffered;
                    pending.clear();
                    *open = None;
                }
                (MarkKind::End, None) => {
                    loss.marks_orphaned += 1;
                    loss.samples_spin += buffered;
                    pending.clear();
                }
            }
        }

        fn finish(&mut self) {
            let loss = &mut self.counts.loss;
            for (pending, open) in self.cores.values_mut() {
                if open.take().is_some() {
                    loss.starts_truncated += 1;
                    loss.samples_discarded += pending.len() as u64;
                } else {
                    loss.samples_spin += pending.len() as u64;
                }
                pending.clear();
            }
        }

        fn complete(&mut self, interval: ItemInterval, samples: Vec<PebsRecord>) {
            self.counts.items_processed += 1;
            self.counts.samples_attributed += samples.len() as u64;
            let mut spans: BTreeMap<FuncId, (u64, u64, u32)> = BTreeMap::new();
            let mut unknown = 0;
            for s in &samples {
                if s.tsc < interval.start_tsc || s.tsc > interval.end_tsc {
                    continue;
                }
                if s.tsc == interval.start_tsc || s.tsc == interval.end_tsc {
                    self.counts.loss.boundary_samples += 1;
                }
                let func = self
                    .symtab
                    .iter()
                    .find(|(_, f)| f.range.start <= s.ip && s.ip < f.range.end);
                match func {
                    Some((func, _)) => {
                        let e = spans.entry(func).or_insert((s.tsc, s.tsc, 0));
                        e.0 = e.0.min(s.tsc);
                        e.1 = e.1.max(s.tsc);
                        e.2 += 1;
                    }
                    None => unknown += 1,
                }
            }
            let mut divergence: Option<(FuncId, SimDuration, SimDuration)> = None;
            for (&func, &(first, last, _)) in &spans {
                let elapsed = self.config.freq.cycles_to_dur(last.wrapping_sub(first));
                let (count, mean_ps) = self.baselines.entry(func).or_insert((0, 0.0));
                if *count >= self.config.warmup
                    && elapsed.as_ps() as f64 > *mean_ps * self.config.divergence_factor
                    && elapsed > SimDuration::ZERO
                {
                    if divergence.is_none_or(|(_, worst, _)| worst < elapsed) {
                        divergence = Some((func, elapsed, SimDuration::from_ps(*mean_ps as u64)));
                    }
                } else {
                    *count += 1;
                    *mean_ps += (elapsed.as_ps() as f64 - *mean_ps) / *count as f64;
                }
            }
            self.done.push(Done {
                interval,
                samples,
                spans: spans
                    .into_iter()
                    .map(|(func, (first, last, samples))| FuncSpan {
                        func,
                        samples,
                        cycles: last.wrapping_sub(first),
                    })
                    .collect(),
                unknown,
                divergence,
                counts: key(&self.counts),
            });
        }
    }

    /// SplitMix64, for input shapes.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        fn chance(&mut self, per_mille: u64) -> bool {
            self.below(1000) < per_mille
        }
    }

    fn inside(symtab: &SymbolTable, rng: &mut Rng, f: u32) -> VirtAddr {
        VirtAddr(symtab.range(FuncId(f)).start.0 + rng.below(SIZE))
    }

    /// In the padding after `f`.
    fn gap(symtab: &SymbolTable, rng: &mut Rng, f: u32) -> VirtAddr {
        VirtAddr(symtab.range(FuncId(f)).end.0 + rng.below(16 - SIZE % 16))
    }

    fn past_last(symtab: &SymbolTable, rng: &mut Rng) -> VirtAddr {
        VirtAddr(symtab.range(FuncId(FUNCS - 1)).end.0 + rng.below(1 << 12))
    }

    fn below_first(symtab: &SymbolTable, rng: &mut Rng) -> VirtAddr {
        VirtAddr(rng.below(symtab.range(FuncId(0)).start.0))
    }

    /// The IPs of one item's body.
    fn body(symtab: &SymbolTable, rng: &mut Rng, pattern: u64) -> Vec<VirtAddr> {
        let mut ips = Vec::new();
        match pattern {
            // A → B → A: the first function's runs must merge.
            0 => {
                let a = rng.below(u64::from(FUNCS - 1)) as u32;
                let b = a + 1 + rng.below(u64::from(FUNCS - 1 - a)) as u32;
                for f in [a, b, a] {
                    for _ in 0..1 + rng.below(3) {
                        ips.push(inside(symtab, rng, f));
                    }
                }
            }
            // Every function once, shuffled: over 20 in one item.
            1 => {
                let mut funcs: Vec<u32> = (0..FUNCS).collect();
                for i in (1..funcs.len()).rev() {
                    funcs.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for f in funcs {
                    ips.push(inside(symtab, rng, f));
                }
            }
            // Right after a memo hit on `f`: its gap, a higher function,
            // past the last function, below the first.
            2 => {
                let f = rng.below(u64::from(FUNCS - 1)) as u32;
                let higher = f + 1 + rng.below(u64::from(FUNCS - 1 - f)) as u32;
                let mut hit_then = |ip: VirtAddr, rng: &mut Rng| {
                    ips.push(inside(symtab, rng, f));
                    ips.push(inside(symtab, rng, f));
                    ips.push(ip);
                };
                let ip = gap(symtab, rng, f);
                hit_then(ip, rng);
                let ip = past_last(symtab, rng);
                hit_then(ip, rng);
                let ip = below_first(symtab, rng);
                hit_then(ip, rng);
                let ip = inside(symtab, rng, higher);
                hit_then(ip, rng);
            }
            // Anything, with some locality.
            _ => {
                let mut f = rng.below(u64::from(FUNCS)) as u32;
                for _ in 0..rng.below(10) {
                    if rng.chance(400) {
                        f = rng.below(u64::from(FUNCS)) as u32;
                    }
                    let ip = match rng.below(10) {
                        0 => gap(symtab, rng, f),
                        1 => past_last(symtab, rng),
                        2 => below_first(symtab, rng),
                        _ => inside(symtab, rng, f),
                    };
                    ips.push(ip);
                }
            }
        }
        ips
    }

    /// One step of a core's arrival stream: a record, or the end of the
    /// batch being filled.
    enum Step {
        Rec(Rec),
        Cut,
    }

    /// One core's arrival stream. With `forced`, the first three items
    /// are clean and take body patterns 0, 1, 2, and the first one's End
    /// arrives a batch after its Start.
    fn core_steps(
        symtab: &SymbolTable,
        rng: &mut Rng,
        core: CoreId,
        forced: bool,
        next_item: &mut u64,
    ) -> Vec<Step> {
        let sample = |tsc: u64, ip: VirtAddr| {
            Step::Rec(Rec::Sample(PebsRecord {
                core,
                tsc,
                ip,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            }))
        };
        let mark = |tsc: u64, item: u64, kind: MarkKind| {
            Step::Rec(Rec::Mark(MarkRecord {
                core,
                tsc,
                item: ItemId(item),
                kind,
            }))
        };
        let any_ip = |rng: &mut Rng| {
            let f = rng.below(u64::from(FUNCS)) as u32;
            inside(symtab, rng, f)
        };
        let mut steps = Vec::new();
        let mut tsc = rng.below(1 << 40);
        for k in 0..3 + rng.below(8) {
            let item = *next_item;
            *next_item += 1;
            let clean = forced && k < 3;
            if rng.chance(200) {
                // Inter-item spin.
                for _ in 0..1 + rng.below(3) {
                    tsc += 1 + rng.below(20);
                    steps.push(sample(tsc, any_ip(rng)));
                }
            }
            tsc += 1 + rng.below(20);
            let shape = if clean { 0 } else { rng.below(12) };
            match shape {
                // Start, sample and End at one tsc: the End sorts first,
                // so this item never completes.
                1 => {
                    steps.push(mark(tsc, item, MarkKind::Start));
                    steps.push(sample(tsc, any_ip(rng)));
                    steps.push(mark(tsc, item, MarkKind::End));
                    continue;
                }
                // Orphan End.
                2 => {
                    steps.push(mark(tsc, item, MarkKind::End));
                    continue;
                }
                _ => {}
            }
            steps.push(mark(tsc, item, MarkKind::Start));
            if rng.chance(300) {
                steps.push(sample(tsc, any_ip(rng)));
            }
            let pattern = if clean { k } else { rng.below(5) };
            let ips = body(symtab, rng, pattern);
            // Shape 3 restarts the item midway, abandoning the first half.
            let restart = (shape == 3).then(|| rng.below(ips.len() as u64 + 1));
            for (i, ip) in (0u64..).zip(ips) {
                if restart == Some(i) {
                    steps.push(mark(tsc, item, MarkKind::Start));
                }
                tsc += rng.below(20);
                steps.push(sample(tsc, ip));
            }
            tsc += rng.below(20);
            if rng.chance(300) {
                steps.push(sample(tsc, any_ip(rng)));
            }
            if (forced && k == 0) || rng.chance(150) {
                steps.push(Step::Cut);
            }
            match shape {
                // Mismatched End.
                4 => steps.push(mark(tsc, item | 1 << 41, MarkKind::End)),
                // Lost End: the next Start abandons the item.
                5 => {}
                _ => steps.push(mark(tsc, item, MarkKind::End)),
            }
        }
        steps
    }

    /// Interleave the cores' streams at random, keeping each core's
    /// order, into batches cut at every `Cut` and at random.
    fn batches(rng: &mut Rng, streams: Vec<Vec<Step>>) -> Vec<TraceBundle> {
        let mut queues: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
        let mut out = Vec::new();
        let mut cur = TraceBundle::default();
        while !queues.is_empty() {
            let i = rng.below(queues.len() as u64) as usize;
            match queues[i].next() {
                None => {
                    queues.swap_remove(i);
                }
                Some(Step::Cut) => out.push(std::mem::take(&mut cur)),
                Some(Step::Rec(Rec::Sample(s))) => cur.samples.push(s),
                Some(Step::Rec(Rec::Mark(m))) => cur.marks.push(m),
            }
            if rng.chance(30) {
                out.push(std::mem::take(&mut cur));
            }
        }
        out.push(cur);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::cases_from_env(256))]

        #[test]
        fn ingest_matches_a_naive_fold(seed in any::<u64>(), small_cap in 0u8..4) {
            let symtab = symtab();
            let mut rng = Rng(seed);
            let mut cores = vec![CoreId(u32::MAX)];
            for _ in 0..1 + rng.below(3) {
                let c = CoreId(SPARSE[rng.below(SPARSE.len() as u64) as usize]);
                if !cores.contains(&c) {
                    cores.push(c);
                }
            }
            let forced = rng.below(cores.len() as u64) as usize;
            let mut next_item = 0;
            let streams = cores
                .iter()
                .enumerate()
                .map(|(i, &c)| core_steps(&symtab, &mut rng, c, i == forced, &mut next_item))
                .collect();
            let batches = batches(&mut rng, streams);
            let config = PairingConfig {
                freq: Freq::ghz(3),
                divergence_factor: 1.5,
                warmup: 2,
                max_pending: if small_cap == 0 { 2 + rng.below(6) as usize } else { 1 << 16 },
            };

            let mut pairing = Pairing::new(Arc::clone(&symtab), config);
            let mut naive = Naive::new(symtab, config);
            let mut got = Vec::new();
            for b in &batches {
                pairing.ingest(b.clone(), |d| {
                    got.push(Done {
                        interval: d.interval,
                        samples: d.samples.to_vec(),
                        spans: d.spans.to_vec(),
                        unknown: d.unknown,
                        divergence: d.divergence,
                        counts: key(d.counts),
                    })
                });
                naive.ingest(b);
            }
            prop_assert_eq!(&got, &naive.done, "seed {}", seed);
            pairing.finish_stream();
            naive.finish();
            prop_assert_eq!(key(pairing.counts()), key(&naive.counts), "seed {}", seed);
            prop_assert_eq!(pairing.cores(), cores.len(), "seed {}", seed);
            if small_cap != 0 {
                // The forced sweep item completed whole.
                prop_assert!(got.iter().any(|d| d.spans.len() > 20), "seed {}", seed);
            }
        }
    }
}
