//! The streaming pairing core: the paper's integration rule — a sample
//! belongs to the item whose mark interval on its core contains its
//! timestamp (§III.D) — applied as the stream arrives (§IV.C.3).
//!
//! [`Pairing`] is the one streaming implementation of that rule; the
//! online worker and the windowed integrator both drive it and differ
//! only in the closure that receives each completed item. The offline
//! `interval::build_intervals` and the conformance oracle stay separate:
//! they are what this is checked against.

use crate::interval::ItemInterval;
use fluctrace_cpu::{
    CoreId, FuncId, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, TraceBundle,
};
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// The item's samples, handed over by value: the online side keeps
    /// them for divergent items, everyone else drops them here, so no
    /// per-core buffer outlives its item.
    pub samples: Vec<PebsRecord>,
    /// Per-function `(first tsc, last tsc, sample count)` inside the
    /// interval; iterates in ascending `FuncId`.
    pub spans: &'a BTreeMap<FuncId, (u64, u64, u32)>,
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
    /// Samples not yet assigned to a finished item, in tsc order.
    pending: Vec<PebsRecord>,
    /// Open start mark.
    open: Option<(ItemId, u64)>,
}

impl CoreState {
    /// Give up on whatever is buffered, counting every sample: an open
    /// item can never complete now, so its samples are discarded; with
    /// no item open they are inter-item spin — uninteresting, but
    /// conservation demands they be counted. Returns whether an item
    /// was open.
    fn abandon(&mut self, loss: &mut LossStats) -> bool {
        let was_open = self.open.take().is_some();
        if was_open {
            loss.samples_discarded += self.pending.len() as u64;
        } else {
            loss.samples_spin += self.pending.len() as u64;
        }
        self.pending.clear();
        was_open
    }
}

/// The streaming pairing state machine. See the module docs.
pub(crate) struct Pairing {
    symtab: Arc<SymbolTable>,
    config: PairingConfig,
    cores: BTreeMap<CoreId, CoreState>,
    /// Running per-function baselines (count, mean in ps), carried for
    /// the life of the stream.
    baselines: BTreeMap<FuncId, (u64, f64)>,
    counts: PairingCounts,
}

impl Pairing {
    pub(crate) fn new(symtab: Arc<SymbolTable>, config: PairingConfig) -> Self {
        Pairing {
            symtab,
            config,
            cores: BTreeMap::new(),
            baselines: BTreeMap::new(),
            counts: PairingCounts::default(),
        }
    }

    pub(crate) fn counts(&self) -> &PairingCounts {
        &self.counts
    }

    /// Cores seen so far.
    pub(crate) fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Ingest one batch, calling `on_item` once per completed item.
    pub(crate) fn ingest(
        &mut self,
        mut batch: TraceBundle,
        mut on_item: impl FnMut(Completed<'_>),
    ) {
        batch.sort();
        self.counts.samples_seen += batch.samples.len() as u64;
        // Merge the per-core streams in timestamp order (both are sorted
        // by `(core, tsc)`): before each sample, apply the marks due
        // ahead of it. Tie-break on equal (core, tsc): a Start opens
        // *before* a coincident sample and an End closes *after* it, so
        // samples at either mark timestamp attribute to the item — the
        // same inclusive bounds as the offline `ItemInterval::contains`.
        let mut marks = batch.marks.iter().peekable();
        for &s in &batch.samples {
            let sk = (s.core, s.tsc);
            while let Some(&m) = marks.next_if(|m| {
                let mk = (m.core, m.tsc);
                !(sk < mk || (sk == mk && m.kind == MarkKind::End))
            }) {
                self.apply_mark(m, &mut on_item);
            }
            self.push_sample(s);
        }
        for &m in marks {
            self.apply_mark(m, &mut on_item);
        }
    }

    /// Stream end: account for everything still buffered. An open item
    /// whose End never arrived is truncated; leftover samples with no
    /// open item are trailing spin. After this, sample conservation is
    /// exact. A second call finds nothing buffered and changes nothing;
    /// a later `ingest` simply starts the next stream segment.
    pub(crate) fn finish_stream(&mut self) {
        for state in self.cores.values_mut() {
            if state.abandon(&mut self.counts.loss) {
                self.counts.loss.starts_truncated += 1;
            }
        }
    }

    fn push_sample(&mut self, s: PebsRecord) {
        let cap = self.config.max_pending.max(1);
        let state = self.cores.entry(s.core).or_default();
        state.pending.push(s);
        self.counts.pending_peak = self.counts.pending_peak.max(state.pending.len() as u64);
        if state.pending.len() > cap {
            // Lost-End overload: evict the oldest samples instead of
            // growing without bound, and account for every one of them.
            let excess = state.pending.len() - cap;
            state.pending.drain(..excess);
            self.counts.loss.samples_evicted += excess as u64;
        }
    }

    fn apply_mark(&mut self, m: MarkRecord, on_item: &mut impl FnMut(Completed<'_>)) {
        let loss = &mut self.counts.loss;
        let state = self.cores.entry(m.core).or_default();
        match (m.kind, state.open) {
            (MarkKind::Start, _) => {
                if state.abandon(loss) {
                    loss.starts_abandoned += 1;
                }
                state.open = Some((m.item, m.tsc));
            }
            (MarkKind::End, Some((item, start_tsc))) if item == m.item => {
                let interval = ItemInterval {
                    core: m.core,
                    item,
                    start_tsc,
                    end_tsc: m.tsc,
                };
                state.open = None;
                let samples = std::mem::take(&mut state.pending);
                self.finish_item(interval, samples, on_item);
            }
            (MarkKind::End, Some(_)) => {
                // Mismatched End: the open item is unattributable.
                loss.marks_mismatched += 1;
                state.abandon(loss);
            }
            (MarkKind::End, None) => {
                // Orphan End. Clearing the spin here keeps `pending` from
                // leaking into the eviction bound when consecutive Starts
                // are lost (there is no next Start to clear it), which
                // used to surface as phantom `samples_evicted`.
                loss.marks_orphaned += 1;
                state.abandon(loss);
            }
        }
    }

    fn finish_item(
        &mut self,
        interval: ItemInterval,
        samples: Vec<PebsRecord>,
        on_item: &mut impl FnMut(Completed<'_>),
    ) {
        self.counts.items_processed += 1;
        self.counts.samples_attributed += samples.len() as u64;
        // Per-function first/last/count within the interval — one
        // occupancy span per completed interval, the quantum the batch
        // estimator folds per interval index. BTreeMap, not HashMap: the
        // worst-function tie-break below iterates this map, and
        // serialized anomalies must not depend on hash order.
        let mut spans: BTreeMap<FuncId, (u64, u64, u32)> = BTreeMap::new();
        let mut unknown = 0u32;
        for s in &samples {
            if !interval.contains(s.tsc) {
                continue;
            }
            if interval.is_boundary(s.tsc) {
                self.counts.loss.boundary_samples += 1;
            }
            match self.symtab.resolve(s.ip) {
                Some(func) => {
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
            spans: &spans,
            unknown,
            divergence,
            counts: &self.counts,
        });
    }
}
