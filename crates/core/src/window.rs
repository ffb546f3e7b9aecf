//! Windowed / incremental integration: the bounded-memory substrate of
//! the `fluctrace-serve` daemon.
//!
//! The batch pipeline holds a whole trace in memory before integrating
//! it; an always-on tracer cannot. [`WindowedIntegrator`] consumes the
//! same `TraceBundle` batches the online tracer does — it drives the
//! same `pairing` state machine as the online worker, so pairing,
//! eviction and the 11-counter [`LossStats`] ledger are one definition
//! — but cuts the completed-item stream into **windows** of
//! [`WindowConfig::window_items`] items. Each closed window is folded
//! through the same [`estimate`] assembly as a batch
//! run into a per-window [`EstimateTable`] summary, the raw samples are
//! dropped, and old summaries are evicted once
//! [`WindowConfig::max_windows`] are retained. Loss counters, anomaly
//! baselines and the cumulative accumulator carry forward across every
//! window boundary, so nothing about the *accounting* is windowed —
//! only the memory.
//!
//! ## Exactness across window boundaries
//!
//! `Freq::cycles_to_dur` truncates (integer division), so per-window
//! `SimDuration`s are **not** additive: summing window tables would
//! drift from the batch run by up to a picosecond per window per
//! function. The cumulative accumulator therefore stays in the *cycle*
//! domain — per-`(item, func)` sample and cycle sums, per-item marked
//! cycles — and converts once at render time, exactly as the batch
//! estimator's `assemble_table` fold does. The conformance `windowed`
//! leg pins `cumulative_table()` byte-identical to the one-shot batch
//! pipeline across window sizes.
//!
//! ## Two cumulative modes
//!
//! * [`CumulativeMode::Exact`] keeps the per-`(item, func)` cycle sums.
//!   Memory grows with the number of *distinct completed items* —
//!   bounded for any finite run, and the mode every byte-equality check
//!   uses, but not constant over an unbounded stream.
//! * [`CumulativeMode::Folded`] keeps only per-function totals (plus
//!   whole-stream marked/unknown counts): constant memory regardless of
//!   stream length, for truly unbounded deployments. The fold loses the
//!   per-item axis, and says so instead of pretending otherwise — see
//!   `SERVE.md`'s steady-memory argument.

use crate::estimate::{self, EstimateTable};
use crate::interval::ItemInterval;
use crate::pairing::{Completed, LossStats, Pairing, PairingConfig};
use fluctrace_cpu::{CoreId, FuncId, ItemId, SymbolTable, TraceBundle};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How the cross-window cumulative state is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CumulativeMode {
    /// Per-`(item, func)` cycle sums: renders a table byte-identical to
    /// the batch pipeline, at memory proportional to distinct items.
    Exact,
    /// Per-function cycle sums only: constant memory over an unbounded
    /// stream, no per-item axis.
    Folded,
}

/// Configuration of the windowed integrator.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// TSC frequency of the traced machine.
    pub freq: Freq,
    /// Completed items per window; the window closes (is integrated,
    /// summarized and its raw data dropped) when this many items finish.
    pub window_items: u64,
    /// Closed-window summaries retained; older ones are evicted and
    /// counted in [`WindowReport::windows_evicted`].
    pub max_windows: usize,
    /// Flag an item when some function's elapsed time exceeds
    /// `divergence_factor ×` the running mean for that function
    /// (baselines carry across windows, like the online tracer's).
    pub divergence_factor: f64,
    /// Observations of a function before divergence checks start.
    pub warmup: u64,
    /// Per-core cap on samples awaiting their End mark (same eviction
    /// rule and accounting as [`crate::online::OnlineConfig::max_pending`]).
    pub max_pending: usize,
    /// Cumulative-state mode.
    pub cumulative: CumulativeMode,
    /// Anomaly episodes retained in the bounded ring (the cumulative
    /// count keeps growing; only the detail ring is bounded).
    pub max_episodes: usize,
}

impl WindowConfig {
    /// 256-item windows, 16 retained, 2× divergence after a 16-item
    /// warm-up, 64 Ki pending per core, exact cumulative, 256 episodes.
    pub fn new(freq: Freq) -> Self {
        WindowConfig {
            freq,
            window_items: 256,
            max_windows: 16,
            divergence_factor: 2.0,
            warmup: 16,
            max_pending: 1 << 16,
            cumulative: CumulativeMode::Exact,
            max_episodes: 256,
        }
    }
}

/// One anomaly episode: a completed item whose worst function diverged
/// from its running baseline. Unlike [`crate::online::OnlineAnomaly`],
/// no raw samples are retained — the windowed integrator's contract is
/// bounded memory, so episodes keep metadata only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Episode {
    /// The diverging item.
    pub item: ItemId,
    /// Function whose time diverged (worst over the item, lowest
    /// `FuncId` on ties — same rule as the online tracer).
    pub func: FuncId,
    /// Estimated elapsed time for this item.
    pub elapsed: SimDuration,
    /// Running mean it was compared against.
    pub baseline_mean: SimDuration,
    /// Samples the item carried when it completed (the count the online
    /// tracer would have dumped).
    pub samples: u32,
    /// Index of the window the item completed in.
    pub window: u64,
}

/// Summary of one closed window. The raw marks and samples that built
/// it are gone by the time this exists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSummary {
    /// Zero-based window index.
    pub index: u64,
    /// Items completed in this window.
    pub items: u64,
    /// Samples attributed to those items.
    pub samples: u64,
    /// Anomaly episodes recorded while this window was open.
    pub anomalies: u64,
    /// Per-item per-function estimates for this window only.
    pub table: EstimateTable,
    /// Snapshot of the *cumulative* loss ledger at window close — the
    /// counters never reset, so consecutive snapshots are monotone and
    /// differencing two of them gives the per-window loss exactly.
    pub loss: LossStats,
}

impl WindowSummary {
    /// Rough heap footprint, for the eviction byte ledger. An estimate
    /// (containers over-allocate), but a deterministic one.
    pub fn approx_bytes(&self) -> u64 {
        let funcs: u64 = self
            .table
            .items()
            .map(|ie| ie.funcs.len() as u64)
            .sum::<u64>();
        std::mem::size_of::<WindowSummary>() as u64 + self.table.len() as u64 * 96 + funcs * 40
    }
}

/// Per-function cumulative totals in [`CumulativeMode::Folded`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldedTotals {
    /// `(func, samples, cycles)` ascending by function id.
    pub funcs: Vec<(FuncId, u64, u64)>,
    /// Total marked cycles over all completed items.
    pub marked_cycles: u64,
    /// Attributed samples whose IP resolved to no function.
    pub unknown_samples: u64,
    /// Completed items folded in.
    pub items: u64,
}

/// Counter snapshot of a [`WindowedIntegrator`] (everything except the
/// retained summaries and tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Items whose End mark was seen and that were fully processed.
    pub items_processed: u64,
    /// Total samples received.
    pub samples_seen: u64,
    /// Samples attributed to a completed item.
    pub samples_attributed: u64,
    /// Windows closed so far.
    pub windows_closed: u64,
    /// Closed-window summaries evicted by the retention bound.
    pub windows_evicted: u64,
    /// Approximate bytes those evicted summaries occupied.
    pub evicted_bytes: u64,
    /// Anomaly episodes recorded (cumulative; the detail ring is
    /// bounded separately).
    pub episodes: u64,
    /// The 11-counter loss ledger, carried exactly across windows.
    pub loss: LossStats,
}

impl WindowReport {
    /// Exact sample conservation ([`LossStats::conserves`]).
    pub fn conserves_samples(&self) -> bool {
        self.loss
            .conserves(self.samples_seen, self.samples_attributed)
    }
}

/// The open window's accumulating state: flat `(item, func, first,
/// last, count)` spans plus the intervals and unknown counts the
/// assembly needs. Dropped wholesale at window close.
#[derive(Default)]
struct OpenWindow {
    flat: Vec<(ItemId, FuncId, u64, u64, u32)>,
    intervals: Vec<ItemInterval>,
    unknown: BTreeMap<ItemId, u32>,
    items: u64,
    samples: u64,
    anomalies: u64,
}

/// Cross-window cumulative accumulator. Both variants live in the cycle
/// domain; time conversion happens once, at render.
enum Accum {
    Exact {
        /// `(item, func)` → (samples, cycles). The `u32` sample count
        /// mirrors the batch estimator's field width exactly.
        funcs: BTreeMap<(ItemId, FuncId), (u32, u64)>,
        /// Item → marked cycles (summed over its completed intervals).
        marked: BTreeMap<ItemId, u64>,
        /// Item → attributed-but-unresolvable sample count.
        unknown: BTreeMap<ItemId, u32>,
    },
    Folded {
        /// (samples, cycles) indexed by `FuncId`, dense over the symbol
        /// table and allocated once.
        funcs: Vec<(u64, u64)>,
        marked_cycles: u64,
        unknown_samples: u64,
        items: u64,
    },
}

/// Incremental integrator: same batch interface and loss semantics as
/// the online tracer's worker, windowed summaries and bounded memory
/// instead of an end-of-stream report. See the module docs.
pub struct WindowedIntegrator {
    /// Per-core state, ledger and baselines — carried across windows,
    /// as the online tracer carries them across batches.
    pairing: Pairing,
    /// Everything windowed. A separate field so `ingest` can lend
    /// `pairing` out while its per-item closure folds into this.
    folds: Folds,
}

/// What the integrator does with completed items: the open window, the
/// retained summaries, the cumulative accumulator and the episode ring.
struct Folds {
    config: WindowConfig,
    open: OpenWindow,
    windows: VecDeque<WindowSummary>,
    windows_closed: u64,
    windows_evicted: u64,
    evicted_bytes: u64,
    accum: Accum,
    episodes: VecDeque<Episode>,
    episodes_total: u64,
}

impl WindowedIntegrator {
    /// Fresh integrator; window 0 is open and empty.
    pub fn new(symtab: Arc<SymbolTable>, config: WindowConfig) -> Self {
        let accum = match config.cumulative {
            CumulativeMode::Exact => Accum::Exact {
                funcs: BTreeMap::new(),
                marked: BTreeMap::new(),
                unknown: BTreeMap::new(),
            },
            CumulativeMode::Folded => Accum::Folded {
                funcs: vec![(0, 0); symtab.len()],
                marked_cycles: 0,
                unknown_samples: 0,
                items: 0,
            },
        };
        WindowedIntegrator {
            pairing: Pairing::new(
                symtab,
                PairingConfig {
                    freq: config.freq,
                    divergence_factor: config.divergence_factor,
                    warmup: config.warmup,
                    max_pending: config.max_pending,
                },
            ),
            folds: Folds {
                config,
                open: OpenWindow::default(),
                windows: VecDeque::new(),
                windows_closed: 0,
                windows_evicted: 0,
                evicted_bytes: 0,
                accum,
                episodes: VecDeque::new(),
                episodes_total: 0,
            },
        }
    }

    /// The configuration this integrator runs under.
    pub fn config(&self) -> &WindowConfig {
        &self.folds.config
    }

    /// Ingest one batch: the pairing core sorts it, merges marks and
    /// samples and accounts for what it cannot attribute; every item it
    /// completes is folded into the open window and the cumulative
    /// accumulator (and may close the window).
    pub fn ingest(&mut self, batch: TraceBundle) {
        obs::span!("window.batch", batch.samples.len());
        let folds = &mut self.folds;
        self.pairing.ingest(batch, |done| folds.finish_item(done));
    }

    /// Stream end: account for everything still buffered — open items
    /// are truncated, trailing pending samples are spin — then close
    /// the partial window. Idempotent (nothing is buffered and the open
    /// window is empty the second time); further `ingest` calls after
    /// this start a new stream segment and the ledger keeps carrying
    /// forward.
    pub fn finish_stream(&mut self) {
        self.pairing.finish_stream();
        self.folds.close_window(self.pairing.counts().loss);
    }

    /// Counter snapshot (cheap; no tables).
    pub fn report(&self) -> WindowReport {
        let counts = self.pairing.counts();
        WindowReport {
            items_processed: counts.items_processed,
            samples_seen: counts.samples_seen,
            samples_attributed: counts.samples_attributed,
            windows_closed: self.folds.windows_closed,
            windows_evicted: self.folds.windows_evicted,
            evicted_bytes: self.folds.evicted_bytes,
            episodes: self.folds.episodes_total,
            loss: counts.loss,
        }
    }

    /// Retained window summaries, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowSummary> {
        self.folds.windows.iter()
    }

    /// Retained anomaly episodes, oldest first.
    pub fn episodes(&self) -> impl Iterator<Item = &Episode> {
        self.folds.episodes.iter()
    }

    /// The cumulative loss ledger (never reset).
    pub fn loss(&self) -> LossStats {
        self.pairing.counts().loss
    }

    /// Windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.folds.windows_closed
    }

    /// Render the exact cumulative table — `None` in
    /// [`CumulativeMode::Folded`]. Byte-identical to
    /// `EstimateTable::from_integrated` over the concatenated stream:
    /// the accumulator's cycle sums are handed to the same
    /// `assemble_table` fold as one synthetic span per `(item, func)`
    /// (first = 0, last = cycles) plus one synthetic interval per item
    /// carrying its marked cycles, so the conversion-once arithmetic is
    /// literally the batch estimator's.
    pub fn cumulative_table(&self) -> Option<EstimateTable> {
        let Accum::Exact {
            funcs,
            marked,
            unknown,
        } = &self.folds.accum
        else {
            return None;
        };
        let flat: Vec<(ItemId, FuncId, u64, u64, u32)> = funcs
            .iter()
            .map(|(&(item, func), &(samples, cycles))| (item, func, 0, cycles, samples))
            .collect();
        let intervals: Vec<ItemInterval> = marked
            .iter()
            .map(|(&item, &cycles)| ItemInterval {
                core: CoreId(0),
                item,
                start_tsc: 0,
                end_tsc: cycles,
            })
            .collect();
        Some(estimate::assemble_table(
            flat,
            unknown.clone(),
            0,
            &intervals,
            self.folds.config.freq,
        ))
    }

    /// Per-function cumulative totals. Always available: in `Exact`
    /// mode they are derived by folding the exact accumulator, so the
    /// two modes can be cross-checked against each other.
    pub fn folded_totals(&self) -> FoldedTotals {
        match &self.folds.accum {
            Accum::Folded {
                funcs,
                marked_cycles,
                unknown_samples,
                items,
            } => FoldedTotals {
                funcs: (0u32..)
                    .zip(funcs)
                    .filter(|(_, &(samples, _))| samples > 0)
                    .map(|(func, &(samples, cycles))| (FuncId(func), samples, cycles))
                    .collect(),
                marked_cycles: *marked_cycles,
                unknown_samples: *unknown_samples,
                items: *items,
            },
            Accum::Exact {
                funcs,
                marked,
                unknown,
            } => {
                let mut fold: BTreeMap<FuncId, (u64, u64)> = BTreeMap::new();
                for (&(_item, func), &(samples, cycles)) in funcs {
                    let e = fold.entry(func).or_insert((0, 0));
                    e.0 += u64::from(samples);
                    e.1 = e.1.wrapping_add(cycles);
                }
                FoldedTotals {
                    funcs: fold
                        .iter()
                        .map(|(&func, &(samples, cycles))| (func, samples, cycles))
                        .collect(),
                    marked_cycles: marked.values().fold(0u64, |a, &c| a.wrapping_add(c)),
                    unknown_samples: unknown.values().map(|&n| u64::from(n)).sum(),
                    // Completed intervals, not distinct ids: shared
                    // item ids fold many intervals into one map entry,
                    // and the Folded twin counts every completion.
                    items: self.pairing.counts().items_processed,
                }
            }
        }
    }
}

impl Folds {
    /// Fold one completed item into the episode ring, the open window
    /// and the cumulative accumulator; its raw samples are dropped.
    fn finish_item(&mut self, done: Completed<'_>) {
        let interval = done.interval;
        if let Some((func, elapsed, baseline_mean)) = done.divergence {
            obs::event("window.episode", interval.item.0);
            self.episodes_total += 1;
            self.open.anomalies += 1;
            self.episodes.push_back(Episode {
                item: interval.item,
                func,
                elapsed,
                baseline_mean,
                samples: done.samples.len() as u32,
                window: self.windows_closed,
            });
            while self.episodes.len() > self.config.max_episodes.max(1) {
                self.episodes.pop_front();
            }
        }

        // Feed the open window and the cumulative accumulator from the
        // same fold — one source of truth for both granularities.
        self.open.items += 1;
        self.open.samples += done.samples.len() as u64;
        self.open.intervals.push(interval);
        if done.unknown > 0 {
            *self.open.unknown.entry(interval.item).or_insert(0) += done.unknown;
        }
        match &mut self.accum {
            Accum::Exact {
                funcs,
                marked,
                unknown,
            } => {
                for &(func, (first, last, count)) in done.spans {
                    let e = funcs.entry((interval.item, func)).or_insert((0, 0));
                    e.0 = e.0.wrapping_add(count);
                    e.1 = e.1.wrapping_add(last.wrapping_sub(first));
                }
                // Wraps like the `Folded` twin and `folded_totals()`:
                // an End below its Start marks nearly 2⁶⁴ cycles.
                let m = marked.entry(interval.item).or_insert(0);
                *m = m.wrapping_add(interval.cycles());
                if done.unknown > 0 {
                    *unknown.entry(interval.item).or_insert(0) += done.unknown;
                }
            }
            Accum::Folded {
                funcs,
                marked_cycles,
                unknown_samples,
                items,
            } => {
                for &(func, (first, last, count)) in done.spans {
                    if let Some(e) = funcs.get_mut(func.index()) {
                        e.0 += u64::from(count);
                        e.1 = e.1.wrapping_add(last.wrapping_sub(first));
                    }
                }
                *marked_cycles = marked_cycles.wrapping_add(interval.cycles());
                *unknown_samples += u64::from(done.unknown);
                *items += 1;
            }
        }
        for &(func, (first, last, count)) in done.spans {
            self.open
                .flat
                .push((interval.item, func, first, last, count));
        }

        if self.open.items >= self.config.window_items.max(1) {
            self.close_window(done.counts.loss);
        }
    }

    /// Close the open window: assemble its table through the batch
    /// estimator's fold, pin the cumulative ledger `loss`, drop the raw
    /// spans, and evict the oldest summary past the retention bound.
    fn close_window(&mut self, loss: LossStats) {
        if self.open.items == 0 {
            return;
        }
        let open = std::mem::take(&mut self.open);
        obs::span!("window.close", open.items);
        let table = estimate::assemble_table(
            open.flat,
            open.unknown,
            0,
            &open.intervals,
            self.config.freq,
        );
        let summary = WindowSummary {
            index: self.windows_closed,
            items: open.items,
            samples: open.samples,
            anomalies: open.anomalies,
            table,
            loss,
        };
        self.windows_closed += 1;
        self.windows.push_back(summary);
        while self.windows.len() > self.config.max_windows.max(1) {
            if let Some(evicted) = self.windows.pop_front() {
                self.windows_evicted += 1;
                self.evicted_bytes += evicted.approx_bytes();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use crate::online::{OnlineConfig, OnlineTracer};
    use fluctrace_cpu::{
        HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, VirtAddr, NO_TAG,
    };

    fn freq() -> Freq {
        Freq::ghz(3)
    }

    fn symtab(funcs: usize) -> (Arc<SymbolTable>, Vec<FuncId>) {
        let mut b = SymbolTableBuilder::new();
        let ids = (0..funcs).map(|i| b.add(&format!("f{i}"), 256)).collect();
        (b.build().into_shared(), ids)
    }

    fn sample(core: u32, tsc: u64, ip: VirtAddr) -> PebsRecord {
        PebsRecord {
            core: CoreId(core),
            tsc,
            ip,
            r13: NO_TAG,
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

    /// A clean two-core workload with IP locality, unknown IPs and
    /// inter-item spin samples, split into `cut`-item batches.
    fn workload(items_per_core: u64, cut: usize) -> (Vec<TraceBundle>, Arc<SymbolTable>) {
        let (symtab, funcs) = symtab(5);
        let mut batches = Vec::new();
        let mut cur = TraceBundle::default();
        let mut in_cur = 0usize;
        for core in 0..2u32 {
            let mut tsc = 1000 + core as u64 * 37;
            for i in 0..items_per_core {
                let item = core as u64 * items_per_core + i;
                cur.marks.push(mark(core, tsc, item, MarkKind::Start));
                let n = 2 + (i % 4) as usize;
                for k in 0..n {
                    tsc += 60 + (k as u64 * 13) % 40;
                    let ip = if (i + k as u64) % 9 == 8 {
                        VirtAddr(3) // unknown
                    } else {
                        let f = funcs[(i as usize + k) % funcs.len()];
                        VirtAddr(symtab.range(f).start.as_u64() + (k as u64 % 64))
                    };
                    cur.samples.push(sample(core, tsc, ip));
                }
                tsc += 50;
                cur.marks.push(mark(core, tsc, item, MarkKind::End));
                if i % 5 == 2 {
                    // Inter-item spin sample.
                    tsc += 11;
                    cur.samples.push(sample(
                        core,
                        tsc,
                        VirtAddr(symtab.range(funcs[0]).start.as_u64()),
                    ));
                }
                tsc += 31;
                in_cur += 1;
                if in_cur >= cut {
                    cur.sort();
                    batches.push(std::mem::take(&mut cur));
                    in_cur = 0;
                }
            }
        }
        if !cur.marks.is_empty() || !cur.samples.is_empty() {
            cur.sort();
            batches.push(cur);
        }
        (batches, symtab)
    }

    fn merged(batches: &[TraceBundle]) -> TraceBundle {
        let mut all = TraceBundle::default();
        for b in batches {
            all.merge(b.clone());
        }
        all.sort();
        all
    }

    fn run_windowed(
        batches: &[TraceBundle],
        symtab: &Arc<SymbolTable>,
        mut cfg: WindowConfig,
    ) -> WindowedIntegrator {
        cfg.freq = freq();
        let mut wi = WindowedIntegrator::new(Arc::clone(symtab), cfg);
        for b in batches {
            wi.ingest(b.clone());
        }
        wi.finish_stream();
        wi
    }

    #[test]
    fn cumulative_table_matches_batch_pipeline_across_window_sizes() {
        let (batches, symtab) = workload(23, 4);
        let all = merged(&batches);
        let it = integrate(&all, &symtab, freq(), MappingMode::Intervals);
        let batch_table = EstimateTable::from_integrated(&it);
        let batch_json = serde_json::to_string(&batch_table).unwrap();
        for window_items in [1u64, 2, 3, 7, 64, 10_000] {
            let mut cfg = WindowConfig::new(freq());
            cfg.window_items = window_items;
            cfg.max_windows = 4;
            let wi = run_windowed(&batches, &symtab, cfg);
            let table = wi.cumulative_table().expect("exact mode");
            assert_eq!(
                serde_json::to_string(&table).unwrap(),
                batch_json,
                "window_items={window_items}"
            );
            assert_eq!(table, batch_table, "window_items={window_items}");
            assert!(wi.report().conserves_samples());
        }
    }

    #[test]
    fn ledger_and_episodes_match_online_tracer() {
        let (batches, symtab) = workload(31, 3);
        // Flag-everything config on both sides.
        let mut ocfg = OnlineConfig::new(freq());
        ocfg.divergence_factor = 0.0;
        ocfg.warmup = 0;
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), ocfg);
        for b in &batches {
            tracer.submit(b.clone()).unwrap();
        }
        let online = tracer.finish().unwrap();

        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 5;
        cfg.divergence_factor = 0.0;
        cfg.warmup = 0;
        cfg.max_episodes = 1 << 20;
        let wi = run_windowed(&batches, &symtab, cfg);
        let r = wi.report();
        assert_eq!(
            (r.items_processed, r.samples_seen, r.samples_attributed),
            (
                online.items_processed,
                online.samples_seen,
                online.samples_attributed
            )
        );
        assert_eq!(r.loss, online.loss);

        let mut got: Vec<_> = wi
            .episodes()
            .map(|e| (e.item.0, e.func.0, e.elapsed.as_ps(), e.samples as usize))
            .collect();
        got.sort_unstable();
        let mut want: Vec<_> = online
            .anomalies
            .iter()
            .map(|a| (a.item.0, a.func.0, a.elapsed.as_ps(), a.raw_samples.len()))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(wi.report().episodes, online.anomalies.len() as u64);
    }

    #[test]
    fn faulted_stream_accounting_matches_online_tracer() {
        // Orphan End, mismatched End, abandoned Start, truncated Start,
        // eviction — every ledger branch, compared against the online
        // worker on the same bytes.
        let (symtab, funcs) = symtab(2);
        let ip = VirtAddr(symtab.range(funcs[0]).start.as_u64());
        let mut b = TraceBundle::default();
        // Core 0: orphan end with spin samples before it.
        b.samples.push(sample(0, 10, ip));
        b.marks.push(mark(0, 20, 7, MarkKind::End));
        // Then a clean item.
        b.marks.push(mark(0, 30, 1, MarkKind::Start));
        b.samples.push(sample(0, 40, ip));
        b.samples.push(sample(0, 50, ip));
        b.marks.push(mark(0, 60, 1, MarkKind::End));
        // Mismatched end discards pending.
        b.marks.push(mark(0, 70, 2, MarkKind::Start));
        b.samples.push(sample(0, 80, ip));
        b.marks.push(mark(0, 90, 9, MarkKind::End));
        // Abandoned start.
        b.marks.push(mark(0, 100, 3, MarkKind::Start));
        b.samples.push(sample(0, 110, ip));
        b.marks.push(mark(0, 120, 4, MarkKind::Start));
        b.samples.push(sample(0, 130, ip));
        b.samples.push(sample(0, 140, ip));
        b.marks.push(mark(0, 150, 4, MarkKind::End));
        // Core 1: truncated start with pending samples.
        b.marks.push(mark(1, 10, 5, MarkKind::Start));
        b.samples.push(sample(1, 20, ip));
        b.sort();

        let mut ocfg = OnlineConfig::new(freq());
        ocfg.divergence_factor = 0.0;
        ocfg.warmup = 0;
        ocfg.max_pending = 2;
        let tracer = OnlineTracer::spawn(Arc::clone(&symtab), ocfg);
        tracer.submit(b.clone()).unwrap();
        let online = tracer.finish().unwrap();

        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 2;
        cfg.max_pending = 2;
        cfg.divergence_factor = 0.0;
        cfg.warmup = 0;
        let wi = run_windowed(&[b], &symtab, cfg);
        let r = wi.report();
        assert_eq!(r.loss, online.loss);
        assert_eq!(r.items_processed, online.items_processed);
        assert!(r.conserves_samples());
        assert!(r.loss.marks_orphaned > 0);
        assert!(r.loss.marks_mismatched > 0);
        assert!(r.loss.starts_abandoned > 0);
        assert!(r.loss.starts_truncated > 0);
        assert!(r.loss.samples_discarded > 0);
    }

    #[test]
    fn retention_evicts_oldest_and_counts_bytes() {
        let (batches, symtab) = workload(40, 4);
        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 4;
        cfg.max_windows = 3;
        let wi = run_windowed(&batches, &symtab, cfg);
        let r = wi.report();
        assert_eq!(r.windows_closed, 20);
        assert_eq!(wi.windows().count(), 3);
        assert_eq!(r.windows_evicted, 17);
        assert!(r.evicted_bytes > 0);
        // Oldest retained window is the (closed - retained)th.
        let first = wi.windows().next().unwrap();
        assert_eq!(first.index, 17);
        // Loss snapshots are monotone in the retained ring.
        let mut prev = 0u64;
        for w in wi.windows() {
            let lost = w.loss.samples_lost() + w.loss.samples_spin;
            assert!(lost >= prev);
            prev = lost;
        }
    }

    #[test]
    fn window_summaries_partition_the_item_stream() {
        let (batches, symtab) = workload(17, 5);
        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 6;
        cfg.max_windows = 1 << 20;
        let wi = run_windowed(&batches, &symtab, cfg);
        let r = wi.report();
        let items: u64 = wi.windows().map(|w| w.items).sum();
        let samples: u64 = wi.windows().map(|w| w.samples).sum();
        assert_eq!(items, r.items_processed);
        assert_eq!(samples, r.samples_attributed);
        // Every full window holds exactly window_items; only the final
        // flush may be partial.
        let sizes: Vec<u64> = wi.windows().map(|w| w.items).collect();
        for &s in sizes.iter().rev().skip(1) {
            assert_eq!(s, 6);
        }
        // Per-window tables sum (in the cycle-free sample dimension) to
        // the cumulative table.
        let cum = wi.cumulative_table().unwrap();
        let window_samples: u64 = wi
            .windows()
            .flat_map(|w| w.table.items())
            .flat_map(|ie| ie.funcs.iter())
            .map(|fe| u64::from(fe.samples))
            .sum();
        let cum_samples: u64 = cum
            .items()
            .flat_map(|ie| ie.funcs.iter())
            .map(|fe| u64::from(fe.samples))
            .sum();
        assert_eq!(window_samples, cum_samples);
    }

    #[test]
    fn folded_totals_agree_with_exact_fold() {
        let (batches, symtab) = workload(19, 3);
        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 5;
        let exact = run_windowed(&batches, &symtab, cfg);
        cfg.cumulative = CumulativeMode::Folded;
        let folded = run_windowed(&batches, &symtab, cfg);
        assert_eq!(exact.folded_totals(), folded.folded_totals());
        assert!(folded.cumulative_table().is_none());
        assert_eq!(folded.report(), exact.report());
    }

    #[test]
    fn an_end_below_its_start_wraps_the_cycle_sums() {
        // Item 7 opens twice on core 0, each End arriving in the next
        // batch at a tsc 50 below its Start: two intervals of 2⁶⁴ − 50
        // cycles each, whose sums must wrap, not panic.
        let (symtab, _) = symtab(2);
        let mut batches = Vec::new();
        for (start, end) in [(1_000, 950), (2_000, 1_950)] {
            let mut open = TraceBundle::default();
            open.marks.push(mark(0, start, 7, MarkKind::Start));
            let mut close = TraceBundle::default();
            close.marks.push(mark(0, end, 7, MarkKind::End));
            batches.extend([open, close]);
        }
        let mut cfg = WindowConfig::new(freq());
        let exact = run_windowed(&batches, &symtab, cfg);
        cfg.cumulative = CumulativeMode::Folded;
        let folded = run_windowed(&batches, &symtab, cfg);
        assert_eq!(exact.report().items_processed, 2);
        assert_eq!(exact.folded_totals().marked_cycles, u64::MAX - 99);
        assert_eq!(exact.folded_totals(), folded.folded_totals());
        assert!(exact.cumulative_table().is_some());
    }

    #[test]
    fn windowed_durations_are_not_naively_additive() {
        // The reason the accumulator lives in the cycle domain: at 3 GHz
        // cycles_to_dur truncates, so splitting one span across windows
        // and summing the per-window durations underestimates. Pin the
        // effect so nobody "simplifies" the accumulator into duration
        // sums.
        let f = freq();
        let (a, b, c) = (1u64, 2u64, 3u64);
        assert_eq!(a + b, c);
        assert!(f.cycles_to_dur(a) + f.cycles_to_dur(b) < f.cycles_to_dur(c));
    }

    #[test]
    fn finish_stream_is_idempotent_and_flushes_partial_window() {
        let (batches, symtab) = workload(7, 3);
        let mut cfg = WindowConfig::new(freq());
        cfg.window_items = 1000;
        let mut wi = WindowedIntegrator::new(Arc::clone(&symtab), cfg);
        for b in &batches {
            wi.ingest(b.clone());
        }
        assert_eq!(wi.windows_closed(), 0);
        wi.finish_stream();
        assert_eq!(wi.windows_closed(), 1);
        let r = wi.report();
        wi.finish_stream();
        assert_eq!(wi.report(), r);

        // A second stream segment is accounted like the first: two
        // truncated Starts, one sample each, and the ledger carries on.
        let ip = VirtAddr(symtab.range(FuncId(0)).start.as_u64());
        let mut wi = WindowedIntegrator::new(Arc::clone(&symtab), cfg);
        for tsc in [100, 200] {
            let mut b = TraceBundle::default();
            b.marks.push(mark(0, tsc, tsc, MarkKind::Start));
            b.samples.push(sample(0, tsc + 1, ip));
            wi.ingest(b);
            wi.finish_stream();
        }
        let r = wi.report();
        assert_eq!(r.loss.starts_truncated, 2);
        assert_eq!((r.samples_seen, r.loss.samples_discarded), (2, 2));
        assert!(r.conserves_samples());
        wi.finish_stream();
        assert_eq!(wi.report(), r);
    }
}
