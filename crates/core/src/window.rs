//! Windowed / incremental integration: the bounded-memory substrate of
//! the `fluctrace-serve` daemon.
//!
//! The batch pipeline holds a whole trace in memory before integrating
//! it; an always-on tracer cannot. [`WindowedIntegrator`] consumes the
//! same `TraceBundle` batches the online tracer does — it drives the
//! same `pairing` state machine as the online worker, so pairing,
//! eviction and the 11-counter [`LossStats`] ledger are one definition
//! — but cuts the completed-item stream into **windows** of
//! [`WindowConfig::window_items`] items. A completed item's raw samples
//! are dropped as soon as it is folded into the one form a completed
//! item is kept in: per completion `(item, marked cycles, unknown
//! samples, number of entries)`, and the pairing core's span fold as
//! it is — one `(func, samples, cycles)` entry per function — in two
//! flat columns that the open window reuses from window to window.
//! Closing a window copies them, sized exactly, into a
//! [`WindowSummary`] (and appends them to [`CumulativeMode::Exact`]'s
//! columns). Tables are built only on read: the items are sorted by id
//! and fed to the batch estimator's builder the way its own fold feeds
//! it, one item and its entries at a time, so a window's table and the
//! cumulative table are assembled by the same code as a batch run's.
//! Old summaries are evicted once [`WindowConfig::max_windows`] are
//! retained. Loss counters, anomaly baselines and the cumulative state
//! carry forward across every window boundary, so nothing about the
//! *accounting* is windowed — only the memory.
//!
//! ## Exactness across window boundaries
//!
//! `Freq::cycles_to_dur` truncates (integer division), so per-window
//! `SimDuration`s are **not** additive: summing window tables would
//! drift from the batch run by up to a picosecond per window per
//! function. The cumulative state therefore stays in the *cycle*
//! domain and converts once at render time, exactly as the batch
//! estimator does. The conformance `windowed` leg pins
//! `cumulative_table()` byte-identical to the one-shot batch pipeline
//! across window sizes.
//!
//! ## Two cumulative modes
//!
//! * [`CumulativeMode::Exact`] keeps every completed item's columns:
//!   O(completed items + their function entries), 24 bytes a row and 16
//!   an entry — bounded for any finite run, and the mode every
//!   byte-equality check uses, but not constant over an unbounded
//!   stream. A repeated item id keeps a row per completion (the table
//!   merges them).
//! * [`CumulativeMode::Folded`] keeps only per-function totals (plus
//!   whole-stream marked/unknown counts): constant memory regardless of
//!   stream length, for truly unbounded deployments. The fold loses the
//!   per-item axis, and says so instead of pretending otherwise — see
//!   `SERVE.md`'s steady-memory argument.

use crate::estimate::{EstimateTable, FuncSpan, TableBuilder};
use crate::pairing::{Completed, LossStats, Pairing, PairingConfig};
use fluctrace_cpu::{FuncId, ItemId, SymbolTable, TraceBundle};
use fluctrace_obs as obs;
use fluctrace_sim::{Freq, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How the cross-window cumulative state is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CumulativeMode {
    /// Every completed item's columns: renders a table byte-identical
    /// to the batch pipeline, at memory proportional to completed items
    /// and their function entries.
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
/// it are gone by the time this exists: it keeps each item's folds in
/// the cycle domain, and [`Self::table`] assembles the window's
/// [`EstimateTable`] from them on request.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Zero-based window index.
    pub index: u64,
    /// Items completed in this window.
    pub items: u64,
    /// Samples attributed to those items.
    pub samples: u64,
    /// Anomaly episodes recorded while this window was open.
    pub anomalies: u64,
    /// Snapshot of the *cumulative* loss ledger at window close — the
    /// counters never reset, so consecutive snapshots are monotone and
    /// differencing two of them gives the per-window loss exactly.
    pub loss: LossStats,
    freq: Freq,
    /// The window's completed items, sized exactly at close.
    folds: ItemFolds,
}

/// One completed item: its id, the cycles between its marks, its
/// samples whose IP resolved to no function, and how many entries it
/// has in the `funcs` column.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ItemRow {
    item: ItemId,
    marked_cycles: u64,
    unknown: u32,
    /// One per distinct `FuncId` in the item, so it fits a `u32`.
    funcs: u32,
}

/// Completed items in the cycle domain, in completion order, as the open
/// window, a [`WindowSummary`] and the exact cumulative state keep them.
/// Rows store entry counts, not offsets, so two concatenate by `extend`.
#[derive(Debug, Clone, Default, PartialEq)]
struct ItemFolds {
    /// One row per completion.
    rows: Vec<ItemRow>,
    /// Each row's entries, ascending by function, after the previous
    /// row's.
    funcs: Vec<FuncSpan>,
}

impl ItemFolds {
    /// Append one completed item.
    fn push(&mut self, done: &Completed<'_>) {
        self.funcs.extend_from_slice(done.spans);
        self.rows.push(ItemRow {
            item: done.interval.item,
            marked_cycles: done.interval.cycles(),
            unknown: done.unknown,
            funcs: done.spans.len() as u32,
        });
    }

    /// Each row with its entries, in completion order.
    fn items(&self) -> impl Iterator<Item = (&ItemRow, &[FuncSpan])> {
        let mut rest = self.funcs.as_slice();
        self.rows.iter().map(move |row| {
            let (funcs, tail) = rest
                .split_at_checked(row.funcs as usize)
                .unwrap_or((rest, &[]));
            rest = tail;
            (row, funcs)
        })
    }
}

/// The table of every completed item in `parts`, assembled as the batch
/// fold assembles one: the rows sorted by item, their marked cycles as
/// the builder's totals, and each id's entries (of every completion of
/// it) handed over in one call, which merges them order-free — so an
/// unstable sort, with no scratch buffer, is enough.
fn table_of(parts: &[&ItemFolds], freq: Freq) -> EstimateTable {
    let mut rows: Vec<(&ItemRow, &[FuncSpan])> =
        Vec::with_capacity(parts.iter().map(|folds| folds.rows.len()).sum());
    rows.extend(parts.iter().flat_map(|folds| folds.items()));
    rows.sort_unstable_by_key(|(row, _)| row.item);
    let totals = rows.iter().map(|(row, _)| (row.item, row.marked_cycles));
    let mut builder = TableBuilder::new(totals, freq, rows.len());
    let mut spans = Vec::new();
    for completions in rows.chunk_by(|a, b| a.0.item == b.0.item) {
        let mut unknown = 0;
        for (row, funcs) in completions {
            unknown += row.unknown;
            spans.extend_from_slice(funcs);
        }
        if let Some((row, _)) = completions.first() {
            builder.push(row.item, unknown, &mut spans);
        }
    }
    builder.finish(0)
}

impl WindowSummary {
    /// Per-item per-function estimates for this window only, assembled
    /// from the kept folds by the batch estimator's builder; an item id
    /// completed more than once in the window gets one row, as in a
    /// batch table.
    pub fn table(&self) -> EstimateTable {
        table_of(&[&self.folds], self.freq)
    }

    /// Heap footprint of the kept columns plus the summary itself, for
    /// the eviction byte ledger. The columns are sized exactly at close,
    /// so this is what the summary holds.
    pub fn approx_bytes(&self) -> u64 {
        (std::mem::size_of::<WindowSummary>()
            + self.folds.rows.len() * std::mem::size_of::<ItemRow>()
            + self.folds.funcs.len() * std::mem::size_of::<FuncSpan>()) as u64
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

/// The open window's accumulating state: the same columns a
/// [`WindowSummary`] keeps, cleared (not freed) at close so a steady
/// stream stops allocating for them after the first windows.
#[derive(Default)]
struct OpenWindow {
    folds: ItemFolds,
    samples: u64,
    anomalies: u64,
}

/// Cross-window cumulative state. Both variants live in the cycle
/// domain; time conversion happens once, at render.
enum Accum {
    /// Closed windows' columns; reads add the open window's.
    Exact(ItemFolds),
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
            CumulativeMode::Exact => Accum::Exact(ItemFolds::default()),
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

    /// Ingest one batch: the pairing core sorts it, walks each core's
    /// marks over its samples and accounts for what it cannot attribute;
    /// every item it completes is folded into the open window (and, in
    /// [`CumulativeMode::Folded`], the per-function totals) and may
    /// close the window. A batch that flagged any episode records one
    /// `window.episodes` flight event with their count.
    pub fn ingest(&mut self, batch: TraceBundle) {
        obs::span!("window.batch", batch.samples.len());
        let folds = &mut self.folds;
        let before = folds.episodes_total;
        self.pairing.ingest(batch, |done| folds.finish_item(done));
        let flagged = folds.episodes_total - before;
        if flagged > 0 {
            obs::event("window.episodes", flagged);
        }
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
    /// every completed item, closed windows' and the open window's,
    /// goes through the same assembly as a window's table, so the
    /// conversion-once arithmetic is literally the batch estimator's.
    pub fn cumulative_table(&self) -> Option<EstimateTable> {
        let Accum::Exact(closed) = &self.folds.accum else {
            return None;
        };
        Some(table_of(
            &[closed, &self.folds.open.folds],
            self.folds.config.freq,
        ))
    }

    /// Per-function cumulative totals. Always available: in `Exact`
    /// mode they are derived by folding the columns (closed and open),
    /// so the two modes can be cross-checked against each other.
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
            Accum::Exact(closed) => {
                let mut fold: BTreeMap<FuncId, (u64, u64)> = BTreeMap::new();
                let mut totals = FoldedTotals::default();
                for folds in [closed, &self.folds.open.folds] {
                    for s in &folds.funcs {
                        let e = fold.entry(s.func).or_insert((0, 0));
                        e.0 += u64::from(s.samples);
                        e.1 = e.1.wrapping_add(s.cycles);
                    }
                    // Wraps like the `Folded` twin.
                    for row in &folds.rows {
                        totals.marked_cycles = totals.marked_cycles.wrapping_add(row.marked_cycles);
                        totals.unknown_samples += u64::from(row.unknown);
                    }
                    totals.items += folds.rows.len() as u64;
                }
                totals.funcs = fold
                    .into_iter()
                    .map(|(func, (samples, cycles))| (func, samples, cycles))
                    .collect();
                totals
            }
        }
    }
}

impl Folds {
    /// Fold one completed item into the episode ring and the open window
    /// (and `Folded`'s totals); its samples are counted, never kept.
    fn finish_item(&mut self, done: Completed<'_>) {
        let interval = done.interval;
        if let Some((func, elapsed, baseline_mean)) = done.divergence {
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

        self.open.samples += done.samples.len() as u64;
        self.open.folds.push(&done);
        // `Folded` keeps its own dense fold, so `folded_totals()` in
        // exact mode (a fold of the columns) is an independent twin.
        if let Accum::Folded {
            funcs,
            marked_cycles,
            unknown_samples,
            items,
        } = &mut self.accum
        {
            for s in done.spans {
                if let Some(e) = funcs.get_mut(s.func.index()) {
                    e.0 += u64::from(s.samples);
                    e.1 = e.1.wrapping_add(s.cycles);
                }
            }
            *marked_cycles = marked_cycles.wrapping_add(interval.cycles());
            *unknown_samples += u64::from(done.unknown);
            *items += 1;
        }

        if self.open.folds.rows.len() as u64 >= self.config.window_items.max(1) {
            self.close_window(done.counts.loss);
        }
    }

    /// Close the open window: copy its columns, sized exactly, into a
    /// summary that pins the cumulative ledger `loss`, append them to
    /// the exact cumulative columns, clear the open columns for reuse,
    /// and evict the oldest summary past the retention bound. No table
    /// is built here; see [`WindowSummary::table`].
    fn close_window(&mut self, loss: LossStats) {
        if self.open.folds.rows.is_empty() {
            return;
        }
        let open = &mut self.open;
        obs::span!("window.close", open.folds.rows.len() as u64);
        if let Accum::Exact(closed) = &mut self.accum {
            closed.rows.extend_from_slice(&open.folds.rows);
            closed.funcs.extend_from_slice(&open.folds.funcs);
        }
        let summary = WindowSummary {
            index: self.windows_closed,
            items: open.folds.rows.len() as u64,
            samples: open.samples,
            anomalies: open.anomalies,
            loss,
            freq: self.config.freq,
            // `clone` sizes each column to its length.
            folds: open.folds.clone(),
        };
        open.folds.rows.clear();
        open.folds.funcs.clear();
        open.samples = 0;
        open.anomalies = 0;
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
        CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, VirtAddr, NO_TAG,
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
        let samples_of = |table: &EstimateTable| -> u64 {
            table
                .items()
                .flat_map(|ie| ie.funcs.iter())
                .map(|fe| u64::from(fe.samples))
                .sum()
        };
        let window_samples: u64 = wi.windows().map(|w| samples_of(&w.table())).sum();
        assert_eq!(window_samples, samples_of(&wi.cumulative_table().unwrap()));
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
    fn mid_window_cumulative_reads_see_the_open_window() {
        // A stream prefix, no `finish_stream`: at 7-item windows some
        // windows have closed and the open one holds completed items; a
        // 1-item-window twin has closed every item it completed.
        let (batches, symtab) = workload(23, 4);
        let prefix = |window_items: u64, cumulative: CumulativeMode| {
            let mut cfg = WindowConfig::new(freq());
            cfg.window_items = window_items;
            cfg.cumulative = cumulative;
            let mut wi = WindowedIntegrator::new(Arc::clone(&symtab), cfg);
            for b in batches.iter().take(5) {
                wi.ingest(b.clone());
            }
            wi
        };
        let wi = prefix(7, CumulativeMode::Exact);
        let twin = prefix(1, CumulativeMode::Exact);
        assert!(wi.windows_closed() >= 1);
        assert!(
            !wi.folds.open.folds.rows.is_empty(),
            "the open window holds items"
        );
        assert!(twin.folds.open.folds.rows.is_empty());
        let table = wi.cumulative_table().expect("exact mode");
        assert_eq!(table.len() as u64, wi.report().items_processed);
        assert_eq!(Some(table), twin.cumulative_table());
        assert_eq!(wi.folded_totals(), twin.folded_totals());
        assert_eq!(
            wi.folded_totals(),
            prefix(7, CumulativeMode::Folded).folded_totals()
        );
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
