//! Windowed-integration conformance: the incremental daemon path
//! (`fluctrace_core::WindowedIntegrator`) against the same oracles that
//! judge the batch pipeline.
//!
//! [`check_windowed`] ingests a generated [`Workload`] batch by batch
//! at a given window size and demands:
//!
//! 1. the 11-counter loss ledger and attribution totals equal the
//!    online-replay oracle exactly (windowing must never change what is
//!    counted, only when summaries close),
//! 2. the flag-everything episode stream equals the oracle's anomaly
//!    set key for key,
//! 3. the cumulative estimate table — windows closed, summarized, and
//!    evicted along the way — serializes byte-identically, on every
//!    run, to the table folded from the online-replay oracle's
//!    completed items, and to the brute-force offline oracle whenever
//!    the two are comparable (no eviction, no discard, unique item
//!    ids),
//! 4. under the same condition, every row of every retained window's
//!    table equals that item's oracle row (with unique ids an item
//!    completes in exactly one window, so its window row is its
//!    whole-run row), and
//! 5. the `Folded` steady-memory mode agrees with the fold of the
//!    `Exact` accumulator.
//!
//! Sweeping `check_windowed` across window sizes (see
//! `tests/windowed.rs`) is the proof that W-window incremental
//! integration is byte-identical to the one-shot batch run: every W
//! must produce the same cumulative table bytes and the same ledger.

use crate::driver::{CanonicalRow, CanonicalTable, Disagreement};
use crate::gen::Workload;
use crate::oracle::{self, OracleCompleted, OracleOnline};
use fluctrace_core::{CumulativeMode, WindowConfig, WindowedIntegrator};
use fluctrace_sim::Freq;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What one windowed conformance run covered.
#[derive(Debug, Clone, Default)]
pub struct WindowedSummary {
    /// Seed of the workload.
    pub seed: u64,
    /// Window size (items) the run used.
    pub window_items: u64,
    /// Windows the integrator closed.
    pub windows_closed: u64,
    /// Windows evicted by the retention ring along the way.
    pub windows_evicted: u64,
    /// Episodes recorded (flag-everything).
    pub episodes: u64,
    /// True when the cumulative-table-vs-offline-oracle comparison
    /// applied (no eviction or discard, unique item ids).
    pub table_checked: bool,
    /// Rows of retained window tables compared with the oracle (zero
    /// unless `table_checked`).
    pub window_rows_checked: u64,
    /// Canonical JSON of the cumulative table, for cross-window-size
    /// byte comparison by the caller.
    pub table_json: String,
}

fn fail(seed: u64, stage: &'static str, detail: String) -> Disagreement {
    Disagreement {
        seed,
        stage,
        detail,
    }
}

/// Episode comparison key, mirroring the driver's anomaly key:
/// `(item, func, elapsed_ps, samples)`.
type EpisodeKey = (u64, u32, u64, usize);

/// Run one workload through the windowed integrator at `window_items`
/// and compare against the oracles.
pub fn check_windowed(w: &Workload, window_items: u64) -> Result<WindowedSummary, Disagreement> {
    let seed = w.spec.seed;
    let oracle_off = oracle::offline_oracle(&w.bundle.marks, &w.bundle.samples, &w.symtab, w.freq);
    let oracle_on = oracle::online_oracle(
        &w.bundle.marks,
        &w.bundle.samples,
        &w.symtab,
        w.freq,
        w.spec.max_pending,
    );

    // Flag-everything, full episode retention, tight window retention
    // so eviction runs on most seeds without touching the cumulative
    // state or the ledger.
    let mut config = WindowConfig::new(w.freq);
    config.window_items = window_items;
    config.max_windows = 2;
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;
    config.max_episodes = usize::MAX;
    config.cumulative = CumulativeMode::Exact;

    let mut integ = WindowedIntegrator::new(Arc::clone(&w.symtab), config);
    for batch in &w.batches {
        integ.ingest(batch.clone());
    }
    integ.finish_stream();
    let report = integ.report();

    check_ledger(seed, window_items, &report, &oracle_on)?;

    // Episode stream == oracle anomaly set, order-independently.
    let mut got: Vec<EpisodeKey> = integ
        .episodes()
        .map(|e| (e.item.0, e.func.0, e.elapsed.as_ps(), e.samples as usize))
        .collect();
    got.sort_unstable();
    let want: Vec<EpisodeKey> = oracle_on
        .anomalies
        .iter()
        .map(|a| (a.item, a.func, a.elapsed_ps, a.raw_samples))
        .collect();
    if got != want {
        return Err(fail(
            seed,
            "windowed-episodes",
            format!("W={window_items}:\n  windowed {got:?}\n  oracle   {want:?}"),
        ));
    }

    // Cumulative table: carried across every close/evict, rendered
    // once. Against the offline oracle when the runs are comparable.
    let table = match integ.cumulative_table() {
        Some(t) => t,
        None => {
            return Err(fail(
                seed,
                "windowed-table",
                "Exact mode returned None".into(),
            ))
        }
    };
    if table.samples_missing_span != 0 {
        return Err(fail(
            seed,
            "windowed-missing-span",
            format!("{} samples missing a span id", table.samples_missing_span),
        ));
    }
    let table_json = CanonicalTable::from_pipeline(&table).to_json();
    let replayed = completed_table(&oracle_on.completed, w.freq).to_json();
    if table_json != replayed {
        return Err(fail(
            seed,
            "windowed-table-replay",
            format!("W={window_items}:\n  windowed: {table_json}\n  replay:   {replayed}"),
        ));
    }
    let comparable = oracle_on.loss.samples_evicted == 0
        && oracle_on.loss.samples_discarded == 0
        && !w.spec.shared_items;
    let mut window_rows_checked = 0;
    if comparable {
        let golden = CanonicalTable::from_oracle(&oracle_off);
        let golden_json = golden.to_json();
        if table_json != golden_json {
            return Err(fail(
                seed,
                "windowed-table",
                format!("W={window_items}:\n  windowed: {table_json}\n  oracle:   {golden_json}"),
            ));
        }
        window_rows_checked = check_window_rows(seed, window_items, &integ, &golden)?;
    }

    check_folded_twin(w, window_items, &integ)?;

    Ok(WindowedSummary {
        seed,
        window_items,
        windows_closed: report.windows_closed,
        windows_evicted: report.windows_evicted,
        episodes: report.episodes,
        table_checked: comparable,
        window_rows_checked,
        table_json,
    })
}

/// The table the online replay's completed items imply: each id's
/// completions merged as one item's spans are — marked cycles, span
/// cycles and counts summed, cycles with wrap-around — and converted to
/// picoseconds once.
fn completed_table(completed: &[OracleCompleted], freq: Freq) -> CanonicalTable {
    type Merged = (u64, BTreeMap<u32, (u32, u64)>, u32);
    let mut items: BTreeMap<u64, Merged> = BTreeMap::new();
    for done in completed {
        let (marked, funcs, unknown) = items.entry(done.item).or_default();
        *marked = marked.wrapping_add(done.end_tsc.wrapping_sub(done.start_tsc));
        *unknown += done.unknown;
        for (&func, &(first, last, samples)) in &done.funcs {
            let e = funcs.entry(func).or_default();
            e.0 += samples;
            e.1 = e.1.wrapping_add(last - first);
        }
    }
    let ps = |cycles: u64| freq.cycles_to_dur(cycles).as_ps();
    CanonicalTable {
        rows: items
            .into_iter()
            .map(|(item, (marked, funcs, unknown))| CanonicalRow {
                item,
                marked_total_ps: Some(ps(marked)),
                funcs: funcs
                    .into_iter()
                    .map(|(func, (samples, cycles))| (func, samples, ps(cycles)))
                    .collect(),
                unknown_func_samples: unknown,
            })
            .collect(),
    }
}

/// Every row of every retained window's table against the oracle's row
/// for that item, as canonical JSON. Returns the rows compared.
fn check_window_rows(
    seed: u64,
    window_items: u64,
    integ: &WindowedIntegrator,
    golden: &CanonicalTable,
) -> Result<u64, Disagreement> {
    let mut checked = 0;
    for window in integ.windows() {
        for row in CanonicalTable::from_pipeline(&window.table()).rows {
            let want = golden
                .rows
                .binary_search_by_key(&row.item, |r| r.item)
                .ok()
                .and_then(|i| golden.rows.get(i));
            let got = serde_json::to_string(&row);
            let want = want.map(serde_json::to_string);
            if !matches!((&got, &want), (Ok(g), Some(Ok(w))) if g == w) {
                return Err(fail(
                    seed,
                    "windowed-window-row",
                    format!(
                        "W={window_items} window {}:\n  window: {got:?}\n  oracle: {want:?}",
                        window.index
                    ),
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// The 11-counter ledger plus attribution totals vs the online oracle.
fn check_ledger(
    seed: u64,
    window_items: u64,
    report: &fluctrace_core::WindowReport,
    oracle_on: &OracleOnline,
) -> Result<(), Disagreement> {
    let got = (
        report.items_processed,
        report.samples_seen,
        report.samples_attributed,
        report.loss.samples_evicted,
        report.loss.samples_discarded,
        report.loss.samples_spin,
        report.loss.marks_orphaned,
        report.loss.marks_mismatched,
        report.loss.starts_abandoned,
        report.loss.starts_truncated,
        report.loss.boundary_samples,
    );
    let want = (
        oracle_on.items_processed,
        oracle_on.samples_seen,
        oracle_on.samples_attributed,
        oracle_on.loss.samples_evicted,
        oracle_on.loss.samples_discarded,
        oracle_on.loss.samples_spin,
        oracle_on.loss.marks_orphaned,
        oracle_on.loss.marks_mismatched,
        oracle_on.loss.starts_abandoned,
        oracle_on.loss.starts_truncated,
        oracle_on.loss.boundary_samples,
    );
    if got != want {
        return Err(fail(
            seed,
            "windowed-accounting",
            format!(
                "W={window_items} (items, seen, attributed, evicted, discarded, spin, \
                 orphaned, mismatched, abandoned, truncated, boundary):\n  \
                 windowed: {got:?}\n  oracle:   {want:?}"
            ),
        ));
    }
    if !report.conserves_samples() {
        return Err(fail(
            seed,
            "windowed-conservation",
            format!(
                "W={window_items}: seen {} != attributed {} + evicted {} + discarded {} + spin {}",
                report.samples_seen,
                report.samples_attributed,
                report.loss.samples_evicted,
                report.loss.samples_discarded,
                report.loss.samples_spin
            ),
        ));
    }
    Ok(())
}

/// Run the same stream through a `Folded` twin and demand its
/// steady-memory totals equal the fold of the exact accumulator.
fn check_folded_twin(
    w: &Workload,
    window_items: u64,
    exact: &WindowedIntegrator,
) -> Result<(), Disagreement> {
    let seed = w.spec.seed;
    let mut config = *exact.config();
    config.cumulative = CumulativeMode::Folded;
    let mut folded = WindowedIntegrator::new(Arc::clone(&w.symtab), config);
    for batch in &w.batches {
        folded.ingest(batch.clone());
    }
    folded.finish_stream();
    if folded.cumulative_table().is_some() {
        return Err(fail(
            seed,
            "windowed-folded",
            "Folded mode produced an exact table".into(),
        ));
    }
    let a = serde_json::to_string(&exact.folded_totals());
    let b = serde_json::to_string(&folded.folded_totals());
    match (a, b) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Ok(a), Ok(b)) => Err(fail(
            seed,
            "windowed-folded",
            format!("W={window_items}:\n  exact-fold: {a}\n  folded:     {b}"),
        )),
        (a, b) => Err(fail(
            seed,
            "windowed-folded",
            format!("serialize failed: {a:?} / {b:?}"),
        )),
    }
}
