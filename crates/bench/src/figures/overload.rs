//! Entries over the online tracer under injected faults (§ IV.C.3) and
//! the DepGraph ground-truth recovery sweep.

use super::Report;
use crate::depgraph_experiment::depgraph_data;
use crate::overload_experiment::{
    overload_symtab, run_degradation, run_overload, run_stall, OverloadConfig,
};
use crate::{run_sweep, Scale};
use fluctrace_analysis::{accounting_exact, loss_table, Figure, LossRow, Series};
use fluctrace_core::online::{OnlineConfig, OnlineTracer};
use fluctrace_core::AdaptiveConfig;
use fluctrace_cpu::TraceBundle;
use fluctrace_sim::{FaultPlan, Freq};

/// Seed for the overload fault schedules.
const OVERLOAD_SEED: u64 = 0x0b5e_55ed;
/// Pending-sample cap of the overload sweep (and of its replay).
const OVERLOAD_MAX_PENDING: usize = 64;
/// Burst length of the overload sweep — > `OVERLOAD_MAX_PENDING`, so
/// bursts force eviction.
const OVERLOAD_BURST_LEN: u32 = 100;
/// Total fault rates swept, per mille, split evenly across the three
/// fault classes.
const RATES_PER_MILLE: [u32; 5] = [0, 30, 90, 150, 300];

/// Overload robustness of the online tracer (§ IV.C.3 under fault
/// injection).
///
/// Sweeps fault rates (lost Start marks, corrupted End marks, sample
/// bursts) through the online tracer and prints the injected-vs-observed
/// loss ledger — every category must match to the unit. Also runs the
/// slow-consumer stall scenario (exact `try_submit` drop accounting) and
/// the adaptive effective-reset policy under a scripted occupancy wave.
/// `keep_bundles` keeps one faulted stream per sweep point; it enters
/// no computation.
pub(super) fn overload(scale: Scale, keep_bundles: bool) -> Report {
    let mut r = Report::default();
    let items = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    say!(
        r,
        "§IV.C.3 under fault injection — online loss accounting ({items} items)\n"
    );
    let configs = RATES_PER_MILLE
        .iter()
        .map(|&rate| {
            let plan = FaultPlan {
                drop_open_per_mille: rate / 3,
                corrupt_close_per_mille: rate / 3,
                burst_per_mille: rate / 3,
                burst_len: OVERLOAD_BURST_LEN,
            };
            OverloadConfig {
                items,
                schedule: plan.schedule(items, OVERLOAD_SEED),
                max_pending: OVERLOAD_MAX_PENDING,
                keep_bundle: keep_bundles,
            }
        })
        .collect();
    let results = run_sweep(configs, |cfg| run_overload(&cfg));

    let mut fig = Figure::new(
        "overload",
        "Online loss accounting vs injected fault rate",
        "fault rate (per mille)",
        "count",
    );
    let mut lost = Series::new("samples_lost");
    let mut faulted_marks = Series::new("marks_faulted");
    let mut boundary = Series::new("boundary_samples");
    let mut processed = Series::new("items_processed");
    for (&rate, run) in RATES_PER_MILLE.iter().zip(&results) {
        let (x, loss) = (rate as f64, &run.report.loss);
        lost.push(x, loss.samples_lost() as f64);
        faulted_marks.push(x, (loss.marks_orphaned + loss.marks_mismatched) as f64);
        boundary.push(x, loss.boundary_samples as f64);
        processed.push(x, run.report.items_processed as f64);
    }
    fig.add(lost)
        .add(faulted_marks)
        .add(boundary)
        .add(processed);

    let (degrade_trace, degrade) = run_degradation(120, 40, 1.0, AdaptiveConfig::new());
    let mut degrade_fig = Figure::new(
        "overload_degrade",
        "Adaptive effective-reset factor under scripted occupancy",
        "step",
        "thinning factor",
    );
    let mut factor = Series::new("factor");
    for (i, &v) in degrade_trace.iter().enumerate() {
        factor.push(i as f64, v as f64);
    }
    degrade_fig.add(factor);

    // Ledger for the harshest sweep point: each expected count beside
    // the report field that observed it.
    let [.., worst_rate] = RATES_PER_MILLE;
    let worst = &results[RATES_PER_MILLE.len() - 1];
    let (expected, report) = (&worst.expected, &worst.report);
    let rows = vec![
        LossRow::new(
            "items processed",
            expected.items_processed,
            report.items_processed,
        ),
        LossRow::new("samples seen", expected.samples_seen, report.samples_seen),
        LossRow::new(
            "marks orphaned",
            expected.marks_orphaned,
            report.loss.marks_orphaned,
        ),
        LossRow::new(
            "marks mismatched",
            expected.marks_mismatched,
            report.loss.marks_mismatched,
        ),
        LossRow::new(
            "samples discarded",
            expected.samples_discarded,
            report.loss.samples_discarded,
        ),
        LossRow::new(
            "samples evicted",
            expected.samples_evicted,
            report.loss.samples_evicted,
        ),
        LossRow::new(
            "boundary samples",
            expected.boundary_samples,
            report.loss.boundary_samples,
        ),
    ];
    say!(r, "loss ledger at {worst_rate} per-mille faults:");
    say!(r, "{}", loss_table(&rows));
    if !(accounting_exact(&rows) && results.iter().all(|run| run.accounting_exact())) {
        r.fail("loss accounting must match the injected schedule exactly");
    }

    // Slow-consumer stall: exact drop accounting through try_submit.
    let stall = run_stall(200, 16);
    say!(
        r,
        "stall: {} batches offered to a parked worker over a 16-batch channel -> \
         {} dropped (expected {}), {} items processed",
        200,
        stall.batches_dropped,
        stall.expected_dropped,
        stall.items_processed
    );
    if stall.batches_dropped != stall.expected_dropped {
        r.fail("the stall must drop exactly the channel overflow");
    }

    // Adaptive effective-reset policy under a scripted occupancy wave.
    say!(
        r,
        "adaptive-R under a triangle occupancy wave: {} episodes, peak factor {}x, \
         final factor {}x",
        degrade.episodes,
        degrade.peak_factor_milli as f64 / 1000.0,
        degrade.final_factor_milli as f64 / 1000.0
    );

    r.figure(&fig);
    r.figure(&degrade_fig);
    r.bundles = results.into_iter().filter_map(|run| run.bundle).collect();
    r
}

/// Replay a spilled faulted stream through a fresh online tracer: the
/// store round-trip is bit-exact, so the replayed report reproduces the
/// loss ledger of the original run (batch cuts aside).
pub(super) fn replay(bundle: TraceBundle) -> Report {
    let mut r = Report::default();
    let (symtab, _) = overload_symtab();
    let mut cfg = OnlineConfig::new(Freq::ghz(3));
    cfg.max_pending = OVERLOAD_MAX_PENDING;
    let tracer = OnlineTracer::spawn(symtab, cfg);
    let submitted = tracer.submit(bundle).map_err(|e| e.to_string());
    match submitted.and_then(|()| tracer.finish().map_err(|e| e.to_string())) {
        Ok(report) => say!(
            r,
            "replayed through the online tracer: {} items, {} samples seen, \
             {} attributed, {} lost",
            report.items_processed,
            report.samples_seen,
            report.samples_attributed,
            report.loss.samples_lost()
        ),
        Err(e) => r.fail(format!("online tracer replay: {e}")),
    }
    r
}

/// The DepGraph ground-truth recovery sweep: every seeded fault
/// scenario is diagnosed by the wait-dependency walker and the
/// per-episode explanations are printed; `depgraph.json` and the
/// canonical `depgraph_report.json` are the documents.
pub(super) fn depgraph(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    say!(
        r,
        "DepGraph wait-dependency diagnosis — ground-truth recovery sweep\n"
    );
    let data = depgraph_data(scale);
    for case in &data.report.cases {
        for episode in &case.diagnosis.episodes {
            say!(r, "  {}: {}", case.label, episode.explanation);
        }
    }
    say!(
        r,
        "\n{} cases: all_recovered={} all_exact={}",
        data.report.cases.len(),
        data.all_recovered,
        data.all_exact
    );
    if !(data.all_recovered && data.all_exact) {
        r.fail("walker must recover every declared root with exact accounting");
    }
    r.figure(&data.figure);
    let report = data.report.to_canonical_json();
    r.docs.push(("depgraph_report".into(), report));
    r
}
