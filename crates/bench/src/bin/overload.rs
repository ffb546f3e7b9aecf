//! Overload robustness of the online tracer (§IV.C.3 under fault
//! injection).
//!
//! Sweeps fault rates (lost Start marks, corrupted End marks, sample
//! bursts) through the online tracer and prints the injected-vs-observed
//! loss ledger — every category must match to the unit. Also runs the
//! slow-consumer stall scenario (exact `try_submit` drop accounting) and
//! the adaptive effective-reset policy under a scripted occupancy wave.
//!
//! Artifacts (`overload.json`, `overload_degrade.json`) contain only
//! content-derived counts, so they are byte-identical across
//! `FLUCTRACE_THREADS` settings — CI diffs them.
//!
//! `overload diagnose` (or `--diagnose`) runs the DepGraph ground-truth
//! recovery sweep instead: every seeded fault scenario is diagnosed by
//! the wait-dependency walker, the per-episode explanations are
//! printed, and `depgraph.json` / `depgraph_report.json` are emitted —
//! both canonical and byte-identical across `FLUCTRACE_THREADS`.
//!
//! Figure assembly lives in
//! [`fluctrace_bench::figures::overload_data`] (shared with the golden
//! tests); this bin adds the ledger, the stall scenario, and the
//! assertions.

use fluctrace_analysis::{accounting_exact, loss_table, LossRow};
use fluctrace_bench::depgraph_experiment::{depgraph_data, explanations};
use fluctrace_bench::figures::{overload_data_with, OVERLOAD_MAX_PENDING};
use fluctrace_bench::overload_experiment::{overload_symtab, run_stall};
use fluctrace_bench::store_support;
use fluctrace_bench::{artifact_dir, emit, Scale};
use fluctrace_core::online::{OnlineConfig, OnlineTracer};
use fluctrace_sim::Freq;

/// Replay a spilled faulted stream through a fresh online tracer: the
/// store round-trip is bit-exact, so the replayed report reproduces the
/// loss ledger of the original run (batch cuts aside).
fn replay_main(path: &std::path::Path) {
    let bundle = match store_support::replay(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("overload --from-store: {e}");
            std::process::exit(1);
        }
    };
    let (symtab, _f) = overload_symtab();
    let mut cfg = OnlineConfig::new(Freq::ghz(3));
    cfg.max_pending = OVERLOAD_MAX_PENDING;
    let tracer = OnlineTracer::spawn(symtab, cfg);
    tracer.submit(bundle).expect("worker alive");
    let report = tracer.finish().expect("no worker panic in replay");
    println!(
        "replayed through the online tracer: {} items, {} samples seen, \
         {} attributed, {} lost",
        report.items_processed,
        report.samples_seen,
        report.samples_attributed,
        report.loss.samples_lost()
    );
    fluctrace_bench::obs_support::finish();
}

fn diagnose_main(scale: Scale) {
    println!("DepGraph wait-dependency diagnosis — ground-truth recovery sweep\n");
    let data = depgraph_data(scale);
    for line in explanations(&data.report) {
        println!("  {line}");
    }
    println!(
        "\n{} cases: all_recovered={} all_exact={}",
        data.report.cases.len(),
        data.all_recovered,
        data.all_exact
    );
    assert!(
        data.all_recovered && data.all_exact,
        "walker must recover every declared root with exact accounting"
    );

    emit(&data.figure);
    let report_path = artifact_dir().join("depgraph_report.json");
    let write = std::fs::create_dir_all(artifact_dir())
        .and_then(|()| std::fs::write(&report_path, data.report.to_canonical_json()));
    match write {
        Ok(()) => println!("[artifact] {}", report_path.display()),
        Err(e) => eprintln!("[artifact] write failed: {e}"),
    }
    fluctrace_bench::obs_support::finish();
}

fn main() {
    fluctrace_bench::obs_support::init();
    let scale = Scale::from_env();
    if std::env::args()
        .skip(1)
        .any(|a| a == "diagnose" || a == "--diagnose")
    {
        diagnose_main(scale);
        return;
    }
    let store = fluctrace_bench::obs_support::args();
    if let Some(path) = &store.from_store {
        replay_main(path);
        return;
    }
    let items = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };

    println!("§IV.C.3 under fault injection — online loss accounting ({items} items)\n");
    let data = overload_data_with(scale, store.store.is_some());
    if let Some(path) = &store.store {
        // One segment per fault-rate sweep point.
        let bundles: Vec<_> = data
            .results
            .iter()
            .filter_map(|r| r.bundle.as_ref())
            .collect();
        store_support::spill(path, &bundles);
    }

    // Ledger for the harshest sweep point. The observed side reads the
    // report's unified obs snapshot, so the ledger, the `--obs` export,
    // and the raw report fields are provably one source of truth (the
    // `ObsSection` round-trip test pins snapshot == report).
    let worst = data.results.last().expect("non-empty sweep");
    let obs = &worst.report.obs;
    let rows = vec![
        LossRow::new(
            "items processed",
            worst.expected.items_processed,
            obs.counter("core.online.items_processed"),
        ),
        LossRow::new(
            "samples seen",
            worst.expected.samples_seen,
            obs.counter("core.online.samples_seen"),
        ),
        LossRow::new(
            "marks orphaned",
            worst.expected.marks_orphaned,
            obs.counter("core.online.marks_orphaned"),
        ),
        LossRow::new(
            "marks mismatched",
            worst.expected.marks_mismatched,
            obs.counter("core.online.marks_mismatched"),
        ),
        LossRow::new(
            "samples discarded",
            worst.expected.samples_discarded,
            obs.counter("core.online.samples_discarded"),
        ),
        LossRow::new(
            "samples evicted",
            worst.expected.samples_evicted,
            obs.counter("core.online.samples_evicted"),
        ),
        LossRow::new(
            "boundary samples",
            worst.expected.boundary_samples,
            obs.counter("core.online.boundary_samples"),
        ),
    ];
    println!(
        "loss ledger at {} per-mille faults:",
        data.rates_per_mille.last().expect("non-empty sweep")
    );
    println!("{}", loss_table(&rows));
    assert!(
        accounting_exact(&rows) && data.all_exact,
        "loss accounting must match the injected schedule exactly"
    );

    // Slow-consumer stall: exact drop accounting through try_submit.
    let stall = run_stall(200, 16);
    println!(
        "stall: {} batches offered to a parked worker over a 16-batch channel -> \
         {} dropped (expected {}), {} items processed",
        200, stall.batches_dropped, stall.expected_dropped, stall.items_processed
    );
    assert_eq!(stall.batches_dropped, stall.expected_dropped);

    // Adaptive effective-reset policy under a scripted occupancy wave.
    println!(
        "adaptive-R under a triangle occupancy wave: {} episodes, peak factor {}x, \
         final factor {}x",
        data.degrade.episodes,
        data.degrade.peak_factor_milli as f64 / 1000.0,
        data.degrade.final_factor_milli as f64 / 1000.0
    );

    emit(&data.figure);
    emit(&data.degrade_figure);
    fluctrace_bench::obs_support::finish();
}
