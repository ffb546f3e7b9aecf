//! Fig. 9 — estimated per-packet elapsed time of `rte_acl_classify`
//! vs reset value, compared against the instrumented baseline.
//!
//! Expected shape (paper): type A ≈ 12–14 µs, type C ≈ 6 µs (a >100%
//! fluctuation); hybrid estimates track the baseline, degrading (fewer
//! samples per packet → underestimation + growing error bars) as the
//! reset value rises.
//!
//! Figure assembly lives in [`fluctrace_bench::figures::fig9_data`]
//! (shared with the golden tests); this bin adds the table, the dot
//! plot, and the shape summary.

use fluctrace_analysis::Table;
use fluctrace_apps::PacketType;
use fluctrace_bench::acl_experiment::PAPER_RESETS;
use fluctrace_bench::figures::fig9_data_with;
use fluctrace_bench::store_support;
use fluctrace_bench::{emit, Scale};

fn main() {
    fluctrace_bench::obs_support::init();
    let scale = Scale::from_env();
    let per_type = scale.packets_per_type();
    let store = fluctrace_bench::obs_support::args();

    if let Some(path) = &store.from_store {
        // Replay a previously spilled run instead of re-simulating.
        match store_support::replay(path) {
            Ok(bundle) => println!(
                "replayed fig9 raw trace: {} samples, {} marks",
                bundle.samples.len(),
                bundle.marks.len()
            ),
            Err(e) => {
                eprintln!("fig9 --from-store: {e}");
                std::process::exit(1);
            }
        }
        fluctrace_bench::obs_support::finish();
        return;
    }

    println!(
        "Fig. 9 — per-packet rte_acl_classify elapsed time ({} packets/type)\n",
        per_type
    );
    let data = fig9_data_with(scale, store.store.is_some());
    if let Some(path) = &store.store {
        // One segment per run: baseline first, then the reset sweep.
        let mut bundles = Vec::new();
        bundles.extend(data.baseline.bundle.as_ref());
        bundles.extend(data.results.iter().filter_map(|r| r.bundle.as_ref()));
        store_support::spill(path, &bundles);
    }
    let (baseline, results, fig) = (&data.baseline, &data.results, &data.figure);
    println!(
        "rule set: {} rules in {} tries",
        baseline.rules, baseline.tries
    );
    let mut tbl = Table::new(vec![
        "reset",
        "type",
        "mean (us)",
        "std (us)",
        "estimable/total",
    ]);
    for t in PacketType::ALL {
        let s = baseline.for_type(t);
        tbl.row(vec![
            "baseline".to_string(),
            t.label().to_string(),
            format!("{:.2}", s.classify_us.mean()),
            format!("{:.2}", s.classify_us.std_dev()),
            format!("{}/{}", s.estimable, per_type),
        ]);
    }
    for (r, &reset) in results.iter().zip(&PAPER_RESETS) {
        for t in PacketType::ALL {
            let s = r.for_type(t);
            tbl.row(vec![
                reset.to_string(),
                t.label().to_string(),
                format!("{:.2}", s.classify_us.mean()),
                format!("{:.2}", s.classify_us.std_dev()),
                format!("{}/{}", s.estimable, per_type),
            ]);
        }
    }
    println!("{tbl}");

    // Dot-plot view: estimates per type across reset values, with the
    // baseline at the left-most label row.
    let mut chart = fluctrace_analysis::DotRows::new(
        60,
        vec![("type A", 'A'), ("type B", 'B'), ("type C", 'C')],
    );
    let series_y = |name: &str, x: f64| fig.series(name).and_then(|s| s.y_at(x)).unwrap_or(0.0);
    {
        let b = &fig.series("baseline").unwrap().points;
        chart.row("baseline", vec![b[0].y, b[1].y, b[2].y]);
    }
    for &reset in &PAPER_RESETS {
        chart.row(
            format!("R={reset}"),
            vec![
                series_y("type A", reset as f64),
                series_y("type B", reset as f64),
                series_y("type C", reset as f64),
            ],
        );
    }
    println!("{chart}");

    // Shape summary.
    let a = baseline.for_type(PacketType::A).classify_us.mean();
    let c = baseline.for_type(PacketType::C).classify_us.mean();
    println!(
        "baseline fluctuation: type A {:.1} us vs type C {:.1} us — {:.0}% \
         (paper: ~12-14 us vs ~6 us, \"more than 100%\")",
        a,
        c,
        (a / c - 1.0) * 100.0
    );
    emit(&data.figure);
    fluctrace_bench::obs_support::finish();
}
