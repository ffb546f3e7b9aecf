//! `--compare`: an A/A pair agrees, a slowed set regresses, and any
//! rise in `failed_frac` regresses.

mod common;

use common::quick_run;
use fluctrace_benchmark::compare::{compare, load_bounds};
use fluctrace_benchmark::report::RunDoc;
use std::path::Path;

fn bounds() -> Vec<fluctrace_benchmark::compare::Bound> {
    load_bounds(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )))
    .expect("bounds")
}

fn scaled(doc: &RunDoc, metric: &str, factor: f64) -> RunDoc {
    let mut out = doc.clone();
    out.end_to_end
        .0
        .get_mut(metric)
        .expect("metric present")
        .value *= factor;
    out
}

#[test]
fn compare_applies_the_bounds_of_benchmark_json() {
    let a = quick_run("analyze_wide", 5, false, "compare");
    let one = std::slice::from_ref(&a);
    let same = compare(one, one, &bounds());
    assert_eq!(
        (same.regressions, same.input_mismatches),
        (0, 0),
        "{}",
        same.table
    );

    let slow = compare(one, &[scaled(&a, "samples_per_s", 0.7)], &bounds());
    assert_eq!(slow.regressions, 1, "{}", slow.table);
    assert!(slow.table.contains("REGRESSED"));

    let fast = compare(one, &[scaled(&a, "samples_per_s", 1.4)], &bounds());
    assert_eq!(fast.regressions, 0, "{}", fast.table);
    assert!(fast.table.contains("improved"));

    // bytes_per_sample is bounded at 1 %.
    let fat = compare(one, &[scaled(&a, "bytes_per_sample", 1.02)], &bounds());
    assert_eq!(fat.regressions, 1, "{}", fat.table);

    let mut failing = a.clone();
    failing.failed = 1;
    let broke = compare(one, &[failing], &bounds());
    assert_eq!(broke.regressions, 1, "{}", broke.table);

    let mut other_input = a.clone();
    other_input.input_digest = "0000000000000000".to_string();
    let mixed = compare(one, &[other_input], &bounds());
    assert_eq!(mixed.input_mismatches, 1, "{}", mixed.table);
}
