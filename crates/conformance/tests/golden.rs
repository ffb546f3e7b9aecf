//! Golden outputs: every `figures` report at Quick scale, pinned
//! byte-for-byte against the one committed copy in `artifacts/`.
//!
//! The test loops over `fluctrace_bench::figures::REGISTRY` and compares
//! each entry's text with `artifacts/<id>.txt` and each JSON document
//! with `artifacts/<stem>.json` — the same files `figures all` writes.
//! An entry that can spill raw bundles runs a second time with
//! `keep_bundles`, against the same bytes: `--store` must not change
//! what it reports.
//!
//! Every report is content-derived (no wall-clock, no host state), so
//! any drift here is a real behavior change in the simulator, the
//! pipeline or the report assembly. When a change is intentional,
//! rewrite `artifacts/` with:
//!
//! ```text
//! FLUCTRACE_BLESS=1 cargo test -p fluctrace-conformance --test golden
//! ```
//!
//! and commit the updated files.

use fluctrace_bench::figures::REGISTRY;
use fluctrace_bench::Scale;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Written by `perf-hunt --record`, not by any registry entry.
const NOT_A_REPORT: &str = "BENCH_hotpath.json";

fn artifacts_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts")
}

fn blessing() -> bool {
    std::env::var_os("FLUCTRACE_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The first differing lines and how many differ — enough to see *what*
/// moved without dumping whole artifacts.
fn diff_summary(expected: &str, actual: &str) -> String {
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let differing: Vec<usize> = (0..exp.len().max(act.len()))
        .filter(|&i| exp.get(i) != act.get(i))
        .collect();
    let mut out = String::new();
    for &i in differing.iter().take(8) {
        let (e, a) = (
            exp.get(i).unwrap_or(&"<eof>"),
            act.get(i).unwrap_or(&"<eof>"),
        );
        out += &format!("  line {}:\n    golden: {e}\n    actual: {a}\n", i + 1);
    }
    let (n, e, a) = (differing.len(), exp.len(), act.len());
    out + &format!("  {n} differing line(s) of {e} (golden) / {a} (actual)")
}

/// Compare `actual` with `artifacts/<name>`, or write it there when
/// `bless`; returns the drift, if any.
fn check_golden(name: &str, actual: &str, bless: bool) -> Option<String> {
    let path = artifacts_dir().join(name);
    if bless {
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return None;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == actual => None,
        Ok(expected) => Some(format!("{name}:\n{}", diff_summary(&expected, actual))),
        Err(e) => Some(format!(
            "{name}: missing ({e}); bless it with FLUCTRACE_BLESS=1"
        )),
    }
}

#[test]
fn every_figure_matches_artifacts() {
    let mut drift = Vec::new();
    let mut written = BTreeSet::from([NOT_A_REPORT.to_string()]);
    for entry in REGISTRY {
        let inputs: &[bool] = if entry.replay.is_some() {
            &[false, true]
        } else {
            &[false]
        };
        for &keep_bundles in inputs {
            let r = (entry.run)(Scale::Quick, keep_bundles);
            let label = format!("{} (keep_bundles={keep_bundles})", entry.id);
            assert!(r.failures.is_empty(), "{label}: {:?}", r.failures);
            assert_eq!(!r.bundles.is_empty(), keep_bundles, "{label}: bundles");
            // Only the plain run blesses; the bundle run must match it.
            let bless = blessing() && !keep_bundles;
            for (name, body) in r.files(entry.id) {
                if let Some(d) = check_golden(&name, body, bless) {
                    drift.push(format!("{label} {d}"));
                }
                written.insert(name);
            }
        }
    }
    let committed: BTreeSet<String> = std::fs::read_dir(artifacts_dir())
        .expect("artifacts/ exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    for stale in committed.difference(&written) {
        drift.push(format!(
            "{stale}: committed, but no registry entry writes it"
        ));
    }
    assert!(
        drift.is_empty(),
        "golden artifact drift:\n{}\nIf intentional, re-bless with FLUCTRACE_BLESS=1 \
         (see TESTING.md).",
        drift.join("\n")
    );
}
