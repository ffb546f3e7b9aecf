//! Fixture-driven end-to-end tests: each rule runs over a known-bad and
//! a known-good file through the full engine (walk → lex → rules →
//! allows), asserting exactly which lines are flagged.

use fluctrace_lint::engine::run_sources;
use fluctrace_lint::{run, Config, Violation};
use std::path::PathBuf;

fn fixture_root(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(sub)
}

fn lint_fixture(sub: &str, config_toml: &str) -> Vec<Violation> {
    let config = Config::parse(config_toml).expect("fixture config parses");
    run(&fixture_root(sub), &config).expect("fixture lints")
}

/// `(path, line, rule)` triples for compact assertions.
fn keys(violations: &[Violation]) -> Vec<(String, usize, &'static str)> {
    violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect()
}

#[test]
fn determinism_fixture() {
    let v = lint_fixture(
        "determinism",
        "[determinism]\npaths = [\"bad.rs\", \"good.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            // The use-line imports both hashed types → two findings.
            ("bad.rs".to_string(), 2, "determinism"),
            ("bad.rs".to_string(), 2, "determinism"),
            ("bad.rs".to_string(), 4, "determinism"),
            ("bad.rs".to_string(), 5, "determinism"),
            ("bad.rs".to_string(), 12, "determinism"),
        ],
        "HashMap/HashSet flagged in bad.rs only, never inside strings: {v:?}"
    );
}

#[test]
fn a_configured_path_that_names_nothing_is_an_error() {
    // Scoping matches by prefix: without the check, a stale entry
    // would lint nothing and `run` would report a clean tree.
    let config = Config::parse("[determinism]\npaths = [\"bad.rs\", \"crates/gone.rs\"]\n")
        .expect("config parses");
    let err = run(&fixture_root("determinism"), &config).expect_err("stale path accepted");
    let msg = err.to_string();
    assert!(
        msg.contains("[determinism]") && msg.contains("`crates/gone.rs`"),
        "{msg}"
    );
}

#[test]
fn panic_safety_fixture() {
    let v = lint_fixture(
        "panic_safety",
        "[panic-safety]\npaths = [\"bad.rs\", \"good.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            ("bad.rs".to_string(), 3, "panic-safety"),
            ("bad.rs".to_string(), 4, "panic-safety"),
            ("bad.rs".to_string(), 6, "panic-safety"),
            ("bad.rs".to_string(), 8, "panic-safety"),
        ],
        "unwrap/expect/panic!/indexing flagged; allow + test code exempt: {v:?}"
    );
}

#[test]
fn tsc_arithmetic_fixture() {
    let v = lint_fixture("tsc_arithmetic", "[tsc-arithmetic]\n");
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            ("bad.rs".to_string(), 8, "tsc-arithmetic"),
            ("bad.rs".to_string(), 12, "tsc-arithmetic"),
            ("bad.rs".to_string(), 16, "tsc-arithmetic"),
        ],
        "raw `-`/`-=` on TSC operands flagged; wrapping/checked and \
         non-TSC subtraction pass: {v:?}"
    );
}

#[test]
fn unsafe_hygiene_fixture() {
    let v = lint_fixture("unsafe_hygiene", "[unsafe-hygiene]\n");
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            ("bad.rs".to_string(), 3, "unsafe-hygiene"),
            ("bad.rs".to_string(), 8, "unsafe-hygiene"),
        ],
        "uncovered unsafe flagged; SAFETY-commented (incl. chained \
         impls) pass: {v:?}"
    );
}

#[test]
fn shim_drift_fixture() {
    let v = lint_fixture("shim_drift", "[shim-drift]\ndir = \"shims\"\n");
    assert_eq!(v.len(), 1, "only the dead export is flagged: {v:?}");
    assert_eq!(v[0].rule, "shim-drift");
    assert_eq!(v[0].path, "shims/widget/src/lib.rs");
    assert!(v[0].message.contains("dead"));
}

#[test]
fn clock_hygiene_fixture() {
    let v = lint_fixture(
        "clock_hygiene",
        "[clock-hygiene]\npaths = [\"bad.rs\", \"good.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            ("bad.rs".to_string(), 2, "clock-hygiene"),
            ("bad.rs".to_string(), 5, "clock-hygiene"),
            ("bad.rs".to_string(), 10, "clock-hygiene"),
            ("bad.rs".to_string(), 11, "clock-hygiene"),
        ],
        "wall-clock reads flagged in bad.rs only; the allow and the \
         string literal stay clean: {v:?}"
    );
}

#[test]
fn panic_transitive_fixture() {
    // The `.unwrap()` lives in `helper.rs`, a file no lexical rule
    // covers — only the call-graph closure of `entry.rs` reaches it.
    // `unreached` holds the same construct but has no incoming edge,
    // so it must stay silent.
    let v = lint_fixture(
        "panic_transitive",
        "[entry-points]\npaths = [\"entry.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![("helper.rs".to_string(), 9, "panic-safety-transitive")],
        "only the reachable cross-module unwrap is flagged: {v:?}"
    );
    assert!(
        v[0].message.contains("ingest → prepare → scale"),
        "message carries the call chain from the entry point: {}",
        v[0].message
    );
}

#[test]
fn panic_transitive_mutant_deleting_the_call_edge_goes_clean() {
    // Mutant teeth: the same sources minus the single `prepare(v)` call
    // edge must lint clean — proving the finding flows through the call
    // graph, not through any lexical scan of `helper.rs`.
    let entry = std::fs::read_to_string(fixture_root("panic_transitive").join("entry.rs")).unwrap();
    let helper =
        std::fs::read_to_string(fixture_root("panic_transitive").join("helper.rs")).unwrap();
    let config = Config::parse("[entry-points]\npaths = [\"entry.rs\"]\n").unwrap();

    let intact = run_sources(&[("entry.rs", &entry), ("helper.rs", &helper)], &config);
    assert_eq!(intact.violations.len(), 1, "{:?}", intact.violations);

    let mutated = entry.replace("acc.wrapping_add(prepare(v))", "acc.wrapping_add(v)");
    assert_ne!(mutated, entry, "the mutation must actually apply");
    let cut = run_sources(&[("entry.rs", &mutated), ("helper.rs", &helper)], &config);
    assert!(
        cut.violations.is_empty(),
        "with the edge deleted nothing is reachable: {:?}",
        cut.violations
    );
}

#[test]
fn hot_path_alloc_fixture() {
    let v = lint_fixture(
        "hot_path_alloc",
        "[hot-path-alloc]\npaths = [\"bad.rs\", \"good.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            ("bad.rs".to_string(), 12, "hot-path-alloc"),
            ("bad.rs".to_string(), 13, "hot-path-alloc"),
        ],
        "format!/Box::new in the closure flagged; the reused pre-sized \
         buffer in good.rs passes: {v:?}"
    );
}

#[test]
fn atomic_ordering_fixture() {
    let v = lint_fixture(
        "atomic_ordering",
        "[atomic-ordering]\npaths = [\"bad.rs\", \"good.rs\"]\n",
    );
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![("bad.rs".to_string(), 7, "atomic-ordering")],
        "the Relaxed-Relaxed gate is flagged at its declaration; the \
         Release/Acquire pair and the allowed counter pass: {v:?}"
    );
    assert!(v[0].message.contains("ready"), "{}", v[0].message);
}

#[test]
fn atomic_ordering_allow_is_recorded_in_the_report() {
    let good = std::fs::read_to_string(fixture_root("atomic_ordering").join("good.rs")).unwrap();
    let config = Config::parse("[atomic-ordering]\npaths = [\"good.rs\"]\n").unwrap();
    let report = run_sources(&[("good.rs", &good)], &config);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allows.len(), 1, "{:?}", report.allows);
    assert_eq!(report.allows[0].rule, "atomic-ordering");
    assert!(report.allows[0].reason.contains("statistical counter"));
}

#[test]
fn allow_misuse_fixture() {
    let v = lint_fixture("allows", "[panic-safety]\npaths = [\"bad.rs\"]\n");
    let keys = keys(&v);
    assert_eq!(
        keys,
        vec![
            // Reasonless allow: rejected, so the indexing still fires.
            ("bad.rs".to_string(), 3, "allow-syntax"),
            ("bad.rs".to_string(), 3, "panic-safety"),
            // Unknown rule name: rejected, indexing still fires.
            ("bad.rs".to_string(), 7, "allow-syntax"),
            ("bad.rs".to_string(), 7, "panic-safety"),
            // Valid allow that suppresses nothing: flagged as stale.
            ("bad.rs".to_string(), 11, "allow-syntax"),
        ],
        "malformed, unknown-rule, and stale allows all surface: {v:?}"
    );
}
