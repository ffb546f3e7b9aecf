//! Golden snapshot of the fig4 `--obs` export, pinned byte-for-byte.
//!
//! Reproduces in-process exactly what `figures fig4 --obs <path>`
//! writes: the fig4 registry entry followed by the deterministic obs
//! probe, then the canonical JSON snapshot of the process-wide
//! registry. CI runs the binary twice (different `FLUCTRACE_THREADS`)
//! and diffs both outputs against this golden.
//!
//! Deliberately a single `#[test]` in its own binary: the snapshot
//! covers the whole process-wide registry, so no other test may share
//! (and pollute) the process. Bless with:
//!
//! ```text
//! FLUCTRACE_BLESS=1 cargo test -p fluctrace-conformance --test golden_obs
//! ```

use fluctrace_bench::figures::entry;
use fluctrace_bench::obs_support::obs_probe;
use fluctrace_bench::Scale;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("obs_fig4.json")
}

fn blessing() -> bool {
    std::env::var_os("FLUCTRACE_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn fig4_obs_export_matches_golden() {
    let fig4 = entry("fig4").expect("fig4 is a registry entry");
    let _ = (fig4.run)(Scale::Quick, false);
    obs_probe();
    let actual = fluctrace_obs::snapshot_json();

    let path = golden_path();
    if blessing() {
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless it with FLUCTRACE_BLESS=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "obs snapshot drift against {}: an instrumentation site changed \
         what it records (or the probe changed). If intentional, re-bless \
         with FLUCTRACE_BLESS=1.",
        path.display()
    );
}
