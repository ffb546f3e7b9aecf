//! File-level golden of the store writer: length and digest of the
//! store files of pinned inputs, one line per file, under
//! `tests/golden/store_files.txt`.
//!
//! The differential sweep proves a store file reads back bit-exactly;
//! this pins the *bytes*. A writer change that keeps the format but
//! picks a different codec for one column, moves a chunk boundary or
//! reorders a ledger shows here and nowhere else. The snapshot was
//! blessed from the four-way trial encoder before it left production
//! (see `fluctrace_conformance::naive_encode_column`); the writer must
//! keep reproducing it unblessed. After a deliberate format change:
//!
//! ```text
//! FLUCTRACE_BLESS=1 cargo test -p fluctrace-conformance --test store_golden
//! ```

use fluctrace_bench::perf_hunt::{synth_workload, HuntConfig};
use fluctrace_bench::store_experiment::quantize_ips;
use fluctrace_conformance::driver::suppressible_twin;
use fluctrace_conformance::{generate, spec_from_seed};
use fluctrace_cpu::TraceBundle;
use fluctrace_store::{write_bundle_to_vec, StoreConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Conformance seeds pinned here: plain shapes, a TSC-wrapping stream
/// (`seed % 5 == 3`), an eviction-bound one (`seed % 7 == 0`) and a
/// heavily faulted one (`seed % 3 == 0`).
const SEEDS: [u64; 6] = [0, 3, 7, 12, 33, 98];

/// Tolerance of the suppressed files (the sweep's own).
const TOLERANCE: u64 = 1 << 30;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("store_files.txt")
}

fn blessing() -> bool {
    std::env::var_os("FLUCTRACE_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// FNV-1a, 64 bit, over the file's bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line per (input, suppression, chunk size).
fn describe(out: &mut String, input: &str, bundle: &TraceBundle) {
    for chunk_rows in [7usize, 16_384] {
        for suppress in [false, true] {
            let config = if suppress {
                StoreConfig {
                    chunk_rows,
                    ..StoreConfig::suppressed(TOLERANCE)
                }
            } else {
                StoreConfig {
                    chunk_rows,
                    ..StoreConfig::default()
                }
            };
            let (bytes, stats) = write_bundle_to_vec(bundle, config).expect("vec write");
            writeln!(
                out,
                "{input} suppress={} chunk_rows={chunk_rows} chunks={} elided={} len={} fnv1a64={:016x}",
                if suppress { "on" } else { "off" },
                stats.chunks,
                stats.elided,
                bytes.len(),
                fnv1a64(&bytes),
            )
            .expect("write to string");
        }
    }
}

#[test]
fn store_files_match_golden() {
    let mut actual = String::new();
    for seed in SEEDS {
        let w = generate(&spec_from_seed(seed));
        describe(&mut actual, &format!("seed={seed} bundle"), &w.bundle);
        describe(
            &mut actual,
            &format!("seed={seed} twin"),
            &suppressible_twin(&w.bundle),
        );
    }
    // One input large enough that 16 384-row chunks split it, in the
    // perf-hunt shape (few far-apart IPs per chunk: dictionary country).
    let (hunt, symtab) = synth_workload(&HuntConfig {
        cores: 2,
        items_per_core: 1_500,
        samples_per_item: 12,
        funcs: 48,
        threads: 1,
        ..HuntConfig::default()
    });
    describe(&mut actual, "hunt bundle", &hunt);
    describe(&mut actual, "hunt quantized", &quantize_ips(&hunt, &symtab));

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
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "store file {} moved", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden and writer disagree on the number of files"
    );
}
