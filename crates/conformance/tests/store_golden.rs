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
//!
//! The same `synth_workload` input also carries the store's volume
//! claim: a columnar file is a small fraction of the JSON dump it
//! replaces, and suppression elides most rows of a hot-loop trace.

use fluctrace_conformance::driver::suppressible_twin;
use fluctrace_conformance::{generate, spec_from_seed};
use fluctrace_core::anomaly_trace;
use fluctrace_core::online::{OnlineConfig, OnlineTracer};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, VirtAddr,
};
use fluctrace_sim::{Freq, Rng};
use fluctrace_store::{write_bundle_to_vec, StoreConfig, TraceReader};
use std::fmt::Write as _;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;

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

/// Seed of every [`synth_workload`] input here.
const WORKLOAD_SEED: u64 = 0x0507_14A7;

/// The shape of a [`synth_workload`] trace.
struct SynthConfig {
    /// Cores in the synthetic trace.
    cores: u32,
    /// Data-items per core.
    items_per_core: usize,
    /// PEBS samples inside each item's interval.
    samples_per_item: usize,
    /// Functions in the symbol table (binary-search depth ≈ log₂ n).
    funcs: usize,
    /// Workload seed.
    seed: u64,
}

/// Build a synthetic multi-core trace shaped like the paper's workloads:
/// per-core streams of bracketed items, strong temporal IP locality
/// (tight classify loops), occasional unresolvable IPs and stray
/// samples between items (exercising the unknown-function and
/// missing-span paths).
fn synth_workload(cfg: &SynthConfig) -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let mut ranges = Vec::with_capacity(cfg.funcs);
    for f in 0..cfg.funcs {
        let id = b.add(&format!("fn_{f:04}"), 48 + (f as u64 % 7) * 16);
        ranges.push(id);
    }
    let symtab = b.build();
    let spans: Vec<_> = ranges.iter().map(|&f| symtab.range(f)).collect();

    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(cfg.seed);
    for core in 0..cfg.cores {
        let mut core_rng = rng.fork();
        let mut tsc: u64 = 1_000 + core as u64 * 13;
        let mut cur_fn = core_rng.gen_below(spans.len() as u64) as usize;
        for i in 0..cfg.items_per_core {
            let item = core as u64 * cfg.items_per_core as u64 + i as u64;
            tsc += core_rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::Start,
            });
            for s in 0..cfg.samples_per_item {
                tsc += core_rng.gen_range(40, 160);
                // ~1 in 8 samples hops to a new function; the rest stay
                // put (temporal IP locality of a hot loop).
                if core_rng.gen_bool(0.125) {
                    cur_fn = core_rng.gen_below(spans.len() as u64) as usize;
                }
                // ~1 in 64 samples lands outside any known symbol.
                let ip = if core_rng.gen_bool(1.0 / 64.0) {
                    VirtAddr(2)
                } else {
                    let r = &spans[cur_fn];
                    VirtAddr(r.start.as_u64() + core_rng.gen_below(r.size()))
                };
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip,
                    r13: item + 1,
                    event: HwEvent::UopsRetired,
                });
                let _ = s;
            }
            tsc += core_rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item: ItemId(item),
                kind: MarkKind::End,
            });
            // One stray sample in the gap after every 16th item: no
            // interval contains it (missing-span path), no tag either.
            if i % 16 == 5 {
                tsc += core_rng.gen_range(10, 40);
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip: VirtAddr(spans[cur_fn].start.as_u64()),
                    r13: fluctrace_cpu::NO_TAG,
                    event: HwEvent::UopsRetired,
                });
            }
        }
    }
    bundle.sort();
    (bundle, symtab)
}

/// The `synth_workload` shape (the golden's `hunt` lines), large enough
/// that 16 384-row chunks split it (few far-apart IPs per chunk:
/// dictionary country).
fn hunt_workload() -> (TraceBundle, SymbolTable) {
    synth_workload(&SynthConfig {
        cores: 2,
        items_per_core: 1_500,
        samples_per_item: 12,
        funcs: 48,
        seed: WORKLOAD_SEED,
    })
}

/// Snap every sample IP to its function's entry address — the shape a
/// tight instrumented loop produces, and the redundancy the
/// suppression pass exists to elide.
fn quantize_ips(bundle: &TraceBundle, symtab: &SymbolTable) -> TraceBundle {
    let mut out = bundle.clone();
    for s in &mut out.samples {
        if let Some(f) = symtab.resolve(s.ip) {
            s.ip = symtab.range(f).start;
        }
    }
    out
}

/// Bytes of the dump the store replaces: the `anomaly_trace` document
/// of a flag-everything online run (divergence factor 0, no warm-up),
/// in which every item dumps its raw samples.
fn json_dump_bytes(bundle: &TraceBundle, symtab: SymbolTable) -> usize {
    let symtab = Arc::new(symtab);
    let mut cfg = OnlineConfig::new(Freq::ghz(3));
    cfg.divergence_factor = 0.0;
    cfg.warmup = 0;
    let tracer = OnlineTracer::spawn(Arc::clone(&symtab), cfg);
    tracer.submit(bundle.clone()).expect("worker alive");
    let report = tracer.finish().expect("no worker panic");
    let doc = anomaly_trace(&report, &symtab, cfg.freq);
    serde_json::to_string(&doc).expect("json").len()
}

fn read_back(bytes: &[u8]) -> TraceBundle {
    TraceReader::open(Cursor::new(bytes))
        .and_then(|mut r| r.read_bundle())
        .expect("just-written store reads back")
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
    let (hunt, symtab) = hunt_workload();
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

#[test]
fn store_is_a_fraction_of_the_json_dump_and_suppression_elides_hot_loops() {
    let (bundle, symtab) = hunt_workload();
    let twin = quantize_ips(&bundle, &symtab);

    let (bytes, _) = write_bundle_to_vec(&bundle, StoreConfig::default()).expect("vec write");
    let (json, store) = (json_dump_bytes(&bundle, symtab), bytes.len());
    assert!(json >= 3 * store, "JSON dump {json} B vs store {store} B");
    let back = read_back(&bytes);
    assert_eq!(back.samples, bundle.samples);
    assert_eq!(back.marks, bundle.marks);

    let (sup, stats) =
        write_bundle_to_vec(&twin, StoreConfig::suppressed(1 << 20)).expect("vec write");
    let (elided, rows) = (stats.elided, twin.samples.len() as u64);
    assert!(2 * elided > rows, "only {elided} of {rows} rows elided");
    // The ledger replay reconstructs every elided row.
    let back = read_back(&sup);
    assert_eq!(back.samples, twin.samples);
    assert_eq!(back.marks, twin.marks);
}

#[test]
fn workload_is_deterministic_per_seed() {
    let cfg = SynthConfig {
        cores: 2,
        items_per_core: 120,
        samples_per_item: 12,
        funcs: 64,
        seed: WORKLOAD_SEED,
    };
    let (a, _) = synth_workload(&cfg);
    let (b, _) = synth_workload(&cfg);
    assert_eq!(a.samples.len(), b.samples.len());
    assert_eq!(a.marks.len(), b.marks.len());
    assert!(a
        .samples
        .iter()
        .zip(&b.samples)
        .all(|(x, y)| x.tsc == y.tsc && x.ip == y.ip && x.core == y.core));
}
