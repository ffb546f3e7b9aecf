//! The differential conformance suite: offline pipeline == online
//! tracer == naive oracle, over hundreds of seeded randomized workloads.
//!
//! A failure prints the seed; reproduce it with
//! `generate(&spec_from_seed(seed))` (see `TESTING.md`).

use fluctrace_conformance::{check_workload, generate, spec_from_seed, DiffSummary};

/// Seeds the sweep covers. 0..SWEEP_SEEDS spans every shape family the
/// generator carves out of the seed space (wraparound at `seed % 5 ==
/// 3`, eviction at `seed % 7 == 0`, heavy faults at `seed % 3 == 0`,
/// shared item ids at `seed % 11 == 4`, truncated tails at
/// `seed % 4 == 1`).
const SWEEP_SEEDS: u64 = 240;

fn check_seed(seed: u64) -> DiffSummary {
    let w = generate(&spec_from_seed(seed));
    match check_workload(&w) {
        Ok(s) => s,
        Err(d) => panic!("differential disagreement: {d}"),
    }
}

/// Replay the committed regression corpus first — seeds that once
/// disagreed (or exercise a shape worth pinning) stay fixed forever.
#[test]
fn corpus_seeds_agree() {
    let corpus = include_str!("corpus/differential.seeds");
    let mut replayed = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line.parse().unwrap_or_else(|e| {
            panic!("bad corpus line {line:?}: {e}");
        });
        check_seed(seed);
        replayed += 1;
    }
    assert!(replayed >= 10, "corpus shrank to {replayed} seeds");
}

/// The main sweep: every seed in the contiguous range must agree across
/// all three executions, and the range must actually cover the hard
/// shape families (so a generator regression cannot silently turn the
/// sweep into a trivial one).
#[test]
fn sweep_seeds_agree_with_shape_coverage() {
    let mut wrap = 0u32;
    let mut evicting = 0u32;
    let mut cross_checked = 0u32;
    let mut boundaryful = 0u32;
    let mut lossy = 0u32;
    let mut multibatch = 0u32;
    let mut store_bytes = 0u64;
    let mut store_elided = 0u64;
    let mut store_columns = 0u64;
    let mut store_window_rows = 0u64;
    let mut register_rows = 0u64;
    let mut tag_splits = 0u64;
    let mut cross_core_runs = 0u64;
    let mut stale_tagged = 0u64;
    for seed in 0..SWEEP_SEEDS {
        let spec = spec_from_seed(seed);
        let summary = check_seed(seed);
        if spec.base_tsc > u64::MAX / 2 {
            wrap += 1;
        }
        if spec.max_pending < 64 {
            evicting += 1;
        }
        if summary.cross_checked {
            cross_checked += 1;
        }
        if spec.boundary_per_mille > 0 {
            boundaryful += 1;
        }
        if summary.samples_unattributed > 0 {
            lossy += 1;
        }
        if summary.batches > 4 {
            multibatch += 1;
        }
        store_bytes += summary.store_bytes;
        store_elided += summary.store_elided;
        store_columns += summary.store_columns;
        store_window_rows += summary.store_window_rows;
        register_rows += summary.register_rows;
        tag_splits += summary.tag_splits;
        cross_core_runs += summary.cross_core_runs;
        stale_tagged += summary.stale_tagged;
    }
    println!(
        "register leg: {register_rows} rows, {tag_splits} split tag runs, \
         {cross_core_runs} cross-core tag runs, {stale_tagged} tagged gap samples"
    );
    println!("store window reads: {store_window_rows} rows");
    // Shape-coverage floor: each hard family appears many times.
    assert!(wrap >= 30, "only {wrap} near-wrap workloads");
    assert!(evicting >= 20, "only {evicting} eviction-bound workloads");
    assert!(cross_checked >= 30, "only {cross_checked} cross-checked");
    assert!(
        boundaryful >= 100,
        "only {boundaryful} with boundary samples"
    );
    assert!(lossy >= 50, "only {lossy} with loss accounting exercised");
    assert!(
        multibatch >= 100,
        "only {multibatch} with >4 online batches"
    );
    // The store leg must actually exercise the on-disk format: every
    // sweep writes real bytes, and the suppressible-twin pass must
    // elide (and ledger-replay) a large number of rows overall.
    assert!(store_bytes > 0, "store leg wrote no bytes");
    assert!(
        store_elided >= 1000,
        "only {store_elided} rows elided across the sweep"
    );
    // Four store files per seed, each with at least a sample chunk (5
    // columns) and a mark chunk (4), every one of them byte-compared
    // against the naive four-way trial encoder.
    assert!(
        store_columns >= SWEEP_SEEDS * 4 * 9,
        "only {store_columns} store columns compared against the naive encoder"
    );
    // The plain, the suppressed and the suppressible-twin file of every
    // seed are also read through 8 disjoint windows, each checked
    // against read_bundle's rows (`check_window_reads`).
    assert!(
        store_window_rows > 0,
        "no rows came back through the store's window reads"
    );
    // The register-tag leg must meet the shapes that tell its span rule
    // apart from a looser one: tag runs split by untagged samples, tag
    // runs crossing a core boundary in canonical order, and tagged
    // samples outside every interval (about 3 800, 1 500, 76 and 3 900
    // over this range when the floors were set).
    assert!(
        register_rows >= 2_000,
        "only {register_rows} register-mode rows compared"
    );
    assert!(tag_splits >= 500, "only {tag_splits} split tag runs");
    assert!(
        cross_core_runs >= 30,
        "only {cross_core_runs} tag runs across a core boundary"
    );
    assert!(
        stale_tagged >= 1_500,
        "only {stale_tagged} tagged samples outside every interval"
    );
}

/// The coincident shape: each sweep seed with samples added at its
/// coincident `End`/`Start` ticks (`Workload::with_coincident_samples`)
/// must agree across all three executions. The closing item owns those
/// samples in the batch kernels, the online tracer and the oracle, so
/// the online-vs-offline anomaly cross-check still applies; after an
/// `End` the post-pass corrupted, no item owns them. About 730 samples
/// over 156 seeds, 13 of them cross-checked, when the floors were set.
#[test]
fn coincident_end_start_samples_agree() {
    let mut seeds = 0u32;
    let mut added = 0usize;
    let mut cross_checked = 0u32;
    for seed in 0..SWEEP_SEEDS {
        let plain = generate(&spec_from_seed(seed));
        let w = plain.with_coincident_samples();
        let n = w.bundle.samples.len() - plain.bundle.samples.len();
        if n == 0 {
            continue;
        }
        seeds += 1;
        added += n;
        match check_workload(&w) {
            Ok(s) => cross_checked += u32::from(s.cross_checked),
            Err(d) => panic!("coincident-sample disagreement: {d}"),
        }
    }
    println!("{added} coincident samples over {seeds} seeds, {cross_checked} cross-checked");
    assert!(seeds >= 120, "only {seeds} seeds with a coincident sample");
    assert!(added >= 500, "only {added} coincident samples");
    assert!(cross_checked >= 10, "only {cross_checked} cross-checked");
}

/// Workload generation itself is deterministic: the same seed expands
/// to the identical record streams and batch cuts.
#[test]
fn generation_is_deterministic() {
    for seed in [0u64, 3, 7, 12, 33, 98] {
        let a = generate(&spec_from_seed(seed));
        let b = generate(&spec_from_seed(seed));
        assert_eq!(a.bundle.marks, b.bundle.marks, "seed {seed} marks");
        assert_eq!(a.bundle.samples, b.bundle.samples, "seed {seed} samples");
        assert_eq!(a.batches.len(), b.batches.len(), "seed {seed} batches");
    }
}
