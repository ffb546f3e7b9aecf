//! Windowed-integration conformance sweep: the incremental daemon path
//! vs the oracles, across seeds AND window sizes.
//!
//! The window-size axis is the load-bearing one: for a fixed seed,
//! every W must leave a byte-identical cumulative table and ledger —
//! W = u64::MAX closes no intermediate window at all, so this is the
//! proof that W-window incremental integration equals the one-shot
//! batch run. A failure prints the seed; reproduce with
//! `generate(&spec_from_seed(seed))` (see `TESTING.md`).

use fluctrace_conformance::{check_windowed, generate, spec_from_seed};

/// Window sizes each seed is swept across. 1 closes a window per item,
/// primes stagger window boundaries against batch cuts, and `u64::MAX`
/// degenerates to the one-shot batch shape.
const WINDOW_SIZES: [u64; 6] = [1, 2, 5, 19, 64, u64::MAX];

/// Seed range; kept smaller than the differential sweep because every
/// seed runs |WINDOW_SIZES| + 1 integrations (the Folded twin rides
/// along inside `check_windowed`).
const SWEEP_SEEDS: u64 = 96;

/// Seed range of the coincident-sample sweep: wider, because few seeds
/// are both table-comparable and hold a coincident tick (13 of 240 when
/// the floors below were set).
const COINCIDENT_SEEDS: u64 = 240;

#[test]
fn windowed_integration_is_window_size_invariant() {
    let mut table_checked = 0u32;
    let mut window_rows = 0u64;
    let mut evicting = 0u32;
    let mut episodic = 0u32;
    for seed in 0..SWEEP_SEEDS {
        let w = generate(&spec_from_seed(seed));
        let mut reference: Option<(String, u64)> = None;
        for window_items in WINDOW_SIZES {
            let summary = match check_windowed(&w, window_items) {
                Ok(s) => s,
                Err(d) => panic!("windowed disagreement: {d}"),
            };
            if summary.windows_evicted > 0 {
                evicting += 1;
            }
            if summary.episodes > 0 {
                episodic += 1;
            }
            if summary.table_checked {
                table_checked += 1;
            }
            window_rows += summary.window_rows_checked;
            // Byte-identical cumulative table and episode count across
            // every window size, including the no-intermediate-close
            // degenerate case.
            match &reference {
                None => reference = Some((summary.table_json, summary.episodes)),
                Some((json, episodes)) => {
                    assert_eq!(
                        json, &summary.table_json,
                        "seed {seed}: cumulative table differs at W={window_items}"
                    );
                    assert_eq!(
                        *episodes, summary.episodes,
                        "seed {seed}: episode count differs at W={window_items}"
                    );
                }
            }
        }
    }
    // Shape coverage: the sweep must actually exercise the interesting
    // paths, or a generator regression trivializes it silently.
    assert!(
        table_checked >= 40,
        "only {table_checked} runs were table-comparable"
    );
    assert!(
        window_rows >= 400,
        "only {window_rows} window rows were compared with the oracle"
    );
    assert!(evicting >= 40, "only {evicting} runs evicted windows");
    assert!(episodic >= 40, "only {episodic} runs recorded episodes");
}

/// The same sweep with samples added at every coincident `End`/`Start`
/// tick (`Workload::with_coincident_samples`): the closing item owns
/// each, so the cumulative table still equals the offline oracle's and
/// stays window-size invariant.
#[test]
fn coincident_end_start_samples_are_window_size_invariant() {
    let mut seeds = 0u32;
    let mut table_checked = 0u32;
    for seed in 0..COINCIDENT_SEEDS {
        let plain = generate(&spec_from_seed(seed));
        let w = plain.with_coincident_samples();
        if w.bundle.samples.len() == plain.bundle.samples.len() {
            continue;
        }
        seeds += 1;
        let mut reference: Option<String> = None;
        for window_items in WINDOW_SIZES {
            let summary = match check_windowed(&w, window_items) {
                Ok(s) => s,
                Err(d) => panic!("coincident-sample windowed disagreement: {d}"),
            };
            table_checked += u32::from(summary.table_checked);
            match &reference {
                None => reference = Some(summary.table_json),
                Some(json) => assert_eq!(
                    json, &summary.table_json,
                    "seed {seed}: cumulative table differs at W={window_items}"
                ),
            }
        }
    }
    println!("{seeds} seeds with a coincident sample, {table_checked} table-comparable runs");
    assert!(seeds >= 120, "only {seeds} seeds with a coincident sample");
    assert!(
        table_checked >= 60,
        "only {table_checked} runs were table-comparable"
    );
}

/// Tiny windows on a faulted, eviction-heavy workload: the ledger must
/// stay conserved and window-size-invariant even when the stream sheds.
#[test]
fn lossy_workloads_keep_the_ledger_window_size_invariant() {
    // seed % 7 == 0 forces max_pending eviction; % 3 == 0 heavy faults.
    for seed in [0u64, 21, 42, 63] {
        let w = generate(&spec_from_seed(seed));
        for window_items in [1u64, 7, 1 << 40] {
            if let Err(d) = check_windowed(&w, window_items) {
                panic!("lossy windowed disagreement: {d}");
            }
        }
    }
}
