//! Metamorphic invariants of the attribution pipeline: properties that
//! must hold across *transformations* of a workload, with no oracle in
//! the loop.
//!
//! * **Sample conservation** — every sample is accounted exactly once,
//!   offline (attributed + unattributed = seen) and online (the
//!   `conserves_samples` identity).
//! * **Batching invariance** — re-cutting the same arrival stream into
//!   different online batches changes nothing in the final report.
//! * **Thinning monotonicity** — keeping every k-th sample per core
//!   never increases any per-`(item, func)` sample count, and never
//!   invents items or functions the full stream didn't have.
//! * **Core-relabeling symmetry** — permuting core ids leaves the
//!   estimate table and the online loss accounting untouched, and so
//!   does spreading them sparse up to `u32::MAX` (the windowed report
//!   too).
//! * **SoA ingest-order invariance** — however the raw records were
//!   permuted before the canonical sort, the columnar fast path builds
//!   the same table, and that table equals the AoS reference's.
//!
//! Failures print the workload seed; see `TESTING.md` for how to replay
//! it.

use fluctrace_conformance::{generate, spec_from_seed, CanonicalTable, Workload};
use fluctrace_core::online::{OnlineConfig, OnlineReport, OnlineTracer};
use fluctrace_core::{
    integrate_soa_with_threads, integrate_with_threads, EstimateTable, MappingMode, WindowConfig,
    WindowReport, WindowedIntegrator,
};
use fluctrace_cpu::{CoreId, TraceBundle};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn offline_table(w: &Workload, bundle: &TraceBundle) -> EstimateTable {
    let mut sorted = bundle.clone();
    sorted.sort();
    let it = integrate_with_threads(&sorted, &w.symtab, w.freq, MappingMode::Intervals, 2);
    EstimateTable::from_integrated(&it)
}

fn online_report(w: &Workload, batches: &[TraceBundle]) -> OnlineReport {
    let mut config = OnlineConfig::new(w.freq);
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;
    let tracer = OnlineTracer::spawn(Arc::clone(&w.symtab), config);
    for batch in batches {
        tracer.submit(batch.clone()).expect("worker alive");
    }
    tracer.finish().expect("worker finished")
}

fn windowed_report(w: &Workload, batches: &[TraceBundle]) -> WindowReport {
    let mut config = WindowConfig::new(w.freq);
    config.window_items = 5;
    config.divergence_factor = 0.0;
    config.warmup = 0;
    config.max_pending = w.spec.max_pending;
    let mut integ = WindowedIntegrator::new(Arc::clone(&w.symtab), config);
    for batch in batches {
        integ.ingest(batch.clone());
    }
    integ.finish_stream();
    integ.report()
}

/// `(item, func, elapsed_ps, raw_samples)` of one anomaly.
type AnomalyKey = (u64, u32, u64, usize);

/// Everything order-independent in a report, for equality comparison.
fn report_fingerprint(r: &OnlineReport) -> (u64, u64, u64, Vec<u64>, Vec<AnomalyKey>) {
    let loss = vec![
        r.loss.batches_dropped,
        r.loss.samples_dropped,
        r.loss.samples_thinned,
        r.loss.samples_evicted,
        r.loss.samples_discarded,
        r.loss.samples_spin,
        r.loss.marks_orphaned,
        r.loss.marks_mismatched,
        r.loss.starts_abandoned,
        r.loss.starts_truncated,
        r.loss.boundary_samples,
    ];
    let mut anomalies: Vec<AnomalyKey> = r
        .anomalies
        .iter()
        .map(|a| (a.item.0, a.func.0, a.elapsed.as_ps(), a.raw_samples.len()))
        .collect();
    anomalies.sort_unstable();
    (
        r.items_processed,
        r.samples_seen,
        r.samples_attributed,
        loss,
        anomalies,
    )
}

/// Keep every `k`-th sample per core (in per-core arrival order) — the
/// degradation transform the adaptive-reset policy applies.
fn thin_per_core(bundle: &TraceBundle, k: u64) -> TraceBundle {
    let mut counters: BTreeMap<CoreId, u64> = BTreeMap::new();
    let mut out = bundle.clone();
    out.samples.retain(|s| {
        let c = counters.entry(s.core).or_insert(0);
        let keep = c.is_multiple_of(k);
        *c += 1;
        keep
    });
    out
}

/// Reverse the core-id space — a permutation with no fixed points for
/// any multi-core workload.
fn reverse_cores(cores: u32) -> impl Fn(CoreId) -> CoreId {
    move |c| CoreId(cores.saturating_sub(1).saturating_sub(c.0))
}

/// Spread the core ids apart, order kept: `c ↦ c·2²⁹ + 5`, and the
/// last core to `u32::MAX` — ids no dense per-core array could index.
fn sparse_cores(cores: u32) -> impl Fn(CoreId) -> CoreId {
    move |c| {
        if c.0 + 1 >= cores {
            CoreId(u32::MAX)
        } else {
            CoreId((c.0 << 29) + 5)
        }
    }
}

fn relabel_cores(bundle: &TraceBundle, map: &impl Fn(CoreId) -> CoreId) -> TraceBundle {
    let mut out = bundle.clone();
    for s in &mut out.samples {
        s.core = map(s.core);
    }
    for m in &mut out.marks {
        m.core = map(m.core);
    }
    out
}

/// Deterministic Fisher–Yates driven by an LCG — enough entropy to
/// scramble ingest order, no RNG dependency.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut s = seed | 1;
    for i in (1..v.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((s >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
}

/// Per-`(item, func)` sample counts of a table.
fn sample_counts(table: &EstimateTable) -> BTreeMap<(u64, u32), u32> {
    let mut counts = BTreeMap::new();
    for ie in table.items() {
        for fe in ie.funcs {
            counts.insert((ie.item.0, fe.func.0), fe.samples);
        }
    }
    counts
}

proptest! {
    // Each case runs several pipeline executions; keep the default
    // modest and let scheduled CI raise it via FLUCTRACE_PROPTEST_CASES.
    #![proptest_config(ProptestConfig::cases_from_env(32))]

    #[test]
    fn samples_are_conserved(seed in 0u64..1_000_000) {
        let w = generate(&spec_from_seed(seed));
        // Offline: every sample is either attributed or not — none
        // duplicated, none lost.
        let mut sorted = w.bundle.clone();
        sorted.sort();
        let it = integrate_with_threads(&sorted, &w.symtab, w.freq, MappingMode::Intervals, 2);
        let rows = 0..it.cols.len();
        let attributed = rows.clone().filter(|&r| it.cols.item_at(r).is_some()).count();
        let unattributed = rows.filter(|&r| it.cols.item_at(r).is_none()).count();
        prop_assert_eq!(attributed + unattributed, w.bundle.samples.len(), "seed {}", seed);
        // The estimate table redistributes attributed samples without
        // inventing or dropping any.
        let table = EstimateTable::from_integrated(&it);
        let tabled: u64 = table
            .items()
            .map(|ie| ie.funcs.iter().map(|f| u64::from(f.samples)).sum::<u64>()
                + u64::from(ie.unknown_func_samples))
            .sum();
        prop_assert_eq!(tabled, attributed as u64, "seed {}", seed);
        // Online: the exact conservation identity.
        let r = online_report(&w, &w.batches);
        prop_assert!(r.conserves_samples(),
            "seed {}: seen {} != attributed {} + evicted {} + discarded {} + spin {}",
            seed, r.samples_seen, r.samples_attributed, r.loss.samples_evicted,
            r.loss.samples_discarded, r.loss.samples_spin);
        prop_assert_eq!(r.samples_seen, w.bundle.samples.len() as u64, "seed {}", seed);
    }

    #[test]
    fn online_report_is_batching_invariant(seed in 0u64..1_000_000, cut_seed in 0u64..1 << 32) {
        let w = generate(&spec_from_seed(seed));
        let baseline = report_fingerprint(&online_report(&w, &w.batches));
        // Same records, different cut positions — including the
        // extremes: one batch per record region and one giant batch.
        for (cs, per_mille) in [(cut_seed, 100), (cut_seed ^ 1, 900), (cut_seed ^ 2, 0)] {
            let recut = w.rebatch(cs, per_mille);
            let fp = report_fingerprint(&online_report(&w, &recut));
            prop_assert_eq!(&fp, &baseline, "seed {} cut_seed {} per_mille {}",
                seed, cs, per_mille);
        }
    }

    #[test]
    fn thinning_is_monotone(seed in 0u64..1_000_000) {
        let w = generate(&spec_from_seed(seed));
        let full = offline_table(&w, &w.bundle);
        let mut prev_counts = sample_counts(&full);
        let prev_total: u64 = prev_counts.values().map(|&c| u64::from(c)).sum();
        let mut prev_totals = prev_total;
        for k in [2u64, 4, 8] {
            let thinned = offline_table(&w, &thin_per_core(&w.bundle, k));
            let counts = sample_counts(&thinned);
            for (key, &n) in &counts {
                let full_n = prev_counts.get(key).copied().unwrap_or(0);
                prop_assert!(n <= full_n,
                    "seed {seed} k {k} {key:?}: thinned count {n} > previous {full_n}");
            }
            let total: u64 = counts.values().map(|&c| u64::from(c)).sum();
            prop_assert!(total <= prev_totals,
                "seed {seed} k {k}: total {total} > previous {prev_totals}");
            // Thinning must not invent items.
            let full_items: Vec<u64> = full.items().map(|ie| ie.item.0).collect();
            for ie in thinned.items() {
                prop_assert!(full_items.contains(&ie.item.0),
                    "seed {seed} k {k}: item {} appeared only when thinned", ie.item.0);
            }
            prev_counts = counts;
            prev_totals = total;
        }
    }

    #[test]
    fn soa_ingest_order_is_invariant(seed in 0u64..1_000_000, shuffle_seed in 0u64..1 << 32) {
        let w = generate(&spec_from_seed(seed));
        let mut sorted = w.bundle.clone();
        sorted.sort();
        let soa = integrate_soa_with_threads(
            &sorted, &w.symtab, w.freq, MappingMode::Intervals, 2,
        );
        let baseline = CanonicalTable::from_pipeline(&EstimateTable::from_soa(&soa)).to_json();
        // Anchor: the fast path agrees with the AoS reference on the
        // same records.
        let aos = CanonicalTable::from_pipeline(&offline_table(&w, &w.bundle)).to_json();
        prop_assert_eq!(&baseline, &aos, "seed {}", seed);
        // Scramble raw ingest order (collector merge order is arbitrary
        // in production), re-sort, and demand the identical table.
        let mut scrambled = w.bundle.clone();
        shuffle(&mut scrambled.samples, shuffle_seed ^ 0x5A5A);
        shuffle(&mut scrambled.marks, shuffle_seed ^ 0xA5A5);
        scrambled.sort();
        let soa2 = integrate_soa_with_threads(
            &scrambled, &w.symtab, w.freq, MappingMode::Intervals, 2,
        );
        let permuted = CanonicalTable::from_pipeline(&EstimateTable::from_soa(&soa2)).to_json();
        prop_assert_eq!(&permuted, &baseline, "seed {} shuffle_seed {}", seed, shuffle_seed);
    }

    #[test]
    fn core_relabeling_is_a_symmetry(seed in 0u64..1_000_000) {
        let w = generate(&spec_from_seed(seed));
        prop_assume!(w.spec.cores > 1);
        let original = CanonicalTable::from_pipeline(&offline_table(&w, &w.bundle)).to_json();
        let map = reverse_cores(w.spec.cores);
        let relabeled_bundle = relabel_cores(&w.bundle, &map);
        let relabeled = CanonicalTable::from_pipeline(&offline_table(&w, &relabeled_bundle))
            .to_json();
        prop_assert_eq!(&original, &relabeled, "seed {}", seed);
        // Online: relabel each batch in place (cut positions unchanged,
        // so per-core arrival order is preserved).
        let batches: Vec<TraceBundle> = w.batches.iter().map(|b| relabel_cores(b, &map)).collect();
        let a = report_fingerprint(&online_report(&w, &w.batches));
        let b = report_fingerprint(&online_report(&w, &batches));
        prop_assert_eq!(&a, &b, "seed {}", seed);
    }

    #[test]
    fn sparse_core_ids_are_a_symmetry(seed in 0u64..1_000_000) {
        let w = generate(&spec_from_seed(seed));
        let map = sparse_cores(w.spec.cores);
        let original = CanonicalTable::from_pipeline(&offline_table(&w, &w.bundle)).to_json();
        let sparse = CanonicalTable::from_pipeline(&offline_table(&w, &relabel_cores(&w.bundle, &map)))
            .to_json();
        prop_assert_eq!(&original, &sparse, "seed {}", seed);
        let batches: Vec<TraceBundle> = w.batches.iter().map(|b| relabel_cores(b, &map)).collect();
        let a = report_fingerprint(&online_report(&w, &w.batches));
        let b = report_fingerprint(&online_report(&w, &batches));
        prop_assert_eq!(&a, &b, "seed {}", seed);
        prop_assert_eq!(windowed_report(&w, &w.batches), windowed_report(&w, &batches), "seed {}", seed);
    }
}
