//! The estimator's per-item fold on the edge cases of its run index, in
//! both mapping modes: the table, its self-observability volumes, the
//! production kernel's trace against the reference kernel's, and, where
//! the input is a raw bundle, the conformance oracle.
//!
//! One test in its own binary: the obs registry is process-wide, so the
//! `core.estimate.*` deltas measured here must not pick up another
//! test's estimator run.

use fluctrace_conformance::oracle::register_oracle;
use fluctrace_conformance::CanonicalTable;
use fluctrace_core::integrate::NO_SPAN;
use fluctrace_core::{integrate, integrate_soa, EstimateTable, MappingMode};
use fluctrace_cpu::{
    encode_tag, CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_obs::Snapshot;
use fluctrace_sim::Freq;

fn mark(core: u32, tsc: u64, item: u64, kind: MarkKind) -> MarkRecord {
    MarkRecord {
        core: CoreId(core),
        tsc,
        item: ItemId(item),
        kind,
    }
}

fn sample(core: u32, tsc: u64, ip: VirtAddr) -> PebsRecord {
    tagged(core, tsc, ip, NO_TAG)
}

fn tagged(core: u32, tsc: u64, ip: VirtAddr, r13: u64) -> PebsRecord {
    PebsRecord {
        core: CoreId(core),
        tsc,
        ip,
        r13,
        event: HwEvent::UopsRetired,
    }
}

/// The `core.estimate.*` volumes one estimator call adds.
fn estimate_volumes(run: impl FnOnce() -> EstimateTable) -> (EstimateTable, String) {
    let base = fluctrace_obs::snapshot();
    let table = run();
    let delta = fluctrace_obs::snapshot().diff(&base);
    let pick = Snapshot {
        counters: delta
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("core.estimate."))
            .collect(),
        gauges: Default::default(),
        histograms: delta
            .histograms
            .into_iter()
            .filter(|(name, _)| name.starts_with("core.estimate."))
            .collect(),
    };
    (table, pick.to_json())
}

#[test]
fn per_item_fold_on_run_index_edge_cases() {
    let mut b = SymbolTableBuilder::new();
    let f = b.add("f", 100);
    let g = b.add("g", 100);
    let symtab = b.build();
    let (fi, gi, bad) = (symtab.range(f).start, symtab.range(g).start, VirtAddr(0x2));

    let mut bundle = TraceBundle::default();
    // Item 1 on two cores at once, and once more later on core 0: three
    // intervals, several item-index runs.
    bundle.marks.extend([
        mark(0, 0, 1, MarkKind::Start),
        mark(0, 1_000, 1, MarkKind::End),
        mark(1, 50, 1, MarkKind::Start),
        mark(1, 900, 1, MarkKind::End),
        mark(0, 6_000, 1, MarkKind::Start),
        mark(0, 7_000, 1, MarkKind::End),
    ]);
    bundle.samples.extend([
        sample(0, 100, fi),
        sample(0, 200, gi),
        sample(0, 600, fi),
        sample(0, 700, bad),
        sample(1, 120, fi),
        sample(1, 500, fi),
        sample(1, 800, gi),
        sample(0, 6_100, fi),
        sample(0, 6_500, fi),
    ]);
    // A gap sample between items.
    bundle.samples.push(sample(0, 1_500, fi));
    // Item 2: only unresolvable samples, inside an interval.
    bundle.marks.extend([
        mark(0, 2_000, 2, MarkKind::Start),
        mark(0, 3_000, 2, MarkKind::End),
    ]);
    bundle
        .samples
        .extend([sample(0, 2_100, bad), sample(0, 2_200, bad)]);
    // Item 3: only unresolvable samples; its interval is dropped below.
    bundle.marks.extend([
        mark(1, 2_000, 3, MarkKind::Start),
        mark(1, 3_000, 3, MarkKind::End),
    ]);
    bundle.samples.push(sample(1, 2_500, bad));
    // Item 4: its last sample loses its interval index below.
    bundle.marks.extend([
        mark(0, 4_000, 4, MarkKind::Start),
        mark(0, 5_000, 4, MarkKind::End),
    ]);
    bundle.samples.extend([
        sample(0, 4_100, fi),
        sample(0, 4_200, fi),
        sample(0, 4_900, fi),
    ]);
    bundle.sort();

    let mut it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
    assert_eq!(
        integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals),
        it
    );
    it.intervals.retain(|iv| iv.item != ItemId(3));
    let straggler = it.cols.tsc.iter().position(|&tsc| tsc == 4_900);
    if let Some(span) = straggler.and_then(|row| it.cols.span.get_mut(row)) {
        *span = NO_SPAN;
    }

    let (columnar, volumes) = estimate_volumes(|| EstimateTable::from_integrated(&it));
    assert_eq!(EstimateTable::from_soa(&it), columnar);
    assert!(
        volumes.contains("\"core.estimate.samples_missing_span\": 1"),
        "{volumes}"
    );
    assert!(volumes.contains("\"core.estimate.runs\": 1"), "{volumes}");

    // The shapes really are the ones named above.
    let one = columnar
        .item(ItemId(1))
        .map(|ie| (ie.funcs.to_vec(), ie.unknown_func_samples));
    let (funcs, unknown) = one.unwrap_or_default();
    assert_eq!(unknown, 1);
    assert_eq!(
        funcs.iter().map(|fe| fe.samples).collect::<Vec<_>>(),
        [6, 2]
    );
    let two = columnar.item(ItemId(2));
    assert!(two.is_some_and(|ie| ie.funcs.is_empty() && ie.unknown_func_samples == 2));
    assert!(
        columnar.item(ItemId(3)).is_none(),
        "no span, no interval: absent"
    );
    assert_eq!(columnar.samples_missing_span, 1);
    assert_eq!(
        columnar
            .item(ItemId(4))
            .and_then(|ie| ie.func(f))
            .map(|fe| fe.samples),
        Some(2)
    );

    // Register mode: item 5's tag on the last rows of core 0 and the
    // first rows of core 1 is one index run (the rows are adjacent) but
    // two spans, and an unresolvable sample inside it counts without
    // splitting it. One span across the boundary would read 900 - 50
    // cycles instead of 700 + 400.
    let t5 = encode_tag(ItemId(5));
    let mut bundle = TraceBundle::default();
    bundle.samples.extend([
        tagged(0, 100, fi, NO_TAG),
        tagged(0, 200, fi, t5),
        tagged(0, 300, bad, t5),
        tagged(0, 900, fi, t5),
        tagged(1, 50, fi, t5),
        tagged(1, 450, fi, t5),
    ]);
    bundle.sort();
    let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::RegisterTag);
    assert_eq!(
        integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::RegisterTag),
        it
    );
    let (columnar, volumes) = estimate_volumes(|| EstimateTable::from_integrated(&it));
    let oracle = register_oracle(&bundle.marks, &bundle.samples, &symtab, Freq::ghz(3));
    assert_eq!(
        CanonicalTable::from_pipeline(&columnar),
        CanonicalTable::from_oracle(&oracle)
    );
    assert!(volumes.contains("\"core.estimate.spans\": 2"), "{volumes}");
    let five = columnar.item(ItemId(5));
    assert!(five.is_some_and(|ie| ie.unknown_func_samples == 1));
    assert_eq!(
        five.and_then(|ie| ie.func(f))
            .map(|fe| (fe.samples, fe.elapsed)),
        Some((4, Freq::ghz(3).cycles_to_dur(700 + 400)))
    );
}
