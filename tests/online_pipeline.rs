//! End-to-end online tracing: a simulated core produces batches via
//! `drain_trace`, a real worker thread integrates them incrementally,
//! and only diverging items' raw samples are kept (§IV.C.3).

use fluctrace::core::{OnlineConfig, OnlineTracer};
use fluctrace::cpu::{
    CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig, SymbolTableBuilder,
};
use fluctrace::sim::Freq;

fn run_stream(slow_every: u64, items: u64, batch: u64) -> fluctrace::core::OnlineReport {
    let mut b = SymbolTableBuilder::new();
    let work = b.add("work", 4096);
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(1_000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let symtab = machine.symtab().clone();
    let core = machine.core_mut(0);
    let tracer = OnlineTracer::spawn(symtab, OnlineConfig::new(Freq::ghz(3)));
    for item in 0..items {
        core.mark_item_start(ItemId(item));
        let uops = if slow_every > 0 && item % slow_every == slow_every - 1 && item > 30 {
            120_000
        } else {
            12_000
        };
        core.exec(Exec::new(work, uops));
        core.mark_item_end(ItemId(item));
        if item % batch == batch - 1 {
            tracer.submit(core.drain_trace()).expect("worker alive");
        }
    }
    tracer.submit(core.drain_trace()).expect("worker alive");
    tracer.finish().expect("worker exits cleanly")
}

#[test]
fn online_flags_exactly_the_slow_items() {
    let report = run_stream(50, 500, 64);
    assert_eq!(report.items_processed, 500);
    // Items 49+50k for k>=1 after warm-up... slow items are at indices
    // 99, 149, ..., 499 minus any within the first 30: that is 9 items
    // (49 is skipped because of the `item > 30` guard? no: 49 > 30, so
    // 49, 99, ..., 499 = 10 items).
    let flagged: Vec<u64> = report.anomalies.iter().map(|a| a.item.0).collect();
    let expected: Vec<u64> = (0..500).filter(|i| i % 50 == 49 && *i > 30).collect();
    assert_eq!(flagged, expected);
    // Volume: only those items' samples were kept.
    assert!(report.bytes_dumped < report.bytes_seen / 5);
    assert!(report.reduction_factor() > 5.0);
}

#[test]
fn online_steady_stream_keeps_nothing() {
    let report = run_stream(0, 300, 32);
    assert_eq!(report.items_processed, 300);
    assert!(report.anomalies.is_empty());
    assert_eq!(report.bytes_dumped, 0);
}

#[test]
fn online_matches_offline_estimates() {
    // The online estimator's per-item elapsed values equal the offline
    // pipeline's for the flagged items.
    let mut b = SymbolTableBuilder::new();
    let work = b.add("work", 4096);
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(1_000));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let symtab = machine.symtab().clone();
    let core = machine.core_mut(0);
    let tracer = OnlineTracer::spawn(symtab, OnlineConfig::new(Freq::ghz(3)));
    let mut offline_bundle = fluctrace::cpu::TraceBundle::default();
    for item in 0..200u64 {
        core.mark_item_start(ItemId(item));
        let uops = if item == 150 { 120_000 } else { 12_000 };
        core.exec(Exec::new(work, uops));
        core.mark_item_end(ItemId(item));
        if item % 20 == 19 {
            let batch = core.drain_trace();
            offline_bundle.merge(batch.clone());
            tracer.submit(batch).expect("worker alive");
        }
    }
    let report = tracer.finish().expect("worker exits cleanly");
    assert_eq!(report.anomalies.len(), 1);
    let anomaly = &report.anomalies[0];
    assert_eq!(anomaly.item, ItemId(150));

    offline_bundle.sort();
    let it = fluctrace::core::integrate(
        &offline_bundle,
        machine.symtab(),
        Freq::ghz(3),
        fluctrace::core::MappingMode::Intervals,
    );
    let table = fluctrace::core::EstimateTable::from_integrated(&it);
    let offline = table.get(ItemId(150), work).unwrap();
    assert_eq!(offline.elapsed, anomaly.elapsed);
}

#[test]
fn boundary_samples_attribute_identically_online_and_offline() {
    // Regression for the end-boundary loss bug: `ItemInterval::contains`
    // is inclusive at both ends, so a sample whose TSC equals the Start
    // or End mark belongs to the item offline — the online merge must
    // agree, or online and offline estimates drift apart.
    use fluctrace::cpu::{CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, TraceBundle, NO_TAG};
    let mut b = SymbolTableBuilder::new();
    let work = b.add("work", 4096);
    let symtab = b.build();
    let ip = symtab.range(work).start;
    let mut bundle = TraceBundle::default();
    let mark = |tsc, item, kind| MarkRecord {
        core: CoreId(0),
        tsc,
        item: ItemId(item),
        kind,
    };
    let sample = |tsc| PebsRecord {
        core: CoreId(0),
        tsc,
        ip,
        r13: NO_TAG,
        event: HwEvent::UopsRetired,
    };
    // 39 baseline items: samples exactly at start, middle and end.
    for item in 0..39u64 {
        let base = (item + 1) * 100_000;
        let end = base + 3_000;
        bundle.marks.push(mark(base, item, MarkKind::Start));
        bundle.marks.push(mark(end, item, MarkKind::End));
        for tsc in [base, base + 1_500, end] {
            bundle.samples.push(sample(tsc));
        }
    }
    // One diverging item measured *only* by its two boundary samples.
    let base = 40 * 100_000;
    let end = base + 30_000;
    bundle.marks.push(mark(base, 39, MarkKind::Start));
    bundle.marks.push(mark(end, 39, MarkKind::End));
    bundle.samples.push(sample(base));
    bundle.samples.push(sample(end));
    bundle.sort();

    let it = fluctrace::core::integrate(
        &bundle,
        &symtab,
        Freq::ghz(3),
        fluctrace::core::MappingMode::Intervals,
    );
    let table = fluctrace::core::EstimateTable::from_integrated(&it);
    let offline = table.get(ItemId(39), work).unwrap();

    let tracer = OnlineTracer::spawn(
        symtab.clone().into_shared(),
        OnlineConfig::new(Freq::ghz(3)),
    );
    tracer.submit(bundle).expect("worker alive");
    let report = tracer.finish().expect("worker exits cleanly");
    assert_eq!(report.items_processed, 40);
    assert!(report.loss.samples_lost() == 0, "{:?}", report.loss);
    // 2 boundary samples on every item, all attributed.
    assert_eq!(report.loss.boundary_samples, 2 * 40);
    // The diverging item's estimate — made entirely of boundary samples —
    // matches the offline pipeline exactly.
    assert_eq!(report.anomalies.len(), 1);
    assert_eq!(report.anomalies[0].item, ItemId(39));
    assert_eq!(report.anomalies[0].elapsed, offline.elapsed);
}

#[test]
fn coincident_end_start_sample_goes_to_the_closing_item() {
    // One tie rule in every kernel: at the tick where item 1 ends and
    // item 2 starts, the closing item owns the sample — the rule a
    // stream can apply without looking past a batch cut.
    use fluctrace::core::{
        integrate, integrate_soa_with_threads, CumulativeMode, EstimateTable, MappingMode,
        WindowConfig, WindowedIntegrator,
    };
    use fluctrace::cpu::{CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, TraceBundle, NO_TAG};
    let mut b = SymbolTableBuilder::new();
    let work = b.add("work", 4096);
    let symtab = b.build().into_shared();
    let ip = symtab.range(work).start;
    let mark = |tsc, item, kind| MarkRecord {
        core: CoreId(0),
        tsc,
        item: ItemId(item),
        kind,
    };
    let sample = |tsc| PebsRecord {
        core: CoreId(0),
        tsc,
        ip,
        r13: NO_TAG,
        event: HwEvent::UopsRetired,
    };
    let first = TraceBundle {
        marks: vec![mark(100, 1, MarkKind::Start), mark(200, 1, MarkKind::End)],
        samples: [150, 160, 200].map(sample).to_vec(),
    };
    let second = TraceBundle {
        marks: vec![mark(200, 2, MarkKind::Start), mark(300, 2, MarkKind::End)],
        samples: [250, 260].map(sample).to_vec(),
    };
    let mut bundle = first.clone();
    bundle.merge(second.clone());
    bundle.sort();
    let freq = Freq::ghz(3);

    let reference = integrate(&bundle, &symtab, freq, MappingMode::Intervals);
    assert_eq!(reference.cols.item, [1, 1, 1, 2, 2]);
    for threads in [1, 2, 3, 8] {
        let soa =
            integrate_soa_with_threads(&bundle, &symtab, freq, MappingMode::Intervals, threads);
        assert_eq!(soa, reference, "threads={threads}");
    }
    let table = EstimateTable::from_integrated(&reference);
    assert_eq!(table.get(ItemId(1), work).map(|fe| fe.samples), Some(3));

    // The window, whole and cut right after End(1).
    for batches in [vec![bundle.clone()], vec![first, second]] {
        let mut config = WindowConfig::new(freq);
        config.cumulative = CumulativeMode::Exact;
        let mut window = WindowedIntegrator::new(symtab.clone(), config);
        for batch in batches {
            window.ingest(batch);
        }
        window.finish_stream();
        assert_eq!(window.cumulative_table().as_ref(), Some(&table));
    }

    // The online tracer, flagging every item so each reports its samples.
    let mut config = OnlineConfig::new(freq);
    config.divergence_factor = 0.0;
    config.warmup = 0;
    let tracer = OnlineTracer::spawn(symtab, config);
    tracer.submit(bundle).expect("worker alive");
    let report = tracer.finish().expect("worker exits cleanly");
    assert_eq!(report.loss.boundary_samples, 1);
    let raw: Vec<(ItemId, usize)> = report
        .anomalies
        .iter()
        .map(|a| (a.item, a.raw_samples.len()))
        .collect();
    assert_eq!(raw, [(ItemId(1), 3), (ItemId(2), 2)]);
}
