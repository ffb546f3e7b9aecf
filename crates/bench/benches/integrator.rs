//! Criterion benchmarks of the tracer's integration and estimation
//! pipeline: how many samples per second can the offline integrator
//! attribute, and how fast is fluctuation detection?

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fluctrace_core::{detect, integrate, integrate_with_threads, EstimateTable, MappingMode};
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, NO_TAG,
};
use fluctrace_sim::{Freq, SimDuration};
use std::hint::black_box;

/// Build a synthetic bundle: `items` items spread round-robin over
/// `cores` cores, `samples_per_item` samples spread over 8 functions.
fn synthetic_bundle(cores: u32, items: u64, samples_per_item: u64) -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let funcs: Vec<_> = (0..8).map(|i| b.add(&format!("fn{i}"), 4096)).collect();
    let symtab = b.build();
    let mut bundle = TraceBundle::default();
    let mut tscs = vec![0u64; cores as usize];
    for item in 0..items {
        let core = (item % cores as u64) as u32;
        let tsc = &mut tscs[core as usize];
        bundle.marks.push(MarkRecord {
            core: CoreId(core),
            tsc: *tsc,
            item: ItemId(item),
            kind: MarkKind::Start,
        });
        for s in 0..samples_per_item {
            *tsc += 3000;
            let f = funcs[(s % funcs.len() as u64) as usize];
            bundle.samples.push(PebsRecord {
                core: CoreId(core),
                tsc: *tsc,
                ip: symtab.range(f).start,
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
        }
        *tsc += 3000;
        bundle.marks.push(MarkRecord {
            core: CoreId(core),
            tsc: *tsc,
            item: ItemId(item),
            kind: MarkKind::End,
        });
        *tsc += 1000;
    }
    bundle.sort();
    (bundle, symtab)
}

fn bench_integrate(c: &mut Criterion) {
    let (bundle, symtab) = synthetic_bundle(1, 1_000, 100);
    let n = bundle.samples.len() as u64;
    let mut g = c.benchmark_group("integrate");
    g.throughput(Throughput::Elements(n));
    g.bench_function("interval_mode_100k_samples", |b| {
        b.iter(|| {
            integrate(
                black_box(&bundle),
                &symtab,
                Freq::ghz(3),
                MappingMode::Intervals,
            )
        })
    });
    g.bench_function("register_tag_mode_100k_samples", |b| {
        b.iter(|| {
            integrate(
                black_box(&bundle),
                &symtab,
                Freq::ghz(3),
                MappingMode::RegisterTag,
            )
        })
    });
    // Thread scaling on a 4-core trace (same total sample count); the
    // 1-thread case is the sequential reference the parallel path must
    // match bit for bit.
    let (mc_bundle, mc_symtab) = synthetic_bundle(4, 1_000, 100);
    for threads in [1usize, 4] {
        g.bench_function(format!("interval_mode_4core_{threads}_threads"), |b| {
            b.iter(|| {
                integrate_with_threads(
                    black_box(&mc_bundle),
                    &mc_symtab,
                    Freq::ghz(3),
                    MappingMode::Intervals,
                    threads,
                )
            })
        });
    }
    g.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let (bundle, symtab) = synthetic_bundle(1, 1_000, 100);
    let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
    let mut g = c.benchmark_group("estimate");
    g.throughput(Throughput::Elements(it.samples.len() as u64));
    g.bench_function("estimate_table_100k_samples", |b| {
        b.iter(|| EstimateTable::from_integrated(black_box(&it)))
    });
    let table = EstimateTable::from_integrated(&it);
    g.bench_function("detect_1k_items", |b| {
        b.iter(|| {
            detect(
                black_box(&table),
                |_| Some("g".to_string()),
                3.0,
                SimDuration::from_ns(100),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_integrate, bench_estimate);
criterion_main!(benches);
