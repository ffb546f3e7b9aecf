//! Exact cost budgets: allocations and bytes allocated per unit of work
//! on a seeded input, counted by a std-only counting global allocator.
//! An allocation count does not move with machine load, so unlike a
//! timing it can be gated exactly: each budget is the measured value
//! plus a stated slack, and a change that lowers a count must tighten
//! its budget in the same diff (the test fails when a count falls far
//! below its budget).
//!
//! The counter is per thread and switched on only around the calls
//! being costed, so neither the harness nor any other thread enters it.
//! Window ingest, the estimator, the series query and the table's JSON
//! rendering run on the calling thread, and integration is costed with
//! one thread given explicitly (a pool worker's allocations would miss
//! the tally), so every count is the same at every `FLUCTRACE_THREADS`
//! setting.
//!
//! Run with `cargo test --test cost_budget -- --nocapture` to print the
//! measured counts.

use fluctrace_core::{
    integrate_soa_with_threads, CumulativeMode, EstimateTable, MappingMode, WindowedIntegrator,
};
use fluctrace_cpu::{
    CoreId, FuncId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_serve::{build_symtab, ServeConfig, TrafficGen};
use fluctrace_sim::{Freq, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `(counting, allocations, bytes)` of the current thread.
#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    allocs: u64,
    bytes: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { on: false, allocs: 0, bytes: 0 })
    };
}

/// The system allocator, counting every allocation and reallocation
/// (with the bytes requested) made while the current thread's tally is
/// on. Deallocations are not counted.
struct Counting;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing to count into.
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        if v.on {
            v.allocs += 1;
            v.bytes += bytes as u64;
            t.set(v);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's `alloc_zeroed` contract; forwarded to `System` below.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the trait's `realloc` contract; forwarded to `System` below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the trait's `dealloc` contract; forwarded to `System` below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` with this thread's tally on; return its result and the
/// `(allocations, bytes)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    TALLY.with(|t| {
        t.set(Tally {
            on: true,
            allocs: 0,
            bytes: 0,
        })
    });
    let out = f();
    let v = TALLY.with(|t| {
        let v = t.get();
        t.set(Tally { on: false, ..v });
        v
    });
    (out, v.allocs, v.bytes)
}

/// One case's counts as measured when its budget was last set: at most
/// `allocs` allocations per `unit` and `bytes` bytes allocated per
/// `byte_unit`, each with [`SLACK`] on top.
struct Budget {
    case: &'static str,
    unit: &'static str,
    allocs: f64,
    byte_unit: &'static str,
    bytes: f64,
}

/// A count may exceed its checked-in value by this fraction.
const SLACK: f64 = 0.05;

/// A count this fraction below its checked-in value means the budget is
/// stale: the change that lowered it must tighten it.
const STALE: f64 = 0.2;

impl Budget {
    fn check(&self, allocs: f64, bytes: f64, failures: &mut Vec<String>) {
        println!(
            "{:<20} {allocs:>9.5} allocations per {} (budget {:.5}), {bytes:>8.3} B per {} (budget {:.3})",
            self.case, self.unit, self.allocs, self.byte_unit, self.bytes
        );
        for (what, got, budget) in [
            ("allocations", allocs, self.allocs),
            ("bytes", bytes, self.bytes),
        ] {
            if got > budget * (1.0 + SLACK) {
                failures.push(format!(
                    "{}: {got:.3} {what} per unit is over the budget of {budget:.3} plus {:.0}% slack",
                    self.case,
                    SLACK * 100.0
                ));
            } else if got < budget * (1.0 - STALE) {
                failures.push(format!(
                    "{}: {got:.3} {what} per unit is far below the budget of {budget:.3}; tighten it",
                    self.case
                ));
            }
        }
    }
}

/// Window ingest in `serve_steady`'s shape: 4 cores × 64 items × 24
/// samples per batch over 384 functions, 1024-item windows, a ring of 8.
/// 64 warm-up batches fill the ring and size every buffer; the next 256
/// batches are counted, batch generation excluded.
fn window_ingest(mode: CumulativeMode) -> (f64, f64) {
    const WARM_UP: u64 = 64;
    const COUNTED: u64 = 256;
    let mut config = ServeConfig::new(20180521);
    config.shards = 1;
    config.cores = 4;
    config.items_per_batch = 64;
    config.samples_per_item = 24;
    config.funcs = 384;
    config.window.window_items = 1024;
    config.window.max_windows = 8;
    config.window.cumulative = mode;
    let symtab = build_symtab(config.funcs);
    let mut traffic = TrafficGen::new(&config, 0, std::sync::Arc::clone(&symtab));
    let mut wi = WindowedIntegrator::new(symtab, config.window);
    for _ in 0..WARM_UP {
        wi.ingest(traffic.next_batch());
    }
    let before = wi.report();
    let (mut allocs, mut bytes) = (0, 0);
    for _ in 0..COUNTED {
        let batch = traffic.next_batch();
        let ((), a, b) = counted(|| wi.ingest(batch));
        allocs += a;
        bytes += b;
    }
    let after = wi.report();
    assert!(
        after.windows_evicted > before.windows_evicted,
        "the ring must evict"
    );
    let items = after.items_processed - before.items_processed;
    let samples = after.samples_seen - before.samples_seen;
    assert_eq!(items, COUNTED * 4 * 64);
    (allocs as f64 / items as f64, bytes as f64 / samples as f64)
}

/// A batch-analysis table of `analyze_wide`'s input at a quarter of its
/// size: the benchmark's `wide_trace` generator, restated (4 cores, 384
/// functions, 24 samples per item, 1-in-8 function hops, 1-in-64
/// unresolvable samples, a stray sample after every 16th item) at
/// 5 000 items per core, through `integrate_soa_with_threads` (one
/// thread) → `from_soa`. Returns the table and the `(allocations, bytes)`
/// per sample of each of the two stages.
fn wide_table() -> (EstimateTable, (f64, f64), (f64, f64)) {
    const CORES: u32 = 4;
    const ITEMS_PER_CORE: u64 = 5_000;
    let mut b = SymbolTableBuilder::new();
    let ids: Vec<FuncId> = (0..384u64)
        .map(|f| b.add(&format!("fn_{f:04}"), 48 + (f % 7) * 16))
        .collect();
    let symtab = b.build();
    let ranges: Vec<_> = ids.iter().map(|&f| symtab.range(f)).collect();
    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(20180521);
    for core in 0..CORES {
        let mut rng = rng.fork();
        let mut tsc = 1_000 + u64::from(core) * 13;
        let mut hot = rng.gen_below(ranges.len() as u64) as usize;
        let sample = |tsc: u64, ip: VirtAddr, r13: u64| PebsRecord {
            core: CoreId(core),
            tsc,
            ip,
            r13,
            event: HwEvent::UopsRetired,
        };
        for i in 0..ITEMS_PER_CORE {
            let item = ItemId(u64::from(core) * ITEMS_PER_CORE + i);
            let mark = |tsc: u64, kind: MarkKind| MarkRecord {
                core: CoreId(core),
                tsc,
                item,
                kind,
            };
            tsc += rng.gen_range(20, 120);
            bundle.marks.push(mark(tsc, MarkKind::Start));
            for _ in 0..24 {
                tsc += rng.gen_range(40, 160);
                if rng.gen_bool(0.125) {
                    hot = rng.gen_below(ranges.len() as u64) as usize;
                }
                let ip = if rng.gen_bool(1.0 / 64.0) {
                    VirtAddr(2)
                } else {
                    let r = &ranges[hot];
                    VirtAddr(r.start.as_u64() + rng.gen_below(r.size()))
                };
                bundle.samples.push(sample(tsc, ip, item.0 + 1));
            }
            tsc += rng.gen_range(20, 120);
            bundle.marks.push(mark(tsc, MarkKind::End));
            if i % 16 == 5 {
                tsc += rng.gen_range(10, 40);
                bundle.samples.push(sample(tsc, ranges[hot].start, NO_TAG));
            }
        }
    }
    bundle.sort();
    let (soa, soa_allocs, soa_bytes) = counted(|| {
        integrate_soa_with_threads(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals, 1)
    });
    let (table, table_allocs, table_bytes) = counted(|| EstimateTable::from_soa(&soa));
    let samples = bundle.samples.len() as f64;
    let per_sample = |allocs: u64, bytes: u64| (allocs as f64 / samples, bytes as f64 / samples);
    (
        table,
        per_sample(soa_allocs, soa_bytes),
        per_sample(table_allocs, table_bytes),
    )
}

/// `(item, function)` rows of `table`, and how many are estimable.
fn rows(table: &EstimateTable) -> (u64, u64) {
    let all = table.items().map(|ie| ie.funcs.len() as u64).sum();
    let estimable = table
        .items()
        .flat_map(|ie| &ie.funcs)
        .filter(|fe| fe.is_estimable())
        .count() as u64;
    (all, estimable)
}

/// `analyze_wide`'s read: 300 by-function queries over its 384
/// functions, the first of which builds the table's index. Returns
/// the build's `(allocations, bytes per estimable row)` and the
/// `(allocations, bytes)` per query of the 300 queries after it.
fn series_query(table: &EstimateTable) -> ((f64, f64), (f64, f64)) {
    const QUERIES: u32 = 300;
    let (all, estimable) = rows(table);
    println!(
        "series table: {} items, {all} rows, {estimable} estimable",
        table.len()
    );
    let (first, build_allocs, build_bytes) = counted(|| table.series_for_func(FuncId(0)).len());
    assert!(first > 0, "function 0 has estimable rows");
    let (mut allocs, mut bytes) = (0, 0);
    for q in 0..QUERIES {
        let func = FuncId(q % 384);
        let (series, a, b) = counted(|| table.series_for_func(func));
        assert!(series
            .iter()
            .all(|&(item, _)| table.get(item, func).is_some()));
        allocs += a;
        bytes += b;
    }
    let per_query = f64::from(QUERIES);
    (
        (build_allocs as f64, build_bytes as f64 / estimable as f64),
        (allocs as f64 / per_query, bytes as f64 / per_query),
    )
}

/// `serde_json::to_string` of the whole table, per `(item, function)`
/// row.
fn table_json(table: &EstimateTable) -> (f64, f64) {
    let (all, _) = rows(table);
    let (json, allocs, bytes) = counted(|| serde_json::to_string(table));
    assert!(json.is_ok_and(|j| !j.is_empty()));
    (allocs as f64 / all as f64, bytes as f64 / all as f64)
}

#[test]
fn cost_budgets_hold() {
    let mut failures = Vec::new();
    for (mode, budget) in [
        (
            CumulativeMode::Folded,
            Budget {
                case: "window ingest/folded",
                unit: "item",
                allocs: 1.002,
                byte_unit: "sample",
                bytes: 35.803,
            },
        ),
        (
            CumulativeMode::Exact,
            Budget {
                case: "window ingest/exact",
                unit: "item",
                allocs: 1.897,
                byte_unit: "sample",
                bytes: 48.231,
            },
        ),
    ] {
        let (allocs, bytes) = window_ingest(mode);
        budget.check(allocs, bytes, &mut failures);
    }
    let (table, (soa_allocs, soa_bytes), (est_allocs, est_bytes)) = wide_table();
    Budget {
        case: "integrate_soa",
        unit: "sample",
        allocs: 0.00027,
        byte_unit: "sample",
        bytes: 34.004,
    }
    .check(soa_allocs, soa_bytes, &mut failures);
    Budget {
        case: "from_soa",
        unit: "sample",
        allocs: 0.04536,
        byte_unit: "sample",
        bytes: 13.235,
    }
    .check(est_allocs, est_bytes, &mut failures);
    let ((build_allocs, build_bytes), (query_allocs, query_bytes)) = series_query(&table);
    Budget {
        case: "series index build",
        unit: "build",
        allocs: 4.0,
        byte_unit: "estimable row",
        bytes: 44.507,
    }
    .check(build_allocs, build_bytes, &mut failures);
    Budget {
        case: "series query",
        unit: "query",
        allocs: 0.0,
        byte_unit: "query",
        bytes: 0.0,
    }
    .check(query_allocs, query_bytes, &mut failures);
    let (json_allocs, json_bytes) = table_json(&table);
    Budget {
        case: "table JSON",
        unit: "row",
        allocs: 6.822,
        byte_unit: "row",
        bytes: 581.979,
    }
    .check(json_allocs, json_bytes, &mut failures);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
