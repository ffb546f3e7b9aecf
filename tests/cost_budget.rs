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
//! The online tracer's worker threads are the one exception: they are
//! adopted into a shared tally when spawned (see [`online_worker`]).
//! Window ingest, the exact cumulative table, the estimator, the
//! detector, the series query, the table's JSON rendering, the store's
//! `TraceWriter::append`, window reads and `read_bundle`, and the
//! daemon's reply renders run on the calling thread, and integration is
//! costed with one thread given explicitly (a pool worker's allocations
//! would miss the tally), so every count is the same at every
//! `FLUCTRACE_THREADS` setting. One case also gates a count of work
//! exactly: the chunk bytes a store window read fetches.
//!
//! Run with `cargo test --test cost_budget -- --nocapture` to print the
//! measured counts.

use fluctrace_core::{
    detect, integrate_soa_with_threads, CumulativeMode, EstimateTable, MappingMode, OnlineConfig,
    OnlineTracer, WindowedIntegrator,
};
use fluctrace_cpu::{
    CoreId, FuncId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_serve::{build_symtab, proto, Daemon, ServeConfig, TrafficGen};
use fluctrace_sim::{Freq, Rng, SimDuration};
use fluctrace_store::{write_bundle_to_vec, StoreConfig, TraceReader, TraceWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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

/// Set while the threads to adopt into the shared tally are spawned.
static ADOPT: AtomicBool = AtomicBool::new(false);
/// Whether adopted threads count now, and what they counted.
static SHARED_ON: AtomicBool = AtomicBool::new(false);
static SHARED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static SHARED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread counts into the shared tally: fixed at the
    /// thread's first allocation to the value [`ADOPT`] had then. The
    /// harness threads allocate long before any case sets it.
    static ADOPTED: bool = ADOPT.load(Ordering::Relaxed);
}

/// The system allocator, counting every allocation and reallocation
/// (with the bytes requested) made while the current thread's tally is
/// on, or by an adopted thread while the shared tally is on.
/// Deallocations are not counted.
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
    // Read on every allocation, so that the first one fixes it.
    let adopted = ADOPTED.try_with(|&a| a).unwrap_or(false);
    if adopted && SHARED_ON.load(Ordering::Relaxed) {
        SHARED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        SHARED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
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
/// batches are counted, batch generation excluded. Returns the
/// integrator with the `(allocations per item, bytes per sample)`.
fn window_ingest(mode: CumulativeMode) -> (WindowedIntegrator, f64, f64) {
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
    (
        wi,
        allocs as f64 / items as f64,
        bytes as f64 / samples as f64,
    )
}

/// The online tracer in `capture_spill`'s shape: `TrafficGen` batches of
/// 4 cores × 64 items × 24 samples over 384 functions, submitted with
/// blocking `submit` to `OnlineTracer::spawn` or, with `spill`,
/// `spawn_with_spill` over a sink that keeps nothing. The tracer's
/// threads run the pairing worker (and the spill stage), so they are
/// adopted into the shared tally as they are spawned. 64 warm-up batches
/// size every buffer; the next 256 are counted, from the first submit
/// until the worker has published the last item. Returns the
/// `(allocations per item, bytes per sample)` and the share of counted
/// items flagged divergent: each flagged item copies its samples once.
fn online_worker(spill: bool) -> (f64, f64, f64) {
    const WARM_UP: u64 = 64;
    const COUNTED: u64 = 256;
    const ITEMS_PER_BATCH: u64 = 4 * 64;
    let mut config = ServeConfig::new(20180521);
    config.shards = 1;
    config.cores = 4;
    config.items_per_batch = 64;
    config.samples_per_item = 24;
    config.funcs = 384;
    let symtab = build_symtab(config.funcs);
    let mut traffic = TrafficGen::new(&config, 0, Arc::clone(&symtab));
    let mut batches: Vec<TraceBundle> = (0..WARM_UP + COUNTED)
        .map(|_| traffic.next_batch())
        .collect();
    let counted_batches = batches.split_off(WARM_UP as usize);
    let samples: u64 = counted_batches.iter().map(|b| b.samples.len() as u64).sum();
    let online = OnlineConfig::new(Freq::ghz(3));
    let wait_for = |tracer: &OnlineTracer, items: u64| {
        while tracer.live().items < items {
            std::thread::yield_now();
        }
    };
    ADOPT.store(true, Ordering::Relaxed);
    let tracer = if spill {
        let writer =
            TraceWriter::new(std::io::sink(), StoreConfig::default()).expect("open a segment");
        OnlineTracer::spawn_with_spill(symtab, online, writer)
    } else {
        OnlineTracer::spawn(symtab, online)
    };
    for batch in batches {
        tracer.submit(batch).expect("warm-up submit");
    }
    wait_for(&tracer, WARM_UP * ITEMS_PER_BATCH);
    ADOPT.store(false, Ordering::Relaxed);
    let flagged_before = tracer.live().anomalies;
    SHARED_ALLOCS.store(0, Ordering::Relaxed);
    SHARED_BYTES.store(0, Ordering::Relaxed);
    SHARED_ON.store(true, Ordering::Relaxed);
    for batch in counted_batches {
        tracer.submit(batch).expect("submit");
    }
    wait_for(&tracer, (WARM_UP + COUNTED) * ITEMS_PER_BATCH);
    SHARED_ON.store(false, Ordering::Relaxed);
    let flagged = tracer.live().anomalies - flagged_before;
    let report = tracer.finish().expect("the tracer finishes");
    assert!(report.conserves_samples() && report.loss.is_clean());
    if spill {
        assert_eq!(report.spill.errors, 0);
    }
    let items = (COUNTED * ITEMS_PER_BATCH) as f64;
    (
        SHARED_ALLOCS.load(Ordering::Relaxed) as f64 / items,
        SHARED_BYTES.load(Ordering::Relaxed) as f64 / samples as f64,
        flagged as f64 / items,
    )
}

/// `cumulative_table()` of an exact-mode integrator, per `(item,
/// function)` row of the table it renders.
fn cumulative_rows(wi: &WindowedIntegrator) -> (f64, f64) {
    let (table, allocs, bytes) = counted(|| wi.cumulative_table());
    let table = table.expect("exact mode");
    let (all, _) = rows(&table);
    println!("cumulative table: {} items, {all} rows", table.len());
    (allocs as f64 / all as f64, bytes as f64 / all as f64)
}

/// Items per core of [`wide_table`]'s input.
const WIDE_ITEMS_PER_CORE: u64 = 5_000;

/// A batch-analysis table of `analyze_wide`'s input at a quarter of its
/// size: the benchmark's `wide_trace` generator, restated (4 cores, 384
/// functions, 24 samples per item, 1-in-8 function hops, 1-in-64
/// unresolvable samples, a stray sample after every 16th item) at
/// 5 000 items per core, through `integrate_soa_with_threads` (one
/// thread) → `from_soa`. Returns the table and the `(allocations, bytes)`
/// per sample of each of the two stages.
fn wide_table() -> (EstimateTable, (f64, f64), (f64, f64)) {
    const CORES: u32 = 4;
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
        for i in 0..WIDE_ITEMS_PER_CORE {
            let item = ItemId(u64::from(core) * WIDE_ITEMS_PER_CORE + i);
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
        .flat_map(|ie| ie.funcs)
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

/// `analyze_wide`'s detector call: `fluct::detect` with items grouped
/// by the core that ran them (`item / items per core`, as the
/// benchmark's `wide_group`), 4 robust sigmas and a 20 ns floor, per
/// `(item, function)` row. `label` names a core inside the call: the
/// benchmark formats a `String` there, a fixed label set can lend a
/// `&'static str`.
fn detect_rows<L: AsRef<str>>(table: &EstimateTable, label: impl Fn(u64) -> L) -> (f64, f64) {
    let (all, _) = rows(table);
    let (report, allocs, bytes) = counted(|| {
        detect(
            table,
            |item| Some(label(item.0 / WIDE_ITEMS_PER_CORE)),
            4.0,
            SimDuration::from_ns(20),
        )
    });
    println!("detect: {} outliers", report.outliers.len());
    (allocs as f64 / all as f64, bytes as f64 / all as f64)
}

/// `serde_json::to_string` of the whole table, per `(item, function)`
/// row.
fn table_json(table: &EstimateTable) -> (f64, f64) {
    let (all, _) = rows(table);
    let (json, allocs, bytes) = counted(|| serde_json::to_string(table));
    assert!(json.is_ok_and(|j| !j.is_empty()));
    (allocs as f64 / all as f64, bytes as f64 / all as f64)
}

/// Samples per core of [`store_reads`]' file.
const STORE_SAMPLES_PER_CORE: u64 = 5_000;

/// A store file written from a `(core, tsc)`-sorted bundle: 4 cores ×
/// 5 000 samples 40–160 cycles apart over 16 functions, a mark pair
/// every 25 samples, in sample chunks of 4 096 rows (5 chunks, three of
/// which straddle two cores). Costs 32 window reads, each a tenth of
/// one core's TSC span, after one warm-up read sizes the reader's
/// buffers, and then 4 `read_bundle`s. Returns the window reads'
/// `(allocations, bytes)` per query and `read_bundle`'s allocations per
/// read and bytes per sample.
fn store_reads() -> ((f64, f64), (f64, f64)) {
    const QUERIES: u64 = 32;
    const READS: u64 = 4;
    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(20180521);
    let mut span = 0;
    for core in 0..4 {
        let mut tsc = 1_000;
        for i in 0..STORE_SAMPLES_PER_CORE {
            tsc += rng.gen_range(40, 160);
            let item = ItemId(u64::from(core) * STORE_SAMPLES_PER_CORE + i / 25);
            if i % 25 == 0 {
                bundle.marks.push(MarkRecord {
                    core: CoreId(core),
                    tsc,
                    item,
                    kind: MarkKind::Start,
                });
            }
            bundle.samples.push(PebsRecord {
                core: CoreId(core),
                tsc,
                ip: VirtAddr(0x4000 + rng.gen_below(16) * 64),
                r13: item.0 + 1,
                event: HwEvent::UopsRetired,
            });
        }
        span = span.max(tsc);
    }
    bundle.sort();
    let config = StoreConfig {
        chunk_rows: 4_096,
        ..StoreConfig::default()
    };
    let (bytes, stats) = write_bundle_to_vec(&bundle, config).expect("write the store file");
    // At least 3 sample chunks and the mark chunk.
    assert!(stats.chunks >= 4, "at least 3 sample chunks");
    let mut reader = TraceReader::open(std::io::Cursor::new(bytes)).expect("open the store file");
    let window = |q: u64| {
        let lo = 1_000 + span * (q % 10) / 10;
        (lo, lo + span / 10)
    };
    let (lo, hi) = window(QUERIES);
    assert!(!reader
        .read_samples_in(lo, hi)
        .expect("warm-up read")
        .is_empty());
    let (mut allocs, mut alloc_bytes) = (0, 0);
    for q in 0..QUERIES {
        let (lo, hi) = window(q);
        let (rows, a, b) = counted(|| reader.read_samples_in(lo, hi));
        let rows = rows.expect("window read");
        let expect = bundle.samples.iter().filter(|s| s.tsc >= lo && s.tsc <= hi);
        assert!(
            rows.iter().eq(expect),
            "window read {q} returned other rows"
        );
        allocs += a;
        alloc_bytes += b;
    }
    let window_cost = (
        allocs as f64 / QUERIES as f64,
        alloc_bytes as f64 / QUERIES as f64,
    );
    let (mut allocs, mut alloc_bytes) = (0, 0);
    for _ in 0..READS {
        let (read, a, b) = counted(|| reader.read_bundle());
        let read = read.expect("read_bundle");
        assert!(
            read.samples == bundle.samples && read.marks == bundle.marks,
            "read_bundle returned other rows"
        );
        allocs += a;
        alloc_bytes += b;
    }
    let samples = (READS * bundle.samples.len() as u64) as f64;
    (
        window_cost,
        (allocs as f64 / READS as f64, alloc_bytes as f64 / samples),
    )
}

/// Samples per core of [`store_window_sweep`]'s file.
const SWEEP_SAMPLES_PER_CORE: u64 = 640_000;

/// `store.reader.bytes` per window read of [`store_window_sweep`].
const SWEEP_FETCHED_PER_READ: f64 = 357_358.312_5;

/// Window reads in `replay_acl`'s shape: a store file written from a
/// `(core, tsc)`-sorted bundle of 3 cores × 640 000 samples 2 000–6 000
/// cycles apart over 20 functions, untagged, in the default 16 384-row
/// chunks (two of which straddle two cores, so their footer TSC range is
/// nearly the whole trace). One reader reads the 16 adjacent windows
/// that tile the TSC span, in order, twice. Returns the chunk bytes
/// fetched (`store.reader.bytes`) and the rows returned, summed over the
/// 32 reads, and the second round's `(allocations, bytes)` per read.
fn store_window_sweep() -> (u64, u64, (f64, f64)) {
    const WINDOWS: u64 = 16;
    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(20180521);
    // Every core starts after tsc 1 000; `last` is the largest tsc.
    let mut last = 0;
    for core in 0..3 {
        let mut tsc = 1_000 + u64::from(core) * 13;
        for _ in 0..SWEEP_SAMPLES_PER_CORE {
            tsc += rng.gen_range(2_000, 6_000);
            bundle.samples.push(PebsRecord {
                core: CoreId(core),
                tsc,
                ip: VirtAddr(0x4000 + rng.gen_below(20) * 64),
                r13: NO_TAG,
                event: HwEvent::UopsRetired,
            });
        }
        last = last.max(tsc);
    }
    bundle.sort();
    let (bytes, _) =
        write_bundle_to_vec(&bundle, StoreConfig::default()).expect("write the store file");
    let mut reader = TraceReader::open(std::io::Cursor::new(bytes)).expect("open the store file");
    let width = (last - 1_000) / WINDOWS + 1;
    let fetched = fluctrace_obs::registry().counter("store.reader.bytes");
    let before = fetched.total();
    let (mut rows, mut allocs, mut alloc_bytes) = (0, 0, 0);
    for round in 0..2 {
        for w in 0..WINDOWS {
            let lo = 1_000 + w * width;
            let hi = lo + width - 1;
            let (read, a, b) = counted(|| reader.read_samples_in(lo, hi));
            let read = read.expect("window read");
            let expect = bundle.samples.iter().filter(|s| s.tsc >= lo && s.tsc <= hi);
            assert!(read.iter().eq(expect), "window {w} returned other rows");
            rows += read.len() as u64;
            if round == 1 {
                allocs += a;
                alloc_bytes += b;
            }
        }
    }
    assert_eq!(
        rows,
        2 * bundle.samples.len() as u64,
        "the windows tile the trace"
    );
    (
        fetched.total() - before,
        rows,
        (
            allocs as f64 / WINDOWS as f64,
            alloc_bytes as f64 / WINDOWS as f64,
        ),
    )
}

/// `TraceWriter::append` in `capture_spill`'s shape: `TrafficGen`
/// batches of 4 interleaved cores × 64 items × 24 samples over 384
/// functions, in the default 16 384-row chunks, into a sink that keeps
/// nothing. Warm-up appends run until each stream has written its first
/// chunk, which sizes every buffer; the next 256 appends are counted,
/// batch generation excluded. Returns the `(allocations, bytes)` per
/// batch.
fn writer_appends() -> (f64, f64) {
    const COUNTED: u64 = 256;
    let mut config = ServeConfig::new(20180521);
    config.shards = 1;
    config.cores = 4;
    config.items_per_batch = 64;
    config.samples_per_item = 24;
    config.funcs = 384;
    let symtab = build_symtab(config.funcs);
    let mut traffic = TrafficGen::new(&config, 0, symtab);
    let store = StoreConfig::default();
    let mut writer = TraceWriter::new(std::io::sink(), store).expect("open a segment");
    while writer.stats().marks < store.chunk_rows as u64 {
        writer
            .append(&traffic.next_batch())
            .expect("warm-up append");
    }
    let before = writer.stats();
    let (mut allocs, mut bytes, mut samples) = (0, 0, 0);
    for _ in 0..COUNTED {
        let batch = traffic.next_batch();
        samples += batch.samples.len() as u64;
        let (appended, a, b) = counted(|| writer.append(&batch));
        appended.expect("append");
        allocs += a;
        bytes += b;
    }
    let after = writer.stats();
    assert_eq!(after.samples - before.samples, samples);
    println!(
        "writer appends: {} chunks written while counted",
        after.chunks - before.chunks
    );
    (
        allocs as f64 / COUNTED as f64,
        bytes as f64 / COUNTED as f64,
    )
}

/// The daemon's `windows 4`, `episodes` and `loss` replies, each
/// rendered once by `serve::proto` over the shards of a drained
/// in-process daemon (default seed, 96 batches: the run whose replies CI
/// pins by sha256). Returns each reply's `(allocations, bytes)`.
fn replies() -> [(f64, f64); 3] {
    let mut config = ServeConfig::new(42);
    config.max_batches = Some(96);
    let daemon = Daemon::start(config, "127.0.0.1:0").expect("bind a loopback port");
    daemon.wait_drained();
    let shards = daemon.shards();
    let renders: [&dyn Fn() -> String; 3] = [
        &|| proto::windows_doc(shards, 4),
        &|| proto::episodes_doc(shards),
        &|| proto::loss_doc(shards),
    ];
    let costs = renders.map(|render| {
        let (reply, allocs, bytes) = counted(render);
        assert!(reply.starts_with("{\"total\"") || reply.starts_with("{\"shards\""));
        (allocs as f64, bytes as f64)
    });
    daemon.quiesce();
    daemon.join();
    costs
}

#[test]
fn cost_budgets_hold() {
    // The process-wide obs registry is built on first use: build it
    // before any count, so no case pays for that one-time setup.
    fluctrace_obs::registry();
    let mut failures = Vec::new();
    for (mode, budget) in [
        (
            CumulativeMode::Folded,
            Budget {
                case: "window ingest/folded",
                unit: "item",
                allocs: 0.001953,
                byte_unit: "sample",
                bytes: 3.554,
            },
        ),
        (
            CumulativeMode::Exact,
            Budget {
                case: "window ingest/exact",
                unit: "item",
                allocs: 0.002029,
                byte_unit: "sample",
                bytes: 14.669,
            },
        ),
    ] {
        let (wi, allocs, bytes) = window_ingest(mode);
        budget.check(allocs, bytes, &mut failures);
        if mode == CumulativeMode::Exact {
            let (table_allocs, table_bytes) = cumulative_rows(&wi);
            Budget {
                case: "cumulative table",
                unit: "row",
                allocs: 0.0000223,
                byte_unit: "row",
                bytes: 45.559,
            }
            .check(table_allocs, table_bytes, &mut failures);
        }
    }
    for (spill, case, allocs, bytes) in [
        (false, "online worker", 0.9859, 39.611),
        (true, "online worker/spill", 0.98595, 39.627),
    ] {
        let (got_allocs, got_bytes, flagged) = online_worker(spill);
        println!("{case}: {flagged:.5} of the counted items flagged");
        assert!(
            got_allocs >= flagged,
            "{case}: every flagged item copies its samples"
        );
        Budget {
            case,
            unit: "item",
            allocs,
            byte_unit: "sample",
            bytes,
        }
        .check(got_allocs, got_bytes, &mut failures);
    }
    let (table, (soa_allocs, soa_bytes), (est_allocs, est_bytes)) = wide_table();
    Budget {
        case: "integrate_soa",
        unit: "sample",
        allocs: 0.0000624,
        byte_unit: "sample",
        bytes: 32.841,
    }
    .check(soa_allocs, soa_bytes, &mut failures);
    Budget {
        case: "from_soa",
        unit: "sample",
        allocs: 0.0000208,
        byte_unit: "sample",
        bytes: 6.941,
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
    let (detect_allocs, detect_bytes) = detect_rows(&table, |core| format!("core{core}"));
    Budget {
        case: "detect",
        unit: "row",
        allocs: 0.30041,
        byte_unit: "row",
        bytes: 39.558,
    }
    .check(detect_allocs, detect_bytes, &mut failures);
    const CORES: [&str; 4] = ["core0", "core1", "core2", "core3"];
    let (borrowed_allocs, borrowed_bytes) = detect_rows(&table, |core| CORES[core as usize]);
    Budget {
        case: "detect/borrowed",
        unit: "row",
        allocs: 0.04017,
        byte_unit: "row",
        bytes: 37.476,
    }
    .check(borrowed_allocs, borrowed_bytes, &mut failures);
    let (json_allocs, json_bytes) = table_json(&table);
    Budget {
        case: "table JSON",
        unit: "row",
        allocs: 0.000013,
        byte_unit: "row",
        bytes: 88.987,
    }
    .check(json_allocs, json_bytes, &mut failures);
    let ((window_allocs, window_bytes), (bundle_allocs, bundle_bytes)) = store_reads();
    Budget {
        case: "store window read",
        unit: "query",
        allocs: 3.40625,
        byte_unit: "query",
        bytes: 151_456.0,
    }
    .check(window_allocs, window_bytes, &mut failures);
    Budget {
        case: "store read_bundle",
        unit: "read",
        allocs: 5.0,
        byte_unit: "sample",
        bytes: 99.264,
    }
    .check(bundle_allocs, bundle_bytes, &mut failures);
    let (fetched, swept_rows, (sweep_allocs, sweep_bytes)) = store_window_sweep();
    // Chunk bytes fetched are a count of work, exact on any machine:
    // gated with no slack either way.
    let fetched_per_read = fetched as f64 / 32.0;
    println!(
        "store window sweep   {fetched_per_read:.5} chunk bytes fetched per read (exactly {SWEEP_FETCHED_PER_READ:.5}), {} rows per read",
        swept_rows / 32
    );
    if fetched_per_read != SWEEP_FETCHED_PER_READ {
        failures.push(format!(
            "store window sweep: {fetched_per_read} chunk bytes fetched per read, not exactly {SWEEP_FETCHED_PER_READ}"
        ));
    }
    Budget {
        case: "store window sweep",
        unit: "read",
        allocs: 4.875,
        byte_unit: "read",
        bytes: 11_029_392.0,
    }
    .check(sweep_allocs, sweep_bytes, &mut failures);
    let (append_allocs, append_bytes) = writer_appends();
    Budget {
        case: "store TraceWriter append",
        unit: "batch",
        allocs: 0.01172,
        byte_unit: "batch",
        bytes: 49.0,
    }
    .check(append_allocs, append_bytes, &mut failures);
    let [windows, episodes, loss] = replies();
    for ((allocs, bytes), case, budget_allocs, budget_bytes) in [
        (windows, "reply windows 4", 4.0, 1184.0),
        (episodes, "reply episodes", 4.0, 86_288.0),
        (loss, "reply loss", 2.0, 1440.0),
    ] {
        Budget {
            case,
            unit: "reply",
            allocs: budget_allocs,
            byte_unit: "reply",
            bytes: budget_bytes,
        }
        .check(allocs, bytes, &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
