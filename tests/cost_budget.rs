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
//! Window ingest runs on the calling thread, so its counts are the same
//! at every `FLUCTRACE_THREADS` setting.
//!
//! Run with `cargo test --test cost_budget -- --nocapture` to print the
//! measured counts.

use fluctrace_core::{CumulativeMode, WindowedIntegrator};
use fluctrace_serve::{build_symtab, ServeConfig, TrafficGen};
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
/// sample, each with [`SLACK`] on top.
struct Budget {
    case: &'static str,
    unit: &'static str,
    allocs: f64,
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
            "{:<20} {allocs:>8.3} allocations per {} (budget {:.3}), {bytes:>8.3} B per sample (budget {:.3})",
            self.case, self.unit, self.allocs, self.bytes
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
                bytes: 35.803,
            },
        ),
        (
            CumulativeMode::Exact,
            Budget {
                case: "window ingest/exact",
                unit: "item",
                allocs: 1.897,
                bytes: 48.231,
            },
        ),
    ] {
        let (allocs, bytes) = window_ingest(mode);
        budget.check(allocs, bytes, &mut failures);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
