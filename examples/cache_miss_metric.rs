//! §V.D extension: measuring a metric other than elapsed time.
//!
//! PEBS counts cache misses instead of retired µops: one sample per
//! `R` misses, so the number of samples attributed to `{function,
//! item}` estimates that function's per-item miss count. A workload
//! alternating cache-friendly and cache-hostile items shows `f_scan`'s
//! misses fluctuating per item.
//!
//! ```text
//! cargo run --release --example cache_miss_metric
//! ```

use fluctrace::core::{integrate_soa, metric_counts, MappingMode};
use fluctrace::cpu::{
    CacheConfig, CoreConfig, Exec, HwEvent, ItemId, Machine, MachineConfig, PebsConfig,
    SymbolTableBuilder,
};
use fluctrace::sim::Freq;

fn main() {
    let mut b = SymbolTableBuilder::new();
    let parse = b.add("f_parse", 1024);
    let scan = b.add("f_scan", 4096);
    // Sample every 8 cache misses.
    const RESET: u64 = 8;
    let core_cfg = CoreConfig::bare()
        .with_cache(CacheConfig::default_l2())
        .with_pebs(PebsConfig::for_event(HwEvent::CacheMisses, RESET));
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let core = machine.core_mut(0);

    // 8 items. Even items re-scan the same 64 KiB buffer (warm); odd
    // items scan a fresh 64 KiB region (cold: ~1024 line misses).
    for item in 0..8u64 {
        core.mark_item_start(ItemId(item));
        core.exec(Exec::new(parse, 4_000));
        let addr = if item % 2 == 0 {
            0
        } else {
            0x1000_0000 + item * 0x10000
        };
        core.exec(Exec::new(scan, 40_000).mem_range(addr, 64 * 1024));
        core.mark_item_end(ItemId(item));
    }

    let (bundle, reports) = machine.collect();
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let metrics = metric_counts(&it, RESET);

    println!(
        "per-item cache-miss estimates (PEBS event: {}):\n",
        HwEvent::CacheMisses
    );
    println!("item  kind  f_parse misses  f_scan misses (samples x {RESET})");
    for item in 0..8u64 {
        let kind = if item % 2 == 0 { "warm" } else { "cold" };
        println!(
            "{:>4}  {}  {:>14}  {:>13}",
            item,
            kind,
            metrics.estimated_events(ItemId(item), parse),
            metrics.estimated_events(ItemId(item), scan),
        );
    }
    println!(
        "\ntotal misses (PMU counter): {}; cold items' f_scan misses dwarf warm \
         items' — the fluctuation is in cache behaviour, not instruction count.",
        reports[0].cache.misses
    );
}
