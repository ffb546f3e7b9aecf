//! The estimate table's wire format, pinned byte for byte.
//!
//! `EstimateTable`'s JSON is what the daemon's `table` verb answers and
//! what a saved table is read back from, so its bytes are a contract of
//! their own, whatever the table's in-memory layout. One small
//! `integrate_soa` → `from_soa` table covers every kind of row: an item
//! with intervals but no samples, a sample whose IP resolves to no
//! function, a one-sample (non-estimable) row and two functions per
//! item. Reading back pins what a table built from untidy JSON looks
//! like: item keys out of order are sorted, a repeated item key keeps
//! its last value, and a function an item lists twice is kept twice.

use fluctrace_core::{integrate_soa, EstimateTable, MappingMode};
use fluctrace_cpu::{
    CoreId, FuncId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_sim::{Freq, SimDuration};

/// The rendering of [`small_table`].
const GOLDEN: &str = concat!(
    r#"{"items":{"#,
    r#""1":{"item":1,"marked_total":3333333,"funcs":["#,
    r#"{"item":1,"func":0,"samples":2,"elapsed":1000000},"#,
    r#"{"item":1,"func":1,"samples":2,"elapsed":1000000}],"unknown_func_samples":1},"#,
    r#""2":{"item":2,"marked_total":3333333,"funcs":["#,
    r#"{"item":2,"func":0,"samples":1,"elapsed":0},"#,
    r#"{"item":2,"func":1,"samples":2,"elapsed":1333333}],"unknown_func_samples":0},"#,
    r#""3":{"item":3,"marked_total":1000000,"funcs":[],"unknown_func_samples":0}"#,
    r#"},"freq":3000000000,"samples_missing_span":0}"#,
);

/// Three items on one core at 3 GHz. Item 1 runs `f` and `g` for 3 000
/// cycles each and has one unresolvable sample; item 2 samples `f` once
/// and `g` twice, 4 000 cycles apart; item 3 has marks and no samples.
fn small_table() -> EstimateTable {
    let mut b = SymbolTableBuilder::new();
    let f = b.add("f", 100);
    let g = b.add("g", 100);
    let symtab = b.build();
    let (f_ip, g_ip) = (symtab.range(f).start, symtab.range(g).start);
    let mark = |tsc: u64, item: u64, kind: MarkKind| MarkRecord {
        core: CoreId(0),
        tsc,
        item: ItemId(item),
        kind,
    };
    let sample = |tsc: u64, ip: VirtAddr| PebsRecord {
        core: CoreId(0),
        tsc,
        ip,
        r13: NO_TAG,
        event: HwEvent::UopsRetired,
    };
    let mut bundle = TraceBundle {
        marks: vec![
            mark(0, 1, MarkKind::Start),
            mark(10_000, 1, MarkKind::End),
            mark(20_000, 2, MarkKind::Start),
            mark(30_000, 2, MarkKind::End),
            mark(40_000, 3, MarkKind::Start),
            mark(43_000, 3, MarkKind::End),
        ],
        samples: vec![
            sample(1_000, f_ip),
            sample(4_000, f_ip),
            sample(5_000, g_ip),
            sample(8_000, g_ip),
            sample(9_000, VirtAddr(0x10)),
            sample(21_000, f_ip),
            sample(22_000, g_ip),
            sample(26_000, g_ip),
        ],
    };
    bundle.sort();
    let soa = integrate_soa(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
    EstimateTable::from_soa(&soa)
}

#[test]
fn table_json_bytes_are_pinned() {
    let table = small_table();
    let json = serde_json::to_string(&table).expect("render");
    assert_eq!(json, GOLDEN);
    let back: EstimateTable = serde_json::from_str(&json).expect("read back");
    assert_eq!(back, table);
    assert_eq!(serde_json::to_string(&back).expect("re-render"), GOLDEN);
}

/// Untidy JSON: item keys out of order, item 2 given twice (the first
/// copy must lose), and item 5 listing function 0 twice.
const UNTIDY: &str = concat!(
    r#"{"items":{"#,
    r#""5":{"item":5,"marked_total":null,"funcs":["#,
    r#"{"item":5,"func":0,"samples":3,"elapsed":700},"#,
    r#"{"item":5,"func":0,"samples":2,"elapsed":900}],"unknown_func_samples":0},"#,
    r#""2":{"item":2,"marked_total":11,"funcs":[],"unknown_func_samples":9},"#,
    r#""1":{"item":1,"marked_total":50,"funcs":["#,
    r#"{"item":1,"func":0,"samples":4,"elapsed":40}],"unknown_func_samples":0},"#,
    r#""2":{"item":2,"marked_total":22,"funcs":["#,
    r#"{"item":2,"func":0,"samples":2,"elapsed":20},"#,
    r#"{"item":2,"func":1,"samples":1,"elapsed":0}],"unknown_func_samples":1}"#,
    r#"},"freq":3000000000,"samples_missing_span":4}"#,
);

/// What [`UNTIDY`] reads as, rendered.
const TIDIED: &str = concat!(
    r#"{"items":{"#,
    r#""1":{"item":1,"marked_total":50,"funcs":["#,
    r#"{"item":1,"func":0,"samples":4,"elapsed":40}],"unknown_func_samples":0},"#,
    r#""2":{"item":2,"marked_total":22,"funcs":["#,
    r#"{"item":2,"func":0,"samples":2,"elapsed":20},"#,
    r#"{"item":2,"func":1,"samples":1,"elapsed":0}],"unknown_func_samples":1},"#,
    r#""5":{"item":5,"marked_total":null,"funcs":["#,
    r#"{"item":5,"func":0,"samples":3,"elapsed":700},"#,
    r#"{"item":5,"func":0,"samples":2,"elapsed":900}],"unknown_func_samples":0}"#,
    r#"},"freq":3000000000,"samples_missing_span":4}"#,
);

#[test]
fn untidy_json_reads_sorted_with_the_last_copy_of_an_item() {
    let untidy: EstimateTable = serde_json::from_str(UNTIDY).expect("untidy");
    let tidied: EstimateTable = serde_json::from_str(TIDIED).expect("tidied");
    assert_eq!(untidy, tidied);
    assert_eq!(serde_json::to_string(&untidy).expect("render"), TIDIED);
    let items: Vec<(u64, usize)> = untidy
        .items()
        .map(|ie| (ie.item.0, ie.funcs.len()))
        .collect();
    assert_eq!(items, [(1, 1), (2, 2), (5, 2)]);
    assert_eq!(untidy.samples_missing_span, 4);
    // The series skips non-estimable rows and, of a function an item
    // lists twice, answers the first entry, as `ItemEstimate::func` does.
    let ps = SimDuration::from_ps;
    assert_eq!(
        untidy.series_for_func(FuncId(0)),
        [
            (ItemId(1), ps(40)),
            (ItemId(2), ps(20)),
            (ItemId(5), ps(700))
        ]
    );
    assert!(untidy.series_for_func(FuncId(1)).is_empty());
    let repeated = untidy
        .item(ItemId(5))
        .and_then(|ie| ie.func(FuncId(0)).copied());
    assert_eq!(repeated.map(|fe| fe.samples), Some(3));
}
