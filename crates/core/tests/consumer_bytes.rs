//! What the integrated trace's readers print, pinned byte for byte.
//!
//! `chrome_trace_string`, `FlatProfile` and `metric_counts` each read
//! the attributed samples of an integrated trace directly, so their
//! output is the check that the trace's layout is invisible to them.
//! One fixed two-core trace covers what they must tell apart: gap
//! samples between items, samples whose IP resolves to no function, a
//! sample tagged with no item, and an item preempted on its core (two
//! intervals, and two tag runs in register-tag mode). Both mapping
//! modes are pinned.

use fluctrace_core::{
    chrome_trace_string, integrate, metric_counts, EstimateTable, ExportOptions, FlatProfile,
    MappingMode,
};
use fluctrace_cpu::{
    encode_tag, CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable,
    SymbolTableBuilder, TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_sim::Freq;

/// Core 0 runs item 1, then item 2 preempted by item 3; core 1 runs
/// items 4 and 5. Every sample inside an item carries the item's tag;
/// gap samples carry none.
fn trace() -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let f = b.add("parse", 100);
    let g = b.add("lookup", 100);
    let h = b.add("emit", 100);
    let symtab = b.build();
    let ip = |k: usize| match k {
        0 => symtab.range(f).start,
        1 => symtab.range(g).start.offset(7),
        2 => symtab.range(h).start,
        _ => VirtAddr(0x10),
    };
    let mark = |core: u32, tsc: u64, item: u64, kind: MarkKind| MarkRecord {
        core: CoreId(core),
        tsc,
        item: ItemId(item),
        kind,
    };
    let sample = |core: u32, tsc: u64, k: usize, item: Option<u64>| PebsRecord {
        core: CoreId(core),
        tsc,
        ip: ip(k),
        r13: item.map_or(NO_TAG, |i| encode_tag(ItemId(i))),
        event: HwEvent::UopsRetired,
    };
    let slices: [(u32, u64, u64, u64); 6] = [
        (0, 1, 1_000, 9_000),
        (0, 2, 12_000, 18_000),
        (0, 3, 19_000, 24_000),
        (0, 2, 25_000, 31_000),
        (1, 4, 2_000, 11_000),
        (1, 5, 14_000, 26_000),
    ];
    let mut bundle = TraceBundle::default();
    for (n, &(core, item, start, end)) in slices.iter().enumerate() {
        bundle.marks.push(mark(core, start, item, MarkKind::Start));
        bundle.marks.push(mark(core, end, item, MarkKind::End));
        // Six samples per slice, walking the three functions and the
        // unresolvable IP at a slice-dependent phase. Item 3's last
        // sample falls after its end mark: only its tag attributes it.
        for j in 0..6u64 {
            let k = (n + j as usize) % 4;
            bundle
                .samples
                .push(sample(core, start + 500 + j * 1_000, k, Some(item)));
        }
        // A gap sample just after the slice.
        bundle.samples.push(sample(core, end + 300, n % 3, None));
    }
    // An untagged sample inside item 4: attributed by its interval,
    // unattributed by its tag.
    bundle.samples.push(sample(1, 10_500, 0, None));
    bundle.sort();
    (bundle, symtab)
}

/// Every pinned output of one mapping mode.
fn outputs(mode: MappingMode) -> Vec<String> {
    let (bundle, symtab) = trace();
    let it = integrate(&bundle, &symtab, Freq::ghz(3), mode);
    let table = EstimateTable::from_integrated(&it);
    let chrome = |include_samples| {
        chrome_trace_string(&it, &table, &symtab, ExportOptions { include_samples })
    };
    let metric = metric_counts(&it, 97);
    let counts: Vec<_> = metric.iter().collect();
    vec![
        chrome(false),
        chrome(true),
        format!("{:?}", FlatProfile::from_integrated(&it)),
        format!("{counts:?}"),
    ]
}

/// The outputs of both modes, one per line: `<mode> <n> <output>`.
const PINNED: &str = include_str!("consumer_bytes.txt");

#[test]
fn consumer_bytes_are_pinned() {
    let mut got = String::new();
    for mode in [MappingMode::Intervals, MappingMode::RegisterTag] {
        for (n, out) in outputs(mode).iter().enumerate() {
            got.push_str(&format!("{mode:?} {n} {out}\n"));
        }
    }
    for (n, (got, want)) in got.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(got, want, "line {n}");
    }
    assert_eq!(got, PINNED);
}
