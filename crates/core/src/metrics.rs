//! §V.D — measuring metrics other than elapsed time.
//!
//! When PEBS counts, say, cache misses instead of retired µops, a sample
//! is deposited every `R` *misses*; the number of samples attributed to
//! `{function, item}` therefore estimates that function's miss count for
//! that item (×`R`). "If the number of PEBS samples that belong to
//! function f1 and data-item #1 is 10 and the number for f1 and
//! data-item #2 is 2, it means that the number of cache misses incurred
//! by f1 fluctuates."

use crate::integrate::{IntegratedTrace, NO_FUNC};
use fluctrace_cpu::{FuncId, ItemId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-item per-function sample counts for a non-time hardware event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricTable {
    counts: BTreeMap<(ItemId, FuncId), u64>,
    /// The PEBS reset value the samples were taken with.
    pub reset: u64,
}

/// Count samples per `{item, function}`; `reset` is the PEBS reset value
/// used during collection (the events-per-sample factor).
pub fn metric_counts(it: &IntegratedTrace, reset: u64) -> MetricTable {
    assert!(reset > 0, "zero reset value");
    let mut counts: BTreeMap<(ItemId, FuncId), u64> = BTreeMap::new();
    for &(item, start, end) in &it.item_index {
        let funcs = it.cols.func.get(start as usize..end as usize);
        for &func in funcs.unwrap_or_default().iter().filter(|&&f| f != NO_FUNC) {
            *counts.entry((item, FuncId(func))).or_insert(0) += 1;
        }
    }
    MetricTable { counts, reset }
}

impl MetricTable {
    /// Raw sample count for `{item, func}`.
    pub fn samples(&self, item: ItemId, func: FuncId) -> u64 {
        self.counts.get(&(item, func)).copied().unwrap_or(0)
    }

    /// Estimated event count: `samples × reset`. The true count lies in
    /// `[samples·R − R, samples·R + R)`; with the counter running across
    /// items this is the unbiased point estimate.
    pub fn estimated_events(&self, item: ItemId, func: FuncId) -> u64 {
        self.samples(item, func) * self.reset
    }

    /// Iterate `((item, func), samples)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(ItemId, FuncId), &u64)> {
        self.counts.iter()
    }

    /// Total samples counted.
    pub fn total_samples(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Effective PEBS reset value after online thinning: keeping every
/// `factor`-th sample is equivalent to reprogramming the counter's reset
/// value to `reset × factor` — the §IV.C.3 *R* knob as applied in
/// software by the adaptive degradation policy in [`crate::online`].
/// Event estimates taken during a degradation episode must use this
/// value, not the hardware `reset`, or they undercount by `factor`.
pub fn effective_reset(reset: u64, thinning_factor: u32) -> u64 {
    assert!(reset > 0, "zero reset value");
    reset.saturating_mul(u64::from(thinning_factor.max(1)))
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{
        CoreId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTableBuilder, TraceBundle, NO_TAG,
    };
    use fluctrace_sim::Freq;

    #[test]
    fn counts_per_item_and_func() {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let g = b.add("g", 100);
        let symtab = b.build();
        let mut bundle = TraceBundle::default();
        bundle.marks = vec![
            MarkRecord {
                core: CoreId(0),
                tsc: 0,
                item: ItemId(1),
                kind: MarkKind::Start,
            },
            MarkRecord {
                core: CoreId(0),
                tsc: 1000,
                item: ItemId(1),
                kind: MarkKind::End,
            },
            MarkRecord {
                core: CoreId(0),
                tsc: 2000,
                item: ItemId(2),
                kind: MarkKind::Start,
            },
            MarkRecord {
                core: CoreId(0),
                tsc: 3000,
                item: ItemId(2),
                kind: MarkKind::End,
            },
        ];
        let mk = |tsc, func| PebsRecord {
            core: CoreId(0),
            tsc,
            ip: symtab.range(func).start,
            r13: NO_TAG,
            event: HwEvent::CacheMisses,
        };
        // Item 1: 3 miss-samples in f, 1 in g. Item 2: 1 in f.
        bundle.samples = vec![mk(100, f), mk(200, f), mk(300, f), mk(400, g), mk(2500, f)];
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        let table = metric_counts(&it, 10);
        assert_eq!(table.samples(ItemId(1), f), 3);
        assert_eq!(table.samples(ItemId(1), g), 1);
        assert_eq!(table.samples(ItemId(2), f), 1);
        assert_eq!(table.samples(ItemId(2), g), 0);
        assert_eq!(table.estimated_events(ItemId(1), f), 30);
        assert_eq!(table.total_samples(), 5);
        assert_eq!(table.iter().count(), 3);
    }

    #[test]
    fn effective_reset_scales_with_thinning() {
        assert_eq!(effective_reset(8_000, 1), 8_000);
        assert_eq!(effective_reset(8_000, 4), 32_000);
        assert_eq!(effective_reset(8_000, 0), 8_000, "factor floor is 1");
        assert_eq!(effective_reset(u64::MAX, 2), u64::MAX, "saturates");
    }

    #[test]
    #[should_panic(expected = "zero reset")]
    fn zero_reset_panics() {
        let b = SymbolTableBuilder::new().build();
        let bundle = TraceBundle::default();
        let it = integrate(&bundle, &b, Freq::ghz(3), MappingMode::Intervals);
        metric_counts(&it, 0);
    }
}
