//! Batched data-items — the paper's deferred problem ("How to retrieve
//! the IDs from batched data-items is future work", §IV.C.2).
//!
//! High-throughput stacks process items in bursts: DPDK's RX returns up
//! to 32 packets and `rte_acl_classify` checks several packets in one
//! vectorized call. The two-marks-per-item scheme cannot bracket an
//! individual item inside such a call.
//!
//! The strategy implemented here:
//!
//! 1. the worker marks the **burst** as one synthetic data-item (a
//!    *batch id*) — still exactly two marks per ring access;
//! 2. the app registers the burst's membership (and optionally per-item
//!    *weights* — any cheap per-item work proxy it has, e.g. the number
//!    of trie nodes the classifier visited for each packet);
//! 3. [`split_batches`] converts per-batch function estimates into
//!    per-item ones by distributing each batch's time over its members
//!    according to the weights (uniform when none are given).
//!
//! Uniform splitting is exact for homogeneous bursts and biased for
//! mixed ones; weighted splitting recovers per-item accuracy whenever
//! the app can supply a proportional work proxy. Both behaviours are
//! pinned by tests.

use crate::estimate::{EstimateTable, FuncEstimate, ItemEstimate};
use fluctrace_cpu::ItemId;
use fluctrace_sim::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Membership (and weights) of synthetic batch items.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BatchMap {
    batches: BTreeMap<ItemId, Vec<(ItemId, f64)>>,
}

impl BatchMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `batch` as consisting of `members`, split uniformly.
    pub fn register(&mut self, batch: ItemId, members: &[ItemId]) {
        assert!(!members.is_empty(), "empty batch {batch}");
        let w = 1.0 / members.len() as f64;
        self.batches
            .insert(batch, members.iter().map(|&m| (m, w)).collect());
    }

    /// Register `batch` with explicit per-member weights (normalised
    /// internally; weights must be non-negative and not all zero).
    pub fn register_weighted(&mut self, batch: ItemId, members: &[(ItemId, f64)]) {
        assert!(!members.is_empty(), "empty batch {batch}");
        let total: f64 = members.iter().map(|&(_, w)| w).sum();
        assert!(
            total > 0.0 && members.iter().all(|&(_, w)| w >= 0.0),
            "invalid weights for batch {batch}"
        );
        self.batches.insert(
            batch,
            members.iter().map(|&(m, w)| (m, w / total)).collect(),
        );
    }

    /// Number of registered batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if no batches are registered.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Members of a batch.
    pub fn members(&self, batch: ItemId) -> Option<&[(ItemId, f64)]> {
        self.batches.get(&batch).map(Vec::as_slice)
    }
}

/// Split per-batch estimates into per-item estimates.
///
/// Entries of `table` whose item id is a registered batch are fanned out
/// to the batch's members with elapsed times and marked totals scaled by
/// the member weights; entries for ordinary items pass through
/// unchanged. Every share an id receives — from several batches, or a
/// batch and its own ordinary entry — is summed, one estimate per
/// function in function order. Sample counts are copied to every member
/// (they witness the batch's estimability, not a per-item quantity —
/// documented approximation).
pub fn split_batches(table: &EstimateTable, map: &BatchMap) -> EstimateTable {
    // `(receiving item, source row, weight)`; no weight for an ordinary
    // item, which passes through unscaled.
    let mut shares: Vec<(ItemId, ItemEstimate<'_>, Option<f64>)> = Vec::new();
    for ie in table.items() {
        match map.members(ie.item) {
            None => shares.push((ie.item, ie, None)),
            Some(members) => shares.extend(members.iter().map(|&(m, w)| (m, ie, Some(w)))),
        }
    }
    // Every sum below is order-free, so an unstable sort will do.
    shares.sort_unstable_by_key(|&(item, ..)| item);
    let mut out = EstimateTable::empty(table.freq);
    // The receiving item's entries, reused across items.
    let mut entries: Vec<FuncEstimate> = Vec::new();
    for group in shares.chunk_by(|a, b| a.0 == b.0) {
        let Some(&(item, ..)) = group.first() else {
            continue;
        };
        let (mut marked_total, mut unknown) = (None, 0u32);
        for &(_, ie, weight) in group {
            let share = |d: SimDuration| weight.map_or(d, |w| scale(d, w));
            if let Some(total) = ie.marked_total {
                marked_total = Some(marked_total.map_or(share(total), |acc| acc + share(total)));
            }
            unknown += ie.unknown_func_samples;
            entries.extend(ie.funcs.iter().map(|fe| FuncEstimate {
                item,
                elapsed: share(fe.elapsed),
                ..*fe
            }));
        }
        entries.sort_unstable_by_key(|fe| fe.func);
        for same in entries.chunk_by(|a, b| a.func == b.func) {
            let Some((&first, rest)) = same.split_first() else {
                continue;
            };
            out.push_func(rest.iter().fold(first, |acc, fe| FuncEstimate {
                samples: acc.samples + fe.samples,
                elapsed: acc.elapsed + fe.elapsed,
                ..acc
            }));
        }
        entries.clear();
        out.push_item(item, marked_total, unknown);
    }
    out
}

fn scale(d: SimDuration, w: f64) -> SimDuration {
    SimDuration::from_ps((d.as_ps() as f64 * w).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, MappingMode};
    use fluctrace_cpu::{
        CoreId, FuncId, HwEvent, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
        TraceBundle, NO_TAG,
    };
    use fluctrace_sim::Freq;

    /// A bundle with one batch item (#100) spanning 30 000 cycles of f,
    /// plus one ordinary item (#7) of 3 000 cycles.
    fn setup() -> (EstimateTable, SymbolTable, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 100);
        let symtab = b.build();
        let ip = symtab.range(f).start;
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
        bundle.marks.push(mark(0, 100, MarkKind::Start));
        bundle.samples.push(sample(1_000));
        bundle.samples.push(sample(16_000));
        bundle.samples.push(sample(31_000));
        bundle.marks.push(mark(32_000, 100, MarkKind::End));
        bundle.marks.push(mark(40_000, 7, MarkKind::Start));
        bundle.samples.push(sample(41_000));
        bundle.samples.push(sample(44_000));
        bundle.marks.push(mark(45_000, 7, MarkKind::End));
        bundle.sort();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        (EstimateTable::from_integrated(&it), symtab, f)
    }

    #[test]
    fn uniform_split_divides_evenly() {
        let (table, _, f) = setup();
        let mut map = BatchMap::new();
        map.register(ItemId(100), &[ItemId(1), ItemId(2), ItemId(3)]);
        let split = split_batches(&table, &map);
        // Batch f-span: 30 000 cycles = 10 µs → ~3.33 µs each.
        for member in [1u64, 2, 3] {
            let fe = split.get(ItemId(member), f).unwrap();
            assert!(
                (fe.elapsed.as_us_f64() - 10.0 / 3.0).abs() < 1e-6,
                "member {member}: {}",
                fe.elapsed
            );
            assert!(fe.is_estimable());
        }
        // The synthetic batch id is gone, the ordinary item survives.
        assert!(split.item(ItemId(100)).is_none());
        let ordinary = split.get(ItemId(7), f).unwrap();
        assert_eq!(ordinary.elapsed, Freq::ghz(3).cycles_to_dur(3_000));
    }

    #[test]
    fn weighted_split_follows_weights() {
        let (table, _, f) = setup();
        let mut map = BatchMap::new();
        map.register_weighted(ItemId(100), &[(ItemId(1), 3.0), (ItemId(2), 1.0)]);
        let split = split_batches(&table, &map);
        let a = split.get(ItemId(1), f).unwrap().elapsed.as_us_f64();
        let b = split.get(ItemId(2), f).unwrap().elapsed.as_us_f64();
        assert!((a - 7.5).abs() < 1e-6, "{a}");
        assert!((b - 2.5).abs() < 1e-6, "{b}");
        // Mass is conserved.
        assert!((a + b - 10.0).abs() < 1e-6);
    }

    #[test]
    fn marked_totals_are_split_too() {
        let (table, _, _) = setup();
        let mut map = BatchMap::new();
        map.register(ItemId(100), &[ItemId(1), ItemId(2)]);
        let split = split_batches(&table, &map);
        let total_batch = table.item(ItemId(100)).unwrap().marked_total.unwrap();
        let t1 = split.item(ItemId(1)).unwrap().marked_total.unwrap();
        let t2 = split.item(ItemId(2)).unwrap().marked_total.unwrap();
        let sum = t1 + t2;
        assert!(sum.as_ps().abs_diff(total_batch.as_ps()) <= 1);
    }

    #[test]
    fn member_in_two_batches_accumulates() {
        // An item spanning two bursts (e.g. re-queued) sums its shares.
        let (table, _, f) = setup();
        let mut map = BatchMap::new();
        map.register(ItemId(100), &[ItemId(1)]);
        map.register(ItemId(7), &[ItemId(1)]);
        let split = split_batches(&table, &map);
        let fe = split.get(ItemId(1), f).unwrap();
        let expected = Freq::ghz(3).cycles_to_dur(30_000) + Freq::ghz(3).cycles_to_dur(3_000);
        assert!(fe.elapsed.as_ps().abs_diff(expected.as_ps()) <= 2);
    }

    #[test]
    fn member_of_two_batches_keeps_function_order() {
        // Batch 10 ran function 5 and batch 20 function 3; item 1 was in
        // both, so its functions come from two batches in the wrong order.
        let batch = |id: u64, func: u32| {
            format!(
                r#""{id}":{{"item":{id},"marked_total":null,"funcs":[{{"item":{id},"func":{func},"samples":2,"elapsed":900}}],"unknown_func_samples":0}}"#
            )
        };
        let json = format!(
            r#"{{"items":{{{},{}}},"freq":3000000000,"samples_missing_span":0}}"#,
            batch(10, 5),
            batch(20, 3)
        );
        let table: EstimateTable = serde_json::from_str(&json).unwrap();
        let mut map = BatchMap::new();
        map.register(ItemId(10), &[ItemId(1)]);
        map.register(ItemId(20), &[ItemId(1)]);
        let split = split_batches(&table, &map);
        let funcs: Vec<u32> = split
            .item(ItemId(1))
            .unwrap()
            .funcs
            .iter()
            .map(|fe| fe.func.0)
            .collect();
        assert_eq!(funcs, [3, 5]);
        assert_eq!(
            split.get(ItemId(1), FuncId(3)).unwrap().elapsed.as_ps(),
            900
        );
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        BatchMap::new().register(ItemId(1), &[]);
    }

    #[test]
    #[should_panic(expected = "invalid weights")]
    fn zero_weights_panic() {
        BatchMap::new().register_weighted(ItemId(1), &[(ItemId(2), 0.0)]);
    }
}
