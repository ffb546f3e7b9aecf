//! Property tests driving the full machine → integrate → estimate chain
//! with randomized workloads: the tracer's invariants must hold for
//! *any* self-switching program, not just the paper's apps.

use fluctrace_core::{integrate, EstimateTable, MappingMode};
use fluctrace_cpu::{
    CoreConfig, Exec, FuncId, ItemId, Machine, MachineConfig, PebsConfig, SymbolTable,
    SymbolTableBuilder,
};
use fluctrace_sim::{Freq, SimDuration};
use proptest::prelude::*;

/// A randomized self-switching workload description.
#[derive(Debug, Clone)]
struct Workload {
    reset: u64,
    /// Per item: list of (func index, kilouops) segments.
    items: Vec<Vec<(usize, u64)>>,
    gap_us: u64,
    reg_tagging: bool,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        500u64..20_000,
        proptest::collection::vec(
            proptest::collection::vec((0usize..4, 1u64..60), 1..6),
            1..25,
        ),
        0u64..20,
        any::<bool>(),
    )
        .prop_map(|(reset, items, gap_us, reg_tagging)| Workload {
            reset,
            items,
            gap_us,
            reg_tagging,
        })
}

fn run(w: &Workload) -> (Machine, Vec<FuncId>, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let funcs: Vec<FuncId> = (0..4).map(|i| b.add(&format!("fn{i}"), 2048)).collect();
    let symtab = b.build();
    let mut cfg = CoreConfig::bare().with_pebs(PebsConfig::new(w.reset));
    cfg.reg_tagging = w.reg_tagging;
    let mut machine = Machine::new(MachineConfig::new(1, cfg), symtab.clone());
    let core = machine.core_mut(0);
    for (i, segments) in w.items.iter().enumerate() {
        core.mark_item_start(ItemId(i as u64));
        for &(f, kuops) in segments {
            core.exec(Exec::new(funcs[f], kuops * 1000));
        }
        core.mark_item_end(ItemId(i as u64));
        core.idle(SimDuration::from_us(w.gap_us));
    }
    (machine, funcs, symtab)
}

proptest! {
    // 48 cases by default; scheduled CI sets FLUCTRACE_PROPTEST_CASES to
    // explore deeper without patching the source.
    #![proptest_config(ProptestConfig::cases_from_env(48))]

    #[test]
    fn estimates_never_exceed_marked_totals(w in arb_workload()) {
        let (mut machine, _funcs, symtab) = run(&w);
        let (bundle, _) = machine.collect();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        prop_assert!(it.errors.is_empty());
        let table = EstimateTable::from_integrated(&it);
        for ie in table.items() {
            let total = ie.marked_total.expect("marks exist");
            for fe in ie.funcs {
                prop_assert!(fe.elapsed <= total,
                    "item {} fn {}: {} > {}", ie.item, fe.func, fe.elapsed, total);
            }
            // NOTE: the SUM over functions may exceed the total when
            // functions interleave within an item (f g f): f's
            // first→last span covers g's — the §V.B.2 limitation the
            // paper acknowledges. Only the per-function bound holds in
            // general.
        }
    }

    #[test]
    fn every_sample_is_attributed_no_spin_no_loss(w in arb_workload()) {
        // This workload never spins between marks (idle retires no
        // uops), so every sample lies inside some interval and must be
        // attributed.
        let (mut machine, _funcs, symtab) = run(&w);
        let (bundle, _) = machine.collect();
        let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
        if !it.cols.is_empty() {
            prop_assert!((it.attribution_ratio() - 1.0).abs() < 1e-12,
                "attribution {}", it.attribution_ratio());
        }
        // Sample conservation through the estimate table.
        let table = EstimateTable::from_integrated(&it);
        let attributed: u64 = table
            .items()
            .map(|ie| ie.funcs.iter().map(|f| f.samples as u64).sum::<u64>()
                + ie.unknown_func_samples as u64)
            .sum();
        prop_assert_eq!(attributed, it.cols.len() as u64);
    }

    #[test]
    fn interval_and_tag_modes_agree_when_tagging(w in arb_workload()) {
        prop_assume!(w.reg_tagging);
        let (mut machine, funcs, symtab) = run(&w);
        let (bundle, _) = machine.collect();
        let a = EstimateTable::from_integrated(&integrate(
            &bundle, &symtab, Freq::ghz(3), MappingMode::Intervals));
        let b = EstimateTable::from_integrated(&integrate(
            &bundle, &symtab, Freq::ghz(3), MappingMode::RegisterTag));
        for (i, _) in w.items.iter().enumerate() {
            for &f in &funcs {
                let ea = a.get(ItemId(i as u64), f).map(|e| (e.samples, e.elapsed));
                let eb = b.get(ItemId(i as u64), f).map(|e| (e.samples, e.elapsed));
                prop_assert_eq!(ea, eb, "item {} fn {}", i, f);
            }
        }
    }

    #[test]
    fn runs_are_deterministic(w in arb_workload()) {
        let collect = |w: &Workload| {
            let (mut machine, _, symtab) = run(w);
            let (bundle, _) = machine.collect();
            let it = integrate(&bundle, &symtab, Freq::ghz(3), MappingMode::Intervals);
            (bundle.samples.len(), bundle.marks.len(),
             EstimateTable::from_integrated(&it)
                .items()
                .map(|ie| (ie.item, ie.estimated_total().as_ps()))
                .collect::<Vec<_>>())
        };
        prop_assert_eq!(collect(&w), collect(&w));
    }

    #[test]
    fn sample_count_matches_uop_budget(w in arb_workload()) {
        let (mut machine, _, _) = run(&w);
        let total_uops: u64 = w.items.iter().flatten().map(|&(_, k)| k * 1000).sum();
        let (bundle, _) = machine.collect();
        // Exactly floor(total_uops / reset) samples: the counter never
        // resets between items.
        prop_assert_eq!(bundle.samples.len() as u64, total_uops / w.reset);
    }
}
