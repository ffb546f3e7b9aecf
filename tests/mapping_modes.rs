//! Cross-crate checks of the two sample→item mapping modes:
//!
//! * on a self-switching app, interval mapping and register tagging
//!   must produce identical per-item estimates (a synthetic loop and
//!   the traced firewall, every `(item, function)` row);
//! * on a timer-switching (ULT) app, interval mapping has nothing to
//!   work with, scheduler-logged marks recover intervals, and register
//!   tagging attributes preempted items correctly.

use fluctrace::acl::{table3_rules, AclBuildConfig};
use fluctrace::apps::{AclCostModel, Firewall, Tester};
use fluctrace::core::{integrate, EstimateTable, FuncEstimate, MappingMode};
use fluctrace::cpu::{
    CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig, SymbolTableBuilder,
};
use fluctrace::rt::{UltJob, UltScheduler, UltSchedulerConfig};
use fluctrace::sim::{Freq, SimDuration, SimTime};

/// Integrate `machine`'s trace both ways and require every
/// `(item, function)` row to agree on presence, elapsed estimate and
/// sample count. Returns (items, rows) compared.
fn assert_modes_agree(machine: &mut Machine) -> (usize, usize) {
    let (bundle, _) = machine.collect();
    let table = |mode| {
        EstimateTable::from_integrated(&integrate(&bundle, machine.symtab(), Freq::ghz(3), mode))
    };
    let rows = |t: &EstimateTable| -> Vec<FuncEstimate> {
        t.items().flat_map(|ie| ie.funcs.iter().copied()).collect()
    };
    let by_interval = table(MappingMode::Intervals);
    let (a, b) = (rows(&by_interval), rows(&table(MappingMode::RegisterTag)));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x, y, "modes disagree on a row");
    }
    assert_eq!(a.len(), b.len(), "modes disagree on row presence");
    (by_interval.len(), a.len())
}

#[test]
fn self_switching_modes_agree() {
    let mut b = SymbolTableBuilder::new();
    let work = b.add("work", 4096);
    let core_cfg = CoreConfig::bare()
        .with_pebs(PebsConfig::new(1_000))
        .with_reg_tagging();
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let core = machine.core_mut(0);
    for item in 0..20u64 {
        core.mark_item_start(ItemId(item));
        core.exec(Exec::new(work, 9_000 + item * 500));
        core.mark_item_end(ItemId(item));
        core.idle(SimDuration::from_us(3));
    }
    assert_eq!(assert_modes_agree(&mut machine).0, 20);

    // The paper's firewall at R = 8 000 over 3 cores: 300 packets,
    // every stage and function row.
    let (symtab, funcs) = Firewall::symtab();
    let core_cfg = CoreConfig::bare()
        .with_pebs(PebsConfig::new(8_000))
        .with_reg_tagging();
    let mut machine = Machine::new(MachineConfig::new(3, core_cfg), symtab);
    let fw = Firewall::new(
        &table3_rules(200, 100, 0),
        AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    let (_, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), 100);
    fw.run(&mut machine, ingress);
    assert_eq!(assert_modes_agree(&mut machine), (300, 324));
}

fn ult_machine(emit_marks: bool) -> (Machine, fluctrace::cpu::FuncId) {
    let mut b = SymbolTableBuilder::new();
    let sched = b.add("sched", 512);
    let work = b.add("work", 4096);
    let core_cfg = CoreConfig::bare()
        .with_pebs(PebsConfig::new(1_000))
        .with_reg_tagging();
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg), b.build());
    let mut core = machine.take_core(0);
    let mut cfg = UltSchedulerConfig::new(sched);
    cfg.emit_marks = emit_marks;
    let s = UltScheduler::new(cfg);
    let jobs: Vec<UltJob> = (0..4)
        .map(|i| {
            UltJob::new(
                ItemId(i),
                SimTime::from_us(i),
                (0..30)
                    .map(|_| Exec::new(work, 6_000).ipc_milli(1000))
                    .collect(),
            )
        })
        .collect();
    s.run(&mut core, jobs);
    machine.return_core(core);
    (machine, work)
}

#[test]
fn timer_switching_needs_tags_or_scheduler_marks() {
    // Without scheduler marks: interval mapping attributes nothing,
    // register tags attribute everything.
    let (mut machine, work) = ult_machine(false);
    let (bundle, _) = machine.collect();
    assert!(bundle.marks.is_empty());
    let symtab = machine.symtab();
    let it_intervals = integrate(&bundle, symtab, Freq::ghz(3), MappingMode::Intervals);
    assert_eq!(it_intervals.attribution_ratio(), 0.0);
    let it_tags = integrate(&bundle, symtab, Freq::ghz(3), MappingMode::RegisterTag);
    assert!(it_tags.attribution_ratio() > 0.9);
    let table = EstimateTable::from_integrated(&it_tags);
    assert_eq!(table.len(), 4);
    for item in 0..4u64 {
        let fe = table.get(ItemId(item), work).expect("every item sampled");
        assert!(fe.is_estimable());
        // Each job's work is 30 chunks × (2 µs + 6 assists × 250 ns of
        // sampling dilation) = 105 µs of wall time; the per-run-summed
        // estimate must be in that ballpark, NOT inflated by the time
        // the item spent preempted (~3× more with 4 jobs round-robin).
        let us = fe.elapsed.as_us_f64();
        assert!((85.0..=110.0).contains(&us), "item {item}: {us:.1} us");
    }
}

#[test]
fn scheduler_marks_recover_intervals_under_preemption() {
    let (mut machine, work) = ult_machine(true);
    let (bundle, _) = machine.collect();
    assert!(!bundle.marks.is_empty());
    let symtab = machine.symtab();
    let it = integrate(&bundle, symtab, Freq::ghz(3), MappingMode::Intervals);
    assert!(it.errors.is_empty(), "{:?}", it.errors);
    // Preempted items produce several intervals each.
    assert!(it.intervals.len() > 4);
    let by_marks = EstimateTable::from_integrated(&it);
    let by_tags = EstimateTable::from_integrated(&integrate(
        &bundle,
        symtab,
        Freq::ghz(3),
        MappingMode::RegisterTag,
    ));
    // The two §V mechanisms agree about per-item work.
    for item in 0..4u64 {
        let a = by_marks
            .get(ItemId(item), work)
            .unwrap()
            .elapsed
            .as_us_f64();
        let b = by_tags.get(ItemId(item), work).unwrap().elapsed.as_us_f64();
        assert!(
            (a - b).abs() < 3.0,
            "item {item}: marks {a:.1} vs tags {b:.1}"
        );
    }
}
