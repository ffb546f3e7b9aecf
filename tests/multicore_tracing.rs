//! §III.D: "the same procedure is executed on every core of a
//! multi-core CPU. Note that PEBS supports sampling core-related events
//! for every core simultaneously."
//!
//! A sharded firewall: two ACL worker threads on different cores, each
//! instrumented, each sampled; one merged trace; per-core interval
//! mapping must attribute every sample to the right item even though
//! the two cores' intervals overlap in time.

use fluctrace::acl::{table3_rules, AclBuildConfig, CountingMeter};
use fluctrace::apps::{AclCostModel, Firewall, PacketType, Tester};
use fluctrace::core::{integrate, EstimateTable, MappingMode};
use fluctrace::cpu::{CoreConfig, Exec, ItemId, Machine, MachineConfig, PebsConfig};
use fluctrace::rt::stage::StageOpts;
use fluctrace::rt::{run_stage, Timed};
use fluctrace::sim::{Freq, SimDuration, SimTime};

#[test]
fn two_acl_workers_trace_independently_and_merge() {
    let (symtab, funcs) = Firewall::symtab();
    let core_cfg = CoreConfig::bare()
        .with_ground_truth()
        .with_pebs(PebsConfig::new(8_000));
    let mut machine = Machine::new(MachineConfig::new(2, core_cfg), symtab);
    let rules = table3_rules(666, 75, 50);
    let acl = fluctrace::acl::MultiTrieAcl::build(&rules, AclBuildConfig::paper_patched());
    let cost = AclCostModel::default();

    // 60 packets, round-robin sharded across the two workers (RSS-style).
    let (_tester, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(30), 20);
    let (shard0, shard1): (Vec<_>, Vec<_>) =
        ingress.into_iter().partition(|p| p.value.seq % 2 == 0);

    for (core_idx, shard) in [(0usize, shard0), (1usize, shard1)] {
        let mut core = machine.take_core(core_idx);
        let shard: Vec<Timed<_>> = shard;
        run_stage(
            &mut core,
            shard,
            StageOpts::new(funcs.acl_loop),
            |core, p| {
                core.mark_item_start(ItemId(p.seq));
                let mut meter = CountingMeter::new();
                acl.decide(&p.key, &mut meter);
                core.exec(
                    Exec::new(funcs.rte_acl_classify, cost.uops(&meter)).ipc_milli(cost.ipc_milli),
                );
                core.mark_item_end(ItemId(p.seq));
                Some(p)
            },
        );
        machine.return_core(core);
    }

    // One merged bundle from both cores.
    let (bundle, reports) = machine.collect();
    assert!(reports[0].marks == 60 && reports[1].marks == 60);
    assert!(reports[0].pebs.samples > 0 && reports[1].pebs.samples > 0);

    let it = integrate(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    assert!(it.errors.is_empty(), "{:?}", it.errors);
    // The two cores' intervals overlap in wall time; the per-core
    // mapping must still attribute every contained sample uniquely.
    assert_eq!(it.intervals.len(), 60);
    let table = EstimateTable::from_integrated(&it);
    assert_eq!(table.len(), 60);

    // Per-type estimates agree across shards (same rule set, same cost).
    let mut by_type_core: std::collections::BTreeMap<(&str, u32), Vec<f64>> = Default::default();
    for iv in &it.intervals {
        let seq = iv.item.0;
        let ptype = PacketType::ALL[(seq % 3) as usize];
        if let Some(fe) = table
            .get(iv.item, funcs.rte_acl_classify)
            .filter(|fe| fe.is_estimable())
        {
            by_type_core
                .entry((ptype.label(), iv.core.0))
                .or_default()
                .push(fe.elapsed.as_us_f64());
        }
    }
    for label in ["A", "B"] {
        let m0: f64 =
            by_type_core[&(label, 0)].iter().sum::<f64>() / by_type_core[&(label, 0)].len() as f64;
        let m1: f64 =
            by_type_core[&(label, 1)].iter().sum::<f64>() / by_type_core[&(label, 1)].len() as f64;
        assert!(
            (m0 - m1).abs() < 1.5,
            "type {label}: core0 {m0:.2} vs core1 {m1:.2}"
        );
    }
}

#[test]
fn cross_core_interval_overlap_does_not_confuse_attribution() {
    // Construct two cores processing different items over the SAME wall
    // time window; a sample on core 1 must never be attributed to core
    // 0's item even though the timestamps coincide.
    let (symtab, funcs) = Firewall::symtab();
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(2_000));
    let mut machine = Machine::new(MachineConfig::new(2, core_cfg), symtab);
    for core_idx in 0..2 {
        let core = machine.core_mut(core_idx);
        let item = ItemId(core_idx as u64);
        core.mark_item_start(item);
        core.exec(Exec::new(funcs.rte_acl_classify, 30_000).ipc_milli(1500));
        core.mark_item_end(item);
    }
    let (bundle, _) = machine.collect();
    let it = integrate(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    for (row, &core) in it.cols.core.iter().enumerate() {
        if let Some(item) = it.cols.item_at(row) {
            assert_eq!(
                item.0,
                u64::from(core),
                "sample on core {core} attributed to {item}"
            );
        }
    }
    let table = EstimateTable::from_integrated(&it);
    let e0 = table.get(ItemId(0), funcs.rte_acl_classify).unwrap();
    let e1 = table.get(ItemId(1), funcs.rte_acl_classify).unwrap();
    assert!(e0.is_estimable() && e1.is_estimable());
}
