//! The paper's realistic case study (§IV.C): a DPDK-like firewall with
//! the Table III rule set (50 000 rules → 247 tries). Packets of types
//! A/B/C (Table IV) experience different latencies depending on how
//! many key parts the tries must examine; the hybrid tracer estimates
//! `rte_acl_classify` per packet and exposes the fluctuation.
//!
//! ```text
//! cargo run --release --example acl_firewall
//! ```

use fluctrace::acl::{table3_rules, AclBuildConfig};
use fluctrace::apps::{AclCostModel, Firewall, PacketType, Tester};
use fluctrace::core::{integrate_soa, EstimateTable, MappingMode};
use fluctrace::cpu::{CoreConfig, ItemId, Machine, MachineConfig, PebsConfig};
use fluctrace::sim::{Freq, RunningStats, SimDuration, SimTime};

fn main() {
    let (symtab, funcs) = Firewall::symtab();
    let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(8_000));
    let mut machine = Machine::new(MachineConfig::new(3, core_cfg), symtab);

    let rules = table3_rules(666, 75, 50);
    let fw = Firewall::new(
        &rules,
        AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    println!(
        "installed {} rules into {} tries ({} nodes)",
        rules.len(),
        fw.acl().num_tries(),
        fw.acl().total_nodes()
    );

    let (tester, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), 200);
    let run = fw.run(&mut machine, ingress);
    let latency = tester.receive(&run.egress);
    println!(
        "sent {} packets, {} passed, {} dropped",
        latency.sent, latency.received, run.dropped
    );

    let (bundle, _) = machine.collect();
    let it = integrate_soa(
        &bundle,
        machine.symtab(),
        Freq::ghz(3),
        MappingMode::Intervals,
    );
    let estimates = EstimateTable::from_integrated(&it);

    println!("\ntype  latency(us)  rte_acl_classify estimate (us)");
    for t in PacketType::ALL {
        let lat = tester.receive(&run.egress);
        let lat = lat.for_type(t).unwrap();
        let mut est = RunningStats::new();
        for out in &run.egress {
            if out.value.ptype == t {
                if let Some(fe) = estimates
                    .item(ItemId(out.value.seq))
                    .and_then(|ie| ie.func(funcs.rte_acl_classify))
                    .filter(|fe| fe.is_estimable())
                {
                    est.push(fe.elapsed.as_us_f64());
                }
            }
        }
        println!(
            "{}     {:>6.2}       {:>6.2} ± {:.2}  ({} packets estimable)",
            t.label(),
            lat.mean,
            est.mean(),
            est.std_dev(),
            est.count()
        );
    }
    println!(
        "\ntype A walks all 3 key parts in every trie, type C only the source \
         address — the >100% latency fluctuation the paper diagnoses."
    );
}
