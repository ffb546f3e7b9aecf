//! The §IV.C realistic application: a DPDK-style firewall.
//!
//! Three worker threads pinned to designated cores (RX, ACL, TX),
//! connected by software rings. The RX thread receives packets and
//! pushes them to the ACL thread; the ACL thread checks the installed
//! rules (the multi-trie classifier) and forwards passing packets to
//! the TX thread. Only the ACL thread is instrumented — "the other two
//! threads do almost nothing".
//!
//! The classifier's *work metering* is converted into simulated µops by
//! [`AclCostModel`], so classification cost — and therefore per-packet
//! latency — depends on exactly what the paper identifies: how many key
//! bytes each trie examines × the number of tries.

use crate::packets::TestPacket;
use fluctrace_acl::{AclBuildConfig, AclRule, Action, CountingMeter, MultiTrieAcl};
use fluctrace_cpu::{Exec, FuncId, ItemId, Machine, SymbolTable, SymbolTableBuilder};
use fluctrace_rt::pipeline::StageDef;
use fluctrace_rt::stage::StageOpts;
use fluctrace_rt::{Pipeline, Timed};

/// Converts classifier work counts into µops.
#[derive(Debug, Clone, Copy)]
pub struct AclCostModel {
    /// Fixed µops per `rte_acl_classify` invocation.
    pub base_uops: u64,
    /// µops per trie consulted (root setup, result merge).
    pub per_trie_uops: u64,
    /// µops per trie-node visit (one key byte examined).
    pub per_node_uops: u64,
    /// µops per terminal match entry evaluated.
    pub per_match_uops: u64,
    /// Retirement rate of the classifier (µops per 1000 cycles).
    pub ipc_milli: u32,
}

impl Default for AclCostModel {
    fn default() -> Self {
        // Calibrated so the Table III / Table IV setup lands near the
        // paper's Fig. 9 latencies: type C ≈ 6 µs, type A ≈ 12–14 µs on
        // a 3 GHz core.
        AclCostModel {
            base_uops: 1_500,
            per_trie_uops: 30,
            per_node_uops: 20,
            per_match_uops: 40,
            ipc_milli: 1_500,
        }
    }
}

impl AclCostModel {
    /// µops implied by a metered classification.
    pub fn uops(&self, meter: &CountingMeter) -> u64 {
        self.base_uops
            + self.per_trie_uops * meter.tries
            + self.per_node_uops * meter.node_visits
            + self.per_match_uops * meter.matches
    }
}

/// Function handles of the firewall.
#[derive(Debug, Clone, Copy)]
pub struct FirewallFuncs {
    /// RX thread's loop.
    pub rx_loop: FuncId,
    /// ACL thread's loop (poll/pop/push).
    pub acl_loop: FuncId,
    /// Packet header parsing / key extraction.
    pub fw_parse: FuncId,
    /// The classifier — the paper's `rte_acl_classify`.
    pub rte_acl_classify: FuncId,
    /// Post-classification bookkeeping.
    pub fw_post: FuncId,
    /// TX thread's loop.
    pub tx_loop: FuncId,
}

/// The firewall application.
pub struct Firewall {
    acl: MultiTrieAcl,
    cost: AclCostModel,
    funcs: FirewallFuncs,
}

/// Outcome of a firewall pipeline run.
pub struct FirewallRun {
    /// Egress schedule (packets that passed the ACL).
    pub egress: Vec<Timed<TestPacket>>,
    /// Packets dropped by the ACL.
    pub dropped: usize,
}

const PARSE_UOPS: u64 = 500;
const POST_UOPS: u64 = 300;
const RX_UOPS: u64 = 350;
const TX_UOPS: u64 = 350;

impl Firewall {
    /// Build the firewall's symbol table.
    pub fn symtab() -> (SymbolTable, FirewallFuncs) {
        let mut b = SymbolTableBuilder::new();
        let rx_loop = b.add("rx_loop", 512);
        let acl_loop = b.add("acl_loop", 768);
        let fw_parse = b.add("fw_parse", 1024);
        let rte_acl_classify = b.add("rte_acl_classify", 16_384);
        let fw_post = b.add("fw_post", 512);
        let tx_loop = b.add("tx_loop", 512);
        (
            b.build(),
            FirewallFuncs {
                rx_loop,
                acl_loop,
                fw_parse,
                rte_acl_classify,
                fw_post,
                tx_loop,
            },
        )
    }

    /// Install `rules` with the given build configuration.
    pub fn new(
        rules: &[AclRule],
        build: AclBuildConfig,
        cost: AclCostModel,
        funcs: FirewallFuncs,
    ) -> Self {
        Firewall {
            acl: MultiTrieAcl::build(rules, build),
            cost,
            funcs,
        }
    }

    /// The classifier (for diagnostics: trie count, node count).
    pub fn acl(&self) -> &MultiTrieAcl {
        &self.acl
    }

    /// Run the three-stage pipeline over `ingress` on machine cores
    /// 0 (RX), 1 (ACL) and 2 (TX).
    pub fn run(&self, machine: &mut Machine, ingress: Vec<Timed<TestPacket>>) -> FirewallRun {
        let sent = ingress.len();
        let funcs = self.funcs;
        let acl = &self.acl;
        let cost = self.cost;
        let report = Pipeline::run(
            machine,
            ingress,
            vec![
                StageDef::new(0, StageOpts::new(funcs.rx_loop), move |core, p| {
                    core.exec(Exec::new(funcs.rx_loop, RX_UOPS).ipc_milli(2000));
                    Some(p)
                }),
                StageDef::new(
                    1,
                    StageOpts::new(funcs.acl_loop),
                    move |core, p: TestPacket| {
                        // The ACL thread is instrumented: timestamp right
                        // after retrieving the packet, right before pushing.
                        core.mark_item_start(ItemId(p.seq));
                        core.exec(Exec::new(funcs.fw_parse, PARSE_UOPS).ipc_milli(2000));
                        let mut meter = CountingMeter::new();
                        let decision = acl.decide(&p.key, &mut meter);
                        // One trie walk = one internal function invocation;
                        // this is what a gprof-style tracer would have to
                        // instrument (`calls` only matters to that
                        // comparator).
                        core.exec(
                            Exec::new(funcs.rte_acl_classify, cost.uops(&meter))
                                .ipc_milli(cost.ipc_milli)
                                .calls(meter.tries.max(1) as u32),
                        );
                        core.exec(Exec::new(funcs.fw_post, POST_UOPS).ipc_milli(2000));
                        core.mark_item_end(ItemId(p.seq));
                        match decision {
                            Action::Permit => Some(p),
                            Action::Drop => None,
                        }
                    },
                ),
                StageDef::new(2, StageOpts::new(funcs.tx_loop), move |core, p| {
                    core.exec(Exec::new(funcs.tx_loop, TX_UOPS).ipc_milli(2000));
                    Some(p)
                }),
            ],
        );
        let received = report.outputs.len();
        FirewallRun {
            egress: report.outputs,
            dropped: sent - received,
        }
    }
}

/// Synthetic data-item ids for bursts start here (far above any packet
/// sequence number).
pub const BATCH_ID_BASE: u64 = 1_000_000_000;

impl Firewall {
    /// Run the pipeline in **batched** mode: the ACL thread bursts up to
    /// `batch_max` packets per ring access and classifies the whole
    /// burst in one vectorized call (DPDK's actual behaviour when
    /// packets arrive back-to-back). Marks bracket the *burst* under a
    /// synthetic batch id; the returned [`fluctrace_core::BatchMap`]
    /// carries the membership plus per-packet work weights (trie node
    /// visits) so estimates can be split back to packets.
    pub fn run_batched(
        &self,
        machine: &mut Machine,
        ingress: Vec<Timed<TestPacket>>,
        batch_max: usize,
    ) -> (FirewallRun, fluctrace_core::BatchMap) {
        let sent = ingress.len();
        let funcs = self.funcs;
        let cost = self.cost;
        // RX stage.
        let mut core0 = machine.take_core(0);
        let forwarded = fluctrace_rt::run_stage(
            &mut core0,
            ingress,
            StageOpts::new(funcs.rx_loop),
            |core, p| {
                core.exec(Exec::new(funcs.rx_loop, RX_UOPS).ipc_milli(2000));
                Some(p)
            },
        );
        machine.return_core(core0);
        // ACL stage, batched.
        let mut batch_map = fluctrace_core::BatchMap::new();
        let mut next_batch = BATCH_ID_BASE;
        let mut core1 = machine.take_core(1);
        let acl_out = fluctrace_rt::stage::run_stage_batched(
            &mut core1,
            forwarded,
            StageOpts::new(funcs.acl_loop),
            batch_max,
            |core, burst: Vec<TestPacket>| {
                let batch_id = ItemId(next_batch);
                next_batch += 1;
                core.mark_item_start(batch_id);
                core.exec(
                    Exec::new(funcs.fw_parse, PARSE_UOPS * burst.len() as u64).ipc_milli(2000),
                );
                // One vectorized classify for the burst: per-packet trie
                // walks still happen, so per-packet meters are available
                // as split weights.
                let mut total_uops = 0u64;
                let mut total_calls = 0u64;
                let mut members = Vec::with_capacity(burst.len());
                let mut decisions = Vec::with_capacity(burst.len());
                for p in &burst {
                    let mut meter = CountingMeter::new();
                    let decision = self.acl.decide(&p.key, &mut meter);
                    let uops = cost.uops(&meter);
                    total_uops += uops;
                    total_calls += meter.tries;
                    members.push((ItemId(p.seq), uops as f64));
                    decisions.push(decision);
                }
                core.exec(
                    Exec::new(funcs.rte_acl_classify, total_uops)
                        .ipc_milli(cost.ipc_milli)
                        .calls(total_calls.max(1) as u32),
                );
                core.exec(Exec::new(funcs.fw_post, POST_UOPS * burst.len() as u64).ipc_milli(2000));
                core.mark_item_end(batch_id);
                batch_map.register_weighted(batch_id, &members);
                burst
                    .into_iter()
                    .zip(decisions)
                    .filter_map(|(p, d)| matches!(d, Action::Permit).then_some(p))
                    .collect()
            },
        );
        machine.return_core(core1);
        // TX stage.
        let mut core2 = machine.take_core(2);
        let egress = fluctrace_rt::run_stage(
            &mut core2,
            acl_out,
            StageOpts::new(funcs.tx_loop),
            |core, p| {
                core.exec(Exec::new(funcs.tx_loop, TX_UOPS).ipc_milli(2000));
                Some(p)
            },
        );
        machine.return_core(core2);
        let received = egress.len();
        (
            FirewallRun {
                egress,
                dropped: sent - received,
            },
            batch_map,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::{PacketType, Tester};
    use fluctrace_acl::table3_rules;
    use fluctrace_cpu::{CoreConfig, MachineConfig, PebsConfig};
    use fluctrace_sim::{SimDuration, SimTime};

    /// Scaled-down Table III (5 000 rules → ~25 tries) for fast tests.
    fn small_firewall() -> (Machine, Firewall) {
        let (symtab, funcs) = Firewall::symtab();
        let machine = Machine::new(
            MachineConfig::new(3, CoreConfig::bare().with_ground_truth()),
            symtab,
        );
        let rules = table3_rules(66, 75, 50);
        let fw = Firewall::new(
            &rules,
            AclBuildConfig::paper_patched(),
            AclCostModel::default(),
            funcs,
        );
        (machine, fw)
    }

    #[test]
    fn all_table4_packets_pass_the_firewall() {
        let (mut machine, fw) = small_firewall();
        let (tester, ingress) =
            Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(50), 5);
        let run = fw.run(&mut machine, ingress);
        assert_eq!(run.dropped, 0, "test packets match no Drop rule");
        let report = tester.receive(&run.egress);
        assert_eq!(report.received, 15);
    }

    #[test]
    fn latency_ordering_a_greater_b_greater_c() {
        let (mut machine, fw) = small_firewall();
        let (tester, ingress) =
            Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), 30);
        let run = fw.run(&mut machine, ingress);
        let report = tester.receive(&run.egress);
        let a = report.for_type(PacketType::A).unwrap().mean;
        let b = report.for_type(PacketType::B).unwrap().mean;
        let c = report.for_type(PacketType::C).unwrap().mean;
        assert!(a > b && b > c, "A={a:.2}us B={b:.2}us C={c:.2}us");
        // With the full 247-trie rule set the gap is >2× (paper: ~6 vs
        // 12–14 µs; checked in the fig9 integration test). This scaled
        // 25-trie set still shows a clear gap over the fixed costs.
        assert!(a / c > 1.4, "A/C = {}", a / c);
    }

    #[test]
    fn matching_packet_is_dropped() {
        let (symtab, funcs) = Firewall::symtab();
        let mut machine = Machine::new(MachineConfig::new(3, CoreConfig::bare()), symtab);
        let rules = table3_rules(5, 5, 0);
        let fw = Firewall::new(
            &rules,
            AclBuildConfig::paper_patched(),
            AclCostModel::default(),
            funcs,
        );
        // A packet that matches rule (sport 3, dport 3).
        let mut pkt = TestPacket {
            seq: 0,
            ptype: PacketType::A,
            key: fluctrace_acl::PacketKey::new([192, 168, 10, 4], [192, 168, 11, 5], 3, 3),
        };
        pkt.seq = 0;
        let run = fw.run(&mut machine, vec![Timed::new(SimTime::from_us(1), pkt)]);
        assert_eq!(run.dropped, 1);
        assert!(run.egress.is_empty());
    }

    #[test]
    fn acl_thread_marks_every_packet() {
        let (mut machine, fw) = small_firewall();
        let (_, ingress) =
            Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(50), 2);
        fw.run(&mut machine, ingress);
        let (bundle, reports) = machine.collect();
        assert_eq!(bundle.marks.len(), 12);
        assert_eq!(reports[1].marks, 12);
        assert_eq!(reports[0].marks, 0);
        assert_eq!(reports[2].marks, 0);
    }

    #[test]
    fn hybrid_estimate_tracks_ground_truth_per_type() {
        // The core Fig. 9 property at small scale: estimates of
        // rte_acl_classify from the hybrid method are close to the
        // ground truth for each packet type.
        let (symtab, funcs) = Firewall::symtab();
        let core_cfg = CoreConfig::bare()
            .with_ground_truth()
            .with_pebs(PebsConfig::new(4_000));
        let mut machine = Machine::new(MachineConfig::new(3, core_cfg), symtab);
        let rules = table3_rules(66, 75, 50);
        let fw = Firewall::new(
            &rules,
            AclBuildConfig::paper_patched(),
            AclCostModel::default(),
            funcs,
        );
        let (_, ingress) =
            Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), 20);
        fw.run(&mut machine, ingress);
        // Ground truth per item for rte_acl_classify.
        let gt = machine.core_mut(1).take_ground_truth();
        let mut truth: std::collections::BTreeMap<u64, f64> = Default::default();
        for g in &gt {
            if g.func == funcs.rte_acl_classify {
                if let Some(item) = g.item {
                    *truth.entry(item.0).or_insert(0.0) += g.wall.as_us_f64();
                }
            }
        }
        let (bundle, _) = machine.collect();
        let it = fluctrace_core::integrate(
            &bundle,
            machine.symtab(),
            fluctrace_sim::Freq::ghz(3),
            fluctrace_core::MappingMode::Intervals,
        );
        let table = fluctrace_core::EstimateTable::from_integrated(&it);
        let mut compared = 0;
        for &(item, elapsed) in table.series_for_func(funcs.rte_acl_classify) {
            let t = truth[&item.0];
            let e = elapsed.as_us_f64();
            // Estimation within the sampling resolution: the
            // first/last-sample method loses up to ~2 sample
            // intervals (~2.7us at R=4000, IPC 1.5, 3 GHz).
            assert!(
                (t - e).abs() < 3.0,
                "item {item} truth {t:.2}us estimate {e:.2}us"
            );
            assert!(e <= t + 1e-6, "estimate cannot exceed truth");
            compared += 1;
        }
        // Type-C packets only get ~1 sample at this reset value (their
        // classify span is shorter than the sample period), so roughly
        // the A and B thirds are estimable — the §V.B.1 limitation.
        assert!(compared >= 20, "only {compared} items comparable");
    }
}
