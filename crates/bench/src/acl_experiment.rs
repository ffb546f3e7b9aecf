//! Shared machinery for the ACL case study (§IV.C): one run of the
//! firewall pipeline under a given tracing configuration, reduced to
//! the quantities Figs. 9/10 and the data-volume table report.

use fluctrace_apps::{AclCostModel, Firewall, PacketType, Tester};
use fluctrace_core::{integrate_soa, EstimateTable, MappingMode};
use fluctrace_cpu::{CoreConfig, DrainMode, ItemId, Machine, MachineConfig, PebsConfig, SinkKind};
use fluctrace_sim::{Freq, RunningStats, SimDuration, SimTime};

/// Tracing configuration of one run.
#[derive(Debug, Clone, Copy)]
pub struct AclRunConfig {
    /// PEBS reset value; `None` = no profiling (the `L*` baseline run of
    /// Fig. 10) — ground truth is recorded instead.
    pub reset: Option<u64>,
    /// Packets per type.
    pub per_type: usize,
    /// Table III rule-set parameters.
    pub table3: (u16, u16, u16),
    /// PEBS drain mode (ablation: synchronous vs double-buffered).
    pub drain: DrainMode,
    /// RNG seed.
    pub seed: u64,
    /// Keep the raw [`TraceBundle`] on the result (for `--store`
    /// spill). Off by default: bundles are large and the figures only
    /// need the reduced statistics.
    pub keep_bundle: bool,
}

impl AclRunConfig {
    /// Default configuration at the given reset value.
    pub fn new(reset: Option<u64>, per_type: usize, table3: (u16, u16, u16)) -> Self {
        // The paper's prototype drains the PEBS buffer via a helper
        // program: the traced core pays the interrupt, the copy itself
        // proceeds off-core. DoubleBuffered models that; Synchronous
        // (core waits for the SSD) is kept as an ablation and shows
        // ~200 µs stalls landing inside unlucky packets.
        AclRunConfig {
            reset,
            per_type,
            table3,
            drain: DrainMode::DoubleBuffered,
            seed: 0xAC10,
            keep_bundle: false,
        }
    }
}

/// Per-packet-type statistics from one run.
#[derive(Debug, Clone)]
pub struct TypeStats {
    /// The packet type.
    pub ptype: PacketType,
    /// Mean and std of the estimated (or ground-truth) per-packet
    /// `rte_acl_classify` elapsed time, µs.
    pub classify_us: RunningStats,
    /// Mean end-to-end latency, µs.
    pub latency_us: RunningStats,
    /// Packets for which the estimate was possible (≥2 samples).
    pub estimable: usize,
}

/// The reduced result of one firewall run.
#[derive(Debug, Clone)]
pub struct AclRunResult {
    /// Per-type statistics (A, B, C order).
    pub types: Vec<TypeStats>,
    /// Number of tries the rule set built.
    pub tries: usize,
    /// Total rules installed.
    pub rules: usize,
    /// PEBS bytes written by the ACL core.
    pub pebs_bytes: u64,
    /// Wall time of the ACL core (for MB/s).
    pub acl_core_busy: SimDuration,
    /// Mean latency over all packets, µs (for Fig. 10).
    pub mean_latency_us: f64,
    /// The raw trace (only when [`AclRunConfig::keep_bundle`] was set).
    pub bundle: Option<fluctrace_cpu::TraceBundle>,
}

/// Run the firewall once under `config`.
pub fn run_acl(config: AclRunConfig) -> AclRunResult {
    let (symtab, funcs) = Firewall::symtab();
    let mut core_cfg = CoreConfig::bare().with_ground_truth();
    if let Some(reset) = config.reset {
        let mut pebs = PebsConfig::new(reset);
        pebs.drain = config.drain;
        core_cfg.pebs = Some(pebs);
        core_cfg.sink = SinkKind::Ssd {
            bandwidth_bytes_per_s: 500_000_000,
        };
    }
    let mut machine = Machine::new(
        MachineConfig::new(3, core_cfg).with_seed(config.seed),
        symtab,
    );
    let (sports, dports, tail) = config.table3;
    let rules = fluctrace_acl::table3_rules(sports, dports, tail);
    let fw = Firewall::new(
        &rules,
        fluctrace_acl::AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    let (tester, ingress) = Tester::send_round_robin(
        SimTime::from_us(10),
        SimDuration::from_us(60),
        config.per_type,
    );
    let run = fw.run(&mut machine, ingress);
    let latency_report = tester.receive(&run.egress);

    // Ground truth per packet for rte_acl_classify (baseline runs).
    let gt = machine.core_mut(1).take_ground_truth();
    let mut truth: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for g in &gt {
        if g.func == funcs.rte_acl_classify {
            if let Some(item) = g.item {
                *truth.entry(item.0).or_insert(0.0) += g.wall.as_us_f64();
            }
        }
    }

    let (bundle, reports) = machine.collect();
    let pebs_bytes = reports[1].pebs.bytes;
    let acl_core_busy = reports[1].busy_time;

    // Hybrid estimates (profiled runs) via the SoA fast path; the
    // conformance harness pins it byte-identical to the AoS reference.
    let estimates: Option<EstimateTable> = config.reset.map(|_| {
        EstimateTable::from_soa(&integrate_soa(
            &bundle,
            machine.symtab(),
            Freq::ghz(3),
            MappingMode::Intervals,
        ))
    });

    let mut types = Vec::new();
    let mut all_latency = RunningStats::new();
    for ptype in PacketType::ALL {
        let mut classify = RunningStats::new();
        let mut latency = RunningStats::new();
        let mut estimable = 0usize;
        for out in &run.egress {
            if out.value.ptype != ptype {
                continue;
            }
            let seq = out.value.seq;
            let sent = tester.sent()[seq as usize].at;
            let l = out.at.since(sent).as_us_f64();
            latency.push(l);
            all_latency.push(l);
            match &estimates {
                Some(table) => {
                    if let Some(fe) = table
                        .item(ItemId(seq))
                        .and_then(|ie| ie.func(funcs.rte_acl_classify))
                    {
                        if fe.is_estimable() {
                            classify.push(fe.elapsed.as_us_f64());
                            estimable += 1;
                        }
                    }
                }
                None => {
                    if let Some(&t) = truth.get(&seq) {
                        classify.push(t);
                        estimable += 1;
                    }
                }
            }
        }
        types.push(TypeStats {
            ptype,
            classify_us: classify,
            latency_us: latency,
            estimable,
        });
    }
    let _ = latency_report;
    AclRunResult {
        types,
        tries: fw.acl().num_tries(),
        rules: rules.len(),
        pebs_bytes,
        acl_core_busy,
        mean_latency_us: all_latency.mean(),
        bundle: config.keep_bundle.then_some(bundle),
    }
}

impl AclRunResult {
    /// Stats for one type.
    pub fn for_type(&self, t: PacketType) -> &TypeStats {
        self.types.iter().find(|s| s.ptype == t).unwrap()
    }

    /// PEBS volume in MB/s of ACL-core busy time.
    pub fn pebs_mb_per_s(&self) -> f64 {
        if self.acl_core_busy.is_zero() {
            return 0.0;
        }
        self.pebs_bytes as f64 / 1e6 / self.acl_core_busy.as_secs_f64()
    }
}

/// The reset values of Figs. 9/10.
pub const PAPER_RESETS: [u64; 5] = [8_000, 12_000, 16_000, 20_000, 24_000];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> AclRunConfig {
        // 20 000 rules → 99 tries: type-A classification spans ~22 kµops
        // so R = 8 000 yields 2–3 samples per packet.
        AclRunConfig::new(Some(8_000), 60, (200, 100, 0))
    }

    #[test]
    fn baseline_run_reports_ground_truth() {
        let mut cfg = quick();
        cfg.reset = None;
        let r = run_acl(cfg);
        assert_eq!(r.pebs_bytes, 0);
        let a = r.for_type(PacketType::A);
        let c = r.for_type(PacketType::C);
        assert_eq!(a.estimable, 60, "ground truth covers every packet");
        assert!(a.classify_us.mean() > c.classify_us.mean());
    }

    #[test]
    fn profiled_run_estimates_and_accounts_volume() {
        let r = run_acl(quick());
        assert!(r.pebs_bytes > 0);
        assert!(r.pebs_mb_per_s() > 1.0);
        let a = r.for_type(PacketType::A);
        assert!(a.estimable > 30);
        assert!(a.classify_us.mean() > 3.0);
    }

    #[test]
    fn profiling_increases_latency() {
        let mut base = quick();
        base.reset = None;
        let l0 = run_acl(base).mean_latency_us;
        let l8 = run_acl(quick()).mean_latency_us;
        assert!(l8 > l0, "profiled {l8} vs baseline {l0}");
    }

    #[test]
    fn synchronous_drain_stalls_packets_double_buffering_hides() {
        // The drain-mode ablation: a synchronous SSD drain lands ~200 µs
        // stalls inside unlucky packets; the double-buffered helper of
        // §III.E takes the copy off the traced core.
        let mut sync = quick();
        sync.drain = DrainMode::Synchronous;
        let l_sync = run_acl(sync).mean_latency_us;
        let l_dbl = run_acl(quick()).mean_latency_us;
        assert!(
            l_sync > l_dbl,
            "synchronous {l_sync} us vs double-buffered {l_dbl} us"
        );
    }
}
