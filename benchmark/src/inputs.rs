//! Seeded input generators. Everything a workload feeds the program is
//! made here from `--seed`, in set-up; the program under test receives
//! only the generated bundles and batches. The generators are the
//! benchmark's own (or the simulated machine and the daemon's traffic
//! source, which are themselves measured layers), so a later change to
//! another harness cannot silently change what is measured.

use crate::harness::Digest;
use fluctrace_acl::{table3_rules, AclBuildConfig};
use fluctrace_apps::{AclCostModel, Firewall, Tester};
use fluctrace_core::{CumulativeMode, WindowConfig};
use fluctrace_cpu::{
    CoreConfig, CoreId, DrainMode, HwEvent, ItemId, Machine, MachineConfig, MarkKind, MarkRecord,
    PebsConfig, PebsRecord, SinkKind, SymbolTable, SymbolTableBuilder, TraceBundle, VirtAddr,
    NO_TAG,
};
use fluctrace_serve::{build_symtab, ServeConfig, TrafficGen};
use fluctrace_sim::{Freq, Rng, SimDuration, SimTime};
use std::sync::Arc;

/// TSC frequency of every simulated machine in the benchmark.
pub fn freq() -> Freq {
    Freq::ghz(3)
}

/// Input sizes: the full benchmark, or `--quick` (about 50 k samples
/// per workload, for tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `--quick`.
    pub quick: bool,
}

impl Scale {
    /// `analyze_wide`: items per core (4 cores × 24 samples per item).
    pub fn wide_items_per_core(self) -> usize {
        if self.quick {
            520
        } else {
            20_000
        }
    }

    /// `replay_acl`: packets per type (three types, about 110 samples each).
    pub fn acl_per_type(self) -> usize {
        if self.quick {
            150
        } else {
            6_000
        }
    }

    /// `capture_spill`: batches of 4 cores × 64 items × 24 samples.
    pub fn stream_batches(self) -> u64 {
        if self.quick {
            8
        } else {
            400
        }
    }

    /// `serve_steady`: batches one daemon lifetime ingests (a little
    /// over five seconds of traffic on the 2-core machine the benchmark
    /// was sized on).
    pub fn serve_batches(self) -> u64 {
        if self.quick {
            8
        } else {
            8_500
        }
    }
}

/// Cores of the `analyze_wide` trace.
pub const WIDE_CORES: u32 = 4;
/// Functions in the `analyze_wide` symbol table.
pub const WIDE_FUNCS: usize = 384;
/// Samples inside each `analyze_wide` item.
pub const WIDE_SAMPLES_PER_ITEM: usize = 24;

/// The `analyze_wide` input: the perf-hunt shape. Per-core streams of
/// bracketed items, strong IP locality (1 sample in 8 hops to another
/// function), 1 sample in 64 with an unresolvable IP, and one stray
/// sample after every 16th item that no interval contains.
pub fn wide_trace(seed: u64, items_per_core: usize) -> (TraceBundle, SymbolTable) {
    let mut b = SymbolTableBuilder::new();
    let ids: Vec<_> = (0..WIDE_FUNCS)
        .map(|f| b.add(&format!("fn_{f:04}"), 48 + (f as u64 % 7) * 16))
        .collect();
    let symtab = b.build();
    let ranges: Vec<_> = ids.iter().map(|&f| symtab.range(f)).collect();

    let mut bundle = TraceBundle::default();
    let mut rng = Rng::new(seed);
    for core in 0..WIDE_CORES {
        let mut rng = rng.fork();
        let mut tsc: u64 = 1_000 + u64::from(core) * 13;
        let mut hot = rng.gen_below(ranges.len() as u64) as usize;
        for i in 0..items_per_core {
            let item = ItemId(u64::from(core) * items_per_core as u64 + i as u64);
            tsc += rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item,
                kind: MarkKind::Start,
            });
            for _ in 0..WIDE_SAMPLES_PER_ITEM {
                tsc += rng.gen_range(40, 160);
                if rng.gen_bool(0.125) {
                    hot = rng.gen_below(ranges.len() as u64) as usize;
                }
                let ip = if rng.gen_bool(1.0 / 64.0) {
                    VirtAddr(2)
                } else {
                    let r = &ranges[hot];
                    VirtAddr(r.start.as_u64() + rng.gen_below(r.size()))
                };
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip,
                    r13: item.0 + 1,
                    event: HwEvent::UopsRetired,
                });
            }
            tsc += rng.gen_range(20, 120);
            bundle.marks.push(MarkRecord {
                core: CoreId(core),
                tsc,
                item,
                kind: MarkKind::End,
            });
            if i % 16 == 5 {
                tsc += rng.gen_range(10, 40);
                bundle.samples.push(PebsRecord {
                    core: CoreId(core),
                    tsc,
                    ip: ranges[hot].start,
                    r13: NO_TAG,
                    event: HwEvent::UopsRetired,
                });
            }
        }
    }
    bundle.sort();
    (bundle, symtab)
}

/// Content group of an `analyze_wide` item: the core it ran on.
pub fn wide_group(item: ItemId, items_per_core: usize) -> String {
    format!("core{}", item.0 / items_per_core.max(1) as u64)
}

/// PEBS reset value of the ACL case study.
pub const ACL_RESET: u64 = 8_000;
/// Table III rule-set parameters (source ports, destination ports, tail).
pub const ACL_TABLE3: (u16, u16, u16) = (666, 75, 50);

/// The paper's case study, run on the simulated machine.
pub struct AclRun {
    /// The trace the machine collected (all three cores).
    pub bundle: TraceBundle,
    /// The firewall's symbol table.
    pub symtab: Arc<SymbolTable>,
    /// Marking-function invocations over all cores.
    pub marks: u64,
    /// Time of `Firewall::new` over the Table III rules, ns.
    pub build_ns: u64,
    /// Time of `Firewall::run` + `Machine::collect`, ns.
    pub run_ns: u64,
}

/// Run the firewall over Table III rules with PEBS at [`ACL_RESET`],
/// `per_type` packets of each of the three types, round-robin.
pub fn acl_run(seed: u64, per_type: usize) -> AclRun {
    let (symtab, funcs) = Firewall::symtab();
    let mut core_cfg = CoreConfig::bare();
    let mut pebs = PebsConfig::new(ACL_RESET);
    pebs.drain = DrainMode::DoubleBuffered;
    core_cfg.pebs = Some(pebs);
    core_cfg.sink = SinkKind::Ssd {
        bandwidth_bytes_per_s: 500_000_000,
    };
    let mut machine = Machine::new(MachineConfig::new(3, core_cfg).with_seed(seed), symtab);

    let t0 = std::time::Instant::now();
    let (sports, dports, tail) = ACL_TABLE3;
    let rules = table3_rules(sports, dports, tail);
    let fw = Firewall::new(
        &rules,
        AclBuildConfig::paper_patched(),
        AclCostModel::default(),
        funcs,
    );
    let build_ns = t0.elapsed().as_nanos() as u64;

    let (_tester, ingress) =
        Tester::send_round_robin(SimTime::from_us(10), SimDuration::from_us(60), per_type);
    let t1 = std::time::Instant::now();
    let run = fw.run(&mut machine, ingress);
    let (bundle, reports) = machine.collect();
    let run_ns = t1.elapsed().as_nanos() as u64;
    std::hint::black_box(run);

    AclRun {
        bundle,
        symtab: Arc::clone(machine.symtab()),
        marks: reports.iter().map(|r| r.marks).sum(),
        build_ns,
        run_ns,
    }
}

/// Content group of an ACL packet: its type (A, B, C round-robin by
/// sequence number, which is the item id).
pub fn acl_group(item: ItemId) -> String {
    ["A", "B", "C"][(item.0 % 3) as usize].to_string()
}

/// Items each core contributes to one traffic batch.
pub const STREAM_ITEMS_PER_BATCH: u64 = 64;
/// Samples per traffic item.
pub const STREAM_SAMPLES_PER_ITEM: u64 = 24;

/// The daemon shape of `serve_steady`, also the traffic shape of
/// `capture_spill`: one shard, four simulated cores, 384 functions,
/// 1024-item windows with a ring of eight, folded cumulative state,
/// lossless blocking channel, `batches` batches per lifetime.
pub fn serve_config(seed: u64, batches: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(seed);
    cfg.shards = 1;
    cfg.cores = 4;
    cfg.items_per_batch = STREAM_ITEMS_PER_BATCH;
    cfg.samples_per_item = STREAM_SAMPLES_PER_ITEM;
    cfg.funcs = WIDE_FUNCS;
    cfg.max_batches = Some(batches);
    let mut window = WindowConfig::new(freq());
    window.window_items = 1024;
    window.max_windows = 8;
    window.cumulative = CumulativeMode::Folded;
    cfg.window = window;
    cfg
}

/// `batches` traffic batches of shard 0 of `cfg`, and the symbol table
/// they resolve against.
pub fn stream_batches(cfg: &ServeConfig, batches: u64) -> (Vec<TraceBundle>, Arc<SymbolTable>) {
    let symtab = build_symtab(cfg.funcs);
    let mut traffic = TrafficGen::new(cfg, 0, Arc::clone(&symtab));
    let out = (0..batches).map(|_| traffic.next_batch()).collect();
    (out, symtab)
}

/// Fold every field of every record of `bundle` into `d`.
pub fn digest_bundle(d: &mut Digest, bundle: &TraceBundle) {
    d.word(bundle.samples.len() as u64);
    for s in &bundle.samples {
        d.word(u64::from(s.core.0));
        d.word(s.tsc);
        d.word(s.ip.as_u64());
        d.word(s.r13);
        d.word(s.event.index() as u64);
    }
    d.word(bundle.marks.len() as u64);
    for m in &bundle.marks {
        d.word(u64::from(m.core.0));
        d.word(m.tsc);
        d.word(m.item.0);
        d.word(u64::from(m.kind == MarkKind::Start));
    }
}

/// Digest of a serve configuration: the daemon generates its own
/// traffic from it, so the configuration is the input.
pub fn digest_serve_config(d: &mut Digest, cfg: &ServeConfig) {
    for w in [
        cfg.shards as u64,
        u64::from(cfg.cores),
        cfg.seed,
        cfg.window.window_items,
        cfg.window.max_windows as u64,
        cfg.items_per_batch,
        cfg.samples_per_item,
        cfg.funcs as u64,
        cfg.spike_every,
        cfg.spike_scale,
        cfg.max_batches.unwrap_or(0),
        cfg.channel_capacity as u64,
        u64::from(cfg.blocking),
    ] {
        d.word(w);
    }
}
