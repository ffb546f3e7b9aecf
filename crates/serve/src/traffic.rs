//! Deterministic continuous traffic: the seeded generator each shard
//! runs forever.
//!
//! The stream follows the `synth_workload` shape of the store golden
//! (`crates/conformance/tests/store_golden.rs`): per-core bracketed
//! items (Start mark, samples, End mark) with IP locality inside a hot
//! function, an occasional unresolvable IP, a stray inter-item spin
//! sample, and periodic spiked items that run `spike_scale`× slower to
//! exercise the anomaly-episode path. Everything derives from
//! [`fluctrace_sim::Rng`] forks of `(seed + shard)`, so the same config
//! replayed offline produces byte-identical batches — the property the
//! drained-shutdown-equals-batch-run check stands on.

use crate::ServeConfig;
use fluctrace_cpu::{
    CoreId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable, SymbolTableBuilder,
    TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_sim::Rng;
use std::sync::Arc;

/// Shared symbol table of the synthetic service: `funcs` functions
/// named `svc_fn{i}`, 512 bytes each.
pub fn build_symtab(funcs: usize) -> Arc<SymbolTable> {
    let mut b = SymbolTableBuilder::new();
    for i in 0..funcs.max(1) {
        b.add(&format!("svc_fn{i}"), 512);
    }
    b.build().into_shared()
}

/// Per-core generator state.
struct CoreGen {
    rng: Rng,
    tsc: u64,
    /// Items completed on this core so far (low bits of the item id).
    seq: u64,
    /// Current hot function index (IP locality).
    hot: u64,
}

/// Deterministic per-shard traffic source. Not `Clone`: the stream is
/// the state; replay by constructing a fresh generator from the same
/// config and shard id.
pub struct TrafficGen {
    shard: u64,
    cores: Vec<CoreGen>,
    symtab: Arc<SymbolTable>,
    items_per_batch: u64,
    samples_per_item: u64,
    funcs: u64,
    spike_every: u64,
    spike_scale: u64,
}

impl TrafficGen {
    /// Generator for shard `shard` of `config`, over `symtab` (build it
    /// once with [`build_symtab`] and share across shards).
    pub fn new(config: &ServeConfig, shard: u32, symtab: Arc<SymbolTable>) -> Self {
        let mut root = Rng::new(config.seed.wrapping_add(u64::from(shard)));
        let cores = (0..config.cores)
            .map(|c| CoreGen {
                rng: root.fork(),
                tsc: 1_000 + u64::from(c) * 137,
                seq: 0,
                hot: u64::from(c) % config.funcs.max(1) as u64,
            })
            .collect();
        TrafficGen {
            shard: u64::from(shard),
            cores,
            symtab,
            items_per_batch: config.items_per_batch.max(1),
            samples_per_item: config.samples_per_item.max(1),
            funcs: config.funcs.max(1) as u64,
            spike_every: config.spike_every,
            spike_scale: config.spike_scale.max(1),
        }
    }

    /// Generate the next batch: `items_per_batch` complete items per
    /// core, sorted. Every item is bracketed (its End is in the same
    /// batch), so any batch prefix of the stream is a well-formed
    /// workload — which is what lets a drained daemon equal a batch run
    /// over the concatenation.
    pub fn next_batch(&mut self) -> TraceBundle {
        let mut bundle = TraceBundle::default();
        let items = self.items_per_batch;
        let samples = self.samples_per_item;
        let funcs = self.funcs;
        let (spike_every, spike_scale) = (self.spike_every, self.spike_scale);
        for (ci, core) in self.cores.iter_mut().enumerate() {
            let core_id = CoreId(ci as u32);
            for _ in 0..items {
                core.seq += 1;
                let item =
                    ItemId((self.shard << 40) | ((ci as u64) << 32) | (core.seq & 0xffff_ffff));
                let stretch = if spike_every > 0 && core.seq % spike_every == 0 {
                    spike_scale
                } else {
                    1
                };
                bundle.marks.push(MarkRecord {
                    core: core_id,
                    tsc: core.tsc,
                    item,
                    kind: MarkKind::Start,
                });
                for _ in 0..samples {
                    core.tsc += (20 + core.rng.gen_below(30)) * stretch;
                    // 1-in-8 hop to a new hot function, 1-in-64 IP that
                    // resolves to no function at all.
                    if core.rng.gen_below(8) == 0 {
                        core.hot = core.rng.gen_below(funcs);
                    }
                    let ip = if core.rng.gen_below(64) == 0 {
                        VirtAddr(3)
                    } else {
                        let id = fluctrace_cpu::FuncId((core.hot % funcs) as u32);
                        let range = self.symtab.range(id);
                        VirtAddr(range.start.as_u64() + core.rng.gen_below(range.size().max(1)))
                    };
                    bundle.samples.push(PebsRecord {
                        core: core_id,
                        tsc: core.tsc,
                        ip,
                        r13: NO_TAG,
                        event: HwEvent::UopsRetired,
                    });
                }
                core.tsc += 25 * stretch;
                bundle.marks.push(MarkRecord {
                    core: core_id,
                    tsc: core.tsc,
                    item,
                    kind: MarkKind::End,
                });
                if core.seq % 16 == 0 {
                    // Stray inter-item spin sample: keeps the
                    // samples_spin ledger branch continuously exercised.
                    core.tsc += 7;
                    let id = fluctrace_cpu::FuncId((core.hot % funcs) as u32);
                    let range = self.symtab.range(id);
                    bundle.samples.push(PebsRecord {
                        core: core_id,
                        tsc: core.tsc,
                        ip: range.start,
                        r13: NO_TAG,
                        event: HwEvent::UopsRetired,
                    });
                }
                core.tsc += 40 + core.rng.gen_below(60);
            }
        }
        bundle.sort();
        bundle
    }

    /// The symbol table the stream resolves against.
    pub fn symtab(&self) -> &Arc<SymbolTable> {
        &self.symtab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_byte_identical() {
        let cfg = ServeConfig::new(42);
        let symtab = build_symtab(cfg.funcs);
        let mut a = TrafficGen::new(&cfg, 1, Arc::clone(&symtab));
        let mut b = TrafficGen::new(&cfg, 1, Arc::clone(&symtab));
        for _ in 0..5 {
            let ba = a.next_batch();
            let bb = b.next_batch();
            assert_eq!(ba.samples, bb.samples);
            assert_eq!(ba.marks, bb.marks);
        }
    }

    #[test]
    fn shards_produce_distinct_streams_and_item_ids() {
        let cfg = ServeConfig::new(7);
        let symtab = build_symtab(cfg.funcs);
        let b0 = TrafficGen::new(&cfg, 0, Arc::clone(&symtab)).next_batch();
        let b1 = TrafficGen::new(&cfg, 1, Arc::clone(&symtab)).next_batch();
        assert_ne!(b0.samples, b1.samples);
        for m in &b0.marks {
            assert_eq!(m.item.0 >> 40, 0);
        }
        for m in &b1.marks {
            assert_eq!(m.item.0 >> 40, 1);
        }
    }

    #[test]
    fn batches_are_self_contained_and_sorted() {
        let cfg = ServeConfig::new(9);
        let symtab = build_symtab(cfg.funcs);
        let mut g = TrafficGen::new(&cfg, 0, symtab);
        for _ in 0..3 {
            let b = g.next_batch();
            let mut sorted = b.clone();
            sorted.sort();
            assert_eq!(b.marks, sorted.marks);
            assert_eq!(b.samples, sorted.samples);
            let starts = b.marks.iter().filter(|m| m.kind == MarkKind::Start).count();
            let ends = b.marks.iter().filter(|m| m.kind == MarkKind::End).count();
            assert_eq!(starts, ends);
            assert_eq!(
                starts as u64,
                cfg.items_per_batch * u64::from(cfg.cores),
                "every item bracketed within the batch"
            );
        }
    }
}
