//! Seeded workload generation.
//!
//! A [`WorkloadSpec`] describes one randomized multi-core mark/sample
//! stream; [`generate`] expands it deterministically into a
//! [`Workload`]: the full [`TraceBundle`] for the offline pipeline plus
//! the same records cut into submission batches for the online tracer.
//!
//! ## Canonical emission order
//!
//! The generator emits each core's records in the exact order
//! `TraceBundle::sort` would put them (non-decreasing tsc; at one tsc:
//! samples, then `End`, then `Start` — except a start-boundary sample,
//! which follows its `Start`). Because every batch is sorted before the
//! online worker merges it, and because the merge preserves per-core
//! order across batch boundaries, *any* batch cut then yields the same
//! per-core processing order as the offline global sort — which is what
//! makes differential comparison meaningful. An item spanning a TSC
//! wrap would break the equivalence (the global sort would reorder its
//! marks), so near-wrap specs place every item wholly on one side.
//!
//! A sample at a coincident `End`/`Start` timestamp sorts before the
//! `End`, so every pipeline gives it to the closing item (to none after
//! a malformed `End`) — the tie rule a stream can apply without looking
//! past a batch cut. [`generate`]
//! never places one (its seeds' workloads, the corpus and the pinned
//! digests all predate the rule); [`Workload::with_coincident_samples`]
//! adds them to a generated workload as a post-pass.
//!
//! Everything else is fair game: orphan and duplicate marks, corrupted
//! `End` identities, zero-length items (whose marks sort `End` first and
//! can never complete), sample bursts against a tiny `max_pending`
//! bound, boundary-coincident samples, inter-item spin, and item ids
//! shared across cores.

use fluctrace_cpu::{
    CoreId, FuncId, HwEvent, ItemId, MarkKind, MarkRecord, PebsRecord, SymbolTable,
    SymbolTableBuilder, TraceBundle, VirtAddr, NO_TAG,
};
use fluctrace_sim::{Fault, FaultPlan, Freq, Rng};
use std::sync::Arc;

/// Offset added to a corrupted `End` mark's item id, far above any
/// generated id so the mismatch is unambiguous.
const WRONG_ITEM_OFFSET: u64 = 1 << 40;

/// An unmapped instruction pointer (beyond every generated function),
/// used to exercise `unknown_func_samples` accounting.
const UNMAPPED_IP: VirtAddr = VirtAddr(u64::MAX - 1);

/// Shape of one generated workload. Expanded by [`generate`]; usually
/// derived from a single seed via [`spec_from_seed`].
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Number of cores emitting records.
    pub cores: u32,
    /// Items each core processes.
    pub items_per_core: u64,
    /// First tsc of each core's stream (near-`u64::MAX` specs exercise
    /// counter wraparound).
    pub base_tsc: u64,
    /// `OnlineConfig::max_pending` bound for the online run; small
    /// values force eviction under bursts.
    pub max_pending: usize,
    /// Fault schedule applied per item (`DropOpen`, `CorruptClose`,
    /// `Burst`), in global item order.
    pub plan: FaultPlan,
    /// Per-mille of fault-free items that are zero-length (`Start` and
    /// `End` at one tsc — impossible to complete in either pipeline).
    pub zero_len_per_mille: u32,
    /// Per-mille of fault-free items whose `Start` coincides with the
    /// previous `End` timestamp.
    pub coincident_per_mille: u32,
    /// Per-mille of fault-free items with a duplicate mid-item `Start`
    /// (abandoning the first half).
    pub dup_start_per_mille: u32,
    /// Per-mille of fault-free items followed by a duplicate (orphan)
    /// `End`.
    pub dup_end_per_mille: u32,
    /// Per-mille chance of a sample landing exactly on a mark timestamp.
    pub boundary_per_mille: u32,
    /// Per-mille chance of spin samples in the gap before an item.
    pub spin_per_mille: u32,
    /// Per-mille chance, per sample, of an unmapped instruction pointer.
    pub unknown_ip_per_mille: u32,
    /// Per-mille chance, per emitted record, of cutting a new batch.
    pub batch_cut_per_mille: u32,
    /// Reuse item ids across cores (same id processed on several cores).
    pub shared_items: bool,
    /// Leave the last item of core 0 open (truncated `Start`).
    pub truncate_tail: bool,
}

/// A fully expanded workload: the same records both ways.
pub struct Workload {
    /// The spec this was generated from.
    pub spec: WorkloadSpec,
    /// All records, unsorted (in emission order); the offline driver
    /// sorts a clone.
    pub bundle: TraceBundle,
    /// The identical records cut into online submission batches.
    pub batches: Vec<TraceBundle>,
    /// Symbol table the sample IPs resolve against.
    pub symtab: Arc<SymbolTable>,
    /// TSC frequency for both pipelines.
    pub freq: Freq,
    /// The emission-ordered event stream (marks and samples interleaved
    /// as they would arrive), kept so the stream can be re-cut.
    events: Vec<Event>,
}

impl Workload {
    /// Cut the emission-ordered stream into a *different* batching of
    /// the same records. Per-core arrival order is untouched, so the
    /// online tracer must produce an identical report for any cut seed
    /// — the batching-invariance metamorphic property.
    pub fn rebatch(&self, cut_seed: u64, cut_per_mille: u32) -> Vec<TraceBundle> {
        let mut rng = Rng::new(cut_seed);
        let mut batches = vec![TraceBundle::default()];
        for ev in &self.events {
            if per_mille(&mut rng, cut_per_mille) {
                batches.push(TraceBundle::default());
            }
            let Some(batch) = batches.last_mut() else {
                break; // unreachable: `batches` starts non-empty
            };
            match ev {
                Event::Mark(m) => batch.marks.push(*m),
                Event::Sample(s) => batch.samples.push(*s),
            }
        }
        batches
    }
}

impl Workload {
    /// This workload with one or two samples added at every tick where
    /// a core's `End` is followed by a coincident `Start`, emitted just
    /// ahead of the `End` (their canonical place), and cut into batches
    /// afresh with the original cut seed. On odd seeds about half of
    /// those `End`s are also corrupted (mismatched), so a malformed `End`
    /// meets a `Start` that completes. Everything else is unchanged.
    pub fn with_coincident_samples(&self) -> Workload {
        let mut rng = Rng::new(self.spec.seed ^ 0xc01_c1de_5a3e);
        // The next event on the same core, for every event.
        let mut next_on_core: Vec<Option<usize>> = vec![None; self.events.len()];
        let mut seen: Vec<(CoreId, usize)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate().rev() {
            let core = ev.core();
            match seen.iter_mut().find(|(c, _)| *c == core) {
                Some((_, at)) => {
                    if let Some(next) = next_on_core.get_mut(i) {
                        *next = Some(*at);
                    }
                    *at = i;
                }
                None => seen.push((core, i)),
            }
        }
        let mut events = Vec::with_capacity(self.events.len());
        for (ev, next) in self.events.iter().zip(&next_on_core) {
            let mut ev = *ev;
            if let Event::Mark(end) = &mut ev {
                let next = next.and_then(|j| self.events.get(j));
                let coincident = matches!(next, Some(Event::Mark(start))
                    if end.kind == MarkKind::End && start.kind == MarkKind::Start && start.tsc == end.tsc);
                if coincident && self.spec.seed % 2 == 1 && rng.gen_below(2) == 0 {
                    end.item = ItemId(end.item.0 + WRONG_ITEM_OFFSET);
                }
                for _ in 0..if coincident { 1 + rng.gen_below(2) } else { 0 } {
                    let f = FuncId(rng.gen_below(self.symtab.len() as u64) as u32);
                    let range = self.symtab.range(f);
                    events.push(Event::Sample(PebsRecord {
                        core: end.core,
                        tsc: end.tsc,
                        ip: VirtAddr(range.start.0 + rng.gen_below(range.size().max(1))),
                        r13: NO_TAG,
                        event: HwEvent::UopsRetired,
                    }));
                }
            }
            events.push(ev);
        }
        Workload::from_events(
            self.spec.clone(),
            Arc::clone(&self.symtab),
            self.freq,
            events,
        )
    }

    /// The workload of an emission-ordered event stream: the records
    /// as one bundle, and cut into batches by the spec's cut seed.
    fn from_events(
        spec: WorkloadSpec,
        symtab: Arc<SymbolTable>,
        freq: Freq,
        events: Vec<Event>,
    ) -> Workload {
        let mut bundle = TraceBundle::default();
        for ev in &events {
            match ev {
                Event::Mark(m) => bundle.marks.push(*m),
                Event::Sample(s) => bundle.samples.push(*s),
            }
        }
        let mut w = Workload {
            spec,
            bundle,
            batches: Vec::new(),
            symtab,
            freq,
            events,
        };
        w.batches = w.rebatch(w.spec.seed ^ 0xbadc_0de5, w.spec.batch_cut_per_mille);
        w
    }
}

/// One emitted record with its per-core canonical sort position.
#[derive(Clone, Copy)]
enum Event {
    Mark(MarkRecord),
    Sample(PebsRecord),
}

impl Event {
    fn tsc(&self) -> u64 {
        match self {
            Event::Mark(m) => m.tsc,
            Event::Sample(s) => s.tsc,
        }
    }

    fn core(&self) -> CoreId {
        match self {
            Event::Mark(m) => m.core,
            Event::Sample(s) => s.core,
        }
    }
}

/// Per-core generation state.
struct CoreGen {
    events: Vec<Event>,
    rng: Rng,
    core: CoreId,
    tsc: u64,
    /// End tsc of the previous completed item, when a coincident Start
    /// may legally attach to it (no boundary sample was placed there).
    coincident_anchor: Option<u64>,
}

impl CoreGen {
    /// Advance the cursor, keeping each item wholly on one side of a
    /// TSC wrap: if the step would wrap, restart just past zero.
    fn advance(&mut self, lo: u64, hi: u64) {
        let step = self.rng.gen_range(lo, hi);
        let next = self.tsc.wrapping_add(step);
        self.tsc = if next < self.tsc { step } else { next };
    }

    fn mark(&mut self, tsc: u64, item: ItemId, kind: MarkKind) {
        self.events.push(Event::Mark(MarkRecord {
            core: self.core,
            tsc,
            item,
            kind,
        }));
    }

    fn sample(&mut self, tsc: u64, ip: VirtAddr) {
        self.events.push(Event::Sample(PebsRecord {
            core: self.core,
            tsc,
            ip,
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        }));
    }
}

fn per_mille(rng: &mut Rng, p: u32) -> bool {
    rng.gen_below(1000) < u64::from(p)
}

/// Derive a varied spec from a bare seed. The modulus classes carve the
/// seed space into shape families so a contiguous seed range covers
/// wraparound, eviction, heavy-fault and clean regimes.
pub fn spec_from_seed(seed: u64) -> WorkloadSpec {
    let mut rng = Rng::new(seed ^ 0x5eed_cafe_f00d);
    let near_wrap = seed % 5 == 3;
    // Eviction is arrival-order-sensitive, and a near-wrap stream is
    // emitted in sorted order rather than physical order, so the two
    // regimes stay separate.
    let evicting = !near_wrap && seed.is_multiple_of(7);
    let heavy_faults = seed.is_multiple_of(3);
    WorkloadSpec {
        seed,
        cores: 1 + rng.gen_below(4) as u32,
        items_per_core: 1 + rng.gen_below(18),
        base_tsc: if near_wrap {
            u64::MAX - rng.gen_range(10_000, 200_000)
        } else {
            rng.gen_below(1 << 40)
        },
        max_pending: if evicting {
            2 + rng.gen_below(6) as usize
        } else {
            1 << 16
        },
        plan: if heavy_faults {
            FaultPlan {
                drop_open_per_mille: 200 + rng.gen_below(300) as u32,
                corrupt_close_per_mille: 100 + rng.gen_below(200) as u32,
                burst_per_mille: 100 + rng.gen_below(200) as u32,
                burst_len: 1 + rng.gen_below(24) as u32,
            }
        } else {
            FaultPlan {
                drop_open_per_mille: rng.gen_below(60) as u32,
                corrupt_close_per_mille: rng.gen_below(60) as u32,
                burst_per_mille: rng.gen_below(60) as u32,
                burst_len: 1 + rng.gen_below(8) as u32,
            }
        },
        zero_len_per_mille: rng.gen_below(120) as u32,
        coincident_per_mille: rng.gen_below(250) as u32,
        dup_start_per_mille: rng.gen_below(120) as u32,
        dup_end_per_mille: rng.gen_below(120) as u32,
        boundary_per_mille: rng.gen_below(400) as u32,
        spin_per_mille: rng.gen_below(500) as u32,
        unknown_ip_per_mille: rng.gen_below(150) as u32,
        batch_cut_per_mille: 20 + rng.gen_below(300) as u32,
        shared_items: seed % 11 == 4,
        truncate_tail: seed % 4 == 1,
    }
}

/// The shared four-function symbol table every workload resolves
/// against.
fn build_symtab() -> (Arc<SymbolTable>, Vec<FuncId>) {
    let mut b = SymbolTableBuilder::new();
    let funcs = (0..4)
        .map(|i| b.add(&format!("work_fn{i}"), 4096))
        .collect();
    (b.build().into_shared(), funcs)
}

/// Expand a spec into concrete records, deterministically.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let (symtab, funcs) = build_symtab();
    let mut master = Rng::new(spec.seed);
    let schedule = spec.plan.schedule(
        (spec.cores as u64 * spec.items_per_core) as usize,
        spec.seed,
    );

    let mut cores: Vec<CoreGen> = (0..spec.cores)
        .map(|c| CoreGen {
            events: Vec::new(),
            rng: master.fork(),
            core: CoreId(c),
            tsc: spec.base_tsc,
            coincident_anchor: None,
        })
        .collect();

    for (ci, cg) in cores.iter_mut().enumerate() {
        for i in 0..spec.items_per_core {
            let global = ci as u64 * spec.items_per_core + i;
            let item = if spec.shared_items {
                // A small shared pool: the same id recurs across cores.
                ItemId(cg.rng.gen_below(4 + spec.items_per_core / 2))
            } else {
                ItemId(global)
            };
            let fault = schedule.get(global as usize);
            emit_item(cg, spec, &symtab, &funcs, item, fault, global);
        }
        // Optionally leave one Start open at the end of core 0.
        if cg.core == CoreId(0) && spec.truncate_tail {
            cg.advance(2, 60);
            cg.mark(cg.tsc, ItemId(u64::MAX >> 1), MarkKind::Start);
            let n = cg.rng.gen_below(4);
            for _ in 0..n {
                cg.advance(1, 30);
                let tsc = cg.tsc;
                let ip = pick_ip(cg, spec, &symtab, &funcs);
                cg.sample(tsc, ip);
            }
        }
        // A near-wrap core was generated in physical order but must be
        // emitted in canonical (sorted) order; the stable sort keeps the
        // within-tsc composition the emitters established.
        cg.events.sort_by_key(Event::tsc);
    }

    // Interleave the per-core streams randomly (preserving per-core
    // order) into one emission-ordered event log.
    let mut events: Vec<Event> = Vec::new();
    let mut queues: Vec<std::vec::IntoIter<Event>> =
        cores.into_iter().map(|cg| cg.events.into_iter()).collect();
    let mut heads: Vec<Option<Event>> = queues.iter_mut().map(Iterator::next).collect();
    loop {
        let live: Vec<usize> = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.is_some().then_some(i))
            .collect();
        let Some(&pick) = master.choose_opt(&live) else {
            break;
        };
        let Some(ev) = heads.get_mut(pick).and_then(Option::take) else {
            break; // unreachable: `live` only lists non-empty heads
        };
        if let Some(slot) = heads.get_mut(pick) {
            *slot = queues.get_mut(pick).and_then(Iterator::next);
        }
        events.push(ev);
    }
    Workload::from_events(spec.clone(), symtab, Freq::ghz(3), events)
}

/// Pick a sample IP: usually inside a random function, sometimes
/// unmapped.
fn pick_ip(
    cg: &mut CoreGen,
    spec: &WorkloadSpec,
    symtab: &SymbolTable,
    funcs: &[FuncId],
) -> VirtAddr {
    if per_mille(&mut cg.rng, spec.unknown_ip_per_mille) {
        return UNMAPPED_IP;
    }
    match cg.rng.choose_opt(funcs) {
        Some(&f) => {
            let range = symtab.range(f);
            let span = range.end.0.wrapping_sub(range.start.0).max(1);
            VirtAddr(range.start.0 + cg.rng.gen_below(span))
        }
        None => UNMAPPED_IP,
    }
}

/// Emit one item (gap, spin, marks, samples) in canonical per-core
/// order, applying its fault and any special shape.
fn emit_item(
    cg: &mut CoreGen,
    spec: &WorkloadSpec,
    symtab: &SymbolTable,
    funcs: &[FuncId],
    item: ItemId,
    fault: Fault,
    global: u64,
) {
    // Inter-item gap with optional spin samples, strictly before the
    // next Start. A coincident Start consumes no gap.
    let coincident = fault == Fault::None
        && cg.coincident_anchor.is_some()
        && per_mille(&mut cg.rng, spec.coincident_per_mille);
    if !coincident {
        if per_mille(&mut cg.rng, spec.spin_per_mille) {
            let n = 1 + cg.rng.gen_below(5);
            for _ in 0..n {
                cg.advance(1, 40);
                let tsc = cg.tsc;
                let ip = pick_ip(cg, spec, symtab, funcs);
                cg.sample(tsc, ip);
            }
        }
        cg.advance(2, 80);
    }
    let start_tsc = if coincident {
        cg.coincident_anchor.unwrap_or(cg.tsc)
    } else {
        cg.tsc
    };
    cg.coincident_anchor = None;

    // Zero-length item: Start and End share one tsc. The canonical sort
    // puts End first, so neither pipeline can complete it — emit in that
    // order and move on (the Start stays open until abandoned).
    if fault == Fault::None && !coincident && per_mille(&mut cg.rng, spec.zero_len_per_mille) {
        cg.mark(start_tsc, item, MarkKind::End);
        cg.mark(start_tsc, item, MarkKind::Start);
        return;
    }

    if fault != Fault::DropOpen {
        cg.mark(start_tsc, item, MarkKind::Start);
        // Start-boundary sample (canonically after its Start). Never at
        // a coincident tsc: there a sample sorts before the End, and
        // emitted after the Start, a batch cut could hand it to the
        // opening item.
        if !coincident && per_mille(&mut cg.rng, spec.boundary_per_mille) {
            let ip = pick_ip(cg, spec, symtab, funcs);
            cg.sample(start_tsc, ip);
        }
    }

    // Body samples strictly inside the item.
    let burst = match fault {
        Fault::Burst(n) => u64::from(n),
        _ => 0,
    };
    let body = 1 + cg.rng.gen_below(6) + burst;
    let dup_start =
        fault == Fault::None && !coincident && per_mille(&mut cg.rng, spec.dup_start_per_mille);
    let dup_at = 1 + cg.rng.gen_below(body);
    for k in 0..body {
        cg.advance(1, 30);
        if dup_start && k == dup_at {
            // Duplicate Start mid-item: abandons the first half.
            cg.mark(cg.tsc, item, MarkKind::Start);
            cg.advance(1, 10);
        }
        let tsc = cg.tsc;
        let ip = pick_ip(cg, spec, symtab, funcs);
        cg.sample(tsc, ip);
    }

    // End-boundary sample (canonically before its End) — only when the
    // End is real and uncorrupted, so the tsc stays a true bound.
    cg.advance(1, 40);
    let end_tsc = cg.tsc;
    let end_boundary = fault == Fault::None && per_mille(&mut cg.rng, spec.boundary_per_mille);
    if end_boundary {
        let ip = pick_ip(cg, spec, symtab, funcs);
        cg.sample(end_tsc, ip);
    }
    let end_item = if fault == Fault::CorruptClose {
        ItemId(item.0 + WRONG_ITEM_OFFSET + global)
    } else {
        item
    };
    cg.mark(end_tsc, end_item, MarkKind::End);

    // Duplicate (orphan) End trailing the real one.
    if fault == Fault::None && per_mille(&mut cg.rng, spec.dup_end_per_mille) {
        cg.advance(1, 20);
        cg.mark(cg.tsc, item, MarkKind::End);
    } else if fault == Fault::None && !end_boundary {
        // The next item may legally start exactly here.
        cg.coincident_anchor = Some(end_tsc);
    }
}
