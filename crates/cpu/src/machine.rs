//! The whole machine: a set of cores sharing a symbol table and a
//! configuration, mirroring the paper's evaluation box (Table II): one
//! Skylake socket, per-core PEBS, commodity SSD.

use crate::corerun::{Core, CoreConfig, CoreReport};
use crate::symtab::SymbolTable;
pub use crate::trace::CoreId;
use crate::trace::TraceBundle;
use fluctrace_sim::{Rng, SimTime};
use std::sync::Arc;

/// Machine-wide configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core configuration (identical across cores, as in the paper's
    /// experiments where PEBS samples "core-related events for every
    /// core simultaneously").
    pub core: CoreConfig,
    /// Master RNG seed; each core forks an independent stream.
    pub seed: u64,
}

impl MachineConfig {
    /// `cores` identical cores with the given per-core config.
    pub fn new(cores: usize, core: CoreConfig) -> Self {
        MachineConfig {
            cores,
            core,
            seed: 0xF1AC_72AC_E5EE_D001,
        }
    }

    /// Override the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A machine: cores plus the shared symbol table.
pub struct Machine {
    symtab: Arc<SymbolTable>,
    cores: Vec<Option<Core>>,
}

impl Machine {
    /// Build the machine; all cores start at time zero.
    pub fn new(config: MachineConfig, symtab: SymbolTable) -> Self {
        assert!(config.cores > 0, "machine with zero cores");
        let symtab = symtab.into_shared();
        let mut rng = Rng::new(config.seed);
        let cores = (0..config.cores)
            .map(|i| {
                Some(Core::new(
                    CoreId(i as u32),
                    config.core.clone(),
                    Arc::clone(&symtab),
                    rng.fork(),
                ))
            })
            .collect();
        Machine { symtab, cores }
    }

    /// The shared symbol table.
    pub fn symtab(&self) -> &Arc<SymbolTable> {
        &self.symtab
    }

    /// Take ownership of core `i` (so a pipeline worker can drive it).
    /// Panics if the core was already taken.
    pub fn take_core(&mut self, i: usize) -> Core {
        self.cores[i].take().expect("core already taken")
    }

    /// Return a core after the run so the machine can collect its trace.
    pub fn return_core(&mut self, core: Core) {
        let idx = core.id().index();
        assert!(self.cores[idx].is_none(), "returning a core twice");
        self.cores[idx] = Some(core);
    }

    /// Borrow core `i` (must not be taken).
    pub fn core(&self, i: usize) -> &Core {
        self.cores[i].as_ref().expect("core is taken")
    }

    /// Mutably borrow core `i` (must not be taken).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        self.cores[i].as_mut().expect("core is taken")
    }

    /// Finish every core, collect and sort the merged trace bundle, and
    /// gather per-core reports. The machine keeps the cores afterwards.
    pub fn collect(&mut self) -> (TraceBundle, Vec<CoreReport>) {
        let mut bundle = TraceBundle::default();
        let mut reports = Vec::with_capacity(self.cores.len());
        for slot in &mut self.cores {
            let core = slot.as_mut().expect("collect with a core still taken");
            core.finish();
            bundle.merge(core.take_bundle());
            reports.push(core.report());
        }
        bundle.sort();
        (bundle, reports)
    }

    /// The latest local time across all cores (end of the run).
    pub fn horizon(&self) -> SimTime {
        self.cores
            .iter()
            .map(|c| c.as_ref().expect("core is taken").now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corerun::Exec;
    use crate::pebs::PebsConfig;
    use crate::symtab::SymbolTableBuilder;
    use crate::trace::ItemId;

    fn symtab() -> SymbolTable {
        let mut b = SymbolTableBuilder::new();
        b.add("work", 1024);
        b.build()
    }

    #[test]
    fn take_and_return_cores() {
        let cfg = MachineConfig::new(2, CoreConfig::bare());
        let mut m = Machine::new(cfg, symtab());
        let c0 = m.take_core(0);
        assert_eq!(c0.id(), CoreId(0));
        m.return_core(c0);
        // Usable again through borrow.
        assert_eq!(m.core(0).id(), CoreId(0));
    }

    #[test]
    #[should_panic(expected = "core already taken")]
    fn double_take_panics() {
        let cfg = MachineConfig::new(1, CoreConfig::bare());
        let mut m = Machine::new(cfg, symtab());
        let _c = m.take_core(0);
        let _c2 = m.take_core(0);
    }

    #[test]
    fn collect_merges_all_cores() {
        let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(100));
        let cfg = MachineConfig::new(2, core_cfg);
        let mut m = Machine::new(cfg, symtab());
        let f = m.symtab().lookup("work").unwrap();
        for i in 0..2 {
            let c = m.core_mut(i);
            c.mark_item_start(ItemId(i as u64));
            c.exec(Exec::new(f, 1000).ipc_milli(1000));
            c.mark_item_end(ItemId(i as u64));
        }
        let (bundle, reports) = m.collect();
        assert_eq!(bundle.marks.len(), 4);
        assert_eq!(bundle.samples.len(), 20);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].marks, 2);
        // Bundle is sorted per (core, tsc).
        let mut prev = None;
        for s in &bundle.samples {
            if let Some((pc, pt)) = prev {
                assert!((s.core, s.tsc) >= (pc, pt));
            }
            prev = Some((s.core, s.tsc));
        }
    }

    #[test]
    fn per_core_rng_streams_differ() {
        // Two cores sampling the same workload must not produce identical
        // IP jitter sequences.
        let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(100));
        let cfg = MachineConfig::new(2, core_cfg);
        let mut m = Machine::new(cfg, symtab());
        let f = m.symtab().lookup("work").unwrap();
        for i in 0..2 {
            m.core_mut(i).exec(Exec::new(f, 2000).ipc_milli(1000));
        }
        let (bundle, _) = m.collect();
        let ips0: Vec<_> = bundle
            .samples
            .iter()
            .filter(|s| s.core == CoreId(0))
            .map(|s| s.ip)
            .collect();
        let ips1: Vec<_> = bundle
            .samples
            .iter()
            .filter(|s| s.core == CoreId(1))
            .map(|s| s.ip)
            .collect();
        assert_eq!(ips0.len(), ips1.len());
        assert_ne!(ips0, ips1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let core_cfg = CoreConfig::bare().with_pebs(PebsConfig::new(64));
            let cfg = MachineConfig::new(1, core_cfg).with_seed(seed);
            let mut m = Machine::new(cfg, symtab());
            let f = m.symtab().lookup("work").unwrap();
            m.core_mut(0).exec(Exec::new(f, 5000).ipc_milli(1000));
            let (bundle, _) = m.collect();
            bundle.samples
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn horizon_is_max_core_time() {
        let cfg = MachineConfig::new(2, CoreConfig::bare());
        let mut m = Machine::new(cfg, symtab());
        m.core_mut(1).advance_to(SimTime::from_us(9));
        assert_eq!(m.horizon(), SimTime::from_us(9));
    }
}
