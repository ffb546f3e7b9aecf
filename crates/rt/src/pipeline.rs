//! Multi-stage feed-forward pipelines (Fig. 5): RX → work → TX, one
//! pinned worker per core, connected by software rings.

use crate::stage::{run_stage, StageOpts};
use crate::timed::Timed;
use fluctrace_cpu::{Core, Machine};

/// The boxed per-item processing closure of a stage.
pub type StageFn<'a, T> = Box<dyn FnMut(&mut Core, T) -> Option<T> + 'a>;

/// One stage definition: which core it is pinned to, its busy-loop
/// costs, and the per-item processing closure.
pub struct StageDef<'a, T> {
    /// Index of the core this worker is pinned to.
    pub core: usize,
    /// Busy-loop cost parameters.
    pub opts: StageOpts,
    /// Per-item work; returning `None` drops the item (e.g. an ACL deny).
    pub process: StageFn<'a, T>,
}

impl<'a, T> StageDef<'a, T> {
    /// Construct a stage.
    pub fn new(
        core: usize,
        opts: StageOpts,
        process: impl FnMut(&mut Core, T) -> Option<T> + 'a,
    ) -> Self {
        StageDef {
            core,
            opts,
            process: Box::new(process),
        }
    }
}

/// What a pipeline run produced.
pub struct PipelineReport<T> {
    /// Items that made it through every stage, with egress timestamps.
    pub outputs: Vec<Timed<T>>,
}

/// Namespace for running pipelines.
pub struct Pipeline;

impl Pipeline {
    /// Run `stages` over `input` on `machine`, stage by stage in
    /// topological order (exact for feed-forward pipelines with
    /// unbounded rings; see crate docs).
    ///
    /// Each stage's core is taken from the machine for the duration of
    /// its run and returned afterwards, so [`Machine::collect`] sees
    /// every core's trace.
    pub fn run<T>(
        machine: &mut Machine,
        input: Vec<Timed<T>>,
        stages: Vec<StageDef<'_, T>>,
    ) -> PipelineReport<T> {
        fluctrace_obs::span!("pipeline.run", stages.len());
        fluctrace_obs::counter!("rt.pipeline.runs").inc();
        fluctrace_obs::counter!("rt.pipeline.stages").add(stages.len() as u64);
        let mut items = input;
        for mut stage in stages {
            let mut core = machine.take_core(stage.core);
            items = run_stage(&mut core, items, stage.opts, &mut stage.process);
            machine.return_core(core);
        }
        PipelineReport { outputs: items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::arrival_schedule;
    use fluctrace_cpu::{CoreConfig, Exec, ItemId, MachineConfig, SymbolTableBuilder};
    use fluctrace_sim::{SimDuration, SimTime};

    #[test]
    fn three_stage_pipeline_preserves_order_and_latency() {
        let mut b = SymbolTableBuilder::new();
        let rx = b.add("rx_loop", 256);
        let work = b.add("work", 1024);
        let tx = b.add("tx_loop", 256);
        let mut machine = Machine::new(MachineConfig::new(3, CoreConfig::bare()), b.build());

        let input = arrival_schedule(SimTime::from_us(1), SimDuration::from_us(10), 20, |i| {
            i as u64
        });
        let report = Pipeline::run(
            &mut machine,
            input,
            vec![
                StageDef::new(0, StageOpts::new(rx), |_, v| Some(v)),
                StageDef::new(1, StageOpts::new(work), move |core: &mut Core, v| {
                    core.mark_item_start(ItemId(v));
                    core.exec(Exec::new(work, 6000).ipc_milli(2000));
                    core.mark_item_end(ItemId(v));
                    Some(v)
                }),
                StageDef::new(2, StageOpts::new(tx), |_, v| Some(v)),
            ],
        );
        assert_eq!(report.outputs.len(), 20);
        assert!(crate::timed::is_sorted(&report.outputs));
        // Every item exits after it entered, with at least the work time.
        for (i, o) in report.outputs.iter().enumerate() {
            assert_eq!(o.value, i as u64);
            let ingress = SimTime::from_us(1) + SimDuration::from_us(10) * i as u64;
            assert!(o.at > ingress + SimDuration::from_us(1));
        }
        // All cores saw activity; the trace has marks only from core 1.
        let (bundle, reports) = machine.collect();
        assert_eq!(bundle.marks.len(), 40);
        assert!(reports[1].marks == 40);
        assert!(reports[0].marks == 0);
    }

    #[test]
    fn dropping_stage_filters_downstream() {
        let mut b = SymbolTableBuilder::new();
        let f = b.add("f", 256);
        let mut machine = Machine::new(MachineConfig::new(2, CoreConfig::bare()), b.build());
        let input = arrival_schedule(SimTime::ZERO, SimDuration::from_us(1), 10, |i| i as u64);
        let report = Pipeline::run(
            &mut machine,
            input,
            vec![
                StageDef::new(0, StageOpts::new(f), |_, v| (v < 3).then_some(v)),
                StageDef::new(1, StageOpts::new(f), |_, v| Some(v)),
            ],
        );
        assert_eq!(report.outputs.len(), 3);
    }
}
