//! Timer-switching architecture: a user-level-thread (ULT) scheduler
//! that preempts data-items on a quantum (§III.C type 2, §V.A).
//!
//! In this architecture a light data-item can finish while a heavy one
//! is still in flight, at the cost of context switches. Data-item
//! switches are *forced by timers*, so the "two marks per item" scheme
//! of the self-switching procedure no longer brackets an item's samples.
//! The paper's §V.A extension stores the current item id in a reserved
//! general-purpose register (`r13`): the ULT context switch swaps
//! register state, so every PEBS sample automatically carries the id of
//! the item it belongs to. This module implements exactly that — plus an
//! optional mode where the scheduler logs a mark at every slice boundary,
//! the "record the activities of the scheduler" alternative of §III.C.

use fluctrace_cpu::{encode_tag, Core, Exec, FuncId, ItemId, NO_TAG};
use fluctrace_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Configuration of the ULT scheduler.
#[derive(Debug, Clone, Copy)]
pub struct UltSchedulerConfig {
    /// Preemption quantum: a job is switched out once its slice has run
    /// at least this long.
    pub quantum: SimDuration,
    /// µops executed by one context switch (register save/restore,
    /// run-queue manipulation).
    pub switch_cost_uops: u64,
    /// Function the scheduler's own code (and idle loop) runs in.
    pub sched_func: FuncId,
    /// Emit a data-item mark at every slice start/end so the
    /// interval-based integrator can also be used (scheduler-activity
    /// logging). When `false`, only the `r13` register tag identifies
    /// samples, as in §V.A.
    pub emit_marks: bool,
}

impl UltSchedulerConfig {
    /// 20 µs quantum, 300-µop context switch, register tagging only.
    pub fn new(sched_func: FuncId) -> Self {
        UltSchedulerConfig {
            quantum: SimDuration::from_us(20),
            switch_cost_uops: 300,
            sched_func,
            emit_marks: false,
        }
    }
}

/// One data-item's work, pre-split into preemptible chunks.
///
/// Chunks are the granularity at which the timer can fire; real ULT
/// libraries preempt at yield points, which high-throughput code places
/// every few microseconds of work.
#[derive(Debug, Clone)]
pub struct UltJob {
    /// The data-item this job processes.
    pub item: ItemId,
    /// When the item arrived.
    pub arrival: SimTime,
    /// Remaining work.
    pub chunks: VecDeque<Exec>,
}

impl UltJob {
    /// Build a job from a chunk list.
    pub fn new(item: ItemId, arrival: SimTime, chunks: Vec<Exec>) -> Self {
        UltJob {
            item,
            arrival,
            chunks: chunks.into(),
        }
    }
}

/// Completion record for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UltCompletion {
    /// The data-item.
    pub item: ItemId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Time the last chunk finished.
    pub completed: SimTime,
}

impl UltCompletion {
    /// Sojourn time (arrival → completion).
    pub fn latency(&self) -> SimDuration {
        self.completed.since(self.arrival)
    }
}

/// Round-robin preemptive user-level-thread scheduler on one core.
#[derive(Debug, Clone)]
pub struct UltScheduler {
    config: UltSchedulerConfig,
}

impl UltScheduler {
    /// Create a scheduler.
    pub fn new(config: UltSchedulerConfig) -> Self {
        assert!(config.quantum > SimDuration::ZERO, "zero quantum");
        UltScheduler { config }
    }

    /// Run all jobs to completion; returns completion records in
    /// completion order.
    pub fn run(&self, core: &mut Core, mut jobs: Vec<UltJob>) -> Vec<UltCompletion> {
        jobs.sort_by_key(|j| j.arrival);
        let mut pending: VecDeque<UltJob> = jobs.into();
        let mut ready: VecDeque<UltJob> = VecDeque::new();
        let mut done = Vec::new();
        let cfg = self.config;

        loop {
            // Admit arrivals.
            while pending.front().is_some_and(|j| j.arrival <= core.now()) {
                ready.push_back(pending.pop_front().unwrap());
            }
            let Some(mut job) = ready.pop_front() else {
                // Nothing ready: idle-spin to the next arrival or stop.
                let Some(next) = pending.front() else { break };
                let at = next.arrival;
                crate::stage::spin_until(core, at, cfg.sched_func, 1500);
                continue;
            };

            // Context-switch in: load register state (including the r13
            // item tag, which is what makes §V.A work).
            if cfg.switch_cost_uops > 0 {
                core.exec(Exec::new(cfg.sched_func, cfg.switch_cost_uops));
            }
            core.set_r13(encode_tag(job.item));
            core.set_current_item(Some(job.item));
            if cfg.emit_marks {
                // A slice boundary is a data-item switch: log it.
                core.set_current_item(None);
                core.mark_item_start(job.item);
            }

            // Run one quantum.
            let slice_start = core.now();
            while core.now().since(slice_start) < cfg.quantum {
                let Some(chunk) = job.chunks.pop_front() else {
                    break;
                };
                core.exec(chunk);
            }

            if cfg.emit_marks {
                core.mark_item_end(job.item);
            }
            core.set_current_item(None);
            core.set_r13(NO_TAG);

            if job.chunks.is_empty() {
                done.push(UltCompletion {
                    item: job.item,
                    arrival: job.arrival,
                    completed: core.now(),
                });
            } else {
                ready.push_back(job);
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluctrace_cpu::{decode_tag, CoreConfig, CoreId, PebsConfig, SymbolTableBuilder};
    use fluctrace_sim::Rng;

    fn setup(pebs: Option<PebsConfig>) -> (Core, FuncId, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let sched = b.add("ult_sched", 512);
        let work = b.add("job_work", 2048);
        let mut cfg = CoreConfig::bare().with_reg_tagging();
        cfg.pebs = pebs;
        let core = Core::new(CoreId(0), cfg, b.build().into_shared(), Rng::new(11));
        (core, sched, work)
    }

    fn job(item: u64, arrival_us: u64, work: FuncId, chunks: usize, uops_per_chunk: u64) -> UltJob {
        UltJob::new(
            ItemId(item),
            SimTime::from_us(arrival_us),
            (0..chunks)
                .map(|_| Exec::new(work, uops_per_chunk).ipc_milli(1000))
                .collect(),
        )
    }

    #[test]
    fn light_job_finishes_before_heavy_one() {
        // The defining property of timer-switching (§III.C): a light item
        // arriving after a heavy one still completes first.
        let (mut core, sched, work) = setup(None);
        let s = UltScheduler::new(UltSchedulerConfig::new(sched));
        // Heavy: 40 chunks x 6000 uops = 80us of work, arrives at t=0.
        // Light: 2 chunks = 4us, arrives at t=1us.
        let done = s.run(
            &mut core,
            vec![job(0, 0, work, 40, 6000), job(1, 1, work, 2, 6000)],
        );
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].item, ItemId(1), "light job completes first");
        assert!(done[0].completed < done[1].completed);
    }

    #[test]
    fn self_switching_would_block_the_light_job() {
        // With a quantum larger than any job, the scheduler degenerates
        // to run-to-completion and the heavy job blocks the light one.
        let (mut core, sched, work) = setup(None);
        let mut cfg = UltSchedulerConfig::new(sched);
        cfg.quantum = SimDuration::from_ms(10);
        let s = UltScheduler::new(cfg);
        let done = s.run(
            &mut core,
            vec![job(0, 0, work, 40, 6000), job(1, 1, work, 2, 6000)],
        );
        assert_eq!(done[0].item, ItemId(0), "heavy job completes first");
    }

    #[test]
    fn completions_cover_all_jobs_and_latency_positive() {
        let (mut core, sched, work) = setup(None);
        let s = UltScheduler::new(UltSchedulerConfig::new(sched));
        let jobs: Vec<UltJob> = (0..10).map(|i| job(i, i, work, 3, 3000)).collect();
        let done = s.run(&mut core, jobs);
        assert_eq!(done.len(), 10);
        for c in &done {
            assert!(c.latency() > SimDuration::ZERO);
        }
    }

    #[test]
    fn samples_carry_the_current_item_tag() {
        let (mut core, sched, work) = setup(Some(PebsConfig::new(2000)));
        let s = UltScheduler::new(UltSchedulerConfig::new(sched));
        let done = s.run(
            &mut core,
            vec![job(0, 0, work, 30, 6000), job(1, 1, work, 30, 6000)],
        );
        assert_eq!(done.len(), 2);
        core.finish();
        let bundle = core.take_bundle();
        let work_range = core.symtab().range(work);
        let mut tagged = [0u32; 2];
        for sample in bundle.samples.iter().filter(|s| work_range.contains(s.ip)) {
            let item = decode_tag(sample.r13).expect("work samples must be tagged");
            tagged[item.0 as usize] += 1;
        }
        // Both items' work got sampled, interleaved on one core.
        assert!(tagged[0] > 5, "item 0 samples: {}", tagged[0]);
        assert!(tagged[1] > 5, "item 1 samples: {}", tagged[1]);
        // Samples in the ULT scheduler itself are untagged.
        let sched_range = core.symtab().range(sched);
        for sample in bundle.samples.iter().filter(|s| sched_range.contains(s.ip)) {
            assert_eq!(decode_tag(sample.r13), None);
        }
    }

    #[test]
    fn emit_marks_produces_slice_intervals() {
        let (mut core, sched, work) = setup(None);
        let mut cfg = UltSchedulerConfig::new(sched);
        cfg.emit_marks = true;
        let s = UltScheduler::new(cfg);
        s.run(
            &mut core,
            vec![job(0, 0, work, 25, 6000), job(1, 1, work, 25, 6000)],
        );
        core.finish();
        let bundle = core.take_bundle();
        // Paired marks, strictly alternating Start/End.
        assert!(bundle.marks.len() >= 4);
        assert_eq!(bundle.marks.len() % 2, 0);
        for pair in bundle.marks.chunks(2) {
            assert_eq!(pair[0].kind, fluctrace_cpu::MarkKind::Start);
            assert_eq!(pair[1].kind, fluctrace_cpu::MarkKind::End);
            assert_eq!(pair[0].item, pair[1].item);
        }
        // More than one slice per item (preemption happened).
        let slices_item0 = bundle
            .marks
            .iter()
            .filter(|m| m.item == ItemId(0) && m.kind == fluctrace_cpu::MarkKind::Start)
            .count();
        assert!(slices_item0 >= 2, "item 0 was preempted");
    }

    #[test]
    fn idle_gap_between_arrivals_is_bridged() {
        let (mut core, sched, work) = setup(None);
        let s = UltScheduler::new(UltSchedulerConfig::new(sched));
        let done = s.run(
            &mut core,
            vec![job(0, 0, work, 1, 3000), job(1, 500, work, 1, 3000)],
        );
        assert_eq!(done.len(), 2);
        assert!(done[1].completed > SimTime::from_us(500));
    }
}
