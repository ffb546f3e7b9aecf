//! One self-switching pipeline stage: a pinned worker thread running a
//! busy loop that pops items from its input ring, processes them, and
//! pushes results downstream.
//!
//! The busy loop itself retires µops (DPDK workers spin at 100% CPU), so
//! waiting for the next item is modelled as executing the poll function
//! for exactly the gap duration — PEBS keeps sampling through it, and
//! those samples correctly fall *outside* any item's mark interval.

use crate::timed::Timed;
use crate::wait;
use fluctrace_cpu::{Core, Exec, FuncId};
use fluctrace_sim::{SimDuration, SimTime};

/// Cost/shape parameters of a stage's busy loop.
#[derive(Debug, Clone, Copy)]
pub struct StageOpts {
    /// Function the poll loop (and ring push/pop) executes in.
    pub poll_func: FuncId,
    /// Retirement rate of the poll loop (µops per 1000 cycles).
    pub poll_ipc_milli: u32,
    /// µops to pop one item from the input ring.
    pub pop_uops: u64,
    /// µops to push one item to the output ring.
    pub push_uops: u64,
}

impl StageOpts {
    /// Defaults close to a DPDK `rte_ring` dequeue/enqueue pair:
    /// ~60 µops each, spin loop at IPC 2.0.
    pub fn new(poll_func: FuncId) -> Self {
        StageOpts {
            poll_func,
            poll_ipc_milli: 2000,
            pop_uops: 60,
            push_uops: 60,
        }
    }
}

/// Count the worker's poll gap before `at` as a ring-empty wait in the
/// `rt.wait.*` metrics (no-op when the gap is empty or the obs
/// recording gate is closed). The gap is known *exactly* before
/// spinning — `spin_until` burns precisely `until - now` — so the
/// length is sim-deterministic.
fn count_poll_gap(core: &Core, at: SimTime) {
    if !fluctrace_obs::recording() {
        return;
    }
    let now = core.now();
    if at <= now {
        return;
    }
    let cycles = core.freq().dur_to_cycles(at.since(now));
    if cycles > 0 {
        wait::count_offered(cycles);
    }
}

/// Spin in `func` until the core's clock reaches `until`.
///
/// The spin is executed as real µops so the sampling engines observe it
/// (a DPDK poll loop retires µops the whole time it waits). Work is
/// issued in short chunks so that sampling dilation inside the spin
/// consumes spin iterations instead of delaying the moment the loop
/// notices the next item: a real busy loop detects an arrival at most
/// one sampling assist late, not one *gap's worth of assists* late.
pub fn spin_until(core: &mut Core, until: SimTime, func: FuncId, ipc_milli: u32) {
    /// Chunk of spin work issued at a time (bounds the overshoot past
    /// `until` to the dilation of one chunk).
    const CHUNK: SimDuration = SimDuration::from_us(2);
    loop {
        let now = core.now();
        if now >= until {
            return;
        }
        let remaining = until.since(now);
        let chunk = if remaining < CHUNK { remaining } else { CHUNK };
        let cycles = core.freq().dur_to_cycles(chunk);
        let uops = (cycles as u128 * ipc_milli as u128 / 1000) as u64;
        if uops == 0 {
            core.advance_to(until);
            return;
        }
        core.exec(Exec::new(func, uops).ipc_milli(ipc_milli));
    }
}

/// Run one stage to completion over its whole input schedule.
///
/// For each input item the worker:
/// 1. spins in the poll loop until the item is available,
/// 2. pays the ring-pop cost,
/// 3. runs `process` (which does the stage's real work on the core and
///    may emit data-item marks), and
/// 4. if `process` produced an output, pays the ring-push cost and
///    timestamps the output with the core's clock.
///
/// Returns the stage's output schedule, suitable as the next stage's
/// input. This topological-order execution is exact for feed-forward
/// pipelines with unbounded rings.
pub fn run_stage<T, U>(
    core: &mut Core,
    input: Vec<Timed<T>>,
    opts: StageOpts,
    mut process: impl FnMut(&mut Core, T) -> Option<U>,
) -> Vec<Timed<U>> {
    debug_assert!(crate::timed::is_sorted(&input), "unsorted stage input");
    fluctrace_obs::span!("stage.run", input.len());
    fluctrace_obs::counter!("rt.stage.runs").inc();
    let mut out = Vec::with_capacity(input.len());
    for Timed { at, value } in input {
        count_poll_gap(core, at);
        spin_until(core, at, opts.poll_func, opts.poll_ipc_milli);
        if opts.pop_uops > 0 {
            core.exec(Exec::new(opts.poll_func, opts.pop_uops).ipc_milli(opts.poll_ipc_milli));
        }
        if let Some(result) = process(core, value) {
            if opts.push_uops > 0 {
                core.exec(Exec::new(opts.poll_func, opts.push_uops).ipc_milli(opts.poll_ipc_milli));
            }
            out.push(Timed::new(core.now(), result));
        }
    }
    fluctrace_obs::counter!("rt.stage.items").add(out.len() as u64);
    out
}

/// Run one stage in **batched** mode: the worker pops up to
/// `batch_max` already-available items per ring access (DPDK's
/// `rte_eth_rx_burst` pattern) and hands the whole burst to `process`.
///
/// This is the regime the paper defers ("how to retrieve the IDs from
/// batched data-items is future work"): when `process` does one
/// vectorized operation for the whole burst, per-item marks cannot
/// bracket it — see `fluctrace-core::batch` for the attribution
/// strategy built on top of this.
pub fn run_stage_batched<T, U>(
    core: &mut Core,
    input: Vec<Timed<T>>,
    opts: StageOpts,
    batch_max: usize,
    mut process: impl FnMut(&mut Core, Vec<T>) -> Vec<U>,
) -> Vec<Timed<U>> {
    assert!(batch_max > 0, "zero batch size");
    debug_assert!(crate::timed::is_sorted(&input), "unsorted stage input");
    fluctrace_obs::span!("stage.run_batched", input.len());
    fluctrace_obs::counter!("rt.stage.runs").inc();
    let mut out = Vec::with_capacity(input.len());
    let mut iter = input.into_iter().peekable();
    while let Some(first) = iter.next() {
        count_poll_gap(core, first.at);
        spin_until(core, first.at, opts.poll_func, opts.poll_ipc_milli);
        // Burst-pop everything already waiting, up to batch_max.
        let mut burst = vec![first.value];
        while burst.len() < batch_max {
            match iter.peek() {
                Some(next) if next.at <= core.now() => {
                    burst.push(iter.next().unwrap().value);
                }
                _ => break,
            }
        }
        if opts.pop_uops > 0 {
            core.exec(Exec::new(opts.poll_func, opts.pop_uops).ipc_milli(opts.poll_ipc_milli));
        }
        fluctrace_obs::counter!("rt.stage.batches").inc();
        fluctrace_obs::histogram!("rt.stage.batch_len").record(burst.len() as u64);
        let results = process(core, burst);
        if !results.is_empty() && opts.push_uops > 0 {
            core.exec(Exec::new(opts.poll_func, opts.push_uops).ipc_milli(opts.poll_ipc_milli));
        }
        let at = core.now();
        out.extend(results.into_iter().map(|r| Timed::new(at, r)));
    }
    fluctrace_obs::counter!("rt.stage.items").add(out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::arrival_schedule;
    use fluctrace_cpu::{CoreConfig, CoreId, ItemId, PebsConfig, SymbolTableBuilder};
    use fluctrace_sim::{Rng, SimDuration};

    fn core_with(pebs: Option<PebsConfig>) -> (Core, FuncId, FuncId) {
        let mut b = SymbolTableBuilder::new();
        let poll = b.add("poll_loop", 512);
        let work = b.add("do_work", 2048);
        let mut cfg = CoreConfig::bare();
        cfg.pebs = pebs;
        let core = Core::new(CoreId(0), cfg, b.build().into_shared(), Rng::new(5));
        (core, poll, work)
    }

    #[test]
    fn spin_reaches_target_time() {
        let (mut core, poll, _) = core_with(None);
        spin_until(&mut core, SimTime::from_us(10), poll, 2000);
        assert_eq!(core.now(), SimTime::from_us(10));
        // Spinning retired uops: 10us * 3GHz * 2.0 IPC = 60000.
        assert_eq!(
            core.event_count(fluctrace_cpu::HwEvent::UopsRetired),
            60_000
        );
    }

    #[test]
    fn spin_in_the_past_is_noop() {
        let (mut core, poll, _) = core_with(None);
        core.advance_to(SimTime::from_us(5));
        spin_until(&mut core, SimTime::from_us(3), poll, 2000);
        assert_eq!(core.now(), SimTime::from_us(5));
    }

    #[test]
    fn stage_processes_every_item_in_order() {
        let (mut core, poll, work) = core_with(None);
        let input = arrival_schedule(SimTime::from_us(1), SimDuration::from_us(10), 5, |i| {
            i as u64
        });
        let out = run_stage(&mut core, input, StageOpts::new(poll), |core, v| {
            core.mark_item_start(ItemId(v));
            core.exec(Exec::new(work, 3000).ipc_milli(1000));
            core.mark_item_end(ItemId(v));
            Some(v * 10)
        });
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].value, 0);
        assert_eq!(out[4].value, 40);
        assert!(crate::timed::is_sorted(&out));
        // Each output is after its input plus ~1us of work.
        for (i, o) in out.iter().enumerate() {
            let arrival = SimTime::from_us(1) + SimDuration::from_us(10) * i as u64;
            assert!(o.at >= arrival + SimDuration::from_us(1));
        }
    }

    #[test]
    fn stage_filter_drops_items() {
        let (mut core, poll, _) = core_with(None);
        let input = arrival_schedule(SimTime::ZERO, SimDuration::from_us(1), 10, |i| i);
        let out = run_stage(&mut core, input, StageOpts::new(poll), |_, v| {
            (v % 2 == 0).then_some(v)
        });
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn backlogged_items_process_back_to_back() {
        // All items available at t=0: no spin between them.
        let (mut core, poll, work) = core_with(None);
        let input = arrival_schedule(SimTime::ZERO, SimDuration::ZERO, 3, |i| i);
        let out = run_stage(&mut core, input, StageOpts::new(poll), |core, v| {
            core.exec(Exec::new(work, 3000).ipc_milli(1000));
            Some(v)
        });
        // Gap between consecutive outputs ≈ work time + pop/push costs,
        // well under 1.2us.
        for w in out.windows(2) {
            let gap = w[1].at.since(w[0].at);
            assert!(gap < SimDuration::from_ns(1200), "gap {gap}");
        }
    }

    #[test]
    fn batched_stage_bursts_backlogged_items() {
        let (mut core, poll, work) = core_with(None);
        // 6 items at t=0 (backlog), 2 later.
        let mut input = arrival_schedule(SimTime::ZERO, SimDuration::ZERO, 6, |i| i as u64);
        input.extend(arrival_schedule(
            SimTime::from_us(100),
            SimDuration::from_us(50),
            2,
            |i| 6 + i as u64,
        ));
        let mut bursts = Vec::new();
        let out = run_stage_batched(&mut core, input, StageOpts::new(poll), 4, |core, batch| {
            bursts.push(batch.len());
            core.exec(Exec::new(work, 3_000 * batch.len() as u64));
            batch
        });
        assert_eq!(out.len(), 8);
        // Backlog popped as a burst of 4, then 2; later arrivals alone.
        assert_eq!(bursts, vec![4, 2, 1, 1]);
        assert!(crate::timed::is_sorted(&out));
    }

    #[test]
    fn batched_stage_respects_batch_max_one() {
        let (mut core, poll, _) = core_with(None);
        let input = arrival_schedule(SimTime::ZERO, SimDuration::ZERO, 5, |i| i);
        let out = run_stage_batched(&mut core, input, StageOpts::new(poll), 1, |_, batch| {
            assert_eq!(batch.len(), 1);
            batch
        });
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn spin_samples_fall_outside_item_intervals() {
        let (mut core, poll, work) = core_with(Some(PebsConfig::new(2000)));
        let input = arrival_schedule(SimTime::from_us(5), SimDuration::from_us(20), 3, |i| {
            i as u64
        });
        run_stage(&mut core, input, StageOpts::new(poll), |core, v| {
            core.mark_item_start(ItemId(v));
            core.exec(Exec::new(work, 6000).ipc_milli(1000));
            core.mark_item_end(ItemId(v));
            Some(v)
        });
        core.finish();
        let bundle = core.take_bundle();
        assert!(!bundle.samples.is_empty());
        // Samples exist both inside and outside item intervals.
        let symtab = core.symtab().clone();
        let poll_range = symtab.range(poll);
        let work_range = symtab.range(work);
        let poll_samples = bundle
            .samples
            .iter()
            .filter(|s| poll_range.contains(s.ip))
            .count();
        let work_samples = bundle
            .samples
            .iter()
            .filter(|s| work_range.contains(s.ip))
            .count();
        assert!(poll_samples > 0, "spin produced samples");
        assert!(work_samples > 0, "work produced samples");
    }
}
