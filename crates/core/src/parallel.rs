//! Bounded worker-pool helpers for the parallel analysis pipeline.
//!
//! Both the per-core sharded integration ([`crate::integrate()`]) and the
//! figure sweep runner in `fluctrace-bench` fan independent units of
//! work over a small pool of scoped threads. The helpers here guarantee
//! the property everything downstream relies on: **results are
//! collected by task index**, so the output is identical to running the
//! tasks sequentially, regardless of the worker count or scheduling.
//!
//! The pool size comes from `FLUCTRACE_THREADS` (default: the machine's
//! available parallelism; `1` reproduces fully sequential behaviour).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Slot mutexes are poison-tolerant: a panicking task already
/// propagates out of the thread scope, so a poisoned lock carries no
/// extra information here — taking the inner value keeps the claim
/// loop itself panic-free.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker count selected via the `FLUCTRACE_THREADS` environment
/// variable. Unset or unparsable values fall back to the machine's
/// available parallelism; values are clamped to at least 1.
pub fn configured_threads() -> usize {
    std::env::var("FLUCTRACE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Below this many samples the shard fan-out is pure overhead; run the
/// single-threaded path (same results by construction).
const PARALLEL_MIN_SAMPLES: usize = 4096;

/// Pool size for integrating a bundle of `samples` samples: sequential
/// below [`PARALLEL_MIN_SAMPLES`], [`configured_threads`] otherwise.
pub(crate) fn threads_for(samples: usize) -> usize {
    if samples < PARALLEL_MIN_SAMPLES {
        1
    } else {
        configured_threads()
    }
}

/// Run `f` over every task on up to `threads` scoped workers and return
/// the results **in task order**.
///
/// Tasks are claimed from a shared atomic cursor (dynamic load
/// balancing — shard sizes are rarely uniform), but each result lands
/// in the slot of its input index, so the returned vector is
/// bit-identical to `tasks.into_iter().enumerate().map(f).collect()`.
/// A panicking task propagates out of the scope, as with sequential
/// execution.
pub fn run_indexed<T, R, F>(tasks: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let threads = threads.clamp(1, n.max(1));
    if fluctrace_obs::recording() {
        fluctrace_obs::counter!("core.parallel.runs").inc();
        fluctrace_obs::counter!("core.parallel.tasks").add(n as u64);
    }
    if threads == 1 || n <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Slot-per-task mutexes are uncontended: exactly one worker claims
    // each index, so the locks only pay their uncontended fast path.
    let task_slots: Vec<Mutex<Option<T>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let result_slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // lint:allow(atomic-ordering): claim ticket only — the cursor hands out disjoint indices; the slot Mutex synchronizes the task payload itself
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                // `get` doubles as the `i >= n` termination check, and
                // an already-empty slot (impossible: each index is
                // handed out once) degrades to a break, not a panic.
                let Some((task_slot, result_slot)) = task_slots.get(i).zip(result_slots.get(i))
                else {
                    break;
                };
                let Some(task) = lock_ok(task_slot).take() else {
                    break;
                };
                let result = f(i, task);
                *lock_ok(result_slot) = Some(result);
            });
        }
    });
    result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint:allow(panic-safety-transitive): post-scope invariant — a missing result means a worker panicked, which already propagated out of the scope above
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// Fan `parts` out over up to `threads` scoped workers for their side
/// effects only — no result slots, no collection pass.
///
/// Built for the columnar integrator: each part owns a disjoint
/// `split_at_mut` chunk of a shared output buffer, so workers write
/// their final bytes in place and the "merge" is free. Tasks are
/// claimed from the same atomic cursor as [`run_indexed`] (dynamic load
/// balancing), and the same obs counters are recorded, so a fast-path
/// run is observably identical to an AoS run. A panicking task
/// propagates out of the scope, as with sequential execution.
pub fn run_parts<T, F>(parts: Vec<T>, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let n = parts.len();
    let threads = threads.clamp(1, n.max(1));
    if fluctrace_obs::recording() {
        fluctrace_obs::counter!("core.parallel.runs").inc();
        fluctrace_obs::counter!("core.parallel.tasks").add(n as u64);
    }
    if threads == 1 || n <= 1 {
        for (i, part) in parts.into_iter().enumerate() {
            f(i, part);
        }
        return;
    }
    let part_slots: Vec<Mutex<Option<T>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(part) = part_slots.get(i).and_then(|slot| lock_ok(slot).take()) else {
                    break;
                };
                f(i, part);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_indexed(tasks.clone(), threads, |i, t| {
                assert_eq!(i as u64, t);
                t * t
            });
            let expected: Vec<u64> = (0..100).map(|t| t * t).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_task_sets() {
        let out: Vec<u32> = run_indexed(Vec::<u32>::new(), 8, |_, t| t);
        assert!(out.is_empty());
        let out = run_indexed(vec![41u32], 8, |_, t| t + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = run_indexed(vec![1u32, 2, 3], 64, |_, t| t * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn tiny_bundles_stay_sequential() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PARALLEL_MIN_SAMPLES - 1), 1);
        assert_eq!(threads_for(PARALLEL_MIN_SAMPLES), configured_threads());
    }

    #[test]
    fn run_parts_fills_disjoint_chunks_in_order() {
        let mut out = vec![0u64; 100];
        for threads in [1, 2, 4, 7] {
            out.fill(0);
            let chunks: Vec<(usize, &mut [u64])> = out.chunks_mut(13).enumerate().collect();
            run_parts(chunks, threads, |i, (chunk_idx, chunk)| {
                assert_eq!(i, chunk_idx);
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = (chunk_idx * 1000 + k) as u64;
                }
            });
            let expected: Vec<u64> = (0..100).map(|i| (i / 13 * 1000 + i % 13) as u64).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn run_parts_handles_empty_and_single() {
        run_parts(Vec::<u8>::new(), 8, |_, _| panic!("no parts to run"));
        let hit = AtomicUsize::new(0);
        run_parts(vec![7u8], 8, |i, p| {
            assert_eq!((i, p), (0, 7));
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
