//! Helpers shared by the integration tests.
#![allow(dead_code)]

use fluctrace_benchmark::harness::{guarded, Ops};
use fluctrace_benchmark::inputs::Scale;
use fluctrace_benchmark::report::RunDoc;
use fluctrace_benchmark::run::{run_workload, RunArgs};
use fluctrace_benchmark::trace::Tracer;
use fluctrace_benchmark::workloads::{Ctx, Workload};
use std::path::PathBuf;

/// A scratch directory of this test binary, under Cargo's target dir.
pub fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// A `--quick` set-up context.
pub fn quick_ctx(seed: u64, name: &str) -> Ctx {
    Ctx {
        seed,
        scale: Scale { quick: true },
        threads: 2,
        out_dir: out_dir(name),
    }
}

/// One `--quick` run of `workload`, in this process.
pub fn quick_run(workload: &str, seed: u64, traced: bool, name: &str) -> RunDoc {
    run_workload(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.05,
        traced,
        quick: true,
        out_dir: out_dir(name),
    })
    .expect("quick run")
}

/// Carry `w` through one repetition, its invariants, its queries and
/// its verification, the way the runner does, and return the ledger.
pub fn exercise(w: &mut dyn Workload) -> Ops {
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(false);
    if ops
        .check_ok("repetition", guarded(|| w.rep(&mut tracer)))
        .is_some()
    {
        w.check_rep(&mut ops);
        w.finish(&mut ops);
        w.verify(&mut ops);
    }
    ops
}
