//! `obs_overhead` — the tracer traces itself.
//!
//! Times the Fig. 4 workload with observability recording enabled and
//! disabled, fits the instrumented-vs-baseline slope with the same
//! through-origin least-squares machinery the paper's overhead model
//! uses ([`fluctrace_core::fit_instrumentation`]), and fails (exit 1)
//! if the fitted overhead exceeds the budget. CI runs this as the obs
//! self-overhead gate.
//!
//! Pairs are interleaved (off, on, off, on, …) so slow drift — turbo
//! state, cache warmth — lands on both sides of the fit instead of
//! biasing one.

use fluctrace_bench::{figures, Scale};
use fluctrace_core::fit_instrumentation;
use std::time::Instant; // lint:allow(clock-hygiene): the obs budget gate times instrumented against uninstrumented runs; readings reach stdout only

/// Maximum tolerated obs overhead on the fig4 workload (fraction).
const BUDGET: f64 = 0.03;

fn main() {
    fluctrace_bench::obs_support::init();
    let scale = Scale::from_env();
    let reps: usize = std::env::var("FLUCTRACE_OVERHEAD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    println!("obs self-overhead gate — fig4 workload, {reps} interleaved pairs\n");
    let fig4 = figures::entry("fig4").expect("fig4 is a registry entry");
    let run_fig4 = || (fig4.run)(scale, false);

    // Warm caches and the thread pool before any timed run.
    let _ = run_fig4();

    let mut pairs = Vec::with_capacity(reps);
    for rep in 0..reps {
        fluctrace_obs::set_recording(false);
        let t = Instant::now(); // lint:allow(clock-hygiene): the obs budget gate times instrumented against uninstrumented runs; readings reach stdout only
        let _ = run_fig4();
        let base_s = t.elapsed().as_secs_f64();

        fluctrace_obs::set_recording(true);
        let t = Instant::now(); // lint:allow(clock-hygiene): the obs budget gate times instrumented against uninstrumented runs; readings reach stdout only
        let _ = run_fig4();
        let instrumented_s = t.elapsed().as_secs_f64();

        println!(
            "  pair {rep}: baseline {:.1} ms, instrumented {:.1} ms ({:+.2}%)",
            base_s * 1e3,
            instrumented_s * 1e3,
            (instrumented_s / base_s - 1.0) * 100.0
        );
        pairs.push((base_s, instrumented_s));
    }
    fluctrace_obs::set_recording(true);

    let fit = fit_instrumentation(&pairs);
    println!(
        "\nfitted slope {:.4} -> obs overhead {:.2}% (budget {:.0}%)",
        fit.slope,
        fit.overhead_fraction * 100.0,
        BUDGET * 100.0
    );
    if fit.overhead_fraction > BUDGET {
        eprintln!("FAILED: obs overhead exceeds the budget");
        std::process::exit(1);
    }
    println!("obs overhead within budget");
}
