//! Fig. 4 — achieved sample interval vs configured reset value, for
//! PEBS and a perf-like software sampler, on three SPEC-like kernels.
//!
//! Expected shape (paper): PEBS tracks the ideal line down to ~1 µs;
//! the software sampler flattens near 10 µs no matter how small the
//! reset value; kernels with different IPC sit on different lines.
//!
//! Figure assembly lives in [`fluctrace_bench::figures::fig4_data`]
//! (shared with the golden tests); this bin adds the table and the
//! shape notes.

use fluctrace_analysis::{assert_flattens, Table};
use fluctrace_apps::Kernel;
use fluctrace_bench::figures::fig4_data;
use fluctrace_bench::sampling_experiment::{measure_interval_capture, Sampler};
use fluctrace_bench::store_support;
use fluctrace_bench::{emit, Scale};

/// Reset value of the `--store` capture pass (one segment per
/// `(kernel, sampler)` pair — sweeping every reset would spill the
/// same streams at different densities for no extra coverage).
const STORE_CAPTURE_RESET: u64 = 4_096;

fn main() {
    fluctrace_bench::obs_support::init();
    let scale = Scale::from_env();
    let store = fluctrace_bench::obs_support::args();

    if let Some(path) = &store.from_store {
        match store_support::replay(path) {
            Ok(bundle) => println!(
                "replayed fig4 raw trace: {} samples, {} marks",
                bundle.samples.len(),
                bundle.marks.len()
            ),
            Err(e) => {
                eprintln!("fig4 --from-store: {e}");
                std::process::exit(1);
            }
        }
        fluctrace_bench::obs_support::finish();
        return;
    }

    println!("Fig. 4 — sample interval vs reset value (event: UOPS_RETIRED.ALL)\n");
    let data = fig4_data(scale);
    let mut tbl = Table::new(vec![
        "reset",
        "sampler",
        "kernel",
        "interval (us)",
        "ideal (us)",
        "samples",
    ]);
    // Results arrive in (sampler, kernel, reset) flattening order — the
    // same nested order the table prints.
    let mut next = data.results.iter();
    for sampler in [Sampler::Pebs, Sampler::Software] {
        for kernel in Kernel::ALL {
            for &reset in &data.resets {
                let m = next.next().expect("one result per sweep config");
                tbl.row(vec![
                    reset.to_string(),
                    sampler.label().to_string(),
                    kernel.label().to_string(),
                    format!("{:.3}", m.mean_interval_us),
                    format!("{:.3}", m.ideal_us),
                    m.samples.to_string(),
                ]);
            }
        }
    }
    println!("{tbl}");

    // Shape checks mirroring the paper's claims.
    let fig = &data.figure;
    let mut notes = Vec::new();
    for kernel in Kernel::ALL {
        let perf = fig
            .series(&format!("perf/{}", kernel.label()))
            .unwrap()
            .ys();
        // Software sampling floors: going from the smallest reset
        // upward barely changes the interval at the low end.
        let mut low_end: Vec<f64> = perf.iter().take(4).rev().cloned().collect();
        low_end.reverse();
        match assert_flattens("perf floor", &low_end, 0.15) {
            Ok(()) => notes.push(format!(
                "perf/{}: flat ~{:.1} us at high rates (paper: ~10 us)",
                kernel.label(),
                perf[0]
            )),
            Err(e) => notes.push(format!("perf/{}: NOT flat ({e})", kernel.label())),
        }
        let pebs = fig
            .series(&format!("PEBS/{}", kernel.label()))
            .unwrap()
            .ys();
        notes.push(format!(
            "PEBS/{}: {:.2} us at the smallest reset (paper: \"almost 1 us\")",
            kernel.label(),
            pebs[0]
        ));
    }
    println!();
    for n in notes {
        println!("  - {n}");
    }

    if let Some(path) = &store.store {
        let captures: Vec<_> = [Sampler::Pebs, Sampler::Software]
            .into_iter()
            .flat_map(|sampler| {
                Kernel::ALL.into_iter().map(move |kernel| {
                    measure_interval_capture(
                        kernel,
                        sampler,
                        STORE_CAPTURE_RESET,
                        scale.kernel_uops(),
                        7,
                    )
                    .1
                })
            })
            .collect();
        let refs: Vec<_> = captures.iter().collect();
        store_support::spill(path, &refs);
    }

    emit(&data.figure);
    fluctrace_bench::obs_support::finish();
}
