//! Entries over the sampling kernels: Fig. 4 and the § V.C reset-value
//! trade-off.

use super::Report;
use crate::sampling_experiment::{
    fig4_resets, measure_interval, measure_interval_capture, Sampler,
};
use crate::{run_sweep, Scale};
use fluctrace_analysis::{assert_flattens, linear_fit, Figure, Series, Table};
use fluctrace_apps::Kernel;
use fluctrace_core::OverheadModel;

/// Reset value of the `keep_bundles` capture pass (one bundle per
/// `(sampler, kernel)` pair — sweeping every reset would spill the same
/// streams at different densities for no extra coverage).
const STORE_CAPTURE_RESET: u64 = 4_096;

/// Fig. 4 — achieved sample interval vs configured reset value, for
/// PEBS and a perf-like software sampler, on three SPEC-like kernels.
///
/// Expected shape (paper): PEBS tracks the ideal line down to ~1 µs;
/// the software sampler flattens near 10 µs no matter how small the
/// reset value; kernels with different IPC sit on different lines.
pub(super) fn fig4(scale: Scale, keep_bundles: bool) -> Report {
    let mut r = Report::default();
    let uops = scale.kernel_uops();
    let resets = fig4_resets();
    say!(
        r,
        "Fig. 4 — sample interval vs reset value (event: UOPS_RETIRED.ALL)\n"
    );
    // Every (sampler, kernel, reset) measurement seeds its own machine,
    // so the whole grid fans out over the worker pool and comes back in
    // input order.
    let pairs: Vec<(Sampler, Kernel)> = [Sampler::Pebs, Sampler::Software]
        .into_iter()
        .flat_map(|sampler| Kernel::ALL.map(|kernel| (sampler, kernel)))
        .collect();
    let configs = pairs
        .iter()
        .flat_map(|&(sampler, kernel)| resets.iter().map(move |&reset| (sampler, kernel, reset)))
        .collect();
    let results = run_sweep(configs, |(sampler, kernel, reset)| {
        measure_interval(kernel, sampler, reset, uops, 7)
    });

    let mut fig = Figure::new(
        "fig4",
        "Achieved sample interval vs reset value",
        "reset value",
        "sample interval (us)",
    );
    let mut tbl = Table::new(vec![
        "reset",
        "sampler",
        "kernel",
        "interval (us)",
        "ideal (us)",
        "samples",
    ]);
    for (&(sampler, kernel), row) in pairs.iter().zip(results.chunks(resets.len())) {
        let mut series = Series::new(format!("{}/{}", sampler.label(), kernel.label()));
        let mut ideal = Series::new(format!("ideal/{}", kernel.label()));
        for (&reset, m) in resets.iter().zip(row) {
            series.push(reset as f64, m.mean_interval_us);
            ideal.push(reset as f64, m.ideal_us);
            tbl.row(vec![
                reset.to_string(),
                sampler.label().to_string(),
                kernel.label().to_string(),
                format!("{:.3}", m.mean_interval_us),
                format!("{:.3}", m.ideal_us),
                m.samples.to_string(),
            ]);
        }
        if sampler == Sampler::Pebs {
            fig.add(ideal);
        }
        fig.add(series);
    }
    say!(r, "{tbl}");

    // Shape checks mirroring the paper's claims.
    say!(r);
    for kernel in Kernel::ALL {
        let curve = |sampler: Sampler| {
            let name = format!("{}/{}", sampler.label(), kernel.label());
            fig.series(&name)
                .map(Series::ys)
                .filter(|ys| !ys.is_empty())
        };
        let (Some(perf), Some(pebs)) = (curve(Sampler::Software), curve(Sampler::Pebs)) else {
            r.fail(format!("no PEBS or perf curve for {}", kernel.label()));
            continue;
        };
        // Software sampling floors: going from the smallest reset
        // upward barely changes the interval at the low end.
        match assert_flattens("perf floor", &perf[..perf.len().min(4)], 0.15) {
            Ok(()) => say!(
                r,
                "  - perf/{}: flat ~{:.1} us at high rates (paper: ~10 us)",
                kernel.label(),
                perf[0]
            ),
            Err(e) => say!(r, "  - perf/{}: NOT flat ({e})", kernel.label()),
        }
        say!(
            r,
            "  - PEBS/{}: {:.2} us at the smallest reset (paper: \"almost 1 us\")",
            kernel.label(),
            pebs[0]
        );
    }

    r.figure(&fig);
    if keep_bundles {
        r.bundles = pairs
            .iter()
            .map(|&(sampler, kernel)| {
                measure_interval_capture(kernel, sampler, STORE_CAPTURE_RESET, uops, 7).1
            })
            .collect();
    }
    r
}

/// § V.C — the reset-value trade-off: (1) sample interval is linear in
/// the reset value (strong linearity, small deviations), (2) overhead
/// is predictable from the number of samples, so a reset value can be
/// chosen for an overhead budget.
pub(super) fn tradeoff(scale: Scale, _: bool) -> Report {
    let mut r = Report::default();
    let uops = scale.kernel_uops();
    say!(r, "§V.C — choosing reset values\n");

    // (1) Linearity of interval vs reset value, per kernel.
    say!(r, "(1) sample interval vs reset value is linear:");
    let mut t = Table::new(vec!["kernel", "slope (us/reset)", "intercept (us)", "R^2"]);
    for kernel in Kernel::ALL {
        let points: Vec<(f64, f64)> = (10..=15)
            .map(|p| {
                let reset = 1u64 << p;
                let m = measure_interval(kernel, Sampler::Pebs, reset, uops, 11);
                (reset as f64, m.mean_interval_us)
            })
            .collect();
        let fit = linear_fit(&points);
        t.row(vec![
            kernel.label().to_string(),
            format!("{:.3e}", fit.slope),
            format!("{:.3}", fit.intercept),
            format!("{:.5}", fit.r_squared),
        ]);
    }
    say!(r, "{t}");
    say!(
        r,
        "(paper: \"the sample intervals have a strong linearity with the reset values\")\n"
    );

    // (2) Overhead predictability → pick a reset for a budget.
    say!(
        r,
        "(2) reset value for a given overhead budget (ACL-like core, 4.5 G uops/s):"
    );
    let model = OverheadModel::new(4.5e9);
    let mut t2 = Table::new(vec![
        "overhead budget",
        "min reset value",
        "sample interval",
    ]);
    for budget in [0.20, 0.10, 0.05, 0.02, 0.01] {
        let reset = model.min_reset_for_overhead(budget);
        t2.row(vec![
            format!("{:.0}%", budget * 100.0),
            reset.to_string(),
            format!("{}", model.sample_interval(reset)),
        ]);
    }
    say!(r, "{t2}");
    r
}
