//! Shared machinery for the sample-interval experiment (Fig. 4):
//! run a kernel under PEBS or the software sampler at a given reset
//! value and measure the achieved mean sample interval.

use fluctrace_apps::{Kernel, KernelFuncs};
use fluctrace_cpu::{CoreConfig, Machine, MachineConfig, PebsConfig, SwSamplerConfig};
use fluctrace_sim::Freq;

/// Which sampling mechanism to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// Hardware PEBS (≈250 ns per sample, buffered).
    Pebs,
    /// perf-style software sampling (≈10 µs interrupt per sample).
    Software,
}

impl Sampler {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Sampler::Pebs => "PEBS",
            Sampler::Software => "perf",
        }
    }
}

/// Result of one (kernel, sampler, reset) measurement.
#[derive(Debug, Clone, Copy)]
pub struct IntervalMeasurement {
    /// Achieved mean sample interval, µs.
    pub mean_interval_us: f64,
    /// Samples taken.
    pub samples: u64,
    /// The ideal interval for this kernel and reset (reset ÷ µop rate), µs.
    pub ideal_us: f64,
}

/// Run `kernel` for `total_uops` under the given sampler and reset
/// value; returns the achieved mean sample interval.
pub fn measure_interval(
    kernel: Kernel,
    sampler: Sampler,
    reset: u64,
    total_uops: u64,
    seed: u64,
) -> IntervalMeasurement {
    measure_interval_capture(kernel, sampler, reset, total_uops, seed).0
}

/// [`measure_interval`], also returning the raw trace bundle (for
/// `--store` spill in the Fig. 4 entry).
pub fn measure_interval_capture(
    kernel: Kernel,
    sampler: Sampler,
    reset: u64,
    total_uops: u64,
    seed: u64,
) -> (IntervalMeasurement, fluctrace_cpu::TraceBundle) {
    let (symtab, funcs) = KernelFuncs::symtab();
    let mut core_cfg = CoreConfig::bare();
    match sampler {
        Sampler::Pebs => core_cfg.pebs = Some(PebsConfig::new(reset)),
        Sampler::Software => core_cfg.swsample = Some(SwSamplerConfig::new(reset)),
    }
    let mut machine = Machine::new(MachineConfig::new(1, core_cfg).with_seed(seed), symtab);
    let mut core = machine.take_core(0);
    kernel.run(&mut core, &funcs, total_uops, seed);
    core.finish();
    let bundle = core.take_bundle();
    let freq = core.freq();
    let samples = bundle.samples.len() as u64;
    let mean_interval_us = if samples >= 2 {
        let first = bundle.samples.first().unwrap().tsc;
        let last = bundle.samples.last().unwrap().tsc;
        freq.cycles_to_dur(last - first).as_us_f64() / (samples - 1) as f64
    } else {
        f64::NAN
    };
    let ideal_us = reset as f64 / kernel.uops_per_sec(Freq::ghz(3).as_hz()) * 1e6;
    let m = IntervalMeasurement {
        mean_interval_us,
        samples,
        ideal_us,
    };
    (m, bundle)
}

/// The reset-value sweep of Fig. 4 (powers of two, 2⁹..2¹⁶).
pub fn fig4_resets() -> Vec<u64> {
    (9..=16).map(|p| 1u64 << p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pebs_tracks_the_ideal_interval() {
        for kernel in Kernel::ALL {
            let m = measure_interval(kernel, Sampler::Pebs, 16_384, 10_000_000, 1);
            // PEBS achieved ≈ ideal + 250ns assist.
            assert!(
                (m.mean_interval_us - m.ideal_us - 0.25).abs() < 0.4,
                "{}: achieved {} vs ideal {}",
                kernel.label(),
                m.mean_interval_us,
                m.ideal_us
            );
        }
    }

    #[test]
    fn software_floors_near_10us() {
        // Even at an aggressive rate the software sampler cannot beat
        // its handler cost (the Fig. 4 flat line).
        for reset in [512u64, 1024, 4096] {
            let m = measure_interval(Kernel::Bzip2, Sampler::Software, reset, 5_000_000, 2);
            assert!(
                m.mean_interval_us >= 9.5,
                "reset {reset}: interval {} µs",
                m.mean_interval_us
            );
        }
    }

    #[test]
    fn pebs_reaches_sub_2us_intervals() {
        let m = measure_interval(Kernel::Bzip2, Sampler::Pebs, 1_024, 5_000_000, 3);
        assert!(m.mean_interval_us < 1.0, "{}", m.mean_interval_us);
        assert!(m.samples > 1000);
    }

    #[test]
    fn kernels_differ_at_the_same_reset() {
        let astar = measure_interval(Kernel::Astar, Sampler::Pebs, 8_192, 10_000_000, 4);
        let bzip2 = measure_interval(Kernel::Bzip2, Sampler::Pebs, 8_192, 10_000_000, 4);
        assert!(astar.mean_interval_us > bzip2.mean_interval_us * 1.3);
    }
}
