//! The measuring side of the benchmark: operation accounting, process
//! CPU and memory readings from `/proc`, the repetition loop, order
//! statistics and the input digest. Std only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Attempted and failed operations of one run. A repetition, a query
/// and a named verification check are one operation each; `failed ÷
/// attempted` is the run's `failed_frac`.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `ok == false` records a failure under `name`.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(name);
        }
    }

    /// Count one operation that yields a value; an `Err` is a failure.
    pub fn check_ok<T>(&mut self, name: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(&format!("{name}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, line: &str) {
        self.failed += 1;
        // The first few failures explain a run; the count carries the rest.
        if self.failures.len() < 32 {
            self.failures.push(line.to_string());
        }
    }

    /// Failed share of the attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Run one call into the program under test. A panic inside it becomes
/// an `Err`, so a crashing layer is a failed operation of the
/// benchmark, never a crashed benchmark.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Process-wide CPU time `(user, system)` in nanoseconds, from
/// `/proc/self/stat` (all threads, exited ones included).
pub fn cpu_times_ns() -> (u64, u64) {
    // USER_HZ is 100 on every Linux ABI Rust supports.
    const NS_PER_TICK: u64 = 10_000_000;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields are counted after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let utime = next();
    let stime = next();
    (utime * NS_PER_TICK, stime * NS_PER_TICK)
}

/// Peak resident set (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Order statistics of a set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    /// Number of timings.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile that still has ten timings beyond it (the
    /// median itself below twenty timings).
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and tail of `xs`.
pub fn dist(xs: &[f64]) -> Dist {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = median(&v);
    let (tail, tail_pct) = if n >= 20 {
        (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (p50, 50.0)
    };
    Dist {
        n,
        p50,
        tail,
        tail_pct,
    }
}

/// The value `pct` percent of the way through sorted `xs`; 0 when empty.
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = (v.len() * pct / 100).min(v.len().saturating_sub(1));
    v.get(i).copied().unwrap_or(0.0)
}

/// What the repetition loop measured.
#[derive(Debug, Clone, Default)]
pub struct RepTimes {
    /// The discarded first repetition, ns (0 if it failed).
    pub cold_ns: u64,
    /// Timed repetitions, ns each.
    pub reps_ns: Vec<u64>,
    /// Process CPU `(user, system)` spent over the timed repetitions, ns.
    pub cpu_ns: (u64, u64),
}

/// How long the repetition loop runs.
#[derive(Debug, Clone, Copy)]
pub struct RepPlan {
    /// Timed repetitions required.
    pub min_reps: usize,
    /// Measured time required, seconds.
    pub min_seconds: f64,
}

/// What the repetition loop drives.
pub trait Rep {
    /// Run repetition `id` (0 is the warm-up) and return the
    /// nanoseconds of its timed region.
    fn rep(&mut self, id: u32) -> Result<u64, String>;

    /// Untimed, after every successful repetition: cheap invariants.
    fn after(&mut self, ops: &mut Ops);
}

/// One discarded warm-up repetition, then timed repetitions until both
/// `plan.min_reps` and `plan.min_seconds` are met. A repetition that
/// errs or panics is a failed operation and contributes no timing.
pub fn run_reps(plan: RepPlan, ops: &mut Ops, r: &mut dyn Rep) -> RepTimes {
    let mut out = RepTimes::default();
    if let Some(ns) = ops.check_ok("warm-up repetition", guarded(|| r.rep(0))) {
        out.cold_ns = ns;
        r.after(ops);
    }
    let cpu0 = cpu_times_ns();
    let mut measured = 0u64;
    let mut id = 1u32;
    // A workload that fails every repetition must still terminate.
    let max_attempts = plan.min_reps.max(1) * 4 + 1024;
    let wall = Instant::now();
    while out.reps_ns.len() < plan.min_reps || (measured as f64) < plan.min_seconds * 1e9 {
        if id as usize > max_attempts && wall.elapsed().as_secs_f64() > plan.min_seconds {
            break;
        }
        if let Some(ns) = ops.check_ok("repetition", guarded(|| r.rep(id))) {
            out.reps_ns.push(ns);
            measured += ns;
            r.after(ops);
        }
        id += 1;
    }
    let cpu1 = cpu_times_ns();
    out.cpu_ns = (cpu1.0.saturating_sub(cpu0.0), cpu1.1.saturating_sub(cpu0.1));
    out
}

/// Time `f` in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos() as u64)
}

/// FNV-1a over 64-bit words: the digest that proves two runs measured
/// the same input.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a byte string in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake<F: FnMut(u32) -> Result<u64, String>>(F);

    impl<F: FnMut(u32) -> Result<u64, String>> Rep for Fake<F> {
        fn rep(&mut self, id: u32) -> Result<u64, String> {
            (self.0)(id)
        }

        fn after(&mut self, _ops: &mut Ops) {}
    }

    #[test]
    fn tail_needs_ten_timings_beyond_it() {
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let d = dist(&xs);
        assert_eq!((d.p50, d.tail, d.tail_pct), (6.5, 6.5, 50.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = dist(&xs);
        assert_eq!((d.p50, d.tail, d.tail_pct), (50.5, 90.0, 90.0));
    }

    #[test]
    fn a_panicking_repetition_is_a_failed_operation() {
        let mut ops = Ops::default();
        let plan = RepPlan {
            min_reps: 3,
            min_seconds: 0.0,
        };
        let times = run_reps(
            plan,
            &mut ops,
            &mut Fake(|id| match id {
                1 => panic!("layer blew up"),
                2 => Err("layer returned an error".to_string()),
                _ => Ok(1_000),
            }),
        );
        assert_eq!(times.reps_ns.len(), 3);
        assert_eq!(ops.failed, 2);
        assert!(ops.failed_frac() > 0.0);
        assert!(ops.failures[0].contains("layer blew up"));
    }

    #[test]
    fn a_workload_that_always_fails_terminates() {
        let mut ops = Ops::default();
        let plan = RepPlan {
            min_reps: 2,
            min_seconds: 0.0,
        };
        let times = run_reps(plan, &mut ops, &mut Fake(|_| Err("nope".to_string())));
        assert!(times.reps_ns.is_empty());
        assert_eq!(ops.failed, ops.attempted);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(31).wrapping_add(7);
        }
        std::hint::black_box(x);
        let (u, s) = cpu_times_ns();
        assert!(u + s > 0);
    }
}
