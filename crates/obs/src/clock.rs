//! Tick-based timekeeping behind a trait: deterministic logical ticks by
//! default, wall-clock only where a bench binary explicitly installs it.
//!
//! Everything downstream (span journaling, the serve shard's
//! utilisation counter) works in opaque *ticks* and differences them
//! TSC-style with `wrapping_sub`. Under the default [`TickClock`] a tick
//! is a logical event count, so library code and tests never observe
//! host time; under [`WallClock`] (binaries only) a tick is a nanosecond
//! since process start, so the span journal carries real durations.
//!
//! Snapshots stay byte-deterministic either way because the metrics
//! registry never records clock-derived values — ticks feed only the
//! flight recorder and the daemon's live utilisation gauge, neither of
//! which lands in figure artifacts or deterministic obs snapshots.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant; // lint:allow(clock-hygiene): the Clock impl is the one sanctioned wall-clock site

/// A monotonic tick source. Tick *values* are opaque; only differences
/// (taken with `wrapping_sub`) are meaningful, and the unit depends on
/// the implementation (logical events, nanoseconds, sim picoseconds).
pub trait Clock: Send + Sync {
    /// Current tick. Monotonically non-decreasing per clock.
    fn now_ticks(&self) -> u64;
}

/// Deterministic logical clock: every read returns the next integer.
/// This is the default process-wide clock, so library paths and tests
/// never depend on host time.
#[derive(Debug, Default)]
pub struct TickClock {
    // lint:allow(atomic-ordering): logical tick ticket — fetch_add hands out unique values; no data is published through it
    ticks: AtomicU64,
}

impl TickClock {
    /// A fresh logical clock starting at tick 0.
    pub const fn new() -> Self {
        TickClock {
            ticks: AtomicU64::new(0),
        }
    }
}

impl Clock for TickClock {
    fn now_ticks(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

/// Externally-driven clock for tests: reads return the value last set,
/// so span durations in a test are exact script-controlled constants.
#[derive(Debug, Default)]
pub struct ManualClock {
    ticks: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at tick 0.
    pub const fn new() -> Self {
        ManualClock {
            ticks: AtomicU64::new(0),
        }
    }

    /// Set the current tick.
    pub fn set(&self, ticks: u64) {
        self.ticks.store(ticks, Ordering::Relaxed);
    }

    /// Advance the current tick by `delta`.
    pub fn advance(&self, delta: u64) {
        self.ticks.fetch_add(delta, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }
}

/// Wall clock: one tick = one nanosecond since the clock was created.
/// The only implementation allowed to touch host time; bench binaries
/// install it process-wide via [`install_wall_clock`], everything else
/// must stay on ticks (enforced by the `clock-hygiene` lint rule).
#[derive(Debug)]
pub struct WallClock {
    start: Instant, // lint:allow(clock-hygiene): the Clock impl is the one sanctioned wall-clock site
}

impl WallClock {
    /// A wall clock anchored at the moment of creation.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(), // lint:allow(clock-hygiene): the Clock impl is the one sanctioned wall-clock site
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ticks(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

const MODE_TICK: u8 = 0;
const MODE_WALL: u8 = 1;

static MODE: AtomicU8 = AtomicU8::new(MODE_TICK);
static TICK: TickClock = TickClock::new();
static WALL: OnceLock<WallClock> = OnceLock::new();

/// Switch the process-wide clock to wall time (nanosecond ticks).
///
/// Bench binaries call this first thing in `main` so their stdout
/// throughput numbers and `BENCH_*.json` timings are real; library code
/// and tests never call it and stay on the deterministic [`TickClock`].
/// Idempotent; there is deliberately no way back — a process either
/// reports wall time or it does not.
pub fn install_wall_clock() {
    WALL.get_or_init(WallClock::new);
    MODE.store(MODE_WALL, Ordering::Release);
}

/// True once [`install_wall_clock`] has been called.
pub fn wall_clock_installed() -> bool {
    MODE.load(Ordering::Acquire) == MODE_WALL
}

/// Current tick of the process-wide clock. Difference two reads with
/// `wrapping_sub`; never interpret a single value.
pub fn now_ticks() -> u64 {
    match MODE.load(Ordering::Acquire) {
        MODE_WALL => match WALL.get() {
            Some(w) => w.now_ticks(),
            None => TICK.now_ticks(),
        },
        _ => TICK.now_ticks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_is_strictly_monotonic() {
        let c = TickClock::new();
        let a = c.now_ticks();
        let b = c.now_ticks();
        let d = c.now_ticks();
        assert_eq!(b.wrapping_sub(a), 1);
        assert_eq!(d.wrapping_sub(b), 1);
    }

    #[test]
    fn manual_clock_is_script_controlled() {
        let c = ManualClock::new();
        assert_eq!(c.now_ticks(), 0);
        c.set(100);
        assert_eq!(c.now_ticks(), 100);
        c.advance(17);
        assert_eq!(c.now_ticks(), 117);
    }

    #[test]
    fn global_clock_defaults_to_ticks() {
        // The process-wide default must be the deterministic tick clock;
        // installing the wall clock is a bin-only action that tests never
        // perform, so consecutive reads step by exactly one.
        if wall_clock_installed() {
            return; // another test in this process installed it
        }
        let a = now_ticks();
        let b = now_ticks();
        assert_eq!(b.wrapping_sub(a), 1);
    }

    #[test]
    fn wall_clock_advances() {
        let w = WallClock::new();
        let a = w.now_ticks();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = w.now_ticks();
        assert!(b.wrapping_sub(a) >= 1_000_000, "2ms sleep ≥ 1ms of ns");
    }
}
