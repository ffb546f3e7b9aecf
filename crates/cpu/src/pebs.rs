//! The PEBS (Precise Event Based Sampling) engine model.
//!
//! Mechanics mirror §III.B of the paper:
//!
//! * a per-core counter register is initialised to `-R` (the *reset
//!   value*) for one configured hardware event;
//! * every occurrence of the event decrements the distance to overflow;
//!   on overflow the CPU deposits a record — general-purpose registers,
//!   instruction pointer, hardware timestamp — into the **PEBS buffer**
//!   and re-arms the counter to `-R`;
//! * taking one sample costs ≈250 ns of execution dilation (the
//!   microcode assist measured in the authors' prior work \[6\]);
//! * when (and only when) the buffer becomes full, the CPU raises an
//!   interrupt; the OS handler hands the buffer to a helper that writes
//!   it to storage. The paper's prototype does this synchronously to an
//!   SSD; double buffering (re-arming PEBS immediately) is the
//!   optimisation §III.E leaves for future work — both modes are
//!   implemented here and compared by an `acl_experiment` test.

use crate::pmu::HwEvent;
use crate::storage::StorageSink;
use crate::trace::{PebsRecord, PEBS_RECORD_BYTES};
use fluctrace_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What happens when the PEBS buffer fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DrainMode {
    /// The interrupt handler blocks the core until the buffer is safely
    /// on storage, then re-enables PEBS (the paper's prototype).
    Synchronous,
    /// The handler swaps in a second buffer and returns; the write
    /// proceeds in the background (§III.E's suggested optimisation).
    DoubleBuffered,
}

/// PEBS configuration for one core.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PebsConfig {
    /// The hardware event to count.
    pub event: HwEvent,
    /// Reset value `R`: one sample per `R` event occurrences.
    pub reset: u64,
    /// Buffer capacity in records before the overflow interrupt fires.
    pub buffer_records: usize,
    /// Execution dilation per sample (the microcode assist).
    pub assist: SimDuration,
    /// Fixed cost of the buffer-full interrupt handler.
    pub interrupt_handler: SimDuration,
    /// How the full buffer reaches storage.
    pub drain: DrainMode,
}

impl PebsConfig {
    /// Paper-faithful defaults: `UOPS_RETIRED.ALL`, 250 ns assist, 4 µs
    /// kernel handler, synchronous SSD drain, buffer of 1024 records.
    pub fn new(reset: u64) -> Self {
        PebsConfig {
            event: HwEvent::UopsRetired,
            reset,
            buffer_records: 1024,
            assist: SimDuration::from_ns(250),
            interrupt_handler: SimDuration::from_us(4),
            drain: DrainMode::Synchronous,
        }
    }

    /// Same but sampling a different hardware event (§V.D).
    pub fn for_event(event: HwEvent, reset: u64) -> Self {
        PebsConfig {
            event,
            ..PebsConfig::new(reset)
        }
    }
}

/// Counters describing what the engine did.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PebsStats {
    /// Samples deposited.
    pub samples: u64,
    /// Buffer-full interrupts taken.
    pub interrupts: u64,
    /// Total execution dilation from assists.
    pub assist_time: SimDuration,
    /// Total core stall from interrupt handling and synchronous drains.
    pub interrupt_time: SimDuration,
    /// Bytes written to the sink.
    pub bytes: u64,
}

/// Per-core PEBS engine state.
#[derive(Debug, Clone)]
pub struct PebsEngine {
    config: PebsConfig,
    /// Event occurrences remaining until the next overflow.
    remaining: u64,
    /// Records currently in the hardware buffer (not yet drained).
    buffered: usize,
    /// Archive of every record for the offline integration step.
    archive: Vec<PebsRecord>,
    stats: PebsStats,
    enabled: bool,
}

impl PebsEngine {
    /// Create an engine; the counter starts a full period away, as if
    /// the kernel module had just armed it.
    pub fn new(config: PebsConfig) -> Self {
        assert!(config.reset > 0, "reset value must be positive");
        assert!(config.buffer_records > 0, "empty PEBS buffer");
        PebsEngine {
            remaining: config.reset,
            buffered: 0,
            archive: Vec::new(),
            stats: PebsStats::default(),
            config,
            enabled: true,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PebsConfig {
        &self.config
    }

    /// Enable/disable sampling (the kernel module disables PEBS while
    /// the helper copies the buffer in synchronous mode; we expose the
    /// switch for tests and for modelling un-instrumented phases).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether sampling is currently armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Advance the counter over `n_events` occurrences of the configured
    /// event and return the 1-based offsets (in event occurrences, within
    /// this batch) at which samples trigger.
    ///
    /// Pure counter arithmetic: the caller (the core) converts offsets to
    /// timestamps and instruction pointers because only it knows the
    /// segment's timing.
    pub fn overflow_offsets(&mut self, n_events: u64) -> Vec<u64> {
        if !self.enabled || n_events == 0 {
            // Events still count against the period even when disabled?
            // Real PEBS keeps counting but does not deposit; we model the
            // disabled window as not counting to keep intervals clean.
            return Vec::new();
        }
        let mut offsets = Vec::new();
        let mut next = self.remaining;
        while next <= n_events {
            offsets.push(next);
            next += self.config.reset;
        }
        self.remaining = next - n_events;
        offsets
    }

    /// Deposit one sample record taken at `now`; returns the execution
    /// dilation the core must absorb (assist, plus interrupt handling and
    /// drain stall when this record filled the buffer).
    pub fn deposit(
        &mut self,
        record: PebsRecord,
        now: SimTime,
        sink: &mut StorageSink,
    ) -> SimDuration {
        self.archive.push(record);
        self.stats.samples += 1;
        self.stats.assist_time += self.config.assist;
        self.buffered += 1;
        let mut cost = self.config.assist;
        if self.buffered >= self.config.buffer_records {
            cost += self.drain(now + cost, sink);
        }
        cost
    }

    /// Force a drain of whatever is buffered (used at run teardown).
    /// Returns the stall imposed on the core.
    pub fn flush(&mut self, now: SimTime, sink: &mut StorageSink) -> SimDuration {
        if self.buffered == 0 {
            return SimDuration::ZERO;
        }
        self.drain(now, sink)
    }

    fn drain(&mut self, now: SimTime, sink: &mut StorageSink) -> SimDuration {
        let bytes = self.buffered as u64 * PEBS_RECORD_BYTES;
        self.buffered = 0;
        self.stats.interrupts += 1;
        self.stats.bytes += bytes;
        let handler_done = now + self.config.interrupt_handler;
        let write_done = sink.write(handler_done, bytes);
        let stall = match self.config.drain {
            DrainMode::Synchronous => write_done.since(now),
            DrainMode::DoubleBuffered => self.config.interrupt_handler,
        };
        self.stats.interrupt_time += stall;
        stall
    }

    /// Statistics so far.
    pub fn stats(&self) -> PebsStats {
        self.stats
    }

    /// Take the archived samples (drains the archive).
    pub fn take_archive(&mut self) -> Vec<PebsRecord> {
        std::mem::take(&mut self.archive)
    }

    /// Records currently waiting in the hardware buffer.
    pub fn buffered(&self) -> usize {
        self.buffered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::trace::{CoreId, NO_TAG};

    fn rec(tsc: u64) -> PebsRecord {
        PebsRecord {
            core: CoreId(0),
            tsc,
            ip: VirtAddr(0x400000),
            r13: NO_TAG,
            event: HwEvent::UopsRetired,
        }
    }

    #[test]
    fn overflow_offsets_every_reset() {
        let mut e = PebsEngine::new(PebsConfig::new(100));
        assert_eq!(e.overflow_offsets(250), vec![100, 200]);
        // 50 events consumed of the next period.
        assert_eq!(e.overflow_offsets(50), vec![50]);
        assert_eq!(e.overflow_offsets(99), Vec::<u64>::new());
        assert_eq!(e.overflow_offsets(1), vec![1]);
    }

    #[test]
    fn overflow_offsets_exact_boundary() {
        let mut e = PebsEngine::new(PebsConfig::new(100));
        assert_eq!(e.overflow_offsets(100), vec![100]);
        assert_eq!(e.overflow_offsets(100), vec![100]);
    }

    #[test]
    fn disabled_engine_takes_no_samples() {
        let mut e = PebsEngine::new(PebsConfig::new(10));
        e.set_enabled(false);
        assert!(e.overflow_offsets(1000).is_empty());
        e.set_enabled(true);
        assert_eq!(e.overflow_offsets(10), vec![10]);
    }

    #[test]
    fn deposit_costs_one_assist_until_buffer_full() {
        let mut cfg = PebsConfig::new(100);
        cfg.buffer_records = 3;
        cfg.drain = DrainMode::DoubleBuffered;
        let mut e = PebsEngine::new(cfg);
        let mut sink = StorageSink::memory();
        let now = SimTime::ZERO;
        assert_eq!(e.deposit(rec(1), now, &mut sink), cfg.assist);
        assert_eq!(e.deposit(rec(2), now, &mut sink), cfg.assist);
        // Third record fills the buffer: assist + handler.
        let cost = e.deposit(rec(3), now, &mut sink);
        assert_eq!(cost, cfg.assist + cfg.interrupt_handler);
        let s = e.stats();
        assert_eq!(s.samples, 3);
        assert_eq!(s.interrupts, 1);
        assert_eq!(s.bytes, 3 * PEBS_RECORD_BYTES);
        assert_eq!(e.buffered(), 0);
    }

    #[test]
    fn synchronous_drain_waits_for_storage() {
        let mut cfg = PebsConfig::new(100);
        cfg.buffer_records = 1;
        cfg.drain = DrainMode::Synchronous;
        // 96 bytes at 96 MB/s takes exactly 1 µs.
        let mut sink = StorageSink::ssd(96_000_000);
        let mut e = PebsEngine::new(cfg);
        let cost = e.deposit(rec(1), SimTime::ZERO, &mut sink);
        assert_eq!(
            cost,
            cfg.assist + cfg.interrupt_handler + SimDuration::from_us(1)
        );
    }

    #[test]
    fn double_buffered_drain_hides_storage_latency() {
        let mut cfg = PebsConfig::new(100);
        cfg.buffer_records = 1;
        cfg.drain = DrainMode::DoubleBuffered;
        let mut sink = StorageSink::ssd(96_000_000);
        let mut e = PebsEngine::new(cfg);
        let cost = e.deposit(rec(1), SimTime::ZERO, &mut sink);
        assert_eq!(cost, cfg.assist + cfg.interrupt_handler);
        // The write still happened.
        assert_eq!(sink.bytes_written(), PEBS_RECORD_BYTES);
    }

    #[test]
    fn flush_drains_partial_buffer() {
        let mut cfg = PebsConfig::new(100);
        cfg.buffer_records = 10;
        let mut e = PebsEngine::new(cfg);
        let mut sink = StorageSink::memory();
        e.deposit(rec(1), SimTime::ZERO, &mut sink);
        e.deposit(rec(2), SimTime::ZERO, &mut sink);
        assert_eq!(e.buffered(), 2);
        let stall = e.flush(SimTime::ZERO, &mut sink);
        assert!(stall > SimDuration::ZERO);
        assert_eq!(e.buffered(), 0);
        assert_eq!(sink.bytes_written(), 2 * PEBS_RECORD_BYTES);
        // Idempotent.
        assert_eq!(e.flush(SimTime::ZERO, &mut sink), SimDuration::ZERO);
    }

    #[test]
    fn archive_keeps_all_samples() {
        let mut e = PebsEngine::new(PebsConfig::new(100));
        let mut sink = StorageSink::memory();
        for i in 0..5 {
            e.deposit(rec(i), SimTime::ZERO, &mut sink);
        }
        let archive = e.take_archive();
        assert_eq!(archive.len(), 5);
        assert!(e.take_archive().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_sample_count_matches_event_count(
            reset in 1u64..10_000,
            batches in proptest::collection::vec(0u64..50_000, 1..50),
        ) {
            let mut e = PebsEngine::new(PebsConfig::new(reset));
            let mut total_offsets = 0u64;
            let mut total_events = 0u64;
            for &n in &batches {
                total_offsets += e.overflow_offsets(n).len() as u64;
                total_events += n;
            }
            // Exactly one sample per full reset period of events.
            proptest::prop_assert_eq!(total_offsets, total_events / reset);
        }
    }
}
