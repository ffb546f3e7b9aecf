//! `fluctrace-serve` — the always-on face of the tracer.
//!
//! Every other binary in this workspace runs one experiment and exits;
//! the paper's production premise — high-throughput software serving
//! continuous traffic — demands a tracer that *stays up*. This crate
//! runs N independent shard pipelines × M simulated cores under
//! continuous seeded traffic for unbounded wall-time, each shard
//! feeding a [`fluctrace_core::WindowedIntegrator`] so memory stays
//! bounded no matter how long the stream runs, and exposes the live
//! state over a local socket:
//!
//! * a **line-delimited request protocol** (`snapshot`, `windows <k>`,
//!   `episodes`, `loss`, `table`, `drained`, `quiesce`) returning
//!   canonical JSON through the obs exporter, and
//! * a **Prometheus `/metrics` endpoint** on the same listener serving
//!   the full pinned obs catalog plus the `serve.*` gauges.
//!
//! Overload composes the online tracer's two policies per shard:
//! blocking back-pressure (or counted drops) on the bounded channel,
//! and the adaptive effective-reset thinning policy driven by channel
//! occupancy. Graceful shutdown (`quiesce`) stops the generators,
//! drains every shard to the last batch, and finishes the stream — so
//! the final cumulative table is byte-identical to the equivalent
//! batch run on the same seed (lossless mode: blocking submission,
//! adaptive thinning off). See `SERVE.md` for the protocol grammar and
//! the carry-forward contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod proto;
pub mod shard;
pub mod traffic;

pub use daemon::{query, Daemon};
pub use shard::{ShardCounters, ShardHandle};
pub use traffic::{build_symtab, TrafficGen};

use fluctrace_core::online::AdaptiveConfig;
use fluctrace_core::WindowConfig;
use fluctrace_sim::Freq;

/// Configuration of one daemon instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Independent shard pipelines (each its own generator, channel,
    /// worker and windowed integrator).
    pub shards: usize,
    /// Simulated cores per shard generating interleaved item streams.
    pub cores: u32,
    /// Seed of the traffic; shard `i` forks stream `seed + i`.
    pub seed: u64,
    /// Windowed-integration parameters (window size, retention,
    /// divergence, cumulative mode). `window.freq` is the TSC
    /// frequency used everywhere.
    pub window: WindowConfig,
    /// Complete items each core contributes per generated batch.
    pub items_per_batch: u64,
    /// PEBS samples per item (before spikes and thinning).
    pub samples_per_item: u64,
    /// Functions in the synthetic symbol table.
    pub funcs: usize,
    /// Every `spike_every`-th item per core runs `spike_scale`× slower
    /// (drives anomaly episodes); 0 disables spikes.
    pub spike_every: u64,
    /// Slowdown factor of spiked items.
    pub spike_scale: u64,
    /// Batches each shard's generator produces before retiring; `None`
    /// runs unbounded until `quiesce`.
    pub max_batches: Option<u64>,
    /// Bounded channel capacity between generator and worker.
    pub channel_capacity: usize,
    /// Adaptive effective-reset policy (occupancy-driven thinning).
    /// Must be [`AdaptiveConfig::disabled`] for drain-equality runs.
    pub adaptive: AdaptiveConfig,
    /// `true`: block on a full channel (lossless back-pressure).
    /// `false`: drop whole batches with exact loss accounting.
    pub blocking: bool,
    /// Per-core capacity of each shard's `ring_empty` wait log.
    pub wait_capacity: usize,
}

impl ServeConfig {
    /// Defaults: 2 shards × 4 cores, 32-item windows retaining 8,
    /// blocking submission, thinning off, bounded 64-batch run (about
    /// 16 windows per shard) — the lossless configuration whose drained
    /// cumulative table equals the batch run.
    pub fn new(seed: u64) -> Self {
        let mut window = WindowConfig::new(Freq::ghz(3));
        window.window_items = 32;
        window.max_windows = 8;
        ServeConfig {
            shards: 2,
            cores: 4,
            seed,
            window,
            items_per_batch: 4,
            samples_per_item: 8,
            funcs: 12,
            spike_every: 97,
            spike_scale: 12,
            max_batches: Some(64),
            channel_capacity: 8,
            adaptive: AdaptiveConfig::disabled(),
            blocking: true,
            wait_capacity: 1 << 12,
        }
    }
}
