//! Set-associative LRU cache model.
//!
//! Used for two things:
//!
//! 1. adding data-dependent stall time to execution segments, so that
//!    cache warmth shows up as a *performance fluctuation* exactly like
//!    the paper's motivating examples, and
//! 2. feeding the `CacheMisses` PMU event, which the §V.D extension
//!    samples with PEBS to obtain per-item per-function miss counts.

use serde::{Deserialize, Serialize};

/// Configuration of a cache level.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Extra core cycles stalled per miss.
    pub miss_penalty_cycles: u64,
}

impl CacheConfig {
    /// A small L2-like default: 1024 sets × 8 ways × 64 B = 512 KiB,
    /// 40-cycle miss penalty.
    pub fn default_l2() -> Self {
        CacheConfig {
            sets: 1024,
            ways: 8,
            line_bytes: 64,
            miss_penalty_cycles: 40,
        }
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are stored per set in recency order (index 0 = MRU), which makes
/// the model simple, deterministic and fast for the small associativities
/// real caches use.
#[derive(Debug, Clone)]
pub struct CacheModel {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags, most-recently-used first.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl CacheModel {
    /// Build a cache from its configuration.
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or if
    /// `ways == 0`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "zero-way cache");
        CacheModel {
            set_mask: config.sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: vec![Vec::with_capacity(config.ways); config.sets],
            stats: CacheStats::default(),
            config,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access one byte address; returns `true` on hit. Misses insert the
    /// line (allocate-on-miss) evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            // Move to MRU position.
            let tag = set.remove(pos);
            set.insert(0, tag);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, line);
            self.stats.misses += 1;
            false
        }
    }

    /// Access a contiguous range of `bytes` starting at `addr`; returns
    /// the number of line misses.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        let mut misses = 0;
        for line in first..=last {
            if !self.access(line << self.line_shift) {
                misses += 1;
            }
        }
        misses
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate all lines (keeps statistics).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// True if the line containing `addr` is currently resident.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        self.sets[set_idx].contains(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheModel {
        // 4 sets × 2 ways × 64 B lines.
        CacheModel::new(CacheConfig {
            sets: 4,
            ways: 2,
            line_bytes: 64,
            miss_penalty_cycles: 40,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
        assert!(!c.access(0x1040), "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set index = line & 3):
        // lines 0, 4, 8 all map to set 0.
        let a = 0u64;
        let b = 4u64 * 64;
        let d = 8u64 * 64;
        c.access(a);
        c.access(b);
        // Touch a so b becomes LRU.
        c.access(a);
        // Insert d: evicts b.
        c.access(d);
        assert!(c.probe(a));
        assert!(c.probe(d));
        assert!(!c.probe(b), "LRU way evicted");
    }

    #[test]
    fn access_range_counts_line_misses() {
        let mut c = tiny();
        // 200 bytes starting at 0 touches lines 0..=3 → 4 misses.
        assert_eq!(c.access_range(0, 200), 4);
        // Same range again: all hits.
        assert_eq!(c.access_range(0, 200), 0);
        assert_eq!(c.access_range(0, 0), 0);
        // Exactly one line.
        assert_eq!(c.access_range(64 * 100, 64), 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x40);
        assert!(c.probe(0x40));
        c.flush();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40), "miss after flush");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = CacheModel::new(CacheConfig::default_l2());
        c.access(0);
        c.access(0);
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny(); // 512 B capacity
                            // Stream 4 KiB twice; second pass should still miss heavily.
        for pass in 0..2 {
            let before = c.stats().misses;
            for addr in (0..4096u64).step_by(64) {
                c.access(addr);
            }
            let misses = c.stats().misses - before;
            assert_eq!(misses, 64, "pass {pass}: every line misses");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_repeat_access_always_hits(addrs in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let mut c = CacheModel::new(CacheConfig::default_l2());
            for &a in &addrs {
                c.access(a);
                // Working set is far below capacity, so an immediate
                // re-access must hit.
                proptest::prop_assert!(c.access(a));
            }
        }
    }
}
