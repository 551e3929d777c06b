//! A set-associative LRU cache simulator — groundwork for the paper's
//! *second* future-work item (§8: "identifying an orthogonal model that
//! builds an abstraction for caching and locality into our existing
//! load-balancing framework").
//!
//! The timing model prices memory by bandwidth only; this module exists
//! for *analysis*: replay the address stream a schedule would generate
//! (e.g. SpMV's gathers from `x`) and measure how schedule choice changes
//! cache behaviour. The `locality_report` harness in the bench crate does
//! exactly that.


/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (lines per set).
    pub ways: u32,
}

impl CacheConfig {
    /// V100's 6 MiB L2 (128-byte lines, modeled 16-way).
    pub fn v100_l2() -> Self {
        Self {
            size_bytes: 6 * 1024 * 1024,
            line_bytes: 128,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes / u64::from(self.ways)).max(1)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (including cold misses).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of accesses served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    cfg: CacheConfig,
    /// Per set: resident line tags, most-recently-used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Fresh, empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets() as usize],
            stats: CacheStats::default(),
        }
    }

    /// Touch byte address `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes;
        let set = (line % self.cfg.num_sets()) as usize;
        let tag = line / self.cfg.num_sets();
        let slot = &mut self.sets[set];
        if let Some(pos) = slot.iter().position(|&t| t == tag) {
            slot.remove(pos);
            slot.push(tag);
            self.stats.hits += 1;
            true
        } else {
            if slot.len() as u32 >= self.cfg.ways {
                slot.remove(0); // evict LRU
            }
            slot.push(tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Geometry in use.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Clear contents and counters.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets × 2 ways × 16-byte lines = 128 bytes.
        CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        }
    }

    #[test]
    fn geometry_math() {
        assert_eq!(tiny().num_sets(), 4);
        assert_eq!(CacheConfig::v100_l2().num_sets(), 3072);
    }

    #[test]
    fn same_line_hits_after_cold_miss() {
        let mut c = CacheSim::new(tiny());
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(15)); // same 16-byte line
        assert!(!c.access(16)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = CacheSim::new(tiny());
        // Three lines mapping to set 0: lines 0, 4, 8 (4 sets).
        let addr = |line: u64| line * 16;
        c.access(addr(0));
        c.access(addr(4));
        c.access(addr(0)); // refresh line 0
        c.access(addr(8)); // evicts line 4 (LRU)
        assert!(c.access(addr(0)), "line 0 refreshed, still resident");
        assert!(!c.access(addr(4)), "line 4 was evicted");
    }

    #[test]
    fn streaming_beyond_capacity_thrashes() {
        let mut c = CacheSim::new(tiny());
        for round in 0..3 {
            for line in 0..64u64 {
                let hit = c.access(line * 16);
                if round > 0 {
                    assert!(!hit, "working set 8x capacity cannot hit");
                }
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = CacheSim::new(tiny());
        for _ in 0..10 {
            for line in 0..4u64 {
                c.access(line * 16); // one line per set
            }
        }
        let s = c.stats();
        assert_eq!(s.misses, 4, "only cold misses");
        assert_eq!(s.hits, 36);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = CacheSim::new(tiny());
        c.access(0);
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "cold again after reset");
    }
}
