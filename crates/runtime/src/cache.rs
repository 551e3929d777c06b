//! The plan cache: (kernel, fingerprint) → prepared [`KernelPlan`],
//! LRU-bounded.
//!
//! Preparing a plan costs real (simulated) time — LRB's binning launches,
//! merge-path's partition build — and serving workloads are heavily
//! skewed: a few popular matrices receive most requests. Memoizing the
//! prepared plan per [`PlanKey`] turns that skew into wins: a cache
//! hit skips schedule selection *and* setup, and the launch runs the
//! cheaper prepartitioned path. The plan type is the dispatch engine's
//! kernel-agnostic [`KernelPlan`], so one cache serves SpMV, SpMM and
//! BFS side by side — the kernel name in the key keeps a matrix's SpMV
//! plan from answering for its SpMM plan (their artifacts differ even on
//! the same sparsity pattern).

use std::collections::HashMap;
use std::sync::Arc;

use loops::dispatch::{KernelKind, KernelPlan};
use sparse::FormatKind;

use crate::fingerprint::Fingerprint;

/// Cache key: which kernel, over which storage format, on which matrix.
/// The kernel component is the same [`KernelKind`] that prefixes the
/// engine's trace labels ([`loops::dispatch::trace_label`]), so the
/// cache and the timeline agree on what a plan is for; the format
/// component lets per-format prepared plans coexist for one matrix (the
/// hybrid slab's flat-span plan next to CSR's merge-path table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Engine kernel.
    pub kernel: KernelKind,
    /// Storage format the plan's tile geometry was prepared over.
    pub format: FormatKind,
    /// Fingerprint of the operand's sparsity pattern.
    pub fp: Fingerprint,
}

/// Hit/miss/eviction counters for a serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: usize,
    /// Lookups that missed (and inserted after preparing).
    pub misses: usize,
    /// Entries dropped to stay within capacity.
    pub evictions: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 if none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU cache of prepared plans keyed by kernel + matrix fingerprint.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<PlanKey, (Arc<KernelPlan>, u64)>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (capacity 0 disables
    /// caching: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up a plan, counting the hit or miss.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<KernelPlan>> {
        self.get_if(key, |_| true)
    }

    /// Look up a plan the caller can use: a live entry that fails
    /// `accept` counts as a miss, like an absent one (the caller
    /// prepares a replacement).
    pub(crate) fn get_if(
        &mut self,
        key: &PlanKey,
        accept: impl FnOnce(&KernelPlan) -> bool,
    ) -> Option<Arc<KernelPlan>> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some((plan, used)) if accept(plan) => {
                *used = self.clock;
                self.stats.hits += 1;
                Some(Arc::clone(plan))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly prepared plan, evicting the least-recently-used
    /// entry if over capacity.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<KernelPlan>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.entries.insert(key, (plan, self.clock));
        while self.entries.len() > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("non-empty");
            self.entries.remove(&lru);
            self.stats.evictions += 1;
        }
    }

    /// Drop a cached plan (a launch through it failed, so it is treated
    /// as poisoned and the next request re-prepares). Not counted as an
    /// eviction — those measure capacity pressure.
    pub fn remove(&mut self, key: &PlanKey) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Drop every plan prepared over fingerprint `fp`, across all
    /// kernels and formats: after a structural mutation the pattern
    /// those plans were partitioned for no longer exists, so the
    /// entries can never hit again and only crowd out live plans.
    /// Returns how many were dropped. Not counted as evictions — those
    /// measure capacity pressure.
    pub fn retire_fingerprint(&mut self, fp: &Fingerprint) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, _| k.fp != *fp);
        before - self.entries.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loops::schedule::ScheduleKind;

    fn plan() -> Arc<KernelPlan> {
        Arc::new(KernelPlan {
            schedule: ScheduleKind::ThreadMapped,
            block_dim: 256,
            merge_starts: None,
            lrb: None,
            setup_ms: 0.0,
        })
    }

    fn key(n: usize) -> PlanKey {
        keyed(KernelKind::Spmv, n)
    }

    fn keyed(kernel: KernelKind, n: usize) -> PlanKey {
        PlanKey {
            kernel,
            format: FormatKind::Csr,
            fp: Fingerprint {
                rows: n,
                cols: n,
                nnz: n,
                max_row: 1,
                cv_milli: 0,
                pattern: n as u64,
            },
        }
    }

    #[test]
    fn hit_after_insert_and_stats() {
        let mut c = PlanCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), plan());
        assert!(c.get(&key(1)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(key(1), plan());
        c.insert(key(2), plan());
        let _ = c.get(&key(1)); // 2 is now LRU
        c.insert(key(3), plan());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn remove_drops_a_poisoned_entry_without_counting_eviction() {
        let mut c = PlanCache::new(4);
        c.insert(key(1), plan());
        assert!(c.remove(&key(1)));
        assert!(!c.remove(&key(1)), "second remove finds nothing");
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.stats().evictions, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn same_matrix_different_kernels_are_distinct_entries() {
        let mut c = PlanCache::new(4);
        c.insert(keyed(KernelKind::Spmv, 1), plan());
        assert!(
            c.get(&keyed(KernelKind::Spmm, 1)).is_none(),
            "spmm must not see the spmv plan"
        );
        c.insert(keyed(KernelKind::Spmm, 1), plan());
        assert!(c.get(&keyed(KernelKind::Spmv, 1)).is_some());
        assert!(c.get(&keyed(KernelKind::Spmm, 1)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn same_matrix_different_formats_are_distinct_entries() {
        let mut c = PlanCache::new(4);
        c.insert(key(1), plan());
        let hybrid = PlanKey {
            format: FormatKind::Hybrid,
            ..key(1)
        };
        assert!(
            c.get(&hybrid).is_none(),
            "the hybrid plan must not be answered by the CSR plan"
        );
        c.insert(hybrid, plan());
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&hybrid).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert(key(1), plan());
        assert!(c.get(&key(1)).is_none());
        assert!(c.is_empty());
    }
}
