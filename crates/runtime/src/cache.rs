//! The runtime's one eviction rule: [`Lru`], a map bounded by evicting
//! its least-recently-used entry, behind the plan cache, the
//! fingerprint memo, the prepared-operand cache and the shard group's
//! split cache.
//!
//! The plan cache maps (kernel, format, fingerprint) → prepared
//! [`KernelPlan`]. Preparing a plan costs real (simulated) time — LRB's
//! binning launches, merge-path's partition build — and serving
//! workloads are heavily skewed: a few popular matrices receive most
//! requests. Memoizing the prepared plan per [`PlanKey`] turns that skew
//! into wins: a cache hit skips schedule selection *and* setup, and the
//! launch runs the cheaper prepartitioned path. The plan type is the
//! dispatch engine's kernel-agnostic [`KernelPlan`], so one cache serves
//! SpMV, SpMM and BFS side by side — the kernel name in the key keeps a
//! matrix's SpMV plan from answering for its SpMM plan (their artifacts
//! differ even on the same sparsity pattern).

use std::collections::HashMap;
use std::hash::Hash;
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

/// Hit/miss/eviction counters of one [`Lru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a usable entry.
    pub hits: usize,
    /// Lookups that found none (the caller computes and inserts).
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

/// The plan cache: prepared plans keyed by kernel, format and matrix
/// fingerprint.
pub type PlanCache = Lru<PlanKey, Arc<KernelPlan>>;

/// A map holding at most `capacity` entries, evicting the
/// least-recently-used one to make room. Every lookup and insert takes a
/// fresh value of one logical clock, so the victim is unique and never
/// depends on `HashMap` iteration order: eviction is deterministic.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: HashMap<K, (V, u64)>,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (capacity 0
    /// keeps nothing: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            clock: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up `key`, counting the hit or miss; a hit becomes the most
    /// recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_if(key, |_| true)
    }

    /// Look up an entry the caller can use: a live entry that fails
    /// `accept` counts as a miss, like an absent one (the caller
    /// computes a replacement and inserts it over the old one).
    pub fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some((value, used)) if accept(value) => {
                *used = self.clock;
                self.stats.hits += 1;
                Some(value)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) `key`'s entry as the most recently used one,
    /// evicting the least-recently-used entry if over capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.entries.insert(key, (value, self.clock));
        if self.entries.len() > self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
                .expect("over capacity, so non-empty");
            self.entries.remove(&lru);
            self.stats.evictions += 1;
        }
    }

    /// Drop `key`'s entry (for example a plan whose launch failed, so
    /// it is treated as poisoned). Not counted as an eviction — those
    /// measure capacity pressure.
    pub fn remove(&mut self, key: &K) -> bool {
        self.entries.remove(key).is_some()
    }

    /// Keep only the entries `keep` accepts and return how many were
    /// dropped: retirement of entries that can never hit again, such as
    /// everything keyed by a fingerprint a structural mutation killed.
    /// Not counted as evictions.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|k, (v, _)| keep(k, v));
        before - self.entries.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
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
