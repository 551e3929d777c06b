//! The analytic cost model.
//!
//! Lanes charge abstract *work units* (one unit ≈ one issue-slot cycle of
//! one warp scheduler). The constants below assign unit costs to the
//! operations the paper's kernels and schedules perform. They are not
//! microarchitecturally exact; they are calibrated so that the *relative*
//! behaviour the paper reports emerges: memory-bound SpMV near the
//! roofline, merge-path setup visible only on small inputs, an abstraction
//! overhead of a few percent, and atomics that are noticeably more
//! expensive than plain accesses.

use std::cell::Cell;

/// Unit costs for simulated operations.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cost of processing one work atom (e.g. one nonzero in SpMV): the
    /// loads, the FMA, and index arithmetic.
    pub atom_cost: f64,
    /// Per-tile bookkeeping cost (e.g. starting a new row: reading the row
    /// extent, writing the accumulated sum).
    pub tile_cost: f64,
    /// Extra cost charged *per range iteration* by the framework's
    /// composable ranges — the abstraction overhead Figure 2 measures.
    /// Hand-fused baseline kernels do not pay this.
    pub range_overhead: f64,
    /// Cost of one step of a binary search (merge-path setup, group-mapped
    /// `get_tile`).
    pub search_step_cost: f64,
    /// Cost per step of a parallel scan/reduce collective (the whole
    /// collective charges `ceil(log2(n)) * scan_step_cost`).
    pub scan_step_cost: f64,
    /// Cost of one global-memory atomic (CAS loop body, contention aside).
    pub atomic_cost: f64,
    /// Cost of a shared-memory access.
    pub shared_access_cost: f64,
    /// Bytes of global traffic attributed to processing one atom in a
    /// streaming sparse kernel (value + column index + gathered vector
    /// element, amortized).
    pub bytes_per_atom: f64,
    /// Bytes of global traffic attributed to tile bookkeeping (row offset
    /// read + result write, amortized).
    pub bytes_per_tile: f64,
    /// Fixed per-thread kernel prologue cost (register setup, index math).
    pub thread_prologue_cost: f64,
    /// Resident warps an SM needs before issue slots are fully hidden;
    /// below this the effective issue width degrades linearly (the
    /// low-occupancy penalty).
    pub latency_hiding_warps: f64,
    /// Slowdown multiplier for critical-path work that runs with nothing
    /// left to overlap it: a lone warp grinding through a serialized row
    /// is *memory-latency* bound (each iteration waits on dependent
    /// loads), roughly an order of magnitude slower per atom than the
    /// issue-rate cost charged when other warps hide the latency.
    pub latency_stall: f64,
}

impl CostModel {
    /// Default calibration used across the reproduction.
    ///
    /// `atom_cost` is set slightly *below* the compute/bandwidth balance
    /// point (`bytes_per_atom × issue_rate / bandwidth ≈ 5.9` units on the
    /// V100 spec), so a well-balanced streaming kernel rides the memory
    /// roofline — the measured reality for merge-path SpMV on V100 —
    /// while schedule overheads (searches, collectives, idle lanes) can
    /// push a kernel compute-bound.
    pub fn standard() -> Self {
        Self {
            atom_cost: 3.0,
            tile_cost: 4.0,
            range_overhead: 0.18,
            search_step_cost: 4.0,
            scan_step_cost: 3.0,
            atomic_cost: 24.0,
            shared_access_cost: 1.0,
            bytes_per_atom: 12.0,
            bytes_per_tile: 8.0,
            thread_prologue_cost: 8.0,
            latency_hiding_warps: 16.0,
            latency_stall: 10.0,
        }
    }

    /// A variant with the abstraction's per-iteration range overhead
    /// disabled — used by the hand-fused baselines and by the overhead
    /// ablation (Ablation C in DESIGN.md).
    pub fn fused() -> Self {
        Self {
            range_overhead: 0.0,
            ..Self::standard()
        }
    }

    /// Work units for a binary search over `n` elements.
    pub fn binary_search(&self, n: u64) -> f64 {
        let steps = if n <= 1 { 1 } else { 64 - (n - 1).leading_zeros() as u64 };
        self.search_step_cost * steps as f64
    }

    /// Setup cost of a two-level merge-path partition, per thread: the
    /// global diagonal search is done once per *block* (amortized to ~one
    /// step per thread) and each thread then searches its block's tile in
    /// shared memory — `2 × log2(block_items)` scratchpad steps. This is
    /// how CUB (and the paper's framework) keep merge-path setup off the
    /// critical path; charging a full global `log2(n)` search per thread
    /// would make merge-path compute-bound, which contradicts its
    /// measured near-roofline bandwidth.
    pub fn merge_setup(&self, block_items: u64) -> f64 {
        let steps = if block_items <= 1 {
            1
        } else {
            64 - (block_items - 1).leading_zeros() as u64
        };
        2.0 * self.shared_access_cost * steps as f64 + self.search_step_cost
    }

    /// Work units charged to every participating lane by a log-depth
    /// collective (reduce/scan/ballot) over `n` lanes.
    pub fn collective(&self, n: u32) -> f64 {
        let steps = if n <= 1 {
            1
        } else {
            u64::from(32 - (n - 1).leading_zeros())
        };
        self.scan_step_cost * steps as f64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::standard()
    }
}

/// A block's memory-traffic counters.
///
/// Interior-mutable so every lane of the block records traffic through a
/// shared reference (several iterator adaptors may alias one lane
/// context, and every lane context of the block borrows these counters).
#[derive(Debug, Default)]
pub struct MemCounters {
    read_bytes: Cell<u64>,
    write_bytes: Cell<u64>,
    atomic_ops: Cell<u64>,
    shared_accesses: Cell<u64>,
}

impl MemCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` bytes read from global memory.
    pub fn add_read(&self, n: u64) {
        self.read_bytes.set(self.read_bytes.get() + n);
    }

    /// Record `n` bytes written to global memory.
    pub fn add_write(&self, n: u64) {
        self.write_bytes.set(self.write_bytes.get() + n);
    }

    /// Record one global atomic operation.
    pub fn add_atomic(&self) {
        self.atomic_ops.set(self.atomic_ops.get() + 1);
    }

    /// Record one shared-memory access.
    pub fn add_shared(&self) {
        self.shared_accesses.set(self.shared_accesses.get() + 1);
    }

    /// Bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.get()
    }

    /// Bytes written so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.get()
    }

    /// Total global traffic (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes.get() + self.write_bytes.get()
    }

    /// Number of global atomics so far.
    pub fn atomic_ops(&self) -> u64 {
        self.atomic_ops.get()
    }

    /// Number of shared-memory accesses so far.
    pub fn shared_accesses(&self) -> u64 {
        self.shared_accesses.get()
    }

    /// Snapshot into a plain, `Send` summary.
    pub fn snapshot(&self) -> MemSummary {
        MemSummary {
            read_bytes: self.read_bytes(),
            write_bytes: self.write_bytes(),
            atomic_ops: self.atomic_ops(),
            shared_accesses: self.shared_accesses(),
        }
    }
}

/// Plain-data snapshot of [`MemCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemSummary {
    /// Bytes read from global memory.
    pub read_bytes: u64,
    /// Bytes written to global memory.
    pub write_bytes: u64,
    /// Global atomic operations.
    pub atomic_ops: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
}

impl MemSummary {
    /// Total global traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Elementwise sum.
    pub fn merged(self, other: MemSummary) -> MemSummary {
        MemSummary {
            read_bytes: self.read_bytes + other.read_bytes,
            write_bytes: self.write_bytes + other.write_bytes,
            atomic_ops: self.atomic_ops + other.atomic_ops,
            shared_accesses: self.shared_accesses + other.shared_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_search_cost_is_logarithmic() {
        let c = CostModel::standard();
        assert_eq!(c.binary_search(1), c.search_step_cost);
        assert_eq!(c.binary_search(2), c.search_step_cost);
        assert_eq!(c.binary_search(1024), 10.0 * c.search_step_cost);
        assert_eq!(c.binary_search(1025), 11.0 * c.search_step_cost);
    }

    #[test]
    fn collective_cost_is_logarithmic_in_group_size() {
        let c = CostModel::standard();
        assert_eq!(c.collective(32), 5.0 * c.scan_step_cost);
        assert_eq!(c.collective(256), 8.0 * c.scan_step_cost);
        assert_eq!(c.collective(1), c.scan_step_cost);
    }

    #[test]
    fn fused_model_drops_only_range_overhead() {
        let s = CostModel::standard();
        let f = CostModel::fused();
        assert_eq!(f.range_overhead, 0.0);
        assert_eq!(f.atom_cost, s.atom_cost);
        assert_eq!(f.atomic_cost, s.atomic_cost);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let a = MemCounters::new();
        a.add_read(100);
        a.add_write(40);
        a.add_atomic();
        a.add_read(1);
        a.add_shared();
        assert_eq!(a.read_bytes(), 101);
        assert_eq!(a.write_bytes(), 40);
        assert_eq!(a.total_bytes(), 141);
        assert_eq!(a.atomic_ops(), 1);
        assert_eq!(a.shared_accesses(), 1);
        let snap = a.snapshot();
        assert_eq!(snap.total_bytes(), 141);
        let sum = snap.merged(snap);
        assert_eq!(sum.read_bytes, 202);
    }
}
