//! Launch results: simulated timing breakdown plus traffic statistics.

use crate::cost::MemSummary;
use crate::occupancy::Occupancy;

/// Whether the launch was limited by issue throughput or memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// Compute (issue-slot) bound.
    Compute,
    /// Memory-bandwidth bound.
    Memory,
}

/// Simulated timing decomposition of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingBreakdown {
    /// SM makespan converted to milliseconds.
    pub compute_ms: f64,
    /// Roofline memory time in milliseconds.
    pub memory_ms: f64,
    /// Fixed launch overhead in milliseconds.
    pub overhead_ms: f64,
    /// `max(compute, memory) + overhead`.
    pub elapsed_ms: f64,
    /// Which roofline term dominated.
    pub bound: Boundedness,
    /// Mean SM busy fraction relative to the makespan (1.0 = perfectly
    /// balanced device; small values mean one SM was the long pole).
    pub sm_utilization: f64,
    /// Total work units charged by all warps.
    pub total_units: f64,
    /// Issue width after the low-occupancy penalty.
    pub effective_issue_width: f64,
    /// Per-SM busy time in milliseconds (index = SM id) — the device-level
    /// load-balance profile behind `sm_utilization`.
    pub sm_times_ms: Vec<f64>,
}

/// Result of a completed kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Grid dimension launched.
    pub grid_dim: u32,
    /// Block dimension launched.
    pub block_dim: u32,
    /// Declared dynamic shared memory per block.
    pub shared_bytes: u32,
    /// Occupancy achieved by this shape.
    pub occupancy: Occupancy,
    /// Timing decomposition.
    pub timing: TimingBreakdown,
    /// Aggregate memory traffic.
    pub mem: MemSummary,
    /// Wall-clock milliseconds the *host* spent simulating (diagnostic
    /// only; never used in experiment outputs).
    pub host_wall_ms: f64,
}

impl LaunchReport {
    /// Simulated elapsed time in milliseconds — the number every
    /// experiment reports.
    pub fn elapsed_ms(&self) -> f64 {
        self.timing.elapsed_ms
    }

    /// Sum another launch into a cumulative timing (for multi-kernel
    /// algorithms such as SpGEMM's count+fill or iterative SSSP): elapsed
    /// times add, traffic adds, per-SM busy times merge element-wise (the
    /// kernels run back-to-back on the same SMs), utilization and
    /// boundedness are recomputed over the combined totals, and the rest —
    /// `grid_dim`, `block_dim`, `shared_bytes`, `occupancy` and
    /// `timing.effective_issue_width` — keeps the *first* launch's values
    /// (`self`'s), so an accumulated report describes its first launch's
    /// shape.
    pub fn accumulate(&mut self, other: &LaunchReport) {
        self.timing.elapsed_ms += other.timing.elapsed_ms;
        self.timing.compute_ms += other.timing.compute_ms;
        self.timing.memory_ms += other.timing.memory_ms;
        self.timing.overhead_ms += other.timing.overhead_ms;
        self.timing.total_units += other.timing.total_units;
        if self.timing.sm_times_ms.len() < other.timing.sm_times_ms.len() {
            self.timing.sm_times_ms.resize(other.timing.sm_times_ms.len(), 0.0);
        }
        for (mine, &theirs) in self
            .timing
            .sm_times_ms
            .iter_mut()
            .zip(&other.timing.sm_times_ms)
        {
            *mine += theirs;
        }
        let busy: f64 = self.timing.sm_times_ms.iter().sum();
        self.timing.sm_utilization = if self.timing.compute_ms > 0.0 {
            busy / (self.timing.compute_ms * self.timing.sm_times_ms.len().max(1) as f64)
        } else {
            0.0
        };
        self.timing.bound = if self.timing.compute_ms >= self.timing.memory_ms {
            Boundedness::Compute
        } else {
            Boundedness::Memory
        };
        self.mem = self.mem.merged(other.mem);
        self.host_wall_ms += other.host_wall_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::OccupancyLimit;

    fn report(ms: f64) -> LaunchReport {
        LaunchReport {
            grid_dim: 1,
            block_dim: 32,
            shared_bytes: 0,
            occupancy: Occupancy {
                blocks_per_sm: 1,
                resident_warps: 1,
                occupancy_frac: 0.1,
                limited_by: OccupancyLimit::Warps,
            },
            timing: TimingBreakdown {
                compute_ms: ms,
                memory_ms: 0.0,
                overhead_ms: 0.01,
                elapsed_ms: ms + 0.01,
                bound: Boundedness::Compute,
                sm_utilization: 1.0,
                total_units: 100.0,
                effective_issue_width: 4.0,
                sm_times_ms: vec![ms; 4],
            },
            mem: MemSummary {
                read_bytes: 10,
                ..Default::default()
            },
            host_wall_ms: 0.5,
        }
    }

    #[test]
    fn elapsed_ms_reads_timing() {
        assert!((report(2.0).elapsed_ms() - 2.01).abs() < 1e-12);
    }

    #[test]
    fn accumulate_adds_times_and_traffic() {
        let mut a = report(1.0);
        let mut b = report(2.0);
        // A second launch of another shape: the sum keeps the first's.
        b.grid_dim = 7;
        b.block_dim = 64;
        b.shared_bytes = 512;
        b.occupancy.blocks_per_sm = 4;
        b.timing.effective_issue_width = 2.0;
        let first = a.clone();
        a.accumulate(&b);
        assert!((a.elapsed_ms() - (1.01 + 2.01)).abs() < 1e-12);
        assert_eq!(a.mem.read_bytes, 20);
        assert!((a.timing.total_units - 200.0).abs() < 1e-12);
        assert_eq!(
            (a.grid_dim, a.block_dim, a.shared_bytes, a.occupancy),
            (first.grid_dim, first.block_dim, first.shared_bytes, first.occupancy)
        );
        assert_eq!(a.timing.effective_issue_width, first.timing.effective_issue_width);
    }

    #[test]
    fn accumulate_merges_sm_times_element_wise() {
        // Regression: accumulate used to keep only self's sm_times_ms,
        // silently dropping the accumulated launch's per-SM profile.
        let mut a = report(1.0);
        let mut b = report(2.0);
        b.timing.sm_times_ms = vec![2.0, 0.5, 2.0, 0.5, 3.0, 3.0]; // more SMs than a
        a.accumulate(&b);
        assert_eq!(a.timing.sm_times_ms, vec![3.0, 1.5, 3.0, 1.5, 3.0, 3.0]);
        // Utilization recomputed over the merged profile: busy / (compute × SMs).
        let busy = 3.0 + 1.5 + 3.0 + 1.5 + 3.0 + 3.0;
        let expect = busy / (3.0 * 6.0);
        assert!((a.timing.sm_utilization - expect).abs() < 1e-12);
        assert_eq!(a.timing.bound, Boundedness::Compute);
    }

    #[test]
    fn accumulate_recomputes_boundedness() {
        let mut a = report(1.0);
        let mut b = report(0.1);
        b.timing.memory_ms = 50.0;
        a.accumulate(&b);
        assert_eq!(a.timing.bound, Boundedness::Memory);
    }

    #[test]
    fn accumulate_with_zero_compute_yields_zero_utilization() {
        let mut a = report(0.0);
        a.timing.sm_times_ms = vec![0.0; 4];
        let mut b = report(0.0);
        b.timing.sm_times_ms = vec![0.0; 4];
        a.accumulate(&b);
        assert_eq!(a.timing.sm_utilization, 0.0);
    }
}
