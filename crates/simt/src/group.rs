//! Cooperative groups: phased execution and group-wide collectives.
//!
//! This is the simulator's analogue of CUDA's Cooperative Groups model
//! (§5.2.3 of the paper): a *group* is a programmer-chosen collection of
//! consecutive threads of arbitrary power-of-two-free size that evenly
//! tiles the block. A group executes as a sequence of **phases**: within a
//! phase each lane runs a closure to completion, and the end of the phase
//! is a group-wide barrier. Collectives (`reduce`, `exclusive_scan`,
//! `ballot`, `broadcast`) operate on the per-lane values a phase produced
//! and charge the logarithmic step cost a tree implementation would pay.
//!
//! ## Cost semantics
//!
//! * A phase costs its **maximum lane cost** — every other lane in the sync
//!   domain idles until the slowest finishes (lockstep / barrier).
//! * For groups at least one warp wide, the sync domain is the group: the
//!   phase maximum is charged to *every warp the group covers*.
//! * Lanes of several groups can share a warp and run in lockstep with
//!   it; the block charges each warp, per phase, the maximum over the
//!   groups that have a lane in it (see
//!   [`crate::BlockCtx::for_each_group`]), not their sum.

use crate::cost::{CostModel, MemCounters};
use crate::lane::LaneCtx;
use crate::shared::{SharedBuf, SharedTracker};

/// Execution context for one cooperative group within a block.
pub struct GroupCtx<'a> {
    group_idx: u32,
    group_size: u32,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    warp_size: u32,
    model: &'a CostModel,
    counters: &'a MemCounters,
    shared: &'a SharedTracker,
    log: PhaseLog,
    phases_run: u32,
}

/// What a group's phases leave for its block to aggregate. The block
/// lends one log to each of its groups in turn, cleared, so no group
/// allocates.
#[derive(Debug, Default)]
pub(crate) struct PhaseLog {
    /// Max lane cost per completed phase (collectives append too).
    pub(crate) maxima: Vec<f64>,
    /// Traced blocks only: every lane's units per entry of `maxima`,
    /// `group_size` values each, in lane order. A collective or a `sync`
    /// books its step for every lane. `None` when untraced, so nothing is
    /// recorded.
    pub(crate) lane_units: Option<Vec<f64>>,
}

impl<'a> GroupCtx<'a> {
    /// A group that records its phases into `log`, emptied first.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        group_idx: u32,
        group_size: u32,
        block_idx: u32,
        block_dim: u32,
        grid_dim: u32,
        warp_size: u32,
        model: &'a CostModel,
        counters: &'a MemCounters,
        shared: &'a SharedTracker,
        mut log: PhaseLog,
    ) -> Self {
        log.maxima.clear();
        if let Some(u) = &mut log.lane_units {
            u.clear();
        }
        Self {
            group_idx,
            group_size,
            block_idx,
            block_dim,
            grid_dim,
            warp_size,
            model,
            counters,
            shared,
            log,
            phases_run: 0,
        }
    }

    // ---- identity --------------------------------------------------------

    /// Index of this group within its block.
    pub fn group_idx(&self) -> u32 {
        self.group_idx
    }

    /// Number of lanes in the group.
    pub fn size(&self) -> u32 {
        self.group_size
    }

    /// Groups per block.
    pub fn groups_per_block(&self) -> u32 {
        self.block_dim / self.group_size
    }

    /// Index of this group across the whole grid.
    pub fn global_group_id(&self) -> u64 {
        u64::from(self.block_idx) * u64::from(self.groups_per_block()) + u64::from(self.group_idx)
    }

    /// Total number of groups across the grid.
    pub fn num_groups_in_grid(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.groups_per_block())
    }

    /// `blockIdx.x` of the enclosing block.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `gridDim.x` of the launch.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        self.model
    }

    // ---- shared memory ---------------------------------------------------

    /// Allocate a shared-memory buffer of `len` elements for this group.
    ///
    /// Debits the block's declared shared budget; overflow is detected at
    /// launch completion.
    pub fn alloc_shared<T: Copy + Default>(&mut self, len: usize) -> SharedBuf<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u32;
        let _ = self.shared.debit(bytes);
        SharedBuf::new(len)
    }

    // ---- phased execution ------------------------------------------------

    /// Run one phase: `f` executes once per lane; the phase ends with a
    /// group barrier. Returns the per-lane results.
    pub fn phase<T>(&mut self, mut f: impl FnMut(&LaneCtx<'_>) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.group_size as usize);
        self.phase_for_each(|lane| out.push(f(lane)));
        out
    }

    /// [`Self::phase`] writing lane `r`'s result to `out[r]` (say, a
    /// shared-memory buffer) instead of returning a new `Vec`. `out.len()`
    /// must equal the group size.
    pub fn phase_into<T>(&mut self, out: &mut [T], mut f: impl FnMut(&LaneCtx<'_>) -> T) {
        assert_eq!(
            out.len(),
            self.group_size as usize,
            "phase output must have one element per lane"
        );
        self.phase_for_each(|lane| out[lane.group_rank() as usize] = f(lane));
    }

    /// Run one phase for side effects only.
    pub fn phase_for_each(&mut self, mut f: impl FnMut(&LaneCtx<'_>)) {
        let mut max_cost = 0.0f64;
        let prologue = if self.phases_run == 0 {
            self.model.thread_prologue_cost
        } else {
            0.0
        };
        for r in 0..self.group_size {
            let lane = LaneCtx::new(
                self.group_idx * self.group_size + r,
                self.block_idx,
                self.block_dim,
                self.grid_dim,
                self.warp_size,
                r,
                self.group_size,
                self.model,
                self.counters,
            );
            lane.charge(prologue);
            f(&lane);
            let units = lane.units();
            if let Some(u) = &mut self.log.lane_units {
                u.push(units);
            }
            max_cost = max_cost.max(units);
        }
        self.phases_run += 1;
        self.log.maxima.push(max_cost);
    }

    // ---- collectives -----------------------------------------------------

    /// Record one group-wide step of `cost` that every lane spends.
    fn step(&mut self, cost: f64) {
        self.log.maxima.push(cost);
        if let Some(u) = &mut self.log.lane_units {
            u.extend(std::iter::repeat_n(cost, self.group_size as usize));
        }
    }

    fn charge_collective(&mut self) {
        self.step(self.model.collective(self.group_size));
        for _ in 0..self.group_size {
            self.counters.add_shared();
        }
    }

    /// Charge the cost of one group-wide log-depth collective without a
    /// value computation — for algorithms (e.g. segmented reductions)
    /// whose functional result is produced lane-locally but whose cost is
    /// that of a tree reduction.
    pub fn charge_collective_step(&mut self) {
        self.charge_collective();
    }

    /// Group-wide exclusive prefix sum, in place. `vals.len()` must equal
    /// the group size. Returns the total (sum of all inputs).
    ///
    /// This is the collective the group-mapped schedule builds its shared
    /// atom-offset array with (§5.2.3).
    pub fn exclusive_scan(&mut self, vals: &mut [u64]) -> u64 {
        assert_eq!(
            vals.len(),
            self.group_size as usize,
            "scan input must have one element per lane"
        );
        self.charge_collective();
        let mut acc = 0u64;
        for v in vals.iter_mut() {
            let x = *v;
            *v = acc;
            acc += x;
        }
        acc
    }

    /// Group-wide sum reduction over per-lane values.
    pub fn reduce_sum_f64(&mut self, vals: &[f64]) -> f64 {
        assert_eq!(vals.len(), self.group_size as usize);
        self.charge_collective();
        vals.iter().sum()
    }

    /// Group-wide sum reduction over per-lane integer values.
    pub fn reduce_sum_u64(&mut self, vals: &[u64]) -> u64 {
        assert_eq!(vals.len(), self.group_size as usize);
        self.charge_collective();
        vals.iter().sum()
    }

    /// Group-wide maximum.
    pub fn reduce_max_u64(&mut self, vals: &[u64]) -> u64 {
        assert_eq!(vals.len(), self.group_size as usize);
        self.charge_collective();
        vals.iter().copied().max().unwrap_or(0)
    }

    /// Count of lanes whose predicate is true (CUDA `__ballot_sync` +
    /// popcount).
    pub fn ballot_count(&mut self, preds: &[bool]) -> u32 {
        assert_eq!(preds.len(), self.group_size as usize);
        self.charge_collective();
        preds.iter().filter(|&&p| p).count() as u32
    }

    /// Broadcast lane `src`'s value to the whole group (CUDA
    /// `__shfl_sync`). Cost: one collective step.
    pub fn broadcast<T: Copy>(&mut self, vals: &[T], src: u32) -> T {
        assert_eq!(vals.len(), self.group_size as usize);
        self.step(self.model.scan_step_cost);
        vals[src as usize]
    }

    /// `__shfl_down_sync`: lane `r` receives lane `r + delta`'s value
    /// (lanes past the edge keep their own, like the hardware intrinsic).
    /// Cost: one collective step.
    pub fn shfl_down<T: Copy>(&mut self, vals: &[T], delta: u32) -> Vec<T> {
        assert_eq!(vals.len(), self.group_size as usize);
        self.step(self.model.scan_step_cost);
        (0..vals.len())
            .map(|r| {
                let src = r + delta as usize;
                if src < vals.len() {
                    vals[src]
                } else {
                    vals[r]
                }
            })
            .collect()
    }

    /// `__shfl_up_sync`: lane `r` receives lane `r - delta`'s value (lanes
    /// below the edge keep their own). Cost: one collective step.
    pub fn shfl_up<T: Copy>(&mut self, vals: &[T], delta: u32) -> Vec<T> {
        assert_eq!(vals.len(), self.group_size as usize);
        self.step(self.model.scan_step_cost);
        (0..vals.len())
            .map(|r| {
                if r >= delta as usize {
                    vals[r - delta as usize]
                } else {
                    vals[r]
                }
            })
            .collect()
    }

    /// `__shfl_xor_sync`: lane `r` exchanges with lane `r ^ mask` (the
    /// butterfly step of warp reductions). Requires a power-of-two group.
    /// Cost: one collective step.
    pub fn shfl_xor<T: Copy>(&mut self, vals: &[T], mask: u32) -> Vec<T> {
        assert_eq!(vals.len(), self.group_size as usize);
        assert!(
            self.group_size.is_power_of_two(),
            "xor shuffle needs a power-of-two group"
        );
        self.step(self.model.scan_step_cost);
        (0..vals.len())
            .map(|r| vals[(r ^ mask as usize) % vals.len()])
            .collect()
    }

    /// Explicit extra barrier (phases already sync; this adds a zero-cost
    /// alignment point kept for API parity with CUDA's `group.sync()`).
    pub fn sync(&mut self) {
        self.step(0.0);
    }

    /// Hand the phase log back to the block.
    pub(crate) fn into_log(self) -> PhaseLog {
        self.log
    }
}

impl std::fmt::Debug for GroupCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCtx")
            .field("group_idx", &self.group_idx)
            .field("group_size", &self.group_size)
            .field("block_idx", &self.block_idx)
            .field("phases_run", &self.phases_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        model: &'a CostModel,
        counters: &'a MemCounters,
        shared: &'a SharedTracker,
    ) -> GroupCtx<'a> {
        let log = PhaseLog::default();
        GroupCtx::new(1, 8, 2, 32, 10, 8, model, counters, shared, log)
    }

    #[test]
    fn identity_math() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let g = ctx(&m, &c, &s);
        assert_eq!(g.groups_per_block(), 4);
        assert_eq!(g.global_group_id(), 2 * 4 + 1);
        assert_eq!(g.num_groups_in_grid(), 40);
    }

    #[test]
    fn phase_runs_every_lane_and_records_max_cost() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let ranks = g.phase(|l| {
            l.charge(f64::from(l.group_rank())); // lane r charges r units
            l.group_rank()
        });
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
        // The same phase written in place: lane r's result lands in out[r].
        let mut out = [0u32; 8];
        g.phase_into(&mut out, |l| {
            l.charge(f64::from(l.group_rank()));
            7 - l.group_rank()
        });
        assert_eq!(out, [7, 6, 5, 4, 3, 2, 1, 0]);
        let maxima = g.into_log().maxima;
        assert_eq!(maxima.len(), 2);
        // prologue + heaviest lane (rank 7), then the heaviest lane alone
        assert!((maxima[0] - (m.thread_prologue_cost + 7.0)).abs() < 1e-12);
        assert_eq!(maxima[1], 7.0);
    }

    #[test]
    fn prologue_charged_only_on_first_phase() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        g.phase_for_each(|_| {});
        g.phase_for_each(|l| l.charge(1.0));
        let maxima = g.into_log().maxima;
        assert!((maxima[0] - m.thread_prologue_cost).abs() < 1e-12);
        assert!((maxima[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exclusive_scan_matches_reference_and_returns_total() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let mut v = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let total = g.exclusive_scan(&mut v);
        assert_eq!(total, 31);
        assert_eq!(v, vec![0, 3, 4, 8, 9, 14, 23, 25]);
    }

    #[test]
    fn collectives_charge_log_steps() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let sum = g.reduce_sum_u64(&[1; 8]);
        assert_eq!(sum, 8);
        let maxima = g.into_log().maxima;
        assert_eq!(maxima, vec![m.collective(8)]);
    }

    #[test]
    fn ballot_and_broadcast() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        assert_eq!(g.ballot_count(&[true, false, true, true, false, false, false, true]), 4);
        assert_eq!(g.broadcast(&[10, 20, 30, 40, 50, 60, 70, 80], 2), 30);
    }

    #[test]
    fn shuffles_follow_cuda_semantics() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let v = [10, 20, 30, 40, 50, 60, 70, 80];
        // down: lane r gets r+2; last two keep their own.
        assert_eq!(g.shfl_down(&v, 2), vec![30, 40, 50, 60, 70, 80, 70, 80]);
        // up: lane r gets r-2; first two keep their own.
        assert_eq!(g.shfl_up(&v, 2), vec![10, 20, 10, 20, 30, 40, 50, 60]);
        // xor: butterfly exchange with partner r ^ 1.
        assert_eq!(g.shfl_xor(&v, 1), vec![20, 10, 40, 30, 60, 50, 80, 70]);
    }

    #[test]
    fn butterfly_reduction_via_xor_shuffles() {
        // The classic warp-sum: log2(n) xor-shuffle + add rounds.
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let mut v: Vec<u64> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let mut mask = 4u32;
        while mask >= 1 {
            let peer = g.shfl_xor(&v, mask);
            for (a, b) in v.iter_mut().zip(peer) {
                *a += b;
            }
            mask /= 2;
        }
        assert!(v.iter().all(|&x| x == 36), "every lane holds the total: {v:?}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn xor_shuffle_rejects_odd_groups() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = GroupCtx::new(0, 3, 0, 3, 1, 8, &m, &c, &s, PhaseLog::default());
        let _ = g.shfl_xor(&[1, 2, 3], 1);
    }

    #[test]
    fn shared_alloc_debits_budget() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(64);
        let mut g = ctx(&m, &c, &s);
        let buf = g.alloc_shared::<u64>(8); // 64 bytes: exactly at budget
        assert_eq!(buf.len(), 8);
        assert!(!s.overflowed());
        let _buf2 = g.alloc_shared::<u64>(1);
        assert!(s.overflowed());
    }

    #[test]
    fn reduce_max_and_single_lane_group() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        assert_eq!(g.reduce_max_u64(&[3, 9, 1, 7, 2, 2, 8, 0]), 9);
        // Single-lane group: collectives degenerate gracefully.
        let mut g1 = GroupCtx::new(0, 1, 0, 8, 1, 8, &m, &c, &s, PhaseLog::default());
        let mut v = vec![5u64];
        assert_eq!(g1.exclusive_scan(&mut v), 5);
        assert_eq!(v, vec![0]);
        assert_eq!(g1.reduce_sum_u64(&[42]), 42);
        assert_eq!(g1.ballot_count(&[true]), 1);
        assert_eq!(g1.broadcast(&[13], 0), 13);
    }

    #[test]
    fn sync_is_a_zero_cost_alignment_point() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        g.sync();
        g.phase_for_each(|_| {});
        let maxima = g.into_log().maxima;
        assert_eq!(maxima[0], 0.0);
    }

    #[test]
    fn counters_flow_from_group_lanes() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        g.phase_for_each(|l| l.read_bytes(10));
        assert_eq!(c.read_bytes(), 80); // 8 lanes × 10 bytes
    }

    #[test]
    fn scan_then_ballot_accumulates_collective_costs() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let mut v = vec![1u64; 8];
        g.exclusive_scan(&mut v);
        g.ballot_count(&[false; 8]);
        let maxima = g.into_log().maxima;
        assert_eq!(maxima.len(), 2);
        assert!(maxima.iter().all(|&x| (x - m.collective(8)).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "one element per lane")]
    fn scan_rejects_wrong_width() {
        let m = CostModel::standard();
        let c = MemCounters::new();
        let s = SharedTracker::new(1024);
        let mut g = ctx(&m, &c, &s);
        let mut v = vec![0u64; 3];
        g.exclusive_scan(&mut v);
    }
}
