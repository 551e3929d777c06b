//! Per-thread execution context.
//!
//! A [`LaneCtx`] is what a "CUDA thread" sees: its coordinates in the
//! launch hierarchy plus the charging interface of the cost model. Charging
//! is interior-mutable (`Cell`) so that several iterator adaptors — the
//! framework's composable ranges — can hold shared references to one lane
//! at a time, mirroring how device code freely mixes loop nests over the
//! same thread state.
//!
//! A lane owns only its work units, which the block needs per lane for
//! the warp maximum. Its memory traffic goes straight into the block's
//! [`MemCounters`], which the lane borrows: those counts are block totals
//! anyway, and integer sums do not depend on the order lanes add them.

use crate::cost::{CostModel, MemCounters};

/// Execution context for one simulated thread ("lane").
#[derive(Debug)]
pub struct LaneCtx<'a> {
    thread_idx: u32,
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    warp_size: u32,
    group_rank: u32,
    group_size: u32,
    model: &'a CostModel,
    units: std::cell::Cell<f64>,
    counters: &'a MemCounters,
}

impl<'a> LaneCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        thread_idx: u32,
        block_idx: u32,
        block_dim: u32,
        grid_dim: u32,
        warp_size: u32,
        group_rank: u32,
        group_size: u32,
        model: &'a CostModel,
        counters: &'a MemCounters,
    ) -> Self {
        Self {
            thread_idx,
            block_idx,
            block_dim,
            grid_dim,
            warp_size,
            group_rank,
            group_size,
            model,
            units: std::cell::Cell::new(0.0),
            counters,
        }
    }

    // ---- coordinates -----------------------------------------------------

    /// `threadIdx.x`: index of this thread within its block.
    pub fn thread_idx(&self) -> u32 {
        self.thread_idx
    }

    /// `blockIdx.x`.
    pub fn block_idx(&self) -> u32 {
        self.block_idx
    }

    /// `blockDim.x`.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `gridDim.x`.
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_thread_id(&self) -> u64 {
        u64::from(self.block_idx) * u64::from(self.block_dim) + u64::from(self.thread_idx)
    }

    /// `gridDim.x * blockDim.x` — the stride of a grid-stride loop.
    pub fn grid_size(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }

    /// Lane index within the warp (`threadIdx.x % warpSize`).
    pub fn lane_id(&self) -> u32 {
        self.thread_idx % self.warp_size
    }

    /// Warp index within the block.
    pub fn warp_id(&self) -> u32 {
        self.thread_idx / self.warp_size
    }

    /// Width of a warp on this device.
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Rank of this lane within its cooperative group (equals
    /// [`Self::thread_idx`] for whole-block phases).
    pub fn group_rank(&self) -> u32 {
        self.group_rank
    }

    /// Size of the cooperative group this lane runs in (equals
    /// [`Self::block_dim`] for whole-block phases).
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    // ---- cost charging ---------------------------------------------------

    /// The cost model in effect for this launch.
    pub fn model(&self) -> &CostModel {
        self.model
    }

    /// Charge raw work units.
    #[inline]
    pub fn charge(&self, units: f64) {
        self.units.set(self.units.get() + units);
    }

    /// Charge the processing of one work atom, including its global
    /// traffic.
    #[inline]
    pub fn charge_atom(&self) {
        self.charge(self.model.atom_cost);
        self.counters.add_read(self.model.bytes_per_atom as u64);
    }

    /// Charge the bookkeeping for starting/finishing one work tile.
    #[inline]
    pub fn charge_tile(&self) {
        self.charge(self.model.tile_cost);
        self.counters.add_read(self.model.bytes_per_tile as u64);
    }

    /// Charge one iteration of a framework range (the abstraction
    /// overhead; fused baselines never call this).
    #[inline]
    pub fn charge_range_iter(&self) {
        self.charge(self.model.range_overhead);
    }

    /// Charge a binary search over `n` elements.
    #[inline]
    pub fn charge_search(&self, n: u64) {
        self.charge(self.model.binary_search(n));
    }

    /// Charge one global atomic operation (also counts its traffic).
    #[inline]
    pub fn charge_atomic(&self) {
        self.charge(self.model.atomic_cost);
        self.counters.add_atomic();
        self.counters.add_write(8);
    }

    /// Charge one shared-memory access.
    #[inline]
    pub fn charge_shared(&self) {
        self.charge(self.model.shared_access_cost);
        self.counters.add_shared();
    }

    /// Record `n` bytes of global reads (no issue-cycle charge; bandwidth
    /// is priced by the roofline term).
    #[inline]
    pub fn read_bytes(&self, n: u64) {
        self.counters.add_read(n);
    }

    /// Record `n` bytes of global writes.
    #[inline]
    pub fn write_bytes(&self, n: u64) {
        self.counters.add_write(n);
    }

    /// Total units charged so far by this lane.
    pub fn units(&self) -> f64 {
        self.units.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane<'a>(model: &'a CostModel, counters: &'a MemCounters) -> LaneCtx<'a> {
        LaneCtx::new(37, 5, 128, 100, 32, 37, 128, model, counters)
    }

    #[test]
    fn coordinates_follow_cuda_conventions() {
        let (m, c) = (CostModel::standard(), MemCounters::new());
        let l = lane(&m, &c);
        assert_eq!(l.global_thread_id(), 5 * 128 + 37);
        assert_eq!(l.grid_size(), 100 * 128);
        assert_eq!(l.lane_id(), 5);
        assert_eq!(l.warp_id(), 1);
        assert_eq!(l.warp_size(), 32);
        assert_eq!(l.group_rank(), 37);
        assert_eq!(l.group_size(), 128);
    }

    #[test]
    fn charges_accumulate_through_shared_reference() {
        let (m, c) = (CostModel::standard(), MemCounters::new());
        let l = lane(&m, &c);
        let r1 = &l;
        let r2 = &l;
        r1.charge(2.0);
        r2.charge(3.0);
        assert_eq!(l.units(), 5.0);
    }

    #[test]
    fn semantic_charges_use_model_constants() {
        let (m, c) = (CostModel::standard(), MemCounters::new());
        let l = lane(&m, &c);
        l.charge_atom();
        l.charge_tile();
        l.charge_range_iter();
        assert!(
            (l.units() - (m.atom_cost + m.tile_cost + m.range_overhead)).abs() < 1e-12,
            "got {}",
            l.units()
        );
        assert_eq!(c.read_bytes(), m.bytes_per_atom as u64 + m.bytes_per_tile as u64);
    }

    #[test]
    fn atomic_charge_counts_traffic_and_op() {
        let (m, c) = (CostModel::standard(), MemCounters::new());
        let l = lane(&m, &c);
        l.charge_atomic();
        assert_eq!(c.atomic_ops(), 1);
        assert_eq!(l.units(), m.atomic_cost);
    }

    #[test]
    fn search_charge_matches_model() {
        let (m, c) = (CostModel::standard(), MemCounters::new());
        let l = lane(&m, &c);
        l.charge_search(1 << 20);
        assert_eq!(l.units(), 20.0 * m.search_step_cost);
    }
}
