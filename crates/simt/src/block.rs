//! Per-block execution context and cost aggregation.
//!
//! A [`BlockCtx`] drives one thread block. Kernels structure their work as
//! whole-block per-thread phases ([`BlockCtx::for_each_thread`], or
//! [`BlockCtx::for_each_active_thread`] when only a prefix of the block
//! has work) or as cooperative-group phases ([`BlockCtx::for_each_group`]);
//! either way the block records, per warp, the time the warp spends —
//! including the idling implied by lockstep execution and barriers — and
//! hands the result to the device-level makespan model.
//!
//! The block owns one set of [`MemCounters`]. Every lane and group of the
//! block records its traffic into that set through a shared reference, so
//! no lane carries counters of its own and nothing is merged afterwards.

use crate::cost::{CostModel, MemCounters, MemSummary};
use crate::error::LaunchError;
use crate::group::GroupCtx;
use crate::lane::LaneCtx;
use crate::shared::{SharedBuf, SharedTracker};
use crate::spec::GpuSpec;

/// Execution context for one simulated thread block.
pub struct BlockCtx<'a> {
    block_idx: u32,
    block_dim: u32,
    grid_dim: u32,
    spec: &'a GpuSpec,
    model: &'a CostModel,
    warp_costs: Vec<f64>,
    warp_active: Vec<f64>,
    counters: MemCounters,
    shared: SharedTracker,
    prologue_charged: bool,
    stats: bool,
    error: Option<LaunchError>,
}

/// Aggregated cost of one executed block, consumed by the timing model.
#[derive(Debug, Clone)]
pub struct BlockCost {
    /// Work units accumulated by each warp of the block.
    pub warp_costs: Vec<f64>,
    /// Sum of per-lane units per warp — the divergence profile behind
    /// `warp_costs` (a warp's cost is its *maximum* lane; this is the
    /// lane *total*, so `active / (warp_size × cost)` is the warp's mean
    /// lane activity). Collected only when the launch is traced
    /// (empty otherwise, so untraced launches allocate nothing extra);
    /// group phases record their barrier-aligned cost, i.e. no
    /// intra-group divergence is attributed.
    pub warp_active: Vec<f64>,
    /// Memory traffic and atomic counts.
    pub mem: MemSummary,
}

impl BlockCost {
    /// Cost of the slowest warp (the block's critical path).
    pub fn critical_warp(&self) -> f64 {
        self.warp_costs.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all warp costs (the block's issue-slot demand).
    pub fn total_units(&self) -> f64 {
        self.warp_costs.iter().sum()
    }
}

impl<'a> BlockCtx<'a> {
    #[cfg(test)]
    pub(crate) fn new(
        block_idx: u32,
        block_dim: u32,
        grid_dim: u32,
        shared_declared: u32,
        spec: &'a GpuSpec,
        model: &'a CostModel,
    ) -> Self {
        Self::with_stats(block_idx, block_dim, grid_dim, shared_declared, spec, model, false)
    }

    /// `stats` additionally collects per-warp lane-activity totals for
    /// tracing; off, the block allocates and computes nothing extra.
    pub(crate) fn with_stats(
        block_idx: u32,
        block_dim: u32,
        grid_dim: u32,
        shared_declared: u32,
        spec: &'a GpuSpec,
        model: &'a CostModel,
        stats: bool,
    ) -> Self {
        let num_warps = spec.warps_for(block_dim) as usize;
        Self {
            block_idx,
            block_dim,
            grid_dim,
            spec,
            model,
            warp_costs: vec![0.0; num_warps],
            warp_active: if stats { vec![0.0; num_warps] } else { Vec::new() },
            counters: MemCounters::new(),
            shared: SharedTracker::new(shared_declared),
            prologue_charged: false,
            stats,
            error: None,
        }
    }

    // ---- identity ----------------------------------------------------

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

    /// Warps in this block.
    pub fn num_warps(&self) -> u32 {
        self.warp_costs.len() as u32
    }

    /// Device warp width.
    pub fn warp_size(&self) -> u32 {
        self.spec.warp_size
    }

    /// The cost model in effect.
    pub fn model(&self) -> &CostModel {
        self.model
    }

    // ---- shared memory -------------------------------------------------

    /// Allocate a block-wide shared-memory buffer.
    pub fn alloc_shared<T: Copy + Default>(&mut self, len: usize) -> SharedBuf<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u32;
        let _ = self.shared.debit(bytes);
        SharedBuf::new(len)
    }

    // ---- phased execution ------------------------------------------------

    /// Run `f` once per thread in the block.
    ///
    /// There is **no block barrier** implied: each warp is charged the
    /// maximum cost over its own lanes (lockstep divergence), independently
    /// of other warps. This is the execution shape of per-thread kernels
    /// like thread-mapped or merge-path SpMV. Call [`BlockCtx::sync`]
    /// afterwards if the kernel needs `__syncthreads` semantics.
    pub fn for_each_thread(&mut self, f: impl FnMut(&LaneCtx<'_>)) {
        self.for_each_active_thread(self.block_dim, f);
    }

    /// [`Self::for_each_thread`] for a block whose threads at or past
    /// `active` have nothing to do: `f` runs for threads `0..active` only,
    /// and every later thread is charged the thread prologue without
    /// building a lane. The caller promises that `f` would charge nothing
    /// and touch nothing on those threads, as a persistent kernel's
    /// threads do once they find the work queue dry.
    ///
    /// The result is bitwise the one `for_each_thread` gives with `f`
    /// returning at once on the idle threads. An idle lane's units read
    /// `0.0 + prologue`, so its warp takes that into its running maximum
    /// once (a maximum does not change when a value repeats), and a traced
    /// block adds it to `warp_active` once per idle thread, in thread
    /// order, exactly as the lanes would have.
    pub fn for_each_active_thread(&mut self, active: u32, mut f: impl FnMut(&LaneCtx<'_>)) {
        let warp_size = self.spec.warp_size;
        let prologue = if self.prologue_charged {
            0.0
        } else {
            self.model.thread_prologue_cost
        };
        self.prologue_charged = true;
        // What an idle lane's units read: a lane starts at zero and is
        // charged the prologue.
        let idle_units = 0.0 + prologue;
        let active = active.min(self.block_dim);
        for (w, cost) in self.warp_costs.iter_mut().enumerate() {
            let first = w as u32 * warp_size;
            let end = (first + warp_size).min(self.block_dim);
            let busy_end = active.clamp(first, end);
            let mut warp_max = 0.0f64;
            for t in first..busy_end {
                let lane = LaneCtx::new(
                    t,
                    self.block_idx,
                    self.block_dim,
                    self.grid_dim,
                    warp_size,
                    t,
                    self.block_dim,
                    self.model,
                    &self.counters,
                );
                lane.charge(prologue);
                f(&lane);
                warp_max = warp_max.max(lane.units());
                if self.stats {
                    self.warp_active[w] += lane.units();
                }
            }
            if busy_end < end {
                warp_max = warp_max.max(idle_units);
                if self.stats {
                    for _ in busy_end..end {
                        self.warp_active[w] += idle_units;
                    }
                }
            }
            *cost += warp_max;
        }
    }

    /// Partition the block into cooperative groups of `group_size`
    /// consecutive threads and run `f` once per group.
    ///
    /// `group_size` must evenly tile the block. Group phases carry barrier
    /// semantics:
    ///
    /// * groups at least one warp wide charge each covered warp the
    ///   *group's* per-phase maximum (barrier across the group's warps);
    /// * sub-warp groups run lockstep with their warp-mates, so the warp is
    ///   charged, per phase, the maximum across all groups sharing it.
    pub fn for_each_group(&mut self, group_size: u32, mut f: impl FnMut(&mut GroupCtx<'_>)) {
        if group_size == 0 || !self.block_dim.is_multiple_of(group_size) {
            self.error = Some(LaunchError::BadGroupSize {
                group_size,
                block_dim: self.block_dim,
            });
            return;
        }
        let warp_size = self.spec.warp_size;
        let num_groups = self.block_dim / group_size;
        if group_size >= warp_size {
            // A group spans one or more whole warps.
            let warps_per_group = (group_size / warp_size).max(1) as usize;
            for g in 0..num_groups {
                let mut gc = GroupCtx::new(
                    g,
                    group_size,
                    self.block_idx,
                    self.block_dim,
                    self.grid_dim,
                    warp_size,
                    self.model,
                    &self.counters,
                    &self.shared,
                );
                f(&mut gc);
                let total: f64 = gc.into_phase_maxima().iter().sum();
                let first_warp = (g as usize) * warps_per_group;
                for w in first_warp..first_warp + warps_per_group {
                    self.warp_costs[w] += total;
                    if self.stats {
                        // Group phases are barrier-aligned: charge the full
                        // warp as active so no divergence is attributed.
                        self.warp_active[w] += total * f64::from(warp_size);
                    }
                }
            }
        } else {
            // Several groups share each warp; aggregate per-phase maxima.
            let groups_per_warp = warp_size / group_size;
            let mut warp_phase: Vec<Vec<f64>> = vec![Vec::new(); self.warp_costs.len()];
            for g in 0..num_groups {
                let mut gc = GroupCtx::new(
                    g,
                    group_size,
                    self.block_idx,
                    self.block_dim,
                    self.grid_dim,
                    warp_size,
                    self.model,
                    &self.counters,
                    &self.shared,
                );
                f(&mut gc);
                let maxima = gc.into_phase_maxima();
                let w = (g / groups_per_warp) as usize;
                let slot = &mut warp_phase[w];
                if slot.len() < maxima.len() {
                    slot.resize(maxima.len(), 0.0);
                }
                for (p, m) in maxima.into_iter().enumerate() {
                    slot[p] = slot[p].max(m);
                }
            }
            for (w, phases) in warp_phase.into_iter().enumerate() {
                let total = phases.iter().sum::<f64>();
                self.warp_costs[w] += total;
                if self.stats {
                    self.warp_active[w] += total * f64::from(warp_size);
                }
            }
        }
    }

    /// `__syncthreads`: aligns every warp of the block to the slowest one.
    pub fn sync(&mut self) {
        let max = self.warp_costs.iter().copied().fold(0.0, f64::max);
        for c in &mut self.warp_costs {
            *c = max;
        }
    }

    // ---- finalization ----------------------------------------------------

    pub(crate) fn finish(self) -> Result<BlockCost, LaunchError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.shared.overflowed() {
            return Err(LaunchError::SharedMemOverflow {
                block_idx: self.block_idx,
                used: self.shared.used(),
                declared: self.shared.declared(),
            });
        }
        Ok(BlockCost {
            warp_costs: self.warp_costs,
            warp_active: self.warp_active,
            mem: self.counters.snapshot(),
        })
    }
}

impl std::fmt::Debug for BlockCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCtx")
            .field("block_idx", &self.block_idx)
            .field("block_dim", &self.block_dim)
            .field("grid_dim", &self.grid_dim)
            .field("num_warps", &self.num_warps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block<'a>(spec: &'a GpuSpec, model: &'a CostModel, dim: u32) -> BlockCtx<'a> {
        BlockCtx::new(0, dim, 16, 4096, spec, model)
    }

    #[test]
    fn per_thread_phase_charges_warp_maximum() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16); // 2 warps
        b.for_each_thread(|l| {
            // thread t charges t units: warp 0 max = 7, warp 1 max = 15.
            l.charge(f64::from(l.thread_idx()));
        });
        let cost = b.finish().unwrap();
        let p = model.thread_prologue_cost;
        assert_eq!(cost.warp_costs.len(), 2);
        assert!((cost.warp_costs[0] - (p + 7.0)).abs() < 1e-12);
        assert!((cost.warp_costs[1] - (p + 15.0)).abs() < 1e-12);
        assert!((cost.critical_warp() - (p + 15.0)).abs() < 1e-12);
        assert!((cost.total_units() - (2.0 * p + 22.0)).abs() < 1e-12);
    }

    #[test]
    fn sync_aligns_warps_to_slowest() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16);
        b.for_each_thread(|l| l.charge(if l.warp_id() == 1 { 100.0 } else { 1.0 }));
        b.sync();
        let cost = b.finish().unwrap();
        assert_eq!(cost.warp_costs[0], cost.warp_costs[1]);
    }

    #[test]
    fn multi_warp_group_barrier_charges_all_covered_warps() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16);
        // One group of 16 spanning both warps; lane 15 is the slowpoke.
        b.for_each_group(16, |g| {
            g.phase_for_each(|l| l.charge(if l.group_rank() == 15 { 50.0 } else { 1.0 }));
        });
        let cost = b.finish().unwrap();
        let expect = model.thread_prologue_cost + 50.0;
        assert!((cost.warp_costs[0] - expect).abs() < 1e-12);
        assert!((cost.warp_costs[1] - expect).abs() < 1e-12);
    }

    #[test]
    fn sub_warp_groups_share_a_warp_without_summing() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 8); // 1 warp, two groups of 4
        b.for_each_group(4, |g| {
            let heavy = if g.group_idx() == 0 { 10.0 } else { 30.0 };
            g.phase_for_each(|l| l.charge(if l.group_rank() == 0 { heavy } else { 1.0 }));
        });
        let cost = b.finish().unwrap();
        // Lockstep: warp pays max(10, 30), not 10 + 30.
        let expect = model.thread_prologue_cost + 30.0;
        assert!(
            (cost.warp_costs[0] - expect).abs() < 1e-12,
            "got {}",
            cost.warp_costs[0]
        );
    }

    #[test]
    fn bad_group_size_fails_launch() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16);
        b.for_each_group(5, |_| {});
        assert!(matches!(
            b.finish(),
            Err(LaunchError::BadGroupSize { group_size: 5, .. })
        ));
    }

    #[test]
    fn shared_overflow_fails_launch() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = BlockCtx::new(3, 8, 16, 16, &spec, &model); // declared 16 B
        let _buf = b.alloc_shared::<u64>(4); // 32 B > 16 B
        assert!(matches!(
            b.finish(),
            Err(LaunchError::SharedMemOverflow { block_idx: 3, .. })
        ));
    }

    #[test]
    fn counters_flow_from_lanes_to_block_cost() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 8);
        b.for_each_thread(|l| {
            l.read_bytes(4);
            l.write_bytes(2);
        });
        let cost = b.finish().unwrap();
        assert_eq!(cost.mem.read_bytes, 8 * 4);
        assert_eq!(cost.mem.write_bytes, 8 * 2);
    }

    #[test]
    fn stats_off_leaves_warp_active_unallocated() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16);
        b.for_each_thread(|l| l.charge(1.0));
        let cost = b.finish().unwrap();
        assert!(cost.warp_active.is_empty());
        assert_eq!(cost.warp_active.capacity(), 0, "no hidden allocation");
    }

    #[test]
    fn stats_on_collects_lane_activity_without_changing_costs() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let run = |stats: bool| {
            let mut b = BlockCtx::with_stats(0, 8, 16, 4096, &spec, &model, stats);
            // Half the lanes do 10× the work: heavy divergence.
            b.for_each_thread(|l| l.charge(if l.lane_id() < 4 { 10.0 } else { 1.0 }));
            b.finish().unwrap()
        };
        let plain = run(false);
        let traced = run(true);
        assert_eq!(plain.warp_costs, traced.warp_costs, "stats must not perturb costs");
        let p = model.thread_prologue_cost;
        // Lane sum: 4×(p+10) + 4×(p+1) = 8p + 44.
        assert_eq!(traced.warp_active.len(), 1);
        assert!((traced.warp_active[0] - (8.0 * p + 44.0)).abs() < 1e-12);
        // Mean lane activity is well below 1.0 for this divergent phase.
        let frac = traced.warp_active[0] / (8.0 * traced.warp_costs[0]);
        assert!(frac < 0.8, "got {frac}");
    }

    #[test]
    fn stats_on_group_phase_reports_full_activity() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let mut b = BlockCtx::with_stats(0, 16, 16, 4096, &spec, &model, true);
        b.for_each_group(16, |g| {
            g.phase_for_each(|l| l.charge(if l.group_rank() == 0 { 5.0 } else { 1.0 }));
        });
        let cost = b.finish().unwrap();
        // Barrier-aligned: every warp fully active for its charged cost.
        for (c, a) in cost.warp_costs.iter().zip(&cost.warp_active) {
            assert!((a - c * 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn idle_tail_is_bitwise_equal_to_running_every_thread() {
        // Block 13 on 8-wide warps: the second warp is partial.
        let spec = GpuSpec::test_tiny();
        let work = |l: &LaneCtx<'_>| {
            l.charge(0.1 * f64::from(l.thread_idx() + 1));
            l.read_bytes(u64::from(l.thread_idx()) + 3);
            if l.lane_id().is_multiple_of(3) {
                l.charge_atomic();
            }
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check = |model: &CostModel, active: u32, stats: bool, phases: u32| {
            let mut tail = BlockCtx::with_stats(0, 13, 16, 4096, &spec, model, stats);
            let mut every = BlockCtx::with_stats(0, 13, 16, 4096, &spec, model, stats);
            let mut runs = 0u32;
            for _ in 0..phases {
                tail.for_each_active_thread(active, |l| {
                    runs += 1;
                    work(l);
                });
                every.for_each_thread(|l| {
                    if l.thread_idx() < active {
                        work(l);
                    }
                });
            }
            let p = model.thread_prologue_cost;
            let label = format!("prologue {p}, active {active}, stats {stats}, {phases} phase(s)");
            assert_eq!(runs, phases * active.min(13), "{label}");
            let (tail, every) = (tail.finish().unwrap(), every.finish().unwrap());
            assert_eq!(bits(&tail.warp_costs), bits(&every.warp_costs), "{label}");
            assert_eq!(bits(&tail.warp_active), bits(&every.warp_active), "{label}");
            assert_eq!(tail.warp_active.len(), if stats { 2 } else { 0 }, "{label}");
            assert_eq!(tail.mem, every.mem, "{label}");
        };
        // The standard prologue, and one whose repeated sums round.
        let rounding = CostModel {
            thread_prologue_cost: 0.1,
            ..CostModel::standard()
        };
        for model in [CostModel::standard(), rounding] {
            for active in [0u32, 1, 7, 8, 9, 13, 20] {
                for stats in [false, true] {
                    // One phase pays the prologue; a second phase pays none.
                    for phases in 1..=2 {
                        check(&model, active, stats, phases);
                    }
                }
            }
        }
    }

    #[test]
    fn prologue_charged_once_across_thread_phases() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 8);
        b.for_each_thread(|_| {});
        b.for_each_thread(|_| {});
        let cost = b.finish().unwrap();
        assert!((cost.warp_costs[0] - model.thread_prologue_cost).abs() < 1e-12);
    }
}
