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
use crate::group::{GroupCtx, PhaseLog};
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
    warp_idle: Vec<f64>,
    counters: MemCounters,
    shared: SharedTracker,
    prologue_charged: bool,
    stats: bool,
    error: Option<LaunchError>,
    /// Lent to each group in turn by [`Self::for_each_group`].
    group_log: PhaseLog,
    /// The warp [`Self::for_each_group`] is aggregating.
    open_warp: OpenWarp,
}

/// Per phase, what a warp has been charged so far by the groups with a
/// lane in it: the maximum of their phase maxima, and (traced only) each
/// of its lanes' units, `warp_size` values per phase. A lane that did not
/// run a phase reads 0.
#[derive(Debug, Default)]
struct OpenWarp {
    charge: Vec<f64>,
    lane_units: Vec<f64>,
}

/// Aggregated cost of one executed block, consumed by the timing model.
#[derive(Debug, Clone)]
pub struct BlockCost {
    /// Work units accumulated by each warp of the block.
    pub warp_costs: Vec<f64>,
    /// Idle lane time per warp, in work units — the divergence profile
    /// behind `warp_costs`. In every per-thread phase each of the warp's
    /// `warp_size` lanes adds how far its units fall short of the warp's
    /// maximum (a lane past the end of a partial warp adds the whole
    /// maximum), and a [`BlockCtx::sync`] adds the wait of all
    /// `warp_size` lanes. Group phases follow the same rule against the
    /// warp's charge for the phase (see [`BlockCtx::for_each_group`]).
    /// `idle / cost` is the warp's idle-lane equivalents, exactly 0 when
    /// every lane ran the warp's full cost. Collected only when the launch
    /// is traced (empty otherwise, so untraced launches allocate nothing
    /// extra).
    pub warp_idle: Vec<f64>,
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

    /// `stats` additionally collects per-warp idle lane time for tracing;
    /// off, the block allocates and computes nothing extra.
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
            warp_idle: if stats { vec![0.0; num_warps] } else { Vec::new() },
            counters: MemCounters::new(),
            shared: SharedTracker::new(shared_declared),
            prologue_charged: false,
            stats,
            error: None,
            group_log: PhaseLog {
                maxima: Vec::new(),
                lane_units: stats.then(Vec::new),
            },
            open_warp: OpenWarp::default(),
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
    /// block still takes each idle thread's step of idle lane time, in
    /// thread order, exactly as the lanes would have.
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
            let mut idle = 0.0f64; // traced: this phase's idle lane time
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
                if self.stats {
                    idle += idle_step(warp_max, lane.units(), t - first);
                }
                warp_max = warp_max.max(lane.units());
            }
            if busy_end < end {
                if self.stats {
                    for t in busy_end..end {
                        idle += idle_step(warp_max, idle_units, t - first);
                        warp_max = warp_max.max(idle_units);
                    }
                }
                warp_max = warp_max.max(idle_units);
            }
            if self.stats {
                // Lanes past the end of a partial warp idle throughout.
                self.warp_idle[w] += idle + f64::from(warp_size - (end - first)) * warp_max;
            }
            *cost += warp_max;
        }
    }

    /// Partition the block into cooperative groups of `group_size`
    /// consecutive threads and run `f` once per group.
    ///
    /// `group_size` must evenly tile the block; it need not divide the
    /// warp, nor the warp it. A group phase ends with a barrier across the
    /// group, so it lasts the group's slowest lane, and lanes of several
    /// groups that share a warp run in lockstep. One rule covers both:
    /// each warp is charged, per phase, the maximum phase cost over the
    /// groups that have a lane in it. A traced block books, per phase,
    /// each of the warp's lanes' shortfall from that charge; a collective
    /// or a [`GroupCtx::sync`] counts as every lane of its group spending
    /// the step, and a lane that did not run the phase (its group ran
    /// fewer, or it lies past the block's end) books the whole charge.
    pub fn for_each_group(&mut self, group_size: u32, mut f: impl FnMut(&mut GroupCtx<'_>)) {
        if group_size == 0 || !self.block_dim.is_multiple_of(group_size) {
            self.error = Some(LaunchError::BadGroupSize {
                group_size,
                block_dim: self.block_dim,
            });
            return;
        }
        let (ws, gs) = (self.spec.warp_size as usize, group_size as usize);
        let mut log = std::mem::take(&mut self.group_log);
        let mut warp = std::mem::take(&mut self.open_warp);
        for g in 0..self.block_dim / group_size {
            let mut gc = GroupCtx::new(
                g,
                group_size,
                self.block_idx,
                self.block_dim,
                self.grid_dim,
                self.spec.warp_size,
                self.model,
                &self.counters,
                &self.shared,
                log,
            );
            f(&mut gc);
            log = gc.into_log();
            let (lo, hi) = (g as usize * gs, (g as usize + 1) * gs);
            // Groups run in order, so a warp is open across groups only
            // while the group holding its last lane has yet to run.
            for w in lo / ws..=(hi - 1) / ws {
                let (first, end) = (w * ws, ((w + 1) * ws).min(self.block_dim as usize));
                if first >= lo {
                    warp.charge.clear();
                    warp.lane_units.clear();
                }
                if warp.charge.len() < log.maxima.len() {
                    warp.charge.resize(log.maxima.len(), 0.0);
                }
                for (c, &m) in warp.charge.iter_mut().zip(&log.maxima) {
                    *c = c.max(m);
                }
                if let Some(units) = &log.lane_units {
                    warp.lane_units.resize(warp.charge.len() * ws, 0.0);
                    let (from, to) = (lo.max(first), hi.min(end));
                    for p in 0..log.maxima.len() {
                        warp.lane_units[p * ws + from - first..p * ws + to - first]
                            .copy_from_slice(&units[p * gs + from - lo..p * gs + to - lo]);
                    }
                }
                if end <= hi {
                    self.warp_costs[w] += warp.charge.iter().sum::<f64>();
                    if self.stats {
                        let mut idle = 0.0f64;
                        let phases = warp.charge.iter().zip(warp.lane_units.chunks_exact(ws));
                        for (&c, lanes) in phases {
                            for &u in lanes {
                                idle += c - u;
                            }
                        }
                        self.warp_idle[w] += idle;
                    }
                }
            }
        }
        self.group_log = log;
        self.open_warp = warp;
    }

    /// `__syncthreads`: aligns every warp of the block to the slowest one.
    pub fn sync(&mut self) {
        let max = self.warp_costs.iter().copied().fold(0.0, f64::max);
        let warp_size = f64::from(self.spec.warp_size);
        for (w, c) in self.warp_costs.iter_mut().enumerate() {
            if self.stats {
                self.warp_idle[w] += warp_size * (max - *c);
            }
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
            warp_idle: self.warp_idle,
            mem: self.counters.snapshot(),
        })
    }
}

/// The idle lane time one more lane adds to a warp phase whose `seen`
/// earlier lanes peaked at `max`: its own shortfall from `max`, or, when
/// its `units` set a new maximum, the rise that every earlier lane now
/// waits out. Summed over a phase's lanes in order this is each lane's
/// shortfall from the phase maximum, and a lane at the maximum adds
/// exactly 0.
fn idle_step(max: f64, units: f64, seen: u32) -> f64 {
    if units > max {
        f64::from(seen) * (units - max)
    } else {
        max - units
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
    fn stats_off_leaves_warp_idle_unallocated() {
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let mut b = block(&spec, &model, 16);
        b.for_each_thread(|l| l.charge(1.0));
        let cost = b.finish().unwrap();
        assert!(cost.warp_idle.is_empty());
        assert_eq!(cost.warp_idle.capacity(), 0, "no hidden allocation");
    }

    #[test]
    fn stats_on_collects_idle_lane_time_without_changing_costs() {
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
        // Four lanes each idle 9 units of the warp's p + 10.
        assert_eq!(traced.warp_idle, vec![36.0]);
    }

    #[test]
    fn stats_on_group_phase_books_each_lanes_wait_for_the_barrier() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let run = |stats: bool| {
            let mut b = BlockCtx::with_stats(0, 16, 16, 4096, &spec, &model, stats);
            b.for_each_group(16, |g| {
                g.phase_for_each(|l| l.charge(if l.group_rank() == 0 { 5.0 } else { 1.0 }));
            });
            b.finish().unwrap()
        };
        let (plain, traced) = (run(false), run(true));
        assert_eq!(
            plain.warp_costs, traced.warp_costs,
            "stats must not perturb costs"
        );
        assert_eq!(plain.warp_idle.capacity(), 0, "no hidden allocation");
        // Both warps are charged lane 0's p + 5. Warp 0's seven other
        // lanes and all eight of warp 1's wait 4 units each.
        assert_eq!(traced.warp_idle, vec![28.0, 32.0]);
    }

    #[test]
    fn groups_that_straddle_warps_charge_every_warp_they_touch() {
        // Block 24 on 8-wide warps, every lane charging 100 + its rank:
        // each of the three warps pays the prologue plus its groups'
        // heaviest lane, whatever the group size.
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let run = |group_size: u32, stats: bool| {
            let mut b = BlockCtx::with_stats(0, 24, 1, 0, &spec, &model, stats);
            b.for_each_group(group_size, |g| {
                g.phase_for_each(|l| l.charge(100.0 + f64::from(l.group_rank())));
            });
            b.finish().unwrap()
        };
        for (group_size, total) in [(3, 330.0), (6, 339.0), (12, 357.0)] {
            let cost = run(group_size, false);
            assert_eq!(cost.total_units(), total, "groups of {group_size}");
            assert_eq!(cost.warp_costs, run(group_size, true).warp_costs);
        }
        // Groups of 12, each charged its rank-11 lane's p + 111: warp 1
        // holds ranks 8..12 of group 0 and ranks 0..4 of group 1.
        let traced = run(12, true);
        let group0 = (0..8).map(|r| 11.0 - f64::from(r)).sum::<f64>();
        let shared = (8..12).map(|r| 11.0 - f64::from(r)).sum::<f64>()
            + (0..4).map(|r| 11.0 - f64::from(r)).sum::<f64>();
        let group1 = (4..12).map(|r| 11.0 - f64::from(r)).sum::<f64>();
        assert_eq!(traced.warp_idle, vec![group0, shared, group1]);
    }

    #[test]
    fn group_phases_match_a_per_warp_reference_on_random_shapes() {
        // Groups of every size that tiles the block, each running its own
        // number of phases with seeded charges, against the rule computed
        // warp by warp: per phase, the max over the groups with a lane in
        // it; traced, each lane's shortfall from that, 0 units for a lane
        // that did not run the phase.
        let spec = GpuSpec::test_tiny(); // warp = 8
        let model = CostModel::standard();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for block in [8u32, 12, 24, 32] {
            for group in (1..=block).filter(|g| block % g == 0) {
                let phases: Vec<usize> = (0..block / group)
                    .map(|_| 1 + next() as usize % 4)
                    .collect();
                let charge: Vec<f64> = (0..block * 4)
                    .map(|_| (next() % 1000) as f64 / 7.0)
                    .collect();
                // units[p][t]: thread t's units in phase p, 0 if not run.
                let units = |p: usize, t: usize| {
                    if p >= phases[t / group as usize] {
                        0.0
                    } else if p == 0 {
                        model.thread_prologue_cost + charge[t]
                    } else {
                        0.0 + charge[p * block as usize + t]
                    }
                };
                let (ws, bd) = (spec.warp_size as usize, block as usize);
                let mut want_cost = Vec::new();
                let mut want_idle = Vec::new();
                for w in 0..bd.div_ceil(ws) {
                    let lanes = w * ws..((w + 1) * ws).min(bd);
                    let groups = lanes.start / group as usize..=(lanes.end - 1) / group as usize;
                    let n = groups.clone().map(|g| phases[g]).max().unwrap();
                    let max_of = |p: usize, g: usize| {
                        let members = g * group as usize..(g + 1) * group as usize;
                        members.map(|t| units(p, t)).fold(0.0, f64::max)
                    };
                    let c: Vec<f64> = (0..n)
                        .map(|p| groups.clone().map(|g| max_of(p, g)).fold(0.0, f64::max))
                        .collect();
                    want_cost.push(0.0 + c.iter().sum::<f64>());
                    let mut idle = 0.0f64;
                    for (p, &cp) in c.iter().enumerate() {
                        for i in 0..ws {
                            let t = w * ws + i;
                            idle += cp - if t < bd { units(p, t) } else { 0.0 };
                        }
                    }
                    want_idle.push(idle);
                }
                for stats in [false, true] {
                    let mut b = BlockCtx::with_stats(0, block, 1, 0, &spec, &model, stats);
                    b.for_each_group(group, |g| {
                        for p in 0..phases[g.group_idx() as usize] {
                            let row = p * block as usize;
                            g.phase_for_each(|l| l.charge(charge[row + l.thread_idx() as usize]));
                        }
                    });
                    let cost = b.finish().unwrap();
                    let label = format!("block {block}, groups of {group}, stats {stats}");
                    assert_eq!(cost.warp_costs, want_cost, "{label}");
                    let idle = if stats { want_idle.clone() } else { Vec::new() };
                    assert_eq!(cost.warp_idle, idle, "{label}");
                }
            }
        }
    }

    #[test]
    fn group_idle_lanes_cover_collectives_short_groups_and_partial_warps() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let zero_prologue = CostModel {
            thread_prologue_cost: 0.0,
            ..CostModel::standard()
        };
        let step = zero_prologue.collective(4);
        // Block 12: warp 1 holds group 2 and four lanes past the block's
        // end. Group 0 runs two phases; groups 1 and 2 run one, then a
        // collective step that every one of their lanes spends.
        let mut b = BlockCtx::with_stats(0, 12, 1, 0, &spec, &zero_prologue, true);
        b.for_each_group(4, |g| {
            g.phase_for_each(|l| l.charge(if l.group_rank() == 0 { 4.0 } else { 1.0 }));
            if g.group_idx() == 0 {
                g.phase_for_each(|l| l.charge(2.0));
            } else {
                g.charge_collective_step();
            }
        });
        let cost = b.finish().unwrap();
        assert_eq!(cost.warp_costs, vec![4.0 + step.max(2.0), 4.0 + step]);
        // Warp 0, phase 0: six lanes wait 3. Phase 1 is charged
        // max(step, 2): group 0's lanes ran 2, group 1's the step.
        let phase1 = 4.0 * (step.max(2.0) - 2.0) + 4.0 * (step.max(2.0) - step);
        assert_eq!(cost.warp_idle[0], 6.0 * 3.0 + phase1);
        // Warp 1: three lanes wait 3 in phase 0, the collective costs its
        // four lanes nothing idle, and the four missing lanes book both
        // phases whole.
        assert_eq!(cost.warp_idle[1], 3.0 * 3.0 + 4.0 * (4.0 + step));
        // Every lane of a warp running the warp's full charge books 0.
        let standard = CostModel::standard();
        let mut b = BlockCtx::with_stats(0, 16, 1, 0, &spec, &standard, true);
        b.for_each_group(4, |g| {
            g.phase_for_each(|l| l.charge(0.1));
            g.sync();
            g.charge_collective_step();
        });
        assert_eq!(b.finish().unwrap().warp_idle, vec![0.0, 0.0]);
    }

    #[test]
    fn idle_lanes_count_against_the_device_warp_width() {
        let spec = GpuSpec::test_tiny(); // warp = 8
        let zero_prologue = CostModel {
            thread_prologue_cost: 0.0,
            ..CostModel::standard()
        };
        let traced = |model: &CostModel, dim: u32, f: &dyn Fn(&LaneCtx<'_>)| {
            let mut b = BlockCtx::with_stats(0, dim, 1, 0, &spec, model, true);
            b.for_each_thread(f);
            b.finish().unwrap()
        };
        // One busy lane of eight, wherever it sits: seven idle-lane
        // equivalents.
        for busy in 0..8 {
            let one = traced(&zero_prologue, 8, &|l| {
                if l.lane_id() == busy {
                    l.charge(2.5);
                }
            });
            assert_eq!(one.warp_idle[0] / one.warp_costs[0], 7.0, "busy lane {busy}");
        }
        // Eight lanes at 0.1 each: their f64 sum rounds to under 8 × 0.1,
        // yet every lane ran the warp's full cost.
        assert_ne!((0..8).map(|_| 0.1f64).sum::<f64>(), 8.0 * 0.1);
        for model in [zero_prologue.clone(), CostModel::standard()] {
            let full = traced(&model, 8, &|l| l.charge(0.1));
            assert_eq!(full.warp_idle, vec![0.0]);
        }
        // Three lanes of an 8-wide warp: the five missing lanes idle.
        let partial = traced(&zero_prologue, 3, &|l| l.charge(2.5));
        assert_eq!(partial.warp_idle[0] / partial.warp_costs[0], 5.0);
        // A barrier books every lane's wait: warp 0 waits 4 units for warp 1.
        let mut b = BlockCtx::with_stats(0, 16, 1, 0, &spec, &zero_prologue, true);
        b.for_each_thread(|l| l.charge(if l.warp_id() == 1 { 5.0 } else { 1.0 }));
        b.sync();
        assert_eq!(b.finish().unwrap().warp_idle, vec![32.0, 0.0]);
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
            assert_eq!(bits(&tail.warp_idle), bits(&every.warp_idle), "{label}");
            assert_eq!(tail.warp_idle.len(), if stats { 2 } else { 0 }, "{label}");
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
