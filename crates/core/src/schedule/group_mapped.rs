//! The group-mapped schedule (paper §5.2.3) — the paper's novel
//! contribution, generalizing warp- and block-level load balancing
//! (§5.2.2) to cooperative groups of arbitrary size.
//!
//! Each group claims batches of `group_size` consecutive tiles. For a
//! batch, the group (1) loads every tile's atom count into scratchpad,
//! (2) runs a group-wide exclusive prefix sum over the counts, then
//! (3) processes the batch's *atoms* in parallel: lane `r` takes atoms
//! `r, r + group, r + 2·group, …` of the aggregated batch, recovering the
//! owning tile with a binary search in the prefix-sum array (the paper's
//! `get_tile(atom_id)`). Intra-batch imbalance is flattened completely;
//! inter-batch imbalance is left to the hardware's oversubscribed block
//! scheduler — exactly the division of labour §5.2.2 describes.
//!
//! With `group_size = warp` this *is* the classic warp-mapped schedule;
//! with `group_size = block` it is block-mapped; any other power of the
//! problem's shape (including AMD's 64-wide wavefronts) is one constant
//! away — the portability argument of §5.2.3.

use crate::work::TileSet;
use simt::{GpuSpec, GroupCtx, LaneCtx, LaunchConfig};
use std::cell::Cell;

thread_local! {
    /// [`GroupMappedSchedule::process_batches`]' atom → local-tile map. One
    /// buffer per host thread serves every batch, group and launch; its
    /// capacity is the largest batch it has held.
    static TILE_MAP: Cell<Vec<u16>> = const { Cell::new(Vec::new()) };
}

/// Group-mapped (cooperative-groups) schedule over a tile set.
#[derive(Debug, Clone, Copy)]
pub struct GroupMappedSchedule<'w, W> {
    work: &'w W,
    group_size: u32,
}

impl<'w, W: TileSet> GroupMappedSchedule<'w, W> {
    /// Create a schedule with an arbitrary group size (≥ 1).
    pub fn new(work: &'w W, group_size: u32) -> Self {
        assert!(group_size >= 1, "group size must be ≥ 1");
        Self { work, group_size }
    }

    /// The warp-mapped schedule of §5.2.2 — group-mapped at warp width,
    /// "for free" (Table 1).
    pub fn warp_mapped(work: &'w W, spec: &GpuSpec) -> Self {
        Self::new(work, spec.warp_size)
    }

    /// The block-mapped schedule of §5.2.2 — group-mapped at block width.
    pub fn block_mapped(work: &'w W, block_dim: u32) -> Self {
        Self::new(work, block_dim)
    }

    /// Group size in lanes.
    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    /// Shared memory a block of `block_dim` threads needs: one prefix-sum
    /// slot (`u64`) plus one reduction slot (`f32`) per lane.
    pub fn shared_bytes(&self, block_dim: u32) -> u32 {
        block_dim * (std::mem::size_of::<u64>() + std::mem::size_of::<f32>()) as u32
    }

    /// A launch where every group receives roughly one batch of tiles
    /// (rounds handle any remainder), capped at `max_blocks` for
    /// oversubscription control.
    pub fn launch_config(&self, block_dim: u32, max_blocks: u32) -> LaunchConfig {
        let groups_per_block = (block_dim / self.group_size).max(1);
        let tiles_per_block = groups_per_block as usize * self.group_size as usize;
        let grid = self
            .work
            .num_tiles()
            .div_ceil(tiles_per_block)
            .clamp(1, max_blocks as usize) as u32;
        LaunchConfig::new(grid, block_dim).with_shared(self.shared_bytes(block_dim))
    }

    // LOC-BEGIN(group_mapped)
    /// Execute `f(lane, tile, atom)` for every atom of every batch this
    /// group owns. This is the whole schedule: setup (counts + scan into
    /// scratchpad) and the balanced atom loop with `get_tile`.
    pub fn process(&self, g: &mut GroupCtx<'_>, mut f: impl FnMut(&LaneCtx<'_>, usize, usize)) {
        let gs = self.group_size as usize;
        debug_assert_eq!(g.size() as usize, gs, "launch group size mismatch");
        let num_tiles = self.work.num_tiles();
        let stride = (g.num_groups_in_grid() as usize) * gs;
        let mut scan = g.alloc_shared::<u64>(gs);
        let mut base = g.global_group_id() as usize * gs;
        while base < num_tiles {
            // Phase 1: each lane loads its tile's atom count to scratchpad.
            let counts = g.phase(|lane| {
                let tile = base + lane.group_rank() as usize;
                lane.charge_tile();
                lane.charge_shared();
                if tile < num_tiles {
                    self.work.atoms_in_tile(tile) as u64
                } else {
                    0
                }
            });
            scan.copy_from_slice(&counts);
            // Phase 2: group-wide exclusive prefix sum (collective).
            let total_atoms = g.exclusive_scan(&mut scan) as usize;
            // Phase 3: lanes stride the batch's atoms; get_tile() is a
            // binary search in the scratchpad prefix sums.
            g.phase_for_each(|lane| {
                let mut a = lane.group_rank() as usize;
                while a < total_atoms {
                    let local_tile = scan.partition_point(|&s| s <= a as u64) - 1;
                    // get_tile(): a binary search in the scratchpad prefix
                    // sums; consecutive strided atoms move monotonically
                    // through the batch, so real implementations resume the
                    // scan from the previous hit — charge the amortized
                    // two-probe cost rather than a full log2(group) search.
                    lane.charge(lane.model().shared_access_cost * 2.0);
                    let tile = base + local_tile;
                    let within = a - scan[local_tile] as usize;
                    let atom = self.work.tile_offset(tile) + within;
                    lane.charge_atom();
                    lane.charge_range_iter();
                    f(lane, tile, atom);
                    a += gs;
                }
            });
            base += stride;
        }
    }
    // LOC-END(group_mapped)

    /// Load-balanced *transform-reduce-by-tile*: compute `per_atom` for
    /// every atom, segment-reduce the partial results by owning tile (a
    /// group collective), and call `per_tile(lane, tile, sum)` exactly once
    /// per tile. Because every tile is wholly owned by one group batch, the
    /// per-tile result needs no global atomics — this is the cooperative
    /// composition §3.3 of the paper gestures at ("combine the results with
    /// neighboring threads").
    ///
    /// Host-side, `get_tile` reads a map from each atom of the batch to
    /// its local tile, built once per batch in O(atoms + group size),
    /// where [`Self::process`] binary-searches per atom; the simulated
    /// cost and every result are the same. The map stores a local tile in
    /// a `u16`, so a group may be at most 65,536 lanes wide.
    pub fn process_batches(
        &self,
        g: &mut GroupCtx<'_>,
        mut per_atom: impl FnMut(&LaneCtx<'_>, usize, usize) -> f32,
        mut per_tile: impl FnMut(&LaneCtx<'_>, usize, f32),
    ) {
        let gs = self.group_size as usize;
        debug_assert_eq!(g.size() as usize, gs, "launch group size mismatch");
        assert!(
            gs <= 1 << 16,
            "a group of {gs} lanes overflows the u16 tile map"
        );
        let num_tiles = self.work.num_tiles();
        let stride = (g.num_groups_in_grid() as usize) * gs;
        let mut scan = g.alloc_shared::<u64>(gs);
        let mut sums = g.alloc_shared::<f32>(gs);
        let mut map = TILE_MAP.take();
        let mut base = g.global_group_id() as usize * gs;
        while base < num_tiles {
            g.phase_into(&mut scan, |lane| {
                let tile = base + lane.group_rank() as usize;
                lane.charge_tile();
                lane.charge_shared();
                if tile < num_tiles {
                    self.work.atoms_in_tile(tile) as u64
                } else {
                    0
                }
            });
            let total_atoms = g.exclusive_scan(&mut scan) as usize;
            sums.fill(0.0);
            // Local tile `t` owns atoms `scan[t]..scan[t + 1]` (the last
            // one up to the total), so the map is one fill per tile. The
            // exact reserve keeps the kept buffer at the largest batch.
            map.clear();
            map.reserve_exact(total_atoms);
            let ends = scan[1..].iter().map(|&s| s as usize).chain([total_atoms]);
            for (t, end) in ends.enumerate() {
                map.resize(end, t as u16);
            }
            // Balanced atom loop accumulating per-tile partials in
            // scratchpad (lanes of a group execute phase-sequentially in
            // the simulator, so the shared accumulation is race-free; on
            // hardware this is the segmented-reduce tree charged below).
            g.phase_for_each(|lane| {
                let rank = lane.group_rank() as usize;
                for (a, &local_tile) in map.iter().enumerate().skip(rank).step_by(gs) {
                    let local_tile = usize::from(local_tile);
                    // get_tile(): on hardware a binary search in the
                    // scratchpad prefix sums that resumes from the previous
                    // hit — charge the amortized two-probe cost, as
                    // `process` does.
                    lane.charge(lane.model().shared_access_cost * 2.0);
                    let tile = base + local_tile;
                    let within = a - scan[local_tile] as usize;
                    let atom = self.work.tile_offset(tile) + within;
                    lane.charge_atom();
                    lane.charge_range_iter();
                    sums[local_tile] += per_atom(lane, tile, atom);
                }
            });
            // Segmented reduction across lanes (tree): one collective.
            g.charge_collective_step();
            // One write per tile of the batch.
            g.phase_for_each(|lane| {
                let r = lane.group_rank() as usize;
                let tile = base + r;
                if tile < num_tiles {
                    lane.charge_shared();
                    per_tile(lane, tile, sums[r]);
                }
            });
            base += stride;
        }
        TILE_MAP.set(map);
    }

    /// The wrapped tile set.
    pub fn work(&self) -> &'w W {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::CountedTiles;
    use simt::GpuSpec;

    fn check_coverage(counts: Vec<usize>, group_size: u32, grid: u32, block: u32) {
        let w = CountedTiles::from_counts(counts);
        let sched = GroupMappedSchedule::new(&w, group_size);
        let spec = GpuSpec::test_tiny();
        let mut tile_of_atom: Vec<i64> = (0..w.num_atoms()).map(|_| -1).collect();
        let expected: Vec<i64> = (0..w.num_tiles())
            .flat_map(|t| w.tile_atoms(t).map(move |_| t as i64))
            .collect();
        let mut hits = vec![0u32; w.num_atoms().max(1)];
        {
            let gh = simt::GlobalMem::new(&mut hits);
            let gt = simt::GlobalMem::new(&mut tile_of_atom);
            let cfg = LaunchConfig::new(grid, block).with_shared(sched.shared_bytes(block));
            simt::launch_groups(&spec, cfg, group_size, |g| {
                sched.process(g, |_lane, tile, atom| {
                    gh.fetch_add(atom, 1);
                    gt.store(atom, tile as i64);
                });
            })
            .unwrap();
        }
        if w.num_atoms() > 0 {
            assert!(hits.iter().all(|&h| h == 1), "atom coverage");
        }
        assert_eq!(tile_of_atom, expected, "get_tile correctness");
    }

    #[test]
    fn covers_every_atom_with_correct_tiles_across_shapes() {
        check_coverage(vec![2, 0, 3, 1, 4], 8, 1, 8);
        check_coverage(vec![2, 0, 3, 1, 4], 4, 2, 8);
        check_coverage(vec![1; 100], 8, 2, 16);
        check_coverage(vec![50, 0, 0, 0, 0, 0, 0, 7], 8, 1, 8);
        check_coverage(vec![0; 64], 8, 2, 16);
        check_coverage(vec![13], 16, 1, 16);
    }

    #[test]
    fn multiple_rounds_when_tiles_exceed_groups() {
        // 4 groups of 8 in flight, 100 tiles → several rounds each.
        check_coverage((0..100).map(|i| i % 5).collect(), 8, 2, 16);
    }

    #[test]
    fn warp_and_block_constructors_pick_hardware_sizes() {
        let w = CountedTiles::from_counts([1, 2, 3]);
        let spec = GpuSpec::test_tiny();
        assert_eq!(
            GroupMappedSchedule::warp_mapped(&w, &spec).group_size(),
            spec.warp_size
        );
        assert_eq!(GroupMappedSchedule::block_mapped(&w, 128).group_size(), 128);
    }

    #[test]
    fn launch_config_sizes_grid_to_one_batch_per_group() {
        let w = CountedTiles::from_counts(vec![1; 1000]);
        let sched = GroupMappedSchedule::new(&w, 8);
        let cfg = sched.launch_config(32, 10_000);
        // 4 groups per block × 8 tiles each = 32 tiles per block.
        assert_eq!(cfg.grid_dim, 1000usize.div_ceil(32) as u32);
        assert_eq!(cfg.shared_bytes, 32 * 12);
        let capped = sched.launch_config(32, 4);
        assert_eq!(capped.grid_dim, 4);
    }

    #[test]
    fn balances_a_hub_batch_across_lanes() {
        // One batch (8 tiles), one hub of 800 atoms: group-mapped splits
        // the hub across all 8 lanes, so the critical warp cost is ~1/8 of
        // thread-mapped's.
        let w = CountedTiles::from_counts([800, 1, 1, 1, 1, 1, 1, 1]);
        let spec = GpuSpec::test_tiny();
        let sched = GroupMappedSchedule::new(&w, 8);
        let cfg = sched.launch_config(8, 64);
        let group_report = simt::launch_groups(&spec, cfg, 8, |g| {
            sched.process(g, |_, _, _| {});
        })
        .unwrap();
        let tsched = crate::schedule::ThreadMappedSchedule::new(&w);
        let thread_report = simt::launch_threads(&spec, LaunchConfig::new(1, 8), |t| {
            for tile in tsched.tiles(t) {
                for _ in tsched.atoms(tile, t) {}
            }
        })
        .unwrap();
        assert!(
            group_report.timing.compute_ms < thread_report.timing.compute_ms / 2.0,
            "group {} vs thread {}",
            group_report.timing.compute_ms,
            thread_report.timing.compute_ms
        );
    }

    #[test]
    #[should_panic(expected = "≥ 1")]
    fn rejects_zero_group() {
        let w = CountedTiles::from_counts([1]);
        let _ = GroupMappedSchedule::new(&w, 0);
    }

    #[test]
    fn process_batches_reduces_exactly_once_per_tile() {
        // per_atom returns 1.0: per-tile sum must equal the tile's count.
        let counts = vec![2usize, 0, 3, 1, 4, 0, 0, 9, 5, 1, 1, 2];
        let w = CountedTiles::from_counts(counts.clone());
        let sched = GroupMappedSchedule::new(&w, 4);
        let spec = GpuSpec::test_tiny();
        let mut out = vec![-1.0f32; w.num_tiles()];
        {
            let go = simt::GlobalMem::new(&mut out);
            let cfg = LaunchConfig::new(2, 8).with_shared(2 * sched.shared_bytes(8));
            simt::launch_groups(&spec, cfg, 4, |g| {
                sched.process_batches(
                    g,
                    |_, _, _| 1.0,
                    |_, tile, sum| go.store(tile, sum),
                );
            })
            .unwrap();
        }
        let expect: Vec<f32> = counts.iter().map(|&c| c as f32).collect();
        assert_eq!(out, expect);
    }
}
