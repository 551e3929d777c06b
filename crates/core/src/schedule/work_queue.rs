//! A *dynamic* load-balancing schedule: a global work queue.
//!
//! The paper's abstraction "aims to support both static and dynamic
//! schedules" (§Abstract); the static family (thread/warp/block/group/
//! merge-path) fixes the work→processor map before launch, while a
//! dynamic schedule discovers it at run time. This is the classic
//! persistent-kernel pattern the related work builds entire systems
//! around (Tzeng et al., CUIRRE, Atos — §7): a fixed, device-filling
//! launch in which every thread loops, claiming a chunk of tiles from a
//! device-global atomic counter until the queue runs dry.
//!
//! ## Simulation note
//!
//! On hardware the queue's claims interleave adaptively: whichever warp
//! finishes first grabs the next chunk. The simulator executes lanes to
//! completion, so a literal atomic counter would let the first simulated
//! lane drain the entire queue — a simulation artifact, not a schedule
//! property. We therefore model the *fair-progress* approximation of a
//! dynamic queue: claims are served round-robin across the persistent
//! threads, and every claim is charged the global-atomic cost the real
//! counter would incur. This captures the two things that distinguish
//! the dynamic schedule analytically — problem-size-independent launch
//! shape and per-chunk claiming overhead — while its adaptive advantage
//! on heterogeneous chunks is (conservatively) not credited.
//!
//! The persistent launch fills the device whatever the problem size, so
//! on a small input most of its threads find the queue dry on their
//! first grab. Those threads are charged, not run: first claims go out
//! block-cyclically, so the threads that get one are a prefix of each
//! block ([`WorkQueueSchedule::claiming_threads`]), and the dispatch
//! engine simulates only that prefix lane by lane. The idle rest pay the
//! thread prologue through [`simt::BlockCtx::for_each_active_thread`],
//! which gives the same bits as running them. Whole blocks go the same
//! way: with fewer chunks than blocks, the blocks from index `chunks` on
//! get no first claim at all, so every one of them touches no memory and
//! costs what the first of them costs. [`WorkQueueSchedule::launch_config`]
//! declares them an idle tail ([`simt::LaunchConfig::with_idle_tail`]),
//! and the launch runs only the first and charges the rest as its
//! repeats, again with the same bits as running them.

use crate::ranges::{step_range, Charged, StepRange};
use crate::work::TileSet;
use simt::{LaneCtx, LaunchConfig};

/// Dynamic work-queue schedule over a tile set.
#[derive(Debug, Clone, Copy)]
pub struct WorkQueueSchedule<'w, W> {
    work: &'w W,
    chunk: usize,
}

impl<'w, W: TileSet> WorkQueueSchedule<'w, W> {
    /// Create a schedule claiming `chunk` consecutive tiles per grab
    /// (larger chunks amortize the atomic; smaller chunks balance
    /// better). A zero chunk is clamped to 1 here — the guard every call
    /// site used to carry — so `WorkQueue(0)` can never panic or spin.
    pub fn new(work: &'w W, chunk: usize) -> Self {
        Self {
            work,
            chunk: chunk.max(1),
        }
    }

    /// A launch sized like a persistent kernel: enough blocks to fill
    /// every SM at full occupancy, independent of the problem size. The
    /// blocks past the first `min(chunks, grid)` get no first claim and
    /// are declared the launch's idle tail.
    pub fn launch_config(&self, spec: &simt::GpuSpec, block_dim: u32) -> LaunchConfig {
        let occ = simt::Occupancy::compute(spec, block_dim, 0)
            .map(|o| o.blocks_per_sm)
            .unwrap_or(1);
        let grid = spec.num_sms * occ;
        let busy = self.chunks().min(grid as usize) as u32;
        LaunchConfig::new(grid, block_dim).with_idle_tail(busy)
    }

    /// Chunks in the queue: `⌈tiles / chunk⌉`.
    fn chunks(&self) -> usize {
        self.work.num_tiles().div_ceil(self.chunk)
    }

    /// How many threads of block `block_idx` get a first claim, in a
    /// launch of `grid_dim` blocks of `block_dim` threads. Thread `t`'s
    /// first claim is chunk `t · grid_dim + block_idx`, so the threads
    /// with one are a prefix of the block: `0..claiming_threads(..)`.
    /// Every later thread finds the queue dry at once and does nothing.
    ///
    /// # Panics
    ///
    /// If `grid_dim` is zero (no launch has an empty grid).
    pub fn claiming_threads(&self, block_idx: u32, grid_dim: u32, block_dim: u32) -> u32 {
        let from_this_block = self.chunks().saturating_sub(block_idx as usize);
        let claiming = from_this_block.div_ceil(grid_dim as usize);
        claiming.min(block_dim as usize) as u32
    }

    // LOC-BEGIN(work_queue)
    /// Run `f(lane, tile)` for every tile this persistent thread claims.
    /// Each claim costs one global atomic (the queue counter). Claims are
    /// served *block-cyclically* — chunk `c` goes to block `c mod grid`,
    /// lane `(c / grid) mod block` — because on hardware the first claims
    /// land on warps spread across every SM, not on the lowest thread ids.
    pub fn process_tiles(&self, lane: &LaneCtx<'_>, mut f: impl FnMut(&LaneCtx<'_>, usize)) {
        let num_tiles = self.work.num_tiles();
        let grid = lane.grid_dim() as usize;
        let block = lane.block_dim() as usize;
        let mut k = 0usize;
        loop {
            let claim = (k * block + lane.thread_idx() as usize) * grid + lane.block_idx() as usize;
            let start = claim * self.chunk;
            if start >= num_tiles {
                break;
            }
            lane.charge_atomic(); // queue.fetch_add(chunk)
            let end = (start + self.chunk).min(num_tiles);
            for tile in Charged::tiles(step_range(start, end, 1), lane) {
                f(lane, tile);
            }
            k += 1;
        }
    }

    /// Charged range over one claimed tile's atoms (same consumption shape
    /// as the static schedules).
    pub fn atoms<'l, 'm>(&self, tile: usize, lane: &'l LaneCtx<'m>) -> Charged<'l, 'm, StepRange> {
        let r = self.work.tile_atoms(tile);
        Charged::atoms(step_range(r.start, r.end, 1), lane)
    }
    // LOC-END(work_queue)

    /// The wrapped tile set.
    pub fn work(&self) -> &'w W {
        self.work
    }

    /// Tiles claimed per atomic grab.
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::CountedTiles;
    use simt::{GlobalMem, GpuSpec};

    fn run_coverage(counts: Vec<usize>, chunk: usize) {
        let w = CountedTiles::from_counts(counts);
        let sched = WorkQueueSchedule::new(&w, chunk);
        let spec = GpuSpec::test_tiny();
        let mut tile_hits = vec![0u32; w.num_tiles().max(1)];
        let mut atom_hits = vec![0u32; w.num_atoms().max(1)];
        {
            let gt = GlobalMem::new(&mut tile_hits);
            let ga = GlobalMem::new(&mut atom_hits);
            simt::launch_threads(&spec, sched.launch_config(&spec, 16), |t| {
                sched.process_tiles(t, |lane, tile| {
                    gt.fetch_add(tile, 1);
                    for atom in sched.atoms(tile, lane) {
                        ga.fetch_add(atom, 1);
                    }
                });
            })
            .unwrap();
        }
        if w.num_tiles() > 0 {
            assert!(tile_hits.iter().all(|&h| h == 1), "tile coverage");
        }
        if w.num_atoms() > 0 {
            assert!(atom_hits.iter().all(|&h| h == 1), "atom coverage");
        }
    }

    #[test]
    fn claims_every_tile_exactly_once() {
        run_coverage(vec![2, 0, 3, 1, 4, 9, 0, 7], 1);
        run_coverage(vec![2, 0, 3, 1, 4, 9, 0, 7], 3);
        run_coverage((0..500).map(|i| i % 7).collect(), 4);
        run_coverage(vec![], 2);
        run_coverage(vec![0; 100], 8);
    }

    #[test]
    fn persistent_launch_is_problem_size_independent() {
        let w = CountedTiles::from_counts(vec![1; 1_000_000]);
        let sched = WorkQueueSchedule::new(&w, 32);
        let spec = GpuSpec::v100();
        let cfg = sched.launch_config(&spec, 256);
        // 80 SMs × 8 blocks of 256 threads — not a million threads.
        assert_eq!(cfg.grid_dim, 80 * 8);
        assert_eq!(cfg.busy_blocks, 80 * 8, "31,250 chunks: every block claims");
        // 100 tiles in chunks of 32 make 4 chunks: blocks 4.. are idle.
        let small = CountedTiles::from_counts(vec![1; 100]);
        let cfg = WorkQueueSchedule::new(&small, 32).launch_config(&spec, 256);
        assert_eq!((cfg.grid_dim, cfg.busy_blocks), (80 * 8, 4));
    }

    #[test]
    fn claiming_atomics_are_charged_per_chunk() {
        let w = CountedTiles::from_counts(vec![1; 64]);
        let spec = GpuSpec::test_tiny();
        for &chunk in &[1usize, 4, 16] {
            let sched = WorkQueueSchedule::new(&w, chunk);
            let report = simt::launch_threads(&spec, LaunchConfig::new(1, 8), |t| {
                sched.process_tiles(t, |_, _| {});
            })
            .unwrap();
            let expected_claims = 64usize.div_ceil(chunk) as u64;
            assert_eq!(
                report.mem.atomic_ops, expected_claims,
                "chunk {chunk}: one atomic per claim"
            );
        }
    }

    #[test]
    fn dynamic_overhead_on_balanced_work_is_bounded() {
        // The documented trade: on perfectly balanced work the dynamic
        // schedule pays its claiming atomics but stays within a small
        // factor of the static mapping.
        let w = CountedTiles::from_counts(vec![8usize; 50_000]);
        let spec = GpuSpec::v100();
        let sched = WorkQueueSchedule::new(&w, 4);
        let dynamic = simt::launch_threads(&spec, sched.launch_config(&spec, 256), |t| {
            sched.process_tiles(t, |lane, tile| {
                for _ in sched.atoms(tile, lane) {}
            });
        })
        .unwrap();
        let tsched = crate::schedule::ThreadMappedSchedule::new(&w);
        let static_tm = simt::launch_threads(
            &spec,
            LaunchConfig::over_threads(w.num_tiles() as u64, 256),
            |t| {
                for tile in tsched.tiles(t) {
                    for _ in tsched.atoms(tile, t) {}
                }
            },
        )
        .unwrap();
        let (d, s) = (dynamic.timing.compute_ms, static_tm.timing.compute_ms);
        assert!(d < 4.0 * s, "dynamic {d} should stay near static {s}");
        // (chunk=4: ~4 tiles per claiming lane vs 1 for static; the gap is
        // parallelism granularity plus the claiming atomics.)
        assert!(d >= s * 0.5, "and not mysteriously beat it: {d} vs {s}");
    }

    #[test]
    fn claiming_threads_are_the_prefix_with_a_first_claim() {
        for num_tiles in 0..=300usize {
            let w = CountedTiles::from_counts(vec![1; num_tiles]);
            for chunk in [1usize, 3, 7, 64] {
                let sched = WorkQueueSchedule::new(&w, chunk);
                for grid in [1u32, 2, 5] {
                    for block in [1u32, 8, 13] {
                        for b in 0..grid {
                            // The first claim `process_tiles` makes.
                            let claims = |t: u32| ((t * grid + b) as usize) * chunk < num_tiles;
                            let want = (0..block).filter(|&t| claims(t)).count() as u32;
                            let label =
                                format!("n {num_tiles} chunk {chunk} block {b} of {grid}x{block}");
                            assert!((0..want).all(claims), "not a prefix: {label}");
                            assert_eq!(sched.claiming_threads(b, grid, block), want, "{label}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_chunk_clamps_to_one() {
        let w = CountedTiles::from_counts([1]);
        assert_eq!(WorkQueueSchedule::new(&w, 0).chunk(), 1);
        assert_eq!(WorkQueueSchedule::new(&w, 5).chunk(), 5);
    }
}
