//! The merge-path schedule (paper §5.2.1; Merrill & Garland's SpMV).
//!
//! Treat the tile boundaries and the atoms as two sorted lists and give
//! every thread an *exactly equal* share of their merger: each thread owns
//! `items_per_thread` consecutive steps of the merge path through the
//! `(tiles, atoms)` grid, found with a 2-D diagonal binary search. A
//! thread's share decomposes into **complete** tiles (it covers all of the
//! tile's atoms — results can be written directly) and **partial** tiles
//! (the tile straddles a thread boundary — contributions must be combined,
//! e.g. with an atomic add or a carry-out fixup).
//!
//! Decoupled from any particular computation, the same schedule balances
//! SpMV, SpMM, or graph traversal over any [`TileSet`] (§5.2.1's central
//! claim); CSR's row offsets are consumed through the tile-offset
//! interface rather than hardwired.

use crate::ranges::{step_range, Charged, StepRange};
use crate::work::TileSet;
use simt::{LaneCtx, LaunchConfig};

/// One thread's span of a tile under merge-path: which atoms of `tile`
/// this thread processes and whether that is the whole tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSpan {
    /// Tile index.
    pub tile: usize,
    /// Flat atom range of this thread's share of the tile.
    pub atoms: std::ops::Range<usize>,
    /// `true` iff the span covers every atom of the tile *and* this thread
    /// consumes the tile's boundary — the result can be written without
    /// combining with other threads.
    pub complete: bool,
}

/// Merge-path schedule over a tile set.
#[derive(Debug, Clone, Copy)]
pub struct MergePathSchedule<'w, W> {
    work: &'w W,
    items_per_thread: usize,
}

impl<'w, W: TileSet> MergePathSchedule<'w, W> {
    /// Create a schedule assigning `items_per_thread` merge items (atoms +
    /// tile boundaries) to each thread. CUB uses ~7 on V100-class parts.
    pub fn new(work: &'w W, items_per_thread: usize) -> Self {
        assert!(items_per_thread >= 1, "items_per_thread must be ≥ 1");
        Self {
            work,
            items_per_thread,
        }
    }

    /// Total merge items: `tiles + atoms` (each tile boundary is one unit
    /// of scheduled work, like each atom).
    pub fn total_work(&self) -> usize {
        self.work.num_tiles() + self.work.num_atoms()
    }

    /// Threads needed to cover the merge path.
    pub fn num_threads(&self) -> usize {
        self.total_work().div_ceil(self.items_per_thread).max(1)
    }

    /// A launch configuration covering [`Self::num_threads`].
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        LaunchConfig::over_threads(self.num_threads() as u64, block_dim)
    }

    // LOC-BEGIN(merge_path)
    /// **Setup** (paper step 1): diagonal-search this thread's start and
    /// end coordinates, charging the two binary searches; then expose the
    /// share as an iterator of [`TileSpan`]s (paper step 2: "complete" and
    /// "partial" tiles). This is the code a GPU thread runs, and the
    /// reference the engine's launches are tested against: a cold engine
    /// launch runs [`Self::spans_walked`], the same coordinates and
    /// charges read from a host-walked table, and a planned launch runs
    /// [`Self::spans_prepartitioned`].
    pub fn spans<'l, 'm>(&self, lane: &'l LaneCtx<'m>) -> MergeSpans<'w, 'l, 'm, W> {
        let total = self.total_work();
        let d0 = (lane.global_thread_id() as usize * self.items_per_thread).min(total);
        let d1 = (d0 + self.items_per_thread).min(total);
        // Two-level partition cost: one global diagonal search per block
        // (amortized) + per-thread search of the block's tile in shared
        // memory — see `CostModel::merge_setup`.
        let block_items = u64::from(lane.block_dim()) * self.items_per_thread as u64;
        lane.charge(lane.model().merge_setup(block_items));
        // The shared-memory search needs the block's window of tile
        // offsets staged from global memory first: one offset per tile
        // boundary in the window, amortized to this thread's share of
        // the merge path (at least one probe).
        let tile_frac = self.work.num_tiles() as f64 / total.max(1) as f64;
        let staged = (4.0 * self.items_per_thread as f64 * tile_frac).ceil() as u64;
        lane.read_bytes(staged.max(4));
        let (t0, a0) = self.diagonal_search(d0);
        let (t1, a1) = self.diagonal_search(d1);
        MergeSpans {
            work: self.work,
            lane,
            tile: t0,
            atom: a0,
            end_tile: t1,
            end_atom: a1,
            started_at_tile_start: a0 == self.work.tile_offset(t0),
        }
    }

    /// Charged range over one span's atoms.
    pub fn atoms<'l, 'm>(
        &self,
        span: &TileSpan,
        lane: &'l LaneCtx<'m>,
    ) -> Charged<'l, 'm, StepRange> {
        Charged::atoms(step_range(span.atoms.start, span.atoms.end, 1), lane)
    }

    /// 2-D diagonal binary search: find the merge-path coordinate
    /// `(tile, atom)` with `tile + atom = d`, such that all tile
    /// boundaries before `tile` merge before all atoms from `atom` on.
    /// (Cost is charged once per thread by `spans` via
    /// `CostModel::merge_setup`.)
    fn diagonal_search(&self, d: usize) -> (usize, usize) {
        let (tiles, atoms) = (self.work.num_tiles(), self.work.num_atoms());
        let mut lo = d.saturating_sub(atoms);
        let mut hi = d.min(tiles);
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Consume the boundary of tile `mid` iff its end offset merges
            // no later than the atom at the opposing diagonal position.
            if self.work.tile_offset(mid + 1) <= d - 1 - mid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, d - lo)
    }
    // LOC-END(merge_path)

    /// Precompute every thread's merge-path start coordinate host-side:
    /// `num_threads() + 1` tile indices, the last one `num_tiles`. Only
    /// the tile component needs storing — boundary `i` lies on diagonal
    /// `d = i · items_per_thread`, so `atom = d − tile`. Thread `i`'s
    /// share is `starts[i] .. starts[i + 1]` — exactly what
    /// [`Self::spans`] finds with its two in-kernel diagonal searches. A
    /// serving runtime caches this table per matrix so repeated launches
    /// skip the search ([`Self::spans_prepartitioned`]), and a cold
    /// launch builds it once before its threads run
    /// ([`Self::spans_walked`]).
    ///
    /// The table is built in one walk along the merge path, O(tiles +
    /// threads): the boundaries' diagonals increase, so each one's tile
    /// coordinate resumes from the previous one's, or from `d − atoms`
    /// (the lowest coordinate the diagonal allows) when that is further.
    ///
    /// # Panics
    ///
    /// The table stores each boundary's tile coordinate as `u32`. A tile
    /// set with more than `u32::MAX` tiles cannot be represented —
    /// rather than silently truncating the coordinate (which would make
    /// threads replay the wrong rows), this panics with the offending
    /// value. The dispatch engine builds this table for every cold
    /// merge-path launch as well as for a prepared plan, so on such a
    /// tile set the cold launch panics too.
    pub fn partition(&self) -> Vec<u32> {
        let (tiles, atoms) = (self.work.num_tiles(), self.work.num_atoms());
        let total = tiles + atoms;
        let mut t = 0;
        (0..=self.num_threads())
            .map(|i| {
                let d = (i * self.items_per_thread).min(total);
                // `diagonal_search(d)`'s predicate, stepped instead of
                // bisected: consume tile `t`'s boundary while its end
                // offset merges before the diagonal.
                t = t.max(d.saturating_sub(atoms));
                while t < d.min(tiles) && self.work.tile_offset(t + 1) <= d - 1 - t {
                    t += 1;
                }
                u32::try_from(t).unwrap_or_else(|_| {
                    panic!(
                        "merge-path partition: boundary tile coordinate {t} exceeds \
                         u32::MAX and cannot be stored in the u32 partition table"
                    )
                })
            })
            .collect()
    }

    /// [`Self::spans`] for a cold launch: the same coordinates, read from
    /// a [`Self::partition`] table the host walked once before the
    /// launch, and the same charges — the two diagonal searches'
    /// [`CostModel::merge_setup`](simt::CostModel::merge_setup) and the
    /// staged offset window — so the simulated launch is bitwise the
    /// searched one while the host skips two searches per thread. The
    /// charge lines copy `spans`' (which stays the device code Table 1
    /// counts); a unit test pins them lane by lane.
    pub fn spans_walked<'l, 'm>(
        &self,
        lane: &'l LaneCtx<'m>,
        starts: &[u32],
    ) -> MergeSpans<'w, 'l, 'm, W> {
        let block_items = u64::from(lane.block_dim()) * self.items_per_thread as u64;
        lane.charge(lane.model().merge_setup(block_items));
        let tile_frac = self.work.num_tiles() as f64 / self.total_work().max(1) as f64;
        let staged = (4.0 * self.items_per_thread as f64 * tile_frac).ceil() as u64;
        lane.read_bytes(staged.max(4));
        self.table_spans(lane, starts)
    }

    /// [`Self::spans`] driven by a plan's cached [`Self::partition`]
    /// table: identical span coordinates (hence bitwise-identical kernel
    /// results), but the per-thread diagonal searches are replaced by two
    /// cached-table reads — the "skip setup on a plan-cache hit" path.
    pub fn spans_prepartitioned<'l, 'm>(
        &self,
        lane: &'l LaneCtx<'m>,
        starts: &[u32],
    ) -> MergeSpans<'w, 'l, 'm, W> {
        // The block loads its contiguous slice of the table once,
        // coalesced — amortized one 4-byte entry per thread — instead of
        // staging an offset window and binary-searching it.
        lane.read_bytes(4);
        self.table_spans(lane, starts)
    }

    /// The span iterator of `lane`'s share, `starts[i] .. starts[i + 1]`
    /// for thread `i` (threads past the table's end get the empty share
    /// at its last boundary). Charges nothing.
    fn table_spans<'l, 'm>(
        &self,
        lane: &'l LaneCtx<'m>,
        starts: &[u32],
    ) -> MergeSpans<'w, 'l, 'm, W> {
        let total = self.total_work();
        let last = starts.len() - 1;
        let i0 = (lane.global_thread_id() as usize).min(last);
        let i1 = (i0 + 1).min(last);
        let (t0, t1) = (starts[i0] as usize, starts[i1] as usize);
        let a0 = (i0 * self.items_per_thread).min(total) - t0;
        let a1 = (i1 * self.items_per_thread).min(total) - t1;
        MergeSpans {
            work: self.work,
            lane,
            tile: t0,
            atom: a0,
            end_tile: t1,
            end_atom: a1,
            started_at_tile_start: a0 == self.work.tile_offset(t0),
        }
    }

    /// The wrapped tile set.
    pub fn work(&self) -> &'w W {
        self.work
    }

    /// Items per thread this schedule was built with.
    pub fn items_per_thread(&self) -> usize {
        self.items_per_thread
    }
}

/// Iterator over one thread's [`TileSpan`]s. Charges tile bookkeeping per
/// span through the lane.
#[derive(Debug)]
pub struct MergeSpans<'w, 'l, 'm, W> {
    work: &'w W,
    lane: &'l LaneCtx<'m>,
    tile: usize,
    atom: usize,
    end_tile: usize,
    end_atom: usize,
    started_at_tile_start: bool,
}

impl<W: TileSet> Iterator for MergeSpans<'_, '_, '_, W> {
    type Item = TileSpan;

    fn next(&mut self) -> Option<TileSpan> {
        let work = self.work;
        if self.tile < self.end_tile {
            // This thread consumes tile `self.tile`'s boundary: it owns the
            // tile's atoms from `self.atom` to the tile's end.
            let tile = self.tile;
            let tile_end = work.tile_offset(tile + 1);
            let span = TileSpan {
                tile,
                atoms: self.atom..tile_end,
                complete: self.started_at_tile_start,
            };
            self.tile += 1;
            self.atom = tile_end;
            self.started_at_tile_start = true;
            self.lane.charge_tile();
            self.lane.charge_range_iter();
            Some(span)
        } else if self.atom < self.end_atom {
            // Trailing partial tile: atoms up to the thread boundary, with
            // the tile's boundary left to a later thread.
            let span = TileSpan {
                tile: self.tile,
                atoms: self.atom..self.end_atom,
                complete: false,
            };
            self.atom = self.end_atom;
            self.lane.charge_tile();
            self.lane.charge_range_iter();
            Some(span)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{CountedTiles, TileSet};
    use simt::GpuSpec;

    /// Collect all spans of all threads for a given work + ipt.
    fn all_spans(work: &CountedTiles, ipt: usize) -> Vec<(u64, TileSpan)> {
        let sched = MergePathSchedule::new(work, ipt);
        let spec = GpuSpec::test_tiny();
        let cfg = sched.launch_config(8);
        let collected = std::sync::Mutex::new(Vec::new());
        simt::launch_threads(&spec, cfg, |t| {
            for span in sched.spans(t) {
                collected.lock().unwrap().push((t.global_thread_id(), span));
            }
        })
        .unwrap();
        let mut v = collected.into_inner().unwrap();
        v.sort_by_key(|(tid, s)| (s.tile, s.atoms.start, *tid));
        v
    }

    fn check_partition(work: &CountedTiles, ipt: usize) {
        let spans = all_spans(work, ipt);
        // Every atom covered exactly once, in order, per tile.
        let mut seen = vec![0u32; work.num_atoms()];
        for (_, s) in &spans {
            let tile_range = work.tile_atoms(s.tile);
            assert!(s.atoms.start >= tile_range.start && s.atoms.end <= tile_range.end);
            for a in s.atoms.clone() {
                seen[a] += 1;
            }
            if s.complete {
                assert_eq!(s.atoms, tile_range, "complete span must cover its tile");
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "ipt={ipt}: atom coverage");
        // Every non-empty tile appears; each tile has exactly one span
        // whose end reaches the tile end from a boundary-consuming thread.
        for tile in 0..work.num_tiles() {
            let r = work.tile_atoms(tile);
            let covering: Vec<_> = spans.iter().filter(|(_, s)| s.tile == tile).collect();
            if r.is_empty() {
                // Empty tiles yield exactly one empty span (their boundary).
                assert_eq!(covering.len(), 1, "tile {tile} empty-span count");
                assert!(covering[0].1.complete);
            } else {
                assert!(!covering.is_empty(), "tile {tile} uncovered");
                let complete = covering.iter().filter(|(_, s)| s.complete).count();
                assert!(complete <= 1, "tile {tile}: multiple complete spans");
                if complete == 1 {
                    assert_eq!(covering.len(), 1, "tile {tile}: complete implies sole");
                }
            }
        }
    }

    #[test]
    fn partitions_are_exact_for_varied_shapes() {
        for counts in [
            vec![2usize, 0, 3, 1, 4],
            vec![0, 0, 0],
            vec![10],
            vec![1; 37],
            vec![100, 0, 0, 1, 1, 1, 50],
        ] {
            let w = CountedTiles::from_counts(counts);
            for ipt in [1usize, 2, 3, 7, 100] {
                check_partition(&w, ipt);
            }
        }
    }

    #[test]
    fn hub_row_is_split_across_many_threads() {
        let w = CountedTiles::from_counts([1000, 1, 1, 1]);
        let spans = all_spans(&w, 8);
        let hub_spans = spans.iter().filter(|(_, s)| s.tile == 0).count();
        assert!(hub_spans > 100, "hub split into {hub_spans} spans");
        // All but at most one of them are partial.
        let partial = spans
            .iter()
            .filter(|(_, s)| s.tile == 0 && !s.complete)
            .count();
        assert!(partial >= hub_spans - 1);
    }

    #[test]
    fn balanced_work_means_every_thread_gets_ipt_items() {
        let w = CountedTiles::from_counts([3; 64]); // total = 64 + 192 = 256
        let sched = MergePathSchedule::new(&w, 8);
        assert_eq!(sched.num_threads(), 32);
        assert_eq!(sched.total_work(), 256);
    }

    #[test]
    fn spans_charge_setup_searches() {
        let w = CountedTiles::from_counts([4; 16]);
        let sched = MergePathSchedule::new(&w, 4);
        let spec = GpuSpec::test_tiny();
        let mut overheads = vec![0.0f64; 1];
        {
            let g = simt::GlobalMem::new(&mut overheads);
            simt::launch_threads(&spec, LaunchConfig::new(1, 8), |t| {
                if t.global_thread_id() == 0 {
                    let before = t.units();
                    let _ = sched.spans(t);
                    g.store(0, t.units() - before);
                }
            })
            .unwrap();
        }
        let model = simt::CostModel::standard();
        assert!(overheads[0] >= 2.0 * model.search_step_cost);
    }

    #[test]
    fn prepartitioned_spans_match_in_kernel_search() {
        for counts in [
            vec![2usize, 0, 3, 1, 4],
            vec![0, 0, 0],
            vec![1; 37],
            vec![100, 0, 0, 1, 1, 1, 50],
        ] {
            let w = CountedTiles::from_counts(counts);
            for ipt in [1usize, 3, 7] {
                let sched = MergePathSchedule::new(&w, ipt);
                let starts = sched.partition();
                assert_eq!(starts.len(), sched.num_threads() + 1);
                assert_eq!(*starts.last().unwrap(), w.num_tiles() as u32);
                let spec = GpuSpec::test_tiny();
                let cfg = sched.launch_config(8);
                let collect = |reader: Reader| {
                    let got = std::sync::Mutex::new(Vec::new());
                    simt::launch_threads(&spec, cfg, |t| {
                        let spans: Vec<_> = reader.spans(&sched, t, &starts).collect();
                        got.lock().unwrap().push((t.global_thread_id(), spans));
                    })
                    .unwrap();
                    let mut v = got.into_inner().unwrap();
                    v.sort_by_key(|(tid, _)| *tid);
                    v
                };
                let searched = collect(Reader::Search);
                assert_eq!(collect(Reader::Planned), searched, "ipt={ipt}");
                assert_eq!(collect(Reader::Walked), searched, "ipt={ipt}");
                // The walked reader's charges copy the search's: lane by
                // lane, the same units (bits) and the same read bytes.
                let charge = |k: u64, reader: Reader| {
                    let units = std::sync::Mutex::new(0u64);
                    let report = simt::launch_threads(&spec, cfg, |t| {
                        if t.global_thread_id() == k {
                            let _ = reader.spans(&sched, t, &starts);
                            *units.lock().unwrap() = t.units().to_bits();
                        }
                    })
                    .unwrap();
                    (units.into_inner().unwrap(), report.mem.read_bytes)
                };
                for k in 0..cfg.grid_size() {
                    let want = charge(k, Reader::Search);
                    assert_eq!(charge(k, Reader::Walked), want, "ipt={ipt}, lane {k}");
                }
            }
        }
    }

    /// The three ways a thread finds its merge-path share.
    #[derive(Debug, Clone, Copy)]
    enum Reader {
        Search,
        Walked,
        Planned,
    }

    impl Reader {
        fn spans<'w, 'l, 'm>(
            self,
            sched: &MergePathSchedule<'w, CountedTiles>,
            lane: &'l LaneCtx<'m>,
            starts: &[u32],
        ) -> MergeSpans<'w, 'l, 'm, CountedTiles> {
            match self {
                Self::Search => sched.spans(lane),
                Self::Walked => sched.spans_walked(lane, starts),
                Self::Planned => sched.spans_prepartitioned(lane, starts),
            }
        }
    }

    #[test]
    fn partition_walk_matches_the_diagonal_search_at_every_boundary() {
        let mut rng = sparse::Prng::seed_from_u64(0x5eed_0025);
        let mut shapes: Vec<Vec<usize>> = vec![
            vec![],               // no tiles, no atoms
            vec![0; 9],           // tiles, every one empty
            vec![57],             // one tile holding every atom
            vec![0, 0, 31, 0, 0], // ... among empty tiles
        ];
        for _ in 0..40 {
            let tiles = rng.index(0, 60);
            shapes.push(
                (0..tiles)
                    .map(|_| match rng.index(0, 10) {
                        0..=2 => 0,
                        3 => rng.index(50, 300),
                        _ => rng.index(1, 12),
                    })
                    .collect(),
            );
        }
        for counts in shapes {
            let w = CountedTiles::from_counts(counts.clone());
            for ipt in 1..=100 {
                let sched = MergePathSchedule::new(&w, ipt);
                let total = sched.total_work();
                let searched: Vec<u32> = (0..=sched.num_threads())
                    .map(|i| sched.diagonal_search((i * ipt).min(total)).0 as u32)
                    .collect();
                assert_eq!(sched.partition(), searched, "{counts:?}, ipt {ipt}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "≥ 1")]
    fn rejects_zero_items_per_thread() {
        let w = CountedTiles::from_counts([1]);
        let _ = MergePathSchedule::new(&w, 0);
    }

    #[test]
    fn empty_work_produces_no_spans() {
        let w = CountedTiles::from_counts(std::iter::empty());
        let spans = all_spans(&w, 4);
        assert!(spans.is_empty());
    }

    /// Synthetic contiguous tile set with an enormous tile count and no
    /// atoms — only the geometry the diagonal search probes is
    /// implemented, so tile counts near/above `u32::MAX` are exercised
    /// without allocating anything.
    #[cfg(target_pointer_width = "64")]
    struct HugeTiles {
        tiles: usize,
    }

    #[cfg(target_pointer_width = "64")]
    impl TileSet for HugeTiles {
        fn num_tiles(&self) -> usize {
            self.tiles
        }
        fn num_atoms(&self) -> usize {
            0
        }
        fn tile_atoms(&self, _t: usize) -> std::ops::Range<usize> {
            0..0
        }
        fn tile_offset(&self, _i: usize) -> usize {
            0
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn partition_stores_boundary_at_exactly_u32_max() {
        let w = HugeTiles {
            tiles: u32::MAX as usize,
        };
        // Huge items-per-thread keeps the boundary table tiny (3 entries)
        // while the final boundary lands exactly on u32::MAX.
        let sched = MergePathSchedule::new(&w, 1 << 31);
        let starts = sched.partition();
        assert_eq!(*starts.last().unwrap(), u32::MAX);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "exceeds")]
    fn partition_panics_instead_of_truncating_past_u32() {
        let w = HugeTiles {
            tiles: u32::MAX as usize + 42,
        };
        let sched = MergePathSchedule::new(&w, 1 << 31);
        // Pre-fix this silently truncated (`t as u32`), wrapping boundary
        // coordinates and pointing threads at the wrong tiles.
        let _ = sched.partition();
    }
}
