//! The cross-kernel schedule-equivalence matrix: every kernel that takes
//! a [`ScheduleKind`] runs under *every* schedule over a small corpus and
//! must agree — bitwise — with its reference path:
//!
//! * **SpMV** against a preserved verbatim copy of the pre-engine legacy
//!   implementation (the seed's exact accumulation orders), including
//!   the full [`simt::LaunchReport`];
//! * **SpMM** against per-column SpMV under the same schedule — Listing
//!   4's "a loop wrapped around SpMV" claim, checked to the last bit —
//!   and, launch reports included, against a pinned digest over every
//!   serving format, cold and planned;
//! * **sharded SpMV** — [`kernels::spmv::spmv_rows`] over every
//!   [`sparse::ShardPlan`] shard — against the legacy path applied per
//!   row block;
//! * **BFS / SSSP / triangle** exactly against sequential references
//!   (integer outputs, and SSSP's unique `min`-fixpoint);
//! * **PageRank / CG** for bitwise run-to-run determinism per schedule,
//!   validated against the f64 references within tolerance (their
//!   lane-partial reductions are schedule-*dependent* by design, so
//!   cross-schedule bit equality is not expected).
//!
//! The closing proptest-style check (seeded in-repo generator, same
//! idiom as `proptest_invariants.rs`) drives engine and legacy SpMV over
//! random matrices, schedules, and block sizes. A traced check pins the
//! engine's two cold-launch shortcuts against the legacy launch, traced
//! and untraced: work-queue's idle-thread tail (it simulates only the
//! threads that claim work; the legacy launch runs every thread) and
//! merge-path's partition walk (threads read their bounds from a table
//! walked before the launch; the legacy threads search for them).

use kernels::graph::Graph;
use loops::schedule::ScheduleKind;
use simt::{CostModel, GpuSpec, LaunchReport};
use sparse::{Csr, DenseMatrix, FormatKind, Prng, ShardPlan, ShardStrategy};

const ALL_KINDS: [ScheduleKind; 7] = [
    ScheduleKind::ThreadMapped,
    ScheduleKind::WarpMapped,
    ScheduleKind::BlockMapped,
    ScheduleKind::GroupMapped(16),
    ScheduleKind::MergePath,
    ScheduleKind::WorkQueue(8),
    ScheduleKind::Lrb,
];

fn corpus() -> Vec<Csr<f32>> {
    vec![
        sparse::gen::uniform(60, 50, 400, 11),
        sparse::gen::powerlaw(200, 200, 3_000, 1.8, 12),
        sparse::gen::banded(40, 3, 13),
        Csr::<f32>::empty(5, 5),
    ]
}

/// Square matrices reinterpreted as graphs for the traversal kernels.
fn graph_corpus() -> Vec<Graph> {
    vec![
        Graph::from_generator(sparse::gen::powerlaw(150, 150, 2_000, 1.8, 14)),
        Graph::from_generator(sparse::gen::uniform(80, 80, 600, 15)),
        Graph::from_generator(sparse::gen::banded(40, 3, 16)),
    ]
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn spmv_every_schedule_is_bitwise_equal_to_the_legacy_path_on_the_corpus() {
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    for a in corpus() {
        let x = sparse::dense::test_vector(a.cols());
        let want64 = a.spmv_ref(&x);
        for kind in ALL_KINDS {
            let run = kernels::spmv(&spec, &a, &x, kind).unwrap();
            let (ly, _, _) = legacy::spmv_with_model(&spec, &model, &a, &x, kind, 256).unwrap();
            assert_eq!(bits(&run.y), bits(&ly), "spmv {kind} on {}x{}", a.rows(), a.cols());
            let err = kernels::spmv::max_rel_error(&run.y, &want64);
            assert!(err < 2e-3, "spmv {kind}: err {err} vs f64 reference");
        }
    }
}

#[test]
fn spmm_every_schedule_is_bitwise_a_loop_around_spmv() {
    let spec = GpuSpec::v100();
    for a in corpus() {
        let b = DenseMatrix::from_fn(a.cols(), 3, |r, c| ((r + 2 * c) as f32).sin());
        for kind in ALL_KINDS {
            let run = kernels::spmm::spmm(&spec, &a, &b, kind).unwrap();
            // Listing 4: SpMM is a loop over B's columns around SpMV —
            // under the engine that equivalence is exact, column by
            // column, under the schedule SpMM resolved to.
            for j in 0..3 {
                let col: Vec<f32> = (0..a.cols()).map(|r| b.get(r, j)).collect();
                let want = kernels::spmv(&spec, &a, &col, run.schedule).unwrap();
                let got: Vec<f32> = (0..a.rows()).map(|r| run.c.get(r, j)).collect();
                assert_eq!(bits(&got), bits(&want.y), "spmm {kind} column {j}");
            }
        }
    }
}

#[test]
fn sharded_spmv_every_schedule_and_partition_matches_the_legacy_path_per_block() {
    let spec = GpuSpec::test_tiny();
    let model = CostModel::standard();
    for a in corpus() {
        let x = sparse::dense::test_vector(a.cols());
        for kind in ALL_KINDS {
            for strategy in [ShardStrategy::Rows1D, ShardStrategy::Nnz1D] {
                let plan = ShardPlan::partition(&a, 2, strategy);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for shard in &plan.shards {
                    let run = kernels::spmv::spmv_rows(
                        &spec,
                        &model,
                        &a,
                        shard.rows.clone(),
                        &x,
                        kind,
                        256,
                    )
                    .unwrap();
                    got.extend(run.y);
                    let block = a.row_slice(shard.rows.clone());
                    let (ly, _, _) =
                        legacy::spmv_with_model(&spec, &model, &block, &x, kind, 256).unwrap();
                    want.extend(ly);
                }
                assert_eq!(bits(&got), bits(&want), "sharded spmv {kind} {strategy:?}");
            }
        }
    }
}

#[test]
fn bfs_every_schedule_matches_the_reference_exactly() {
    let spec = GpuSpec::v100();
    for g in graph_corpus() {
        let want = kernels::reference::bfs_ref(g.adjacency(), 0);
        for kind in ALL_KINDS {
            let run = kernels::bfs::bfs(&spec, &g, 0, kind).unwrap();
            assert_eq!(run.depth, want, "bfs {kind}");
        }
    }
}

#[test]
fn sssp_every_schedule_reaches_the_same_fixpoint_bitwise() {
    let spec = GpuSpec::v100();
    for g in graph_corpus() {
        // Sequential f32 fixpoint: relax edges (ascending) until stable.
        // The minimal fixpoint of `dist[v] = min(dist[v], dist[u] + w)`
        // is unique, so every schedule must land on it bitwise.
        let adj = g.adjacency();
        let mut want = vec![f32::INFINITY; g.num_vertices()];
        want[0] = 0.0;
        loop {
            let mut changed = false;
            for u in 0..g.num_vertices() {
                for e in g.edge_range(u) {
                    let cand = want[u] + g.edge_weight(e);
                    let v = g.neighbor(e);
                    if cand < want[v] {
                        want[v] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        assert_eq!(adj.rows(), g.num_vertices());
        for kind in ALL_KINDS {
            let run = kernels::sssp::sssp(&spec, &g, 0, kind).unwrap();
            assert_eq!(bits(&run.dist), bits(&want), "sssp {kind}");
        }
    }
}

#[test]
fn triangle_every_schedule_counts_exactly() {
    let spec = GpuSpec::v100();
    for g in graph_corpus() {
        let want = kernels::triangle::triangle_count_ref(&g);
        for kind in ALL_KINDS {
            let run = kernels::triangle::triangle_count(&spec, &g, kind).unwrap();
            assert_eq!(run.triangles, want, "triangle {kind}");
        }
    }
}

#[test]
fn pagerank_and_cg_run_deterministically_under_every_schedule() {
    let spec = GpuSpec::v100();
    let g = Graph::from_generator(sparse::gen::powerlaw(120, 120, 1_500, 1.8, 17));
    let pr_want = kernels::pagerank::pagerank_ref(&g, 1e-9, 1_000);
    for kind in ALL_KINDS {
        let run = kernels::pagerank::pagerank(&spec, &g, kind, 1e-6, 100).unwrap();
        let again = kernels::pagerank::pagerank(&spec, &g, kind, 1e-6, 100).unwrap();
        assert_eq!(bits(&run.rank), bits(&again.rank), "pagerank {kind} must be deterministic");
        let total: f32 = run.rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "pagerank {kind}: ranks sum to {total}");
        for (v, (&got, &want)) in run.rank.iter().zip(&pr_want).enumerate() {
            assert!(
                (got - want).abs() < 1e-3,
                "pagerank {kind}: rank[{v}] = {got}, want {want}"
            );
        }
    }

    // SPD system for CG: A^T A + diagonal shift.
    let a = {
        let base = sparse::gen::uniform(50, 50, 300, 18);
        let t = kernels::reference::spgemm_ref(&transpose(&base), &base);
        add_diagonal(&t, 5.0)
    };
    let b: Vec<f32> = (0..a.rows()).map(|i| ((i % 7) as f32) - 3.0).collect();
    for kind in ALL_KINDS {
        let run = kernels::cg::cg(&spec, &a, &b, kind, 1e-7, 500).unwrap();
        let again = kernels::cg::cg(&spec, &a, &b, kind, 1e-7, 500).unwrap();
        assert_eq!(bits(&run.x), bits(&again.x), "cg {kind} must be deterministic");
        assert!(run.residual < 1e-3, "cg {kind}: residual {}", run.residual);
    }
}

fn transpose(a: &Csr<f32>) -> Csr<f32> {
    let mut triplets = Vec::with_capacity(a.nnz());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            triplets.push((c, r as u32, v));
        }
    }
    Csr::from_triplets(a.cols(), a.rows(), triplets).expect("transpose is valid")
}

fn add_diagonal(a: &Csr<f32>, shift: f32) -> Csr<f32> {
    let mut triplets = Vec::with_capacity(a.nnz() + a.rows());
    for r in 0..a.rows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            triplets.push((r as u32, c, v));
        }
        triplets.push((r as u32, r as u32, shift));
    }
    Csr::from_triplets(a.rows(), a.cols(), triplets).expect("shifted matrix is valid")
}

// ---------------------------------------------------------------------------
// Legacy oracle: the per-kernel SpMV path exactly as it existed before the
// dispatch engine, preserved verbatim so the refactor stays pinned — the
// engine must match it bitwise in results *and* in every report number.
// ---------------------------------------------------------------------------
mod legacy {
    use loops::adapters::CsrTiles;
    use loops::dispatch::largest_divisor_leq;
    use loops::schedule::{
        bin_of, GroupMappedSchedule, LrbSchedule, MergePathSchedule, ScheduleKind,
        ThreadMappedSchedule, WorkQueueSchedule,
    };
    use loops::work::{SubsetTiles, TileSet};
    use simt::{CostModel, GlobalMem, GpuSpec, GroupCtx, LaneCtx, LaunchConfig, LaunchReport};
    use sparse::Csr;

    const MERGE_ITEMS_PER_THREAD: usize = 7;

    /// The group-mapped batch loop (transform, then reduce by tile) as it
    /// stood before the engine's tile map: each lane's count comes back
    /// from `g.phase`, and every atom finds its tile with a binary search
    /// of the scanned counts.
    fn process_batches<W: TileSet>(
        work: &W,
        group_size: u32,
        g: &mut GroupCtx<'_>,
        mut per_atom: impl FnMut(&LaneCtx<'_>, usize, usize) -> f32,
        mut per_tile: impl FnMut(&LaneCtx<'_>, usize, f32),
    ) {
        let gs = group_size as usize;
        let num_tiles = work.num_tiles();
        let stride = (g.num_groups_in_grid() as usize) * gs;
        let mut scan = g.alloc_shared::<u64>(gs);
        let mut sums = g.alloc_shared::<f32>(gs);
        let mut base = g.global_group_id() as usize * gs;
        while base < num_tiles {
            let counts = g.phase(|lane| {
                let tile = base + lane.group_rank() as usize;
                lane.charge_tile();
                lane.charge_shared();
                if tile < num_tiles {
                    work.atoms_in_tile(tile) as u64
                } else {
                    0
                }
            });
            scan.copy_from_slice(&counts);
            let total_atoms = g.exclusive_scan(&mut scan) as usize;
            sums.iter_mut().for_each(|s| *s = 0.0);
            g.phase_for_each(|lane| {
                let mut a = lane.group_rank() as usize;
                while a < total_atoms {
                    let local_tile = scan.partition_point(|&s| s <= a as u64) - 1;
                    lane.charge(lane.model().shared_access_cost * 2.0);
                    let tile = base + local_tile;
                    let within = a - scan[local_tile] as usize;
                    let atom = work.tile_offset(tile) + within;
                    lane.charge_atom();
                    lane.charge_range_iter();
                    sums[local_tile] += per_atom(lane, tile, atom);
                    a += gs;
                }
            });
            g.charge_collective_step();
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
    }

    pub fn spmv_with_model(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        kind: ScheduleKind,
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        assert_eq!(x.len(), a.cols(), "x must have one entry per column");
        let block_dim = block_dim.min(spec.max_threads_per_block);
        match kind {
            ScheduleKind::ThreadMapped => thread_mapped(spec, model, a, x, block_dim),
            ScheduleKind::MergePath => merge_path(spec, model, a, x, block_dim),
            ScheduleKind::WarpMapped => {
                group_mapped(spec, model, a, x, spec.warp_size, block_dim)
            }
            ScheduleKind::BlockMapped => group_mapped(spec, model, a, x, block_dim, block_dim),
            ScheduleKind::GroupMapped(g) => group_mapped(spec, model, a, x, g, block_dim),
            ScheduleKind::WorkQueue(chunk) => {
                work_queue(spec, model, a, x, chunk.max(1), block_dim)
            }
            ScheduleKind::Lrb => lrb(spec, model, a, x, block_dim),
        }
    }

    fn thread_mapped(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        let work = CsrTiles::new(a);
        let sched = ThreadMappedSchedule::new(&work);
        let mut y = vec![0.0f32; a.rows()];
        let (values, col_indices) = (a.values(), a.col_indices());
        let cfg = LaunchConfig::over_threads(a.rows().max(1) as u64, block_dim);
        let report = {
            let gy = GlobalMem::new(&mut y);
            simt::launch_threads_with_model(spec, model, cfg, |t| {
                for row in sched.tiles(t) {
                    let mut sum = 0.0f32;
                    for nz in sched.atoms(row, t) {
                        sum += values[nz] * x[col_indices[nz] as usize];
                    }
                    gy.store(row, sum);
                    t.write_bytes(4);
                }
            })?
        };
        Ok((y, report, ScheduleKind::ThreadMapped))
    }

    fn merge_path(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        let work = CsrTiles::new(a);
        let sched = MergePathSchedule::new(&work, MERGE_ITEMS_PER_THREAD);
        let mut y = vec![0.0f32; a.rows()];
        let (values, col_indices) = (a.values(), a.col_indices());
        let cfg = sched.launch_config(block_dim);
        let report = {
            let gy = GlobalMem::new(&mut y);
            simt::launch_threads_with_model(spec, model, cfg, |t| {
                for span in sched.spans(t) {
                    let mut sum = 0.0f32;
                    for nz in sched.atoms(&span, t) {
                        sum += values[nz] * x[col_indices[nz] as usize];
                    }
                    if span.complete {
                        gy.store(span.tile, sum);
                        t.write_bytes(4);
                    } else if !span.atoms.is_empty() {
                        gy.fetch_add(span.tile, sum);
                        t.charge_atomic();
                    }
                }
            })?
        };
        Ok((y, report, ScheduleKind::MergePath))
    }

    fn group_mapped(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        group_size: u32,
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        let group_size = group_size.clamp(1, block_dim);
        let group_size = largest_divisor_leq(block_dim, group_size);
        let work = CsrTiles::new(a);
        let sched = GroupMappedSchedule::new(&work, group_size);
        let mut y = vec![0.0f32; a.rows()];
        let (values, col_indices) = (a.values(), a.col_indices());
        let cfg = sched.launch_config(block_dim, spec.num_sms * 8);
        let report = {
            let gy = GlobalMem::new(&mut y);
            simt::launch_groups_with_model(spec, model, cfg, group_size, |g| {
                process_batches(
                    &work,
                    group_size,
                    g,
                    |_lane, _tile, nz| values[nz] * x[col_indices[nz] as usize],
                    |lane, tile, sum| {
                        gy.store(tile, sum);
                        lane.write_bytes(4);
                    },
                );
            })?
        };
        Ok((y, report, ScheduleKind::GroupMapped(group_size)))
    }

    fn work_queue(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        chunk: u32,
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        let work = CsrTiles::new(a);
        let sched = WorkQueueSchedule::new(&work, chunk as usize);
        let mut y = vec![0.0f32; a.rows()];
        let (values, col_indices) = (a.values(), a.col_indices());
        // The schedule's grid without its idle tail: every block runs.
        let cfg = LaunchConfig::new(sched.launch_config(spec, block_dim).grid_dim, block_dim);
        let report = {
            let gy = GlobalMem::new(&mut y);
            simt::launch_threads_with_model(spec, model, cfg, |t| {
                sched.process_tiles(t, |lane, row| {
                    let mut sum = 0.0f32;
                    for nz in sched.atoms(row, lane) {
                        sum += values[nz] * x[col_indices[nz] as usize];
                    }
                    gy.store(row, sum);
                    lane.write_bytes(4);
                });
            })?
        };
        Ok((y, report, ScheduleKind::WorkQueue(chunk)))
    }

    fn lrb(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        block_dim: u32,
    ) -> simt::Result<(Vec<f32>, LaunchReport, ScheduleKind)> {
        let work = CsrTiles::new(a);
        let cfg_sched = LrbSchedule {
            block_dim,
            ..LrbSchedule::default()
        };
        let plan = cfg_sched.bin_tiles(spec, model, &work)?;
        let mut report = Some(plan.binning_report.clone());
        let mut y = vec![0.0f32; a.rows()];
        let (values, col_indices) = (a.values(), a.col_indices());

        let small_hi = bin_of(cfg_sched.small_limit) + 1;
        let medium_hi = bin_of(cfg_sched.medium_limit) + 1;
        let class = |lo: usize, hi: usize| &plan.order[plan.bin_offsets[lo]..plan.bin_offsets[hi]];
        let small = class(0, small_hi);
        if !small.is_empty() {
            let view = SubsetTiles::new(&work, small);
            let sched = ThreadMappedSchedule::new(&view);
            let gy = GlobalMem::new(&mut y);
            let r = simt::launch_threads_with_model(
                spec,
                model,
                LaunchConfig::over_threads(small.len() as u64, block_dim),
                |t| {
                    for local in sched.tiles(t) {
                        let mut sum = 0.0f32;
                        for nz in sched.atoms(local, t) {
                            sum += values[nz] * x[col_indices[nz] as usize];
                        }
                        gy.store(view.global_tile(local), sum);
                        t.write_bytes(4);
                    }
                },
            )?;
            match report {
                Some(ref mut rep) => rep.accumulate(&r),
                None => report = Some(r),
            }
        }
        for (lo, hi, group) in [
            (small_hi, medium_hi, spec.warp_size),
            (medium_hi, loops::schedule::LRB_NUM_BINS, block_dim),
        ] {
            let tiles = class(lo, hi.max(lo));
            if tiles.is_empty() {
                continue;
            }
            let view = SubsetTiles::new(&work, tiles);
            let sched = GroupMappedSchedule::new(&view, group);
            let cfg = sched.launch_config(block_dim, spec.num_sms * 8);
            let gy = GlobalMem::new(&mut y);
            let r = simt::launch_groups_with_model(spec, model, cfg, group, |g| {
                process_batches(
                    &view,
                    group,
                    g,
                    |_lane, _local, nz| values[nz] * x[col_indices[nz] as usize],
                    |lane, local, sum| {
                        gy.store(view.global_tile(local), sum);
                        lane.write_bytes(4);
                    },
                );
            })?;
            match report {
                Some(ref mut rep) => rep.accumulate(&r),
                None => report = Some(r),
            }
        }
        let report = match report {
            Some(r) => r,
            None => simt::launch_threads_with_model(
                spec,
                model,
                LaunchConfig::over_threads(1, block_dim),
                |_t| {},
            )?,
        };
        Ok((y, report, ScheduleKind::Lrb))
    }
}

/// The serving formats (CSC stays analysis-only —
/// `PreparedOperand::prepare` refuses it, checked at the end of the
/// format-axis test).
const SERVE_FORMATS: [FormatKind; 4] = [
    FormatKind::Csr,
    FormatKind::Coo,
    FormatKind::Ell,
    FormatKind::Hybrid,
];

/// Matrices spanning the format filters: skewed (hybrid's habitat),
/// floored scale-free (zero-pad slab), and regular (ELL's habitat).
fn format_corpus() -> Vec<Csr<f32>> {
    vec![
        sparse::gen::powerlaw(200, 200, 3_000, 1.8, 12),
        sparse::gen::powerlaw_floor(600, 600, 8, 5_130, 2.5, 19),
        sparse::gen::banded(40, 3, 13),
    ]
}

fn strip(r: &LaunchReport) -> LaunchReport {
    let mut r = r.clone();
    r.host_wall_ms = 0.0;
    r
}

/// The format axis of the matrix: every serving format under every
/// schedule, for SpMV, SpMM, and PageRank, against the CSR path.
///
/// * **Results** are bitwise-equal to the CSR path under the schedule
///   the cell coerces to ([`kernels::formats::coerce_for_format`]) —
///   padding, slab/tail splits, and coordinate scatter must never
///   change a single output bit.
/// * **LaunchReports** (sans the host wall-clock diagnostic) are
///   compared where the geometries agree: COO shares CSR's tile/atom
///   geometry exactly, so its reports must match CSR's number for
///   number. The padded formats deliberately charge differently (that
///   cost difference is what the format tuner trades on), so for them
///   the report contract is run-to-run determinism.
/// * **Every cell is deterministic**: a second run reproduces results
///   and the stripped report bit for bit.
#[test]
fn format_axis_every_cell_matches_the_csr_path_for_spmv_spmm_pagerank() {
    use kernels::formats::{coerce_for_format, pagerank_format, spmm_format, spmv_format};
    use kernels::PreparedOperand;

    let spec = GpuSpec::v100();
    let model = CostModel::standard();

    for a in format_corpus() {
        let x = sparse::dense::test_vector(a.cols());
        let b = DenseMatrix::from_fn(a.cols(), 3, |r, c| ((r + 2 * c) as f32).sin());
        let csr_op = PreparedOperand::prepare(&a, FormatKind::Csr).unwrap();
        for format in SERVE_FORMATS {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            for kind in ALL_KINDS {
                let label = format!("{kind}@{format} on {}x{}", a.rows(), a.cols());
                let eff = coerce_for_format(format, kind);

                // SpMV: results vs the CSR path under the coerced
                // schedule; the whole run twice for determinism.
                let run = spmv_format(&spec, &model, &a, &op, &x, kind, 256).unwrap();
                let again = spmv_format(&spec, &model, &a, &op, &x, kind, 256).unwrap();
                let csr = kernels::spmv::spmv_with_model(&spec, &model, &a, &x, eff, 256).unwrap();
                assert_eq!(
                    run.schedule, csr.schedule,
                    "spmv {label}: resolved schedule vs the CSR path under {eff}"
                );
                assert_eq!(bits(&run.y), bits(&csr.y), "spmv {label}: y vs CSR path");
                assert_eq!(bits(&run.y), bits(&again.y), "spmv {label}: determinism");
                assert_eq!(
                    strip(&run.report),
                    strip(&again.report),
                    "spmv {label}: report determinism"
                );
                if format == FormatKind::Coo {
                    assert_eq!(
                        strip(&run.report),
                        strip(&csr.report),
                        "spmv {label}: COO shares CSR's geometry, so reports must match"
                    );
                }

                // SpMM: vs the CSR-operand cell under the schedule the
                // format cell coerces to (SpMM's own merge-path/thread-
                // mapped coercion applies first, then the format's —
                // e.g. the ELL cell downgrades merge-path to thread-
                // mapped, so the oracle must too).
                let spmm_eff = coerce_for_format(
                    format,
                    if kind == ScheduleKind::MergePath {
                        kind
                    } else {
                        ScheduleKind::ThreadMapped
                    },
                );
                let run = spmm_format(&spec, &model, &a, &op, &b, kind).unwrap();
                let again = spmm_format(&spec, &model, &a, &op, &b, kind).unwrap();
                let csr = spmm_format(&spec, &model, &a, &csr_op, &b, spmm_eff).unwrap();
                let flat = |c: &DenseMatrix<f32>| -> Vec<f32> {
                    (0..a.rows())
                        .flat_map(|r| (0..3).map(move |j| (r, j)))
                        .map(|(r, j)| c.get(r, j))
                        .collect()
                };
                assert_eq!(bits(&flat(&run.c)), bits(&flat(&csr.c)), "spmm {label}: C vs CSR path");
                assert_eq!(bits(&flat(&run.c)), bits(&flat(&again.c)), "spmm {label}: determinism");
                assert_eq!(
                    strip(&run.report),
                    strip(&again.report),
                    "spmm {label}: report determinism"
                );
                if format == FormatKind::Coo {
                    assert_eq!(
                        strip(&run.report),
                        strip(&csr.report),
                        "spmm {label}: COO shares CSR's geometry, so reports must match"
                    );
                }
            }
        }
    }

    // PageRank: the power iteration over Mᵀ prepared in each format,
    // against the CSR-format iteration under the coerced schedule —
    // identical inner SpMV bits mean the fixpoint trajectory never
    // diverges.
    let spec = GpuSpec::v100();
    for g in [
        Graph::from_generator(sparse::gen::powerlaw(150, 150, 2_000, 1.8, 14)),
        Graph::from_generator(sparse::gen::banded(40, 3, 16)),
    ] {
        for format in SERVE_FORMATS {
            for kind in ALL_KINDS {
                let label = format!("pagerank {kind}@{format}");
                let eff = coerce_for_format(format, kind);
                let run = pagerank_format(&spec, &g, kind, format, 1e-6, 60).unwrap();
                let again = pagerank_format(&spec, &g, kind, format, 1e-6, 60).unwrap();
                let csr = pagerank_format(&spec, &g, eff, FormatKind::Csr, 1e-6, 60).unwrap();
                assert_eq!(run.iterations, csr.iterations, "{label}: iteration count");
                assert_eq!(bits(&run.rank), bits(&csr.rank), "{label}: ranks vs CSR path");
                assert_eq!(bits(&run.rank), bits(&again.rank), "{label}: determinism");
                assert_eq!(
                    strip(&run.report),
                    strip(&again.report),
                    "{label}: report determinism"
                );
            }
        }
    }

    // CSC stays analysis-only: preparing it as a serving operand must
    // fail loudly rather than silently falling back to CSR.
    let a = sparse::gen::uniform(30, 30, 120, 44);
    assert!(
        PreparedOperand::prepare(&a, FormatKind::Csc).is_err(),
        "CSC must not be servable"
    );
}

/// FNV-1a (64-bit) over a rendering: a compact, dependency-free digest.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SpMM's output and simulated cost, pinned: every format-corpus
/// matrix × {thread-mapped, merge-path} × {cold, planned} × serving
/// format renders its `C` bits, resolved schedule and launch report
/// (sans the host wall-clock diagnostic, as `host_parallel` renders
/// it), and the digest of the whole rendering must equal the one
/// recorded before SpMM's body was rewritten. Any moved bit of `C`, or
/// any moved number in a report, fails it.
#[test]
fn spmm_outputs_and_reports_are_pinned_across_formats_and_plans() {
    use kernels::formats::{prepare_spmm_plan, spmm_format, spmm_format_with_plan};
    use kernels::PreparedOperand;
    use std::fmt::Write as _;

    const PIN: u64 = 0x670c_1355_16d0_e8f3;
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let mut rendered = String::new();
    for a in format_corpus() {
        let b = DenseMatrix::from_fn(a.cols(), 3, |r, c| ((r + 2 * c) as f32).sin());
        for format in SERVE_FORMATS {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            for kind in [ScheduleKind::ThreadMapped, ScheduleKind::MergePath] {
                let cold = spmm_format(&spec, &model, &a, &op, &b, kind).unwrap();
                let plan = prepare_spmm_plan(&spec, &model, &a, &op, kind).unwrap();
                let planned = spmm_format_with_plan(&spec, &model, &a, &op, &b, &plan).unwrap();
                for (mode, run) in [("cold", cold), ("planned", planned)] {
                    writeln!(
                        rendered,
                        "{}x{} {kind}@{format} {mode}: {:?} {} {:?}",
                        a.rows(),
                        a.cols(),
                        bits(run.c.as_slice()),
                        run.schedule,
                        strip(&run.report)
                    )
                    .unwrap();
                }
            }
        }
    }
    assert_eq!(
        fnv1a(&rendered),
        PIN,
        "an SpMM output or launch report moved"
    );
}

/// Autotuned serving never changes numerics: for every kernel the
/// runtime tunes (SpMV, SpMM, BFS), drive a tuning-enabled runtime
/// through its sweep to promotion and compare each output — exploration
/// serves and warm post-promotion serves alike — against the plain
/// untuned kernel under the schedule that actually ran. Bitwise.
#[test]
fn tuned_runtime_outputs_match_untuned_kernels_for_every_kernel() {
    use runtime::{Runtime, RuntimeConfig, TuneConfig};

    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let tuned_runtime = || {
        Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                keep_results: true,
                tune: TuneConfig {
                    enabled: true,
                    epsilon: 1.0, // sweep straight through the space
                    ..TuneConfig::default()
                },
                ..RuntimeConfig::default()
            },
        )
    };

    // SpMV via the serving path: one request at a time so every serve is
    // a solo cache miss/hit with a recorded schedule.
    let a = std::sync::Arc::new(sparse::gen::powerlaw(500, 500, 6_000, 1.8, 21));
    let x: std::sync::Arc<[f32]> =
        std::sync::Arc::from(sparse::dense::test_vector(a.cols()).into_boxed_slice());
    let mut rt = tuned_runtime();
    for i in 0..16u64 {
        let req = runtime::Request {
            id: i,
            tenant: 0,
            matrix: std::sync::Arc::clone(&a),
            x: std::sync::Arc::clone(&x),
            arrival_ms: 0.0,
        };
        let out = rt.serve(std::slice::from_ref(&req)).unwrap();
        let c = &out.completions[0];
        let cold =
            kernels::spmv::spmv_with_model(&spec, &model, &a, &x, c.schedule, 256).unwrap();
        assert_eq!(
            bits(c.y.as_ref().unwrap()),
            bits(&cold.y),
            "spmv serve {i} under {} diverged from the untuned kernel",
            c.schedule
        );
        if rt.tune_stats().promotes == 1 {
            break;
        }
    }
    assert_eq!(rt.tune_stats().promotes, 1, "spmv sweep should promote");

    // SpMM: the tuned plan-cache path against the untuned kernel.
    let mut rt = tuned_runtime();
    let b = DenseMatrix::from_fn(a.cols(), 3, |r, c| ((r + 2 * c) as f32).sin());
    for i in 0..8 {
        let run = rt.run_spmm(&a, &b).unwrap();
        let cold = kernels::spmm::spmm_with_model(&spec, &model, &a, &b, run.schedule).unwrap();
        let got: Vec<f32> = (0..a.rows()).flat_map(|r| (0..3).map(move |j| (r, j)))
            .map(|(r, j)| run.output.get(r, j))
            .collect();
        let want: Vec<f32> = (0..a.rows()).flat_map(|r| (0..3).map(move |j| (r, j)))
            .map(|(r, j)| cold.c.get(r, j))
            .collect();
        assert_eq!(bits(&got), bits(&want), "spmm serve {i} under {}", run.schedule);
        if rt.tune_stats().promotes == 1 {
            break;
        }
    }
    assert_eq!(rt.tune_stats().promotes, 1, "spmm sweep should promote");

    // BFS: integer depths must match the reference whatever the tuner
    // explores.
    let g = std::sync::Arc::new(Graph::from_generator(sparse::gen::powerlaw(
        400, 400, 5_000, 1.8, 22,
    )));
    let want = kernels::reference::bfs_ref(g.adjacency(), 0);
    let mut rt = tuned_runtime();
    for i in 0..16 {
        let run = rt.run_bfs(&g, 0).unwrap();
        assert_eq!(run.output, want, "bfs serve {i} under {}", run.schedule);
        if rt.tune_stats().promotes == 1 {
            break;
        }
    }
    assert_eq!(rt.tune_stats().promotes, 1, "bfs sweep should promote");
}

/// The proptest: random matrices, random schedules, random block sizes —
/// engine and legacy paths must agree in output bits, resolved schedule,
/// and the entire launch report (modulo the host wall-clock diagnostic).
#[test]
fn engine_and_legacy_spmv_agree_on_random_cases() {
    const CASES: usize = 32;
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let mut rng = Prng::seed_from_u64(0xD15BA7C4);
    for case in 0..CASES {
        let rows = rng.index(1, 400);
        let cols = rng.index(1, 400);
        let nnz = rng.index(0, rows * cols.min(40) + 1);
        let a = sparse::gen::powerlaw(rows, cols, nnz, 1.5 + 0.1 * (case % 8) as f64, case as u64);
        let x = sparse::dense::test_vector(a.cols());
        let kind = ALL_KINDS[rng.index(0, ALL_KINDS.len())];
        let block_dim = [64u32, 128, 256, 512][rng.index(0, 4)];

        let engine = kernels::spmv::spmv_with_model(&spec, &model, &a, &x, kind, block_dim)
            .unwrap_or_else(|e| panic!("case {case} ({kind}, block {block_dim}): {e:?}"));
        let (ly, lreport, lkind) =
            legacy::spmv_with_model(&spec, &model, &a, &x, kind, block_dim).unwrap();

        assert_eq!(bits(&engine.y), bits(&ly), "case {case}: y differs ({kind})");
        assert_eq!(engine.schedule, lkind, "case {case}: resolved schedule differs");
        let strip = |r: &LaunchReport| {
            let mut r = r.clone();
            r.host_wall_ms = 0.0;
            r
        };
        assert_eq!(
            strip(&engine.report),
            strip(&lreport),
            "case {case}: launch report differs ({kind}, block {block_dim})"
        );
    }
}

/// One traced dispatch record, as bits, in emission order:
/// `('b', block, sm, start, end)` for a block span and
/// `('w', block, warp, units, idle lanes)` for a warp sample.
type DispatchSample = (char, u32, u32, u64, u64);

/// Every block span and warp sample a traced launch emits.
#[derive(Debug, Default)]
struct DispatchSamples(std::sync::Mutex<Vec<DispatchSample>>);

impl trace::TraceSink for DispatchSamples {
    fn event(&self, ev: &trace::TraceEvent) {
        let sample = match *ev {
            trace::TraceEvent::Block {
                block,
                sm,
                start_ms,
                end_ms,
                ..
            } => ('b', block, sm, start_ms.to_bits(), end_ms.to_bits()),
            trace::TraceEvent::Warp {
                block,
                warp,
                units,
                idle_lanes,
                ..
            } => ('w', block, warp, units.to_bits(), idle_lanes.to_bits()),
            _ => return,
        };
        self.0.lock().expect("no sink user panics").push(sample);
    }
}

/// Run `f` under a fresh [`DispatchSamples`] sink, labelled as SpMV under
/// `kind`; return its result and the samples.
fn with_dispatch_samples<R>(kind: ScheduleKind, f: impl FnOnce() -> R) -> (R, Vec<DispatchSample>) {
    let sink = std::sync::Arc::new(DispatchSamples::default());
    let label = loops::dispatch::trace_label(loops::dispatch::KernelKind::Spmv, kind);
    let out = simt::tracing::scoped(sink.clone(), label, f);
    let samples = std::mem::take(&mut *sink.0.lock().expect("no sink user panics"));
    (out, samples)
}

/// The engine's two cold-launch shortcuts against the legacy launches,
/// which take neither. Work-queue: the engine runs only the threads with
/// a first claim and charges the rest as idle, and runs no block past
/// the first one without a claim; the legacy launch runs every thread of
/// every block. On the V100 nearly every persistent thread is idle; on
/// the tiny spec threads loop over several claims. Merge-path: the
/// engine walks the partition table on the host before the launch and
/// each thread reads its bounds from it, charged as the two diagonal
/// searches; the legacy launch searches in every thread. Results, the
/// whole report and, traced, every block span (SM and times) and warp
/// sample must agree bit for bit.
#[test]
fn idle_tail_and_partition_walk_match_the_legacy_launch() {
    let model = CostModel::standard();
    let mut matrices = corpus();
    matrices.push(sparse::gen::rmat(12, 8, (0.57, 0.19, 0.19), 23));
    let kinds = [
        ScheduleKind::WorkQueue(1),
        ScheduleKind::WorkQueue(8),
        ScheduleKind::WorkQueue(64),
        ScheduleKind::WorkQueue(1024),
        ScheduleKind::MergePath,
    ];
    for spec in [GpuSpec::v100(), GpuSpec::test_tiny()] {
        for a in &matrices {
            let x = sparse::dense::test_vector(a.cols());
            for kind in kinds {
                for block_dim in [64u32, 100, 256, 512] {
                    if block_dim > spec.max_threads_per_block {
                        continue;
                    }
                    let (rows, cols) = (a.rows(), a.cols());
                    let label = format!("{} {rows}x{cols} {kind} block {block_dim}", spec.name);
                    let engine = || {
                        kernels::spmv::spmv_with_model(&spec, &model, a, &x, kind, block_dim)
                            .unwrap()
                    };
                    let every = || {
                        legacy::spmv_with_model(&spec, &model, a, &x, kind, block_dim).unwrap()
                    };
                    let (run, (ly, lreport, _)) = (engine(), every());
                    assert_eq!(bits(&run.y), bits(&ly), "{label}: y");
                    assert_eq!(strip(&run.report), strip(&lreport), "{label}: report");

                    let (traced, samples) = with_dispatch_samples(kind, engine);
                    let ((ly, lreport, _), lsamples) = with_dispatch_samples(kind, every);
                    assert_eq!(bits(&traced.y), bits(&ly), "{label}: traced y");
                    assert_eq!(strip(&traced.report), strip(&lreport), "{label}: traced report");
                    let spans = samples.iter().filter(|s| s.0 == 'b').count();
                    assert_eq!(spans, lreport.grid_dim as usize, "{label}: one span per block");
                    assert_eq!(samples, lsamples, "{label}: block spans and warp samples");
                }
            }
        }
    }
}
