//! Load-balanced SpMV — the paper's benchmark application (Listing 3).
//!
//! `y = A·x` with the computation written **once**, as a
//! [`TileExec`], and every schedule provided by the engine
//! ([`loops::dispatch::BalancedLaunch`]) — the "single enum identifier"
//! switch of §6.2 with zero per-kernel schedule code. Every variant runs
//! on the simulator, charges the framework's range overheads, and
//! returns both the result vector and the launch's timing report.

use loops::adapters::CsrTiles;
use loops::dispatch::{span_atoms, BalancedLaunch, KernelPlan, TileExec};
pub use loops::dispatch::{DEFAULT_BLOCK, MERGE_ITEMS_PER_THREAD};
use loops::schedule::{ScheduleKind, TileSpan};
use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx, LaunchConfig, LaunchReport};
use sparse::Csr;

/// Result of one simulated SpMV.
#[derive(Debug, Clone)]
pub struct SpmvRun {
    /// The output vector `y`.
    pub y: Vec<f32>,
    /// Simulated launch report (use `report.elapsed_ms()`).
    pub report: LaunchReport,
    /// Which schedule actually ran (after any clamping).
    pub schedule: ScheduleKind,
}

/// The SpMV computation, written once for all schedules: a flat span
/// accumulates locally and either stores (complete tile) or combines
/// through `atomicAdd` (partial merge-path tile — the framework-level
/// equivalent of CUB's carry-out/fixup pass); cooperative schedules
/// compute one product per atom and store each tile's segment-reduced
/// sum exactly once.
struct SpmvExec<'a> {
    values: &'a [f32],
    col_indices: &'a [u32],
    x: &'a [f32],
    y: GlobalMem<'a, f32>,
}

impl TileExec for SpmvExec<'_> {
    const COOPERATIVE_REDUCE: bool = true;

    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        let mut sum = 0.0f32;
        for nz in span_atoms(span, lane) {
            sum += self.values[nz] * self.x[self.col_indices[nz] as usize];
        }
        if span.complete {
            self.y.store(span.tile, sum);
            lane.write_bytes(4);
        } else if !span.atoms.is_empty() {
            self.y.fetch_add(span.tile, sum);
            lane.charge_atomic();
        }
    }

    fn atom_value(&self, _lane: &LaneCtx<'_>, _tile: usize, nz: usize) -> f32 {
        self.values[nz] * self.x[self.col_indices[nz] as usize]
    }

    fn tile_done(&self, lane: &LaneCtx<'_>, tile: usize, sum: f32) {
        self.y.store(tile, sum);
        lane.write_bytes(4);
    }
}

/// Run SpMV with the given schedule and the standard cost model.
pub fn spmv(
    spec: &GpuSpec,
    a: &Csr<f32>,
    x: &[f32],
    kind: ScheduleKind,
) -> simt::Result<SpmvRun> {
    spmv_with_model(spec, &CostModel::standard(), a, x, kind, DEFAULT_BLOCK)
}

/// Run SpMV with full control over cost model and block size.
pub fn spmv_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    assert_eq!(x.len(), a.cols(), "x must have one entry per column");
    let work = CsrTiles::new(a);
    let mut y = vec![0.0f32; a.rows()];
    let d = {
        let exec = SpmvExec {
            values: a.values(),
            col_indices: a.col_indices(),
            x,
            y: GlobalMem::new(&mut y),
        };
        BalancedLaunch::new(spec, model, &work)
            .block_dim(block_dim)
            .run(kind, &exec)?
    };
    Ok(SpmvRun {
        y,
        report: d.report,
        schedule: d.schedule,
    })
}

/// Prepare a reusable SpMV plan for `a` under a fixed schedule: the
/// schedule resolution, block size, and pattern-only setup artifacts
/// (merge-path partition table, LRB bins). The artifacts depend only on
/// `a`'s sparsity pattern, so one plan serves *any* `x` — the unit a
/// serving runtime caches per matrix.
pub fn prepare(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<KernelPlan> {
    let work = CsrTiles::new(a);
    BalancedLaunch::new(spec, model, &work)
        .block_dim(block_dim)
        .prepare(kind)
}

/// Run SpMV with a prepared plan (see [`prepare`]): the schedule choice
/// and any setup artifacts (merge-path partition table, LRB bins) come
/// from the plan, so a cached plan skips the setup work a cold launch
/// pays. Results are bitwise identical to the cold path for the same
/// schedule — the plan changes *when* work is found, never *what order*
/// each row's products accumulate in.
pub fn spmv_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
    plan: &KernelPlan,
) -> simt::Result<SpmvRun> {
    assert_eq!(x.len(), a.cols(), "x must have one entry per column");
    let work = CsrTiles::new(a);
    let mut y = vec![0.0f32; a.rows()];
    let d = {
        let exec = SpmvExec {
            values: a.values(),
            col_indices: a.col_indices(),
            x,
            y: GlobalMem::new(&mut y),
        };
        BalancedLaunch::new(spec, model, &work)
            .block_dim(plan.block_dim)
            .run_planned(plan, &exec)?
    };
    Ok(SpmvRun {
        y,
        report: d.report,
        schedule: d.schedule,
    })
}

/// SpMV restricted to a contiguous row span, without materializing a
/// sub-matrix: the engine runs on a rebased
/// [`RowSpanTiles`](loops::work::RowSpanTiles) view of the original row
/// offsets, and the value/column arrays are sliced by the span's atom
/// base. `y` has `rows.len()` entries — the shard's contiguous slice of
/// the global result.
///
/// Bitwise contract: for any schedule, the result is identical to
/// running the same schedule on `a.row_slice(rows)` (the geometries are
/// equal, so the engine makes identical decisions). For *flat-span*
/// schedules (thread-mapped, work-queue) it is furthermore identical to
/// the matching slice of a full-matrix run, because each row is one
/// complete span whose products fold left-to-right in atom order
/// regardless of which lane owns the row. Merge-path (partition-relative
/// partial spans combined by `atomicAdd`) and the cooperative-reduce
/// schedules (lane partials interleaved in batch-relative order) do not
/// decompose bitwise, so sharded execution coerces them to a flat-span
/// schedule (see `runtime::split::decomposable`).
pub fn spmv_rows(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    rows: std::ops::Range<usize>,
    x: &[f32],
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    assert_eq!(x.len(), a.cols(), "x must have one entry per column");
    assert!(rows.end <= a.rows(), "row span out of bounds");
    let work = loops::work::RowSpanTiles::new(a.row_offsets(), rows.clone());
    let base = work.atom_base();
    let end = base + loops::work::TileSet::num_atoms(&work);
    let mut y = vec![0.0f32; rows.len()];
    let d = {
        let exec = SpmvExec {
            values: &a.values()[base..end],
            col_indices: &a.col_indices()[base..end],
            x,
            y: GlobalMem::new(&mut y),
        };
        BalancedLaunch::new(spec, model, &work)
            .block_dim(block_dim)
            .run(kind, &exec)?
    };
    Ok(SpmvRun {
        y,
        report: d.report,
        schedule: d.schedule,
    })
}

/// SpMV over the ELL format: thread-mapped on a *perfectly regular* tile
/// set (the format itself is the load balancer — §7's "already-load-
/// balanced formats"). Padded slots are skipped at consumption time but
/// still cost their slot's work: the price of padding, measurable against
/// the scheduling-based answers.
pub fn spmv_ell(
    spec: &GpuSpec,
    e: &sparse::Ell<f32>,
    x: &[f32],
) -> simt::Result<SpmvRun> {
    use loops::adapters::EllTiles;

    /// Flat-span ELL body: like CSR's but PAD-aware.
    struct EllExec<'a> {
        values: &'a [f32],
        col_indices: &'a [u32],
        x: &'a [f32],
        y: GlobalMem<'a, f32>,
    }
    impl TileExec for EllExec<'_> {
        const COOPERATIVE_REDUCE: bool = false;
        fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
            let mut sum = 0.0f32;
            for slot in span_atoms(span, lane) {
                let c = self.col_indices[slot];
                if c != sparse::ell::PAD {
                    sum += self.values[slot] * self.x[c as usize];
                }
            }
            self.y.store(span.tile, sum);
            lane.write_bytes(4);
        }
    }

    assert_eq!(x.len(), e.cols(), "x must have one entry per column");
    let model = CostModel::standard();
    let work = EllTiles::new(e);
    let mut y = vec![0.0f32; e.rows()];
    let d = {
        let exec = EllExec {
            values: e.values(),
            col_indices: e.col_indices(),
            x,
            y: GlobalMem::new(&mut y),
        };
        BalancedLaunch::new(spec, &model, &work).run(ScheduleKind::ThreadMapped, &exec)?
    };
    Ok(SpmvRun {
        y,
        report: d.report,
        schedule: d.schedule,
    })
}

/// SpMV over COO: one thread per stored entry, scattering into `y` with
/// `atomicAdd`. Perfectly balanced by construction — every atom is its own
/// tile — but every atom pays the atomic: the opposite end of the
/// balance/overhead trade from tile-based schedules, and the reason
/// formats like F-COO exist (§7). This is the one SpMV that bypasses the
/// engine: its per-entry scatter has no tile structure for a schedule to
/// balance.
pub fn spmv_coo(
    spec: &GpuSpec,
    a: &sparse::Coo<f32>,
    x: &[f32],
) -> simt::Result<SpmvRun> {
    assert_eq!(x.len(), a.cols(), "x must have one entry per column");
    let model = CostModel::standard();
    let mut y = vec![0.0f32; a.rows()];
    let (rows, cols, vals) = (a.row_indices(), a.col_indices(), a.values());
    let n = a.nnz();
    let block = DEFAULT_BLOCK.min(spec.max_threads_per_block);
    let report = {
        let gy = GlobalMem::new(&mut y);
        simt::launch_threads_with_model(
            spec,
            &model,
            LaunchConfig::over_threads(n.max(1) as u64, block),
            |t| {
                let mut i = t.global_thread_id() as usize;
                while i < n {
                    t.charge_atom();
                    gy.fetch_add(rows[i] as usize, vals[i] * x[cols[i] as usize]);
                    t.charge_atomic();
                    i += t.grid_size() as usize;
                }
            },
        )?
    };
    Ok(SpmvRun {
        y,
        report,
        schedule: ScheduleKind::ThreadMapped,
    })
}

/// Maximum relative error between a simulated result and the reference.
pub fn max_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// A report without its host wall-clock diagnostic, for equality.
    fn strip(r: &LaunchReport) -> LaunchReport {
        let mut r = r.clone();
        r.host_wall_ms = 0.0;
        r
    }

    fn check_all_schedules(a: &Csr<f32>, spec: &GpuSpec) {
        let x = sparse::dense::test_vector(a.cols());
        let want = a.spmv_ref(&x);
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::GroupMapped(3), // awkward size → clamped to a divisor
            ScheduleKind::WorkQueue(1),
            ScheduleKind::WorkQueue(16),
            ScheduleKind::Lrb,
        ] {
            let run = spmv(spec, a, &x, kind).unwrap();
            let err = max_rel_error(&run.y, &want);
            assert!(
                err < 2e-3,
                "{kind}: max rel error {err} on {}x{}",
                a.rows(),
                a.cols()
            );
            assert!(run.report.elapsed_ms() > 0.0);
        }
    }

    #[test]
    fn all_schedules_agree_with_reference_on_random_matrix() {
        let a = sparse::gen::uniform(500, 400, 6_000, 11);
        check_all_schedules(&a, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_handle_power_law_imbalance() {
        let a = sparse::gen::powerlaw(800, 800, 16_000, 1.8, 12);
        check_all_schedules(&a, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_handle_empty_rows_and_tiny_matrices() {
        let a = Csr::from_triplets(5, 5, vec![(0u32, 0u32, 1.0f32), (4, 4, 2.0)]).unwrap();
        check_all_schedules(&a, &GpuSpec::v100());
        let empty = Csr::<f32>::empty(3, 3);
        check_all_schedules(&empty, &GpuSpec::v100());
    }

    #[test]
    fn all_schedules_work_on_tiny_device_and_wide_warps() {
        let a = sparse::gen::uniform(100, 100, 1_000, 13);
        check_all_schedules(&a, &GpuSpec::test_tiny());
        check_all_schedules(&a, &GpuSpec::mi100());
    }

    #[test]
    fn merge_path_beats_thread_mapped_on_hub_matrix() {
        let spec = GpuSpec::v100();
        let a = sparse::gen::hub_rows(20_000, 20_000, 2, 20_000, 2, 14);
        let x = sparse::dense::test_vector(a.cols());
        let tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        let mp = spmv(&spec, &a, &x, ScheduleKind::MergePath).unwrap();
        assert!(
            mp.report.elapsed_ms() < tm.report.elapsed_ms() / 2.0,
            "merge-path {} ms vs thread-mapped {} ms",
            mp.report.elapsed_ms(),
            tm.report.elapsed_ms()
        );
    }

    #[test]
    fn thread_mapped_wins_on_tiny_regular_matrix() {
        // Tiny, perfectly regular: merge-path's setup cannot pay off.
        let spec = GpuSpec::v100();
        let a = sparse::gen::diagonal(64, 15);
        let x = sparse::dense::test_vector(64);
        let tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        let mp = spmv(&spec, &a, &x, ScheduleKind::MergePath).unwrap();
        assert!(tm.report.elapsed_ms() <= mp.report.elapsed_ms());
    }

    #[test]
    fn ell_spmv_matches_csr_reference() {
        let spec = GpuSpec::v100();
        let a = sparse::gen::banded(5_000, 4, 16);
        let e = sparse::Ell::from_csr(&a, 2.0).unwrap();
        let x = sparse::dense::test_vector(a.cols());
        let run = spmv_ell(&spec, &e, &x).unwrap();
        let err = max_rel_error(&run.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
    }

    #[test]
    fn ell_thread_mapped_is_regular_but_pays_for_padding() {
        let spec = GpuSpec::v100();
        // Skewed matrix: ELL pads every row to the max (512 vs 8).
        // (Row count divides the block size: a ragged tail block would
        // trip the latency-exposure term — see DESIGN.md's model notes.)
        let a = sparse::gen::hub_rows(20_480, 20_480, 64, 512, 8, 17);
        let e = sparse::Ell::from_csr(&a, 80.0).unwrap();
        let x = sparse::dense::test_vector(a.cols());
        let ell = spmv_ell(&spec, &e, &x).unwrap();
        let err = max_rel_error(&ell.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
        let csr_tm = spmv(&spec, &a, &x, ScheduleKind::ThreadMapped).unwrap();
        // The format pre-balances every row to the same slot count, so the
        // workload is regular by construction...
        assert!(ell.report.timing.sm_utilization > 0.5);
        // ...but the padding is real work: `slots` touched, not `nnz` —
        // the §7 trade between pre-balanced formats and active schedules.
        assert!(
            ell.report.timing.total_units > 5.0 * csr_tm.report.timing.total_units,
            "53x fill should dominate: ell {} vs csr {}",
            ell.report.timing.total_units,
            csr_tm.report.timing.total_units
        );
    }

    #[test]
    fn coo_scatter_matches_reference_and_pays_for_atomics() {
        let spec = GpuSpec::v100();
        let a = sparse::gen::powerlaw(5_000, 5_000, 80_000, 1.8, 18);
        let coo = sparse::convert::csr_to_coo(&a);
        let x = sparse::dense::test_vector(a.cols());
        let run = spmv_coo(&spec, &coo, &x).unwrap();
        let err = max_rel_error(&run.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
        // Balanced but atomic-bound: more issue work than merge-path.
        let mp = spmv(&spec, &a, &x, ScheduleKind::MergePath).unwrap();
        assert!(run.report.timing.total_units > mp.report.timing.total_units);
        assert!(run.report.mem.atomic_ops as usize >= a.nnz());
    }

    #[test]
    fn row_span_spmv_is_bitwise_equal_to_the_row_slice_path() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(1_200, 1_200, 20_000, 1.7, 19);
        let x = sparse::dense::test_vector(a.cols());
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::GroupMapped(8),
            ScheduleKind::WorkQueue(4),
            ScheduleKind::Lrb,
        ] {
            for range in [0..400usize, 400..1_200, 777..777, 0..1_200] {
                let span =
                    spmv_rows(&spec, &model, &a, range.clone(), &x, kind, DEFAULT_BLOCK).unwrap();
                let sliced = a.row_slice(range.clone());
                let slice =
                    spmv_with_model(&spec, &model, &sliced, &x, kind, DEFAULT_BLOCK).unwrap();
                assert_eq!(span.y.len(), range.len());
                assert_eq!(bits(&span.y), bits(&slice.y), "{kind} {range:?}: y bits differ");
                assert_eq!(span.schedule, slice.schedule, "{kind} {range:?}");
                assert_eq!(
                    strip(&span.report),
                    strip(&slice.report),
                    "{kind} {range:?}: span vs row_slice launch reports differ"
                );
            }
        }
    }

    #[test]
    fn flat_span_row_spans_are_bitwise_decomposable() {
        // Flat-span schedules process every row as one complete span,
        // folding its products left-to-right in atom order — so a row
        // span's result equals the matching slice of the full-matrix
        // run bitwise. This is the invariant sharded serving merges on.
        // Cooperative-reduce schedules (warp/block/group-mapped)
        // interleave lane partials in batch-relative order and
        // merge-path splits rows across partial spans, so neither is
        // decomposable; `runtime::split` coerces them away.
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::rmat(10, 16, (0.55, 0.2, 0.2), 20);
        let x = sparse::dense::test_vector(a.cols());
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::WorkQueue(1),
            ScheduleKind::WorkQueue(8),
        ] {
            let full = spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
            for range in [0..300usize, 300..1_024] {
                let span =
                    spmv_rows(&spec, &model, &a, range.clone(), &x, kind, DEFAULT_BLOCK).unwrap();
                assert_eq!(
                    bits(&span.y),
                    bits(&full.y[range.clone()]),
                    "{kind} {range:?}: span bits differ from full-run slice"
                );
            }
        }
    }

    #[test]
    fn planned_results_are_bitwise_identical_across_all_schedules() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        for a in [
            sparse::gen::uniform(300, 250, 4_000, 21),
            sparse::gen::powerlaw(600, 600, 12_000, 1.8, 22),
            Csr::<f32>::empty(4, 4),
        ] {
            let x = sparse::dense::test_vector(a.cols());
            for kind in [
                ScheduleKind::ThreadMapped,
                ScheduleKind::MergePath,
                ScheduleKind::WarpMapped,
                ScheduleKind::BlockMapped,
                ScheduleKind::GroupMapped(16),
                ScheduleKind::WorkQueue(8),
                ScheduleKind::Lrb,
            ] {
                let cold = spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
                let plan = prepare(&spec, &model, &a, kind, DEFAULT_BLOCK).unwrap();
                let warm = spmv_with_plan(&spec, &model, &a, &x, &plan).unwrap();
                assert_eq!(
                    bits(&cold.y),
                    bits(&warm.y),
                    "{kind}: planned result differs from cold path"
                );
            }
        }
    }

    #[test]
    fn cached_merge_path_plan_skips_search_cost() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(5_000, 5_000, 120_000, 1.9, 23);
        let x = sparse::dense::test_vector(a.cols());
        let cold =
            spmv_with_model(&spec, &model, &a, &x, ScheduleKind::MergePath, DEFAULT_BLOCK).unwrap();
        let plan = prepare(&spec, &model, &a, ScheduleKind::MergePath, DEFAULT_BLOCK).unwrap();
        let warm = spmv_with_plan(&spec, &model, &a, &x, &plan).unwrap();
        assert!(
            warm.report.timing.total_units < cold.report.timing.total_units,
            "prepartitioned launch should issue less work: warm {} vs cold {}",
            warm.report.timing.total_units,
            cold.report.timing.total_units
        );
        assert!(warm.report.elapsed_ms() <= cold.report.elapsed_ms());
    }

    #[test]
    fn cached_lrb_plan_skips_binning_launches() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(3_000, 3_000, 60_000, 1.8, 24);
        let x = sparse::dense::test_vector(a.cols());
        let cold = spmv_with_model(&spec, &model, &a, &x, ScheduleKind::Lrb, DEFAULT_BLOCK).unwrap();
        let plan = prepare(&spec, &model, &a, ScheduleKind::Lrb, DEFAULT_BLOCK).unwrap();
        assert!(plan.setup_ms > 0.0);
        let warm = spmv_with_plan(&spec, &model, &a, &x, &plan).unwrap();
        assert_eq!(bits(&cold.y), bits(&warm.y));
        // Cold pays the binning inside its report; warm paid it once at
        // prepare time.
        assert!(
            warm.report.elapsed_ms() < cold.report.elapsed_ms(),
            "warm {} vs cold {}",
            warm.report.elapsed_ms(),
            cold.report.elapsed_ms()
        );
        assert!(cold.report.elapsed_ms() >= warm.report.elapsed_ms() + 0.5 * plan.setup_ms);
    }

    #[test]
    #[should_panic(expected = "one entry per column")]
    fn x_length_checked() {
        let a = sparse::gen::uniform(10, 10, 20, 1);
        let _ = spmv(&GpuSpec::v100(), &a, &[1.0; 3], ScheduleKind::MergePath);
    }
}
