//! Load-balanced SpMV — the paper's benchmark application (Listing 3).
//!
//! `y = A·x` with the computation written **once**, as the
//! format-generic [`TileExec`](loops::dispatch::TileExec) body in
//! [`crate::formats`], and every schedule provided by the engine
//! ([`loops::dispatch::BalancedLaunch`]) — the "single enum identifier"
//! switch of §6.2 with zero per-kernel schedule code. Every variant runs
//! on the simulator, charges the framework's range overheads, and
//! returns both the result vector and the launch's timing report. The
//! functions here are the CSR entry points; plan-cached warm launches go
//! through [`crate::formats::prepare_format_plan`] and
//! [`crate::formats::spmv_format_with_plan`].

use crate::formats::{self, cold_plan, CsrEntries, OperandKernel, PreparedOperand, SpmvLaunch};
pub use loops::dispatch::{DEFAULT_BLOCK, MERGE_ITEMS_PER_THREAD};
use loops::schedule::ScheduleKind;
use loops::work::RowSpanTiles;
use simt::{CostModel, GpuSpec, LaunchReport};
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
    formats::spmv_format(spec, model, a, &PreparedOperand::CSR, x, kind, block_dim)
}

/// SpMV restricted to a contiguous row span, without materializing a
/// sub-matrix: the engine runs on a rebased [`RowSpanTiles`] view of the
/// original row offsets, and the value/column arrays are sliced by the
/// span's atom base. `y` has `rows.len()` entries — the shard's
/// contiguous slice of the global result.
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
    let work = RowSpanTiles::new(a.row_offsets(), rows.clone());
    let plan = cold_plan(kind, block_dim);
    SpmvLaunch {
        spec,
        model,
        x,
        plan: &plan,
    }
    .tiles(&work, &CsrEntries::span(a, rows))
}

/// Maximum relative error between a simulated result and the reference.
/// Equal pairs read 0 — same-signed infinities and NaN against NaN
/// included; any other pair whose error is NaN (a NaN on one side only,
/// opposite infinities) reads infinity, so a validation never passes a
/// NaN it was not expecting.
pub fn max_rel_error(got: &[f32], want: &[f32]) -> f32 {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(&g, &w)| {
            if g == w || (g.is_nan() && w.is_nan()) {
                0.0
            } else {
                let err = (g - w).abs() / w.abs().max(1.0);
                if err.is_nan() {
                    f32::INFINITY
                } else {
                    err
                }
            }
        })
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// Prepare a CSR plan for `kind`, then launch under it.
    fn planned(
        spec: &GpuSpec,
        model: &CostModel,
        a: &Csr<f32>,
        x: &[f32],
        kind: ScheduleKind,
    ) -> (loops::dispatch::KernelPlan, SpmvRun) {
        let op = PreparedOperand::CSR;
        let plan = formats::prepare_format_plan(spec, model, a, &op, kind, DEFAULT_BLOCK).unwrap();
        let run = formats::spmv_format_with_plan(spec, model, a, &op, x, &plan).unwrap();
        (plan, run)
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
                let (_, warm) = planned(&spec, &model, &a, &x, kind);
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
        let (_, warm) = planned(&spec, &model, &a, &x, ScheduleKind::MergePath);
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
        let (plan, warm) = planned(&spec, &model, &a, &x, ScheduleKind::Lrb);
        assert!(plan.setup_ms > 0.0);
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
    fn max_rel_error_sees_nan_and_opposite_infinities() {
        assert_eq!(max_rel_error(&[f32::NAN], &[1.0]), f32::INFINITY);
        let opposite = max_rel_error(&[f32::NEG_INFINITY], &[f32::INFINITY]);
        assert_eq!(opposite, f32::INFINITY);
        assert_eq!(max_rel_error(&[f32::NAN, 1.0], &[1.0, 1.0]), f32::INFINITY);
        assert_eq!(max_rel_error(&[1.0], &[f32::INFINITY]), f32::INFINITY);
        // Equal pairs read 0, infinities and NaN included; finite
        // errors are unchanged.
        let same = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -0.0, 2.5];
        assert_eq!(max_rel_error(&same, &same), 0.0);
        assert_eq!(max_rel_error(&[3.0, 1.5], &[2.0, 1.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "one entry per column")]
    fn x_length_checked() {
        let a = sparse::gen::uniform(10, 10, 20, 1);
        let _ = spmv(&GpuSpec::v100(), &a, &[1.0; 3], ScheduleKind::MergePath);
    }
}
