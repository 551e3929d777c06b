//! Sparse-Matrix × Dense-Matrix multiplication (paper §5.3, Listing 4).
//!
//! "A simple loop wrapped around SpMV": the kernel body is Listing 3 plus
//! one loop over the columns of `B` — and because the schedule is
//! decoupled, the *same* merge-path/thread-mapped machinery balances it
//! (the rewrite Yang et al. had to do by hand, for free). The body is the
//! flat-span, format-generic [`TileExec`](loops::dispatch::TileExec) in
//! [`crate::formats`], dispatched through the engine, so SpMM also
//! inherits every serving format and plan-cached warm launches
//! ([`crate::formats::spmm_format_with_plan`]).

use crate::formats::{self, PreparedOperand};
use loops::schedule::ScheduleKind;
use simt::{CostModel, GpuSpec, LaunchReport};
use sparse::{Csr, DenseMatrix};

/// Result of one simulated SpMM.
#[derive(Debug, Clone)]
pub struct SpmmRun {
    /// The dense output `C = A·B`.
    pub c: DenseMatrix<f32>,
    /// Simulated launch report.
    pub report: LaunchReport,
    /// The schedule the engine actually ran (after the flat-span
    /// coercion).
    pub schedule: ScheduleKind,
}

/// SpMM supports the flat-span schedules; the cooperative schedules
/// reduce a single scalar per tile and are exposed through SpMV, so
/// anything else falls back to thread-mapped (Listing 4's default).
pub(crate) fn coerce(kind: ScheduleKind) -> ScheduleKind {
    if kind == ScheduleKind::MergePath {
        kind
    } else {
        ScheduleKind::ThreadMapped
    }
}

/// Run SpMM with the given schedule (thread-mapped or merge-path; any
/// other kind falls back to thread-mapped).
pub fn spmm(
    spec: &GpuSpec,
    a: &Csr<f32>,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    spmm_with_model(spec, &CostModel::standard(), a, b, kind)
}

/// [`spmm`] with an explicit cost model.
pub fn spmm_with_model(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    formats::spmm_format(spec, model, a, &PreparedOperand::CSR, b, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::spmm_ref;

    fn check(a: &Csr<f32>, b: &DenseMatrix<f32>, kind: ScheduleKind) {
        let run = spmm(&GpuSpec::test_tiny(), a, b, kind).unwrap();
        let want = spmm_ref(a, b);
        for r in 0..a.rows() {
            for j in 0..b.cols() {
                let (g, w) = (run.c.get(r, j), want.get(r, j));
                assert!(
                    (g - w).abs() < 1e-3 * w.abs().max(1.0),
                    "{kind}: C[{r},{j}] = {g}, want {w}"
                );
            }
        }
    }

    #[test]
    fn matches_reference_with_both_schedules() {
        let a = sparse::gen::uniform(60, 50, 500, 41);
        let b = DenseMatrix::from_fn(50, 7, |r, c| ((r + 2 * c) as f32).sin());
        check(&a, &b, ScheduleKind::ThreadMapped);
        check(&a, &b, ScheduleKind::MergePath);
    }

    #[test]
    fn power_law_rows_still_correct_under_merge_path() {
        let a = sparse::gen::powerlaw(120, 100, 2_000, 1.8, 42);
        let b = DenseMatrix::from_fn(100, 3, |r, c| 0.01 * (r as f32) - 0.5 * (c as f32));
        check(&a, &b, ScheduleKind::MergePath);
    }

    #[test]
    fn single_column_b_degenerates_to_spmv() {
        let a = sparse::gen::uniform(80, 70, 600, 43);
        let x = sparse::dense::test_vector(70);
        let b = DenseMatrix::from_vec(70, 1, x.clone());
        let run = spmm(&GpuSpec::test_tiny(), &a, &b, ScheduleKind::MergePath).unwrap();
        let want = a.spmv_ref(&x);
        for (r, &wr) in want.iter().enumerate() {
            assert!((run.c.get(r, 0) - wr).abs() < 1e-3);
        }
    }

    #[test]
    fn spmm_costs_scale_with_b_columns() {
        let a = sparse::gen::uniform(200, 200, 3_000, 44);
        let b1 = DenseMatrix::<f32>::zeros(200, 1);
        let b8 = DenseMatrix::<f32>::zeros(200, 8);
        let r1 = spmm(&GpuSpec::v100(), &a, &b1, ScheduleKind::ThreadMapped).unwrap();
        let r8 = spmm(&GpuSpec::v100(), &a, &b8, ScheduleKind::ThreadMapped).unwrap();
        assert!(r8.report.timing.total_units > 4.0 * r1.report.timing.total_units);
    }

    #[test]
    fn planned_spmm_is_bitwise_identical_and_reusable_across_b() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 8_000, 1.8, 45);
        let op = PreparedOperand::CSR;
        let plan =
            formats::prepare_spmm_plan(&spec, &model, &a, &op, ScheduleKind::MergePath).unwrap();
        assert!(plan.merge_starts.is_some());
        // One plan, two different Bs.
        for seed in [0u32, 1] {
            let b = DenseMatrix::from_fn(400, 4, |r, c| ((r * 31 + c * 7 + seed as usize) as f32).cos());
            let cold = spmm_with_model(&spec, &model, &a, &b, ScheduleKind::MergePath).unwrap();
            let warm = formats::spmm_format_with_plan(&spec, &model, &a, &op, &b, &plan).unwrap();
            let bits = |m: &DenseMatrix<f32>| {
                m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&cold.c), bits(&warm.c), "seed {seed}");
            assert!(
                warm.report.timing.total_units < cold.report.timing.total_units,
                "prepartitioned SpMM should issue less work"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = sparse::gen::uniform(10, 10, 20, 1);
        let b = DenseMatrix::<f32>::zeros(11, 2);
        let _ = spmm(&GpuSpec::test_tiny(), &a, &b, ScheduleKind::ThreadMapped);
    }
}
