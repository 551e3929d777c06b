//! CUB-style hardwired merge-path SpMV (Sidebar 1 / §6.1's comparator).
//!
//! This is deliberately *not* built on the `loops` abstraction: the
//! diagonal search, the merge consumption loop, and the SpMV computation
//! are fused into one kernel body — structurally the CUB implementation
//! the paper measures against (1,100 LoC across 4 files in the original;
//! the kernel-contributing region here is delimited with LOC markers for
//! the Table 1 harness).
//!
//! Two modelling notes, per DESIGN.md:
//!
//! * CUB resolves rows that straddle thread boundaries with a per-thread
//!   carry-out plus a separate segmented-fixup kernel; the paper's Figure 2
//!   shows that pipeline matching the framework's single kernel almost
//!   exactly, i.e. the extra kernel's cost is in the measurement noise. We
//!   therefore model the fixup as an in-kernel atomic combine of the
//!   carry-out (same traffic, same atomic cost, no second launch) so the
//!   comparison isolates what Figure 2 is about: the abstraction's
//!   per-iteration range overhead, which this fused kernel never pays
//!   ([`CostModel::fused`]).
//! * CUB's single-column heuristic is reproduced exactly: a sparse-vector
//!   matrix skips merge-path for a plain thread-mapped kernel with zero
//!   scheduling overhead — the one regime where CUB beats the framework.

use crate::BaselineRun;
use simt::{CostModel, GlobalMem, GpuSpec, LaunchConfig};
use sparse::Csr;

/// Merge items per thread (CUB's V100 tuning; matches the framework's
/// merge-path so Figure 2 isolates abstraction overhead).
pub const ITEMS_PER_THREAD: usize = 7;

/// Threads per block.
pub const BLOCK: u32 = 256;

/// CUB-like SpMV: merge-path + carry-out fixup, or the thread-mapped fast
/// path for single-column matrices.
pub fn cub_spmv(spec: &GpuSpec, a: &Csr<f32>, x: &[f32]) -> simt::Result<BaselineRun> {
    assert_eq!(x.len(), a.cols(), "x must have one entry per column");
    let model = CostModel::fused();
    if a.cols() == 1 {
        return thread_mapped_spvv(spec, &model, a, x);
    }
    merge_path_fused(spec, &model, a, x)
}

// LOC-BEGIN(cub_merge_path)
/// The fused merge-path kernel with inline carry-out fixup.
fn merge_path_fused(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
) -> simt::Result<BaselineRun> {
    let rows = a.rows();
    let nnz = a.nnz();
    let total = rows + nnz;
    let num_threads = total.div_ceil(ITEMS_PER_THREAD).max(1);
    let offsets = a.row_offsets();
    let (values, col_indices) = (a.values(), a.col_indices());

    let mut y = vec![0.0f32; rows];
    let cfg = LaunchConfig::over_threads(num_threads as u64, BLOCK);
    let report = {
        let gy = GlobalMem::new(&mut y);
        simt::launch_threads_with_model(spec, model, cfg, |t| {
            let tid = t.global_thread_id() as usize;
            let d0 = (tid * ITEMS_PER_THREAD).min(total);
            let d1 = (d0 + ITEMS_PER_THREAD).min(total);
            if d0 >= d1 {
                return;
            }
            // Diagonal binary searches for the start and end coordinates.
            let (mut row, mut nz) = diagonal_search(offsets, rows, nnz, d0);
            let (row_end, nz_end) = diagonal_search(offsets, rows, nnz, d1);
            // CUB's two-level partition: a tiny global search per block
            // plus per-thread searches of the block tile in shared memory.
            t.charge(t.model().merge_setup(BLOCK as u64 * ITEMS_PER_THREAD as u64));
            // Fused merge consumption: alternate atoms and row boundaries.
            let started_at_row_start = nz == offsets[row];
            let mut first_row = true;
            let mut sum = 0.0f32;
            while row < row_end {
                let end = offsets[row + 1];
                while nz < end {
                    t.charge_atom();
                    sum += values[nz] * x[col_indices[nz] as usize];
                    nz += 1;
                }
                t.charge_tile();
                if first_row && !started_at_row_start {
                    // Head fragment of a row another thread started.
                    gy.fetch_add(row, sum);
                    t.charge_atomic();
                } else {
                    gy.store(row, sum);
                    t.write_bytes(4);
                }
                first_row = false;
                sum = 0.0;
                row += 1;
            }
            // Trailing partial row: the carry-out, combined atomically
            // (CUB's segmented-fixup pass, folded in; see module docs).
            while nz < nz_end {
                t.charge_atom();
                sum += values[nz] * x[col_indices[nz] as usize];
                nz += 1;
            }
            if sum != 0.0 && row < rows {
                gy.fetch_add(row, sum);
                t.charge_atomic();
            }
        })?
    };
    Ok(BaselineRun {
        y,
        report,
        path: "cub-merge-path",
    })
}

/// CUB's 2-D diagonal search over (row boundaries, atoms).
fn diagonal_search(offsets: &[usize], rows: usize, nnz: usize, d: usize) -> (usize, usize) {
    let mut lo = d.saturating_sub(nnz);
    let mut hi = d.min(rows);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if offsets[mid + 1] <= d - 1 - mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (lo, d - lo)
}
// LOC-END(cub_merge_path)

// LOC-BEGIN(cub_thread_mapped)
/// CUB's specialized single-column (sparse-vector) kernel: one row per
/// thread, no scheduling machinery at all.
fn thread_mapped_spvv(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    x: &[f32],
) -> simt::Result<BaselineRun> {
    let rows = a.rows();
    let offsets = a.row_offsets();
    let values = a.values();
    let mut y = vec![0.0f32; rows];
    let cfg = LaunchConfig::over_threads(rows.max(1) as u64, BLOCK);
    let report = {
        let gy = GlobalMem::new(&mut y);
        simt::launch_threads_with_model(spec, model, cfg, |t| {
            let mut row = t.global_thread_id() as usize;
            while row < rows {
                let mut sum = 0.0f32;
                for &v in &values[offsets[row]..offsets[row + 1]] {
                    t.charge_atom();
                    sum += v * x[0];
                }
                t.charge_tile();
                gy.store(row, sum);
                t.write_bytes(4);
                row += t.grid_size() as usize;
            }
        })?
    };
    Ok(BaselineRun {
        y,
        report,
        path: "cub-thread-mapped-spvv",
    })
}
// LOC-END(cub_thread_mapped)

/// Expose the merge-path kernel directly (no single-column heuristic), for
/// the Figure 2 overhead comparison on sparse vectors.
pub fn cub_merge_path_only(spec: &GpuSpec, a: &Csr<f32>, x: &[f32]) -> simt::Result<BaselineRun> {
    merge_path_fused(spec, &CostModel::fused(), a, x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &Csr<f32>) {
        let x = sparse::dense::test_vector(a.cols());
        let want = a.spmv_ref(&x);
        let run = cub_spmv(&GpuSpec::v100(), a, &x).unwrap();
        for (i, (g, w)) in run.y.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() < 2e-3 * w.abs().max(1.0),
                "y[{i}] = {g}, want {w} ({})",
                run.path
            );
        }
    }

    #[test]
    fn matches_reference_on_varied_matrices() {
        check(&sparse::gen::uniform(300, 250, 3_000, 61));
        check(&sparse::gen::powerlaw(500, 500, 8_000, 1.8, 62));
        check(&sparse::gen::hub_rows(1_000, 1_000, 1, 900, 2, 63));
        check(&sparse::gen::banded(200, 3, 64));
        check(&Csr::<f32>::empty(5, 5));
    }

    #[test]
    fn single_column_takes_the_fast_path() {
        let a = sparse::gen::single_column(200_000, 120_000, 65);
        let x = vec![2.0f32];
        let run = cub_spmv(&GpuSpec::v100(), &a, &x).unwrap();
        assert_eq!(run.path, "cub-thread-mapped-spvv");
        check(&a);
        // And the fast path beats merge-path on this shape.
        let mp = cub_merge_path_only(&GpuSpec::v100(), &a, &x).unwrap();
        assert!(
            run.report.timing.compute_ms < mp.report.timing.compute_ms,
            "fast path {} vs merge-path {}",
            run.report.timing.compute_ms,
            mp.report.timing.compute_ms
        );
    }

    #[test]
    fn rows_spanning_many_threads_are_fixed_up_correctly() {
        // One row of 10k atoms: hundreds of carry-ins into one row.
        let a = sparse::gen::hub_rows(64, 20_000, 1, 10_000, 1, 67);
        check(&a);
    }

    #[test]
    fn fused_kernel_is_cheaper_than_framework_merge_path_on_compute() {
        // The whole point of Figure 2: the framework pays a small range
        // overhead the fused kernel does not.
        let spec = GpuSpec::v100();
        let a = sparse::gen::uniform(50_000, 50_000, 800_000, 68);
        let x = sparse::dense::test_vector(a.cols());
        let cub = cub_spmv(&spec, &a, &x).unwrap();
        let ours = kernels::spmv(&spec, &a, &x, loops::schedule::ScheduleKind::MergePath).unwrap();
        assert!(
            cub.report.timing.total_units <= ours.report.timing.total_units,
            "cub {} units vs framework {} units",
            cub.report.timing.total_units,
            ours.report.timing.total_units
        );
    }
}
