//! Multi-GPU SpMV — the paper's §8 future work ("load-balancing schedules
//! that span across the GPU boundary"), runnable.
//!
//! Partitions a skewed matrix across a simulated DGX node two ways — the
//! cross-device analogues of thread-mapped (equal rows) and merge-path
//! (equal nonzeros) — and shows the device-level imbalance each produces.
//!
//! Run with: `cargo run --release --example multi_gpu`

use bench::node_spmv;
use loops::schedule::ScheduleKind;
use simt::MultiGpuSpec;
use sparse::ShardStrategy;

fn main() {
    // Power-law matrix with its rows sorted heaviest-first, so the skew is
    // *positional*: the leading row block holds most of the work. (Real
    // matrices ordered by degree — web crawls, preprocessed graphs — look
    // exactly like this, and it is the worst case for equal-rows
    // partitioning.)
    let a = {
        let p = sparse::gen::powerlaw(800_000, 800_000, 12_000_000, 1.6, 7);
        let order = sparse::reorder::degree_sort(&p);
        sparse::reorder::permute_rows(&p, &order)
    };
    let x = sparse::dense::test_vector(a.cols());
    let want = a.spmv_ref(&x);
    println!(
        "matrix: {}x{}, {} nnz, row-length CV {:.2}",
        a.rows(),
        a.cols(),
        a.nnz(),
        sparse::RowStats::of(&a).cv
    );

    for n in [2u32, 4, 8] {
        let node = MultiGpuSpec::dgx_v100(n);
        println!("\n=== {n}x V100 over NVLink ===");
        for (label, s) in [
            ("row-blocks  (thread-mapped, device level)", ShardStrategy::Rows1D),
            ("nnz-balanced (merge-path, device level)", ShardStrategy::Nnz1D),
        ] {
            let run = node_spmv(&node, &a, &x, ScheduleKind::MergePath, s).expect("launch");
            let err = kernels::spmv::max_rel_error(&run.y, &want);
            assert!(err < 2e-3);
            let shares: Vec<String> = run
                .plan
                .shards
                .iter()
                .map(|shard| format!("{:.0}%", 100.0 * shard.nnz as f64 / a.nnz() as f64))
                .collect();
            println!(
                "{label:<44} elapsed {:>8.3} ms   imbalance {:>5.2}   nnz shares [{}]",
                run.elapsed_ms,
                run.imbalance(),
                shares.join(", ")
            );
        }
    }
    println!("\nEqual-nonzeros partitioning is merge-path's insight applied across devices.");
}
