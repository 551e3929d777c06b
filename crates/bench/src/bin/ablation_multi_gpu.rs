//! Ablation E: multi-GPU scaling (paper §8's future work, implemented).
//!
//! SpMV across 1–8 simulated V100s under both cross-device partitioners.
//! Uses purpose-built *node-scale* matrices (tens of millions of
//! nonzeros): below that, broadcasting `x` over the interconnect costs
//! more than the kernel saves, and multi-GPU SpMV genuinely does not pay
//! — the harness prints that break-even behaviour too. Equal *rows* per
//! device is thread-mapped writ large; equal *nonzeros* is merge-path's
//! insight across the GPU boundary — the paper's load-balancing story,
//! one level up.

use bench::{node_spmv, Cli, CsvWriter};
use loops::schedule::ScheduleKind;
use simt::MultiGpuSpec;
use sparse::{Csr, ShardStrategy};

fn workloads() -> Vec<(&'static str, Csr<f32>)> {
    vec![
        ("uniform_1.5Mx16", sparse::gen::uniform(1_500_000, 1_500_000, 24_000_000, 1)),
        ("powerlaw_1Mx16", sparse::gen::powerlaw(1_000_000, 1_000_000, 16_000_000, 1.8, 2)),
        ("banded_3M_bw3", sparse::gen::banded(3_000_000, 3, 3)),
        ("smalltest_64kx16", sparse::gen::uniform(65_000, 65_000, 1_000_000, 4)),
    ]
}

fn main() {
    let cli = Cli::parse();
    let mut csv = CsvWriter::create(
        &cli.out_dir,
        "ablation_multi_gpu.csv",
        "devices,partition,dataset,rows,cols,nnzs,elapsed,imbalance,speedup_vs_1",
    )
    .expect("create csv");
    let device_counts = [1u32, 2, 4, 8];
    println!("== Ablation E: multi-GPU SpMV scaling (speedup vs 1 device) ==");
    for (name, a) in workloads() {
        eprintln!("  {name}: {} nnz", a.nnz());
        let x = sparse::dense::test_vector(a.cols());
        let t1 = node_spmv(
            &MultiGpuSpec::dgx_v100(1),
            &a,
            &x,
            ScheduleKind::MergePath,
            ShardStrategy::Nnz1D,
        )
        .expect("1-device run")
        .elapsed_ms;
        println!("\n{name} ({} nnz; 1-device {:.3} ms):", a.nnz(), t1);
        println!("{:<10} {:>14} {:>14} {:>18}", "devices", "row-blocks", "nnz-balanced", "imbalance (rows)");
        for &d in &device_counts {
            let mut line = format!("{d:<10}");
            let mut row_imb = 0.0;
            for (pname, s) in [("rows", ShardStrategy::Rows1D), ("nnz", ShardStrategy::Nnz1D)] {
                let run = node_spmv(&MultiGpuSpec::dgx_v100(d), &a, &x, ScheduleKind::MergePath, s)
                    .expect("multi run");
                let speedup = t1 / run.elapsed_ms;
                csv.row(&format!(
                    "{d},{pname},{name},{},{},{},{},{:.3},{:.3}",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    run.elapsed_ms,
                    run.imbalance(),
                    speedup
                ))
                .unwrap();
                line.push_str(&format!(" {speedup:>12.2}x"));
                if pname == "rows" {
                    row_imb = run.imbalance();
                }
            }
            line.push_str(&format!(" {row_imb:>17.2}"));
            println!("{line}");
        }
    }
    let path = csv.finish().unwrap();
    println!("\n(x-broadcast + y-gather over NVLink included; small matrices show the break-even)");
    println!("csv: {}", path.display());
}
