//! Triangle counting under different load-balancing schedules — the
//! workload Logarithmic Radix Binning (§7) was designed for: per-edge
//! intersection costs vary over orders of magnitude.
//!
//! Run with: `cargo run --release --example triangle_count`

use kernels::triangle::{forward_orientation, triangle_count, triangle_count_ref};
use kernels::Graph;
use loops::schedule::ScheduleKind;
use simt::GpuSpec;

fn main() {
    // Symmetrized RMAT graph: hubby, triangle-rich.
    let adj = sparse::gen::rmat(12, 12, (0.57, 0.19, 0.19), 55);
    let t = sparse::convert::transpose(&adj);
    let mut coo = sparse::Coo::empty(adj.rows(), adj.cols());
    for (r, c, v) in adj.iter().chain(t.iter()) {
        if r != c {
            coo.push(r, c, v.abs()).unwrap();
        }
    }
    let g = Graph::new(sparse::convert::coo_to_csr(&coo));
    let dag = forward_orientation(&g);
    let fwd_stats = sparse::RowStats::of(&dag);
    println!(
        "graph: {} vertices, {} undirected edges; forward out-degrees: mean {:.1}, max {} (CV {:.2})",
        g.num_vertices(),
        g.num_edges() / 2,
        fwd_stats.mean,
        fwd_stats.max,
        fwd_stats.cv
    );

    let want = triangle_count_ref(&g);
    println!("reference count: {want} triangles\n");

    let spec = GpuSpec::v100();
    println!("{:<18} {:>13} {:>12}", "schedule", "elapsed (ms)", "count");
    for kind in [
        ScheduleKind::ThreadMapped,
        ScheduleKind::MergePath,
        ScheduleKind::WarpMapped,
        ScheduleKind::Lrb,
        ScheduleKind::WorkQueue(8),
    ] {
        let run = triangle_count(&spec, &g, kind).expect("launch");
        println!(
            "{:<18} {:>13.4} {:>12}",
            kind.to_string(),
            run.report.elapsed_ms(),
            run.triangles
        );
        assert_eq!(run.triangles, want);
    }
    println!("\nEvery schedule returns the same count; only the mapping of wedges to threads changed.");
}
