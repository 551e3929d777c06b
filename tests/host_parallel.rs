//! The cross-thread-count bitwise-equivalence harness for the parallel
//! host backend (`simt::host`).
//!
//! The contract under test: executing a launch's simulated blocks on N
//! worker threads is an implementation detail — results, every
//! [`simt::LaunchReport`] field except the `host_wall_ms` diagnostic,
//! and the simulated makespan must be **bitwise identical** to the
//! sequential backend at every thread count. The harness drives the
//! full dispatch matrix (7 schedules × spmv/spmm/bfs/sssp/pagerank/
//! cg/triangle) under `Sequential` and under `Parallel {1, 2, 4, 8}`,
//! fingerprinting everything observable; it also runs each thread count
//! twice to pin run-to-run determinism (a scheduler-interleaving leak
//! would show up here even if it happened to match sequential once).
//!
//! Thread counts are honored literally — `Parallel { threads: 8 }`
//! spawns 8 workers regardless of the machine's core count — so the
//! matrix is meaningful on any host.

use kernels::graph::Graph;
use loops::schedule::ScheduleKind;
use simt::{GpuSpec, HostBackend, LaunchReport};
use sparse::{Csr, DenseMatrix};

const ALL_KINDS: [ScheduleKind; 7] = [
    ScheduleKind::ThreadMapped,
    ScheduleKind::WarpMapped,
    ScheduleKind::BlockMapped,
    ScheduleKind::GroupMapped(16),
    ScheduleKind::MergePath,
    ScheduleKind::WorkQueue(8),
    ScheduleKind::Lrb,
];

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// A launch report rendered bit-faithfully (f64 `Debug` is
/// shortest-roundtrip), with the host wall-clock diagnostic — the one
/// field the backend is *allowed* to change — zeroed out.
fn report_fp(r: &LaunchReport) -> String {
    let mut r = r.clone();
    r.host_wall_ms = 0.0;
    format!("{r:?}")
}

/// Run the full kernel × schedule matrix and fingerprint every
/// observable output. Labels keep assertion failures pointed at the
/// exact (kernel, schedule) cell that diverged.
fn dispatch_matrix_fingerprints() -> Vec<(String, String)> {
    let spec = GpuSpec::v100();
    let a = sparse::gen::powerlaw(200, 200, 3_000, 1.8, 12);
    let small = sparse::gen::uniform(60, 50, 400, 11);
    let x = sparse::dense::test_vector(a.cols());
    let xs = sparse::dense::test_vector(small.cols());
    let b = DenseMatrix::from_fn(a.cols(), 3, |r, c| ((r + 2 * c) as f32).sin());
    let g = Graph::from_generator(sparse::gen::powerlaw(150, 150, 2_000, 1.8, 14));
    let gb = Graph::from_generator(sparse::gen::banded(40, 3, 16));
    let spd = {
        // Small SPD system for CG: banded matrices are symmetric here,
        // and a diagonal shift makes them positive definite.
        let base: Csr<f32> = sparse::gen::banded(50, 2, 18);
        let mut triplets = Vec::new();
        for r in 0..base.rows() {
            let (cols, vals) = base.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                triplets.push((r as u32, c, v.abs()));
            }
            triplets.push((r as u32, r as u32, 10.0));
        }
        Csr::from_triplets(base.rows(), base.cols(), triplets).unwrap()
    };
    let rhs: Vec<f32> = (0..spd.rows()).map(|i| ((i % 7) as f32) - 3.0).collect();

    let mut out = Vec::new();
    for kind in ALL_KINDS {
        let run = kernels::spmv(&spec, &a, &x, kind).unwrap();
        out.push((
            format!("spmv/{kind}"),
            format!("{:?} {} {}", bits(&run.y), run.schedule, report_fp(&run.report)),
        ));
        let run = kernels::spmv(&spec, &small, &xs, kind).unwrap();
        out.push((
            format!("spmv-small/{kind}"),
            format!("{:?} {} {}", bits(&run.y), run.schedule, report_fp(&run.report)),
        ));
        let run = kernels::spmm::spmm(&spec, &a, &b, kind).unwrap();
        out.push((
            format!("spmm/{kind}"),
            format!(
                "{:?} {} {}",
                bits(run.c.as_slice()),
                run.schedule,
                report_fp(&run.report)
            ),
        ));
        let run = kernels::bfs::bfs(&spec, &g, 0, kind).unwrap();
        out.push((
            format!("bfs/{kind}"),
            format!("{:?} {} {}", run.depth, run.iterations, report_fp(&run.report)),
        ));
        let run = kernels::sssp::sssp(&spec, &g, 0, kind).unwrap();
        out.push((
            format!("sssp/{kind}"),
            format!(
                "{:?} {} {}",
                bits(&run.dist),
                run.iterations,
                report_fp(&run.report)
            ),
        ));
        let run = kernels::pagerank::pagerank(&spec, &g, kind, 1e-6, 100).unwrap();
        out.push((
            format!("pagerank/{kind}"),
            format!(
                "{:?} {} {}",
                bits(&run.rank),
                run.iterations,
                report_fp(&run.report)
            ),
        ));
        let run = kernels::cg::cg(&spec, &spd, &rhs, kind, 1e-7, 500).unwrap();
        out.push((
            format!("cg/{kind}"),
            format!(
                "{:?} {} {} {}",
                bits(&run.x),
                run.iterations,
                run.residual.to_bits(),
                report_fp(&run.report)
            ),
        ));
        let run = kernels::triangle::triangle_count(&spec, &gb, kind).unwrap();
        out.push((
            format!("triangle/{kind}"),
            format!("{} {}", run.triangles, report_fp(&run.report)),
        ));
    }
    out
}

fn assert_matrix_eq(want: &[(String, String)], got: &[(String, String)], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: matrix shape changed");
    for ((wl, wf), (gl, gf)) in want.iter().zip(got) {
        assert_eq!(wl, gl, "{what}: cell order changed");
        assert_eq!(wf, gf, "{what}: {wl} diverged from the sequential backend");
    }
}

#[test]
fn parallel_backend_is_bitwise_equal_to_sequential_across_thread_counts() {
    let seq = simt::host::scoped(HostBackend::Sequential, dispatch_matrix_fingerprints);
    for threads in THREAD_COUNTS {
        let backend = HostBackend::Parallel { threads };
        let run1 = simt::host::scoped(backend, dispatch_matrix_fingerprints);
        assert_matrix_eq(&seq, &run1, &format!("{threads} threads"));
        let run2 = simt::host::scoped(backend, dispatch_matrix_fingerprints);
        assert_matrix_eq(&run1, &run2, &format!("{threads} threads, second run"));
    }
}

#[test]
fn env_default_resolution_is_overridden_by_scopes() {
    // Whatever LOOPS_HOST_THREADS says, an explicit scope wins — and the
    // innermost scope wins over an outer one.
    let outer = HostBackend::Parallel { threads: 3 };
    simt::host::scoped(outer, || {
        assert_eq!(simt::host::current(), outer);
        simt::host::scoped(HostBackend::Sequential, || {
            assert_eq!(simt::host::current(), HostBackend::Sequential);
        });
        assert_eq!(simt::host::current(), outer);
    });
}
