//! The sharding oracle: N-shard execution must be **bitwise identical**
//! to the single-shard path — ISSUE 6's acceptance bar, checked on the
//! same corpus style as `dispatch_matrix.rs`.
//!
//! Three layers of the claim:
//!
//! * **SpMV, kernel level** — `kernels::spmv::spmv_rows` over each
//!   shard's row span, for every partitioning strategy and 2/4/8
//!   shards, equals `kernels::spmv` under the pinned flat-span schedule
//!   on the whole matrix, and each span launch's report equals that of
//!   a launch on the span's rows copied out;
//! * **SpMV, serving level** — `ShardGroup::serve_split` completions at
//!   2/4/8 shards equal the 1-shard group's, request by request;
//! * **PageRank** — `ShardGroup::pagerank` (merge partials first, then
//!   global scalars) equals `kernels::pagerank` under the same pinned
//!   schedule, to the last bit and the same iteration count.
//!
//! Shard count and partition strategy may only ever change *timing*
//! (the halo-exchange charge), never result bits — the distributed
//! restatement of the repo's schedule-oracle discipline.

use std::sync::Arc;

use kernels::formats::{prepare_format_plan, spmv_format_with_plan, PreparedOperand};
use kernels::graph::Graph;
use kernels::spmv::{spmv_rows, spmv_with_model, DEFAULT_BLOCK};
use runtime::split::pinned_schedule;
use runtime::{zipf_workload, Request, WorkloadSpec};
use shard::{ShardGroup, ShardGroupConfig};
use simt::{CostModel, GpuSpec, LaunchReport};
use sparse::{Csr, FormatKind, ShardPlan, ShardStrategy};

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];
const STRATEGIES: [ShardStrategy; 3] = [
    ShardStrategy::Rows1D,
    ShardStrategy::Nnz1D,
    ShardStrategy::RowNnz2D,
];

fn corpus() -> Vec<Arc<Csr<f32>>> {
    vec![
        Arc::new(sparse::gen::uniform(600, 500, 8_000, 11)),
        Arc::new(sparse::gen::powerlaw(800, 800, 12_000, 1.8, 12)),
        Arc::new(sparse::gen::banded(400, 5, 13)),
        Arc::new(sparse::gen::rmat(9, 8, (0.57, 0.19, 0.19), 14)),
        Arc::new(Csr::<f32>::empty(5, 5)),
    ]
}

fn graph_corpus() -> Vec<Graph> {
    vec![
        Graph::from_generator(sparse::gen::powerlaw(300, 300, 4_000, 1.8, 15)),
        Graph::from_generator(sparse::gen::rmat(8, 8, (0.57, 0.19, 0.19), 16)),
        Graph::from_generator(sparse::gen::banded(120, 4, 17)),
        // The f32 sum of a uniform 1/1000 start misses 1 by more than
        // 1e-6, so this graph checks that both paths normalize it alike.
        Graph::from_generator(sparse::gen::uniform(1_000, 1_000, 8_000, 18)),
    ]
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

/// A launch report without the host's wall clock, the one field that
/// differs between two runs of the same launch.
fn strip(r: &LaunchReport) -> LaunchReport {
    LaunchReport {
        host_wall_ms: 0.0,
        ..r.clone()
    }
}

#[test]
fn split_spmv_matches_the_whole_matrix_kernel_on_every_strategy() {
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    for a in corpus() {
        let x = sparse::dense::test_vector(a.cols());
        let kind = pinned_schedule(&a);
        let want = kernels::spmv(&spec, &a, &x, kind).unwrap().y;
        for strategy in STRATEGIES {
            for n in SHARD_COUNTS {
                let plan = ShardPlan::partition(a.as_ref(), n, strategy);
                let mut y = Vec::with_capacity(a.rows());
                for rows in plan.shards.iter().map(|s| s.rows.clone()) {
                    if rows.is_empty() {
                        continue;
                    }
                    let run = spmv_rows(&spec, &model, &a, rows.clone(), &x, kind, DEFAULT_BLOCK)
                        .unwrap();
                    // A span launch costs what a launch on its rows
                    // copied out costs, cold or under a prepared plan.
                    let sub = a.row_slice(rows.clone());
                    let op = PreparedOperand::prepare(&sub, FormatKind::Csr).unwrap();
                    let prepared =
                        prepare_format_plan(&spec, &model, &sub, &op, kind, DEFAULT_BLOCK).unwrap();
                    let cold =
                        spmv_with_model(&spec, &model, &sub, &x, kind, DEFAULT_BLOCK).unwrap();
                    let warm =
                        spmv_format_with_plan(&spec, &model, &sub, &op, &x, &prepared).unwrap();
                    for copied in [cold, warm] {
                        assert_eq!(
                            strip(&run.report),
                            strip(&copied.report),
                            "{n}-shard {} rows {rows:?} of {}x{}: span report differs",
                            strategy.name(),
                            a.rows(),
                            a.cols()
                        );
                    }
                    y.extend(run.y);
                }
                assert_eq!(
                    bits(&y),
                    bits(&want),
                    "{n}-shard {} on {}x{} diverged from the whole-matrix kernel",
                    strategy.name(),
                    a.rows(),
                    a.cols()
                );
            }
        }
    }
}

#[test]
fn sharded_serving_completions_match_the_single_shard_group() {
    let reqs: Vec<Request> = zipf_workload(
        &corpus(),
        &WorkloadSpec {
            requests: 50,
            zipf_s: 1.1,
            mean_interarrival_ms: 0.05,
            seed: 77,
        },
    );
    let group = |n: usize| {
        let mut cfg = ShardGroupConfig::new(n);
        cfg.runtime.keep_results = true;
        ShardGroup::new(GpuSpec::v100(), cfg)
    };
    let base = group(1).serve_split(&reqs).unwrap();
    assert!(base.report.reconciles());
    for n in SHARD_COUNTS {
        let out = group(n).serve_split(&reqs).unwrap();
        assert!(out.report.reconciles(), "{n}-shard report must reconcile");
        assert_eq!(out.completions.len(), base.completions.len());
        for (got, want) in out.completions.iter().zip(&base.completions) {
            assert_eq!(got.id, want.id);
            assert_eq!(got.schedule, want.schedule, "pinned schedule drifted");
            assert_eq!(
                bits(got.y.as_ref().unwrap()),
                bits(want.y.as_ref().unwrap()),
                "request {} diverged at {n} shards",
                got.id
            );
        }
    }
}

#[test]
fn split_serving_repartitions_a_matrix_mutated_in_place() {
    let mut a = Arc::new(sparse::gen::uniform(600, 500, 8_000, 11));
    let x: Arc<[f32]> = sparse::dense::test_vector(a.cols()).into();
    let request = |a: &Arc<Csr<f32>>, id| Request {
        id,
        tenant: 0,
        matrix: Arc::clone(a),
        x: Arc::clone(&x),
        arrival_ms: 0.0,
    };
    let group = || {
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.keep_results = true;
        ShardGroup::new(GpuSpec::v100(), cfg)
    };
    let mut grp = group();
    grp.serve_split(&[request(&a, 0)]).unwrap();

    // The group holds no reference to `a`, so this doubles the values in
    // place: same address, new value epoch.
    let address = Arc::as_ptr(&a);
    for v in Arc::make_mut(&mut a).values_mut() {
        *v *= 2.0;
    }
    assert_eq!(Arc::as_ptr(&a), address, "the mutation must stay in place");

    let got = grp.serve_split(&[request(&a, 1)]).unwrap();
    let want = group().serve_split(&[request(&a, 1)]).unwrap();
    assert_eq!(
        bits(got.completions[0].y.as_ref().unwrap()),
        bits(want.completions[0].y.as_ref().unwrap()),
        "split serving answered from the pre-mutation partition"
    );
}

#[test]
fn sharded_pagerank_matches_the_whole_graph_kernel() {
    let spec = GpuSpec::v100();
    for g in graph_corpus() {
        let mt = kernels::pagerank::normalized_transpose(&g);
        let kind = pinned_schedule(&mt);
        let want = kernels::pagerank::pagerank(&spec, &g, kind, 1e-6, 80).unwrap();
        for n in SHARD_COUNTS {
            let grp = ShardGroup::new(GpuSpec::v100(), ShardGroupConfig::new(n));
            let run = grp.pagerank(&g, 1e-6, 80).unwrap();
            assert_eq!(run.schedule, kind, "pinned schedule must match");
            assert_eq!(
                run.iterations, want.iterations,
                "{n}-shard pagerank converged differently"
            );
            assert_eq!(
                bits(&run.rank),
                bits(&want.rank),
                "{n}-shard pagerank ranks diverged on {} vertices",
                g.num_vertices()
            );
        }
    }
}
