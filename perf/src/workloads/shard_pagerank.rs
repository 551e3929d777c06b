//! `shard_pagerank`: split execution across a shard group.
//!
//! A 4-shard `ShardGroup` (row/nnz 2-D partitioning) solves PageRank on a
//! seeded scale-10 R-MAT graph [`SOLVES`] times per repetition, then
//! serves an open-loop split-mode stream over 64 banded, power-law and
//! R-MAT matrices of 2k–20k nonzeros, picked by Zipf(0.6) popularity,
//! in windows of [`WINDOW`] requests: one `serve_split` call per window
//! is one operation. Split launches pin a flat-span schedule (work-queue
//! for the merge-path family), whose simulation costs far more host time
//! per nonzero than `spmv_sweep`'s cells, hence the small sizes.
//! Partitioned SpMV, the halo-exchange and merge charges and the
//! iterative solver dominate; the plan cache, batching and the tuner are
//! nearly idle.
//!
//! The measured path runs on the sequential host backend: on a shared
//! two-core host a second worker thread makes each run's timings depend
//! on whatever else holds the other core. Traced runs also time a few
//! solves on `HostBackend::Parallel { threads: 2 }` against sequential
//! ones (`simt.parallel2_speedup`), so the executor's worker merge and
//! deferred-atomic replay stay measured.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use kernels::graph::Graph;
use kernels::pagerank::{normalized_transpose, pagerank};
use runtime::{pinned_schedule, zipf_workload, Request, WorkloadSpec};
use shard::{ShardGroup, ShardGroupConfig, ShardPageRank};
use simt::{GpuSpec, HostBackend};
use sparse::{Csr, ShardStrategy};

use super::{mismatch, ratio, subseed, Rep, Workload};
use crate::serving::{latencies_by_arrival, sample};
use crate::spans::{RequestSink, Tracer};

const BACKEND: HostBackend = HostBackend::Sequential;
const PARALLEL: HostBackend = HostBackend::Parallel { threads: 2 };
const SHARDS: usize = 4;
const RMAT_SCALE: u32 = 10;
/// Every solve runs exactly [`ITERS`] power iterations (tolerance 0):
/// at tolerance 1e-6 these graphs converge after 10 or 11 iterations
/// depending on the seed, a 10% step in the work a solve does.
const TOL: f32 = 0.0;
const ITERS: usize = 10;
/// PageRank solves per repetition.
const SOLVES: usize = 10;
/// Sequential/parallel solve pairs a traced repetition times.
const BACKEND_PAIRS: usize = 5;
/// Split-mode matrices, requests per repetition, their popularity skew
/// and mean arrival gap (ms).
const SPLIT_MATRICES: usize = 64;
const SPLIT_REQUESTS: usize = 450;
const SPLIT_ZIPF_S: f64 = 0.6;
const SPLIT_GAP_MS: f64 = 0.5;
/// Split requests per `serve_split` call. Each call restarts the group's
/// serving clock; at this load a request almost never waits for one
/// from an earlier window.
const WINDOW: usize = 3;

pub struct ShardPagerank {
    graph: Graph,
    /// Nonzeros of the normalized transpose one iteration multiplies.
    nnz: u64,
    /// Single-shard ranks under the pinned schedule.
    reference: Vec<f32>,
    split: Vec<Request>,
    references: HashMap<usize, Vec<f32>>,
}

fn group() -> ShardGroup {
    let mut cfg = ShardGroupConfig::new(SHARDS);
    cfg.strategy = ShardStrategy::RowNnz2D;
    cfg.runtime.keep_results = true;
    cfg.runtime.host_backend = Some(BACKEND);
    ShardGroup::new(GpuSpec::v100(), cfg)
}

impl Workload for ShardPagerank {
    fn setup(seed: u64) -> Self {
        let graph = Graph::from_generator(sparse::gen::rmat(
            RMAT_SCALE,
            16,
            (0.57, 0.19, 0.19),
            subseed(seed, 0),
        ));
        let mt = normalized_transpose(&graph);
        let single = simt::host::scoped(BACKEND, || {
            pagerank(&GpuSpec::v100(), &graph, pinned_schedule(&mt), TOL, ITERS)
        })
        .expect("single-shard reference PageRank");
        let matrices: Vec<Arc<Csr<f32>>> = (0..SPLIT_MATRICES)
            .map(|i| {
                // Sizes spread geometrically, each drawn within ±10% of
                // its nominal value so the latency mix varies smoothly.
                let jitter = 0.9 + 0.2 * (subseed(seed, 1_000 + i as u64) as f64 / u64::MAX as f64);
                let nnz = jitter * 2_000.0 * 10f64.powf(i as f64 / (SPLIT_MATRICES - 1) as f64);
                let s = subseed(seed, 1 + i as u64);
                Arc::new(match i % 3 {
                    0 => sparse::gen::banded(nnz as usize / 9, 4, s),
                    1 => sparse::gen::powerlaw(
                        nnz as usize / 10,
                        nnz as usize / 10,
                        nnz as usize,
                        1.8,
                        s,
                    ),
                    _ => sparse::gen::rmat(
                        10,
                        (nnz / 1024.0).round().max(1.0) as usize,
                        (0.57, 0.19, 0.19),
                        s,
                    ),
                })
            })
            .collect();
        let references = matrices
            .iter()
            .map(|a| {
                let x = sparse::dense::test_vector(a.cols());
                (Arc::as_ptr(a) as usize, a.spmv_ref(&x))
            })
            .collect();
        let split = zipf_workload(
            &matrices,
            &WorkloadSpec {
                requests: SPLIT_REQUESTS,
                zipf_s: SPLIT_ZIPF_S,
                mean_interarrival_ms: SPLIT_GAP_MS,
                seed: subseed(seed, 100),
            },
        );
        Self {
            nnz: mt.nnz() as u64,
            graph,
            reference: single.rank,
            split,
            references,
        }
    }

    fn rep(&mut self, tr: &Tracer, validate: bool) -> Rep {
        let mut rep = Rep::default();
        let mut group = group();
        let sink = tr.enabled().then(|| Arc::new(RequestSink::new(tr)));
        if let Some(s) = &sink {
            group.set_trace_sink(s.clone());
        }
        let work = ITERS as u64 * self.nnz;
        let mut solve = None;
        for i in 0..SOLVES {
            rep.attempted += 1;
            let out = rep.call(tr, "shard.pagerank", work, || {
                simt::host::scoped(BACKEND, || group.pagerank(&self.graph, TOL, ITERS))
            });
            match out {
                Ok(pr) => {
                    self.check_ranks(&mut rep, &pr, "solve");
                    rep.digest.f64(pr.compute_ms);
                    rep.digest.f64(pr.comm_ms);
                    solve = Some(pr);
                }
                Err(e) => rep.failures.push(format!("solve {i}: {e}")),
            }
        }
        if tr.enabled() {
            self.time_backends(&mut rep, &mut group);
        }

        let mut done = Vec::with_capacity(self.split.len());
        let (mut halo_bytes, mut merges, mut hits, mut misses) = (0u64, 0usize, 0usize, 0usize);
        for window in self.split.chunks(WINDOW) {
            let nnz: u64 = window.iter().map(|r| r.matrix.nnz() as u64).sum();
            rep.attempted += window.len() as u64;
            let served = rep.op(tr, nnz, || {
                tr.span("shard.serve_split", "", nnz, || {
                    simt::host::scoped(BACKEND, || group.serve_split(window))
                })
            });
            if let Some(s) = &sink {
                s.attach(tr, window);
            }
            let out = match served {
                Ok(out) => out,
                Err(e) => {
                    rep.failures.push(format!("split serving: {e}"));
                    continue;
                }
            };
            let r = &out.report;
            rep.check(r.reconciles(), || {
                "split report does not reconcile".to_owned()
            });
            rep.check(
                out.completions.len() == window.len() && out.dropped.is_empty(),
                || {
                    format!(
                        "{} of {} split requests completed",
                        out.completions.len(),
                        window.len()
                    )
                },
            );
            halo_bytes += r.shard.halo_bytes;
            merges += r.shard.merges;
            hits += r.cache.hits;
            misses += r.cache.misses;
            let by_id: HashMap<u64, &Request> = window.iter().map(|r| (r.id, r)).collect();
            for c in &out.completions {
                done.push(sample(c));
                let Some(y) = &c.y else {
                    rep.failures
                        .push(format!("split request {}: no result kept", c.id));
                    continue;
                };
                rep.digest.f32s(y);
                if validate {
                    let want = &self.references[&(Arc::as_ptr(&by_id[&c.id].matrix) as usize)];
                    let bad = mismatch(y, want);
                    rep.check(bad.is_none(), || {
                        format!(
                            "split request {}: y[{}] off the reference",
                            c.id,
                            bad.unwrap_or(0)
                        )
                    });
                }
            }
        }
        rep.sim_latency_ms = latencies_by_arrival(done);
        rep.layer.insert("shard.halo_bytes", halo_bytes as f64);
        rep.layer.insert("shard.merges", merges as f64);
        rep.layer.insert(
            "runtime.plan_hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        );
        if let Some(pr) = solve {
            let total = pr.compute_ms + pr.comm_ms;
            rep.layer.insert("shard.comm_share", pr.comm_ms / total);
            rep.layer
                .insert("shard.sim_solve_gnnz_per_s", work as f64 / (total * 1e6));
            rep.layer.insert("shard.solve_iters", pr.iterations as f64);
        }
        rep
    }
}

impl ShardPagerank {
    /// Sharded ranks must be bitwise equal to single-shard PageRank.
    fn check_ranks(&self, rep: &mut Rep, pr: &ShardPageRank, what: &str) {
        let same = pr.iterations == ITERS
            && pr
                .rank
                .iter()
                .map(|r| r.to_bits())
                .eq(self.reference.iter().map(|r| r.to_bits()));
        rep.check(same, || {
            format!("{what}: ranks differ from single-shard PageRank")
        });
    }

    /// Time [`BACKEND_PAIRS`] alternating sequential and two-thread
    /// solves; the fastest of each goes into the repetition's host sums.
    fn time_backends(&self, rep: &mut Rep, group: &mut ShardGroup) {
        let mut best = [f64::INFINITY; 2];
        for _ in 0..BACKEND_PAIRS {
            for (slot, backend) in [BACKEND, PARALLEL].into_iter().enumerate() {
                let t0 = Instant::now();
                let out = simt::host::scoped(backend, || group.pagerank(&self.graph, TOL, ITERS));
                best[slot] = best[slot].min(t0.elapsed().as_secs_f64() * 1e3);
                match out {
                    Ok(pr) => self.check_ranks(rep, &pr, &format!("{backend} solve")),
                    Err(e) => rep.failures.push(format!("{backend} solve: {e}")),
                }
            }
        }
        rep.host.insert("simt.sequential_solve_ms", best[0]);
        rep.host.insert("simt.parallel2_solve_ms", best[1]);
    }
}
