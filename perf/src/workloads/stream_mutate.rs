//! `stream_mutate`: writes beside reads.
//!
//! One seeded scale-free matrix (25k rows, about 250k nonzeros, a
//! four-entry floor per row) evolves window by window: each window
//! applies one 256-event edge batch (70% inserts) through
//! `runtime::mutate`, then serves 4 SpMV requests through `Runtime::serve`
//! with arrivals shifted past the pool's busy horizon. One operation is
//! one window; a repetition is 100 windows from the same starting
//! matrix on a fresh runtime. Delta apply, the full fingerprint recompute (every
//! structural batch is a memo stamp mismatch), cache retirement and plan
//! re-preparation dominate; batching, conversion and the tuner are off
//! the path.

use std::sync::Arc;

use runtime::{Request, Runtime, RuntimeConfig};
use simt::{GpuSpec, HostBackend};
use sparse::delta::EvolvingStream;
use sparse::{Csr, Prng};

use super::{mismatch, ratio, subseed, Rep, Workload};
use crate::serving::busy_horizon;
use crate::spans::{RequestSink, Tracer};

const ROWS: usize = 25_000;
const NNZ: usize = 250_000;
/// Windows per repetition.
const WINDOWS: usize = 100;
/// Edge events per mutation batch.
const EVENTS: usize = 256;
const INSERT_FRAC: f64 = 0.7;
/// Requests served per window, and their arrival spacing (ms).
const REQUESTS: usize = 4;
const SPACING_MS: f64 = 0.02;

pub struct StreamMutate {
    base: Csr<f32>,
    seed: u64,
}

impl Workload for StreamMutate {
    fn setup(seed: u64) -> Self {
        Self {
            base: sparse::gen::powerlaw_floor(ROWS, ROWS, 4, NNZ, 1.8, subseed(seed, 0)),
            seed,
        }
    }

    fn rep(&mut self, tr: &Tracer, validate: bool) -> Rep {
        let mut rep = Rep::default();
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                keep_results: true,
                host_backend: Some(HostBackend::Sequential),
                ..RuntimeConfig::default()
            },
        );
        let sink = tr.enabled().then(|| Arc::new(RequestSink::new(tr)));
        if let Some(s) = &sink {
            rt.set_trace_sink(s.clone());
        }
        let mut a = Arc::new(self.base.clone());
        let mut deltas = EvolvingStream::new(subseed(self.seed, 1), INSERT_FRAC);
        let mut xrng = Prng::seed_from_u64(subseed(self.seed, 2));
        let mut horizon = 0.0f64;
        let (mut touched, mut retired) = (0usize, 0usize);
        let (mut hits, mut misses, mut retries, mut fallbacks) = (0usize, 0usize, 0usize, 0usize);
        let (mut queue_ms, mut latency_ms) = (0.0f64, 0.0f64);
        for w in 0..WINDOWS {
            // Inputs for the window are drawn before its timer starts.
            let batch = deltas.next_batch(&a, EVENTS);
            let x: Arc<[f32]> = (0..a.cols())
                .map(|_| xrng.f64() as f32)
                .collect::<Vec<_>>()
                .into();
            let nnz = a.nnz() as u64;
            rep.attempted += REQUESTS as u64;
            let (mutation, requests, served) = rep.op(tr, REQUESTS as u64 * nnz, || {
                let mutation = tr.span("runtime.mutate", "", nnz, || {
                    runtime::mutate(&mut rt, &mut a, &batch)
                });
                let requests: Vec<Request> = (0..REQUESTS)
                    .map(|i| Request {
                        id: (w * REQUESTS + i) as u64,
                        tenant: 0,
                        matrix: Arc::clone(&a),
                        x: Arc::clone(&x),
                        arrival_ms: horizon + i as f64 * SPACING_MS,
                    })
                    .collect();
                let served = tr.span("runtime.serve", "", REQUESTS as u64 * nnz, || {
                    rt.serve(&requests)
                });
                (mutation, requests, served)
            });
            if let Some(s) = &sink {
                s.attach(tr, &requests);
            }
            match mutation {
                Ok(m) => {
                    touched += m.touched;
                    retired += m.retired.map_or(0, |r| r.plans);
                    rep.digest.u64(m.touched as u64);
                    rep.digest.f64(m.apply_ms);
                }
                Err(e) => rep
                    .failures
                    .push(format!("window {w}: mutation failed: {e}")),
            }
            let out = match served {
                Ok(out) => out,
                Err(e) => {
                    rep.failures.push(format!("window {w}: {e}"));
                    continue;
                }
            };
            let r = &out.report;
            rep.check(r.reconciles(), || {
                format!("window {w}: report does not reconcile")
            });
            rep.check(
                out.completions.len() == requests.len() && out.dropped.is_empty(),
                || {
                    format!(
                        "window {w}: {} of {} requests completed",
                        out.completions.len(),
                        requests.len()
                    )
                },
            );
            hits += r.cache.hits;
            misses += r.cache.misses;
            retries += r.retries;
            fallbacks += r.plan_fallbacks;
            horizon = horizon.max(busy_horizon(r));
            let reference = validate.then(|| a.spmv_ref(&x));
            for c in &out.completions {
                rep.sim_latency_ms.push(c.latency_ms());
                queue_ms += c.start_ms - c.arrival_ms;
                latency_ms += c.latency_ms();
                match (&c.y, &reference) {
                    (Some(y), Some(want)) => {
                        let bad = mismatch(y, want);
                        rep.check(bad.is_none(), || {
                            format!(
                                "window {w} request {}: y[{}] off the reference",
                                c.id,
                                bad.unwrap_or(0)
                            )
                        });
                        rep.digest.f32s(y);
                    }
                    (Some(y), None) => rep.digest.f32s(y),
                    (None, _) => rep
                        .failures
                        .push(format!("request {}: no result kept", c.id)),
                }
            }
        }
        let memo = rt.memo_stats();
        for (k, v) in [
            ("sparse.delta_touched_mean", touched as f64 / WINDOWS as f64),
            ("runtime.retired_plans", retired as f64),
            (
                "runtime.plan_hit_rate",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("runtime.memo_hit_rate", memo.hit_rate()),
            ("runtime.memo_misses", memo.misses as f64),
            (
                "runtime.memo_stamp_mismatches",
                memo.stamp_mismatches as f64,
            ),
            ("runtime.sim_queue_share", ratio(queue_ms, latency_ms)),
            ("runtime.retries", retries as f64),
            ("runtime.plan_fallbacks", fallbacks as f64),
        ] {
            rep.layer.insert(k, v);
        }
        rep
    }
}
