//! `serve_zipf`: multi-tenant serving through `Runtime::serve`.
//!
//! 160 seeded matrices in popularity order: three in four are tiny
//! (within `tiny_nnz`, so the batcher may fuse them), every fourth is a
//! 40k–160k-nonzero matrix, alternately skewed and regular. Requests pick
//! a matrix by Zipf(1.1) popularity and arrive as a Poisson stream. The
//! pool is two devices with the autotuner on (formats included) on the
//! sequential host backend.
//!
//! Each repetition builds a fresh runtime, serves an untimed warm-up
//! stream, then climbs a geometric ladder of offered rates. The runtime
//! receives each rung's stream in windows of [`WINDOW`] requests, one
//! `serve` call each; that call is the operation timed on the host.
//! Admission, batching, the plan cache (whose 128 entries the working
//! set exceeds), the fingerprint memo and the tuner dominate.

use std::collections::HashMap;
use std::sync::Arc;

use runtime::{zipf_workload, Request, Runtime, RuntimeConfig, TuneConfig, WorkloadSpec};
use simt::{GpuSpec, HostBackend};
use sparse::Csr;

use super::{mismatch, ratio, subseed, Rep, Workload};
use crate::serving::{busy_horizon, capacity, latencies_by_arrival, sample, shifted, Rung};
use crate::spans::{RequestSink, Tracer};

/// Offered rate of the lowest rung, requests per simulated second.
const BASE_RATE_RPS: f64 = 600_000.0;
/// Ratio between successive rungs.
const STEP: f64 = 1.5;
/// Rungs on the ladder.
const RUNGS: usize = 6;
/// The rung whose latencies are the reported simulated latency.
const NOMINAL_RUNG: usize = 1;
/// Latency limit on a rung's p99 for `runtime.sim_capacity_rps` (ms).
pub const SLO_MS: f64 = 0.25;
/// Requests per rung.
const REQUESTS_PER_RUNG: usize = 3_000;
/// Requests in the warm-up stream: long enough that the tuner has
/// finished sweeping the popular keys before the ladder starts.
const WARMUP_REQUESTS: usize = 4_000;
/// Requests per `serve` call.
const WINDOW: usize = 50;

pub struct ServeZipf {
    /// CPU reference output per matrix, keyed by its address.
    references: HashMap<usize, Vec<f32>>,
    warmup: Vec<Request>,
    rungs: Vec<(f64, Vec<Request>)>,
}

fn matrix(i: usize, seed: u64) -> Csr<f32> {
    let s = subseed(seed, i as u64);
    if i % 4 == 3 {
        // 40 mid-size matrices, 40k → 160k nonzeros geometrically.
        let k = i / 4;
        let nnz = (40_000.0 * 4f64.powf(k as f64 / 39.0)) as usize;
        let rows = nnz / 10;
        match k % 4 {
            0 => sparse::gen::powerlaw_floor(rows, rows, 4, nnz, 1.8, s),
            1 => sparse::gen::uniform(rows, rows, nnz, s),
            2 => sparse::gen::powerlaw(rows, rows, nnz, 1.8, s),
            _ => sparse::gen::banded(rows, 4, s),
        }
    } else {
        let rows = 64 + (i * 7) % 320;
        match i % 3 {
            0 => sparse::gen::uniform(rows, rows, rows * 8, s),
            1 => sparse::gen::banded(rows, 3, s),
            _ => sparse::gen::powerlaw(rows, rows, rows * 6, 2.0, s),
        }
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        devices: 2,
        keep_results: true,
        host_backend: Some(HostBackend::Sequential),
        tune: TuneConfig {
            enabled: true,
            formats: true,
            ..TuneConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

fn stream(matrices: &[Arc<Csr<f32>>], requests: usize, rate_rps: f64, seed: u64) -> Vec<Request> {
    zipf_workload(
        matrices,
        &WorkloadSpec {
            requests,
            zipf_s: 1.1,
            mean_interarrival_ms: 1e3 / rate_rps,
            seed,
        },
    )
}

impl Workload for ServeZipf {
    fn setup(seed: u64) -> Self {
        let matrices: Vec<Arc<Csr<f32>>> = (0..160).map(|i| Arc::new(matrix(i, seed))).collect();
        let references = matrices
            .iter()
            .map(|a| {
                let x = sparse::dense::test_vector(a.cols());
                (Arc::as_ptr(a) as usize, a.spmv_ref(&x))
            })
            .collect();
        let rate = |i: usize| BASE_RATE_RPS * STEP.powi(i as i32);
        let warmup = stream(
            &matrices,
            WARMUP_REQUESTS,
            rate(NOMINAL_RUNG),
            subseed(seed, 1_000),
        );
        let rungs = (0..RUNGS)
            .map(|i| {
                let seed = subseed(seed, 1_001 + i as u64);
                (rate(i), stream(&matrices, REQUESTS_PER_RUNG, rate(i), seed))
            })
            .collect();
        Self {
            references,
            warmup,
            rungs,
        }
    }

    fn rep(&mut self, tr: &Tracer, validate: bool) -> Rep {
        let mut rep = Rep::default();
        let mut rt = Runtime::new(GpuSpec::v100(), config());
        let sink = tr.enabled().then(|| Arc::new(RequestSink::new(tr)));
        if let Some(s) = &sink {
            rt.set_trace_sink(s.clone());
        }
        rep.attempted += self.warmup.len() as u64;
        let mut horizon = match rt.serve(&self.warmup) {
            Ok(out) => {
                self.check_window(&mut rep, &self.warmup, &out, validate);
                busy_horizon(&out.report)
            }
            Err(e) => {
                rep.failures.push(format!("warm-up stream: {e}"));
                return rep;
            }
        };
        if let Some(s) = &sink {
            s.drain();
        }

        let tune_before = rt.tune_stats();
        let mut ladder = Vec::new();
        let (mut hits, mut misses, mut served, mut batches, mut batched) = (0, 0, 0, 0, 0);
        let (mut retries, mut fallbacks) = (0usize, 0usize);
        let (mut queue_ms, mut latency_ms) = (0.0f64, 0.0f64);
        for (i, (rate, requests)) in self.rungs.iter().enumerate() {
            let requests = shifted(requests, horizon);
            let mut done = Vec::new();
            let mut drops = 0;
            for window in requests.chunks(WINDOW) {
                let nnz: u64 = window.iter().map(|r| r.matrix.nnz() as u64).sum();
                rep.attempted += window.len() as u64;
                let out = rep.op(tr, nnz, || {
                    tr.span("runtime.serve", "", nnz, || rt.serve(window))
                });
                if let Some(s) = &sink {
                    s.attach(tr, window);
                }
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        rep.failures.push(format!("rung {i}: {e}"));
                        continue;
                    }
                };
                self.check_window(&mut rep, window, &out, validate);
                let r = &out.report;
                hits += r.cache.hits;
                misses += r.cache.misses;
                served += r.served;
                batches += r.batches;
                batched += r.batched_requests;
                retries += r.retries;
                fallbacks += r.plan_fallbacks;
                drops += out.dropped.len();
                horizon = horizon.max(busy_horizon(r));
                for c in &out.completions {
                    queue_ms += c.start_ms - c.arrival_ms;
                    latency_ms += c.latency_ms();
                    done.push(sample(c));
                }
            }
            let lat = latencies_by_arrival(done);
            ladder.push(Rung::new(*rate, &lat, drops));
            if i == NOMINAL_RUNG {
                rep.sim_latency_ms = lat;
            }
        }
        let tune = rt.tune_stats();
        let memo = rt.memo_stats();
        for (k, v) in [
            ("runtime.sim_capacity_rps", capacity(&ladder, SLO_MS)),
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
            (
                "runtime.tune_explores",
                (tune.explores - tune_before.explores) as f64,
            ),
            (
                "runtime.tune_promotes",
                (tune.promotes - tune_before.promotes) as f64,
            ),
            ("runtime.batched_frac", ratio(batched as f64, served as f64)),
            (
                "runtime.batch_size_mean",
                ratio(batched as f64, batches as f64),
            ),
            ("runtime.sim_queue_share", ratio(queue_ms, latency_ms)),
            ("runtime.retries", retries as f64),
            ("runtime.plan_fallbacks", fallbacks as f64),
        ] {
            rep.layer.insert(k, v);
        }
        for r in &ladder {
            rep.digest.f64(r.p99_ms);
            rep.notes.push(format!(
                "rung {:>8.0} req/s: p99 {:.4} ms (quarters {:.4} → {:.4}), {} drops{}",
                r.rate_rps,
                r.p99_ms,
                r.first_quarter_p99_ms,
                r.last_quarter_p99_ms,
                r.drops,
                if r.sustained(SLO_MS) {
                    ""
                } else {
                    " — not sustained"
                }
            ));
        }
        rep
    }
}

impl ServeZipf {
    /// Accounting, determinism digest and (when validating) reference
    /// checks for one served window.
    fn check_window(
        &self,
        rep: &mut Rep,
        window: &[Request],
        out: &runtime::ServeResult,
        validate: bool,
    ) {
        let r = &out.report;
        rep.check(r.reconciles(), || {
            format!("report does not reconcile: {r:?}")
        });
        rep.check(
            out.completions.len() + out.dropped.len() == window.len(),
            || {
                format!(
                    "{} completions + {} drops for {} submissions",
                    out.completions.len(),
                    out.dropped.len(),
                    window.len()
                )
            },
        );
        for d in &out.dropped {
            rep.failures
                .push(format!("request {} dropped: {:?}", d.id, d.reason));
        }
        let by_id: HashMap<u64, &Request> = window.iter().map(|r| (r.id, r)).collect();
        for c in &out.completions {
            rep.digest.f64(c.latency_ms());
            let Some(y) = &c.y else {
                rep.failures
                    .push(format!("request {}: no result kept", c.id));
                continue;
            };
            rep.digest.f32s(y);
            if validate {
                let want = &self.references[&(Arc::as_ptr(&by_id[&c.id].matrix) as usize)];
                let bad = mismatch(y, want);
                rep.check(bad.is_none(), || {
                    format!(
                        "request {}: y[{}] off the reference",
                        c.id,
                        bad.unwrap_or(0)
                    )
                });
            }
        }
    }
}
