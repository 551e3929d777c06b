//! The four workloads and the loop that measures them.
//!
//! Every run sets the workload up [`SETUPS`] times (input generation,
//! construction, and one untimed warm-up repetition that is also the
//! correctness pass) and reports the median as `setup_s`. Timed
//! repetitions then run until `--seconds` have passed, and at least
//! [`MIN_REPS`] of them. Every repetition replays identical work, so the
//! host time of each operation is its fastest repetition: other
//! processes on a shared host only ever add time, and the minimum strips
//! most of it. Each repetition also digests every simulated number and
//! output bit it produced; all digests of a run must equal the first
//! warm-up's, traced or not.

pub mod serve_zipf;
pub mod shard_pagerank;
pub mod spmv_sweep;
pub mod stream_mutate;

use std::collections::BTreeMap;
use std::time::Instant;

use bench::quantile;

use crate::metrics::{
    self, MetricDef, Report, CELLS, END_TO_END, MIN_TAIL_SAMPLES, SELF_SHARE_SPANS,
};
use crate::spans::{self_by_name, Span, Tracer};

/// Workload names, in `--all` order.
pub const WORKLOADS: [&str; 4] = [
    "spmv_sweep",
    "serve_zipf",
    "stream_mutate",
    "shard_pagerank",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Timed repetitions per phase, at least.
const MIN_REPS: usize = 3;

/// A phase stops after this multiple of its time budget even if it has
/// not reached [`MIN_REPS`], so a slow host still finishes.
const HARD_CAP: f64 = 3.0;

/// A workload: inputs generated from a seed, and one repetition of work
/// over them.
pub trait Workload: Sized {
    /// Generate the inputs from `seed` and build the system under test.
    fn setup(seed: u64) -> Self;

    /// Run one repetition. With `validate` set (the warm-up), outputs
    /// are checked against the CPU references.
    fn rep(&mut self, tr: &Tracer, validate: bool) -> Rep;
}

/// FNV-1a over 64-bit words: a digest of simulated values and output
/// bits, compared bitwise across repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(u64::from(x.to_bits()));
        }
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host milliseconds of each timed operation, in order.
    pub op_ms: Vec<f64>,
    /// Host milliseconds of the other timed calls, in order.
    pub call_ms: Vec<f64>,
    /// Simulated nonzeros processed by the timed calls.
    pub nnz: u64,
    /// Simulated latency samples (ms).
    pub sim_latency_ms: Vec<f64>,
    /// Deterministic per-layer values: counts and simulated statistics.
    pub layer: BTreeMap<&'static str, f64>,
    /// Per-layer host-clock sums.
    pub host: BTreeMap<&'static str, f64>,
    /// Output bits and simulated values not kept elsewhere.
    pub digest: Digest,
    /// Units of work attempted: cells, requests, solves.
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Lines for the report (the warm-up's are printed).
    pub notes: Vec<String>,
}

impl Rep {
    /// Time one host operation, recorded as a root `op` span when
    /// tracing.
    pub fn op<R>(&mut self, tr: &Tracer, nnz: u64, f: impl FnOnce() -> R) -> R {
        let (out, ms) = self.timed(tr, "op", nnz, f);
        self.op_ms.push(ms);
        out
    }

    /// Time a call that counts towards throughput but is not one of the
    /// workload's operations.
    pub fn call<R>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        nnz: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let (out, ms) = self.timed(tr, name, nnz, f);
        self.call_ms.push(ms);
        out
    }

    fn timed<R>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        nnz: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t0 = Instant::now();
        let out = tr.span(name, "", nnz, f);
        self.nnz += nnz;
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Record a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Digest of everything simulated this repetition produced.
    pub fn sim_digest(&self) -> Digest {
        let mut d = self.digest;
        for &x in &self.sim_latency_ms {
            d.f64(x);
        }
        for (k, &v) in &self.layer {
            d.str(k);
            d.f64(v);
        }
        d
    }
}

/// First index where `y` leaves the reference by more than the
/// experiment harness's tolerance (5e-3 relative, absolute below 1).
pub fn mismatch(y: &[f32], want: &[f32]) -> Option<usize> {
    if y.len() != want.len() {
        return Some(y.len().min(want.len()));
    }
    y.iter()
        .zip(want)
        .position(|(g, w)| (g - w).abs() >= 5e-3 * w.abs().max(1.0) || g.is_nan())
}

/// `a / b`, or 0 when there is no base (a layer the workload never uses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Derive an independent generator seed for `part` of the workload
/// seeded with `seed` (SplitMix64 finalizer).
pub fn subseed(seed: u64, part: u64) -> u64 {
    let mut z = seed ^ part.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run workload `name`; `None` if no workload has that name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<(Report, Vec<Span>)> {
    Some(match name {
        "spmv_sweep" => measure::<spmv_sweep::SpmvSweep>("spmv_sweep", seed, seconds, trace),
        "serve_zipf" => measure::<serve_zipf::ServeZipf>("serve_zipf", seed, seconds, trace),
        "stream_mutate" => {
            measure::<stream_mutate::StreamMutate>("stream_mutate", seed, seconds, trace)
        }
        "shard_pagerank" => {
            measure::<shard_pagerank::ShardPagerank>("shard_pagerank", seed, seconds, trace)
        }
        _ => return None,
    })
}

/// Failure bookkeeping shared by every phase of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Tally {
    fn add(&mut self, rep: &Rep, reference: Digest, phase: &str) {
        self.attempted += rep.attempted;
        self.failed += rep.failures.len() as u64;
        self.lines.extend(
            rep.failures
                .iter()
                .map(|f| format!("FAILED ({phase}): {f}")),
        );
        if rep.sim_digest() != reference {
            self.failed += 1;
            self.lines.push(format!(
                "FAILED ({phase}): simulated results differ from the first warm-up's — \
                 a determinism bug (trace sinks must only observe)"
            ));
        }
    }
}

fn measure<W: Workload>(
    name: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> (Report, Vec<Span>) {
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(W, Rep)> = None;
    let mut first: Option<Digest> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let mut w = W::setup(seed);
        gen_s.push(t0.elapsed().as_secs_f64());
        let warm = w.rep(&off, true);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally.add(&warm, *first.get_or_insert(warm.sim_digest()), "warm-up");
        kept = Some((w, warm));
    }
    let (mut w, warm) = kept.expect("at least one set-up");
    let reference = first.expect("at least one set-up");

    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = phase(&mut w, &off, budget);
    for r in &untraced {
        tally.add(r, reference, "timed");
    }
    let mut notes = vec![
        "load: closed loop on the host (one operation at a time, one process); serving streams \
         are open loop on the simulated clock, generated before timing starts, so the generator \
         never runs late"
            .to_owned(),
    ];
    let untraced_ops = fastest(&untraced, |r| &r.op_ms);
    notes.push(format!(
        "{} ops per repetition, each timed as the fastest of {} repetitions; \
         {} simulated latency samples",
        untraced_ops.len(),
        untraced.len(),
        warm.sim_latency_ms.len()
    ));
    notes.extend(warm.notes.iter().cloned());
    for (what, n, q) in [
        ("host op", untraced_ops.len(), 0.9),
        ("simulated latency", warm.sim_latency_ms.len(), 0.9),
    ] {
        if metrics::samples_beyond(n, q) < MIN_TAIL_SAMPLES {
            notes.push(format!(
                "WARNING: {what} p90 has fewer than {MIN_TAIL_SAMPLES} samples beyond it (n = {n})"
            ));
        }
    }

    let (metrics, spans) = if trace {
        let tr = Tracer::new(true);
        let traced = phase(&mut w, &tr, budget);
        for r in &traced {
            tally.add(r, reference, "traced");
        }
        let spans = tr.spans();
        let m = per_layer_metrics(&warm, &untraced_ops, &traced, &spans, &gen_s, &tally);
        (m, spans)
    } else {
        let busy_ms: f64 = untraced_ops
            .iter()
            .chain(&fastest(&untraced, |r| &r.call_ms))
            .sum();
        let nnz = untraced[0].nnz;
        let values = [
            quantile(&setup_s, 0.5),
            nnz as f64 / 1e6 / (busy_ms / 1e3),
            quantile(&untraced_ops, 0.5),
            quantile(&untraced_ops, 0.9),
            quantile(&warm.sim_latency_ms, 0.5),
            quantile(&warm.sim_latency_ms, 0.9),
            metrics::peak_rss_mb().unwrap_or(f64::NAN),
        ];
        let m = END_TO_END.iter().copied().zip(values).collect();
        (m, Vec::new())
    };
    notes.extend(tally.lines.iter().cloned());
    let report = Report {
        workload: name,
        seed,
        correct: tally.failed == 0 && metrics.iter().all(|m| m.1.is_finite()),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        notes,
    };
    (report, spans)
}

/// Timed repetitions until `budget_s` has passed and [`MIN_REPS`] ran
/// (or [`HARD_CAP`] × the budget ran out).
fn phase<W: Workload>(w: &mut W, tr: &Tracer, budget_s: f64) -> Vec<Rep> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(w.rep(tr, false));
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= budget_s && reps.len() >= MIN_REPS) || elapsed >= HARD_CAP * budget_s {
            return reps;
        }
    }
}

/// Element-wise minimum over repetitions of the timings `of` selects:
/// the fastest run of each (identical) operation.
pub fn fastest(reps: &[Rep], of: impl Fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    let n = reps.iter().map(|r| of(r).len()).min().unwrap_or(0);
    (0..n)
        .map(|i| reps.iter().map(|r| of(r)[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Sum of `dur / nnz` over spans named `name` (with `tag`, if given).
fn ns_per_nnz(spans: &[Span], name: &str, tag: Option<&str>) -> f64 {
    let (mut ns, mut nnz) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
    {
        ns += s.dur_ns();
        nnz += s.nnz;
    }
    ratio(ns as f64, nnz as f64)
}

fn per_layer_metrics(
    warm: &Rep,
    untraced_ops: &[f64],
    traced: &[Rep],
    spans: &[Span],
    gen_s: &[f64],
    tally: &Tally,
) -> Vec<(MetricDef, f64)> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced_ops = fastest(traced, |r| &r.op_ms);
    v.insert("sparse.gen_s", quantile(gen_s, 0.5));
    v.insert(
        "trace_overhead",
        quantile(&traced_ops, 0.5) / quantile(untraced_ops, 0.5) - 1.0,
    );
    v.insert(
        "fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let self_ns = self_by_name(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    for span in SELF_SHARE_SPANS {
        let share = self_ns
            .get(span)
            .map_or(0.0, |&ns| ns as f64 / root_ns.max(1) as f64);
        v.insert(metrics::self_share_name(span), share);
    }
    for cell in CELLS {
        v.insert(
            metrics::cell_metric("simt.host_ns_per_nnz.", cell),
            ns_per_nnz(spans, "kernels.spmv", Some(cell)),
        );
    }
    let kernel_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "kernels.spmv")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    let host_sum = |k: &str| -> f64 { traced.iter().filter_map(|r| r.host.get(k)).sum() };
    v.insert(
        "simt.exec_share",
        ratio(host_sum("simt.host_wall_ms"), kernel_ms),
    );
    v.insert(
        "simt.parallel2_speedup",
        ratio(
            host_sum("simt.sequential_solve_ms"),
            host_sum("simt.parallel2_solve_ms"),
        ),
    );
    for (metric, span, tag) in [
        (
            "loops.prepare_ns_per_nnz.merge-path",
            "loops.prepare",
            Some("merge-path"),
        ),
        ("loops.prepare_ns_per_nnz.lrb", "loops.prepare", Some("lrb")),
        (
            "sparse.convert_ns_per_nnz.ell",
            "sparse.convert",
            Some("ell"),
        ),
        (
            "sparse.convert_ns_per_nnz.hybrid",
            "sparse.convert",
            Some("hybrid"),
        ),
        ("runtime.mutate_ns_per_nnz", "runtime.mutate", None),
        ("runtime.serve_ns_per_nnz", "runtime.serve", None),
        ("shard.pagerank_ns_per_nnz", "shard.pagerank", None),
        ("shard.serve_split_ns_per_nnz", "shard.serve_split", None),
    ] {
        v.insert(metric, ns_per_nnz(spans, span, tag));
    }
    let per_request: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "runtime.request" && s.nnz > 0)
        .map(|s| s.dur_ns() as f64 / s.nnz as f64)
        .collect();
    for (metric, q) in [
        ("runtime.request_host_ns_per_nnz_p50", 0.5),
        ("runtime.request_host_ns_per_nnz_p90", 0.9),
    ] {
        v.insert(
            metric,
            if per_request.is_empty() {
                0.0
            } else {
                quantile(&per_request, q)
            },
        );
    }
    // Deterministic layer values: every repetition reports the same
    // ones (the digest check enforces it), so the warm-up's stand.
    for (&k, &x) in &warm.layer {
        v.insert(k, x);
    }
    metrics::per_layer()
        .into_iter()
        .map(|d| (d, v.get(d.name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatch_uses_the_harness_tolerance() {
        assert_eq!(mismatch(&[1.0, 100.0], &[1.004, 100.4]), None);
        assert_eq!(mismatch(&[1.0, 100.0], &[1.0, 101.0]), Some(1));
        assert_eq!(mismatch(&[0.0], &[0.006]), Some(0));
        assert_eq!(mismatch(&[f32::NAN], &[0.0]), Some(0));
        assert_eq!(mismatch(&[1.0], &[1.0, 2.0]), Some(1));
    }

    #[test]
    fn fastest_takes_each_operation_s_best_repetition() {
        let rep = |ms: &[f64]| Rep {
            op_ms: ms.to_vec(),
            ..Rep::default()
        };
        let reps = [
            rep(&[3.0, 1.0, 5.0]),
            rep(&[2.0, 4.0, 6.0]),
            rep(&[9.0, 9.0]),
        ];
        assert_eq!(fastest(&reps, |r| &r.op_ms), vec![2.0, 1.0]);
        assert!(fastest(&[], |r| &r.op_ms).is_empty());
    }

    #[test]
    fn digest_sees_every_bit() {
        let d = |xs: &[f32]| {
            let mut d = Digest::default();
            d.f32s(xs);
            d
        };
        assert_eq!(d(&[1.0, 2.0]), d(&[1.0, 2.0]));
        assert_ne!(d(&[1.0, 2.0]), d(&[2.0, 1.0]));
        assert_ne!(d(&[0.0]), d(&[-0.0]));
        let mut rep = Rep::default();
        let before = rep.sim_digest();
        rep.layer.insert("runtime.retries", 1.0);
        assert_ne!(rep.sim_digest(), before);
    }
}
