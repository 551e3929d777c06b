//! # runtime — a multi-tenant kernel-serving runtime on the simulator
//!
//! The paper's framework answers "how do I balance *one* kernel?". This
//! crate asks the serving question on top of it: many SpMV requests,
//! against a skewed mix of matrices, arriving on an open-loop clock,
//! sharing a pool of simulated GPUs. It composes four pieces:
//!
//! * **Device pool** — N [`DeviceSim`]s, each with several streams;
//!   requests dispatch to the earliest-available stream (least-loaded
//!   device on ties), so kernels overlap across streams and devices
//!   exactly as the stream model allows.
//! * **Plan cache** ([`PlanCache`]) — prepared engine [`KernelPlan`]s
//!   memoized by [`PlanKey`] (kernel + storage format + matrix
//!   [`Fingerprint`]): a hit skips schedule selection and setup (LRB
//!   binning, merge-path partition search) and launches the cheaper
//!   prepartitioned kernel. Results stay bitwise identical to the cold
//!   path. One planned path, written once over a per-kernel trait,
//!   does the lookup, the poisoned-plan fallback and the [`autotune`]
//!   sweep for SpMV requests inside [`Runtime::serve`], for
//!   [`Runtime::run_spmm`] and [`Runtime::run_bfs`], and (pinned, no
//!   tuner) for [`Runtime::run_spmv_pinned`].
//! * **Small-request batcher** ([`batch`]) — tiny SpMVs wait up to a
//!   short window and fuse into one block-diagonal launch, paying the
//!   launch overhead once.
//! * **Admission queue** — a bounded in-flight window with a
//!   [`QueuePolicy`]: `Reject` drops excess requests, `Block` delays
//!   submission until a slot frees (the delay shows up as queueing
//!   latency).
//!
//! [`Runtime::serve`] drives a request stream through all of this
//! deterministically and returns per-request [`Completion`]s plus a
//! [`RuntimeReport`] (cache hit rate, p50/p99 latency, per-device
//! occupancy, throughput).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotune;
pub mod batch;
pub mod cache;
pub mod fingerprint;
pub mod split;
pub mod stream;
pub mod workload;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use kernels::formats::{self, PreparedOperand};
use kernels::graph::Graph;
use kernels::spmm;
use kernels::spmv::{spmv_with_model, DEFAULT_BLOCK};
use kernels::traversal::TRAVERSAL_BLOCK;
use kernels::bfs;
use loops::dispatch::{trace_label, Candidate, KernelKind, KernelPlan};
use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use simt::{CostModel, DeviceSim, FaultCounters, FaultPlan, GpuSpec, LaunchReport, SimError, StreamId};
use sparse::{Csr, DenseMatrix, FormatKind, Prng};
use trace::{CounterKind, RequestPhase, TenantOutcome, TraceEvent, TraceSink, TunePhase};

use autotune::{Autotuner, TuneAction};

pub use autotune::{TuneConfig, TuneStats};
pub use cache::{CacheStats, PlanCache, PlanKey};
pub use fingerprint::Fingerprint;
pub use split::{decomposable, pinned_schedule, split_spmv, SplitRun};
pub use stream::{mutate, serve_evolving, MutationOutcome, StreamSpec, WindowStats};
pub use workload::{zipf_workload, WorkloadSpec};

/// What to do when the in-flight window is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Delay submission until a slot frees; the wait becomes latency.
    Block,
    /// Drop the request (counted in [`RuntimeReport::rejected`]).
    Reject,
}

/// Pool-, queue-, batch-, and cache-sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Streams (FIFO lanes) per device.
    pub streams_per_device: usize,
    /// Maximum jobs in flight before backpressure engages.
    pub queue_depth: usize,
    /// Backpressure policy.
    pub policy: QueuePolicy,
    /// How long a tiny request may wait for batch-mates (simulated ms).
    pub batch_window_ms: f64,
    /// Maximum tiny requests fused into one launch (≤ 1 disables
    /// batching).
    pub batch_max: usize,
    /// Requests on matrices with at most this many nonzeros are "tiny"
    /// and eligible for batching.
    pub tiny_nnz: usize,
    /// Plan-cache capacity in entries (0 disables caching).
    pub plan_cache_capacity: usize,
    /// Keep each request's result vector in its [`Completion`] (memory
    /// for verification; benches turn this off).
    pub keep_results: bool,
    /// Per-request deadline relative to arrival (simulated ms): a
    /// request whose job cannot *start* by `arrival + deadline_ms` is
    /// dropped and counted in [`RuntimeReport::deadline_missed`].
    /// `INFINITY` (the default) disables deadlines.
    pub deadline_ms: f64,
    /// Failed dispatch attempts retried per request before giving up
    /// (the request then counts in [`RuntimeReport::failed`]).
    pub max_retries: u32,
    /// Base retry backoff (simulated ms); attempt *n* waits
    /// `retry_backoff_ms · 2^(n-1)`, scaled by jitter.
    pub retry_backoff_ms: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is multiplied by
    /// `1 + retry_jitter · u` with `u` drawn from the runtime's seeded
    /// stream, decorrelating retry storms without losing determinism.
    pub retry_jitter: f64,
    /// Seed for the retry-jitter / chaos stream.
    pub retry_seed: u64,
    /// Consecutive dispatch failures after which a device is evicted
    /// from the pool for [`Self::cooldown_ms`].
    pub evict_after: u32,
    /// How long an evicted device sits out before re-admission
    /// (simulated ms). Devices lost to a kill fault never return.
    pub cooldown_ms: f64,
    /// Chaos knob: probability that preparing a [`KernelPlan`] fails,
    /// exercising the graceful-degradation path (serve via the
    /// heuristic schedule, skip caching). 0.0 (the default) disables it.
    pub plan_fail_prob: f64,
    /// Online schedule autotuning (see [`autotune`]). Off by default:
    /// with `tune.enabled == false` every output is bitwise identical
    /// to a runtime without the tuner.
    pub tune: TuneConfig,
    /// Host execution backend for every launch this runtime performs
    /// (see [`simt::host`]). `None` (the default) defers to the ambient
    /// thread-scoped backend or the `LOOPS_HOST_THREADS` environment
    /// default. Results, reports, and the simulated clock are bitwise
    /// identical for every backend; only host wall-clock changes.
    pub host_backend: Option<simt::HostBackend>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            devices: 1,
            streams_per_device: 4,
            queue_depth: 64,
            policy: QueuePolicy::Block,
            batch_window_ms: 0.05,
            batch_max: 8,
            tiny_nnz: 4_096,
            plan_cache_capacity: 128,
            keep_results: false,
            deadline_ms: f64::INFINITY,
            max_retries: 3,
            retry_backoff_ms: 0.05,
            retry_jitter: 0.5,
            retry_seed: 0x5eed,
            evict_after: 3,
            cooldown_ms: 5.0,
            plan_fail_prob: 0.0,
            tune: TuneConfig::default(),
            host_backend: None,
        }
    }
}

/// One SpMV request: `y = matrix · x`, arriving at `arrival_ms` on the
/// open-loop clock.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the [`Completion`].
    pub id: u64,
    /// Tenant the request belongs to. Purely an accounting label — it
    /// never influences scheduling or routing — but the telemetry layer
    /// keys per-tenant latency histograms and deadline-miss budgets on
    /// it. The Zipf workload generator assigns each matrix's popularity
    /// rank as its tenant.
    pub tenant: u32,
    /// The (shared) matrix.
    pub matrix: Arc<Csr<f32>>,
    /// The (shared) input vector; must have `matrix.cols()` entries.
    pub x: Arc<[f32]>,
    /// Arrival time in simulated milliseconds.
    pub arrival_ms: f64,
}

/// Outcome of one served request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's id.
    pub id: u64,
    /// Its arrival time.
    pub arrival_ms: f64,
    /// When its job started on a device stream.
    pub start_ms: f64,
    /// When its job completed.
    pub end_ms: f64,
    /// Pool index of the device that ran it.
    pub device: usize,
    /// True if the request was served inside a fused batch launch.
    pub batched: bool,
    /// Plan-cache outcome (`None` for batched launches, which bypass the
    /// cache — fused shapes are one-off).
    pub cache_hit: Option<bool>,
    /// Schedule the job ran under.
    pub schedule: ScheduleKind,
    /// Storage format the job was served from (non-CSR only after the
    /// autotuner promotes a format winner; batches always fuse CSR).
    pub format: FormatKind,
    /// Dispatch attempts the job took (1 = first try succeeded; more
    /// means faults were retried or failed over).
    pub attempts: u32,
    /// The result vector, if [`RuntimeConfig::keep_results`] was set.
    pub y: Option<Vec<f32>>,
}

impl Completion {
    /// End-to-end latency: queueing + batching wait + execution.
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.arrival_ms
    }
}

/// Latency `(p50, p99, mean)` over a completion stream, picking each
/// percentile by nearest rank on the sorted sample (all zero when the
/// stream is empty). The one picker behind every [`RuntimeReport`]'s
/// latency fields, sharded or not.
pub fn latency_stats(completions: &[Completion]) -> (f64, f64, f64) {
    if completions.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut lat: Vec<f64> = completions.iter().map(Completion::latency_ms).collect();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |p: f64| -> f64 {
        let idx = ((p * lat.len() as f64).ceil() as usize).max(1) - 1;
        lat[idx.min(lat.len() - 1)]
    };
    let mean = lat.iter().sum::<f64>() / lat.len() as f64;
    (pick(0.50), pick(0.99), mean)
}

/// Why a request was dropped instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Admission control shed it ([`QueuePolicy::Reject`]).
    Rejected,
    /// It could not start before `arrival + deadline_ms`.
    DeadlineMissed,
    /// Every dispatch attempt failed (retries exhausted or no device
    /// left alive).
    Failed,
}

/// One dropped request: the runtime accounts for every submission, so
/// `completions` plus `dropped` always partition the input stream.
#[derive(Debug, Clone, Copy)]
pub struct DroppedRequest {
    /// The request's id.
    pub id: u64,
    /// When the drop decision was made (serving clock).
    pub ts_ms: f64,
    /// Why.
    pub reason: DropReason,
}

/// Per-device serving totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// Pool index.
    pub device: usize,
    /// Kernels this device completed.
    pub jobs: usize,
    /// Mean SM busy fraction over the device's makespan.
    pub sm_occupancy: f64,
    /// The device's completion time.
    pub makespan_ms: f64,
    /// Injected faults this device has fired (all zero without a
    /// [`FaultPlan`]).
    pub faults: FaultCounters,
}

/// Counters of the sharded-serving aggregation layer (all zero for a
/// plain single-runtime serve; filled in by the `shard` crate's group
/// serving paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests the router forwarded to a shard (whole requests in
    /// routed mode; split requests count once, at their home shard).
    pub routed: usize,
    /// Ghost-column bytes moved by halo exchanges.
    pub halo_bytes: u64,
    /// Partial-result merges performed (one per split request served).
    pub merges: usize,
    /// Requests dropped by the *global* admission layer before routing
    /// (a subset of [`RuntimeReport::rejected`]).
    pub shard_rejects: usize,
}

impl ShardCounters {
    /// True if any sharded-serving activity was recorded.
    pub fn is_active(&self) -> bool {
        self.routed > 0 || self.shard_rejects > 0 || self.merges > 0 || self.halo_bytes > 0
    }
}

/// Aggregated metrics of one [`Runtime::serve`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeReport {
    /// Requests in the input stream.
    pub submitted: usize,
    /// Requests that completed.
    pub served: usize,
    /// Requests dropped by [`QueuePolicy::Reject`].
    pub rejected: usize,
    /// Requests dropped because they could not start by their deadline.
    pub deadline_missed: usize,
    /// Requests dropped after exhausting retries (or with no live
    /// device left).
    pub failed: usize,
    /// Dispatch attempts that failed and were retried.
    pub retries: usize,
    /// Requests whose job completed on a different device than their
    /// first dispatch attempt targeted.
    pub failovers: usize,
    /// Requests served via the heuristic path because plan construction
    /// or a cached-plan launch failed (graceful degradation).
    pub plan_fallbacks: usize,
    /// Times a device was removed from the pool (cooldown eviction or
    /// permanent loss).
    pub device_evictions: usize,
    /// Fused launches issued by the batcher.
    pub batches: usize,
    /// Requests served inside those fused launches.
    pub batched_requests: usize,
    /// Plan-cache counters for this call.
    pub cache: CacheStats,
    /// Autotuner exploration serves issued during this call (0 when
    /// tuning is disabled).
    pub tune_explores: usize,
    /// Schedules the autotuner promoted into the plan cache during this
    /// call.
    pub tune_promotes: usize,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub latency_p99_ms: f64,
    /// Mean latency (ms).
    pub latency_mean_ms: f64,
    /// Completion time of the last job (ms).
    pub makespan_ms: f64,
    /// Sharded-serving counters (all zero outside a shard group).
    pub shard: ShardCounters,
    /// Per-device totals (cumulative over the runtime's lifetime).
    pub devices: Vec<DeviceReport>,
}

impl RuntimeReport {
    /// Served requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            0.0
        } else {
            self.served as f64 / (self.makespan_ms * 1e-3)
        }
    }

    /// Every submission is accounted for exactly once:
    /// `submitted == served + rejected + deadline_missed + failed`.
    /// The failover and chaos tests assert this reconciliation under
    /// every fault plan. When shard counters are live, routing must
    /// account for every submission too — each request was either
    /// forwarded to a shard or shed by the global admission layer
    /// (`routed + shard_rejects == submitted`), and global sheds are a
    /// subset of all rejections. Batching counters must agree with each
    /// other as well: a fused launch always covers at least two
    /// members, so `batches` and `batched_requests` are zero together
    /// and otherwise `batched_requests ≥ 2 × batches`.
    pub fn reconciles(&self) -> bool {
        let base =
            self.submitted == self.served + self.rejected + self.deadline_missed + self.failed;
        let sharded = !self.shard.is_active()
            || (self.shard.routed + self.shard.shard_rejects == self.submitted
                && self.rejected >= self.shard.shard_rejects);
        let batching = (self.batches == 0) == (self.batched_requests == 0)
            && self.batched_requests >= 2 * self.batches;
        base && sharded && batching
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {}/{} requests ({} rejected) in {:.3} simulated ms → {:.0} req/s",
            self.served,
            self.submitted,
            self.rejected,
            self.makespan_ms,
            self.throughput_rps()
        )?;
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.1}% hit rate, {} evictions)",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.evictions
        )?;
        writeln!(
            f,
            "latency: p50 {:.4} ms, p99 {:.4} ms, mean {:.4} ms",
            self.latency_p50_ms, self.latency_p99_ms, self.latency_mean_ms
        )?;
        writeln!(
            f,
            "batching: {} fused launches covering {} requests",
            self.batches, self.batched_requests
        )?;
        if self.tune_explores + self.tune_promotes > 0 {
            writeln!(
                f,
                "autotune: {} exploration serves, {} promotions",
                self.tune_explores, self.tune_promotes
            )?;
        }
        if self.shard.is_active() {
            writeln!(
                f,
                "sharding: {} routed, {} merges, {} halo bytes, {} global rejects",
                self.shard.routed,
                self.shard.merges,
                self.shard.halo_bytes,
                self.shard.shard_rejects
            )?;
        }
        writeln!(
            f,
            "resilience: {} retries, {} failovers, {} deadline-missed, {} failed, \
             {} plan fallbacks, {} device evictions",
            self.retries,
            self.failovers,
            self.deadline_missed,
            self.failed,
            self.plan_fallbacks,
            self.device_evictions
        )?;
        for d in &self.devices {
            write!(
                f,
                "device {}: {} jobs, SM occupancy {:.1}%, busy until {:.3} ms",
                d.device,
                d.jobs,
                d.sm_occupancy * 100.0,
                d.makespan_ms
            )?;
            let fc = &d.faults;
            if fc.transient_launch_failures + fc.stalled_dispatches + fc.lost_dispatches > 0
                || fc.degraded_sms > 0
            {
                write!(
                    f,
                    " [faults: {} transient, {} stalled, {} lost, {} degraded SMs]",
                    fc.transient_launch_failures,
                    fc.stalled_dispatches,
                    fc.lost_dispatches,
                    fc.degraded_sms
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Completions plus the aggregated report.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Per-request outcomes, in submission order.
    pub completions: Vec<Completion>,
    /// Requests the runtime dropped (rejected, deadline-missed, or
    /// failed), so every submission is accounted for.
    pub dropped: Vec<DroppedRequest>,
    /// Aggregated metrics.
    pub report: RuntimeReport,
}

/// Health of one pool device as seen by the dispatcher.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceHealth {
    /// Failures since the last success (reset on success or eviction).
    consecutive_failures: u32,
    /// The device sits out until this serving-clock time.
    evicted_until_ms: f64,
    /// Permanently lost (kill fault observed); never re-admitted.
    dead: bool,
}

/// Counters one `serve` call accumulates across its submissions.
#[derive(Debug, Default)]
struct ServeCounters {
    retries: usize,
    failovers: usize,
    deadline_missed: usize,
    failed: usize,
    plan_fallbacks: usize,
    device_evictions: usize,
}

/// How one submission (solo request or fused batch) resolved.
enum SubmitOutcome {
    /// The job ran; one completion per member.
    Done(Vec<Completion>),
    /// The whole job was dropped at `ts_ms` for this reason.
    Dropped(DropReason, f64),
}

/// Fingerprint-memo bound: past this many entries, entries cold for at
/// least a full cap's worth of lookups are evicted, falling back to a
/// clear when everything is hot (see [`Runtime::fingerprint`]).
const FP_MEMO_CAP: usize = 1024;

/// Prepared-operand cache bound: past this many entries the cache is
/// cleared outright (it is a pure memoization of deterministic
/// conversions — the only cost of clearing is re-converting on the next
/// format serve).
const OPERAND_CACHE_CAP: usize = 64;

/// One fingerprint-memo slot (see [`Runtime::fingerprint`]).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    fp: Fingerprint,
    /// Memo-clock value of this entry's last hit or insert. Entries
    /// that fall a full [`FP_MEMO_CAP`] lookups behind are cold and
    /// evictable.
    last_used: u64,
}

/// Counters for the fingerprint memo (see [`Runtime::memo_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered by a memo hit.
    pub hits: usize,
    /// Lookups that computed the full fingerprint: first sight of a
    /// structure id, or a refill after eviction.
    pub misses: usize,
    /// Always 0: the memo is keyed by [`Csr::structure_id`], an exact
    /// identity, so a hit can no longer disagree with the matrix
    /// presented. Kept because the benchmark reports it.
    pub stamp_mismatches: usize,
    /// Entries dropped to stay within the memo's bound (`FP_MEMO_CAP`).
    pub evictions: usize,
}

impl MemoStats {
    /// Fraction of lookups served from the memo (0 if none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A prepared-operand cache slot: the converted operand plus the value
/// epoch of the matrix it was converted from. Fingerprints are
/// deliberately pattern-only, so the epoch is what keeps converted
/// *values* from serving stale after a `values_mut()` between requests
/// (see [`Runtime::prepared_operand`]).
#[derive(Debug)]
struct PreparedEntry {
    epoch: u64,
    op: Arc<PreparedOperand>,
}

/// What [`Runtime::retire`] dropped, per cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetiredState {
    /// Plan-cache entries (all kernels and formats over the fingerprint).
    pub plans: usize,
    /// Prepared-operand entries.
    pub operands: usize,
    /// Fingerprint-memo entries that resolved to the fingerprint.
    pub memo_entries: usize,
    /// Autotuner sweep-state keys.
    pub tuner_keys: usize,
}

/// Amortization horizon for the modeled one-time conversion cost: an
/// exploration serve for a non-CSR candidate records
/// `warm_cost + convert_ms / CONVERT_AMORTIZE_SERVES`, so a format only
/// promotes when its steady-state win survives the conversion bill
/// spread over a plausible reuse count. A key only reaches promotion
/// after surviving a full ε-greedy sweep — i.e. it is already one of
/// the workload's hot, repeatedly-served fingerprints, which under the
/// Zipf-skewed streams this runtime targets means hundreds of warm
/// serves; 256 stays on the conservative side of that. Warm serves
/// after promotion pay nothing — the operand is cached by
/// `(fingerprint, format)`.
const CONVERT_AMORTIZE_SERVES: f64 = 256.0;

/// The serving runtime: device pool + plan cache + batcher + queue.
#[derive(Debug)]
pub struct Runtime {
    cfg: RuntimeConfig,
    spec: GpuSpec,
    model: CostModel,
    heuristic: Heuristic,
    devices: Vec<DeviceSim>,
    streams: Vec<Vec<StreamId>>,
    health: Vec<DeviceHealth>,
    cache: PlanCache,
    /// Fingerprints memoized by [`Csr::structure_id`] (see
    /// [`Runtime::fingerprint`]).
    fp_memo: HashMap<u64, MemoEntry>,
    /// Lookup counter driving the memo's recency horizon.
    memo_clock: u64,
    memo_stats: MemoStats,
    /// Converted operands memoized by `(fingerprint, format)` and
    /// validated against the source matrix's value epoch: the
    /// conversion is deterministic and its modeled cost is charged to
    /// the tuner exactly once (amortized), so warm format serves skip
    /// it entirely.
    operands: HashMap<(Fingerprint, FormatKind), PreparedEntry>,
    tuner: Autotuner,
    sink: Option<Arc<dyn TraceSink>>,
    /// Seeded stream for retry jitter and chaos draws. Healthy serves
    /// draw nothing from it, so fault-free behaviour is independent of
    /// the seed.
    rng: Prng,
}

/// Outcome of a plan-cached standalone run ([`Runtime::run_spmm`],
/// [`Runtime::run_bfs`]): the kernel output plus which cache path
/// served it.
#[derive(Debug, Clone)]
pub struct PlannedRun<T> {
    /// The kernel's output.
    pub output: T,
    /// Launch report of the run (accumulated over levels for BFS).
    pub report: LaunchReport,
    /// The schedule the plan pinned.
    pub schedule: ScheduleKind,
    /// True if the plan came from the cache.
    pub cache_hit: bool,
}

impl<T> PlannedRun<T> {
    /// An uncached run's outcome (the planned-serve steps set
    /// `cache_hit`).
    fn new(output: T, report: LaunchReport, schedule: ScheduleKind) -> Self {
        Self {
            output,
            report,
            schedule,
            cache_hit: false,
        }
    }
}

/// One kernel the runtime serves through the plan cache and the
/// autotuner, carrying its operands. Lookup, poisoned-plan fallback and
/// the tuner's explore/exploit/promote loop are written once over this
/// trait ([`Runtime::cached_or_tuned`]); an impl says only how its
/// kernel prepares a plan and runs with or without one, on `rt`'s
/// device spec and cost model.
trait ServedKernel {
    /// The kernel's output (`y`, `C`, or BFS depths).
    type Output;
    /// The engine kernel, the first component of every [`PlanKey`].
    const KIND: KernelKind;
    /// The sparse operand plans are prepared over.
    fn matrix(&self) -> &Csr<f32>;
    /// Prepare a plan for schedule `kind` over `op`, the matrix in the
    /// cell's storage format.
    fn prepare(
        &self,
        rt: &Runtime,
        kind: ScheduleKind,
        op: &PreparedOperand,
    ) -> simt::Result<KernelPlan>;
    /// Run under a prepared plan from `op` — bitwise identical to the
    /// cold run of the plan's schedule.
    fn run_planned(
        &self,
        rt: &Runtime,
        plan: &KernelPlan,
        op: &PreparedOperand,
    ) -> simt::Result<PlannedRun<Self::Output>>;
    /// Run from CSR without a plan.
    fn run_cold(&self, rt: &Runtime, kind: ScheduleKind) -> simt::Result<PlannedRun<Self::Output>>;
}

/// `y = a·x`.
struct Spmv<'a> {
    a: &'a Csr<f32>,
    x: &'a [f32],
}

impl ServedKernel for Spmv<'_> {
    type Output = Vec<f32>;
    const KIND: KernelKind = KernelKind::Spmv;

    fn matrix(&self) -> &Csr<f32> {
        self.a
    }

    fn prepare(
        &self,
        rt: &Runtime,
        kind: ScheduleKind,
        op: &PreparedOperand,
    ) -> simt::Result<KernelPlan> {
        formats::prepare_format_plan(&rt.spec, &rt.model, self.a, op, kind, DEFAULT_BLOCK)
    }

    fn run_planned(
        &self,
        rt: &Runtime,
        plan: &KernelPlan,
        op: &PreparedOperand,
    ) -> simt::Result<PlannedRun<Vec<f32>>> {
        let run = formats::spmv_format_with_plan(&rt.spec, &rt.model, self.a, op, self.x, plan)?;
        Ok(PlannedRun::new(run.y, run.report, run.schedule))
    }

    fn run_cold(&self, rt: &Runtime, kind: ScheduleKind) -> simt::Result<PlannedRun<Vec<f32>>> {
        let run = spmv_with_model(&rt.spec, &rt.model, self.a, self.x, kind, DEFAULT_BLOCK)?;
        Ok(PlannedRun::new(run.y, run.report, run.schedule))
    }
}

/// `C = a·B`.
struct Spmm<'a> {
    a: &'a Csr<f32>,
    b: &'a DenseMatrix<f32>,
}

impl ServedKernel for Spmm<'_> {
    type Output = DenseMatrix<f32>;
    const KIND: KernelKind = KernelKind::Spmm;

    fn matrix(&self) -> &Csr<f32> {
        self.a
    }

    fn prepare(
        &self,
        rt: &Runtime,
        kind: ScheduleKind,
        op: &PreparedOperand,
    ) -> simt::Result<KernelPlan> {
        formats::prepare_spmm_plan(&rt.spec, &rt.model, self.a, op, kind)
    }

    fn run_planned(
        &self,
        rt: &Runtime,
        plan: &KernelPlan,
        op: &PreparedOperand,
    ) -> simt::Result<PlannedRun<DenseMatrix<f32>>> {
        let run = formats::spmm_format_with_plan(&rt.spec, &rt.model, self.a, op, self.b, plan)?;
        Ok(PlannedRun::new(run.c, run.report, run.schedule))
    }

    fn run_cold(&self, rt: &Runtime, kind: ScheduleKind) -> simt::Result<PlannedRun<Self::Output>> {
        let run = spmm::spmm_with_model(&rt.spec, &rt.model, self.a, self.b, kind)?;
        Ok(PlannedRun::new(run.c, run.report, run.schedule))
    }
}

/// Hop depths from `src` over `g.adjacency()` (frontier kernels are
/// CSR-only).
struct Bfs<'a> {
    g: &'a Graph,
    src: usize,
}

impl ServedKernel for Bfs<'_> {
    type Output = Vec<u32>;
    const KIND: KernelKind = KernelKind::Bfs;

    fn matrix(&self) -> &Csr<f32> {
        self.g.adjacency()
    }

    /// A traversal plan is schedule-only: no partition artifacts survive
    /// the per-level frontier churn.
    fn prepare(
        &self,
        _: &Runtime,
        kind: ScheduleKind,
        _: &PreparedOperand,
    ) -> simt::Result<KernelPlan> {
        Ok(KernelPlan {
            schedule: kind,
            block_dim: TRAVERSAL_BLOCK,
            merge_starts: None,
            lrb: None,
            setup_ms: 0.0,
        })
    }

    fn run_planned(
        &self,
        rt: &Runtime,
        plan: &KernelPlan,
        _: &PreparedOperand,
    ) -> simt::Result<PlannedRun<Vec<u32>>> {
        self.run_cold(rt, plan.schedule)
    }

    fn run_cold(&self, rt: &Runtime, kind: ScheduleKind) -> simt::Result<PlannedRun<Vec<u32>>> {
        let run = bfs::bfs_with_model(&rt.spec, &rt.model, self.g, self.src, kind)?;
        Ok(PlannedRun::new(run.depth, run.report, kind))
    }
}

/// How one job's run resolved.
struct Served<T> {
    /// The run, its `cache_hit` set.
    run: PlannedRun<T>,
    /// The storage format it was served from.
    format: FormatKind,
    /// A plan failed (a poisoned cached plan, or a candidate that would
    /// not prepare) and the run fell back to the cold path.
    fell_back: bool,
}

impl Runtime {
    /// A pool of `cfg.devices` copies of `spec` with the standard cost
    /// model and the paper's schedule heuristic.
    pub fn new(spec: GpuSpec, cfg: RuntimeConfig) -> Self {
        Self::with_model(spec, CostModel::standard(), Heuristic::paper(), cfg)
    }

    /// Full control over cost model and heuristic.
    pub fn with_model(
        spec: GpuSpec,
        model: CostModel,
        heuristic: Heuristic,
        cfg: RuntimeConfig,
    ) -> Self {
        assert!(cfg.devices >= 1, "pool needs at least one device");
        assert!(cfg.streams_per_device >= 1, "devices need at least one stream");
        assert!(cfg.queue_depth >= 1, "queue depth must be positive");
        let mut devices = Vec::with_capacity(cfg.devices);
        let mut streams = Vec::with_capacity(cfg.devices);
        for _ in 0..cfg.devices {
            let mut d = DeviceSim::new(spec.clone());
            streams.push((0..cfg.streams_per_device).map(|_| d.create_stream()).collect());
            devices.push(d);
        }
        Self {
            cache: PlanCache::new(cfg.plan_cache_capacity),
            health: vec![DeviceHealth::default(); cfg.devices],
            rng: Prng::seed_from_u64(cfg.retry_seed),
            tuner: Autotuner::new(cfg.tune),
            cfg,
            spec,
            model,
            heuristic,
            devices,
            streams,
            fp_memo: HashMap::new(),
            memo_clock: 0,
            memo_stats: MemoStats::default(),
            operands: HashMap::new(),
            sink: None,
        }
    }

    /// Attach a [`FaultPlan`] to pool device `device`: its dispatches
    /// run under the plan's degraded SMs, stall/kill windows, and
    /// transient launch failures, and the runtime's retry / failover /
    /// eviction machinery handles the fallout. Deterministic: the same
    /// plans and request stream reproduce the same serve bitwise.
    pub fn set_fault_plan(&mut self, device: usize, plan: FaultPlan) {
        self.devices[device].set_fault_plan(plan);
    }

    /// Detach any fault plan from pool device `device` and clear its
    /// health record (a fresh device in the same slot).
    pub fn clear_fault_plan(&mut self, device: usize) {
        self.devices[device].clear_fault_plan();
        self.health[device] = DeviceHealth::default();
    }

    /// The pool's device architecture.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Attach a trace sink: request-lifecycle events (enqueue, batch
    /// join, cache hit/miss, reject, dispatch, complete) and queue/cache
    /// counters flow from the runtime, and every pool device emits its
    /// kernel/block timeline stamped with its pool index. Serving results
    /// are unchanged — instrumentation only observes values the runtime
    /// already computes. (Attached explicitly rather than via
    /// `simt::tracing::scoped` so the solo measurement launches inside
    /// `submit` stay untraced; only their replays onto the shared
    /// timeline appear, which is what actually happens on the device.)
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.set_trace(sink.clone(), i as u32);
        }
        self.sink = Some(sink);
    }

    fn emit(&self, ev: TraceEvent) {
        if let Some(s) = &self.sink {
            s.event(&ev);
        }
    }

    /// Plan-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fingerprint a matrix through the runtime's memo — the exact path
    /// every serve takes. Public so streaming callers can capture a
    /// matrix's fingerprint before mutating it and retire the old state
    /// afterwards (see [`stream`]).
    ///
    /// [`Fingerprint::of`] is O(rows), so the memo keys it by
    /// [`Csr::structure_id`] and popular operands hash their row
    /// structure once. The id is an exact key: clones share it, no
    /// mutation reaches the structure it names, and a rebuilt matrix
    /// gets a new one.
    ///
    /// The memo is bounded at `FP_MEMO_CAP` entries. Overflow evicts
    /// only *cold* entries — those not touched within the last
    /// `FP_MEMO_CAP` lookups — so a mutation-heavy stream that churns
    /// through one-shot matrices cannot wipe the hot working set the
    /// way the old clear-on-full did. The recency horizon is a
    /// `retain` predicate on per-entry counters, never an
    /// iteration-order choice, so eviction is deterministic despite
    /// `HashMap` iteration order varying across processes. If every
    /// entry is hot the memo falls back to a full clear (pure
    /// memoization — the only cost is re-hashing on the next request).
    pub fn fingerprint(&mut self, a: &Csr<f32>) -> Fingerprint {
        self.memo_clock += 1;
        if let Some(entry) = self.fp_memo.get_mut(&a.structure_id()) {
            entry.last_used = self.memo_clock;
            self.memo_stats.hits += 1;
            return entry.fp;
        }
        self.memo_stats.misses += 1;
        let fp = Fingerprint::of(a);
        if self.fp_memo.len() >= FP_MEMO_CAP {
            let horizon = self.memo_clock.saturating_sub(FP_MEMO_CAP as u64);
            let before = self.fp_memo.len();
            self.fp_memo.retain(|_, e| e.last_used > horizon);
            if self.fp_memo.len() >= FP_MEMO_CAP {
                self.fp_memo.clear();
            }
            self.memo_stats.evictions += before - self.fp_memo.len();
        }
        self.fp_memo.insert(
            a.structure_id(),
            MemoEntry {
                fp,
                last_used: self.memo_clock,
            },
        );
        fp
    }

    /// Counters for the fingerprint memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo_stats
    }

    /// Drop every cache entry keyed by `fp`, across all tiers: plan
    /// cache, prepared operands, fingerprint memo, and autotuner sweep
    /// state. Called when a structural mutation changes a matrix's
    /// fingerprint — the old pattern will never be requested again, so
    /// everything keyed by it is dead weight, and the tuner slot in
    /// particular would otherwise leak toward
    /// [`TuneConfig::max_keys`] until tuning shut off for new matrices.
    pub fn retire(&mut self, fp: &Fingerprint) -> RetiredState {
        let plans = self.cache.retire_fingerprint(fp);
        let before_ops = self.operands.len();
        self.operands.retain(|(key_fp, _), _| key_fp != fp);
        let before_memo = self.fp_memo.len();
        self.fp_memo.retain(|_, e| e.fp != *fp);
        RetiredState {
            plans,
            operands: before_ops - self.operands.len(),
            memo_entries: before_memo - self.fp_memo.len(),
            tuner_keys: self.tuner.retire_fingerprint(fp),
        }
    }

    /// The autotuner's lifetime counters (see [`autotune`]).
    pub fn tune_stats(&self) -> TuneStats {
        self.tuner.stats()
    }

    /// The (schedule × format) cell the autotuner promoted for
    /// `(kernel, fingerprint of a)`, if that key's sweep has completed.
    pub fn tuned_candidate(&mut self, kernel: KernelKind, a: &Csr<f32>) -> Option<Candidate> {
        let fp = Fingerprint::of(a);
        self.tuner.winner(&Self::logical_key(kernel, fp))
    }

    /// The logical tuning/lookup key for a kernel over a matrix. Sweep
    /// state is tracked once per (kernel, matrix) under the CSR format
    /// slot — the *candidates* span formats; the winner's prepared plan
    /// is cached under its own format's [`PlanKey`].
    fn logical_key(kernel: KernelKind, fp: Fingerprint) -> PlanKey {
        PlanKey {
            kernel,
            format: FormatKind::Csr,
            fp,
        }
    }

    /// Fetch (or deterministically convert and memoize) `a` prepared in
    /// `format`. The CSR operand converts nothing, so it is built fresh
    /// and never takes an operand-cache slot.
    ///
    /// Fingerprints are deliberately pattern-only
    /// (`value_changes_keep_fingerprint`), but a converted operand
    /// embeds *values* — so a hit is only servable if the source
    /// matrix's value epoch still matches the one the conversion saw.
    /// A mismatched epoch (values mutated through `values_mut()`
    /// between requests, or a same-pattern different-values matrix
    /// colliding on the fingerprint) re-converts and replaces the entry
    /// in place. Pattern-only *plan* reuse is untouched: plans hold
    /// tile geometry, not values, and stay valid across value
    /// mutations.
    fn prepared_operand(
        &mut self,
        fp: Fingerprint,
        a: &Csr<f32>,
        format: FormatKind,
    ) -> simt::Result<Arc<PreparedOperand>> {
        if format == FormatKind::Csr {
            return Ok(Arc::new(PreparedOperand::prepare(a, format)?));
        }
        if let Some(entry) = self.operands.get(&(fp, format)) {
            if entry.epoch == a.value_epoch() {
                return Ok(Arc::clone(&entry.op));
            }
        }
        let op = Arc::new(PreparedOperand::prepare(a, format)?);
        if self.operands.len() >= OPERAND_CACHE_CAP && !self.operands.contains_key(&(fp, format)) {
            self.operands.clear();
        }
        self.operands.insert(
            (fp, format),
            PreparedEntry {
                epoch: a.value_epoch(),
                op: Arc::clone(&op),
            },
        );
        Ok(op)
    }

    fn emit_tune(
        &self,
        kernel: KernelKind,
        candidate: Candidate,
        phase: TunePhase,
        ts_ms: f64,
        cost_ms: f64,
    ) {
        if self.sink.is_some() {
            let (kind, format) = candidate;
            // CSR cells keep the plain schedule label (byte-identical
            // timelines for schedule-only sweeps); format cells tag it.
            let label = if format == FormatKind::Csr {
                kind.to_string()
            } else {
                format!("{kind}@{format}")
            };
            self.emit(TraceEvent::Tune {
                kernel: kernel.base_name(),
                schedule: trace::label::intern(&label),
                phase,
                ts_ms,
                cost_ms,
            });
        }
    }

    /// The planned-serve steps every kernel shares, up to an untuned
    /// miss. The plan is looked up under the tuner's winner format and a
    /// hit runs through it; a cached plan whose launch fails is treated
    /// as poisoned, evicted, and the call falls back to the cold path
    /// rather than failing. A miss goes to the autotuner, which either
    /// explores a candidate on its *planned* (warm) path — so the
    /// recorded cost is exactly the steady-state cost the cache serves
    /// after promotion — or exploits the best-known cell. A candidate
    /// whose plan fails to prepare is served cold and stays unmeasured
    /// (a later miss retries it). `pin` fixes the schedule: hits must
    /// match it and the tuner stays out. `now` stamps tune events.
    /// `None` means an untuned miss, which the caller finishes.
    fn cached_or_tuned<K: ServedKernel>(
        &mut self,
        k: &K,
        fp: Fingerprint,
        pin: Option<ScheduleKind>,
        now: f64,
    ) -> simt::Result<Option<Served<K::Output>>> {
        let logical = Self::logical_key(K::KIND, fp);
        // A promoted non-CSR winner's plan lives under its own format's
        // cache key; with tuning off the winner is always absent, so the
        // lookup is the logical (CSR) one.
        let format = match pin {
            Some(_) => FormatKind::Csr,
            None => self.tuner.winner(&logical).map_or(FormatKind::Csr, |(_, f)| f),
        };
        let key = PlanKey { format, ..logical };
        if let Some(plan) = self.cache.get_if(&key, |p| pin.is_none_or(|s| p.schedule == s)) {
            let served = self
                .prepared_operand(fp, k.matrix(), format)
                .and_then(|op| k.run_planned(self, &plan, &op));
            return match served {
                Ok(mut run) => {
                    run.cache_hit = true;
                    Ok(Some(Served { run, format, fell_back: false }))
                }
                Err(_) => {
                    self.cache.remove(&key);
                    self.fall_back(k, pin).map(Some)
                }
            };
        }
        if pin.is_some() {
            return Ok(None);
        }
        let Some(action) = self
            .tuner
            .choose(logical, || loops::dispatch::candidates(K::KIND, k.matrix()))
        else {
            return Ok(None);
        };
        match action {
            TuneAction::Explore(candidate @ (kind, format)) => {
                let prepared = self.prepared_operand(fp, k.matrix(), format).and_then(|op| {
                    let plan = k.prepare(self, kind, &op)?;
                    Ok((Arc::new(plan), op))
                });
                let Ok((plan, op)) = prepared else {
                    return self.fall_back(k, None).map(Some);
                };
                let run = k.run_planned(self, &plan, &op)?;
                // The recorded cost is the steady-state (warm) cost plus
                // the amortized share of the one-time conversion — CSR's
                // share is zero.
                let cost = run.report.elapsed_ms() + op.convert_ms() / CONVERT_AMORTIZE_SERVES;
                self.emit_tune(K::KIND, candidate, TunePhase::Explore, now, cost);
                if let Some(p) = self.tuner.record(logical, candidate, cost, plan) {
                    self.emit_tune(K::KIND, p.candidate, TunePhase::Promote, now, p.cost_ms);
                    self.cache.insert(PlanKey { format: p.candidate.1, ..logical }, p.plan);
                }
                Ok(Some(Served { run, format, fell_back: false }))
            }
            TuneAction::Exploit {
                candidate: (_, format),
                plan,
                promote,
            } => {
                if promote {
                    // A promoted winner fell out of the LRU cache:
                    // re-install it so the warm path resumes.
                    self.cache.insert(PlanKey { format, ..logical }, Arc::clone(&plan));
                }
                let op = self.prepared_operand(fp, k.matrix(), format)?;
                let run = k.run_planned(self, &plan, &op)?;
                Ok(Some(Served { run, format, fell_back: false }))
            }
        }
    }

    /// Serve `k` cold from CSR under the pinned schedule, or the
    /// heuristic's pick — the fallback when a plan fails.
    fn fall_back<K: ServedKernel>(
        &self,
        k: &K,
        pin: Option<ScheduleKind>,
    ) -> simt::Result<Served<K::Output>> {
        let kind = pin.unwrap_or_else(|| self.heuristic_kind(k.matrix()));
        Ok(Served {
            run: k.run_cold(self, kind)?,
            format: FormatKind::Csr,
            fell_back: true,
        })
    }

    /// The static heuristic's schedule for `a`.
    fn heuristic_kind(&self, a: &Csr<f32>) -> ScheduleKind {
        self.heuristic.select(a.rows(), a.cols(), a.nnz())
    }

    /// A standalone planned serve: [`Self::cached_or_tuned`], with an
    /// untuned miss prepared under the pin or the heuristic, run
    /// through its plan, and cached. Tune events carry `ts_ms = 0`.
    fn serve_planned<K: ServedKernel>(
        &mut self,
        k: &K,
        fp: Fingerprint,
        pin: Option<ScheduleKind>,
    ) -> simt::Result<PlannedRun<K::Output>> {
        if let Some(served) = self.cached_or_tuned(k, fp, pin, 0.0)? {
            return Ok(served.run);
        }
        let kind = pin.unwrap_or_else(|| self.heuristic_kind(k.matrix()));
        let op = self.prepared_operand(fp, k.matrix(), FormatKind::Csr)?;
        let plan = Arc::new(k.prepare(self, kind, &op)?);
        let run = k.run_planned(self, &plan, &op)?;
        self.cache.insert(Self::logical_key(K::KIND, fp), plan);
        Ok(run)
    }

    /// Serve one standalone SpMV through the plan cache with a *pinned*
    /// schedule — the shard crate's per-shard execution primitive. The
    /// first call for a matrix prepares and caches a [`KernelPlan`] for
    /// `kind` under the `("spmv", fingerprint)` key; later calls replay
    /// it, skipping setup. A cached plan whose schedule disagrees with
    /// the pin (the same sub-matrix served through a differently-pinned
    /// path) counts as a miss and is re-prepared rather than silently
    /// un-pinning the caller: sharded merges are bitwise-correct only
    /// under the schedule the split layer chose. Warm and cold runs are
    /// bitwise identical ([`formats::spmv_format_with_plan`]'s contract).
    pub fn run_spmv_pinned(
        &mut self,
        a: &Arc<Csr<f32>>,
        x: &[f32],
        kind: ScheduleKind,
    ) -> simt::Result<PlannedRun<Vec<f32>>> {
        let fp = self.fingerprint(a);
        self.serve_planned(&Spmv { a, x }, fp, Some(kind))
    }

    /// Serve one SpMM through the plan cache. The first call for a
    /// matrix prepares and caches a [`KernelPlan`] under the
    /// `("spmm", fingerprint)` key; later calls replay it — against
    /// *any* dense `B`, since the artifacts depend only on `a`'s
    /// sparsity pattern — skipping schedule selection and the in-kernel
    /// merge-path searches. Output is bitwise identical to the cold
    /// [`kernels::spmm::spmm`] path; a cached plan whose launch fails is
    /// evicted and the call falls back to the cold path.
    pub fn run_spmm(
        &mut self,
        a: &Arc<Csr<f32>>,
        b: &DenseMatrix<f32>,
    ) -> simt::Result<PlannedRun<DenseMatrix<f32>>> {
        let fp = self.fingerprint(a);
        self.serve_planned(&Spmm { a, b }, fp, None)
    }

    /// Serve one BFS through the plan cache. Frontiers change every
    /// level, so there is no reusable partition artifact; what the plan
    /// pins — and the cache amortizes — is the schedule choice for the
    /// graph's adjacency matrix, plus its fingerprinting. Warm and cold
    /// runs are bitwise identical. BFS cost depends on the frontier (and
    /// therefore on `src`), so a tuner sweep measures each candidate on
    /// whichever source its exploration serve carries.
    pub fn run_bfs(&mut self, g: &Arc<Graph>, src: usize) -> simt::Result<PlannedRun<Vec<u32>>> {
        let fp = self.fingerprint(g.adjacency());
        self.serve_planned(&Bfs { g, src }, fp, None)
    }

    /// Serve a request stream to completion. Requests are processed in
    /// arrival order (ties by id); the call is deterministic for a given
    /// runtime state and input — including under
    /// [`RuntimeConfig::host_backend`], which changes host wall-clock
    /// only, never results or the simulated timeline.
    pub fn serve(&mut self, requests: &[Request]) -> simt::Result<ServeResult> {
        match self.cfg.host_backend {
            Some(b) => simt::host::scoped(b, || self.serve_inner(requests)),
            None => self.serve_inner(requests),
        }
    }

    // (The batch-flush macro resets `deadline` on every use; the final
    // flush's reset is intentionally dead.)
    #[allow(unused_assignments)]
    fn serve_inner(&mut self, requests: &[Request]) -> simt::Result<ServeResult> {
        let cache_before = self.cache.stats();
        let tune_before = self.tuner.stats();
        let mut order: Vec<&Request> = requests.iter().collect();
        order.sort_by(|a, b| {
            a.arrival_ms
                .partial_cmp(&b.arrival_ms)
                .expect("arrival times are finite")
                .then(a.id.cmp(&b.id))
        });

        let mut completions: Vec<Completion> = Vec::with_capacity(order.len());
        let mut dropped: Vec<DroppedRequest> = Vec::new();
        let mut in_flight: Vec<f64> = Vec::new(); // job end times
        let mut rejected = 0usize;
        let mut batches = 0usize;
        let mut batched_requests = 0usize;
        let mut ctrs = ServeCounters::default();
        // Pending tiny requests: (request, effective submit time).
        let mut pending: Vec<(&Request, f64)> = Vec::new();
        let mut deadline = f64::INFINITY;

        macro_rules! flush_batch {
            ($at:expr) => {
                if !pending.is_empty() {
                    let at: f64 = $at;
                    let members = std::mem::take(&mut pending);
                    deadline = f64::INFINITY;
                    self.emit(TraceEvent::Counter {
                        counter: CounterKind::BatcherOccupancy,
                        ts_ms: at,
                        value: 0.0,
                    });
                    // Members whose deadline already passed while waiting
                    // for batch-mates are dropped before the launch forms
                    // (a batch can time out whole if every member did).
                    let mut live: Vec<(&Request, f64)> = Vec::with_capacity(members.len());
                    for (r, pt) in members {
                        if at > r.arrival_ms + self.cfg.deadline_ms {
                            ctrs.deadline_missed += 1;
                            dropped.push(DroppedRequest {
                                id: r.id,
                                ts_ms: at,
                                reason: DropReason::DeadlineMissed,
                            });
                            self.emit(TraceEvent::Request {
                                id: r.id,
                                phase: RequestPhase::DeadlineMiss,
                                ts_ms: at,
                            });
                            self.emit(TraceEvent::TenantSample {
                                tenant: r.tenant,
                                ts_ms: at,
                                latency_ms: at - r.arrival_ms,
                                outcome: TenantOutcome::DeadlineMiss,
                            });
                        } else {
                            live.push((r, pt));
                        }
                    }
                    if !live.is_empty() {
                        if live.len() > 1 {
                            batches += 1;
                            batched_requests += live.len();
                        }
                        match self.submit(&live, at, &mut ctrs)? {
                            SubmitOutcome::Done(done) => {
                                in_flight.push(done[0].end_ms);
                                completions.extend(done);
                            }
                            SubmitOutcome::Dropped(reason, ts) => {
                                for (r, _) in &live {
                                    dropped.push(DroppedRequest { id: r.id, ts_ms: ts, reason });
                                }
                            }
                        }
                    }
                }
            };
        }

        for r in order {
            assert_eq!(
                r.x.len(),
                r.matrix.cols(),
                "request {}: x must have one entry per column",
                r.id
            );
            let mut t = r.arrival_ms;
            self.emit(TraceEvent::Request {
                id: r.id,
                phase: RequestPhase::Enqueue,
                ts_ms: r.arrival_ms,
            });
            // A due batch flushes before this arrival is admitted.
            if deadline <= t {
                let at = deadline.max(pending.iter().fold(0.0f64, |m, (_, pt)| m.max(*pt)));
                flush_batch!(at);
            }
            // Admission control against the in-flight window.
            in_flight.retain(|&end| end > t);
            self.emit(TraceEvent::Counter {
                counter: CounterKind::QueueDepth,
                ts_ms: t,
                value: in_flight.len() as f64,
            });
            if in_flight.len() >= self.cfg.queue_depth {
                match self.cfg.policy {
                    QueuePolicy::Reject => {
                        rejected += 1;
                        dropped.push(DroppedRequest {
                            id: r.id,
                            ts_ms: t,
                            reason: DropReason::Rejected,
                        });
                        self.emit(TraceEvent::Request {
                            id: r.id,
                            phase: RequestPhase::Reject,
                            ts_ms: t,
                        });
                        self.emit(TraceEvent::TenantSample {
                            tenant: r.tenant,
                            ts_ms: t,
                            latency_ms: t - r.arrival_ms,
                            outcome: TenantOutcome::Rejected,
                        });
                        continue;
                    }
                    QueuePolicy::Block => {
                        // Wait until enough jobs drain to open a slot.
                        in_flight.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                        while in_flight.len() >= self.cfg.queue_depth {
                            t = t.max(in_flight.remove(0));
                        }
                        in_flight.retain(|&end| end > t);
                    }
                }
            }
            // Deadline check at admission: a blocked queue may already
            // have eaten the request's whole budget.
            if t > r.arrival_ms + self.cfg.deadline_ms {
                ctrs.deadline_missed += 1;
                dropped.push(DroppedRequest {
                    id: r.id,
                    ts_ms: t,
                    reason: DropReason::DeadlineMissed,
                });
                self.emit(TraceEvent::Request {
                    id: r.id,
                    phase: RequestPhase::DeadlineMiss,
                    ts_ms: t,
                });
                self.emit(TraceEvent::TenantSample {
                    tenant: r.tenant,
                    ts_ms: t,
                    latency_ms: t - r.arrival_ms,
                    outcome: TenantOutcome::DeadlineMiss,
                });
                continue;
            }
            let tiny = self.cfg.batch_max > 1 && r.matrix.nnz() <= self.cfg.tiny_nnz;
            if tiny {
                if pending.is_empty() {
                    deadline = t + self.cfg.batch_window_ms;
                }
                self.emit(TraceEvent::Request {
                    id: r.id,
                    phase: RequestPhase::BatchJoin,
                    ts_ms: t,
                });
                pending.push((r, t));
                self.emit(TraceEvent::Counter {
                    counter: CounterKind::BatcherOccupancy,
                    ts_ms: t,
                    value: pending.len() as f64,
                });
                if pending.len() >= self.cfg.batch_max {
                    flush_batch!(t);
                }
            } else {
                match self.submit(&[(r, t)], t, &mut ctrs)? {
                    SubmitOutcome::Done(done) => {
                        in_flight.push(done[0].end_ms);
                        completions.extend(done);
                    }
                    SubmitOutcome::Dropped(reason, ts) => {
                        dropped.push(DroppedRequest { id: r.id, ts_ms: ts, reason });
                    }
                }
            }
        }
        if !pending.is_empty() {
            let at = pending
                .iter()
                .fold(deadline.min(1e300), |m, (_, pt)| m.max(*pt));
            flush_batch!(at);
        }

        // Aggregate.
        let (latency_p50_ms, latency_p99_ms, latency_mean_ms) = latency_stats(&completions);
        let makespan_ms = completions.iter().fold(0.0f64, |m, c| m.max(c.end_ms));
        let cache_after = self.cache.stats();
        let report = RuntimeReport {
            submitted: requests.len(),
            served: completions.len(),
            rejected,
            deadline_missed: ctrs.deadline_missed,
            failed: ctrs.failed,
            retries: ctrs.retries,
            failovers: ctrs.failovers,
            plan_fallbacks: ctrs.plan_fallbacks,
            device_evictions: ctrs.device_evictions,
            batches,
            batched_requests,
            cache: CacheStats {
                hits: cache_after.hits - cache_before.hits,
                misses: cache_after.misses - cache_before.misses,
                evictions: cache_after.evictions - cache_before.evictions,
            },
            tune_explores: self.tuner.stats().explores - tune_before.explores,
            tune_promotes: self.tuner.stats().promotes - tune_before.promotes,
            latency_p50_ms,
            latency_p99_ms,
            latency_mean_ms,
            makespan_ms,
            shard: ShardCounters::default(),
            devices: self
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| DeviceReport {
                    device: i,
                    jobs: d.jobs_done(),
                    sm_occupancy: d.sm_occupancy(),
                    makespan_ms: d.makespan_ms(),
                    faults: d.fault_counters(),
                })
                .collect(),
        };
        debug_assert!(report.reconciles(), "request accounting must balance");
        Ok(ServeResult {
            completions,
            dropped,
            report,
        })
    }

    /// Run one job (solo request or fused batch) and place it on the
    /// earliest-available healthy stream at or after `submit_ms`,
    /// retrying faulted dispatches with exponential backoff and failing
    /// over across devices.
    fn submit(
        &mut self,
        members: &[(&Request, f64)],
        submit_ms: f64,
        ctrs: &mut ServeCounters,
    ) -> simt::Result<SubmitOutcome> {
        // Execute functionally + time solo, via the plan cache for solo
        // requests; fused batches are one-off shapes and bypass it.
        let served = if let [(r, _)] = members {
            let k = Spmv { a: &r.matrix, x: &r.x };
            let fp = self.fingerprint(&r.matrix);
            let served = match self.cached_or_tuned(&k, fp, None, submit_ms)? {
                Some(served) => served,
                // An untuned serve miss runs cold, then prepares the plan
                // for the next request. Plan construction can fail
                // (chaos-injected here; in principle also a real setup
                // failure): the request is still served by the cold run
                // — only the cache misses out.
                None => {
                    let kind = self.heuristic_kind(&r.matrix);
                    let run = k.run_cold(self, kind)?;
                    let chaos =
                        self.cfg.plan_fail_prob > 0.0 && self.rng.chance(self.cfg.plan_fail_prob);
                    let prepared = if chaos {
                        None
                    } else {
                        self.prepared_operand(fp, &r.matrix, FormatKind::Csr)
                            .and_then(|op| k.prepare(self, kind, &op))
                            .ok()
                    };
                    let fell_back = prepared.is_none();
                    if let Some(plan) = prepared {
                        self.cache
                            .insert(Self::logical_key(KernelKind::Spmv, fp), Arc::new(plan));
                    }
                    Served { run, format: FormatKind::Csr, fell_back }
                }
            };
            ctrs.plan_fallbacks += usize::from(served.fell_back);
            self.emit(TraceEvent::Request {
                id: r.id,
                phase: if served.run.cache_hit {
                    RequestPhase::CacheHit
                } else {
                    RequestPhase::CacheMiss
                },
                ts_ms: submit_ms,
            });
            self.emit(TraceEvent::Counter {
                counter: CounterKind::CacheOccupancy,
                ts_ms: submit_ms,
                value: self.cache.len() as f64,
            });
            served
        } else {
            let parts: Vec<&Csr<f32>> = members.iter().map(|(r, _)| r.matrix.as_ref()).collect();
            let fused = batch::block_diag(&parts);
            let xs: Vec<&[f32]> = members.iter().map(|(r, _)| r.x.as_ref()).collect();
            let x = batch::concat_x(&xs);
            let kind = self.heuristic_kind(&fused);
            let run = Spmv { a: &fused, x: &x }.run_cold(self, kind)?;
            Served { run, format: FormatKind::Csr, fell_back: false }
        };
        let run = &served.run;

        // Dispatch with bounded retry + failover. The job's deadline is
        // the strictest member's (batches die whole once it passes —
        // the fused launch cannot be split after the fact).
        let job_deadline = members
            .iter()
            .fold(f64::INFINITY, |m, (r, _)| m.min(r.arrival_ms + self.cfg.deadline_ms));
        let label = trace_label(KernelKind::Spmv, run.schedule);
        let mut when = submit_ms;
        let mut attempt = 0u32;
        let mut first_device: Option<usize> = None;
        let (dev_idx, stream, job) = loop {
            let picked = self.pick_stream(when);
            // The job must *start* by the deadline: check the earliest
            // achievable start across the pool, not just the submit
            // clock — a backed-up pool misses deadlines while idle
            // clocks would not.
            let earliest_start = picked
                .map(|(di, s)| self.devices[di].stream_ready_ms(s).max(when))
                .unwrap_or(when);
            if earliest_start > job_deadline {
                ctrs.deadline_missed += members.len();
                for (r, _) in members {
                    self.emit(TraceEvent::Request {
                        id: r.id,
                        phase: RequestPhase::DeadlineMiss,
                        ts_ms: when,
                    });
                    self.emit(TraceEvent::TenantSample {
                        tenant: r.tenant,
                        ts_ms: when,
                        latency_ms: when - r.arrival_ms,
                        outcome: TenantOutcome::DeadlineMiss,
                    });
                }
                return Ok(SubmitOutcome::Dropped(DropReason::DeadlineMissed, when));
            }
            let Some((dev_idx, stream)) = picked else {
                // No device admits work right now: jump to the earliest
                // cooldown expiry, or give up if the pool is dead.
                match self.earliest_readmission(when) {
                    Some(at) => {
                        when = at;
                        continue;
                    }
                    None => {
                        ctrs.failed += members.len();
                        for (r, _) in members {
                            self.emit(TraceEvent::TenantSample {
                                tenant: r.tenant,
                                ts_ms: when,
                                latency_ms: when - r.arrival_ms,
                                outcome: TenantOutcome::Failed,
                            });
                        }
                        return Ok(SubmitOutcome::Dropped(DropReason::Failed, when));
                    }
                }
            };
            first_device.get_or_insert(dev_idx);
            match self.devices[dev_idx].replay(stream, &run.report, when, label) {
                Ok(job) => {
                    self.health[dev_idx].consecutive_failures = 0;
                    if first_device != Some(dev_idx) {
                        ctrs.failovers += members.len();
                    }
                    break (dev_idx, stream, job);
                }
                Err(e) => {
                    attempt += 1;
                    ctrs.retries += 1;
                    let (SimError::DeviceLost { at_ms, .. } | SimError::TransientLaunch { at_ms, .. }) =
                        e;
                    let h = &mut self.health[dev_idx];
                    if matches!(e, SimError::DeviceLost { .. }) {
                        if !h.dead {
                            h.dead = true;
                            ctrs.device_evictions += 1;
                        }
                    } else {
                        h.consecutive_failures += 1;
                        if h.consecutive_failures >= self.cfg.evict_after {
                            h.evicted_until_ms = at_ms + self.cfg.cooldown_ms;
                            h.consecutive_failures = 0;
                            ctrs.device_evictions += 1;
                        }
                    }
                    for (r, _) in members {
                        self.emit(TraceEvent::Request {
                            id: r.id,
                            phase: RequestPhase::Retry,
                            ts_ms: at_ms,
                        });
                    }
                    if attempt > self.cfg.max_retries {
                        ctrs.failed += members.len();
                        for (r, _) in members {
                            self.emit(TraceEvent::TenantSample {
                                tenant: r.tenant,
                                ts_ms: at_ms,
                                latency_ms: at_ms - r.arrival_ms,
                                outcome: TenantOutcome::Failed,
                            });
                        }
                        return Ok(SubmitOutcome::Dropped(DropReason::Failed, at_ms));
                    }
                    // Exponential backoff with seeded jitter.
                    let backoff = self.cfg.retry_backoff_ms
                        * 2f64.powi(attempt as i32 - 1)
                        * (1.0 + self.cfg.retry_jitter * self.rng.f64());
                    when = when.max(at_ms) + backoff;
                }
            }
        };
        if self.sink.is_some() {
            let batched = members.len() > 1;
            for (r, _) in members {
                self.emit(TraceEvent::Dispatch {
                    id: r.id,
                    device: dev_idx as u32,
                    stream: stream.index(),
                    start_ms: job.start_ms,
                    end_ms: job.end_ms,
                    batched,
                });
                self.emit(TraceEvent::RequestSpan {
                    id: r.id,
                    start_ms: r.arrival_ms.min(job.start_ms),
                    end_ms: job.end_ms,
                    device: dev_idx as u32,
                });
                self.emit(TraceEvent::Request {
                    id: r.id,
                    phase: RequestPhase::Complete,
                    ts_ms: job.end_ms,
                });
                self.emit(TraceEvent::TenantSample {
                    tenant: r.tenant,
                    ts_ms: job.end_ms,
                    latency_ms: job.end_ms - r.arrival_ms,
                    outcome: TenantOutcome::Served,
                });
            }
        }

        Ok(SubmitOutcome::Done(self.complete(members, &served, dev_idx, &job, attempt + 1)))
    }

    /// Earliest-available stream among devices the runtime still
    /// believes healthy; least-loaded device on ties. `None` if every
    /// device is known-dead or cooling down at `submit_ms`.
    ///
    /// Deliberately *not* omniscient about injected kills: a dead device
    /// is discovered by a failed dispatch (which marks
    /// [`DeviceHealth::dead`] and counts an eviction), the way a real
    /// scheduler learns from a lost launch rather than from the fault
    /// injector.
    fn pick_stream(&self, submit_ms: f64) -> Option<(usize, StreamId)> {
        let mut best: Option<(f64, f64, usize, StreamId)> = None;
        for (di, d) in self.devices.iter().enumerate() {
            let h = &self.health[di];
            if h.dead || h.evicted_until_ms > submit_ms {
                continue;
            }
            for &s in &self.streams[di] {
                let start = d.stream_ready_ms(s).max(submit_ms);
                let tie = d.makespan_ms();
                let better = match &best {
                    None => true,
                    Some((bs, bt, _, _)) => {
                        start < *bs - 1e-12 || (start < *bs + 1e-12 && tie < *bt - 1e-12)
                    }
                };
                if better {
                    best = Some((start, tie, di, s));
                }
            }
        }
        best.map(|(_, _, di, s)| (di, s))
    }

    /// The earliest time after `now` at which an evicted (but not dead)
    /// device re-admits work; `None` if the whole pool is permanently
    /// lost.
    fn earliest_readmission(&self, now: f64) -> Option<f64> {
        self.health
            .iter()
            .filter(|h| !h.dead)
            .map(|h| h.evicted_until_ms)
            .filter(|&t| t > now)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }

    fn complete(
        &self,
        members: &[(&Request, f64)],
        served: &Served<Vec<f32>>,
        device: usize,
        job: &simt::JobReport,
        attempts: u32,
    ) -> Vec<Completion> {
        let (run, start_ms, end_ms) = (&served.run, job.start_ms, job.end_ms);
        let batched = members.len() > 1;
        let ys: Vec<Option<Vec<f32>>> = if self.cfg.keep_results {
            let counts: Vec<usize> = members.iter().map(|(r, _)| r.matrix.rows()).collect();
            batch::split_y(&run.output, &counts).into_iter().map(Some).collect()
        } else {
            members.iter().map(|_| None).collect()
        };
        members
            .iter()
            .zip(ys)
            .map(|((r, _), y)| Completion {
                id: r.id,
                arrival_ms: r.arrival_ms,
                start_ms,
                end_ms,
                device,
                batched,
                cache_hit: (!batched).then_some(run.cache_hit),
                schedule: run.schedule,
                format: served.format,
                attempts,
                y,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize, seed: u64) -> Vec<Arc<Csr<f32>>> {
        (0..n)
            .map(|i| {
                Arc::new(sparse::gen::powerlaw(
                    2_000 + 500 * i,
                    2_000 + 500 * i,
                    30_000 + 5_000 * i,
                    1.7,
                    seed + i as u64,
                ))
            })
            .collect()
    }

    /// One request on `a` at t = 0.
    fn solo(a: &Arc<Csr<f32>>) -> Vec<Request> {
        vec![Request {
            id: 0,
            tenant: 0,
            matrix: Arc::clone(a),
            x: Arc::from(sparse::dense::test_vector(a.cols()).into_boxed_slice()),
            arrival_ms: 0.0,
        }]
    }

    fn stream(matrices: &[Arc<Csr<f32>>], n: usize) -> Vec<Request> {
        zipf_workload(
            matrices,
            &WorkloadSpec {
                requests: n,
                zipf_s: 1.1,
                mean_interarrival_ms: 0.02,
                seed: 7,
            },
        )
    }

    #[test]
    fn serves_all_requests_and_caches_plans() {
        let m = corpus(4, 100);
        let reqs = stream(&m, 120);
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 120);
        assert_eq!(out.report.rejected, 0);
        // 4 distinct matrices → 4 misses, everything else hits.
        assert_eq!(out.report.cache.misses, 4);
        assert!(out.report.cache.hit_rate() > 0.9);
        assert!(out.report.latency_p99_ms >= out.report.latency_p50_ms);
        assert!(out.report.makespan_ms > 0.0);
        assert!(out.report.devices[0].sm_occupancy > 0.0);
    }

    #[test]
    fn spmm_warm_path_reuses_one_plan_across_different_b() {
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let a = Arc::new(sparse::gen::powerlaw(2_000, 2_000, 40_000, 1.8, 500));
        let b1 = DenseMatrix::from_fn(2_000, 4, |r, c| ((r + 3 * c) as f32).sin());
        let b2 = DenseMatrix::from_fn(2_000, 4, |r, c| ((2 * r + c) as f32).cos());

        let first = rt.run_spmm(&a, &b1).unwrap();
        assert!(!first.cache_hit);
        let warm = rt.run_spmm(&a, &b1).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(bits(first.output.as_slice()), bits(warm.output.as_slice()));
        assert_eq!(first.schedule, warm.schedule);

        // The cached plan serves a *different* B bitwise-identically to
        // the cold path, and the prepartitioned replay issues less work.
        let other = rt.run_spmm(&a, &b2).unwrap();
        assert!(other.cache_hit);
        let cold =
            spmm::spmm_with_model(rt.spec(), &CostModel::standard(), &a, &b2, other.schedule)
                .unwrap();
        assert_eq!(bits(other.output.as_slice()), bits(cold.c.as_slice()));
        assert!(other.report.timing.total_units < cold.report.timing.total_units);
        assert_eq!(rt.cache_stats().misses, 1);
        assert_eq!(rt.cache_stats().hits, 2);
    }

    #[test]
    fn bfs_warm_path_pins_schedule_and_matches_cold() {
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let g = Arc::new(Graph::from_generator(sparse::gen::powerlaw(
            3_000, 3_000, 50_000, 1.8, 501,
        )));
        let first = rt.run_bfs(&g, 0).unwrap();
        assert!(!first.cache_hit);
        let warm = rt.run_bfs(&g, 0).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(first.output, warm.output);
        assert_eq!(first.schedule, warm.schedule);
        assert_eq!(
            first.report.elapsed_ms().to_bits(),
            warm.report.elapsed_ms().to_bits(),
            "pinned schedule must replay bitwise"
        );
        let cold =
            bfs::bfs_with_model(rt.spec(), &CostModel::standard(), &g, 0, first.schedule).unwrap();
        assert_eq!(cold.depth, first.output);
    }

    #[test]
    fn one_cache_serves_spmv_spmm_and_bfs_side_by_side() {
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let m = corpus(1, 600);
        let reqs = stream(&m, 10);
        rt.serve(&reqs).unwrap();
        let spmv_misses = rt.cache_stats().misses;
        let b = DenseMatrix::from_fn(m[0].cols(), 2, |r, c| (r + c) as f32);
        rt.run_spmm(&m[0], &b).unwrap();
        // Same matrix, different kernel: the SpMV plan must not answer.
        assert_eq!(rt.cache_stats().misses, spmv_misses + 1);
        let warm = rt.run_spmm(&m[0], &b).unwrap();
        assert!(warm.cache_hit);
    }

    #[test]
    fn results_match_reference_under_serving() {
        let m = corpus(3, 200);
        let reqs = stream(&m, 40);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                keep_results: true,
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&reqs).unwrap();
        for c in &out.completions {
            let r = reqs.iter().find(|r| r.id == c.id).unwrap();
            let want = r.matrix.spmv_ref(&r.x);
            let got = c.y.as_ref().expect("keep_results");
            let err = kernels::spmv::max_rel_error(got, &want);
            assert!(err < 2e-3, "request {}: err {err}", c.id);
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let m = corpus(3, 300);
        let reqs = stream(&m, 80);
        let run = |_: u32| {
            let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
            let out = rt.serve(&reqs).unwrap();
            (
                out.report.makespan_ms,
                out.report.latency_p99_ms,
                out.report.cache.hits,
                out.completions.iter().map(|c| c.end_ms).sum::<f64>(),
            )
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn two_devices_outrun_one_under_load() {
        let m = corpus(4, 400);
        // Arrivals far faster than one device's lanes can drain: the
        // makespan is service-bound, so doubling the pool ≈ halves it.
        let reqs = zipf_workload(
            &m,
            &WorkloadSpec {
                requests: 150,
                zipf_s: 1.1,
                mean_interarrival_ms: 0.002,
                seed: 7,
            },
        );
        let serve_with = |devices: usize| {
            let mut rt = Runtime::new(
                GpuSpec::v100(),
                RuntimeConfig {
                    devices,
                    ..RuntimeConfig::default()
                },
            );
            rt.serve(&reqs).unwrap().report
        };
        let one = serve_with(1);
        let two = serve_with(2);
        assert_eq!(one.served, two.served);
        let speedup = two.throughput_rps() / one.throughput_rps();
        assert!(
            speedup >= 1.5,
            "2-device throughput speedup only {speedup:.2}x ({:.0} vs {:.0} req/s)",
            two.throughput_rps(),
            one.throughput_rps()
        );
        // Both devices actually served jobs.
        assert!(two.devices.iter().all(|d| d.jobs > 0));
    }

    #[test]
    fn reject_policy_sheds_load_block_policy_serves_all() {
        let m = corpus(2, 500);
        let reqs = stream(&m, 100);
        let serve_with = |policy: QueuePolicy| {
            let mut rt = Runtime::new(
                GpuSpec::v100(),
                RuntimeConfig {
                    queue_depth: 2,
                    policy,
                    ..RuntimeConfig::default()
                },
            );
            rt.serve(&reqs).unwrap().report
        };
        let rej = serve_with(QueuePolicy::Reject);
        assert!(rej.rejected > 0, "tight queue should shed load");
        assert_eq!(rej.served + rej.rejected, 100);
        let blk = serve_with(QueuePolicy::Block);
        assert_eq!(blk.served, 100);
        assert_eq!(blk.rejected, 0);
        // Blocking converts drops into waiting.
        assert!(blk.latency_p99_ms > rej.latency_p99_ms);
    }

    #[test]
    fn tiny_requests_are_batched_and_still_correct() {
        let tiny: Vec<Arc<Csr<f32>>> = (0..6)
            .map(|i| Arc::new(sparse::gen::uniform(60, 60, 400, 600 + i)))
            .collect();
        let reqs = zipf_workload(
            &tiny,
            &WorkloadSpec {
                requests: 64,
                zipf_s: 0.8,
                mean_interarrival_ms: 0.002,
                seed: 11,
            },
        );
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                keep_results: true,
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 64);
        assert!(out.report.batches > 0, "tiny mix should coalesce");
        assert!(out.report.batched_requests > out.report.batches);
        for c in out.completions.iter().filter(|c| c.batched) {
            let r = reqs.iter().find(|r| r.id == c.id).unwrap();
            let want = r.matrix.spmv_ref(&r.x);
            let err = kernels::spmv::max_rel_error(c.y.as_ref().unwrap(), &want);
            assert!(err < 2e-3, "batched request {}: err {err}", c.id);
        }
    }

    #[test]
    fn batching_beats_serial_tiny_launches_on_makespan() {
        let tiny: Vec<Arc<Csr<f32>>> = (0..4)
            .map(|i| Arc::new(sparse::gen::uniform(50, 50, 300, 700 + i)))
            .collect();
        let reqs = zipf_workload(
            &tiny,
            &WorkloadSpec {
                requests: 48,
                zipf_s: 0.5,
                mean_interarrival_ms: 0.001,
                seed: 13,
            },
        );
        let serve_with = |batch_max: usize| {
            let mut rt = Runtime::new(
                GpuSpec::v100(),
                RuntimeConfig {
                    batch_max,
                    streams_per_device: 1,
                    ..RuntimeConfig::default()
                },
            );
            rt.serve(&reqs).unwrap().report
        };
        let unbatched = serve_with(1);
        let batched = serve_with(8);
        assert_eq!(unbatched.batches, 0);
        assert!(batched.batches > 0);
        assert!(
            batched.makespan_ms < unbatched.makespan_ms,
            "batched {} ms vs unbatched {} ms",
            batched.makespan_ms,
            unbatched.makespan_ms
        );
    }

    #[test]
    fn empty_serve_reports_zeros_without_nan() {
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let out = rt.serve(&[]).unwrap();
        let rep = &out.report;
        assert_eq!(rep.submitted, 0);
        assert_eq!(rep.served, 0);
        assert_eq!(rep.latency_p50_ms, 0.0);
        assert_eq!(rep.latency_p99_ms, 0.0);
        assert_eq!(rep.latency_mean_ms, 0.0);
        assert_eq!(rep.throughput_rps(), 0.0);
        assert!(!rep.latency_mean_ms.is_nan());
        // Display must render the degenerate report cleanly.
        let text = format!("{rep}");
        assert!(text.contains("served 0/0"));
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn single_request_percentiles_collapse() {
        let m = corpus(1, 900);
        let reqs = solo(&m[0]);
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let out = rt.serve(&reqs).unwrap();
        let rep = &out.report;
        assert_eq!(rep.served, 1);
        assert_eq!(rep.latency_p50_ms, rep.latency_p99_ms);
        assert_eq!(rep.latency_p50_ms, rep.latency_mean_ms);
        assert!(rep.latency_p50_ms > 0.0);
    }

    #[test]
    fn all_rejected_report_displays_cleanly() {
        // A fully-rejected serve can't happen (the first request is always
        // admitted), so exercise Display on a constructed report plus a
        // heavy-rejection real serve.
        let rep = RuntimeReport {
            submitted: 5,
            served: 0,
            rejected: 5,
            deadline_missed: 0,
            failed: 0,
            retries: 0,
            failovers: 0,
            plan_fallbacks: 0,
            device_evictions: 0,
            batches: 0,
            batched_requests: 0,
            cache: CacheStats::default(),
            tune_explores: 0,
            tune_promotes: 0,
            latency_p50_ms: 0.0,
            latency_p99_ms: 0.0,
            latency_mean_ms: 0.0,
            makespan_ms: 0.0,
            shard: ShardCounters::default(),
            devices: vec![],
        };
        assert_eq!(rep.throughput_rps(), 0.0);
        let text = format!("{rep}");
        assert!(text.contains("served 0/5 requests (5 rejected)"));
        assert!(!text.contains("NaN"));
        assert!(!text.contains("sharding:"), "default shard counters are inactive");

        let m = corpus(1, 950);
        let reqs = stream(&m, 50);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                queue_depth: 1,
                policy: QueuePolicy::Reject,
                batch_max: 1,
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&reqs).unwrap();
        assert!(out.report.rejected > 0);
        let text = format!("{}", out.report);
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn full_report_reconciles_and_displays_every_counter() {
        // Every counter nonzero, mutually consistent: 16 submissions =
        // 10 served + 3 rejected + 2 deadline-missed + 1 failed; 14
        // routed + 2 global sheds = 16; 2 fused launches covering 5.
        let rep = RuntimeReport {
            submitted: 16,
            served: 10,
            rejected: 3,
            deadline_missed: 2,
            failed: 1,
            retries: 4,
            failovers: 2,
            plan_fallbacks: 1,
            device_evictions: 1,
            batches: 2,
            batched_requests: 5,
            cache: CacheStats {
                hits: 7,
                misses: 9,
                evictions: 1,
            },
            tune_explores: 3,
            tune_promotes: 1,
            latency_p50_ms: 0.5,
            latency_p99_ms: 2.5,
            latency_mean_ms: 0.75,
            makespan_ms: 12.0,
            shard: ShardCounters {
                routed: 14,
                halo_bytes: 4096,
                merges: 6,
                shard_rejects: 2,
            },
            devices: vec![DeviceReport {
                device: 0,
                jobs: 10,
                sm_occupancy: 0.5,
                makespan_ms: 12.0,
                faults: simt::FaultCounters {
                    transient_launch_failures: 3,
                    stalled_dispatches: 2,
                    lost_dispatches: 1,
                    degraded_sms: 4,
                },
            }],
        };
        assert!(rep.reconciles());
        let text = format!("{rep}");
        // Every counter's value and label surface in the Display output.
        for needle in [
            "served 10/16 requests (3 rejected)",
            "7 hits / 9 misses",
            "1 evictions",
            "p50 0.5",
            "p99 2.5",
            "mean 0.75",
            "2 fused launches covering 5 requests",
            "3 exploration serves, 1 promotions",
            "14 routed, 6 merges, 4096 halo bytes, 2 global rejects",
            "4 retries, 2 failovers, 2 deadline-missed, 1 failed",
            "1 plan fallbacks, 1 device evictions",
            "device 0: 10 jobs",
            "3 transient, 2 stalled, 1 lost, 4 degraded SMs",
        ] {
            assert!(text.contains(needle), "Display missing {needle:?}:\n{text}");
        }

        // Each accounting identity is load-bearing: breaking any one
        // breaks reconciliation.
        let mut bad = rep.clone();
        bad.served += 1;
        assert!(!bad.reconciles(), "submission identity");
        let mut bad = rep.clone();
        bad.shard.routed -= 1;
        assert!(!bad.reconciles(), "routing identity");
        let mut bad = rep.clone();
        bad.shard.shard_rejects = 4;
        assert!(!bad.reconciles(), "shed subset identity");
        let mut bad = rep.clone();
        bad.batched_requests = 0;
        assert!(!bad.reconciles(), "batching identity");
        let mut bad = rep;
        bad.batches = 3;
        assert!(!bad.reconciles(), "batch-coverage identity");
    }

    #[test]
    fn traced_serve_matches_untraced_and_covers_lifecycle() {
        let m = corpus(3, 1000);
        let reqs = stream(&m, 60);
        let run = |sink: Option<Arc<trace::Recorder>>| {
            let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
            if let Some(s) = &sink {
                rt.set_trace_sink(s.clone());
            }
            let out = rt.serve(&reqs).unwrap();
            (
                out.report.makespan_ms,
                out.report.latency_p99_ms,
                out.report.cache.hits,
                out.completions
                    .iter()
                    .map(|c| (c.id, c.start_ms, c.end_ms, c.device))
                    .collect::<Vec<_>>(),
            )
        };
        let rec = Arc::new(trace::Recorder::new());
        assert_eq!(run(None), run(Some(rec.clone())), "tracing must not perturb serving");

        let data = rec.snapshot();
        let phase_count = |p: RequestPhase| {
            data.events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Request { phase, .. } if *phase == p))
                .count()
        };
        assert_eq!(phase_count(RequestPhase::Enqueue), 60);
        assert_eq!(phase_count(RequestPhase::Complete), 60);
        assert_eq!(
            phase_count(RequestPhase::CacheHit) + phase_count(RequestPhase::CacheMiss),
            data.events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Dispatch { batched: false, .. }))
                .count()
        );
        // Every dispatch sits inside its request's span.
        for ev in &data.events {
            if let TraceEvent::Dispatch { id, start_ms, end_ms, .. } = ev {
                let span = data
                    .events
                    .iter()
                    .find_map(|e| match e {
                        TraceEvent::RequestSpan { id: sid, start_ms, end_ms, .. }
                            if sid == id =>
                        {
                            Some((*start_ms, *end_ms))
                        }
                        _ => None,
                    })
                    .expect("dispatch has a request span");
                assert!(*start_ms >= span.0 - 1e-12 && *end_ms <= span.1 + 1e-12);
            }
        }
        // Device kernels were traced through DeviceSim::replay with schedule names.
        assert!(data
            .kernels()
            .all(|k| matches!(k, TraceEvent::Kernel { name, .. } if name.starts_with("spmv/"))));
        assert!(data.kernels().count() > 0);
        // Counters flowed.
        assert!(data
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { counter: CounterKind::QueueDepth, .. })));
        assert!(data.events.iter().any(
            |e| matches!(e, TraceEvent::Counter { counter: CounterKind::CacheOccupancy, .. })
        ));
    }

    #[test]
    fn cache_capacity_evicts_and_remisses() {
        let m = corpus(3, 800);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                plan_cache_capacity: 1,
                batch_max: 1,
                ..RuntimeConfig::default()
            },
        );
        // Round-robin through 3 matrices: every access under capacity 1
        // misses after the first eviction.
        let reqs: Vec<Request> = (0..9)
            .map(|i| Request {
                id: i,
                tenant: (i % 3) as u32,
                matrix: Arc::clone(&m[(i % 3) as usize]),
                x: Arc::from(
                    sparse::dense::test_vector(m[(i % 3) as usize].cols()).into_boxed_slice(),
                ),
                arrival_ms: i as f64,
            })
            .collect();
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.cache.hits, 0);
        assert_eq!(out.report.cache.misses, 9);
        assert!(out.report.cache.evictions >= 6);
    }

    // ---- resilience ----------------------------------------------------

    fn resilient_cfg() -> RuntimeConfig {
        RuntimeConfig {
            devices: 2,
            keep_results: true,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn healthy_fault_plans_are_bitwise_transparent_to_serving() {
        let m = corpus(3, 300);
        let reqs = stream(&m, 80);
        let serve = |plans: bool| {
            let mut rt = Runtime::new(GpuSpec::v100(), resilient_cfg());
            if plans {
                for d in 0..2 {
                    rt.set_fault_plan(d, FaultPlan::healthy(99));
                }
            }
            rt.serve(&reqs).unwrap()
        };
        let base = serve(false);
        let faulted = serve(true);
        assert_eq!(base.report, faulted.report);
        for (a, b) in base.completions.iter().zip(&faulted.completions) {
            assert_eq!(a.y, b.y, "healthy plans must not perturb results");
            assert_eq!(a.end_ms.to_bits(), b.end_ms.to_bits());
        }
    }

    #[test]
    fn flaky_launches_retry_and_still_serve_everything() {
        let m = corpus(3, 310);
        let reqs = stream(&m, 60);
        let mut rt = Runtime::new(GpuSpec::v100(), resilient_cfg());
        rt.set_fault_plan(0, FaultPlan::healthy(5).with_flaky_launches(0.3));
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 60);
        assert_eq!(out.report.failed, 0);
        assert!(out.report.retries > 0, "30% flaky launches must trigger retries");
        assert!(out.report.reconciles());
        assert!(out.completions.iter().any(|c| c.attempts > 1));
        assert!(out.report.devices[0].faults.transient_launch_failures > 0);
    }

    #[test]
    fn killed_device_fails_over_without_losing_requests() {
        let m = corpus(3, 320);
        let reqs = stream(&m, 60);
        let mut rt = Runtime::new(GpuSpec::v100(), resilient_cfg());
        rt.set_fault_plan(0, FaultPlan::healthy(6).with_kill_at(0.3));
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 60, "survivor absorbs all work");
        assert_eq!(out.report.failed + out.report.rejected, 0);
        assert!(out.report.device_evictions >= 1);
        assert!(out.report.reconciles());
        // No duplicated or lost ids.
        let mut ids: Vec<u64> = out.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60);
        // Work lands only on the survivor after the kill tick.
        for c in &out.completions {
            if c.start_ms >= 0.3 {
                assert_eq!(c.device, 1, "dead device must not be scheduled");
            }
        }
    }

    #[test]
    fn whole_pool_dead_fails_requests_but_reconciles() {
        let m = corpus(1, 330);
        let reqs = stream(&m, 10);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                devices: 1,
                ..RuntimeConfig::default()
            },
        );
        rt.set_fault_plan(0, FaultPlan::healthy(7).with_kill_at(0.0));
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 0);
        assert_eq!(out.report.failed, 10);
        assert!(out.report.reconciles());
        assert_eq!(out.dropped.len(), 10);
        assert!(out
            .dropped
            .iter()
            .all(|d| d.reason == DropReason::Failed));
    }

    #[test]
    fn tight_deadlines_shed_late_requests() {
        // A burst: every request arrives at t=0, so streams back up and
        // late dispatches cannot start inside the deadline.
        let m = corpus(2, 340);
        let reqs: Vec<Request> = (0..80)
            .map(|i| Request {
                id: i,
                tenant: (i % 2) as u32,
                matrix: Arc::clone(&m[(i % 2) as usize]),
                x: Arc::from(
                    sparse::dense::test_vector(m[(i % 2) as usize].cols()).into_boxed_slice(),
                ),
                arrival_ms: 0.0,
            })
            .collect();
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                deadline_ms: 0.05,
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&reqs).unwrap();
        assert!(out.report.deadline_missed > 0, "0.05 ms deadline must shed load");
        assert!(out.report.served > 0, "early requests still make it");
        assert!(out.report.reconciles());
        assert_eq!(
            out.dropped
                .iter()
                .filter(|d| d.reason == DropReason::DeadlineMissed)
                .count(),
            out.report.deadline_missed
        );
    }

    #[test]
    fn plan_failures_degrade_to_heuristic_path() {
        let m = corpus(3, 350);
        let reqs = stream(&m, 30);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                plan_fail_prob: 1.0,
                batch_max: 1,
                keep_results: true,
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(out.report.served, 30, "plan failures must not fail requests");
        assert_eq!(out.report.plan_fallbacks, 30, "every prepare was chaos-failed");
        assert_eq!(out.report.cache.hits, 0, "nothing ever cached");
        assert!(out.report.reconciles());
    }

    #[test]
    fn chaos_serving_is_seed_deterministic() {
        let m = corpus(3, 360);
        let reqs = stream(&m, 60);
        let run = || {
            let mut rt = Runtime::new(
                GpuSpec::v100(),
                RuntimeConfig {
                    deadline_ms: 2.0,
                    ..resilient_cfg()
                },
            );
            rt.set_fault_plan(0, FaultPlan::healthy(11).with_flaky_launches(0.25));
            rt.set_fault_plan(
                1,
                FaultPlan::healthy(12)
                    .with_degraded_sms(0.2, 0.4, 0.8)
                    .with_stall(0.5, 0.2),
            );
            rt.serve(&reqs).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.attempts, y.attempts);
            assert_eq!(x.end_ms.to_bits(), y.end_ms.to_bits());
            assert_eq!(x.y, y.y, "identical seeds must give identical results");
        }
        assert!(a.report.reconciles());
    }

    #[test]
    fn fp_memo_keys_by_structure_id() {
        // Two matrices get their own fingerprints, and a clone shares its
        // source's structure id, so it is a memo hit.
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let a = sparse::gen::uniform(500, 500, 5_000, 1);
        let b = sparse::gen::powerlaw(700, 700, 9_000, 1.8, 2);
        let fa = rt.fingerprint(&a);
        let fb = rt.fingerprint(&b);
        assert_eq!(fa, Fingerprint::of(&a));
        assert_eq!(fb, Fingerprint::of(&b));
        assert_ne!(fa, fb);
        assert_eq!(rt.memo_stats().misses, 2);
        assert_eq!(rt.fingerprint(&b.clone()), fb);
        assert_eq!(rt.memo_stats().hits, 1);
        assert_eq!(rt.memo_stats().stamp_mismatches, 0);
    }

    #[test]
    fn fp_memo_survives_real_allocator_reuse() {
        // Drop each Arc before allocating the next so the allocator is
        // free to hand out the same block. Whether or not reuse happens
        // on this allocator, every memo answer must match the matrix
        // actually presented.
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        for i in 0..64u64 {
            let m = Arc::new(sparse::gen::uniform(
                400 + i as usize,
                400,
                4_000 + 13 * i as usize,
                i,
            ));
            let fp = rt.fingerprint(&m);
            assert_eq!(fp, Fingerprint::of(&m));
        }
    }

    #[test]
    fn fp_memo_is_bounded() {
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        for _ in 0..(FP_MEMO_CAP * 2 + 3) {
            rt.fingerprint(&Csr::<f32>::empty(4, 4));
        }
        assert!(rt.fp_memo.len() <= FP_MEMO_CAP);
    }

    #[test]
    fn tuning_disabled_by_default_stays_idle() {
        let m = corpus(2, 11);
        let reqs = stream(&m, 60);
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let out = rt.serve(&reqs).unwrap();
        assert_eq!(rt.tune_stats(), TuneStats::default());
        assert_eq!(out.report.tune_explores, 0);
        assert_eq!(out.report.tune_promotes, 0);
        assert!(!format!("{}", out.report).contains("autotune:"));
    }

    #[test]
    fn tuned_serve_explores_then_promotes_and_goes_warm() {
        let m = corpus(1, 21);
        let mut rt = Runtime::new(
            GpuSpec::v100(),
            RuntimeConfig {
                tune: TuneConfig {
                    enabled: true,
                    ..TuneConfig::default()
                },
                ..RuntimeConfig::default()
            },
        );
        let out = rt.serve(&stream(&m, 200)).unwrap();
        assert!(out.report.reconciles());
        let stats = rt.tune_stats();
        assert!(
            stats.explores >= 2,
            "sweep should issue exploration serves, got {stats:?}"
        );
        assert_eq!(stats.promotes, 1, "single-matrix corpus promotes once");
        assert_eq!(out.report.tune_promotes, 1);
        assert!(format!("{}", out.report).contains("autotune:"));
        let winner = rt
            .tuned_candidate(KernelKind::Spmv, &m[0])
            .expect("sweep completed");

        // Post-promotion serves are warm cache hits under the winner.
        let again = rt.serve(&stream(&m, 40)).unwrap();
        assert_eq!(again.report.tune_explores, 0);
        assert_eq!(again.report.cache.misses, 0);
        for c in &again.completions {
            assert_eq!(c.schedule, winner.0);
            assert_eq!(c.format, winner.1);
            assert_eq!(c.cache_hit, Some(true));
        }
    }

    #[test]
    fn pinned_schedule_mismatch_counts_as_a_miss() {
        // A cached plan under another schedule cannot serve the pin, so
        // the lookup counts a miss, not a hit.
        let mut rt = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
        let a = Arc::clone(&corpus(1, 1_100)[0]);
        let x = sparse::dense::test_vector(a.cols());
        let first = rt.run_spmv_pinned(&a, &x, ScheduleKind::ThreadMapped).unwrap();
        let second = rt.run_spmv_pinned(&a, &x, ScheduleKind::WorkQueue(8)).unwrap();
        assert!(!first.cache_hit && !second.cache_hit);
        let stats = rt.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        // The re-prepared plan replaced the old one and serves warm.
        let warm = rt.run_spmv_pinned(&a, &x, ScheduleKind::WorkQueue(8)).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.output, second.output);
    }

    /// ε = 1 finishes every sweep first; one tuned key and a one-plan
    /// cache let a second, untuned matrix evict the first's winner.
    fn reinstall_cfg() -> RuntimeConfig {
        RuntimeConfig {
            plan_cache_capacity: 1,
            keep_results: true,
            tune: TuneConfig {
                enabled: true,
                epsilon: 1.0,
                max_keys: 1,
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        }
    }

    /// Drive `first`'s sweep to promotion and check the next call hits,
    /// evict the winner by serving `other`, and return the call that
    /// re-installs it (a miss) and the warm hit after it.
    fn reinstall_after_eviction<T, U>(
        rt: &mut Runtime,
        mut first: impl FnMut(&mut Runtime) -> T,
        other: impl FnOnce(&mut Runtime) -> U,
    ) -> (T, T) {
        for _ in 0..32 {
            if rt.tune_stats().promotes == 1 {
                break;
            }
            first(rt);
        }
        assert_eq!(rt.tune_stats().promotes, 1, "sweep should finish");
        let explores = rt.tune_stats().explores;
        let hits = rt.cache_stats().hits;
        first(rt);
        assert_eq!(rt.cache_stats().hits, hits + 1, "promotion installs the winner");
        other(rt);
        assert_eq!(rt.cache_stats().evictions, 1, "the untuned plan evicts the winner");
        let before = rt.cache_stats();
        let reinstalled = first(rt);
        let mid = rt.cache_stats();
        assert_eq!((mid.hits, mid.misses), (before.hits, before.misses + 1));
        let warm = first(rt);
        let after = rt.cache_stats();
        assert_eq!((after.hits, after.misses), (mid.hits + 1, mid.misses));
        assert_eq!(rt.tune_stats().explores, explores, "re-installing explores nothing");
        (reinstalled, warm)
    }

    #[test]
    fn serve_reinstalls_an_evicted_spmv_winner() {
        let m = corpus(2, 1_200);
        let mut rt = Runtime::new(GpuSpec::v100(), reinstall_cfg());
        let (reinstalled, warm) = reinstall_after_eviction(
            &mut rt,
            |rt| rt.serve(&solo(&m[0])).unwrap().completions.remove(0),
            |rt| rt.serve(&solo(&m[1])).unwrap(),
        );
        let (kind, format) = rt.tuned_candidate(KernelKind::Spmv, &m[0]).unwrap();
        let op = PreparedOperand::prepare(&m[0], format).unwrap();
        let x = sparse::dense::test_vector(m[0].cols());
        let model = CostModel::standard();
        let plain =
            formats::spmv_format(rt.spec(), &model, &m[0], &op, &x, kind, DEFAULT_BLOCK).unwrap();
        assert_eq!(reinstalled.cache_hit, Some(false));
        assert_eq!(warm.cache_hit, Some(true));
        for c in [&reinstalled, &warm] {
            assert_eq!((c.schedule, c.format), (plain.schedule, format));
            let y = c.y.as_ref().unwrap();
            assert_eq!(bits(y), bits(&plain.y));
        }
    }

    #[test]
    fn tuned_spmm_promotes_and_reinstalls_an_evicted_winner() {
        let a = Arc::new(sparse::gen::powerlaw(1_500, 1_500, 20_000, 1.8, 5));
        let other = Arc::new(sparse::gen::powerlaw(1_200, 1_500, 15_000, 1.8, 6));
        let b = DenseMatrix::from_fn(1_500, 4, |r, c| ((r + 2 * c) as f32).sin());
        let mut rt = Runtime::new(GpuSpec::v100(), reinstall_cfg());
        let (reinstalled, warm) = reinstall_after_eviction(
            &mut rt,
            |rt| rt.run_spmm(&a, &b).unwrap(),
            |rt| rt.run_spmm(&other, &b).unwrap(),
        );
        let (kind, format) = rt.tuned_candidate(KernelKind::Spmm, &a).unwrap();
        let op = PreparedOperand::prepare(&a, format).unwrap();
        let plain =
            formats::spmm_format(rt.spec(), &CostModel::standard(), &a, &op, &b, kind).unwrap();
        assert!(!reinstalled.cache_hit && warm.cache_hit);
        for run in [&reinstalled, &warm] {
            assert_eq!(run.schedule, plain.schedule);
            assert_eq!(bits(run.output.as_slice()), bits(plain.c.as_slice()));
        }
    }

    #[test]
    fn tuned_bfs_promotes_and_reinstalls_an_evicted_winner() {
        let g = Arc::new(Graph::from_generator(sparse::gen::powerlaw(
            3_000, 3_000, 50_000, 1.8, 501,
        )));
        let other = Arc::new(Graph::from_generator(sparse::gen::powerlaw(
            2_000, 2_000, 30_000, 1.8, 502,
        )));
        let mut rt = Runtime::new(GpuSpec::v100(), reinstall_cfg());
        let (reinstalled, warm) = reinstall_after_eviction(
            &mut rt,
            |rt| rt.run_bfs(&g, 0).unwrap(),
            |rt| rt.run_bfs(&other, 0).unwrap(),
        );
        let (kind, format) = rt.tuned_candidate(KernelKind::Bfs, g.adjacency()).unwrap();
        assert_eq!(format, FormatKind::Csr, "frontier kernels are CSR-only");
        let plain = bfs::bfs_with_model(rt.spec(), &CostModel::standard(), &g, 0, kind).unwrap();
        assert!(!reinstalled.cache_hit && warm.cache_hit);
        for run in [&reinstalled, &warm] {
            assert_eq!(run.schedule, kind);
            assert_eq!(run.output, plain.depth);
            assert_eq!(run.report.elapsed_ms().to_bits(), plain.report.elapsed_ms().to_bits());
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }
}
