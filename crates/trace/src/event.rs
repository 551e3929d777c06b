//! The event taxonomy: everything the simulator and the serving runtime
//! can tell an observer about one run.
//!
//! Events are small `Copy` values (kernel names are `&'static str`) so
//! emitting one is a couple of stores — no allocation on the
//! instrumented path. Each event carries *simulated* milliseconds; the
//! Chrome exporter converts to microseconds at export time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique identifier of one kernel launch, used to correlate
/// [`TraceEvent::Block`]/[`TraceEvent::Warp`] records with their
/// [`TraceEvent::Kernel`] span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u64);

static NEXT_KERNEL: AtomicU64 = AtomicU64::new(1);

impl KernelId {
    /// Allocate the next process-unique id.
    pub fn next() -> Self {
        Self(NEXT_KERNEL.fetch_add(1, Ordering::Relaxed))
    }
}

/// Lifecycle milestones of one serving-runtime request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPhase {
    /// The request arrived at the runtime.
    Enqueue,
    /// The request joined a pending tiny-request batch.
    BatchJoin,
    /// Its matrix's plan was found in the plan cache.
    CacheHit,
    /// Its matrix's plan had to be prepared (and was inserted).
    CacheMiss,
    /// Admission control dropped the request.
    Reject,
    /// A dispatch attempt failed and the request is being retried.
    Retry,
    /// The request was dropped because it could not start before its
    /// deadline.
    DeadlineMiss,
    /// The request's job completed on a device.
    Complete,
}

impl RequestPhase {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Enqueue => "enqueue",
            Self::BatchJoin => "batch_join",
            Self::CacheHit => "cache_hit",
            Self::CacheMiss => "cache_miss",
            Self::Reject => "reject",
            Self::Retry => "retry",
            Self::DeadlineMiss => "deadline_miss",
            Self::Complete => "complete",
        }
    }
}

/// Kinds of injected hardware faults (see `simt::fault::FaultPlan`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An SM runs at a reduced throughput multiplier for the whole run.
    SmDegraded,
    /// The device refused new work during a stall window; the dispatch
    /// was pushed past the window's end.
    Stall,
    /// The device died; the dispatch (and any job that would still be
    /// running) was lost.
    DeviceLost,
    /// A kernel launch failed transiently; a retry may succeed.
    TransientLaunch,
}

impl FaultKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::SmDegraded => "sm_degraded",
            Self::Stall => "stall",
            Self::DeviceLost => "device_lost",
            Self::TransientLaunch => "transient_launch",
        }
    }
}

/// Autotuner milestones (see the serving runtime's `autotune` module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunePhase {
    /// A request was served under an unmeasured candidate schedule to
    /// learn its cost.
    Explore,
    /// The candidate sweep finished and the winner's plan was promoted
    /// into the plan cache.
    Promote,
}

impl TunePhase {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Explore => "tune_explore",
            Self::Promote => "tune_promote",
        }
    }
}

/// Milestones of one sharded-serving operation (see the `shard` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Global admission passed a request, labelled with its tenant's
    /// home shard on the consistent-hash ring.
    Route,
    /// Ghost entries of the input vector were fetched from peer shards
    /// before a split execution.
    HaloExchange,
    /// Per-shard partial results were concatenated into the global
    /// result.
    Merge,
    /// Global admission dropped the request before routing.
    Reject,
}

impl ShardPhase {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Route => "shard_route",
            Self::HaloExchange => "halo_exchange",
            Self::Merge => "shard_merge",
            Self::Reject => "shard_reject",
        }
    }
}

/// Named time-series counters sampled by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Jobs in the bounded in-flight window.
    QueueDepth,
    /// Live entries in the plan cache.
    CacheOccupancy,
    /// Tiny requests parked in the pending batch.
    BatcherOccupancy,
}

impl CounterKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::QueueDepth => "queue_depth",
            Self::CacheOccupancy => "cache_occupancy",
            Self::BatcherOccupancy => "batcher_occupancy",
        }
    }
}

/// Terminal outcomes of one request, as charged to its tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantOutcome {
    /// The request completed on a device.
    Served,
    /// Admission control dropped it.
    Rejected,
    /// It could not start before its deadline.
    DeadlineMiss,
    /// Every dispatch attempt failed.
    Failed,
}

impl TenantOutcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Served => "served",
            Self::Rejected => "rejected",
            Self::DeadlineMiss => "deadline_miss",
            Self::Failed => "failed",
        }
    }
}

/// One structured trace record.
///
/// Span events carry `[start_ms, end_ms]` on the simulated clock;
/// instants carry a single `ts_ms`. The producer decides the clock's
/// origin: solo launches start at 0, device-timeline events are
/// absolute, runtime events use the serving clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// One kernel launch resolved on a device timeline.
    Kernel {
        /// Correlation id for this launch's block/warp records.
        id: KernelId,
        /// Human-readable kernel label.
        name: &'static str,
        /// Device (pool index; 0 for solo launches).
        device: u32,
        /// Stream the launch ran on (0 for solo launches).
        stream: u32,
        /// Launch start on the simulated clock.
        start_ms: f64,
        /// Launch end (includes memory roofline and launch overhead).
        end_ms: f64,
        /// Blocks launched.
        grid_dim: u32,
        /// Threads per block.
        block_dim: u32,
    },
    /// One block's residency on one SM.
    Block {
        /// Owning kernel launch.
        kernel: KernelId,
        /// Device the SM belongs to.
        device: u32,
        /// Block index within the grid.
        block: u32,
        /// SM the dispatcher placed it on.
        sm: u32,
        /// Dispatch time.
        start_ms: f64,
        /// Drain time of the block's queued issue work.
        end_ms: f64,
    },
    /// Per-warp cost statistics of one executed block (aggregated into
    /// histograms by the recorder rather than buffered individually).
    Warp {
        /// Owning kernel launch.
        kernel: KernelId,
        /// Block index within the grid.
        block: u32,
        /// Warp index within the block.
        warp: u32,
        /// Work units charged to the warp (its lockstep maximum).
        units: f64,
        /// Idle-lane equivalents: the lanes of the device's warp width,
        /// each weighted by the share of `units` it spent waiting on the
        /// warp's slowest lane. `0.0` means every lane ran the warp's
        /// full cost; one busy lane beside 31 lanes that charge nothing
        /// books 31.
        idle_lanes: f64,
    },
    /// A request lifecycle milestone.
    Request {
        /// Request id.
        id: u64,
        /// Which milestone.
        phase: RequestPhase,
        /// When it happened on the serving clock.
        ts_ms: f64,
    },
    /// A request's whole lifetime: arrival to completion.
    RequestSpan {
        /// Request id.
        id: u64,
        /// Arrival time.
        start_ms: f64,
        /// Completion time.
        end_ms: f64,
        /// Device that served it.
        device: u32,
    },
    /// A request's device dispatch: job start to job end.
    Dispatch {
        /// Request id.
        id: u64,
        /// Device that ran the job.
        device: u32,
        /// Stream the job ran on.
        stream: u32,
        /// Job start on the device timeline.
        start_ms: f64,
        /// Job end.
        end_ms: f64,
        /// True if the job was a fused batch launch.
        batched: bool,
    },
    /// One sample of a named counter.
    Counter {
        /// Which counter.
        counter: CounterKind,
        /// Sample time.
        ts_ms: f64,
        /// Sample value.
        value: f64,
    },
    /// An autotuner milestone: one exploration serve or one promotion.
    Tune {
        /// Kernel whose schedule space is being tuned (interned label,
        /// e.g. `"spmv"`).
        kernel: &'static str,
        /// The candidate schedule involved (interned `ScheduleKind`
        /// display form, e.g. `"group-mapped(16)"`).
        schedule: &'static str,
        /// Exploration or promotion.
        phase: TunePhase,
        /// When it happened on the producer's clock (serving clock for
        /// runtime serves; 0 for standalone runs).
        ts_ms: f64,
        /// The measured simulated cost in milliseconds: the explored
        /// serve's elapsed time, or the winner's best-known cost at
        /// promotion.
        cost_ms: f64,
    },
    /// A sharded-serving milestone on one shard.
    Shard {
        /// Shard index within the group (the home shard for `Route`,
        /// `Reject` and `Merge`, the bounding shard for `HaloExchange`).
        shard: u32,
        /// Which milestone.
        phase: ShardPhase,
        /// When it happened on the group's serving clock.
        ts_ms: f64,
        /// Phase-specific payload: the request id for `Route`/`Reject`,
        /// the ghost bytes moved for `HaloExchange`, and the merged
        /// result bytes for `Merge`.
        value: f64,
    },
    /// One request's terminal outcome, charged to its tenant — the
    /// sample the telemetry layer folds into per-tenant latency
    /// histograms and deadline-miss budgets.
    TenantSample {
        /// Tenant the request belonged to.
        tenant: u32,
        /// When the outcome was decided on the serving clock.
        ts_ms: f64,
        /// Arrival-to-completion latency for `Served`; time spent
        /// waiting before the drop for the other outcomes.
        latency_ms: f64,
        /// How the request ended.
        outcome: TenantOutcome,
    },
    /// An injected fault fired on a device.
    Fault {
        /// Device the fault hit.
        device: u32,
        /// What kind of fault.
        kind: FaultKind,
        /// When it fired on the device clock.
        ts_ms: f64,
        /// Fault-specific payload: the throughput multiplier for
        /// `SmDegraded` (with the SM id unavailable here, emitted once
        /// per degraded SM), the stall-window end for `Stall`, and the
        /// dispatch's attempted start time otherwise.
        value: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_ids_are_unique_and_increasing() {
        let a = KernelId::next();
        let b = KernelId::next();
        assert!(b.0 > a.0);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(RequestPhase::CacheHit.name(), "cache_hit");
        assert_eq!(RequestPhase::Retry.name(), "retry");
        assert_eq!(RequestPhase::DeadlineMiss.name(), "deadline_miss");
        assert_eq!(CounterKind::QueueDepth.name(), "queue_depth");
        assert_eq!(FaultKind::DeviceLost.name(), "device_lost");
        assert_eq!(FaultKind::TransientLaunch.name(), "transient_launch");
        assert_eq!(FaultKind::SmDegraded.name(), "sm_degraded");
        assert_eq!(FaultKind::Stall.name(), "stall");
        assert_eq!(TunePhase::Explore.name(), "tune_explore");
        assert_eq!(TunePhase::Promote.name(), "tune_promote");
        assert_eq!(ShardPhase::Route.name(), "shard_route");
        assert_eq!(ShardPhase::HaloExchange.name(), "halo_exchange");
        assert_eq!(ShardPhase::Merge.name(), "shard_merge");
        assert_eq!(ShardPhase::Reject.name(), "shard_reject");
        assert_eq!(CounterKind::BatcherOccupancy.name(), "batcher_occupancy");
        assert_eq!(TenantOutcome::Served.name(), "served");
        assert_eq!(TenantOutcome::Rejected.name(), "rejected");
        assert_eq!(TenantOutcome::DeadlineMiss.name(), "deadline_miss");
        assert_eq!(TenantOutcome::Failed.name(), "failed");
    }
}
