//! The schedule rule of split execution: which schedules a row-aligned
//! split may run.
//!
//! A split execution runs one kernel over a row-aligned
//! [`ShardPlan`](sparse::ShardPlan): every shard runs
//! `kernels::spmv::spmv_rows` over its contiguous row span of the
//! matrix against the full (replicated, post-halo-exchange) input
//! vector, and the partial slices concatenate. Because the partition is
//! row-aligned and the pinned schedule is flat-span (see
//! [`decomposable`]), the concatenation is **bitwise identical** to
//! running the same schedule on the whole matrix on one shard — the
//! root `shard_oracle` tests assert exactly this.
//!
//! What lives here versus in the `shard` crate: this module is the
//! schedule coercion; the `shard` crate owns the execution and the
//! serving policy around it (the split cache, global admission,
//! communication charges, home-shard labels, trace emission).

use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use sparse::Csr;

/// Coerce a schedule to the nearest *bitwise row-decomposable* one.
///
/// Only flat-span schedules fold each row's products left-to-right in
/// atom order independent of the launch geometry, which is what makes a
/// row-sliced execution bit-equal to the full-matrix run. Merge-path
/// (partition-relative partial spans combined by `atomicAdd`) maps to a
/// work-queue of the same items-per-thread granularity — the dynamic
/// schedule with the closest load-balancing behaviour — and the
/// cooperative-reduce family (lane partials interleaved in
/// batch-relative order) plus LRB (cooperative bins) map to
/// thread-mapped. The same move `kernels::spmm` makes for its
/// unsupported families, applied for a different reason: there it is
/// capability, here it is bitwise reproducibility.
pub fn decomposable(kind: ScheduleKind) -> ScheduleKind {
    match kind {
        ScheduleKind::ThreadMapped | ScheduleKind::WorkQueue(_) => kind,
        ScheduleKind::MergePath => {
            ScheduleKind::WorkQueue(loops::dispatch::MERGE_ITEMS_PER_THREAD as u32)
        }
        ScheduleKind::WarpMapped
        | ScheduleKind::BlockMapped
        | ScheduleKind::GroupMapped(_)
        | ScheduleKind::Lrb => ScheduleKind::ThreadMapped,
    }
}

/// The schedule a split execution pins for `a`: the paper's heuristic
/// choice for the *global* matrix, coerced to a decomposable schedule.
/// Every shard — and the single-shard baseline — runs this one
/// schedule, so shard count never changes the result bits.
pub fn pinned_schedule(a: &Csr<f32>) -> ScheduleKind {
    decomposable(Heuristic::paper().select(a.rows(), a.cols(), a.nnz()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercion_is_idempotent_and_flat_span_only() {
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(4),
            ScheduleKind::Lrb,
        ] {
            let d = decomposable(kind);
            assert_eq!(d, decomposable(d), "{kind}: coercion must be idempotent");
            assert!(
                matches!(d, ScheduleKind::ThreadMapped | ScheduleKind::WorkQueue(_)),
                "{kind} coerced to non-flat-span {d}"
            );
        }
    }
}
