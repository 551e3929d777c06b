//! The global split/merge aggregation layer: one request fanned out
//! across shard runtimes, partials merged bitwise.
//!
//! A split execution runs one kernel over a row-aligned
//! [`ShardPlan`](sparse::ShardPlan): every shard computes its
//! contiguous row block against the full (replicated, post-halo-
//! exchange) input vector, through its *own* runtime's plan cache
//! ([`Runtime::run_spmv_pinned`]), and the aggregator concatenates the
//! partial slices. Because the partition is row-aligned and the pinned
//! schedule is flat-span (see [`decomposable`]), the concatenation is
//! **bitwise identical** to running the same schedule on the whole
//! matrix on one shard — the oracle tests assert exactly this.
//!
//! What lives here versus in the `shard` crate: this module is the
//! kernel-level mechanics (schedule coercion, fan-out, bitwise merge);
//! the `shard` crate owns the serving policy around it (consistent-hash
//! routing, global admission, communication charges, trace emission).

use std::sync::Arc;

use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use sparse::Csr;

use crate::Runtime;

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

/// Result of one split execution across shard runtimes.
#[derive(Debug, Clone)]
pub struct SplitRun {
    /// The merged output vector (bitwise equal to the single-shard
    /// run's).
    pub y: Vec<f32>,
    /// Each shard's simulated kernel time in milliseconds (0 for
    /// shards whose row block is empty).
    pub shard_elapsed_ms: Vec<f64>,
    /// Shards that served their partial from a cached plan.
    pub cache_hits: usize,
    /// The pinned schedule every shard ran.
    pub schedule: ScheduleKind,
}

impl SplitRun {
    /// The slowest shard's kernel time — the compute half of the
    /// bulk-synchronous critical path (communication is priced
    /// separately by `simt::exchange`).
    pub fn critical_shard_ms(&self) -> f64 {
        self.shard_elapsed_ms.iter().fold(0.0, |m, &t| m.max(t))
    }
}

/// Fan one SpMV out across `shards` (shard `i` computes `subs[i]`, its
/// row block of the global matrix) and merge the partials by
/// concatenation.
///
/// `subs` must be row-aligned blocks covering the global matrix in
/// order, each keeping the full column space (what
/// [`sparse::ShardPlan::submatrix`] produces), and `kind` must be
/// decomposable — pass it through [`decomposable`] or take it from
/// [`pinned_schedule`].
///
/// # Panics
/// If `shards` and `subs` disagree in length, or `kind` is not
/// decomposable.
pub fn split_spmv(
    shards: &mut [Runtime],
    subs: &[Arc<Csr<f32>>],
    x: &[f32],
    kind: ScheduleKind,
) -> simt::Result<SplitRun> {
    assert_eq!(shards.len(), subs.len(), "one sub-matrix per shard");
    assert_eq!(
        kind,
        decomposable(kind),
        "split execution requires a bitwise row-decomposable schedule"
    );
    let total_rows: usize = subs.iter().map(|a| a.rows()).sum();
    let mut y = Vec::with_capacity(total_rows);
    let mut shard_elapsed_ms = Vec::with_capacity(shards.len());
    let mut cache_hits = 0usize;
    for (rt, sub) in shards.iter_mut().zip(subs) {
        if sub.rows() == 0 {
            shard_elapsed_ms.push(0.0);
            continue;
        }
        let run = rt.run_spmv_pinned(sub, x, kind)?;
        y.extend_from_slice(&run.output);
        shard_elapsed_ms.push(run.report.elapsed_ms());
        if run.cache_hit {
            cache_hits += 1;
        }
    }
    Ok(SplitRun {
        y,
        shard_elapsed_ms,
        cache_hits,
        schedule: kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use simt::GpuSpec;
    use sparse::{ShardPlan, ShardStrategy};

    fn bits(y: &[f32]) -> Vec<u32> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    fn group(n: usize) -> Vec<Runtime> {
        (0..n)
            .map(|_| Runtime::new(GpuSpec::v100(), RuntimeConfig::default()))
            .collect()
    }

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

    #[test]
    fn split_spmv_merges_bitwise_identically_to_one_shard() {
        let a = Arc::new(sparse::gen::powerlaw(2_000, 2_000, 30_000, 1.7, 21));
        let x = sparse::dense::test_vector(a.cols());
        let kind = pinned_schedule(&a);
        let single = split_spmv(&mut group(1), &[Arc::clone(&a)], &x, kind)
            .unwrap()
            .y;
        for n in [2usize, 4, 8] {
            let plan = ShardPlan::partition(a.as_ref(), n, ShardStrategy::Nnz1D);
            let subs: Vec<Arc<Csr<f32>>> = (0..n)
                .map(|s| Arc::new(plan.submatrix(a.as_ref(), s)))
                .collect();
            let run = split_spmv(&mut group(n), &subs, &x, kind).unwrap();
            assert_eq!(bits(&run.y), bits(&single), "{n} shards diverged");
            assert_eq!(run.shard_elapsed_ms.len(), n);
            assert!(run.critical_shard_ms() > 0.0);
        }
    }

    #[test]
    fn split_spmv_warm_path_hits_shard_local_caches() {
        let a = Arc::new(sparse::gen::uniform(1_500, 1_500, 20_000, 22));
        let x = sparse::dense::test_vector(a.cols());
        let kind = pinned_schedule(&a);
        let plan = ShardPlan::partition(a.as_ref(), 4, ShardStrategy::RowNnz2D);
        let subs: Vec<Arc<Csr<f32>>> = (0..4)
            .map(|s| Arc::new(plan.submatrix(a.as_ref(), s)))
            .collect();
        let mut shards = group(4);
        let cold = split_spmv(&mut shards, &subs, &x, kind).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = split_spmv(&mut shards, &subs, &x, kind).unwrap();
        assert_eq!(warm.cache_hits, 4, "every shard must replay its plan");
        assert_eq!(bits(&warm.y), bits(&cold.y), "warm path must not change bits");
    }

    #[test]
    fn empty_shards_are_skipped() {
        let a = Arc::new(sparse::gen::uniform(3, 3, 6, 23));
        let x = sparse::dense::test_vector(a.cols());
        let plan = ShardPlan::partition(a.as_ref(), 8, ShardStrategy::Rows1D);
        let subs: Vec<Arc<Csr<f32>>> = (0..8)
            .map(|s| Arc::new(plan.submatrix(a.as_ref(), s)))
            .collect();
        let run = split_spmv(&mut group(8), &subs, &x, ScheduleKind::ThreadMapped).unwrap();
        assert_eq!(run.y.len(), 3);
        assert_eq!(
            run.shard_elapsed_ms.iter().filter(|&&t| t == 0.0).count(),
            8 - subs.iter().filter(|s| s.rows() > 0).count()
        );
    }

    #[test]
    #[should_panic(expected = "row-decomposable")]
    fn merge_path_is_rejected_unpinned() {
        let a = Arc::new(sparse::gen::uniform(100, 100, 500, 24));
        let x = sparse::dense::test_vector(a.cols());
        let _ = split_spmv(
            &mut group(1),
            &[Arc::clone(&a)],
            &x,
            ScheduleKind::MergePath,
        );
    }
}
