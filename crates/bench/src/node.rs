//! Node-level SpMV across a simulated multi-GPU node — the paper's §8
//! future work, built from the shard primitives: *the partition across
//! devices is itself a load-balancing schedule*, one level above the
//! intra-device one.
//!
//! A [`ShardPlan`] cuts the matrix into one contiguous row block per
//! device ([`ShardStrategy::Rows1D`] is thread-mapped writ large,
//! [`ShardStrategy::Nnz1D`] is merge-path's insight across the GPU
//! boundary). Each device runs [`spmv_rows`] on its block under any
//! [`ScheduleKind`]; the slices concatenate into `y`. Node time is the
//! slowest device plus the interconnect cost of broadcasting `x` and
//! gathering the largest `y` slice.

use kernels::spmv::{spmv_rows, DEFAULT_BLOCK};
use loops::schedule::ScheduleKind;
use simt::{CostModel, MultiGpuSpec};
use sparse::{Csr, ShardPlan, ShardStrategy};

/// Result of one node-level SpMV.
#[derive(Debug, Clone)]
pub struct NodeSpmv {
    /// The full output vector.
    pub y: Vec<f32>,
    /// The row partition, one shard per device.
    pub plan: ShardPlan,
    /// Each device's simulated elapsed time, in device order.
    pub device_ms: Vec<f64>,
    /// Interconnect time (x broadcast + y gather); 0 on one device.
    pub comm_ms: f64,
    /// Node elapsed: slowest device plus communication.
    pub elapsed_ms: f64,
}

impl NodeSpmv {
    /// The slowest device's elapsed time.
    pub fn critical_ms(&self) -> f64 {
        self.device_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Slowest over mean device time (1.0 = perfectly balanced across
    /// devices) — the cross-device analogue of SM utilization.
    pub fn imbalance(&self) -> f64 {
        let mean = self.device_ms.iter().sum::<f64>() / self.device_ms.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.critical_ms() / mean
        }
    }
}

/// Run SpMV across `node`, one [`spmv_rows`] launch per `strategy` shard.
pub fn node_spmv(
    node: &MultiGpuSpec,
    a: &Csr<f32>,
    x: &[f32],
    kind: ScheduleKind,
    strategy: ShardStrategy,
) -> simt::Result<NodeSpmv> {
    let model = CostModel::standard();
    let plan = ShardPlan::partition(a, node.num_devices as usize, strategy);
    let mut y = Vec::with_capacity(a.rows());
    let mut device_ms = Vec::with_capacity(plan.num_shards());
    for shard in &plan.shards {
        let run = spmv_rows(
            &node.device,
            &model,
            a,
            shard.rows.clone(),
            x,
            kind,
            DEFAULT_BLOCK,
        )?;
        y.extend(run.y);
        device_ms.push(run.report.elapsed_ms());
    }
    // Switched links deliver the x broadcast to every device at once and
    // return every y slice concurrently: one x transfer plus the largest
    // slice bounds the wall time.
    let comm_bytes = 4 * x.len() as u64 + plan.max_output_bytes();
    let comm_ms = if node.num_devices > 1 && comm_bytes > 0 {
        node.transfer_ms(comm_bytes)
    } else {
        0.0
    };
    let mut run = NodeSpmv {
        y,
        plan,
        device_ms,
        comm_ms,
        elapsed_ms: 0.0,
    };
    run.elapsed_ms = run.critical_ms() + comm_ms;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_result_matches_reference_for_all_configs() {
        let a = sparse::gen::uniform(3_000, 2_500, 40_000, 83);
        let x = sparse::dense::test_vector(a.cols());
        let want = a.spmv_ref(&x);
        for d in [1u32, 2, 4] {
            for s in [ShardStrategy::Rows1D, ShardStrategy::Nnz1D] {
                let run = node_spmv(
                    &MultiGpuSpec::test_tiny(d),
                    &a,
                    &x,
                    ScheduleKind::MergePath,
                    s,
                )
                .unwrap();
                let err = kernels::spmv::max_rel_error(&run.y, &want);
                assert!(err < 2e-3, "d={d} {s:?}: err {err}");
                assert_eq!(run.device_ms.len(), d as usize);
                assert_eq!(run.elapsed_ms, run.critical_ms() + run.comm_ms);
            }
        }
    }

    #[test]
    fn nnz_balancing_beats_row_blocks_on_hub_matrices() {
        // All the work in the first rows: equal-rows gives device 0
        // everything; nnz-balancing splits it.
        let mut triplets = Vec::new();
        for r in 0..4_000usize {
            for k in 0..100 {
                let col = (r * 31 + k * 97) % 40_000;
                triplets.push((r as u32, col as u32, 0.5f32));
            }
        }
        let a = Csr::from_triplets(40_000, 40_000, triplets).unwrap();
        let x = sparse::dense::test_vector(a.cols());
        let node = MultiGpuSpec::dgx_v100(4);
        let run = |s| node_spmv(&node, &a, &x, ScheduleKind::MergePath, s).unwrap();
        let (rows, nnz) = (run(ShardStrategy::Rows1D), run(ShardStrategy::Nnz1D));
        assert!(
            nnz.critical_ms() < rows.critical_ms(),
            "nnz {} vs rows {}",
            nnz.critical_ms(),
            rows.critical_ms()
        );
        assert!(rows.imbalance() > nnz.imbalance());
    }

    #[test]
    fn scaling_reduces_critical_device_time() {
        let a = sparse::gen::uniform(200_000, 200_000, 3_200_000, 85);
        let x = sparse::dense::test_vector(a.cols());
        let critical = |d| {
            node_spmv(
                &MultiGpuSpec::dgx_v100(d),
                &a,
                &x,
                ScheduleKind::MergePath,
                ShardStrategy::Nnz1D,
            )
            .unwrap()
            .critical_ms()
        };
        let (t1, t4) = (critical(1), critical(4));
        assert!(t4 < t1, "4-device {t4} should beat 1-device {t1}");
    }
}
