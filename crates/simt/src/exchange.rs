//! The multi-device interconnect and the communication half of the
//! distributed cost model — the paper's §8 future work ("expanding our
//! model to a multi-GPU environment").
//!
//! A [`MultiGpuSpec`] is `n` identical devices joined by an NVLink-class
//! link; [`MultiGpuSpec::transfer_ms`] prices one transfer over it.
//! Devices run concurrently, so a node's makespan is the slowest device
//! plus the transfers the algorithm needed — the intra-device max/sum
//! shape one level up: *devices are just very large processing
//! elements, and the partition across them is a schedule.*
//!
//! A sharded SpMV is bulk-synchronous: every shard first fetches the
//! ghost entries of `x` it does not own (the *halo exchange*), all
//! shards compute concurrently, and the aggregator then gathers the
//! partial `y` slices (the *merge*). Switched links move every shard's
//! traffic concurrently, so each phase's wall time is bounded by its
//! *largest* single transfer, not the sum.

use crate::spec::GpuSpec;

/// A homogeneous multi-GPU node.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiGpuSpec {
    /// Per-device architecture.
    pub device: GpuSpec,
    /// Number of devices.
    pub num_devices: u32,
    /// Interconnect bandwidth per direction, GB/s (NVLink2 ≈ 150).
    pub link_bw_gbs: f64,
    /// Per-transfer interconnect latency, microseconds.
    pub link_latency_us: f64,
}

impl MultiGpuSpec {
    /// A DGX-1V-style node: `n` V100s over NVLink.
    pub fn dgx_v100(n: u32) -> Self {
        assert!(n >= 1, "need at least one device");
        Self {
            device: GpuSpec::v100(),
            num_devices: n,
            link_bw_gbs: 150.0,
            link_latency_us: 2.0,
        }
    }

    /// A test-sized node of tiny devices.
    pub fn test_tiny(n: u32) -> Self {
        Self {
            device: GpuSpec::test_tiny(),
            num_devices: n,
            link_bw_gbs: 10.0,
            link_latency_us: 1.0,
        }
    }

    /// Time in milliseconds to move `bytes` over the interconnect once.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.link_latency_us * 1e-3 + bytes as f64 / (self.link_bw_gbs * 1e9) * 1e3
    }
}

/// The communication charge of one bulk-synchronous sharded operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeCost {
    /// Ghost-fetch phase: bounded by the largest per-shard halo.
    pub halo_ms: f64,
    /// Result-gather phase: bounded by the largest partial slice.
    pub merge_ms: f64,
}

impl ExchangeCost {
    /// Total communication charge added to the critical path.
    pub fn total_ms(&self) -> f64 {
        self.halo_ms + self.merge_ms
    }

    /// A free exchange (single shard, or nothing to move).
    pub fn zero() -> Self {
        Self {
            halo_ms: 0.0,
            merge_ms: 0.0,
        }
    }
}

/// Price one halo exchange + merge over `spec`'s interconnect.
///
/// `halo_bytes_per_shard` holds each shard's ghost-fetch volume;
/// `merge_bytes` is the largest partial-result slice returned to the
/// aggregator. A single shard (or an empty group) pays nothing: the
/// data never leaves the device pool.
pub fn halo_exchange(
    spec: &MultiGpuSpec,
    halo_bytes_per_shard: &[u64],
    merge_bytes: u64,
) -> ExchangeCost {
    if halo_bytes_per_shard.len() <= 1 {
        return ExchangeCost::zero();
    }
    let max_halo = halo_bytes_per_shard.iter().copied().max().unwrap_or(0);
    ExchangeCost {
        halo_ms: if max_halo == 0 {
            0.0
        } else {
            spec.transfer_ms(max_halo)
        },
        merge_ms: if merge_bytes == 0 {
            0.0
        } else {
            spec.transfer_ms(merge_bytes)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let m = MultiGpuSpec::dgx_v100(4);
        let t = m.transfer_ms(150_000_000); // 1 ms at 150 GB/s
        assert!((t - (1.0 + 0.002)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let _ = MultiGpuSpec::dgx_v100(0);
    }

    #[test]
    fn single_shard_pays_nothing() {
        let m = MultiGpuSpec::test_tiny(1);
        let c = halo_exchange(&m, &[1_000_000], 4_000);
        assert_eq!(c.total_ms(), 0.0);
    }

    #[test]
    fn empty_halos_still_pay_the_merge() {
        let m = MultiGpuSpec::test_tiny(4);
        let c = halo_exchange(&m, &[0, 0, 0, 0], 4_000);
        assert_eq!(c.halo_ms, 0.0);
        assert!((c.merge_ms - m.transfer_ms(4_000)).abs() < 1e-12);
    }

    #[test]
    fn halo_phase_is_bounded_by_the_largest_transfer() {
        let m = MultiGpuSpec::dgx_v100(4);
        let c = halo_exchange(&m, &[100, 5_000_000, 200, 300], 400);
        assert!((c.halo_ms - m.transfer_ms(5_000_000)).abs() < 1e-12);
        assert!((c.total_ms() - (c.halo_ms + c.merge_ms)).abs() < 1e-12);
    }

    #[test]
    fn more_ghost_bytes_cost_more() {
        let m = MultiGpuSpec::test_tiny(2);
        let small = halo_exchange(&m, &[1_000, 1_000], 1_000);
        let big = halo_exchange(&m, &[1_000_000, 1_000_000], 1_000);
        assert!(big.halo_ms > small.halo_ms);
        assert_eq!(big.merge_ms, small.merge_ms);
    }
}
