//! Row-aligned sharding of a CSR matrix with halo (ghost-column)
//! metadata — the distribution layer under multi-shard serving.
//!
//! A [`ShardPlan`] cuts a matrix into contiguous row blocks, one per
//! shard. Row alignment is the load-bearing choice: each shard's partial
//! `y` is a contiguous slice of the global result, so merging shard
//! outputs is pure concatenation — bitwise identical to a single-shard
//! run, with no cross-shard reduction that could reassociate floating
//! point (see `DESIGN.md` §11).
//!
//! Three partitioners mirror the intra-device scheduling story one more
//! level up — across shards and, one shard per device, across GPUs:
//!
//! * [`ShardStrategy::Rows1D`] — equal rows per shard (thread-mapped
//!   writ large; vulnerable to nnz skew);
//! * [`ShardStrategy::Nnz1D`] — equal nonzeros per shard via binary
//!   search on the row offsets (merge-path's insight);
//! * [`ShardStrategy::RowNnz2D`] — the 2D compromise: balances the
//!   joint objective ½·rows + ½·nnz, so a shard is penalized both for
//!   drawing too many rows (output/merge traffic) and too many nonzeros
//!   (compute).
//!
//! Each shard also carries *halo* metadata: the distinct input columns
//! it reads that another shard owns (ownership of `x[j]` follows the
//! row boundaries, clamped to the column count). Those ghost entries
//! are what a distributed run must fetch before computing, and their
//! byte volume is what `simt::exchange` converts into a communication
//! charge.

use std::ops::Range;

use crate::csr::Csr;

/// How rows are divided among shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardStrategy {
    /// Equal row counts per shard (1D over rows).
    Rows1D,
    /// Equal nonzero counts per shard (1D over nnz; binary search on
    /// the row offsets).
    Nnz1D,
    /// Joint row×nnz balance: each shard receives an equal share of
    /// `½·rows + ½·nnz`, trading output size against compute.
    RowNnz2D,
}

impl ShardStrategy {
    /// Stable display name (used in CSV output).
    pub fn name(self) -> &'static str {
        match self {
            Self::Rows1D => "rows1d",
            Self::Nnz1D => "nnz1d",
            Self::RowNnz2D => "rownnz2d",
        }
    }
}

/// One shard's slice of the matrix, plus its communication footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// The global rows this shard owns (contiguous, half-open).
    pub rows: Range<usize>,
    /// Nonzeros inside that row block.
    pub nnz: usize,
    /// Distinct referenced columns owned by *other* shards — the ghost
    /// entries of `x` this shard must fetch before an SpMV.
    pub ghost_cols: usize,
    /// Ghost columns broken down by owning shard (`shards` entries;
    /// the own-shard entry is always 0).
    pub ghost_by_owner: Vec<usize>,
}

impl ShardInfo {
    /// Bytes of `f32` input this shard fetches from its peers.
    pub fn halo_bytes(&self) -> u64 {
        4 * self.ghost_cols as u64
    }

    /// Bytes of `f32` output this shard contributes to the merge.
    pub fn output_bytes(&self) -> u64 {
        4 * self.rows.len() as u64
    }
}

/// A row-aligned partition of one matrix across `n` shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The strategy that produced the boundaries.
    pub strategy: ShardStrategy,
    /// Row boundaries (`shards + 1` entries, monotone, covering
    /// `0..rows`).
    pub boundaries: Vec<usize>,
    /// Per-shard metadata, in shard order.
    pub shards: Vec<ShardInfo>,
    cols: usize,
}

impl ShardPlan {
    /// Partition `a` into `shards` contiguous row blocks and compute
    /// each block's ghost-column footprint.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn partition<V: Copy>(a: &Csr<V>, shards: usize, strategy: ShardStrategy) -> Self {
        assert!(shards > 0, "need at least one shard");
        let offsets = a.row_offsets();
        let mut boundaries = Vec::with_capacity(shards + 1);
        boundaries.push(0usize);
        for i in 1..shards {
            let row = match strategy {
                ShardStrategy::Rows1D => a.rows() * i / shards,
                ShardStrategy::Nnz1D => {
                    let target = a.nnz() * i / shards;
                    offsets.partition_point(|&o| o < target)
                }
                ShardStrategy::RowNnz2D => {
                    // cost(r) = r + offsets[r] is strictly increasing in
                    // r, so the equal-share cut is a binary search on the
                    // joint objective (the ½/½ weights cancel).
                    let target = (a.rows() + a.nnz()) * i / shards;
                    let (mut lo, mut hi) = (0usize, a.rows() + 1);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if mid + offsets[mid] < target {
                            lo = mid + 1;
                        } else {
                            hi = mid;
                        }
                    }
                    lo
                }
            };
            let prev = *boundaries.last().expect("non-empty");
            boundaries.push(row.min(a.rows()).max(prev));
        }
        boundaries.push(a.rows());

        let owner_of_col = |c: usize| -> usize {
            // x-ownership follows the row boundaries (exact for the
            // square matrices the corpus generates; clamped otherwise).
            let r = c.min(a.rows().saturating_sub(1));
            boundaries.partition_point(|&b| b <= r).saturating_sub(1)
        };
        let mut shard_infos = Vec::with_capacity(shards);
        let mut seen = vec![usize::MAX; a.cols()];
        for s in 0..shards {
            let rows = boundaries[s]..boundaries[s + 1];
            let nnz = offsets[rows.end] - offsets[rows.start];
            let mut ghost_by_owner = vec![0usize; shards];
            let mut ghost_cols = 0usize;
            for &c in &a.col_indices()[offsets[rows.start]..offsets[rows.end]] {
                let c = c as usize;
                if seen[c] == s {
                    continue; // already counted for this shard
                }
                seen[c] = s;
                let owner = owner_of_col(c);
                if owner != s {
                    ghost_cols += 1;
                    ghost_by_owner[owner] += 1;
                }
            }
            shard_infos.push(ShardInfo {
                rows,
                nnz,
                ghost_cols,
                ghost_by_owner,
            });
        }
        Self {
            strategy,
            boundaries,
            shards: shard_infos,
            cols: a.cols(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning global row `r`.
    pub fn owner_of_row(&self, r: usize) -> usize {
        self.boundaries.partition_point(|&b| b <= r).saturating_sub(1)
    }

    /// Total ghost bytes across all shards (the exchange volume one
    /// distributed SpMV generates).
    pub fn total_halo_bytes(&self) -> u64 {
        self.shards.iter().map(ShardInfo::halo_bytes).sum()
    }

    /// The largest single shard's ghost bytes — the wall-clock-bounding
    /// transfer in a bulk-synchronous exchange.
    pub fn max_halo_bytes(&self) -> u64 {
        self.shards.iter().map(ShardInfo::halo_bytes).max().unwrap_or(0)
    }

    /// The largest shard output slice in bytes — bounds the result
    /// gather in a bulk-synchronous merge.
    pub fn max_output_bytes(&self) -> u64 {
        self.shards.iter().map(ShardInfo::output_bytes).max().unwrap_or(0)
    }

    /// Column count of the partitioned matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    const STRATEGIES: [ShardStrategy; 3] = [
        ShardStrategy::Rows1D,
        ShardStrategy::Nnz1D,
        ShardStrategy::RowNnz2D,
    ];

    #[test]
    fn boundaries_cover_all_rows_monotonically() {
        let a = gen::powerlaw(5_000, 5_000, 80_000, 1.8, 7);
        for strategy in STRATEGIES {
            for n in [1usize, 2, 3, 8, 16] {
                let p = ShardPlan::partition(&a, n, strategy);
                assert_eq!(p.boundaries.len(), n + 1);
                assert_eq!(p.boundaries[0], 0);
                assert_eq!(*p.boundaries.last().unwrap(), a.rows());
                assert!(p.boundaries.windows(2).all(|w| w[0] <= w[1]));
                let total_nnz: usize = p.shards.iter().map(|s| s.nnz).sum();
                assert_eq!(total_nnz, a.nnz(), "{strategy:?} n={n}");
            }
        }
    }

    #[test]
    fn submatrices_reassemble_the_matrix() {
        let a = gen::uniform(1_000, 1_000, 12_000, 8);
        let p = ShardPlan::partition(&a, 4, ShardStrategy::Nnz1D);
        let mut rows = 0usize;
        for info in &p.shards {
            let sub = a.row_slice(info.rows.clone());
            assert_eq!(sub.rows(), info.rows.len());
            assert_eq!(sub.cols(), a.cols());
            assert_eq!(sub.nnz(), info.nnz);
            rows += sub.rows();
        }
        assert_eq!(rows, a.rows());
    }

    #[test]
    fn diagonal_matrix_has_no_ghosts() {
        let a = gen::diagonal(256, 3);
        for strategy in STRATEGIES {
            let p = ShardPlan::partition(&a, 8, strategy);
            assert_eq!(p.total_halo_bytes(), 0, "{strategy:?}");
            assert!(p.shards.iter().all(|s| s.ghost_cols == 0));
        }
    }

    #[test]
    fn ghost_accounting_is_consistent() {
        let a = gen::powerlaw(2_000, 2_000, 30_000, 1.6, 9);
        let p = ShardPlan::partition(&a, 4, ShardStrategy::Rows1D);
        assert!(p.total_halo_bytes() > 0, "random pattern must cross shards");
        for (s, info) in p.shards.iter().enumerate() {
            assert_eq!(info.ghost_by_owner.len(), 4);
            assert_eq!(info.ghost_by_owner[s], 0, "no ghosts from self");
            assert_eq!(
                info.ghost_by_owner.iter().sum::<usize>(),
                info.ghost_cols
            );
            assert_eq!(info.halo_bytes(), 4 * info.ghost_cols as u64);
            // A shard cannot fetch more distinct ghosts than it has
            // distinct referenced columns (bounded by both nnz and cols).
            assert!(info.ghost_cols <= info.nnz.min(a.cols()));
        }
        assert!(p.max_halo_bytes() <= p.total_halo_bytes());
    }

    #[test]
    fn nnz_balance_ranks_strategies_on_skewed_matrices() {
        let a = gen::powerlaw(20_000, 20_000, 300_000, 1.7, 10);
        let spread = |p: &ShardPlan| {
            let max = p.shards.iter().map(|s| s.nnz).max().unwrap() as f64;
            max / (a.nnz() as f64 / p.num_shards() as f64)
        };
        let rows = ShardPlan::partition(&a, 8, ShardStrategy::Rows1D);
        let nnz = ShardPlan::partition(&a, 8, ShardStrategy::Nnz1D);
        let joint = ShardPlan::partition(&a, 8, ShardStrategy::RowNnz2D);
        assert!(spread(&nnz) < 1.1, "nnz1d spread {}", spread(&nnz));
        assert!(spread(&nnz) <= spread(&joint) + 1e-9);
        assert!(spread(&joint) <= spread(&rows) + 1e-9);
    }

    #[test]
    fn row_owner_matches_boundaries() {
        let a = gen::uniform(100, 100, 600, 11);
        let p = ShardPlan::partition(&a, 3, ShardStrategy::Rows1D);
        for s in 0..p.num_shards() {
            for r in p.shards[s].rows.clone() {
                assert_eq!(p.owner_of_row(r), s);
            }
        }
    }

    #[test]
    fn more_shards_than_rows_yields_empty_tail_shards() {
        let a = gen::uniform(5, 5, 10, 12);
        let p = ShardPlan::partition(&a, 16, ShardStrategy::Nnz1D);
        assert_eq!(p.num_shards(), 16);
        assert_eq!(*p.boundaries.last().unwrap(), 5);
        let nonempty = p.shards.iter().filter(|s| !s.rows.is_empty()).count();
        assert!(nonempty <= 5);
        let total: usize = p.shards.iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let a = gen::uniform(10, 10, 20, 13);
        let _ = ShardPlan::partition(&a, 0, ShardStrategy::Rows1D);
    }
}
