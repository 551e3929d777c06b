//! Matrix fingerprints — the plan-cache key.
//!
//! A prepared [`KernelPlan`](loops::dispatch::KernelPlan) depends only
//! on the matrix's *row structure*: the schedule heuristic reads
//! `rows`/`cols`/`nnz`, the merge-path partition reads the row offsets,
//! and LRB bins rows by length. The fingerprint therefore combines the
//! shape, the row-length distribution summary ([`RowStats`]), and an
//! FNV-1a hash of the row-offset array. Two matrices with the same
//! fingerprint get the same plan; any change to the row structure
//! changes the fingerprint and invalidates the cached plan.

use sparse::stats::RowStats;
use sparse::Csr;

/// Cache key identifying a matrix's plan-relevant structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Row count.
    pub rows: usize,
    /// Column count (the heuristic's other α test).
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Longest row.
    pub max_row: usize,
    /// Coefficient of variation of row lengths, in thousandths (quantized
    /// so the key stays hashable).
    pub cv_milli: u64,
    /// FNV-1a hash over the row-offset array — detects any row-structure
    /// change the summary statistics miss.
    pub pattern: u64,
}

impl Fingerprint {
    /// Fingerprint a CSR matrix (O(rows)).
    pub fn of(a: &Csr<f32>) -> Self {
        let stats = RowStats::of(a);
        Self {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            max_row: stats.max,
            cv_milli: (stats.cv * 1e3).round() as u64,
            pattern: fnv1a_usizes(a.row_offsets()),
        }
    }
}

/// 64-bit FNV-1a over a usize slice (little-endian bytes).
fn fnv1a_usizes(data: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in data {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_structure_same_fingerprint() {
        let a = sparse::gen::powerlaw(500, 500, 8_000, 1.8, 1);
        let b = a.clone();
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn value_changes_keep_fingerprint() {
        let a = sparse::gen::uniform(200, 200, 2_000, 2);
        let mut b = a.clone();
        for v in b.values_mut() {
            *v *= 2.0;
        }
        // Plans are pattern-only: new values, same plan.
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn row_structure_changes_fingerprint() {
        // Same rows/cols/nnz, different distribution of nonzeros per row.
        let a = sparse::gen::uniform(300, 300, 3_000, 3);
        let b = sparse::gen::powerlaw(300, 300, 3_000, 1.9, 3);
        // powerlaw may not land exactly on 3_000 nnz; compare against a
        // same-shape permutation instead for the strict case below.
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));

        // Strict: identical summary shape, shuffled row lengths → the
        // pattern hash still separates them.
        let c = Csr::from_triplets(3, 3, vec![(0u32, 0u32, 1.0f32), (0, 1, 1.0), (2, 2, 1.0)])
            .unwrap();
        let d = Csr::from_triplets(3, 3, vec![(0u32, 0u32, 1.0f32), (2, 1, 1.0), (2, 2, 1.0)])
            .unwrap();
        assert_ne!(Fingerprint::of(&c), Fingerprint::of(&d));
    }
}
