//! Matrix reordering utilities — the data-side lever of the locality
//! story (the paper's §8 names "caching and locality" as the orthogonal
//! model still to be built; reordering is how practitioners move that
//! needle today).
//!
//! * [`degree_sort`] — rows sorted by descending length: concentrates the
//!   heavy rows, the worst case for equal-rows partitioning (used by the
//!   multi-GPU demo) and a common preprocessing step for binning;
//! * [`rcm`] — Reverse Cuthill–McKee: the classic bandwidth-reducing
//!   ordering that packs each row's column accesses close together,
//!   directly improving gather locality;
//! * [`permute_symmetric`] — apply a permutation to rows *and* columns
//!   (graph relabeling);
//! * [`permute_rows`] — row-only permutation.

use crate::csr::Csr;
use std::collections::VecDeque;
use std::ops::AddAssign;

/// Permutation `perm` as "new index `i` holds old index `perm[i]`".
pub type Permutation = Vec<u32>;

/// Rows sorted by descending nonzero count (ties by index).
pub fn degree_sort<V: Copy>(a: &Csr<V>) -> Permutation {
    let mut order: Vec<u32> = (0..a.rows() as u32).collect();
    order.sort_by_key(|&r| (std::cmp::Reverse(a.row_len(r as usize)), r));
    order
}

/// Reverse Cuthill–McKee ordering of a symmetric pattern (treats the
/// pattern of `a ∪ aᵀ` implicitly by requiring `a` symmetric in
/// structure; non-symmetric inputs still produce a valid permutation,
/// just without the bandwidth guarantee).
pub fn rcm<V: Copy>(a: &Csr<V>) -> Permutation {
    let n = a.rows();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Process components from lowest-degree unvisited seeds (standard CM).
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&r| (a.row_len(r as usize), r));
    for &seed in &seeds {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        let mut q = VecDeque::from([seed]);
        while let Some(u) = q.pop_front() {
            order.push(u);
            let (nbrs, _) = a.row(u as usize);
            let mut next: Vec<u32> = nbrs
                .iter()
                .copied()
                .filter(|&v| {
                    let fresh = (v as usize) < n && !visited[v as usize];
                    if fresh {
                        visited[v as usize] = true;
                    }
                    fresh
                })
                .collect();
            next.sort_by_key(|&v| (a.row_len(v as usize), v));
            q.extend(next);
        }
    }
    order.reverse(); // the "reverse" in RCM
    order
}

/// Apply `perm` to rows and columns: `B[i, j] = A[perm[i], perm[j]]`.
pub fn permute_symmetric<V: Copy + AddAssign>(a: &Csr<V>, perm: &[u32]) -> Csr<V> {
    assert_eq!(perm.len(), a.rows(), "permutation must cover all rows");
    assert_eq!(a.rows(), a.cols(), "symmetric permutation needs square");
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    let mut triplets = Vec::with_capacity(a.nnz());
    for (new_r, &old_r) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old_r as usize);
        for (&c, &v) in cols.iter().zip(vals) {
            triplets.push((new_r as u32, inv[c as usize], v));
        }
    }
    Csr::from_triplets(a.rows(), a.cols(), triplets).expect("permutation preserves validity")
}

/// Apply `perm` to rows only: `B[i, :] = A[perm[i], :]`.
pub fn permute_rows<V: Copy + AddAssign>(a: &Csr<V>, perm: &[u32]) -> Csr<V> {
    assert_eq!(perm.len(), a.rows(), "permutation must cover all rows");
    let mut triplets = Vec::with_capacity(a.nnz());
    for (new_r, &old_r) in perm.iter().enumerate() {
        let (cols, vals) = a.row(old_r as usize);
        for (&c, &v) in cols.iter().zip(vals) {
            triplets.push((new_r as u32, c, v));
        }
    }
    Csr::from_triplets(a.rows(), a.cols(), triplets).expect("permutation preserves validity")
}

/// Structural bandwidth: `max |row − col|` over stored entries.
pub fn bandwidth<V: Copy>(a: &Csr<V>) -> usize {
    a.iter()
        .map(|(r, c, _)| (i64::from(r) - i64::from(c)).unsigned_abs() as usize)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(p: &[u32], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.len() == n
            && p.iter().all(|&i| {
                let fresh = (i as usize) < n && !seen[i as usize];
                if fresh {
                    seen[i as usize] = true;
                }
                fresh
            })
    }

    #[test]
    fn degree_sort_orders_heaviest_first() {
        let a = crate::gen::powerlaw(500, 500, 6_000, 1.8, 1);
        let p = degree_sort(&a);
        assert!(is_permutation(&p, 500));
        let lens: Vec<usize> = p.iter().map(|&r| a.row_len(r as usize)).collect();
        assert!(lens.windows(2).all(|w| w[0] >= w[1]), "descending");
    }

    #[test]
    fn rcm_is_a_permutation_on_any_graph() {
        for seed in 0..3u64 {
            let a = crate::gen::uniform(200, 200, 1_500, seed);
            let p = rcm(&a);
            assert!(is_permutation(&p, 200), "seed {seed}");
        }
        // Disconnected graphs too.
        let a = crate::gen::block_diag(8, 4, 9);
        assert!(is_permutation(&rcm(&a), 32));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_a_shuffled_band() {
        // Take a narrow band, destroy its ordering, let RCM recover it.
        let band = crate::gen::banded(400, 2, 3);
        let shuffle: Vec<u32> = {
            let mut p: Vec<u32> = (0..400).collect();
            // Deterministic scramble.
            p.sort_by_key(|&i| (i as u64).wrapping_mul(2654435761) % 997);
            p
        };
        let scrambled = permute_symmetric(&band, &shuffle);
        assert!(bandwidth(&scrambled) > 50, "scramble destroyed the band");
        let recovered = permute_symmetric(&scrambled, &rcm(&scrambled));
        assert!(
            bandwidth(&recovered) < bandwidth(&scrambled) / 4,
            "RCM: {} -> {}",
            bandwidth(&scrambled),
            bandwidth(&recovered)
        );
    }

    #[test]
    fn symmetric_permutation_preserves_spmv_up_to_relabeling() {
        let a = crate::gen::uniform(100, 100, 800, 5);
        let p = rcm(&a);
        let b = permute_symmetric(&a, &p);
        let x: Vec<f32> = crate::dense::test_vector(100);
        // x permuted the same way: y_b = P y_a.
        let xp: Vec<f32> = p.iter().map(|&old| x[old as usize]).collect();
        let ya = a.spmv_ref(&x);
        let yb = b.spmv_ref(&xp);
        for (new, &old) in p.iter().enumerate() {
            assert!((yb[new] - ya[old as usize]).abs() < 1e-4);
        }
    }

    #[test]
    fn row_permutation_preserves_row_contents() {
        let a = crate::gen::uniform(50, 60, 300, 7);
        let p = degree_sort(&a);
        let b = permute_rows(&a, &p);
        for (new, &old) in p.iter().enumerate() {
            assert_eq!(b.row(new), a.row(old as usize));
        }
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn bandwidth_of_diagonal_is_zero() {
        assert_eq!(bandwidth(&crate::gen::diagonal(64, 8)), 0);
        assert_eq!(bandwidth(&crate::gen::banded(64, 3, 8)), 3);
    }
}
