//! Recursive-MATrix (RMAT) graph generator (Graph500 style).

use super::{draw_value, rng_for};
use crate::coo::Coo;
use crate::convert::coo_to_csr;
use crate::csr::Csr;

/// Generate the adjacency matrix of an RMAT graph with `2^scale` vertices
/// and `edge_factor * 2^scale` directed edges, using partition
/// probabilities `(a, b, c)` (with `d = 1 - a - b - c`). Graph500 uses
/// `(0.57, 0.19, 0.19)`.
///
/// RMAT graphs combine power-law degrees with community structure — the
/// canonical graph-analytics workload (BFS/SSSP in §5.3).
pub fn rmat(scale: u32, edge_factor: usize, probs: (f64, f64, f64), seed: u64) -> Csr<f32> {
    let (a, b, c) = probs;
    let d = 1.0 - a - b - c;
    assert!(
        a > 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0,
        "partition probabilities must be a valid distribution"
    );
    let n = 1usize << scale;
    let edges = edge_factor * n;
    let mut rng = rng_for(seed);
    let mut coo = Coo::empty(n, n);
    for _ in 0..edges {
        let (mut r, mut c_idx) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            let u: f64 = rng.f64();
            if u < a {
                // top-left: nothing to add
            } else if u < a + b {
                c_idx += half;
            } else if u < a + b + c {
                r += half;
            } else {
                r += half;
                c_idx += half;
            }
            half >>= 1;
        }
        coo.push(r as u32, c_idx as u32, draw_value(&mut rng))
            .expect("quadrant walk stays in bounds");
    }
    coo_to_csr(&coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RowStats;

    const G500: (f64, f64, f64) = (0.57, 0.19, 0.19);

    #[test]
    fn dimensions_and_density_match_parameters() {
        let m = rmat(8, 8, G500, 5);
        assert_eq!(m.rows(), 256);
        assert_eq!(m.cols(), 256);
        // Duplicates collapse, so nnz ≤ edges but should stay substantial.
        assert!(m.nnz() <= 8 * 256);
        assert!(m.nnz() > 4 * 256, "nnz = {}", m.nnz());
    }

    #[test]
    fn skewed_probabilities_create_hub_rows() {
        let skewed = RowStats::of(&rmat(10, 16, G500, 6));
        let flat = RowStats::of(&rmat(10, 16, (0.25, 0.25, 0.25), 6));
        assert!(
            skewed.max_over_mean > 2.0 * flat.max_over_mean,
            "skewed {} vs flat {}",
            skewed.max_over_mean,
            flat.max_over_mean
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(rmat(6, 4, G500, 1), rmat(6, 4, G500, 1));
        assert_ne!(rmat(6, 4, G500, 1), rmat(6, 4, G500, 2));
    }

    #[test]
    #[should_panic(expected = "valid distribution")]
    fn rejects_bad_probabilities() {
        let _ = rmat(4, 2, (0.6, 0.3, 0.3), 0);
    }
}
