//! ELLPACK (ELL) storage: every row padded to a fixed width.
//!
//! The paper's related work (§7) contrasts *active* load balancing with
//! formats that are "already-load-balanced/-partitioned": ELL is the
//! classic example — every row stores exactly `width` slots (unused ones
//! padded), so a tile-per-thread schedule is perfectly regular by
//! construction. The price is the padding itself: a single long row
//! inflates every row's storage to its length, which is why ELL shines on
//! stencils and dies on power laws — a trade the ablation harness can
//! now measure directly against the scheduling-based answers.

use std::ops::AddAssign;

use crate::csr::Csr;
use crate::error::{Error, Result};

/// Sentinel column index marking a padded slot.
pub const PAD: u32 = u32::MAX;

/// An ELL matrix: `rows × width` slots, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Ell<V = f32> {
    rows: usize,
    cols: usize,
    width: usize,
    col_indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Copy + Default> Ell<V> {
    /// Build from a CSR matrix, padding every row to the longest row's
    /// length. Fails if the padding would exceed `max_fill` times the
    /// stored nonzeros (the guard real systems use before choosing ELL).
    pub fn from_csr(csr: &Csr<V>, max_fill: f64) -> Result<Self> {
        let width = (0..csr.rows()).map(|r| csr.row_len(r)).max().unwrap_or(0);
        let slots = csr.rows() * width;
        if csr.nnz() > 0 && slots as f64 > max_fill * csr.nnz() as f64 {
            return Err(Error::Invalid(format!(
                "ELL fill {slots} exceeds {max_fill}x nnz {} — format unsuitable",
                csr.nnz()
            )));
        }
        let mut col_indices = vec![PAD; slots];
        let mut values = vec![V::default(); slots];
        for r in 0..csr.rows() {
            let (cols, vals) = csr.row(r);
            let base = r * width;
            col_indices[base..base + cols.len()].copy_from_slice(cols);
            values[base..base + vals.len()].copy_from_slice(vals);
        }
        Ok(Self {
            rows: csr.rows(),
            cols: csr.cols(),
            width,
            col_indices,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slots per row (the padded width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total slots including padding.
    pub fn slots(&self) -> usize {
        self.col_indices.len()
    }

    /// Stored (non-padded) entries.
    pub fn nnz(&self) -> usize {
        self.col_indices.iter().filter(|&&c| c != PAD).count()
    }

    /// Padded column-index array (`rows × width`).
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Padded values array (`rows × width`).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The slot range of row `r`.
    pub fn row_slots(&self, r: usize) -> std::ops::Range<usize> {
        r * self.width..(r + 1) * self.width
    }

    /// Convert back to canonical CSR (drops padding).
    pub fn to_csr(&self) -> Csr<V>
    where
        V: AddAssign,
    {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for s in self.row_slots(r) {
                if self.col_indices[s] != PAD {
                    triplets.push((r as u32, self.col_indices[s], self.values[s]));
                }
            }
        }
        Csr::from_triplets(self.rows, self.cols, triplets)
            .expect("ELL slots are in-bounds by construction")
    }
}

impl Ell<f32> {
    /// Reference sequential SpMV over the padded layout.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut sum = 0.0f64;
            for s in self.row_slots(r) {
                let c = self.col_indices[s];
                if c != PAD {
                    sum += f64::from(self.values[s]) * f64::from(x[c as usize]);
                }
            }
            *yr = sum as f32;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f32> {
        Csr::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![0, 2, 0, 1, 3],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn from_csr_pads_to_longest_row() {
        let e = Ell::from_csr(&sample(), 10.0).unwrap();
        assert_eq!(e.width(), 3);
        assert_eq!(e.slots(), 9);
        assert_eq!(e.nnz(), 5);
        // Row 1 is empty: all padding.
        assert!(e.row_slots(1).all(|s| e.col_indices()[s] == PAD));
    }

    #[test]
    fn roundtrips_through_csr() {
        let a = crate::gen::uniform(50, 40, 400, 61);
        let e = Ell::from_csr(&a, 50.0).unwrap();
        assert_eq!(e.to_csr(), a);
    }

    #[test]
    fn spmv_matches_csr() {
        let a = crate::gen::banded(100, 3, 62);
        let e = Ell::from_csr(&a, 2.0).unwrap();
        let x = crate::dense::test_vector(100);
        assert_eq!(e.spmv_ref(&x), a.spmv_ref(&x));
    }

    #[test]
    fn fill_guard_rejects_pathological_padding() {
        // One row of 1000, the rest of 1: fill would be ~500x.
        let a = crate::gen::hub_rows(1_000, 1_000, 1, 1_000, 1, 63);
        assert!(matches!(
            Ell::from_csr(&a, 4.0),
            Err(Error::Invalid(_))
        ));
        // But a permissive threshold accepts it.
        assert!(Ell::from_csr(&a, 1e6).is_ok());
    }

    #[test]
    fn empty_matrix() {
        let e = Ell::<f32>::from_csr(&Csr::empty(4, 4), 1.0).unwrap();
        assert_eq!(e.width(), 0);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.spmv_ref(&[0.0; 4]), vec![0.0; 4]);
    }
}
