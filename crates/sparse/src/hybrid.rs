//! Hybrid ELL + COO storage: a dense-lane slab plus a coordinate spill
//! tail.
//!
//! The classic answer to ELL's fatal flaw (one hub row inflates every
//! row's storage): keep a slab holding the first `width` entries of every
//! row — perfectly regular, so a tile-per-thread schedule balances it by
//! construction — and spill each row's excess into a COO tail served by a
//! per-entry scatter pass. The split width comes from
//! [`crate::FormatStats::hybrid_width`]: the slab widens while at least
//! `1 / `[`crate::format::HYBRID_TAIL_COST`] of the rows still extend
//! past it, so the slab tracks the bulk of the row-length distribution
//! and the hub rows pay the (costlier, but balanced) tail scatter.
//!
//! **Entry-order contract.** Row `r`'s entries appear slab-first, then
//! tail, each preserving the CSR storage order. A consumer that folds the
//! slab prefix left-to-right and then applies tail entries in storage
//! order reproduces the CSR row fold *exactly* — the bitwise-equality
//! hook the format-generic kernels rely on.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::ell::PAD;
use crate::format::FormatStats;

/// A hybrid matrix: `rows × width` ELL slab plus a COO spill tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Hybrid<V = f32> {
    rows: usize,
    cols: usize,
    width: usize,
    slab_cols: Vec<u32>,
    slab_vals: Vec<V>,
    tail: Coo<V>,
}

impl<V: Copy + Default> Hybrid<V> {
    /// Split a CSR matrix at the given slab width: each row's first
    /// `min(len, width)` entries go to the slab (padded with
    /// [`PAD`]), the rest spill to the tail in storage order.
    pub fn from_csr(csr: &Csr<V>, width: usize) -> Self {
        let rows = csr.rows();
        let slots = rows * width;
        let mut slab_cols = vec![PAD; slots];
        let mut slab_vals = vec![V::default(); slots];
        let mut tail_rows = Vec::new();
        let mut tail_cols = Vec::new();
        let mut tail_vals = Vec::new();
        for r in 0..rows {
            let (cols, vals) = csr.row(r);
            let keep = cols.len().min(width);
            let base = r * width;
            slab_cols[base..base + keep].copy_from_slice(&cols[..keep]);
            slab_vals[base..base + keep].copy_from_slice(&vals[..keep]);
            for i in keep..cols.len() {
                tail_rows.push(r as u32);
                tail_cols.push(cols[i]);
                tail_vals.push(vals[i]);
            }
        }
        let tail = Coo::from_parts(rows, csr.cols(), tail_rows, tail_cols, tail_vals)
            .expect("tail entries are in-bounds by construction");
        Self {
            rows,
            cols: csr.cols(),
            width,
            slab_cols,
            slab_vals,
            tail,
        }
    }

    /// Split at the stats-driven width ([`FormatStats::hybrid_width`]).
    pub fn from_csr_auto(csr: &Csr<V>) -> Self {
        Self::from_csr(csr, FormatStats::of(csr).hybrid_width)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slab width (slots per row).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total slab slots including padding.
    pub fn slab_slots(&self) -> usize {
        self.slab_cols.len()
    }

    /// Stored (non-padded) slab entries.
    pub fn slab_nnz(&self) -> usize {
        self.slab_cols.iter().filter(|&&c| c != PAD).count()
    }

    /// Entries in the spill tail.
    pub fn tail_nnz(&self) -> usize {
        self.tail.nnz()
    }

    /// Total stored entries (slab + tail).
    pub fn nnz(&self) -> usize {
        self.slab_nnz() + self.tail_nnz()
    }

    /// Padded slab column-index array (`rows × width`, [`PAD`] marks
    /// unused slots).
    pub fn slab_col_indices(&self) -> &[u32] {
        &self.slab_cols
    }

    /// Padded slab values array (`rows × width`).
    pub fn slab_values(&self) -> &[V] {
        &self.slab_vals
    }

    /// The spill tail, row-major in the source matrix's storage order.
    pub fn tail(&self) -> &Coo<V> {
        &self.tail
    }

    /// The slab slot range of row `r`.
    pub fn row_slots(&self, r: usize) -> std::ops::Range<usize> {
        r * self.width..(r + 1) * self.width
    }

    /// Convert back to CSR: slab prefix then tail entries per row, in
    /// storage order (the inverse of [`from_csr`](Self::from_csr)).
    pub fn to_csr(&self) -> Csr<V> {
        let mut row_offsets = vec![0usize; self.rows + 1];
        for r in 0..self.rows {
            let stored = self.row_slots(r).filter(|&s| self.slab_cols[s] != PAD).count();
            row_offsets[r + 1] = stored;
        }
        for &r in self.tail.row_indices() {
            row_offsets[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        let nnz = row_offsets[self.rows];
        let mut col_indices = vec![0u32; nnz];
        let mut values = vec![V::default(); nnz];
        let mut cursor: Vec<usize> = row_offsets[..self.rows].to_vec();
        for r in 0..self.rows {
            for s in self.row_slots(r) {
                if self.slab_cols[s] != PAD {
                    col_indices[cursor[r]] = self.slab_cols[s];
                    values[cursor[r]] = self.slab_vals[s];
                    cursor[r] += 1;
                }
            }
        }
        for (r, c, v) in self.tail.iter() {
            col_indices[cursor[r as usize]] = c;
            values[cursor[r as usize]] = v;
            cursor[r as usize] += 1;
        }
        Csr::from_parts(self.rows, self.cols, row_offsets, col_indices, values)
            .expect("hybrid entries are in-bounds by construction")
    }
}

impl Hybrid<f32> {
    /// Reference sequential SpMV over the split layout (slab pass, then
    /// tail scatter), accumulating in f64 like the other references.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0f64; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            for s in self.row_slots(r) {
                let c = self.slab_cols[s];
                if c != PAD {
                    *yr += f64::from(self.slab_vals[s]) * f64::from(x[c as usize]);
                }
            }
        }
        for (r, c, v) in self.tail.iter() {
            y[r as usize] += f64::from(v) * f64::from(x[c as usize]);
        }
        y.into_iter().map(|v| v as f32).collect()
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
    fn splits_at_the_requested_width() {
        let h = Hybrid::from_csr(&sample(), 2);
        assert_eq!(h.width(), 2);
        assert_eq!(h.slab_slots(), 6);
        assert_eq!(h.slab_nnz(), 4); // rows 0 and 2 keep 2 each
        assert_eq!(h.tail_nnz(), 1); // row 2 spills its third entry
        assert_eq!(h.nnz(), sample().nnz());
        let entries: Vec<_> = h.tail().iter().collect();
        assert_eq!(entries, vec![(2, 3, 5.0)]);
    }

    #[test]
    fn width_zero_is_all_tail() {
        let h = Hybrid::from_csr(&sample(), 0);
        assert_eq!(h.slab_nnz(), 0);
        assert_eq!(h.tail_nnz(), 5);
        assert_eq!(h.to_csr(), sample());
    }

    #[test]
    fn wide_slab_has_empty_tail() {
        let h = Hybrid::from_csr(&sample(), 3);
        assert_eq!(h.tail_nnz(), 0);
        assert_eq!(h.slab_nnz(), 5);
        assert_eq!(h.to_csr(), sample());
    }

    #[test]
    fn roundtrips_through_csr_at_every_width() {
        let a = crate::gen::powerlaw(100, 100, 1_200, 1.8, 21);
        for w in [0, 1, 3, 7, 50] {
            assert_eq!(Hybrid::from_csr(&a, w).to_csr(), a, "width {w}");
        }
        assert_eq!(Hybrid::from_csr_auto(&a).to_csr(), a);
    }

    #[test]
    fn tail_is_canonical_for_sorted_sources() {
        // CSR rows are canonical, so the spill tail inherits canonical
        // row-major order at any width — the property the COO tile
        // adapter and the scatter pass's fold-order contract rely on.
        let a = crate::gen::powerlaw(150, 150, 2_000, 1.7, 33);
        let auto = Hybrid::from_csr_auto(&a);
        for h in [auto, Hybrid::from_csr(&a, 0), Hybrid::from_csr(&a, 3)] {
            assert!(h.tail_nnz() > 0, "width {} must spill", h.width());
            assert!(h.tail().is_canonical(), "width {}", h.width());
        }
    }

    #[test]
    fn spmv_matches_csr_reference() {
        let a = crate::gen::powerlaw(120, 120, 1_500, 1.8, 44);
        let x = crate::dense::test_vector(120);
        let want = a.spmv_ref(&x);
        for w in [0, 2, 9] {
            let h = Hybrid::from_csr(&a, w);
            let got = h.spmv_ref(&x);
            for (g, w_) in got.iter().zip(&want) {
                assert!((g - w_).abs() <= 1e-5 * w_.abs().max(1.0));
            }
        }
    }

    #[test]
    fn auto_split_uses_the_stats_width_and_stays_narrow() {
        let a = crate::gen::powerlaw(200, 200, 3_000, 1.8, 12);
        let h = Hybrid::from_csr_auto(&a);
        let s = FormatStats::of(&a);
        assert_eq!(h.width(), s.hybrid_width);
        assert_eq!(h.tail_nnz(), s.hybrid_spill);
        // The slab stays far denser than full ELL would be: the power
        // law's hub rows live in the tail, not as padding on every row.
        assert!(h.width() < s.max_row);
        assert!((h.width() as f64) < 4.0 * s.mean, "width {} mean {}", h.width(), s.mean);
    }

    #[test]
    fn empty_matrix() {
        let h = Hybrid::<f32>::from_csr_auto(&Csr::empty(4, 4));
        assert_eq!(h.width(), 0);
        assert_eq!(h.nnz(), 0);
        assert_eq!(h.spmv_ref(&[0.0; 4]), vec![0.0; 4]);
    }
}
