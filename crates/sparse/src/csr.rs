//! Compressed Sparse Row storage.
//!
//! The format at the heart of the paper's examples (Listing 1): three
//! arrays — row offsets, column indices, values. Rows are the paper's
//! *work tiles*; nonzeros are its *work atoms*; the whole matrix is the
//! *tile set* (§3.1).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Error, Result};

/// Process-global source of structure ids and value epochs (see
/// [`Csr::structure_id`] and [`Csr::value_epoch`]).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// A globally fresh token — never handed out twice in one process.
fn fresh_token() -> u64 {
    NEXT_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// A CSR sparse matrix with `V`-typed values.
#[derive(Debug, Clone)]
pub struct Csr<V = f32> {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<V>,
    /// Row-structure identity, minted at construction and never
    /// re-minted: no `&mut` access reaches the shape, offsets or
    /// columns, so the structure a `structure_id` names never changes.
    structure_id: u64,
    /// Value-content epoch, minted at construction and re-minted by
    /// [`Csr::values_mut`], the only `&mut` access there is.
    value_epoch: u64,
}

/// Equality is about matrix content: the structure id and the value
/// epoch are left out, since distinct constructions of one matrix get
/// distinct ones.
impl<V: PartialEq> PartialEq for Csr<V> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_offsets == other.row_offsets
            && self.col_indices == other.col_indices
            && self.values == other.values
    }
}

impl<V: Copy> Csr<V> {
    /// Build from raw parts, validating every CSR invariant.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_offsets: Vec<usize>,
        col_indices: Vec<u32>,
        values: Vec<V>,
    ) -> Result<Self> {
        if row_offsets.len() != rows + 1 {
            return Err(Error::Invalid(format!(
                "row_offsets has {} entries, expected rows+1 = {}",
                row_offsets.len(),
                rows + 1
            )));
        }
        if row_offsets.first() != Some(&0) {
            return Err(Error::Invalid("row_offsets must start at 0".into()));
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Error::Invalid("row_offsets must be non-decreasing".into()));
        }
        let nnz = *row_offsets.last().expect("len >= 1");
        if col_indices.len() != nnz || values.len() != nnz {
            return Err(Error::Invalid(format!(
                "nnz mismatch: offsets say {nnz}, indices {} values {}",
                col_indices.len(),
                values.len()
            )));
        }
        if col_indices.iter().any(|&c| c as usize >= cols) {
            return Err(Error::Invalid("column index out of bounds".into()));
        }
        Ok(Self {
            rows,
            cols,
            row_offsets,
            col_indices,
            values,
            structure_id: fresh_token(),
            value_epoch: fresh_token(),
        })
    }

    /// An empty `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_offsets: vec![0; rows + 1],
            col_indices: Vec::new(),
            values: Vec::new(),
            structure_id: fresh_token(),
            value_epoch: fresh_token(),
        }
    }

    /// Build from (row, col, value) triplets, sorted row-major. Duplicate
    /// coordinates are kept, adjacent, not summed — use [`crate::Coo`]
    /// if you need dedup-with-sum semantics.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(u32, u32, V)>,
    ) -> Result<Self> {
        triplets.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_offsets = vec![0usize; rows + 1];
        let mut col_indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for &(r, c, v) in &triplets {
            if r as usize >= rows {
                return Err(Error::Invalid(format!("row index {r} out of bounds")));
            }
            row_offsets[r as usize + 1] += 1;
            col_indices.push(c);
            values.push(v);
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        Self::from_parts(rows, cols, row_offsets, col_indices, values)
    }

    /// Number of rows (work tiles).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros (work atoms).
    pub fn nnz(&self) -> usize {
        self.col_indices.len()
    }

    /// The row-offsets array (`rows + 1` entries).
    pub fn row_offsets(&self) -> &[usize] {
        &self.row_offsets
    }

    /// The column-indices array (`nnz` entries).
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// The values array (`nnz` entries).
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Mutable values, the only `&mut` access to a `Csr`: the row
    /// structure stays fixed. Mints a fresh
    /// [`value epoch`](Self::value_epoch), so any cache holding derived
    /// value data for this matrix sees its entry invalidated.
    pub fn values_mut(&mut self) -> &mut [V] {
        self.value_epoch = fresh_token();
        &mut self.values
    }

    /// The matrix's row-structure identity: shape, row offsets and
    /// column indices. Process-globally unique at construction, shared
    /// by clones, and kept by [`Self::values_mut`], so *equal ids imply
    /// equal structure* — an exact key for caches of pattern-derived
    /// data. A rebuild is a new construction and gets a new id, even
    /// for the same content.
    pub fn structure_id(&self) -> u64 {
        self.structure_id
    }

    /// The matrix's value-content epoch. Process-globally unique at
    /// construction and re-minted by every [`Self::values_mut`]. Clones
    /// share their source's epoch, so *equal epochs imply equal
    /// structure and equal values* — an exact key for caches of
    /// value-dependent data. A false mismatch (the same content built
    /// twice) only costs a recomputation.
    pub fn value_epoch(&self) -> u64 {
        self.value_epoch
    }

    /// Nonzero count of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row_offsets[r + 1] - self.row_offsets[r]
    }

    /// The half-open atom range `[start, end)` of row `r`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r]..self.row_offsets[r + 1]
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[u32], &[V]) {
        let range = self.row_range(r);
        (&self.col_indices[range.clone()], &self.values[range])
    }

    /// Iterate `(row, col, value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, V)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Lengths of every row — the paper's "atoms per tile" sequence.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.rows).map(|r| self.row_len(r)).collect()
    }

    /// Approximate device-memory footprint in bytes (offsets as 4-byte on
    /// device, indices 4-byte, values `size_of::<V>()`).
    pub fn device_bytes(&self) -> u64 {
        (4 * (self.rows + 1) + 4 * self.nnz() + std::mem::size_of::<V>() * self.nnz()) as u64
    }

    /// Extract the contiguous row block `rows_range` as its own matrix
    /// (offsets rebased to zero, column space unchanged) — the unit of a
    /// 1-D multi-device partition.
    pub fn row_slice(&self, rows_range: std::ops::Range<usize>) -> Csr<V> {
        assert!(
            rows_range.start <= rows_range.end && rows_range.end <= self.rows,
            "row slice out of bounds"
        );
        let base = self.row_offsets[rows_range.start];
        let end = self.row_offsets[rows_range.end];
        let row_offsets: Vec<usize> = self.row_offsets[rows_range.start..=rows_range.end]
            .iter()
            .map(|&o| o - base)
            .collect();
        Csr {
            rows: rows_range.len(),
            cols: self.cols,
            row_offsets,
            col_indices: self.col_indices[base..end].to_vec(),
            values: self.values[base..end].to_vec(),
            structure_id: fresh_token(),
            value_epoch: fresh_token(),
        }
    }
}

impl Csr<f32> {
    /// Reference sequential SpMV: `y = A·x`. Ground truth for every test
    /// and every simulated kernel validation.
    pub fn spmv_ref(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "x must have one entry per column");
        let mut y = vec![0.0f32; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut sum = 0.0f64; // accumulate in f64 to stabilize the reference
            for (&c, &v) in cols.iter().zip(vals) {
                sum += f64::from(v) * f64::from(x[c as usize]);
            }
            *yr = sum as f32;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3×4 example:
    /// ```text
    /// [1 0 2 0]
    /// [0 0 0 0]
    /// [3 4 0 5]
    /// ```
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
    fn accessors_agree_with_structure() {
        let a = sample();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.row_len(0), 2);
        assert_eq!(a.row_len(1), 0);
        assert_eq!(a.row_len(2), 3);
        assert_eq!(a.row_range(2), 2..5);
        let (c, v) = a.row(2);
        assert_eq!(c, &[0, 1, 3]);
        assert_eq!(v, &[3.0, 4.0, 5.0]);
        assert_eq!(a.row_lengths(), vec![2, 0, 3]);
    }

    #[test]
    fn iter_yields_all_entries_in_row_major_order() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(
            entries,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (2, 0, 3.0),
                (2, 1, 4.0),
                (2, 3, 5.0)
            ]
        );
    }

    #[test]
    fn from_triplets_sorts_and_matches() {
        let t = vec![
            (2u32, 3u32, 5.0f32),
            (0, 0, 1.0),
            (2, 0, 3.0),
            (0, 2, 2.0),
            (2, 1, 4.0),
        ];
        let a = Csr::from_triplets(3, 4, t).unwrap();
        assert_eq!(a, sample());
    }

    #[test]
    fn spmv_ref_computes_expected_product() {
        let a = sample();
        let y = a.spmv_ref(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0 + 6.0, 0.0, 3.0 + 8.0 + 20.0]);
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::<f32>::empty(5, 7);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.spmv_ref(&[0.0; 7]), vec![0.0; 5]);
    }

    #[test]
    fn invariants_are_enforced() {
        // wrong offsets length
        assert!(Csr::<f32>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // not starting at zero
        assert!(Csr::<f32>::from_parts(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // decreasing offsets
        assert!(
            Csr::<f32>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()
        );
        // column out of range
        assert!(Csr::<f32>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // nnz mismatch
        assert!(Csr::<f32>::from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // triplet row out of range
        assert!(Csr::from_triplets(1, 1, vec![(3u32, 0u32, 1.0f32)]).is_err());
    }

    #[test]
    #[should_panic(expected = "one entry per column")]
    fn spmv_ref_checks_x_length() {
        sample().spmv_ref(&[1.0]);
    }

    #[test]
    fn device_bytes_counts_all_arrays() {
        let a = sample();
        assert_eq!(a.device_bytes(), (4 * 4 + 4 * 5 + 4 * 5) as u64);
    }

    #[test]
    fn row_slice_rebases_offsets() {
        let a = sample();
        let s = a.row_slice(1..3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.row_offsets(), &[0, 0, 3]);
        assert_eq!(s.row(1).0, &[0, 1, 3]);
        // Full slice is identity; empty slice is empty.
        assert_eq!(a.row_slice(0..3), a);
        assert_eq!(a.row_slice(2..2).nnz(), 0);
    }

    #[test]
    fn row_slices_partition_spmv() {
        let a = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let full = a.spmv_ref(&x);
        let top = a.row_slice(0..2).spmv_ref(&x);
        let bot = a.row_slice(2..3).spmv_ref(&x);
        assert_eq!(&full[..2], &top[..]);
        assert_eq!(&full[2..], &bot[..]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_slice_bounds_checked() {
        let _ = sample().row_slice(1..9);
    }

    #[test]
    fn value_epoch_tracks_value_content() {
        let a = sample();
        // A clone holds identical values and structure, so it shares the
        // epoch and the structure id.
        let mut b = a.clone();
        assert_eq!(a.value_epoch(), b.value_epoch());
        assert_eq!(a.structure_id(), b.structure_id());
        // Mutating the clone mints a fresh epoch but keeps the structure
        // id; the original keeps its own epoch, and the two matrices are
        // now distinguishable in O(1).
        b.values_mut()[0] = 9.0;
        assert_ne!(a.value_epoch(), b.value_epoch());
        assert_eq!(a.structure_id(), b.structure_id());
        // Distinct constructions never share an epoch or an id, even when
        // the content is identical — a false mismatch only costs a cache
        // recomputation, never a stale serve.
        let c = sample();
        assert_ne!(a.value_epoch(), c.value_epoch());
        assert_ne!(a.structure_id(), c.structure_id());
        // Equality ignores the epoch: same content, equal matrices.
        assert_eq!(a, c);
        assert_ne!(a, b);
    }
}
