//! Coordinate (triplet) storage.
//!
//! The natural ingest format — MatrixMarket files are COO — and one of the
//! formats the paper's framework maps to atoms/tiles (§3.1: every stored
//! entry is an atom; a row is a tile).

use crate::error::{Error, Result};

/// A COO sparse matrix (parallel row/col/value arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<V = f32> {
    rows: usize,
    cols: usize,
    row_indices: Vec<u32>,
    col_indices: Vec<u32>,
    values: Vec<V>,
}

impl<V: Copy> Coo<V> {
    /// Build from parallel arrays, validating bounds and equal lengths.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_indices: Vec<u32>,
        col_indices: Vec<u32>,
        values: Vec<V>,
    ) -> Result<Self> {
        if row_indices.len() != col_indices.len() || row_indices.len() != values.len() {
            return Err(Error::Invalid(
                "row/col/value arrays must have equal length".into(),
            ));
        }
        if row_indices.iter().any(|&r| r as usize >= rows) {
            return Err(Error::Invalid("row index out of bounds".into()));
        }
        if col_indices.iter().any(|&c| c as usize >= cols) {
            return Err(Error::Invalid("column index out of bounds".into()));
        }
        Ok(Self {
            rows,
            cols,
            row_indices,
            col_indices,
            values,
        })
    }

    /// An empty `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_indices: Vec::new(),
            col_indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Append one entry (bounds-checked).
    pub fn push(&mut self, r: u32, c: u32, v: V) -> Result<()> {
        if r as usize >= self.rows || c as usize >= self.cols {
            return Err(Error::Invalid(format!("entry ({r},{c}) out of bounds")));
        }
        self.row_indices.push(r);
        self.col_indices.push(c);
        self.values.push(v);
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row index array.
    pub fn row_indices(&self) -> &[u32] {
        &self.row_indices
    }

    /// Column index array.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// Value array.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Iterate `(row, col, value)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, V)> + Clone + '_ {
        self.row_indices
            .iter()
            .zip(&self.col_indices)
            .zip(&self.values)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Sort entries into row-major order (stable by (row, col)).
    pub fn sort(&mut self) {
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        perm.sort_by_key(|&i| (self.row_indices[i], self.col_indices[i]));
        self.row_indices = perm.iter().map(|&i| self.row_indices[i]).collect();
        self.col_indices = perm.iter().map(|&i| self.col_indices[i]).collect();
        self.values = perm.iter().map(|&i| self.values[i]).collect();
    }

    /// `true` if entries are sorted row-major with no duplicate positions.
    pub fn is_canonical(&self) -> bool {
        (1..self.nnz()).all(|i| {
            let prev = (self.row_indices[i - 1], self.col_indices[i - 1]);
            let cur = (self.row_indices[i], self.col_indices[i]);
            prev < cur
        })
    }
}

impl<V: Copy + std::ops::AddAssign> Coo<V> {
    /// Sort and merge duplicate coordinates by summing their values.
    pub fn canonicalize(&mut self) {
        self.sort();
        let n = self.nnz();
        if n == 0 {
            return;
        }
        let mut w = 0usize;
        for i in 1..n {
            if self.row_indices[i] == self.row_indices[w]
                && self.col_indices[i] == self.col_indices[w]
            {
                let add = self.values[i];
                self.values[w] += add;
            } else {
                w += 1;
                self.row_indices[w] = self.row_indices[i];
                self.col_indices[w] = self.col_indices[i];
                self.values[w] = self.values[i];
            }
        }
        self.row_indices.truncate(w + 1);
        self.col_indices.truncate(w + 1);
        self.values.truncate(w + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f32> {
        Coo::from_parts(
            3,
            4,
            vec![2, 0, 2, 0, 2],
            vec![3, 0, 0, 2, 1],
            vec![5.0, 1.0, 3.0, 2.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Coo::<f32>::from_parts(2, 2, vec![0], vec![0, 1], vec![1.0]).is_err());
        assert!(Coo::<f32>::from_parts(2, 2, vec![5], vec![0], vec![1.0]).is_err());
        assert!(Coo::<f32>::from_parts(2, 2, vec![0], vec![5], vec![1.0]).is_err());
        assert!(sample().nnz() == 5);
    }

    #[test]
    fn push_checks_bounds() {
        let mut m = Coo::<f32>::empty(2, 2);
        assert!(m.push(1, 1, 3.0).is_ok());
        assert!(m.push(2, 0, 3.0).is_err());
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn sort_orders_row_major() {
        let mut m = sample();
        assert!(!m.is_canonical());
        m.sort();
        let entries: Vec<_> = m.iter().collect();
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
        assert!(m.is_canonical());
    }

    #[test]
    fn canonicalize_sums_duplicates() {
        let mut m = Coo::from_parts(
            2,
            2,
            vec![0, 1, 0, 0],
            vec![0, 1, 0, 1],
            vec![1.0f32, 2.0, 3.0, 4.0],
        )
        .unwrap();
        m.canonicalize();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 0, 4.0), (0, 1, 4.0), (1, 1, 2.0)]);
        assert!(m.is_canonical());
    }

    #[test]
    fn canonicalize_empty_is_noop() {
        let mut m = Coo::<f32>::empty(3, 3);
        m.canonicalize();
        assert_eq!(m.nnz(), 0);
    }
}
