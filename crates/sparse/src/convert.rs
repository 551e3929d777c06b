//! Conversions between sparse formats.

use crate::coo::Coo;
use crate::csc::Csc;
use crate::csr::Csr;

/// COO → CSR. Entries are sorted row-major; duplicate positions are kept
/// (call [`Coo::canonicalize`] first to merge them).
pub fn coo_to_csr<V: Copy>(coo: &Coo<V>) -> Csr<V> {
    let mut counts = vec![0usize; coo.rows() + 1];
    for &r in coo.row_indices() {
        counts[r as usize + 1] += 1;
    }
    for i in 0..coo.rows() {
        counts[i + 1] += counts[i];
    }
    let row_offsets = counts.clone();
    let nnz = coo.nnz();
    let mut cursor = counts;
    let mut col_indices = vec![0u32; nnz];
    let mut values: Vec<V> = Vec::with_capacity(nnz);
    // SAFETY-free scatter: fill with first value then overwrite.
    values.extend(coo.values().iter().copied());
    // Stable counting-sort scatter by row; within a row we then sort by col.
    for ((&r, &c), &v) in coo
        .row_indices()
        .iter()
        .zip(coo.col_indices())
        .zip(coo.values())
    {
        let dst = cursor[r as usize];
        col_indices[dst] = c;
        values[dst] = v;
        cursor[r as usize] += 1;
    }
    sort_rows_by_column(&row_offsets, &mut col_indices, &mut values);
    Csr::from_parts(coo.rows(), coo.cols(), row_offsets, col_indices, values)
        .expect("scatter preserves CSR invariants")
}

/// Sort each row segment of `cols`/`vals` by column (stable, so
/// duplicate coordinates keep their COO order).
fn sort_rows_by_column<V: Copy>(offsets: &[usize], cols: &mut [u32], vals: &mut [V]) {
    let mut scratch: Vec<(u32, V)> = Vec::new();
    for w in offsets.windows(2) {
        let range = w[0]..w[1];
        if range.len() <= 1 || cols[range.clone()].windows(2).all(|p| p[0] <= p[1]) {
            continue;
        }
        scratch.clear();
        scratch.extend(
            cols[range.clone()]
                .iter()
                .copied()
                .zip(vals[range.clone()].iter().copied()),
        );
        scratch.sort_by_key(|&(c, _)| c);
        for (dst, &(c, v)) in range.zip(&scratch) {
            cols[dst] = c;
            vals[dst] = v;
        }
    }
}

/// CSR → COO, in canonical row-major order.
pub fn csr_to_coo<V: Copy>(csr: &Csr<V>) -> Coo<V> {
    let mut rows = Vec::with_capacity(csr.nnz());
    let mut cols = Vec::with_capacity(csr.nnz());
    let mut vals = Vec::with_capacity(csr.nnz());
    for (r, c, v) in csr.iter() {
        rows.push(r);
        cols.push(c);
        vals.push(v);
    }
    Coo::from_parts(csr.rows(), csr.cols(), rows, cols, vals)
        .expect("CSR entries are in bounds by construction")
}

/// CSR → CSC (column-major compression of the same matrix).
pub fn csr_to_csc<V: Copy>(csr: &Csr<V>) -> Csc<V> {
    let mut counts = vec![0usize; csr.cols() + 1];
    for &c in csr.col_indices() {
        counts[c as usize + 1] += 1;
    }
    for i in 0..csr.cols() {
        counts[i + 1] += counts[i];
    }
    let col_offsets = counts.clone();
    let mut cursor = counts;
    let nnz = csr.nnz();
    let mut row_indices = vec![0u32; nnz];
    let mut values: Vec<V> = csr.values().to_vec();
    for (r, c, v) in csr.iter() {
        let dst = cursor[c as usize];
        row_indices[dst] = r;
        values[dst] = v;
        cursor[c as usize] += 1;
    }
    Csc::from_parts(csr.rows(), csr.cols(), col_offsets, row_indices, values)
        .expect("scatter preserves CSC invariants")
}

/// Transpose a CSR matrix (rows become columns) returning CSR.
pub fn transpose<V: Copy>(csr: &Csr<V>) -> Csr<V> {
    let csc = csr_to_csc(csr);
    Csr::from_parts(
        csr.cols(),
        csr.rows(),
        csc.col_offsets().to_vec(),
        csc.row_indices().to_vec(),
        csc.values().to_vec(),
    )
    .expect("CSC of A is CSR of A^T")
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
    fn csr_coo_roundtrip() {
        let a = sample();
        let coo = csr_to_coo(&a);
        assert!(coo.is_canonical());
        let back = coo_to_csr(&coo);
        assert_eq!(a, back);
    }

    #[test]
    fn coo_to_csr_sorts_unsorted_input() {
        let coo = Coo::from_parts(
            3,
            4,
            vec![2, 0, 2, 0, 2],
            vec![3, 2, 0, 0, 1],
            vec![5.0f32, 2.0, 3.0, 1.0, 4.0],
        )
        .unwrap();
        assert_eq!(coo_to_csr(&coo), sample());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = sample();
        assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transpose_swaps_dimensions_and_moves_entries() {
        let t = transpose(&sample());
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        // A[2,3] = 5 → T[3,2] = 5
        let (cols, vals) = t.row(3);
        assert_eq!(cols, &[2]);
        assert_eq!(vals, &[5.0]);
    }

    #[test]
    fn csc_spmv_equivalence_on_random_matrix() {
        use crate::gen;
        let a = gen::uniform(64, 48, 500, 7);
        let csc = csr_to_csc(&a);
        let x: Vec<f32> = (0..48).map(|i| (i as f32).sin()).collect();
        let y1 = a.spmv_ref(&x);
        let y2 = csc.spmv_ref(&x);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-4 * u.abs().max(1.0), "{u} vs {v}");
        }
    }
}
