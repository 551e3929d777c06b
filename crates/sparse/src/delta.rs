//! Streaming graph mutation: edge-delta batches over CSR.
//!
//! Dynamic-graph workloads (evolving web/social graphs, incremental
//! analytics) mutate their matrix *between* requests: edges arrive,
//! edges vanish, weights drift. This module provides the substrate the
//! serving runtime's streaming layer builds on:
//!
//! * [`DeltaBatch`] — a batch of edge inserts (upserts) and deletes;
//! * [`apply_in_place`] — a deterministic **rebuild-or-patch** applier:
//!   a batch that only overwrites existing entries patches the value
//!   array in place, finding each slot by binary search in its
//!   canonical row (the sparsity pattern — and therefore every
//!   pattern-keyed plan — survives), while any structural change
//!   rebuilds the CSR arrays in O(nnz + batch · log batch): rows the
//!   batch does not name are copied as whole ranges, and each named row
//!   is merged with its sorted, de-duplicated edits;
//! * [`EvolvingStream`] — a seeded edge-stream generator whose inserts
//!   follow preferential attachment, so an evolving power-law graph
//!   *stays* power-law as it drifts (the Graph500/Gunrock streaming
//!   setting: hubs keep accreting edges while the tail churns).
//!
//! Costs are modeled, not measured: applying a delta is a streaming
//! pass over the touched elements at device bandwidth, using the same
//! per-element charge as format conversion
//! (`kernels::formats::CONVERT_MS_PER_ELEMENT` is derived identically),
//! so benches comparing incremental patching against full recompute
//! charge both sides from one deterministic price list.

use std::cmp::Ordering;

use crate::csr::Csr;
use crate::error::{Error, Result};
use crate::rng::Prng;

/// Modeled cost per element moved while applying a delta or rebuilding
/// a matrix, in simulated milliseconds: a streaming permutation moves
/// ~24 bytes per element (read the triplet, write the new layout) at
/// ~900 GB/s device bandwidth ≈ 2.5 × 10⁻⁸ ms. Matches the format
/// conversion charge so incremental-vs-full comparisons are apples to
/// apples.
pub const APPLY_MS_PER_ELEMENT: f64 = 2.5e-8;

/// Modeled cost of building a matrix of `nnz` entries from scratch (the
/// full-recompute arm's ingest charge).
pub fn rebuild_ms(nnz: usize) -> f64 {
    nnz as f64 * APPLY_MS_PER_ELEMENT
}

/// One batch of edge mutations, applied atomically: all deletes first,
/// then all inserts in order (so a delete + insert of the same
/// coordinate in one batch is an overwrite, and a later insert of a
/// coordinate wins over an earlier one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// Edge upserts `(row, col, value)`: a coordinate already present
    /// has its value overwritten; a new coordinate is inserted.
    pub inserts: Vec<(u32, u32, f32)>,
    /// Edge deletes `(row, col)`: a missing coordinate is a no-op
    /// (idempotent, so replayed streams never fail).
    pub deletes: Vec<(u32, u32)>,
}

impl DeltaBatch {
    /// Total mutation count in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// True if the batch mutates nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Which path [`apply_in_place`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyPath {
    /// Every mutation was a value overwrite of an existing entry: the
    /// value array was patched in place and the sparsity pattern — and
    /// so the matrix's fingerprint and every pattern-keyed plan — is
    /// unchanged. (The value epoch still advances: value caches must
    /// and do notice.)
    Patched,
    /// The batch changed the pattern (or deleted anything): the CSR
    /// arrays were rebuilt, copying the rows the batch does not name and
    /// merging each named row with its edits. The rebuild is a new
    /// construction with a new structure id, even when nothing changed.
    Rebuilt,
}

/// Outcome of one [`apply_in_place`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaApply {
    /// Patch or rebuild.
    pub path: ApplyPath,
    /// Elements moved: the batch size for a patch, old nnz + batch for
    /// a rebuild (every surviving entry is copied once, every mutation
    /// is visited once).
    pub touched: usize,
    /// Modeled apply cost, `touched ×` [`APPLY_MS_PER_ELEMENT`].
    pub apply_ms: f64,
}

/// Apply `batch` to `a`, choosing deterministically between patching
/// values in place and rebuilding the CSR arrays.
///
/// The **patch** path is taken iff the batch has no deletes and every
/// insert's coordinate is already present (found by binary search in
/// its row): then only `values` changes, and the matrix's sparsity
/// pattern (fingerprint, plans, tile geometry) provably survives.
/// Anything else takes the **rebuild** path: deletes drop entries,
/// inserts of new coordinates splice in at their sorted column, and
/// existing coordinates named by an insert are overwritten.
///
/// Errors with [`Error::Invalid`] if any batch coordinate lies outside
/// the matrix shape — shape never changes under streaming mutation.
pub fn apply_in_place(a: &mut Csr<f32>, batch: &DeltaBatch) -> Result<DeltaApply> {
    let (rows, cols) = (a.rows() as u32, a.cols() as u32);
    for &(r, c, _) in &batch.inserts {
        if r >= rows || c >= cols {
            return Err(Error::Invalid(format!(
                "delta insert ({r}, {c}) outside {rows}×{cols} matrix"
            )));
        }
    }
    for &(r, c) in &batch.deletes {
        if r >= rows || c >= cols {
            return Err(Error::Invalid(format!(
                "delta delete ({r}, {c}) outside {rows}×{cols} matrix"
            )));
        }
    }
    if batch.is_empty() {
        return Ok(DeltaApply {
            path: ApplyPath::Patched,
            touched: 0,
            apply_ms: 0.0,
        });
    }

    // Locate each insert's slot; all found + no deletes → pure patch.
    let slots: Option<Vec<usize>> = if batch.deletes.is_empty() {
        batch
            .inserts
            .iter()
            .map(|&(r, c, _)| {
                let range = a.row_range(r as usize);
                a.col_indices()[range.clone()]
                    .binary_search(&c)
                    .ok()
                    .map(|off| range.start + off)
            })
            .collect()
    } else {
        None
    };

    if let Some(slots) = slots {
        let vals = a.values_mut(); // mints a fresh value epoch
        for (slot, &(_, _, v)) in slots.iter().zip(&batch.inserts) {
            vals[*slot] = v;
        }
        let touched = batch.inserts.len();
        return Ok(DeltaApply {
            path: ApplyPath::Patched,
            touched,
            apply_ms: touched as f64 * APPLY_MS_PER_ELEMENT,
        });
    }

    let touched = a.nnz() + batch.len();
    *a = rebuild(a, &batch_edits(batch));
    Ok(DeltaApply {
        path: ApplyPath::Rebuilt,
        touched,
        apply_ms: touched as f64 * APPLY_MS_PER_ELEMENT,
    })
}

/// The batch's net effect per coordinate, sorted by (row, col): `None`
/// deletes, `Some(v)` upserts. Deletes are listed before inserts and
/// the sort is stable, so the last edit of a coordinate is its net one.
fn batch_edits(batch: &DeltaBatch) -> Vec<(u32, u32, Option<f32>)> {
    let mut edits: Vec<(u32, u32, Option<f32>)> = batch
        .deletes
        .iter()
        .map(|&(r, c)| (r, c, None))
        .chain(batch.inserts.iter().map(|&(r, c, v)| (r, c, Some(v))))
        .collect();
    edits.sort_by_key(|&(r, c, _)| (r, c));
    let mut net: Vec<(u32, u32, Option<f32>)> = Vec::with_capacity(edits.len());
    for e in edits {
        match net.last_mut() {
            Some(last) if (last.0, last.1) == (e.0, e.1) => *last = e,
            _ => net.push(e),
        }
    }
    net
}

/// `a` with `edits` (sorted, one per coordinate) applied: the row
/// ranges between named rows are copied whole with their offsets
/// shifted, and each named row is merged with its edits.
fn rebuild(a: &Csr<f32>, edits: &[(u32, u32, Option<f32>)]) -> Csr<f32> {
    let (offs, cols, vals) = (a.row_offsets(), a.col_indices(), a.values());
    let mut row_offsets = Vec::with_capacity(a.rows() + 1);
    let mut col_indices = Vec::with_capacity(a.nnz() + edits.len());
    let mut values = Vec::with_capacity(a.nnz() + edits.len());
    row_offsets.push(0);
    let mut named = edits.chunk_by(|x, y| x.0 == y.0);
    let mut next_row = 0;
    loop {
        let row_edits = named.next();
        let r = row_edits.map_or(a.rows(), |e| e[0].0 as usize);
        let (old, new) = (offs[next_row], col_indices.len());
        col_indices.extend_from_slice(&cols[old..offs[r]]);
        values.extend_from_slice(&vals[old..offs[r]]);
        row_offsets.extend(offs[next_row + 1..=r].iter().map(|&o| o - old + new));
        let Some(row_edits) = row_edits else { break };
        let range = a.row_range(r);
        let (old_cols, old_vals) = (&cols[range.clone()], &vals[range]);
        let (mut i, mut j) = (0, 0);
        loop {
            // Less: a stored entry no edit names. Equal: an edit of a
            // stored entry. Greater: an edit of an absent coordinate.
            let order = match (old_cols.get(i), row_edits.get(j)) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(c), Some(e)) => c.cmp(&e.1),
            };
            let entry = match order {
                Ordering::Less => Some((old_cols[i], old_vals[i])),
                _ => row_edits[j].2.map(|v| (row_edits[j].1, v)),
            };
            if let Some((c, v)) = entry {
                col_indices.push(c);
                values.push(v);
            }
            i += usize::from(order != Ordering::Greater);
            j += usize::from(order != Ordering::Less);
        }
        row_offsets.push(col_indices.len());
        next_row = r + 1;
    }
    Csr::from_parts(a.rows(), a.cols(), row_offsets, col_indices, values)
        .expect("a merge of canonical rows with sorted unique edits is canonical")
}

/// A seeded generator of mutation batches that keeps an evolving graph
/// power-law: insert endpoints are drawn by **preferential attachment**
/// (sample a stored nonzero uniformly and take its row/column — a
/// degree-proportional draw — with a small uniform-teleport mix so cold
/// rows can ignite), deletes are uniform over stored edges (hub edges
/// churn in proportion to their mass, the tail decays).
///
/// Deterministic: the same seed and the same sequence of matrix states
/// reproduce the same batches bitwise.
#[derive(Debug)]
pub struct EvolvingStream {
    rng: Prng,
    /// Fraction of each batch that inserts (the rest deletes); clamped
    /// to `[0, 1]`.
    insert_frac: f64,
    /// Probability an insert endpoint is drawn uniformly instead of
    /// preferentially.
    teleport: f64,
}

impl EvolvingStream {
    /// A stream with its own seeded generator. `insert_frac` is the
    /// insert share of every batch (1.0 = pure growth, 0.5 = churn).
    pub fn new(seed: u64, insert_frac: f64) -> Self {
        Self {
            rng: Prng::seed_from_u64(seed),
            insert_frac: insert_frac.clamp(0.0, 1.0),
            teleport: 0.2,
        }
    }

    /// Draw the next batch of `size` mutations against the current
    /// matrix state. Inserts may name existing coordinates (an upsert —
    /// weight drift); deletes always name stored edges when any exist.
    pub fn next_batch(&mut self, a: &Csr<f32>, size: usize) -> DeltaBatch {
        let mut batch = DeltaBatch::default();
        if a.rows() == 0 || a.cols() == 0 {
            return batch;
        }
        let n_inserts = ((size as f64) * self.insert_frac).round() as usize;
        for _ in 0..n_inserts {
            let r = self.endpoint(a, true);
            let c = self.endpoint(a, false);
            let v = self.rng.f32_range(0.1, 1.0);
            batch.inserts.push((r, c, v));
        }
        for _ in n_inserts..size {
            if a.nnz() == 0 {
                break;
            }
            let atom = self.rng.index(0, a.nnz());
            let r = row_of_atom(a, atom);
            let c = a.col_indices()[atom];
            batch.deletes.push((r as u32, c));
        }
        batch
    }

    /// One endpoint draw: preferential (via a uniformly sampled stored
    /// atom) with a uniform-teleport mix.
    fn endpoint(&mut self, a: &Csr<f32>, row_side: bool) -> u32 {
        let bound = if row_side { a.rows() } else { a.cols() };
        if a.nnz() == 0 || self.rng.chance(self.teleport) {
            return self.rng.index(0, bound) as u32;
        }
        let atom = self.rng.index(0, a.nnz());
        if row_side {
            row_of_atom(a, atom) as u32
        } else {
            a.col_indices()[atom]
        }
    }
}

/// The row containing stored-entry index `atom` (binary search over the
/// row-offset array).
fn row_of_atom(a: &Csr<f32>, atom: usize) -> usize {
    debug_assert!(atom < a.nnz());
    let offs = a.row_offsets();
    // partition_point: first row whose offset exceeds `atom`, minus 1.
    offs.partition_point(|&o| o <= atom) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f32> {
        // [1 0 2 0]
        // [0 0 0 0]
        // [3 4 0 5]
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
    fn value_only_batch_patches_in_place() {
        let mut a = sample();
        let offsets_before = a.row_offsets().to_vec();
        let epoch_before = a.value_epoch();
        let id_before = a.structure_id();
        let batch = DeltaBatch {
            inserts: vec![(0, 2, 20.0), (2, 1, 40.0)],
            deletes: vec![],
        };
        let out = apply_in_place(&mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Patched);
        assert_eq!(out.touched, 2);
        assert_eq!(a.row_offsets(), &offsets_before[..]);
        assert_eq!(a.values(), &[1.0, 20.0, 3.0, 40.0, 5.0]);
        assert_ne!(a.value_epoch(), epoch_before, "patch must bump the epoch");
        assert_eq!(a.structure_id(), id_before, "patch keeps the id");
    }

    #[test]
    fn structural_batch_rebuilds_and_merges() {
        let mut a = sample();
        let id_before = a.structure_id();
        let batch = DeltaBatch {
            inserts: vec![(1, 1, 7.0), (0, 2, 9.0)],
            deletes: vec![(2, 1), (0, 0)],
        };
        let out = apply_in_place(&mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Rebuilt);
        let want = Csr::from_triplets(
            3,
            4,
            vec![(0u32, 2u32, 9.0f32), (1, 1, 7.0), (2, 0, 3.0), (2, 3, 5.0)],
        )
        .unwrap();
        assert_eq!(a, want);
        assert_eq!(out.touched, 5 + 4);
        assert_ne!(a.structure_id(), id_before, "rebuild mints a new id");
    }

    #[test]
    fn delete_of_missing_edge_is_a_noop_but_still_rebuilds() {
        let mut a = sample();
        let before = a.clone();
        let batch = DeltaBatch {
            inserts: vec![],
            deletes: vec![(1, 1)],
        };
        let out = apply_in_place(&mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Rebuilt);
        assert_eq!(a, before);
    }

    #[test]
    fn delete_then_insert_same_coordinate_is_overwrite() {
        let mut a = sample();
        let batch = DeltaBatch {
            inserts: vec![(0, 0, 5.5)],
            deletes: vec![(0, 0)],
        };
        apply_in_place(&mut a, &batch).unwrap();
        assert_eq!(a.row(0).1, &[5.5, 2.0]);
        // Later insert of the same coordinate wins.
        let mut b = sample();
        let batch = DeltaBatch {
            inserts: vec![(1, 3, 1.0), (1, 3, 2.0)],
            deletes: vec![],
        };
        apply_in_place(&mut b, &batch).unwrap();
        assert_eq!(b.row(1).1, &[2.0]);
    }

    #[test]
    fn rebuild_keeps_summed_duplicates_of_rows_it_does_not_name() {
        // Row 0 is assembled from two entries at (0, 1); assembly sums
        // them, and a batch that names only row 1 must leave the sum.
        let mut a = Csr::from_triplets(2, 2, vec![(0u32, 1u32, 1.0f32), (0, 1, 2.0)]).unwrap();
        let batch = DeltaBatch {
            inserts: vec![(1, 0, 4.0)],
            deletes: vec![],
        };
        let out = apply_in_place(&mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Rebuilt);
        assert_eq!(a.spmv_ref(&[1.0, 1.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn out_of_bounds_coordinates_are_rejected() {
        let mut a = sample();
        let bad_insert = DeltaBatch {
            inserts: vec![(9, 0, 1.0)],
            deletes: vec![],
        };
        assert!(apply_in_place(&mut a, &bad_insert).is_err());
        let bad_delete = DeltaBatch {
            inserts: vec![],
            deletes: vec![(0, 9)],
        };
        assert!(apply_in_place(&mut a, &bad_delete).is_err());
        // The failed applies changed nothing.
        assert_eq!(a, sample());
    }

    #[test]
    fn empty_batch_is_free() {
        let mut a = sample();
        let out = apply_in_place(&mut a, &DeltaBatch::default()).unwrap();
        assert_eq!(out.touched, 0);
        assert_eq!(out.apply_ms, 0.0);
        assert_eq!(a, sample());
    }

    #[test]
    fn row_of_atom_inverts_row_offsets() {
        let a = sample();
        let rows: Vec<usize> = (0..a.nnz()).map(|i| row_of_atom(&a, i)).collect();
        assert_eq!(rows, vec![0, 0, 2, 2, 2]);
    }

    #[test]
    fn evolving_stream_is_deterministic_and_in_bounds() {
        let a = crate::gen::powerlaw(400, 400, 6_000, 1.8, 42);
        let run = || {
            let mut s = EvolvingStream::new(7, 0.7);
            let mut m = a.clone();
            let mut sizes = Vec::new();
            for _ in 0..5 {
                let b = s.next_batch(&m, 64);
                assert!(b
                    .inserts
                    .iter()
                    .all(|&(r, c, _)| (r as usize) < m.rows() && (c as usize) < m.cols()));
                assert!(b
                    .deletes
                    .iter()
                    .all(|&(r, c)| (r as usize) < m.rows() && (c as usize) < m.cols()));
                apply_in_place(&mut m, &b).unwrap();
                sizes.push((m.nnz(), b.inserts.len(), b.deletes.len()));
            }
            (sizes, m)
        };
        let (s1, m1) = run();
        let (s2, m2) = run();
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn preferential_inserts_keep_the_tail_heavy() {
        // After sustained growth, hub rows must keep a disproportionate
        // share: the max row length should grow at least as fast as the
        // mean (preferential attachment preserves skew).
        let mut a = crate::gen::powerlaw(500, 500, 8_000, 1.8, 9);
        let cv_before = crate::stats::RowStats::of(&a).cv;
        let mut s = EvolvingStream::new(11, 1.0);
        for _ in 0..20 {
            let b = s.next_batch(&a, 256);
            apply_in_place(&mut a, &b).unwrap();
        }
        let cv_after = crate::stats::RowStats::of(&a).cv;
        assert!(
            cv_after > 0.5 * cv_before,
            "skew collapsed: cv {cv_before:.3} → {cv_after:.3}"
        );
    }
}
