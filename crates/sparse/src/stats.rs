//! Row-length distribution statistics — the quantitative face of the
//! paper's "load imbalance".
//!
//! A matrix whose rows have wildly different nonzero counts defeats
//! tile-per-thread scheduling (§1); these metrics let the corpus and the
//! experiment reports state *how* irregular each dataset is. The
//! coefficient of variation (CV) and the Gini coefficient of the
//! row-length distribution are the two standard summaries; `max/mean` is
//! the "longest pole" ratio that predicts thread-mapped worst cases.

use crate::csr::Csr;

/// Summary statistics of a row-length (atoms-per-tile) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowStats {
    /// Number of rows (tiles).
    pub rows: usize,
    /// Total nonzeros (atoms).
    pub nnz: usize,
    /// Shortest row.
    pub min: usize,
    /// Longest row.
    pub max: usize,
    /// Mean row length.
    pub mean: f64,
    /// Standard deviation of row lengths.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`; 0 for a regular
    /// matrix, ≳1 for power-law structure).
    pub cv: f64,
    /// Gini coefficient of row lengths (0 = perfectly even, → 1 = all
    /// atoms in one row).
    pub gini: f64,
    /// `max / mean` — the factor by which the longest pole exceeds the
    /// average tile.
    pub max_over_mean: f64,
    /// Fraction of rows that are empty.
    pub empty_frac: f64,
}

/// The moments of a row-length sequence: its total, longest row, mean,
/// standard deviation and coefficient of variation. Two passes over the
/// lengths, in row order, with no allocation or sort. [`RowStats`] is
/// built on it, so a caller that needs only these (the runtime's
/// plan-cache fingerprint) gets bit-for-bit the same values without
/// paying for the Gini coefficient.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RowMoments {
    /// Total nonzeros (atoms).
    pub nnz: usize,
    /// Longest row.
    pub max: usize,
    /// Mean row length.
    pub mean: f64,
    /// Standard deviation of row lengths.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`; 0 when the mean is 0).
    pub cv: f64,
}

impl RowMoments {
    /// Moments of a row-length sequence; all zero when it is empty.
    pub fn from_lengths<I>(lengths: I) -> Self
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let rows = lengths.len();
        if rows == 0 {
            return Self::default();
        }
        let (nnz, max) = lengths
            .clone()
            .fold((0usize, 0usize), |(n, m), l| (n + l, m.max(l)));
        let mean = nnz as f64 / rows as f64;
        let var = lengths
            .map(|l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / rows as f64;
        let std_dev = var.sqrt();
        let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };
        Self {
            nnz,
            max,
            mean,
            std_dev,
            cv,
        }
    }

    /// Moments of a CSR matrix's row lengths, read off its row offsets.
    pub fn of<V: Copy>(csr: &Csr<V>) -> Self {
        Self::from_lengths(csr.row_offsets().windows(2).map(|w| w[1] - w[0]))
    }
}

impl RowStats {
    /// Compute statistics from a row-length sequence.
    pub fn from_lengths(lengths: &[usize]) -> Self {
        let rows = lengths.len();
        if rows == 0 {
            return Self {
                rows: 0,
                nnz: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0,
                cv: 0.0,
                gini: 0.0,
                max_over_mean: 0.0,
                empty_frac: 0.0,
            };
        }
        let RowMoments {
            nnz,
            max,
            mean,
            std_dev,
            cv,
        } = RowMoments::from_lengths(lengths.iter().copied());
        let min = lengths.iter().copied().min().unwrap_or(0);
        let gini = gini_coefficient(lengths);
        let empty = lengths.iter().filter(|&&l| l == 0).count();
        Self {
            rows,
            nnz,
            min,
            max,
            mean,
            std_dev,
            cv,
            gini,
            max_over_mean: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            empty_frac: empty as f64 / rows as f64,
        }
    }

    /// Statistics of a CSR matrix's rows.
    pub fn of<V: Copy>(csr: &Csr<V>) -> Self {
        Self::from_lengths(&csr.row_lengths())
    }
}

/// Gini coefficient of a non-negative sample (0 = equal, → 1 = one holder).
fn gini_coefficient(lengths: &[usize]) -> f64 {
    let n = lengths.len();
    let total: usize = lengths.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<usize> = lengths.to_vec();
    sorted.sort_unstable();
    // G = (2 * sum_i(i * x_i) / (n * sum(x))) - (n + 1)/n  with 1-based i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_matrix_has_zero_dispersion() {
        let s = RowStats::from_lengths(&[5; 100]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert_eq!(s.cv, 0.0);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.max_over_mean, 1.0);
        assert_eq!(s.empty_frac, 0.0);
    }

    #[test]
    fn single_hub_row_maximizes_inequality() {
        let mut lengths = vec![0usize; 100];
        lengths[42] = 1000;
        let s = RowStats::from_lengths(&lengths);
        assert_eq!(s.nnz, 1000);
        assert!(s.gini > 0.98, "gini = {}", s.gini);
        assert!(s.max_over_mean > 99.0);
        assert!((s.empty_frac - 0.99).abs() < 1e-12);
    }

    #[test]
    fn gini_of_half_and_half() {
        // Half the rows hold everything: G = 0.5 in the large-n limit.
        let mut lengths = vec![0usize; 1000];
        for l in lengths.iter_mut().take(500) {
            *l = 10;
        }
        let s = RowStats::from_lengths(&lengths);
        assert!((s.gini - 0.5).abs() < 0.01, "gini = {}", s.gini);
    }

    #[test]
    fn empty_input_is_all_zeros() {
        let s = RowStats::from_lengths(&[]);
        assert_eq!(s.rows, 0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn mean_and_std_match_hand_computation() {
        let s = RowStats::from_lengths(&[2, 4, 6]);
        assert!((s.mean - 4.0).abs() < 1e-12);
        let expected_std = (8.0f64 / 3.0).sqrt();
        assert!((s.std_dev - expected_std).abs() < 1e-12);
        assert!((s.cv - expected_std / 4.0).abs() < 1e-12);
    }

    #[test]
    fn of_reads_csr_rows() {
        let csr = Csr::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![0, 2, 0, 1, 3],
            vec![1.0f32, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap();
        let s = RowStats::of(&csr);
        assert_eq!(s.rows, 3);
        assert_eq!(s.nnz, 5);
        assert_eq!(s.max, 3);
        assert!((s.empty_frac - 1.0 / 3.0).abs() < 1e-12);
    }
}
