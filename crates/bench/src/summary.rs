//! Summary statistics printed by the experiment binaries.

/// Geometric mean of strictly positive samples (the paper's headline
/// aggregation for speedups/slowdowns). Returns `NaN` on empty input.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive samples, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Linear-interpolated quantile (`q ∈ [0, 1]`) of a sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile `q` of a serve's per-request *service* time (dispatch →
/// completion). Stream clocks persist across serve calls, so
/// arrival-relative latency would mostly measure the warm-up tail the
/// compared runtimes share, not the schedule.
pub fn service_quantile(out: &runtime::ServeResult, q: f64) -> f64 {
    let samples: Vec<f64> = out
        .completions
        .iter()
        .map(|c| c.end_ms - c.start_ms)
        .collect();
    quantile(&samples, q)
}

/// Fraction of samples satisfying a predicate.
pub fn fraction(xs: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_reciprocals_is_reciprocal() {
        let a = geomean(&[2.0, 8.0]);
        assert!((a - 4.0).abs() < 1e-12);
        let b = geomean(&[0.5, 0.125]);
        assert!((b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn geomean_singleton_and_empty() {
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        // Unsorted input is fine.
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_counts() {
        let xs = [0.5, 0.9, 1.0, 2.0];
        assert!((fraction(&xs, |x| x >= 0.9) - 0.75).abs() < 1e-12);
    }
}
