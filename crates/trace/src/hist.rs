//! The one histogram type: log-bucketed over exact power-of-two edges.
//! The recorder folds whole-run idle-lane and block-duration samples
//! into it; the telemetry registry keeps one per series and window.
//!
//! Buckets are keyed by `floor(log2(v))`, computed from the sample's
//! IEEE-754 *bit pattern* rather than `f64::log2`, so boundary values
//! land deterministically: `v = 2^k` is always the first value of
//! bucket `k` (`[2^k, 2^{k+1})`), never rounded into `k − 1` by a
//! transcendental's last ulp. Counts live in a `BTreeMap` keyed by the
//! exponent, which makes iteration order — and therefore every exporter
//! byte — independent of sample arrival order, and makes merging two
//! windows a per-key addition that is commutative by construction.

use std::collections::BTreeMap;

/// Bucket key reserved for samples `<= 0` (a latency of exactly zero is
/// representable; negative samples are clamped in with it rather than
/// silently dropped).
pub const ZERO_BUCKET: i32 = i32::MIN;

/// `floor(log2(v))` from the bit pattern: the unbiased IEEE-754
/// exponent. Subnormals and zero map to [`ZERO_BUCKET`]'s neighborhood
/// via the minimum normal exponent.
fn bucket_of(v: f64) -> i32 {
    if v <= 0.0 {
        return ZERO_BUCKET;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: smaller than every normal bucket.
        -1023
    } else {
        biased - 1023
    }
}

/// Upper edge of a bucket, for display and quantile estimation.
fn upper_edge(bucket: i32) -> f64 {
    if bucket == ZERO_BUCKET {
        0.0
    } else {
        2f64.powi((bucket + 1).clamp(-1022, 1023))
    }
}

/// A log-bucketed histogram of one sample stream.
///
/// Tracks exact `count`/`sum`/`min`/`max` alongside the buckets, so the
/// mean is exact and only quantiles are bucket-resolution estimates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LogHistogram {
    /// Sample counts keyed by `floor(log2(v))`.
    pub buckets: BTreeMap<i32, u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Smallest sample (`0.0` when empty).
    pub min: f64,
    /// Largest sample (`0.0` when empty).
    pub max: f64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
    }

    /// Fold another window into this one. Merging is commutative: the
    /// bucket union is keyed addition, `min`/`max` are lattice joins,
    /// and the two `sum`s meet in one `f64` addition.
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Exact mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate for `q ∈ [0, 1]`: the upper
    /// edge of the first bucket whose cumulative count reaches
    /// `ceil(q × count)`, clamped into the exact `[min, max]` envelope.
    /// `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper_edge(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterate `(upper_edge, cumulative_count)` pairs in ascending edge
    /// order — the shape Prometheus `_bucket{le=...}` lines want.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut seen = 0u64;
        self.buckets.iter().map(move |(&b, &n)| {
            seen += n;
            (upper_edge(b), seen)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count, 0);
        assert_eq!(h.sum, 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert!(h.buckets.is_empty());
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let mut h = LogHistogram::new();
        h.record(3.5);
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 3.5);
        assert_eq!(h.max, 3.5);
        assert_eq!(h.mean(), 3.5);
        // Every quantile of a one-sample window is that sample: the
        // bucket edge (4.0) is clamped into [min, max].
        assert_eq!(h.quantile(0.0), 3.5);
        assert_eq!(h.quantile(0.5), 3.5);
        assert_eq!(h.quantile(1.0), 3.5);
    }

    #[test]
    fn boundary_values_land_in_the_upper_bucket() {
        // v = 2^k is the *first* value of bucket k, exactly.
        for k in [-10i32, -1, 0, 1, 10, 52] {
            let v = 2f64.powi(k);
            assert_eq!(bucket_of(v), k, "2^{k}");
            // One ulp below the boundary stays in bucket k − 1.
            let below = f64::from_bits(v.to_bits() - 1);
            assert_eq!(bucket_of(below), k - 1, "just under 2^{k}");
        }
        assert_eq!(bucket_of(0.0), ZERO_BUCKET);
        assert_eq!(bucket_of(-1.0), ZERO_BUCKET);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = LogHistogram::new();
        for v in [0.5, 3.0, 100.0] {
            a.record(v);
        }
        let mut b = LogHistogram::new();
        for v in [0.001, 7.0] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 5);
        assert_eq!(ab.min, 0.001);
        assert_eq!(ab.max, 100.0);
        assert_eq!(ab.sum.to_bits(), ba.sum.to_bits());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LogHistogram::new();
        a.record(2.0);
        let empty = LogHistogram::new();
        let mut ae = a.clone();
        ae.merge(&empty);
        assert_eq!(ae, a);
        let mut ea = LogHistogram::new();
        ea.merge(&a);
        assert_eq!(ea, a);
    }

    #[test]
    fn quantiles_bound_real_distributions() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i) * 0.1); // 0.1 .. 100.0
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Bucket-resolution: within one power of two of the truth.
        assert!((25.0..=100.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} < p50 {p50}");
        assert!(p99 <= h.max);
        assert_eq!(h.quantile(1.0), h.max);
    }

    #[test]
    fn cumulative_counts_are_monotone_and_total() {
        let mut h = LogHistogram::new();
        for v in [0.25, 0.5, 1.0, 2.0, 4.0, 4.0] {
            h.record(v);
        }
        let pairs: Vec<(f64, u64)> = h.cumulative().collect();
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(pairs.last().unwrap().1, h.count);
    }
}
