//! Serving helpers: the busy-horizon arrival shift and capacity-rung
//! selection.
//!
//! Successive `Runtime::serve` calls on one runtime keep the device
//! clocks running, while a freshly generated stream's arrivals start
//! near 0. Served as is, the second stream would queue behind the whole
//! history of the first, so every stream is shifted past the pool's
//! busy horizon before it is served.

use std::sync::Arc;

use runtime::{Completion, Request, RuntimeReport};

/// The latest completion time across the pool's devices.
pub fn busy_horizon(report: &RuntimeReport) -> f64 {
    report
        .devices
        .iter()
        .map(|d| d.makespan_ms)
        .fold(0.0, f64::max)
}

/// `requests` with every arrival moved `by_ms` later.
pub fn shifted(requests: &[Request], by_ms: f64) -> Vec<Request> {
    requests
        .iter()
        .map(|r| Request {
            id: r.id,
            tenant: r.tenant,
            matrix: Arc::clone(&r.matrix),
            x: Arc::clone(&r.x),
            arrival_ms: r.arrival_ms + by_ms,
        })
        .collect()
}

/// A completion's `(arrival, id, latency)`.
pub fn sample(c: &Completion) -> (f64, u64, f64) {
    (c.arrival_ms, c.id, c.latency_ms())
}

/// The latencies of `samples` in arrival order (ties by id).
pub fn latencies_by_arrival(mut samples: Vec<(f64, u64, f64)>) -> Vec<f64> {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    samples.into_iter().map(|(_, _, l)| l).collect()
}

/// One rung of an offered-rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per simulated second.
    pub rate_rps: f64,
    /// Latency p99 over the rung (ms).
    pub p99_ms: f64,
    /// Requests dropped.
    pub drops: usize,
    /// p99 of the first and last quarter of the rung, by arrival.
    pub first_quarter_p99_ms: f64,
    pub last_quarter_p99_ms: f64,
}

impl Rung {
    /// Summarize one rung from its latencies in arrival order.
    pub fn new(rate_rps: f64, latencies: &[f64], drops: usize) -> Self {
        let q = latencies.len() / 4;
        let p99 = |xs: &[f64]| {
            if xs.is_empty() {
                f64::INFINITY
            } else {
                bench::quantile(xs, 0.99)
            }
        };
        Self {
            rate_rps,
            p99_ms: p99(latencies),
            drops,
            first_quarter_p99_ms: p99(&latencies[..q]),
            last_quarter_p99_ms: p99(&latencies[latencies.len() - q..]),
        }
    }

    /// Within the SLO, nothing dropped, and no growing backlog (the
    /// last quarter's p99 at most twice the first quarter's).
    pub fn sustained(&self, slo_ms: f64) -> bool {
        self.p99_ms <= slo_ms
            && self.drops == 0
            && self.last_quarter_p99_ms <= 2.0 * self.first_quarter_p99_ms
    }
}

/// The highest offered rate of the ladder's sustained prefix: every rung
/// up to and including it is sustained. 0 if the lowest rung is not.
pub fn capacity(rungs: &[Rung], slo_ms: f64) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.sustained(slo_ms))
        .last()
        .map_or(0.0, |r| r.rate_rps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rate: f64, ms: f64) -> Rung {
        Rung::new(rate, &vec![ms; 400], 0)
    }

    #[test]
    fn capacity_is_the_top_of_the_sustained_prefix() {
        let rungs = [
            flat(100.0, 0.1),
            flat(150.0, 0.2),
            flat(225.0, 5.0),
            flat(337.5, 0.1),
        ];
        // 225 breaks the 1 ms SLO, so 337.5 is not reached even though it
        // passes on its own.
        assert_eq!(capacity(&rungs, 1.0), 150.0);
        assert_eq!(capacity(&rungs, 10.0), 337.5);
        assert_eq!(capacity(&rungs[2..], 1.0), 0.0);
    }

    #[test]
    fn growing_backlog_rejects_a_rung_within_the_slo() {
        // Latency climbs linearly through the rung: the last quarter's
        // p99 is far above the first quarter's although every sample
        // meets the SLO.
        let growing: Vec<f64> = (0..400).map(|i| 0.01 + i as f64 * 0.001).collect();
        let r = Rung::new(200.0, &growing, 0);
        assert!(r.p99_ms <= 1.0);
        assert!(r.last_quarter_p99_ms > 2.0 * r.first_quarter_p99_ms);
        assert!(!r.sustained(1.0));
        assert_eq!(capacity(&[flat(100.0, 0.1), r], 1.0), 100.0);
    }

    #[test]
    fn drops_reject_a_rung() {
        let r = Rung::new(100.0, &[0.1; 400], 1);
        assert!(!r.sustained(1.0));
    }

    #[test]
    fn shift_moves_arrivals_past_the_busy_horizon() {
        // Above `tiny_nnz`, so every request is its own launch.
        let a = Arc::new(sparse::gen::uniform(2_000, 2_000, 20_000, 1));
        let reqs = runtime::zipf_workload(
            &[a],
            &runtime::WorkloadSpec {
                requests: 40,
                ..runtime::WorkloadSpec::default()
            },
        );
        let mut rt =
            runtime::Runtime::new(simt::GpuSpec::v100(), runtime::RuntimeConfig::default());
        let first = rt.serve(&reqs).expect("serve");
        let horizon = busy_horizon(&first.report);
        assert!(horizon > 0.0);
        let later = shifted(&reqs, horizon);
        assert!(later
            .iter()
            .zip(&reqs)
            .all(|(l, r)| l.arrival_ms == r.arrival_ms + horizon));
        // Served after the shift, the same stream sees the same latencies
        // as on a fresh pool (up to the rounding of the shifted clock);
        // unshifted, it queues behind the first.
        let again = rt.serve(&later).expect("serve");
        let latencies = |out: &runtime::ServeResult| {
            latencies_by_arrival(out.completions.iter().map(sample).collect())
        };
        let (a, b) = (latencies(&again), latencies(&first));
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-9),
            "{a:?} vs {b:?}"
        );
        let unshifted = rt.serve(&reqs).expect("serve");
        assert!(unshifted.report.latency_p50_ms > 2.0 * first.report.latency_p50_ms);
    }
}
