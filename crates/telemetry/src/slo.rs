//! The SLO engine: deterministic detectors evaluated over complete
//! windows of a [`MetricsRegistry`].
//!
//! Three detectors, each a pure function of the registry:
//!
//! * **burn rate** — each tenant has a deadline-miss *budget* (the
//!   fraction of its requests per window allowed to miss). The burn
//!   rate of a window is `miss_rate / budget`: 1.0 means the tenant is
//!   spending its error budget exactly as provisioned, 2.0 means twice
//!   as fast. Alert when burn ≥ the policy's `burn_rate_alert`.
//! * **cache-hit collapse** — windowed plan-cache hit rate below the
//!   policy floor.
//! * **queue growth** — a window's peak queue depth at least
//!   `queue_growth_factor` × the previous window's peak (with an
//!   absolute floor so an idle system's 0 → 2 wiggle never fires).
//!
//! Evaluation iterates windows in ascending order and detectors in a
//! fixed order, so the alert list is deterministic and two same-seed
//! runs produce identical alerts.

use crate::metrics::{MetricsRegistry, NO_LABELS};

/// Thresholds for the detectors. The defaults are deliberately
/// permissive — a healthy run should produce zero alerts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Allowed per-window deadline-miss fraction per tenant.
    pub deadline_miss_budget: f64,
    /// Alert when a window's burn rate reaches this multiple of budget.
    pub burn_rate_alert: f64,
    /// Alert when a window's plan-cache hit rate drops below this.
    pub min_cache_hit_rate: f64,
    /// Alert when a window's peak queue depth reaches this multiple of
    /// the previous window's peak.
    pub queue_growth_factor: f64,
    /// Peaks below this absolute depth never fire the growth detector.
    pub queue_depth_floor: f64,
    /// Windows with fewer samples than this are never judged — rate
    /// estimates over a handful of requests are noise.
    pub min_window_samples: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            deadline_miss_budget: 0.01,
            burn_rate_alert: 2.0,
            min_cache_hit_rate: 0.5,
            queue_growth_factor: 4.0,
            queue_depth_floor: 8.0,
            min_window_samples: 8,
        }
    }
}

/// SLO alert categories, one per detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A tenant's windowed deadline-miss rate burned its error budget
    /// faster than the policy allows.
    SloBurnRate,
    /// The plan-cache hit rate collapsed below the policy floor.
    CacheHitCollapse,
    /// The in-flight queue's window peak grew past the policy bound.
    QueueGrowth,
}

impl AlertKind {
    /// Stable display name: the `kind` label of every exported alert.
    pub fn name(self) -> &'static str {
        match self {
            Self::SloBurnRate => "slo_burn_rate",
            Self::CacheHitCollapse => "cache_hit_collapse",
            Self::QueueGrowth => "queue_growth",
        }
    }
}

/// One fired detector, as the snapshot's exporters, dashboard and gate
/// read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Which detector fired.
    pub kind: AlertKind,
    /// Tenant scope ([`u32::MAX`] for system-wide detectors).
    pub tenant: u32,
    /// The window the detector evaluated.
    pub window: u64,
    /// Window end on the simulated clock.
    pub ts_ms: f64,
    /// Observed value.
    pub value: f64,
    /// Threshold it crossed.
    pub threshold: f64,
}

/// Parse the tenant id out of a canonical `tenant="N"` label set.
fn tenant_of(label_set: &str) -> Option<u32> {
    label_set
        .strip_prefix("tenant=\"")?
        .strip_suffix('"')?
        .parse()
        .ok()
}

/// Run every detector over every complete window. Deterministic: output
/// order is (window, detector, tenant) ascending.
pub fn evaluate(reg: &MetricsRegistry, policy: &SloPolicy) -> Vec<Alert> {
    let Some(max_window) = reg.max_window() else {
        return Vec::new();
    };
    let window_end = |w: u64| reg.window_start_ms(w) + reg.window_ms();
    let mut alerts = Vec::new();

    let tenant_labels: Vec<(u32, String)> = {
        let mut v: Vec<(u32, String)> = reg
            .counter_label_sets("tenant_requests_total")
            .into_iter()
            .filter_map(|l| Some((tenant_of(l)?, l.to_string())))
            .collect();
        v.sort_unstable();
        v
    };

    for w in 0..=max_window {
        // 1. Per-tenant burn rate.
        for (tenant, label) in &tenant_labels {
            let requests = reg.counter_window("tenant_requests_total", label, w);
            if (requests as u64) < policy.min_window_samples {
                continue;
            }
            let misses = reg.counter_window("tenant_deadline_miss_total", label, w);
            let burn = (misses / requests) / policy.deadline_miss_budget;
            if burn >= policy.burn_rate_alert {
                alerts.push(Alert {
                    kind: AlertKind::SloBurnRate,
                    tenant: *tenant,
                    window: w,
                    ts_ms: window_end(w),
                    value: burn,
                    threshold: policy.burn_rate_alert,
                });
            }
        }

        // 2. Cache-hit collapse.
        let hits = reg.counter_window("plan_cache_hits_total", NO_LABELS, w);
        let misses = reg.counter_window("plan_cache_misses_total", NO_LABELS, w);
        let lookups = hits + misses;
        if (lookups as u64) >= policy.min_window_samples {
            let rate = hits / lookups;
            if rate < policy.min_cache_hit_rate {
                alerts.push(Alert {
                    kind: AlertKind::CacheHitCollapse,
                    tenant: u32::MAX,
                    window: w,
                    ts_ms: window_end(w),
                    value: rate,
                    threshold: policy.min_cache_hit_rate,
                });
            }
        }

        // 3. Queue growth vs the previous window's peak.
        if w > 0 {
            let peak = reg
                .gauge_window("queue_depth", NO_LABELS, w)
                .map_or(0.0, |g| g.max);
            let prev = reg
                .gauge_window("queue_depth", NO_LABELS, w - 1)
                .map_or(0.0, |g| g.max);
            if peak >= policy.queue_depth_floor
                && prev > 0.0
                && peak >= policy.queue_growth_factor * prev
            {
                alerts.push(Alert {
                    kind: AlertKind::QueueGrowth,
                    tenant: u32::MAX,
                    window: w,
                    ts_ms: window_end(w),
                    value: peak,
                    threshold: policy.queue_growth_factor * prev,
                });
            }
        }
    }
    alerts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::labels;

    fn tenant_window(reg: &mut MetricsRegistry, tenant: u32, w: f64, requests: u64, misses: u64) {
        let l = labels(&[("tenant", &tenant.to_string())]);
        reg.counter_add("tenant_requests_total", &l, w, requests as f64);
        reg.counter_add("tenant_deadline_miss_total", &l, w, misses as f64);
    }

    #[test]
    fn empty_registry_raises_nothing() {
        let reg = MetricsRegistry::new(10.0);
        assert!(evaluate(&reg, &SloPolicy::default()).is_empty());
    }

    #[test]
    fn burn_rate_fires_per_tenant_and_window() {
        let mut reg = MetricsRegistry::new(10.0);
        // Tenant 3 misses 10% of 100 requests against a 1% budget in
        // window 1; tenant 0 is healthy.
        tenant_window(&mut reg, 0, 15.0, 100, 0);
        tenant_window(&mut reg, 3, 15.0, 100, 10);
        let alerts = evaluate(&reg, &SloPolicy::default());
        assert_eq!(alerts.len(), 1);
        let a = alerts[0];
        assert_eq!(a.kind, AlertKind::SloBurnRate);
        assert_eq!(a.tenant, 3);
        assert_eq!(a.window, 1);
        assert_eq!(a.ts_ms, 20.0);
        assert!((a.value - 10.0).abs() < 1e-12, "burn {}", a.value);
    }

    #[test]
    fn small_windows_are_never_judged() {
        let mut reg = MetricsRegistry::new(10.0);
        tenant_window(&mut reg, 1, 5.0, 4, 4); // 100% misses, but only 4 requests
        assert!(evaluate(&reg, &SloPolicy::default()).is_empty());
    }

    #[test]
    fn cache_collapse_fires_below_floor() {
        let mut reg = MetricsRegistry::new(10.0);
        reg.counter_add("plan_cache_hits_total", NO_LABELS, 5.0, 2.0);
        reg.counter_add("plan_cache_misses_total", NO_LABELS, 5.0, 18.0);
        let alerts = evaluate(&reg, &SloPolicy::default());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::CacheHitCollapse);
        assert!((alerts[0].value - 0.1).abs() < 1e-12);
    }

    #[test]
    fn queue_growth_needs_floor_and_factor() {
        let mut reg = MetricsRegistry::new(10.0);
        reg.gauge_set("queue_depth", NO_LABELS, 5.0, 2.0);
        reg.gauge_set("queue_depth", NO_LABELS, 15.0, 16.0);
        let alerts = evaluate(&reg, &SloPolicy::default());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::QueueGrowth);
        assert_eq!(alerts[0].window, 1);
        assert_eq!(alerts[0].value, 16.0);

        // Same growth factor below the absolute floor: silent.
        let mut quiet = MetricsRegistry::new(10.0);
        quiet.gauge_set("queue_depth", NO_LABELS, 5.0, 1.0);
        quiet.gauge_set("queue_depth", NO_LABELS, 15.0, 4.0);
        assert!(evaluate(&quiet, &SloPolicy::default()).is_empty());
    }

    #[test]
    fn alert_names_are_stable() {
        assert_eq!(AlertKind::SloBurnRate.name(), "slo_burn_rate");
        assert_eq!(AlertKind::CacheHitCollapse.name(), "cache_hit_collapse");
        assert_eq!(AlertKind::QueueGrowth.name(), "queue_growth");
    }
}
