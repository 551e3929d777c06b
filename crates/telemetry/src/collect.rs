//! The collector: a [`TraceSink`] that folds the event stream into a
//! windowed [`MetricsRegistry`].
//!
//! Attaching the collector is the *only* integration the instrumented
//! crates need: `simt`, `runtime`, and `shard` already deliver every
//! relevant fact as a [`TraceEvent`], and the existing sink contract
//! guarantees the hooks are bitwise invisible when no sink is attached.
//! The mapping:
//!
//! | event | series |
//! |---|---|
//! | `Kernel` span | `device_busy_ms{device}`, `kernels_total{device}` |
//! | `Block` span | `sm_busy_ms{device}`, `blocks_total{device}` |
//! | `Fault` | `faults_total{device,kind}` |
//! | `Request` phases | `requests_total`, `batch_joins_total`, `plan_cache_{hits,misses}_total`, `retries_total` |
//! | `Counter` samples | gauges `queue_depth`, `cache_occupancy`, `batcher_occupancy` |
//! | `Dispatch` | `dispatches_total`, `batched_dispatches_total`, histogram `dispatch_ms` |
//! | `TenantSample` | `tenant_requests_total{tenant}`, `tenant_outcomes_total{tenant,outcome}`, `tenant_deadline_miss_total{tenant}`, `{outcome}_total`, histogram `request_latency_ms` (global + per tenant) |
//! | `Tune` | `tune_{explores,promotes}_total` |
//! | `Shard` | `shard_routed_total{shard}`, `shard_halo_bytes_total{shard}`, `shard_merge_bytes_total{shard}`, `shard_rejects_total{shard}` |
//!
//! Spans are charged to the window containing their *start*; instants
//! to the window containing their timestamp. At [`finish`] the SLO
//! detectors run over the complete registry and their alerts land in
//! the returned [`TelemetrySnapshot`].
//!
//! [`finish`]: TelemetryCollector::finish

use std::sync::Mutex;

use trace::{RequestPhase, ShardPhase, TenantOutcome, TraceEvent, TraceSink, TunePhase};

use crate::metrics::{labels, MetricsRegistry, NO_LABELS};
use crate::slo::{evaluate, Alert, SloPolicy};

/// Collector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Window width on the simulated clock, in milliseconds.
    pub window_ms: f64,
    /// Detector thresholds.
    pub slo: SloPolicy,
    /// SMs per device, used by the dashboard to turn `sm_busy_ms` into
    /// utilization (0 = unknown; busy milliseconds are shown raw).
    pub sms_per_device: u32,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_ms: 10.0,
            slo: SloPolicy::default(),
            sms_per_device: 0,
        }
    }
}

/// Everything one instrumented run produced: the windowed registry,
/// the alerts the detectors raised over it, and the config they ran
/// under. The input to every exporter.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// The windowed series.
    pub registry: MetricsRegistry,
    /// Alerts in deterministic (window, detector, scope) order.
    pub alerts: Vec<Alert>,
    /// The config the collector ran under.
    pub config: TelemetryConfig,
}

/// The sink. Interior mutability is a `Mutex` for the same reason as
/// `trace::Recorder`: emission happens on the single-threaded
/// timing-resolution path, so the lock is uncontended.
#[derive(Debug)]
pub struct TelemetryCollector {
    config: TelemetryConfig,
    registry: Mutex<MetricsRegistry>,
}

impl Default for TelemetryCollector {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl TelemetryCollector {
    /// A collector with the given windowing and SLO policy.
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            config,
            registry: Mutex::new(MetricsRegistry::new(config.window_ms)),
        }
    }

    /// Run the SLO detectors over everything collected so far and
    /// return the snapshot.
    pub fn finish(&self) -> TelemetrySnapshot {
        let registry = self.registry.lock().expect("collector poisoned").clone();
        let alerts = evaluate(&registry, &self.config.slo);
        TelemetrySnapshot {
            registry,
            alerts,
            config: self.config,
        }
    }
}

fn device_label(device: u32) -> String {
    labels(&[("device", &device.to_string())])
}

fn tenant_label(tenant: u32) -> String {
    labels(&[("tenant", &tenant.to_string())])
}

impl TraceSink for TelemetryCollector {
    fn event(&self, ev: &TraceEvent) {
        let mut reg = self.registry.lock().expect("collector poisoned");
        match *ev {
            TraceEvent::Kernel {
                device,
                start_ms,
                end_ms,
                ..
            } => {
                let l = device_label(device);
                reg.counter_add("device_busy_ms", &l, start_ms, (end_ms - start_ms).max(0.0));
                reg.counter_add("kernels_total", &l, start_ms, 1.0);
            }
            TraceEvent::Block {
                device,
                start_ms,
                end_ms,
                ..
            } => {
                let l = device_label(device);
                reg.counter_add("sm_busy_ms", &l, start_ms, (end_ms - start_ms).max(0.0));
                reg.counter_add("blocks_total", &l, start_ms, 1.0);
            }
            TraceEvent::Fault {
                device,
                kind,
                ts_ms,
                ..
            } => {
                let l = labels(&[("device", &device.to_string()), ("kind", kind.name())]);
                reg.counter_add("faults_total", &l, ts_ms, 1.0);
            }
            TraceEvent::Request { phase, ts_ms, .. } => {
                let name = match phase {
                    RequestPhase::Enqueue => "requests_total",
                    RequestPhase::BatchJoin => "batch_joins_total",
                    RequestPhase::CacheHit => "plan_cache_hits_total",
                    RequestPhase::CacheMiss => "plan_cache_misses_total",
                    RequestPhase::Retry => "retries_total",
                    // Terminal outcomes are charged per tenant through
                    // `TenantSample`; counting them here too would
                    // double-book.
                    RequestPhase::Reject
                    | RequestPhase::DeadlineMiss
                    | RequestPhase::Complete => return,
                };
                reg.counter_add(name, NO_LABELS, ts_ms, 1.0);
            }
            TraceEvent::Counter {
                counter,
                ts_ms,
                value,
            } => {
                reg.gauge_set(counter.name(), NO_LABELS, ts_ms, value);
            }
            TraceEvent::Dispatch {
                start_ms,
                end_ms,
                batched,
                ..
            } => {
                reg.counter_add("dispatches_total", NO_LABELS, start_ms, 1.0);
                if batched {
                    reg.counter_add("batched_dispatches_total", NO_LABELS, start_ms, 1.0);
                }
                reg.hist_record("dispatch_ms", NO_LABELS, start_ms, (end_ms - start_ms).max(0.0));
            }
            TraceEvent::TenantSample {
                tenant,
                ts_ms,
                latency_ms,
                outcome,
            } => {
                let tl = tenant_label(tenant);
                reg.counter_add("tenant_requests_total", &tl, ts_ms, 1.0);
                let ol = labels(&[
                    ("tenant", &tenant.to_string()),
                    ("outcome", outcome.name()),
                ]);
                reg.counter_add("tenant_outcomes_total", &ol, ts_ms, 1.0);
                match outcome {
                    TenantOutcome::Served => {
                        reg.counter_add("served_total", NO_LABELS, ts_ms, 1.0);
                        reg.hist_record("request_latency_ms", NO_LABELS, ts_ms, latency_ms);
                        reg.hist_record("request_latency_ms", &tl, ts_ms, latency_ms);
                    }
                    TenantOutcome::Rejected => {
                        reg.counter_add("rejected_total", NO_LABELS, ts_ms, 1.0);
                    }
                    TenantOutcome::DeadlineMiss => {
                        reg.counter_add("deadline_miss_total", NO_LABELS, ts_ms, 1.0);
                        reg.counter_add("tenant_deadline_miss_total", &tl, ts_ms, 1.0);
                    }
                    TenantOutcome::Failed => {
                        reg.counter_add("failed_total", NO_LABELS, ts_ms, 1.0);
                    }
                }
            }
            TraceEvent::Tune { phase, ts_ms, .. } => {
                let name = match phase {
                    TunePhase::Explore => "tune_explores_total",
                    TunePhase::Promote => "tune_promotes_total",
                };
                reg.counter_add(name, NO_LABELS, ts_ms, 1.0);
            }
            TraceEvent::Shard {
                shard,
                phase,
                ts_ms,
                value,
            } => {
                let l = labels(&[("shard", &shard.to_string())]);
                match phase {
                    ShardPhase::Route => reg.counter_add("shard_routed_total", &l, ts_ms, 1.0),
                    ShardPhase::HaloExchange => {
                        reg.counter_add("shard_halo_bytes_total", &l, ts_ms, value);
                    }
                    ShardPhase::Merge => {
                        reg.counter_add("shard_merge_bytes_total", &l, ts_ms, value);
                    }
                    ShardPhase::Reject => reg.counter_add("shard_rejects_total", &l, ts_ms, 1.0),
                }
            }
            // Warp statistics are too fine-grained for windowed series;
            // request spans carry no windowed fact the request instants
            // and tenant samples don't.
            TraceEvent::Warp { .. } | TraceEvent::RequestSpan { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_phases_map_to_counters() {
        let c = TelemetryCollector::default();
        for (phase, _) in [
            (RequestPhase::Enqueue, "requests_total"),
            (RequestPhase::CacheHit, "plan_cache_hits_total"),
            (RequestPhase::CacheMiss, "plan_cache_misses_total"),
            (RequestPhase::Retry, "retries_total"),
        ] {
            c.event(&TraceEvent::Request {
                id: 1,
                phase,
                ts_ms: 1.0,
            });
        }
        let snap = c.finish();
        for name in [
            "requests_total",
            "plan_cache_hits_total",
            "plan_cache_misses_total",
            "retries_total",
        ] {
            assert_eq!(snap.registry.counter_total(name, NO_LABELS), 1.0, "{name}");
        }
    }

    #[test]
    fn tenant_samples_feed_histograms_and_budgets() {
        let c = TelemetryCollector::default();
        c.event(&TraceEvent::TenantSample {
            tenant: 2,
            ts_ms: 1.0,
            latency_ms: 4.0,
            outcome: TenantOutcome::Served,
        });
        c.event(&TraceEvent::TenantSample {
            tenant: 2,
            ts_ms: 2.0,
            latency_ms: 9.0,
            outcome: TenantOutcome::DeadlineMiss,
        });
        let snap = c.finish();
        let tl = tenant_label(2);
        assert_eq!(snap.registry.counter_total("tenant_requests_total", &tl), 2.0);
        assert_eq!(snap.registry.counter_total("tenant_deadline_miss_total", &tl), 1.0);
        assert_eq!(snap.registry.counter_total("served_total", NO_LABELS), 1.0);
        assert_eq!(snap.registry.counter_total("deadline_miss_total", NO_LABELS), 1.0);
        let h = snap.registry.hist_total("request_latency_ms", &tl);
        assert_eq!(h.count, 1, "only served requests contribute latency");
        assert_eq!(h.max, 4.0);
    }

    #[test]
    fn same_events_same_snapshot() {
        let run = || {
            let c = TelemetryCollector::default();
            for i in 0..100u64 {
                c.event(&TraceEvent::TenantSample {
                    tenant: (i % 3) as u32,
                    ts_ms: i as f64 * 0.7,
                    latency_ms: (i % 7) as f64,
                    outcome: TenantOutcome::Served,
                });
            }
            crate::export::to_csv(&c.finish())
        };
        assert_eq!(run(), run());
    }
}
