//! Exporters: Prometheus text exposition and the time-series CSV.
//!
//! Both walk the registry through its sorted views, so output bytes
//! depend only on the collected samples — never on interning or
//! insertion order. Floats are written with `Display`'s
//! shortest-roundtrip formatting, which is deterministic for equal
//! bit patterns; byte-identical runs therefore produce byte-identical
//! files, which CI enforces by diffing two seeded runs.

use trace::LogHistogram;

use crate::collect::TelemetrySnapshot;

/// Quote one CSV field if it contains a comma or a quote (label sets
/// do: their canonical form is `key="value",key2="value2"`).
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render the whole snapshot as a time-series CSV:
/// `window,start_ms,kind,metric,labels,field,value`, one row per
/// (series, window, statistic), plus one row per alert.
pub fn to_csv(snap: &TelemetrySnapshot) -> String {
    let reg = &snap.registry;
    let mut out = String::from("window,start_ms,kind,metric,labels,field,value\n");
    let mut row = |window: u64, kind: &str, metric: &str, labels: &str, field: &str, value: f64| {
        out.push_str(&format!(
            "{window},{},{kind},{metric},{},{field},{value}\n",
            reg.window_start_ms(window),
            csv_field(labels),
        ));
    };
    for (name, labels, windows) in reg.counters_sorted() {
        for (&w, &v) in windows {
            row(w, "counter", name, labels, "sum", v);
        }
    }
    for (name, labels, windows) in reg.gauges_sorted() {
        for (&w, g) in windows {
            row(w, "gauge", name, labels, "last", g.last);
            row(w, "gauge", name, labels, "min", g.min);
            row(w, "gauge", name, labels, "max", g.max);
            row(w, "gauge", name, labels, "samples", g.samples as f64);
        }
    }
    for (name, labels, windows) in reg.histograms_sorted() {
        for (&w, h) in windows {
            row(w, "hist", name, labels, "count", h.count as f64);
            row(w, "hist", name, labels, "sum", h.sum);
            row(w, "hist", name, labels, "min", h.min);
            row(w, "hist", name, labels, "max", h.max);
            row(w, "hist", name, labels, "p50", h.quantile(0.5));
            row(w, "hist", name, labels, "p99", h.quantile(0.99));
        }
    }
    for a in &snap.alerts {
        let scope = if a.tenant == u32::MAX {
            String::new()
        } else {
            format!("tenant=\"{}\"", a.tenant)
        };
        row(a.window, "alert", a.kind.name(), &scope, "value", a.value);
        row(a.window, "alert", a.kind.name(), &scope, "threshold", a.threshold);
    }
    out
}

fn prom_line(out: &mut String, name: &str, suffix: &str, labels: &str, value: f64) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format!("{value}\n"));
}

fn prom_hist(out: &mut String, name: &str, labels: &str, h: &LogHistogram) {
    for (edge, cum) in h.cumulative() {
        let le = if labels.is_empty() {
            format!("le=\"{edge}\"")
        } else {
            format!("{labels},le=\"{edge}\"")
        };
        prom_line(out, name, "_bucket", &le, cum as f64);
    }
    let inf = if labels.is_empty() {
        String::from("le=\"+Inf\"")
    } else {
        format!("{labels},le=\"+Inf\"")
    };
    prom_line(out, name, "_bucket", &inf, h.count as f64);
    prom_line(out, name, "_sum", labels, h.sum);
    prom_line(out, name, "_count", labels, h.count as f64);
}

/// Render a Prometheus text-format exposition snapshot: whole-run
/// counter totals, last-window gauge values, and merged whole-run
/// histograms with power-of-two `le` edges.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    let reg = &snap.registry;
    let mut out = String::new();
    let mut last_type: Option<String> = None;
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        if last_type.as_deref() != Some(name) {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_type = Some(name.to_string());
        }
    };

    for (name, labels, windows) in reg.counters_sorted() {
        type_line(&mut out, name, "counter");
        prom_line(&mut out, name, "", labels, windows.values().sum());
    }
    for (name, labels, windows) in reg.gauges_sorted() {
        type_line(&mut out, name, "gauge");
        if let Some(g) = windows.values().next_back() {
            prom_line(&mut out, name, "", labels, g.last);
        }
    }
    for (name, labels, _) in reg.histograms_sorted() {
        type_line(&mut out, name, "histogram");
        prom_hist(&mut out, name, labels, &reg.hist_total(name, labels));
    }
    if !snap.alerts.is_empty() {
        out.push_str("# TYPE telemetry_alerts_total counter\n");
        let mut by_kind: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for a in &snap.alerts {
            *by_kind.entry(a.kind.name()).or_insert(0) += 1;
        }
        for (kind, n) in by_kind {
            prom_line(
                &mut out,
                "telemetry_alerts_total",
                "",
                &format!("kind=\"{kind}\""),
                n as f64,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{TelemetryCollector, TelemetryConfig};
    use trace::{TenantOutcome, TraceEvent, TraceSink};

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut config = TelemetryConfig::default();
        config.slo.min_window_samples = 1;
        let c = TelemetryCollector::new(config);
        c.event(&TraceEvent::TenantSample {
            tenant: 1,
            ts_ms: 1.0,
            latency_ms: 3.0,
            outcome: TenantOutcome::Served,
        });
        c.event(&TraceEvent::TenantSample {
            tenant: 1,
            ts_ms: 12.0,
            latency_ms: 0.0,
            outcome: TenantOutcome::DeadlineMiss,
        });
        c.event(&TraceEvent::Counter {
            counter: trace::CounterKind::QueueDepth,
            ts_ms: 2.0,
            value: 5.0,
        });
        c.finish()
    }

    #[test]
    fn csv_has_header_counters_gauges_hists_and_alerts() {
        let text = to_csv(&sample_snapshot());
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "window,start_ms,kind,metric,labels,field,value"
        );
        assert!(text.contains(",counter,tenant_requests_total,"));
        assert!(text.contains(",gauge,queue_depth,"));
        assert!(text.contains(",hist,request_latency_ms,"));
        assert!(text.contains(",alert,slo_burn_rate,"));
        // Label sets with commas are CSV-quoted with doubled quotes.
        assert!(text.contains("\"tenant=\"\"1\"\",outcome=\"\"served\"\"\""));
    }

    #[test]
    fn prometheus_has_types_totals_and_bucket_lines() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE tenant_requests_total counter"));
        assert!(text.contains("tenant_requests_total{tenant=\"1\"} 2\n"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 5\n"));
        assert!(text.contains("# TYPE request_latency_ms histogram"));
        assert!(text.contains("request_latency_ms_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("request_latency_ms_count 1\n"));
        assert!(text.contains("telemetry_alerts_total{kind=\"slo_burn_rate\"} 1\n"));
        // Exactly one TYPE line per metric name even with many label sets.
        assert_eq!(text.matches("# TYPE request_latency_ms histogram").count(), 1);
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_snapshot();
        let b = sample_snapshot();
        assert_eq!(to_csv(&a), to_csv(&b));
        assert_eq!(to_prometheus(&a), to_prometheus(&b));
    }
}
