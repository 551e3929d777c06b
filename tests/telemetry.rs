//! Telemetry contract tests: observation must be free.
//!
//! The windowed-metrics subsystem rides the same `TraceSink` gate as
//! the Chrome-trace recorder, so the whole contract reduces to: a run
//! with a collector attached, to a runtime or to a shard group, is
//! **bitwise identical** to the same run without one — completions,
//! reports, and fault outcomes included — while the collector's own
//! exports are byte-identical across repeated runs.

use std::sync::Arc;

use bench::telemetry::{
    baseline_json, collector_config, compare, gate_metrics, parse_baseline, run_instrumented,
    run_uninstrumented, serve_matrices, serve_requests, DEFAULT_TOLERANCE,
};
use runtime::{zipf_workload, Completion, Runtime, RuntimeConfig, ServeResult, WorkloadSpec};
use shard::{ShardGroup, ShardGroupConfig};
use simt::{FaultPlan, GpuSpec};
use telemetry::{TelemetryCollector, TelemetryConfig, TelemetrySnapshot};

/// Everything observable about a serve outcome, rendered bit-faithfully
/// (f64 Debug is shortest-roundtrip, so equal strings ⇒ equal bits).
fn fingerprint(out: &ServeResult) -> String {
    let y_checksum: u64 = out
        .completions
        .iter()
        .flat_map(|c| c.y.iter().flatten())
        .fold(0u64, |acc, v| acc.wrapping_add(u64::from(v.to_bits())));
    format!(
        "completions={:?}\ndropped={:?}\nreport={:?}\ny_checksum={y_checksum}",
        out.completions
            .iter()
            .map(|c: &Completion| {
                (
                    c.id,
                    c.arrival_ms.to_bits(),
                    c.start_ms.to_bits(),
                    c.end_ms.to_bits(),
                    c.device,
                    c.batched,
                    c.cache_hit,
                    c.attempts,
                )
            })
            .collect::<Vec<_>>(),
        out.dropped,
        out.report,
    )
}

fn chaos_serve(instrumented: bool) -> (ServeResult, Option<TelemetrySnapshot>) {
    // Mirror of `bench::profile`'s chaos scenario: tight deadlines,
    // chaos-injected plan failures, one distinct fault mode per device.
    let matrices: Vec<_> = serve_matrices().into_iter().take(4).collect();
    let requests = serve_requests(&matrices);
    let mut rt = Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            devices: 3,
            keep_results: true,
            deadline_ms: 3.0,
            plan_fail_prob: 0.15,
            ..RuntimeConfig::default()
        },
    );
    rt.set_fault_plan(0, FaultPlan::healthy(0xC0FFEE).with_flaky_launches(0.15));
    rt.set_fault_plan(
        1,
        FaultPlan::healthy(0xBEEF)
            .with_degraded_sms(0.25, 0.4, 0.8)
            .with_stall(0.3, 0.15),
    );
    rt.set_fault_plan(2, FaultPlan::healthy(0xDEAD).with_kill_at(0.5));
    let collector = instrumented.then(|| Arc::new(TelemetryCollector::new(collector_config())));
    if let Some(c) = &collector {
        rt.set_trace_sink(c.clone());
    }
    let out = rt.serve(&requests).expect("chaos serve");
    (out, collector.map(|c| c.finish()))
}

/// A 4-shard split serve of a Zipf(1.6) stream over eight tenants: most
/// requests share a few home shards, yet every split request runs on
/// every shard.
fn skewed_split_serve(instrumented: bool) -> (ServeResult, Option<TelemetrySnapshot>) {
    let matrices: Vec<_> = (0..8)
        .map(|i| Arc::new(sparse::gen::powerlaw(800, 800, 8_000, 1.8, 40 + i)))
        .collect();
    let requests = zipf_workload(
        &matrices,
        &WorkloadSpec {
            requests: 400,
            zipf_s: 1.6,
            mean_interarrival_ms: 0.05,
            seed: 7,
        },
    );
    let mut cfg = ShardGroupConfig::new(4);
    cfg.runtime.keep_results = true;
    let mut group = ShardGroup::new(GpuSpec::test_tiny(), cfg);
    let collector =
        instrumented.then(|| Arc::new(TelemetryCollector::new(TelemetryConfig::default())));
    if let Some(c) = &collector {
        group.set_trace_sink(c.clone());
    }
    let out = group.serve_split(&requests).expect("split serve");
    (out, collector.map(|c| c.finish()))
}

#[test]
fn instrumentation_is_bitwise_invisible_on_split_serve() {
    let (bare, _) = skewed_split_serve(false);
    let (observed, snap) = skewed_split_serve(true);
    assert_eq!(
        fingerprint(&bare),
        fingerprint(&observed),
        "attaching the telemetry collector must not change a split serve"
    );
    let snap = snap.unwrap();
    let routed: f64 = snap
        .registry
        .counter_label_sets("shard_routed_total")
        .iter()
        .map(|l| snap.registry.counter_total("shard_routed_total", l))
        .sum();
    assert_eq!(routed, 400.0, "every split request reaches the collector");
    assert!(
        snap.alerts.is_empty(),
        "a healthy split serve must raise no alert, got {:?}",
        snap.alerts
    );
}

#[test]
fn instrumentation_is_bitwise_invisible_on_clean_serve() {
    let bare = run_uninstrumented();
    let (observed, snap) = run_instrumented(None);
    assert_eq!(
        fingerprint(&bare),
        fingerprint(&observed),
        "attaching the telemetry collector must not change the run"
    );
    // ...and the collector did actually observe the run.
    assert!(snap.registry.counter_total("requests_total", "") >= 240.0);
    assert!(snap.registry.max_window().is_some());
}

#[test]
fn instrumentation_is_bitwise_invisible_under_chaos() {
    let (bare, _) = chaos_serve(false);
    let (observed, snap) = chaos_serve(true);
    assert_eq!(
        fingerprint(&bare),
        fingerprint(&observed),
        "telemetry must not perturb fault injection, retries, or failover"
    );
    let snap = snap.unwrap();
    // The chaos run's fault storm is visible in the telemetry...
    let faults: f64 = snap
        .registry
        .counter_label_sets("faults_total")
        .iter()
        .map(|l| snap.registry.counter_total("faults_total", l))
        .sum();
    assert!(faults > 0.0, "chaos faults must reach the fault counters");
}

#[test]
fn slo_engine_fires_under_deadline_pressure() {
    // A deadline far below the queueing delay: most of the stream
    // misses, so per-tenant budget burn blows past the alert threshold.
    let requests = serve_requests(&serve_matrices());
    let mut rt = Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            devices: 1,
            deadline_ms: 0.02,
            ..RuntimeConfig::default()
        },
    );
    let collector = Arc::new(TelemetryCollector::new(collector_config()));
    rt.set_trace_sink(collector.clone());
    let out = rt.serve(&requests).expect("pressured serve");
    assert!(out.report.deadline_missed > 0, "scenario must miss deadlines");
    let snap = collector.finish();
    assert!(
        snap.alerts
            .iter()
            .any(|a| a.kind == telemetry::AlertKind::SloBurnRate),
        "sustained deadline misses must fire burn-rate alerts, got {:?}",
        snap.alerts
    );
}

#[test]
fn telemetry_exports_are_byte_identical_across_runs() {
    let (_, a) = run_instrumented(None);
    let (_, b) = run_instrumented(None);
    assert_eq!(telemetry::to_csv(&a), telemetry::to_csv(&b));
    assert_eq!(telemetry::to_prometheus(&a), telemetry::to_prometheus(&b));
}

#[test]
fn parallel_backend_reproduces_committed_artifacts_byte_for_byte() {
    // The committed `results/` artifacts were generated on the
    // sequential backend. Regenerating them under `Parallel { 4 }` must
    // produce the *same bytes* — the end-to-end witness that the
    // parallel host executor changes nothing observable: every counter,
    // every `{:.9}`-rendered latency, the wrapping result checksum, and
    // every windowed telemetry row.
    use bench::cli::Cli;
    use bench::telemetry::export_snapshot;
    use simt::HostBackend;

    // Unique per-process scratch dir: concurrent invocations (CI legs,
    // a local run alongside CI) must not race on the same files.
    let out_path =
        std::env::temp_dir().join(format!("loops_parallel_artifact_diff_{}", std::process::id()));
    let out_dir = out_path.to_str().expect("utf-8 temp dir").to_string();
    let backend = HostBackend::Parallel { threads: 4 };

    let committed = |name: &str| {
        let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let generated = |path: &std::path::Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };

    // Chaos report + chaos telemetry, exactly as `profile` writes them.
    let cli = Cli {
        limit: Some(2),
        out_dir: out_dir.clone(),
        validate: false,
    };
    let (chaos_json, chaos_csv) =
        simt::host::scoped(backend, || bench::profile::chaos_serve(&cli)).expect("chaos serve");
    assert_eq!(
        generated(&chaos_json),
        committed("chaos_serve.json"),
        "chaos_serve.json must be byte-identical under the parallel backend"
    );
    assert_eq!(
        generated(&chaos_csv),
        committed("chaos_telemetry.csv"),
        "chaos_telemetry.csv must be byte-identical under the parallel backend"
    );

    // Clean serve telemetry, exactly as `profile` exports it.
    let (_, snap) = simt::host::scoped(backend, || run_instrumented(None));
    let tele = export_snapshot(&out_dir, "telemetry_serve", &snap).expect("export");
    assert_eq!(
        generated(&tele.csv),
        committed("telemetry_serve.csv"),
        "telemetry_serve.csv must be byte-identical under the parallel backend"
    );
    assert_eq!(
        generated(&tele.prom),
        committed("telemetry_serve.prom"),
        "telemetry_serve.prom must be byte-identical under the parallel backend"
    );

    let _ = std::fs::remove_dir_all(&out_path);
}

#[test]
fn gate_passes_at_default_tolerance_and_fails_at_zero() {
    // Round-trip a fresh baseline exactly the way `--write-baseline`
    // does, then gate a second fresh run against it.
    let (out, snap) = run_instrumented(None);
    let baseline = parse_baseline(&baseline_json(&gate_metrics(&out, &snap))).unwrap();
    let (out2, snap2) = run_instrumented(None);
    let fresh = gate_metrics(&out2, &snap2);
    assert!(
        compare(&baseline, &fresh, DEFAULT_TOLERANCE).is_empty(),
        "a deterministic re-run must pass the default gate"
    );
    assert!(
        !compare(&baseline, &fresh, 0.0).is_empty(),
        "the rounded baseline must differ from full precision, so the gate \
         demonstrably compares numbers"
    );
}

#[test]
fn gate_catches_a_planted_regression() {
    let (out, snap) = run_instrumented(None);
    let baseline = parse_baseline(&baseline_json(&gate_metrics(&out, &snap))).unwrap();
    let mut regressed = gate_metrics(&out, &snap);
    let p99 = regressed.get_mut("latency_p99_ms").unwrap();
    *p99 *= 1.5;
    let failures = compare(&baseline, &regressed, DEFAULT_TOLERANCE);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("latency_p99_ms"));
}
