//! Acceptance tests for the tracing subsystem: the `profile` experiment
//! writes valid Chrome Trace Event JSON with correct span nesting, and
//! tracing never perturbs simulation results.

use std::sync::Arc;

use bench::cli::Cli;
use simt::{GpuSpec, LaunchConfig};
use trace::json::{self, Value};

const EPS: f64 = 1e-6; // µs-scale float slack for containment checks

fn num(obj: &Value, key: &str) -> f64 {
    obj.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing numeric '{key}' in {obj:?}"))
}

fn cat(obj: &Value) -> &str {
    obj.get("cat").and_then(Value::as_str).unwrap_or("")
}

fn arg(obj: &Value, key: &str) -> f64 {
    obj.get("args")
        .and_then(|a| a.get(key))
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("missing args.{key} in {obj:?}"))
}

/// Parse a written trace back and assert the format contract: a JSON
/// array whose every object carries name/ph/ts/dur/pid/tid.
fn load_trace(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("trace file readable");
    let doc = json::parse(&text).expect("trace is valid JSON");
    let arr = doc.as_arr().expect("trace document is an array").to_vec();
    assert!(!arr.is_empty(), "{} is empty", path.display());
    for obj in &arr {
        assert!(obj.as_obj().is_some(), "non-object event: {obj:?}");
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            assert!(obj.get(key).is_some(), "missing '{key}' in {obj:?}");
        }
        let ph = obj.get("ph").and_then(Value::as_str).unwrap();
        assert!(
            matches!(ph, "X" | "i" | "C"),
            "unexpected phase '{ph}' in {obj:?}"
        );
        assert!(num(obj, "dur") >= 0.0);
    }
    arr
}

#[test]
fn profile_outputs_are_valid_chrome_traces_with_nested_spans() {
    let dir = std::env::temp_dir().join("gpu_loops_trace_profile_test");
    let cli = Cli {
        limit: Some(1),
        out_dir: dir.to_str().expect("utf-8 temp dir").to_string(),
        validate: false,
    };
    let outputs = bench::profile::run(&cli).expect("profile run succeeds");

    // ---- SpMV trace: every block span nests inside its kernel span ----
    let spmv = load_trace(&outputs.spmv_json);
    let kernels: Vec<&Value> = spmv.iter().filter(|o| cat(o) == "kernel").collect();
    let blocks: Vec<&Value> = spmv.iter().filter(|o| cat(o) == "block").collect();
    assert_eq!(kernels.len(), 3, "three schedules traced");
    assert!(!blocks.is_empty());
    for b in &blocks {
        let kid = arg(b, "kernel");
        let k = kernels
            .iter()
            .find(|k| arg(k, "kernel") == kid)
            .unwrap_or_else(|| panic!("block references unknown kernel {kid}"));
        let (kts, kdur) = (num(k, "ts"), num(k, "dur"));
        let (bts, bdur) = (num(b, "ts"), num(b, "dur"));
        assert!(
            bts >= kts - EPS && bts + bdur <= kts + kdur + EPS,
            "block [{bts}, {}] outside kernel [{kts}, {}]",
            bts + bdur,
            kts + kdur
        );
    }

    // ---- serve trace: ≥200 requests, dispatches nest in request spans ----
    let serve = load_trace(&outputs.serve_json);
    let enqueues = serve
        .iter()
        .filter(|o| {
            cat(o) == "request" && o.get("name").and_then(Value::as_str) == Some("enqueue")
        })
        .count();
    assert!(enqueues >= 200, "only {enqueues} requests in serve trace");
    let spans: Vec<&Value> = serve
        .iter()
        .filter(|o| {
            cat(o) == "request" && o.get("ph").and_then(Value::as_str) == Some("X")
        })
        .collect();
    let dispatches: Vec<&Value> = serve.iter().filter(|o| cat(o) == "dispatch").collect();
    assert!(!spans.is_empty());
    assert!(!dispatches.is_empty());
    for d in &dispatches {
        let id = arg(d, "id");
        let s = spans
            .iter()
            .find(|s| arg(s, "id") == id)
            .unwrap_or_else(|| panic!("dispatch for request {id} has no request span"));
        let (sts, sdur) = (num(s, "ts"), num(s, "dur"));
        let (dts, ddur) = (num(d, "ts"), num(d, "dur"));
        assert!(
            dts >= sts - EPS && dts + ddur <= sts + sdur + EPS,
            "dispatch [{dts}, {}] outside request span [{sts}, {}]",
            dts + ddur,
            sts + sdur
        );
    }
    // Device kernels appear in the serve trace too (via DeviceSim::replay).
    assert!(serve.iter().any(|o| cat(o) == "kernel"));
    // Counters flowed from the runtime.
    assert!(serve
        .iter()
        .any(|o| o.get("name").and_then(Value::as_str) == Some("queue_depth")));

    // Long-pole CSV exists with the expected header.
    let poles = std::fs::read_to_string(&outputs.longpoles_csv).expect("longpoles.csv");
    assert!(poles.starts_with("trace,kernel,block,sm,start_ms,busy_ms"));
}

#[test]
fn traced_launch_report_exactly_equals_untraced() {
    let spec = GpuSpec::v100();
    let cfg = LaunchConfig::new(96, 256);
    // A divergent kernel so the traced path exercises the warp-stats
    // collection, not just the event emission.
    let kernel = |t: &simt::LaneCtx<'_>| {
        if t.lane_id() < 4 {
            t.charge(200.0);
        } else {
            t.charge(3.0);
        }
        t.read_bytes(32);
    };
    let mut plain = simt::launch_threads(&spec, cfg, kernel).unwrap();
    let rec = Arc::new(trace::Recorder::new());
    let mut traced = simt::tracing::scoped(rec.clone(), "divergent", || {
        simt::launch_threads(&spec, cfg, kernel)
    })
    .unwrap();
    // host_wall_ms is host wall-clock (diagnostic only) and differs
    // between any two runs, traced or not; everything else must be
    // bitwise identical.
    plain.host_wall_ms = 0.0;
    traced.host_wall_ms = 0.0;
    assert_eq!(plain, traced);
    // And the trace actually recorded the launch.
    let data = rec.snapshot();
    assert_eq!(data.kernels().count(), 1);
    assert_eq!(data.block_durations.count, 96);
    assert!(data.idle_lanes.count > 0, "warp stats were collected");
}
