//! `perf` — the repository benchmark.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--json PATH]
//! perf --all [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! perf compare --parent EXE --change EXE [--pairs N] [--seconds S] [--seed N]
//!              [--workload NAME]... [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints its metrics as a table, then one JSON line with keys
//! `correct`, `attempted`, `failed` and `metrics` as the last line of
//! standard output. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes the span file. The exit code is non-zero
//! if any output failed validation. See README.md beside this file.

mod compare;
mod metrics;
mod serving;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use workloads::WORKLOADS;

/// Workload seed when `--seed` is not given; the hold-out seed used to
/// confirm a claim is 2.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--all" => a.all = true,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--json" => a.json = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    match (&a.workload, a.all) {
        (Some(w), false) if !WORKLOADS.contains(&w.as_str()) => Err(format!(
            "unknown workload {w:?}; one of {}",
            WORKLOADS.join(", ")
        )),
        (Some(_), false) | (None, true) => Ok(a),
        _ => Err("give exactly one of --workload <name> and --all".to_owned()),
    }
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let (report, spans) = workloads::run(name, a.seed, a.seconds, a.trace)
        .ok_or(format!("unknown workload {name:?}"))?;
    print!("{}", report.text());
    if a.trace {
        let path = a.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
                .join(format!("spans-{name}-{}.json", a.seed))
        });
        write(&path, &spans::to_json(name, a.seed, &spans))?;
        println!("  spans: {} written to {}", spans.len(), path.display());
    }
    let line = report.json();
    if let Some(path) = &a.json {
        write(path, &format!("{line}\n"))?;
    }
    println!("{line}");
    Ok(report.correct)
}

/// Re-execute this binary once per workload, so each measures (and
/// reports peak memory) in its own process.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let mut ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut merged: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit());
        let out = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let doc = trace::json::parse(last).map_err(|e| format!("{w}: result line: {e}"))?;
        ok &= out.status.success() && doc.get("correct") == Some(&trace::json::Value::Bool(true));
        attempted += doc
            .get("attempted")
            .and_then(trace::json::Value::as_num)
            .unwrap_or(0.0) as u64;
        failed += doc
            .get("failed")
            .and_then(trace::json::Value::as_num)
            .unwrap_or(0.0) as u64;
        let metrics = doc
            .get("metrics")
            .and_then(trace::json::Value::as_obj)
            .ok_or(format!("{w}: no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(trace::json::Value::as_num)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(trace::json::Value::as_str)
                .unwrap_or("");
            merged.push((format!("{w}.{name}"), value, unit.to_owned()));
        }
    }
    let line = metrics::json_line(
        ok,
        attempted.max(1),
        failed,
        merged.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())),
    );
    if let Some(path) = &a.json {
        write(path, &format!("{line}\n"))?;
    }
    println!("{line}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]) as u8);
    }
    let outcome = parse(&args).and_then(|a| match &a.workload {
        Some(w) => run_one(&a, w),
        None => run_all(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: validation failed (see FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
