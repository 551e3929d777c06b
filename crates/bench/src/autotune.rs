//! The `autotune_bench` experiment: static heuristic vs online
//! autotuner, steady state against steady state.
//!
//! For each corpus family the harness builds a skewed Zipf serving
//! workload and drives two runtimes over identical request streams:
//!
//! * **static** — the paper's α/β heuristic picks every schedule;
//! * **tuned** — [`runtime::TuneConfig`] enabled, so plan-cache misses
//!   sweep the candidate space ([`loops::dispatch::candidates`]) under
//!   an ε-greedy policy and promote the cheapest schedule.
//!
//! Both runtimes first serve warm-up streams (the tuned one until every
//! family matrix has a promoted winner, bounded by
//! [`MAX_WARMUP_ROUNDS`]), then one *steady-state* stream whose
//! per-request service-time percentiles are compared. Everything — generators, workload, tuner
//! policy, simulated cost — is seeded, so `results/autotune.json` is
//! byte-identical across runs of the same build; CI diffs two runs.

use std::sync::Arc;

use crate::cli::Cli;
use crate::summary::service_quantile;
use runtime::{zipf_workload, Runtime, RuntimeConfig, TuneConfig, WorkloadSpec};
use simt::GpuSpec;
use sparse::Csr;

/// Requests per warm-up stream.
pub const WARMUP_REQUESTS: usize = 140;

/// Requests in the measured steady-state stream.
pub const STEADY_REQUESTS: usize = 120;

/// Warm-up streams the tuned runtime may consume before the sweep must
/// have promoted a winner for every family matrix.
pub const MAX_WARMUP_ROUNDS: usize = 6;

/// Exploration rate for the bench: high, so the sweep finishes inside
/// the warm-up phase instead of trickling into the measured stream.
const BENCH_EPSILON: f64 = 0.9;

/// One family's steady-state comparison.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// Family name (`banded`, `powerlaw`, `uniform`).
    pub family: String,
    /// Matrices in the family corpus.
    pub matrices: usize,
    /// Schedule the static heuristic picks for the family's hottest
    /// matrix.
    pub heuristic_schedule: String,
    /// Schedule the tuner promoted for that matrix.
    pub tuned_schedule: String,
    /// Static steady-state median service time, dispatch → completion
    /// (ms).
    pub static_p50_ms: f64,
    /// Tuned steady-state median service time (ms).
    pub tuned_p50_ms: f64,
    /// Static steady-state p99 service time (ms).
    pub static_p99_ms: f64,
    /// Tuned steady-state p99 service time (ms).
    pub tuned_p99_ms: f64,
    /// Exploration serves the sweep spent during warm-up.
    pub tune_explores: usize,
    /// Promoted winners (one per fully-swept matrix).
    pub tune_promotes: usize,
    /// Warm-up streams the tuned runtime consumed.
    pub warmup_rounds: usize,
}

impl FamilyResult {
    /// Static-over-tuned median speedup (>1 means tuning won).
    pub fn speedup_p50(&self) -> f64 {
        if self.tuned_p50_ms <= 0.0 {
            0.0
        } else {
            self.static_p50_ms / self.tuned_p50_ms
        }
    }
}

/// Paths plus parsed rows of everything one [`run`] call produced.
#[derive(Debug, Clone)]
pub struct AutotuneOutputs {
    /// The deterministic comparison report.
    pub json: std::path::PathBuf,
    /// Per-family results, in corpus order.
    pub families: Vec<FamilyResult>,
}

/// `--limit N` scales the experiment down (same convention as the
/// `profile` experiment): N = 10 is full size, smaller N shrinks the
/// matrices and streams proportionally. The family list never changes,
/// so the JSON shape is flag-independent.
fn scale_of(cli: &Cli) -> f64 {
    cli.limit.map_or(1.0, |l| (l as f64 / 10.0).clamp(0.05, 1.0))
}

fn corpus(name: &str, scale: f64) -> Vec<Arc<Csr<f32>>> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(400);
    match name {
        // Perfectly regular rows: merge-path's in-kernel searches are
        // pure overhead, so the heuristic's pick is beatable.
        "banded" => vec![
            Arc::new(sparse::gen::banded(n(15_000), 8, 31)),
            Arc::new(sparse::gen::banded(n(20_000), 6, 32)),
        ],
        // Skewed rows: merge-path is good, but block-mapped edges it
        // out on this simulator once hub rows dominate whole blocks.
        "powerlaw" => vec![
            Arc::new(sparse::gen::powerlaw(n(12_000), n(12_000), n(180_000), 1.8, 33)),
            Arc::new(sparse::gen::powerlaw(n(16_000), n(16_000), n(240_000), 1.7, 34)),
        ],
        // Near-uniform rows: same story as banded, milder margin.
        "uniform" => vec![
            Arc::new(sparse::gen::uniform(n(12_000), n(12_000), n(140_000), 35)),
            Arc::new(sparse::gen::uniform(n(16_000), n(16_000), n(180_000), 36)),
        ],
        other => panic!("unknown family {other}"),
    }
}

fn workload(matrices: &[Arc<Csr<f32>>], requests: usize, seed: u64) -> Vec<runtime::Request> {
    zipf_workload(
        matrices,
        &WorkloadSpec {
            requests,
            zipf_s: 1.1,
            // Light queueing: steady-state latency tracks service time,
            // not arrival bursts.
            mean_interarrival_ms: 0.4,
            seed,
        },
    )
}

fn run_family(index: usize, name: &str, scale: f64) -> FamilyResult {
    let matrices = corpus(name, scale);
    let warmup_n = ((WARMUP_REQUESTS as f64 * scale) as usize).max(30);
    let steady_n = ((STEADY_REQUESTS as f64 * scale) as usize).max(40);
    let seed = 1_000 + index as u64;
    let warmup: Vec<Vec<runtime::Request>> = (0..MAX_WARMUP_ROUNDS)
        .map(|round| workload(&matrices, warmup_n, seed + 10 * round as u64))
        .collect();
    let steady = workload(&matrices, steady_n, seed + 999);

    let mut fixed = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
    // One warm-up stream fills the static plan cache.
    fixed.serve(&warmup[0]).expect("static warmup");
    let static_steady = fixed.serve(&steady).expect("static steady");

    let mut tuned = Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            tune: TuneConfig {
                enabled: true,
                epsilon: BENCH_EPSILON,
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let mut warmup_rounds = 0;
    for stream in &warmup {
        tuned.serve(stream).expect("tuned warmup");
        warmup_rounds += 1;
        if tuned.tune_stats().promotes >= matrices.len() {
            break;
        }
    }
    let stats = tuned.tune_stats();
    let tuned_steady = tuned.serve(&steady).expect("tuned steady");

    let hottest = &matrices[0]; // zipf rank 0 — the head of the skew
    let heuristic_schedule = loops::heuristic::Heuristic::paper()
        .select(hottest.rows(), hottest.cols(), hottest.nnz())
        .to_string();
    let tuned_schedule = tuned
        .tuned_candidate(loops::dispatch::KernelKind::Spmv, hottest)
        .map_or_else(
            || "<unpromoted>".into(),
            |(k, f)| {
                if f == sparse::FormatKind::Csr {
                    k.to_string()
                } else {
                    format!("{k}@{f}")
                }
            },
        );

    FamilyResult {
        family: name.to_string(),
        matrices: matrices.len(),
        heuristic_schedule,
        tuned_schedule,
        static_p50_ms: service_quantile(&static_steady, 0.50),
        tuned_p50_ms: service_quantile(&tuned_steady, 0.50),
        static_p99_ms: service_quantile(&static_steady, 0.99),
        tuned_p99_ms: service_quantile(&tuned_steady, 0.99),
        tune_explores: stats.explores,
        tune_promotes: stats.promotes,
        warmup_rounds,
    }
}

fn render_json(rows: &[FamilyResult], scale: f64) -> String {
    let mut j = String::from("{\n");
    j.push_str(&format!("  \"epsilon\": {BENCH_EPSILON},\n"));
    j.push_str(&format!("  \"scale\": {scale},\n"));
    j.push_str("  \"families\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        j.push_str("    {\n");
        j.push_str(&format!("      \"family\": \"{}\",\n", r.family));
        j.push_str(&format!("      \"matrices\": {},\n", r.matrices));
        j.push_str(&format!(
            "      \"heuristic_schedule\": \"{}\",\n",
            r.heuristic_schedule
        ));
        j.push_str(&format!(
            "      \"tuned_schedule\": \"{}\",\n",
            r.tuned_schedule
        ));
        j.push_str(&format!("      \"static_p50_ms\": {:.9},\n", r.static_p50_ms));
        j.push_str(&format!("      \"tuned_p50_ms\": {:.9},\n", r.tuned_p50_ms));
        j.push_str(&format!("      \"static_p99_ms\": {:.9},\n", r.static_p99_ms));
        j.push_str(&format!("      \"tuned_p99_ms\": {:.9},\n", r.tuned_p99_ms));
        j.push_str(&format!("      \"speedup_p50\": {:.6},\n", r.speedup_p50()));
        j.push_str(&format!("      \"tune_explores\": {},\n", r.tune_explores));
        j.push_str(&format!("      \"tune_promotes\": {},\n", r.tune_promotes));
        j.push_str(&format!("      \"warmup_rounds\": {}\n", r.warmup_rounds));
        j.push_str(&format!("    }}{sep}\n"));
    }
    j.push_str("  ]\n}\n");
    j
}

/// Run the ablation and write `autotune.json` under the CLI's output
/// directory. `--limit N` scales the corpus and streams down (N = 10 is
/// full size).
pub fn run(cli: &Cli) -> std::io::Result<AutotuneOutputs> {
    let families = ["banded", "powerlaw", "uniform"];
    let scale = scale_of(cli);
    let mut rows = Vec::with_capacity(families.len());
    for (i, name) in families.iter().enumerate() {
        let r = run_family(i, name, scale);
        println!(
            "{:<9} static {} p50 {:.5} ms | tuned {} p50 {:.5} ms | speedup {:.3}x \
             ({} explores, {} promotions, {} warmup rounds)",
            r.family,
            r.heuristic_schedule,
            r.static_p50_ms,
            r.tuned_schedule,
            r.tuned_p50_ms,
            r.speedup_p50(),
            r.tune_explores,
            r.tune_promotes,
            r.warmup_rounds
        );
        rows.push(r);
    }
    std::fs::create_dir_all(&cli.out_dir)?;
    let path = std::path::Path::new(&cli.out_dir).join("autotune.json");
    std::fs::write(&path, render_json(&rows, scale))?;
    println!("wrote {}", path.display());
    Ok(AutotuneOutputs {
        json: path,
        families: rows,
    })
}
