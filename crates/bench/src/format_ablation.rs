//! The `format_ablation` experiment: how much of the autotuner's win
//! comes from the *format* axis, beyond the schedule axis alone.
//!
//! For each corpus family the harness emits two kinds of record into
//! `results/format_ablation.csv`:
//!
//! * **cell** rows — the full (schedule × format) candidate grid
//!   ([`loops::dispatch::candidates`]) evaluated once on the family's
//!   hottest matrix, with the deterministic serve cost and the
//!   one-time conversion cost per cell. This is the raw landscape the
//!   tuner sweeps.
//! * **serve** rows — three runtimes driven over identical seeded Zipf
//!   request streams, steady state against steady state:
//!   - `serve-static`: the paper's α/β heuristic picks every schedule;
//!   - `serve-sched-tuner`: ε-greedy sweep restricted to the schedule
//!     axis (`TuneConfig { formats: false }` — the pre-format tuner,
//!     kept as the ablation baseline);
//!   - `serve-widened-tuner`: the full (schedule × format) sweep.
//!
//! The acceptance signal lives in the `powerlaw` family: its floored
//! scale-free matrices ([`sparse::gen::powerlaw_floor`]) have a dense
//! slab + hub tail shape on which the hybrid ELL+COO serve beats every
//! CSR schedule, so the widened tuner's steady-state p50 must come in
//! under the schedule-only tuner's. Everything — generators, workload,
//! tuner policy, simulated cost — is seeded, so the CSV is
//! byte-identical across runs of the same build; CI diffs two runs and
//! the host-thread-count legs against each other.

use std::sync::Arc;

use crate::cli::Cli;
use crate::summary::service_quantile;
use kernels::spmv::DEFAULT_BLOCK;
use runtime::{zipf_workload, Runtime, RuntimeConfig, TuneConfig, WorkloadSpec};
use simt::{CostModel, GpuSpec};
use sparse::{Csr, FormatKind};

/// Requests per warm-up stream.
pub const WARMUP_REQUESTS: usize = 140;

/// Requests in the measured steady-state stream.
pub const STEADY_REQUESTS: usize = 120;

/// Warm-up streams a tuned runtime may consume before the sweep must
/// have promoted a winner for every family matrix.
pub const MAX_WARMUP_ROUNDS: usize = 6;

/// Exploration rate for the bench: high, so the sweep finishes inside
/// the warm-up phase instead of trickling into the measured stream.
const BENCH_EPSILON: f64 = 0.9;

/// One (schedule × format) candidate evaluated on the family's hottest
/// matrix.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Schedule label.
    pub schedule: String,
    /// Format label.
    pub format: String,
    /// Deterministic steady-state serve cost (ms), conversion excluded.
    pub cost_ms: f64,
    /// One-time conversion cost from the resident CSR (ms).
    pub convert_ms: f64,
}

/// One serving arm's steady-state comparison.
#[derive(Debug, Clone)]
pub struct ArmRow {
    /// Arm label (`serve-static`, `serve-sched-tuner`,
    /// `serve-widened-tuner`).
    pub arm: String,
    /// Schedule serving the family's hottest matrix at steady state.
    pub winner_schedule: String,
    /// Format serving that matrix at steady state.
    pub winner_format: String,
    /// Steady-state median service time, dispatch → completion (ms).
    pub p50_ms: f64,
    /// Steady-state p99 service time (ms).
    pub p99_ms: f64,
    /// Exploration serves spent during warm-up.
    pub explores: usize,
    /// Promoted winners (one per fully-swept matrix).
    pub promotes: usize,
    /// Warm-up streams consumed.
    pub warmup_rounds: usize,
}

/// One family's grid plus serving arms.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// Family name (`banded`, `powerlaw`, `uniform`).
    pub family: String,
    /// Matrices in the family corpus.
    pub matrices: usize,
    /// The (schedule × format) landscape on the hottest matrix.
    pub cells: Vec<CellRow>,
    /// The three serving arms, in `static`, `sched`, `widened` order.
    pub arms: Vec<ArmRow>,
}

impl FamilyResult {
    /// The named arm (panics if absent — the set is fixed).
    pub fn arm(&self, name: &str) -> &ArmRow {
        self.arms
            .iter()
            .find(|a| a.arm == name)
            .unwrap_or_else(|| panic!("missing arm {name}"))
    }

    /// Schedule-only-over-widened median speedup (>1 means the format
    /// axis won something the schedule axis alone could not).
    pub fn widened_speedup_p50(&self) -> f64 {
        let widened = self.arm("serve-widened-tuner").p50_ms;
        if widened <= 0.0 {
            0.0
        } else {
            self.arm("serve-sched-tuner").p50_ms / widened
        }
    }
}

/// Paths plus parsed rows of everything one [`run`] call produced.
#[derive(Debug, Clone)]
pub struct FormatAblationOutputs {
    /// The deterministic CSV report.
    pub csv: std::path::PathBuf,
    /// Per-family results, in corpus order.
    pub families: Vec<FamilyResult>,
}

/// `--limit N` scales the experiment down (same convention as the
/// `autotune` experiment): N = 10 is full size, smaller N shrinks the
/// matrices and streams proportionally. The family list never changes,
/// so the CSV shape is flag-independent.
fn scale_of(cli: &Cli) -> f64 {
    cli.limit.map_or(1.0, |l| (l as f64 / 10.0).clamp(0.05, 1.0))
}

fn corpus(name: &str, scale: f64) -> Vec<Arc<Csr<f32>>> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(400);
    match name {
        // Perfectly regular rows: ELL is padding-free here, so the
        // widened sweep has real non-CSR cells to weigh even without
        // skew.
        "banded" => vec![
            Arc::new(sparse::gen::banded(n(15_000), 8, 61)),
            Arc::new(sparse::gen::banded(n(20_000), 6, 62)),
        ],
        // Floored scale-free serving graphs: a dense width-≈k_min slab
        // plus a small hub spill. The per-row extra budget (0.55 nnz at
        // α = 2.5) is chosen so the stats-driven split lands the slab
        // exactly on the floor — zero padding — which is where the
        // fused hybrid serve beats every CSR schedule. The budget
        // scales with the row count so `--limit` keeps the shape.
        "powerlaw" => {
            let floored = |rows_base: usize, k_min: usize, seed: u64| {
                let r = n(rows_base);
                let nnz = r * k_min + r * 550 / 1000;
                Arc::new(sparse::gen::powerlaw_floor(r, r, k_min, nnz, 2.5, seed))
            };
            vec![floored(50_000, 14, 33), floored(20_000, 14, 34)]
        }
        // Near-uniform random rows: low CV keeps hybrid out of the
        // candidate set; the widened sweep must not regress here.
        "uniform" => vec![
            Arc::new(sparse::gen::uniform(n(12_000), n(12_000), n(140_000), 65)),
            Arc::new(sparse::gen::uniform(n(16_000), n(16_000), n(180_000), 66)),
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

/// Evaluate the full candidate grid on `a` once, deterministically.
fn grid(a: &Csr<f32>) -> Vec<CellRow> {
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let x = sparse::dense::test_vector(a.cols());
    let mut operands: Vec<(FormatKind, kernels::PreparedOperand)> = Vec::new();
    let mut cells = Vec::new();
    for (kind, format) in loops::dispatch::candidates(loops::dispatch::KernelKind::Spmv, a) {
        if !operands.iter().any(|(f, _)| *f == format) {
            let op = kernels::PreparedOperand::prepare(a, format).expect("prepare format");
            operands.push((format, op));
        }
        let op = &operands
            .iter()
            .find(|(f, _)| *f == format)
            .expect("operand cached above")
            .1;
        let plan = kernels::formats::prepare_format_plan(&spec, &model, a, op, kind, DEFAULT_BLOCK)
            .expect("plan candidate cell");
        let run = kernels::formats::spmv_format_with_plan(&spec, &model, a, op, &x, &plan)
            .expect("run candidate cell");
        cells.push(CellRow {
            schedule: kind.to_string(),
            format: format.to_string(),
            cost_ms: run.report.elapsed_ms(),
            convert_ms: op.convert_ms(),
        });
    }
    cells
}

/// Winner labels for the hottest matrix under a tuned runtime.
fn winner_of(rt: &mut Runtime, hottest: &Csr<f32>) -> (String, String) {
    rt.tuned_candidate(loops::dispatch::KernelKind::Spmv, hottest)
        .map_or_else(
            || ("<unpromoted>".into(), "<unpromoted>".into()),
            |(k, f)| (k.to_string(), f.to_string()),
        )
}

fn run_tuned_arm(
    label: &str,
    formats: bool,
    matrices: &[Arc<Csr<f32>>],
    warmup: &[Vec<runtime::Request>],
    steady: &[runtime::Request],
) -> ArmRow {
    let mut rt = Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            tune: TuneConfig {
                enabled: true,
                epsilon: BENCH_EPSILON,
                formats,
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let mut warmup_rounds = 0;
    for stream in warmup {
        rt.serve(stream).expect("tuned warmup");
        warmup_rounds += 1;
        if rt.tune_stats().promotes >= matrices.len() {
            break;
        }
    }
    let stats = rt.tune_stats();
    let steady_out = rt.serve(steady).expect("tuned steady");
    let (winner_schedule, winner_format) = winner_of(&mut rt, &matrices[0]);
    ArmRow {
        arm: label.to_string(),
        winner_schedule,
        winner_format,
        p50_ms: service_quantile(&steady_out, 0.50),
        p99_ms: service_quantile(&steady_out, 0.99),
        explores: stats.explores,
        promotes: stats.promotes,
        warmup_rounds,
    }
}

fn run_family(index: usize, name: &str, scale: f64) -> FamilyResult {
    let matrices = corpus(name, scale);
    let warmup_n = ((WARMUP_REQUESTS as f64 * scale) as usize).max(30);
    let steady_n = ((STEADY_REQUESTS as f64 * scale) as usize).max(40);
    let seed = 7_000 + index as u64;
    let warmup: Vec<Vec<runtime::Request>> = (0..MAX_WARMUP_ROUNDS)
        .map(|round| workload(&matrices, warmup_n, seed + 10 * round as u64))
        .collect();
    let steady = workload(&matrices, steady_n, seed + 999);
    let hottest = &matrices[0]; // zipf rank 0 — the head of the skew

    let mut fixed = Runtime::new(GpuSpec::v100(), RuntimeConfig::default());
    // One warm-up stream fills the static plan cache.
    fixed.serve(&warmup[0]).expect("static warmup");
    let static_steady = fixed.serve(&steady).expect("static steady");
    let static_arm = ArmRow {
        arm: "serve-static".into(),
        winner_schedule: loops::heuristic::Heuristic::paper()
            .select(hottest.rows(), hottest.cols(), hottest.nnz())
            .to_string(),
        winner_format: FormatKind::Csr.to_string(),
        p50_ms: service_quantile(&static_steady, 0.50),
        p99_ms: service_quantile(&static_steady, 0.99),
        explores: 0,
        promotes: 0,
        warmup_rounds: 1,
    };

    let sched_arm = run_tuned_arm("serve-sched-tuner", false, &matrices, &warmup, &steady);
    let widened_arm = run_tuned_arm("serve-widened-tuner", true, &matrices, &warmup, &steady);

    FamilyResult {
        family: name.to_string(),
        matrices: matrices.len(),
        cells: grid(hottest),
        arms: vec![static_arm, sched_arm, widened_arm],
    }
}

fn render_csv(rows: &[FamilyResult], out_dir: &str) -> std::io::Result<std::path::PathBuf> {
    let mut w = crate::csv::CsvWriter::create(
        out_dir,
        "format_ablation.csv",
        "family,record,schedule,format,cost_ms,convert_ms,p50_ms,p99_ms,explores,promotes,warmup_rounds",
    )?;
    for r in rows {
        for c in &r.cells {
            w.row(&format!(
                "{},cell,{},{},{:.9},{:.9},,,,,",
                r.family, c.schedule, c.format, c.cost_ms, c.convert_ms
            ))?;
        }
        for a in &r.arms {
            w.row(&format!(
                "{},{},{},{},,,{:.9},{:.9},{},{},{}",
                r.family,
                a.arm,
                a.winner_schedule,
                a.winner_format,
                a.p50_ms,
                a.p99_ms,
                a.explores,
                a.promotes,
                a.warmup_rounds
            ))?;
        }
    }
    w.finish()
}

/// Run the ablation and write `format_ablation.csv` under the CLI's
/// output directory. `--limit N` scales the corpus and streams down
/// (N = 10 is full size). At full scale the powerlaw family's widened
/// tuner must beat the schedule-only tuner's p50 — the format axis has
/// to earn its exploration cost — and the run fails loudly if it does
/// not.
pub fn run(cli: &Cli) -> std::io::Result<FormatAblationOutputs> {
    let families = ["banded", "powerlaw", "uniform"];
    let scale = scale_of(cli);
    let mut rows = Vec::with_capacity(families.len());
    for (i, name) in families.iter().enumerate() {
        let r = run_family(i, name, scale);
        let sched = r.arm("serve-sched-tuner");
        let widened = r.arm("serve-widened-tuner");
        println!(
            "{:<9} static p50 {:.5} ms | sched {} p50 {:.5} ms | widened {}@{} p50 {:.5} ms | \
             widened speedup {:.4}x",
            r.family,
            r.arm("serve-static").p50_ms,
            sched.winner_schedule,
            sched.p50_ms,
            widened.winner_schedule,
            widened.winner_format,
            widened.p50_ms,
            r.widened_speedup_p50(),
        );
        rows.push(r);
    }
    if scale >= 1.0 {
        let powerlaw = rows
            .iter()
            .find(|r| r.family == "powerlaw")
            .expect("powerlaw family present");
        assert!(
            powerlaw.widened_speedup_p50() > 1.0,
            "widened tuner must beat the schedule-only tuner's p50 on the powerlaw family \
             (sched {} ms vs widened {} ms)",
            powerlaw.arm("serve-sched-tuner").p50_ms,
            powerlaw.arm("serve-widened-tuner").p50_ms,
        );
    }
    let path = render_csv(&rows, &cli.out_dir)?;
    println!("wrote {}", path.display());
    Ok(FormatAblationOutputs {
        csv: path,
        families: rows,
    })
}
