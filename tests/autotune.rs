//! End-to-end acceptance for the online schedule autotuner:
//!
//! * the `autotune_bench` experiment is seeded — two runs of the same
//!   build produce byte-identical `autotune.json`;
//! * on a corpus where the static heuristic is known-suboptimal
//!   (banded: perfectly regular rows, heuristic still picks merge-path)
//!   the sweep converges to a schedule that is strictly cheaper;
//! * serving with tuning enabled never changes numerics: every
//!   completion — exploration serves included — is bitwise equal to the
//!   plain kernel run under the schedule that served it.

use std::sync::Arc;

use bench::cli::Cli;
use kernels::spmv::DEFAULT_BLOCK;
use runtime::{zipf_workload, Runtime, RuntimeConfig, TuneConfig, WorkloadSpec};
use simt::{CostModel, GpuSpec};
use sparse::Csr;

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

fn tuned_runtime(epsilon: f64, keep_results: bool) -> Runtime {
    Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            keep_results,
            tune: TuneConfig {
                enabled: true,
                epsilon,
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        },
    )
}

/// Serve warm-up streams until every matrix's sweep promoted a winner.
fn drive_to_promotion(rt: &mut Runtime, matrices: &[Arc<Csr<f32>>]) {
    for round in 0..12 {
        if rt.tune_stats().promotes >= matrices.len() {
            return;
        }
        let reqs = zipf_workload(
            matrices,
            &WorkloadSpec {
                requests: 30,
                zipf_s: 1.1,
                mean_interarrival_ms: 0.05,
                seed: 77 + round,
            },
        );
        rt.serve(&reqs).expect("warmup serve");
    }
    panic!(
        "sweep did not promote all {} keys: {:?}",
        matrices.len(),
        rt.tune_stats()
    );
}

#[test]
fn autotune_report_is_byte_identical_across_runs() {
    let run_into = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("gpu_loops_autotune_test_{tag}"));
        let cli = Cli {
            limit: Some(1), // scaled-down corpus; same code path as full size
            out_dir: dir.to_str().expect("utf-8 temp dir").to_string(),
            validate: false,
        };
        bench::autotune::run(&cli).expect("autotune bench run")
    };
    let a = run_into("a");
    let b = run_into("b");
    let bytes_a = std::fs::read(&a.json).expect("first report readable");
    let bytes_b = std::fs::read(&b.json).expect("second report readable");
    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a, bytes_b,
        "same seed must produce byte-identical autotune.json"
    );
    assert_eq!(a.families.len(), 3, "family list is flag-independent");
    for fam in &a.families {
        assert_eq!(
            fam.tune_promotes, fam.matrices,
            "{}: every matrix's sweep should finish inside warm-up",
            fam.family
        );
        assert!(fam.tuned_p50_ms > 0.0 && fam.static_p50_ms > 0.0);
    }
}

#[test]
fn tuner_converges_past_the_heuristic_on_a_banded_corpus() {
    // Banded rows are perfectly regular: merge-path's in-kernel searches
    // are pure overhead, yet the α/β heuristic still picks it (large
    // dims, large nnz). The sweep must find something strictly cheaper.
    let a = Arc::new(sparse::gen::banded(4_000, 6, 91));
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let heuristic_kind = loops::heuristic::Heuristic::paper()
        .select(a.rows(), a.cols(), a.nnz());
    assert_eq!(
        heuristic_kind,
        loops::schedule::ScheduleKind::MergePath,
        "precondition: the heuristic picks merge-path here"
    );

    let mut rt = tuned_runtime(1.0, false);
    drive_to_promotion(&mut rt, std::slice::from_ref(&a));
    let (winner_kind, winner_format) = rt
        .tuned_candidate(loops::dispatch::KernelKind::Spmv, &a)
        .expect("sweep completed");
    assert!(
        (winner_kind, winner_format) != (heuristic_kind, sparse::FormatKind::Csr),
        "heuristic pick should lose here"
    );

    // The promotion is justified: the winner cell's warm cost is
    // strictly below the heuristic schedule's CSR warm cost. (For a
    // non-CSR winner the tuner additionally charged amortized
    // conversion, so its warm cost is below by an even wider margin.)
    let x = sparse::dense::test_vector(a.cols());
    let warm = |kind, format| {
        let op = kernels::PreparedOperand::prepare(&a, format).unwrap();
        let plan =
            kernels::formats::prepare_format_plan(&spec, &model, &a, &op, kind, DEFAULT_BLOCK)
                .unwrap();
        kernels::formats::spmv_format_with_plan(&spec, &model, &a, &op, &x, &plan)
            .unwrap()
            .report
            .elapsed_ms()
    };
    assert!(
        warm(winner_kind, winner_format) < warm(heuristic_kind, sparse::FormatKind::Csr),
        "{winner_kind}@{winner_format} should be cheaper than {heuristic_kind}"
    );
}

#[test]
fn every_tuned_completion_is_bitwise_equal_to_the_plain_kernel() {
    // Exploration serves run odd schedules mid-stream; none of them may
    // perturb numerics. Each completion must match the untuned kernel
    // under the schedule that actually served it, bit for bit.
    let matrices = vec![
        Arc::new(sparse::gen::powerlaw(600, 600, 8_000, 1.8, 41)),
        Arc::new(sparse::gen::banded(500, 4, 42)),
    ];
    let spec = GpuSpec::v100();
    let model = CostModel::standard();
    let mut rt = tuned_runtime(0.6, true);
    let reqs = zipf_workload(
        &matrices,
        &WorkloadSpec {
            requests: 80,
            zipf_s: 1.1,
            mean_interarrival_ms: 0.05,
            seed: 5,
        },
    );
    let by_id: std::collections::HashMap<u64, &runtime::Request> =
        reqs.iter().map(|r| (r.id, r)).collect();
    let out = rt.serve(&reqs).expect("tuned serve");
    assert!(out.report.tune_explores > 0, "tuning should have explored");
    assert!(out.report.reconciles());
    for c in &out.completions {
        if c.batched {
            continue; // fused launches bypass the plan cache and tuner
        }
        let r = by_id[&c.id];
        let y = c.y.as_ref().expect("keep_results is on");
        let cold = kernels::spmv::spmv_with_model(
            &spec,
            &model,
            &r.matrix,
            &r.x,
            c.schedule,
            DEFAULT_BLOCK,
        )
        .expect("cold run");
        assert_eq!(
            bits(y),
            bits(&cold.y),
            "request {} under {} diverged from the plain kernel",
            c.id,
            c.schedule
        );
    }
}
