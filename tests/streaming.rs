//! Streaming-mutation acceptance: matrices that change between
//! requests must never be served from stale cache state, and the
//! runtime's bounded caches must survive mutation churn.
//!
//! The four cache tiers each hold something different, so each test
//! pins one tier's invalidation contract (DESIGN.md §15):
//!
//! * prepared operands hold converted **values** → value-epoch
//!   validation (the stale-value bugfix);
//! * autotuner sweep state is keyed by fingerprint → explicit
//!   retirement on structural mutation, bounding the key table;
//! * the fingerprint memo is keyed by structure id → LRU eviction that
//!   keeps hot entries under churn;
//! * plan-cache entries are pattern-only → retired on structural
//!   mutation, and the tuner re-converges on the new pattern.

use std::sync::Arc;

use loops::dispatch::KernelKind;
use runtime::{mutate, Runtime, RuntimeConfig, TuneConfig};
use sparse::delta::{ApplyPath, EvolvingStream};
use sparse::{Csr, FormatKind};
use simt::GpuSpec;

/// The format-ablation bench's hybrid-friendly recipe at test scale: a
/// dense width-≈14 slab plus a small hub spill, where the fused hybrid
/// serve beats every CSR schedule — so the tuner reliably promotes a
/// non-CSR winner and the prepared-operand cache is actually on the
/// serve path.
fn hybrid_friendly(seed: u64) -> Arc<Csr<f32>> {
    let r = 2_000;
    let nnz = r * 14 + r * 550 / 1000;
    Arc::new(sparse::gen::powerlaw_floor(r, r, 14, nnz, 2.5, seed))
}

fn tuned_runtime() -> Runtime {
    Runtime::new(
        GpuSpec::v100(),
        RuntimeConfig {
            keep_results: true,
            // Solo requests only: fused batches bypass the plan cache
            // and always serve CSR, which would hide the operand path.
            batch_max: 1,
            tune: TuneConfig {
                enabled: true,
                epsilon: 1.0, // explore every miss: fastest sweep
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        },
    )
}

fn request(id: u64, a: &Arc<Csr<f32>>, x: &Arc<[f32]>, at: f64) -> runtime::Request {
    runtime::Request {
        id,
        tenant: 0,
        matrix: Arc::clone(a),
        x: Arc::clone(x),
        arrival_ms: at,
    }
}

/// Serve single-matrix streams until the tuner promotes its winner.
fn drive_to_promotion(rt: &mut Runtime, a: &Arc<Csr<f32>>, x: &Arc<[f32]>) {
    let before = rt.tune_stats().promotes;
    for round in 0..40 {
        if rt.tune_stats().promotes > before {
            return;
        }
        let reqs: Vec<runtime::Request> = (0..30)
            .map(|i| request((round * 30 + i) as u64, a, x, i as f64 * 0.05))
            .collect();
        rt.serve(&reqs).expect("warmup serve");
    }
    panic!("sweep did not promote: {:?}", rt.tune_stats());
}

fn served_y(rt: &mut Runtime, a: &Arc<Csr<f32>>, x: &Arc<[f32]>) -> (Vec<f32>, Option<bool>, FormatKind) {
    let res = rt
        .serve(&[request(9_999_999, a, x, 0.0)])
        .expect("serve single request");
    assert_eq!(res.completions.len(), 1);
    let c = &res.completions[0];
    (
        c.y.clone().expect("keep_results"),
        c.cache_hit,
        c.format,
    )
}

/// **The stale-value bug, reproduced.** Fingerprints are deliberately
/// pattern-only (`value_changes_keep_fingerprint`), and before this
/// PR the `(Fingerprint, FormatKind)`-keyed prepared-operand cache had
/// no other validation — so a caller who mutated `values_mut()`
/// between requests was silently served the *old* values on every
/// promoted non-CSR path.
///
/// Pre-fix, this test fails at the `max_rel_error` assertion with an
/// error around 0.67 (the serve returns `y` for the original values,
/// the reference uses the tripled ones). Post-fix, the value epoch
/// minted by `values_mut()` invalidates the cached conversion, the
/// operand is rebuilt, and the serve matches the reference — while the
/// plan-cache hit (pattern-only, still valid) is preserved bitwise.
#[test]
fn value_only_mutation_is_not_served_stale_through_the_operand_cache() {
    let mut a = hybrid_friendly(33);
    let x: Arc<[f32]> = sparse::dense::test_vector(a.cols()).into();
    let mut rt = tuned_runtime();
    drive_to_promotion(&mut rt, &a, &x);
    let (kind, winner_format) = rt
        .tuned_candidate(KernelKind::Spmv, &a)
        .expect("sweep completed");
    assert_ne!(
        winner_format,
        FormatKind::Csr,
        "precondition: the hybrid-friendly matrix must promote a \
         non-CSR winner ({kind}@{winner_format}), else the operand \
         cache is not on the serve path"
    );

    // Warm serve on the promoted path, correct by construction.
    let (y_before, hit, format) = served_y(&mut rt, &a, &x);
    assert_eq!(hit, Some(true), "promoted path is a plan-cache hit");
    assert_eq!(format, winner_format);
    let err = kernels::spmv::max_rel_error(&y_before, &a.spmv_ref(&x));
    assert!(err < 1e-5, "warm serve correct: {err}");

    // Value-only mutation between requests: same pattern, new values.
    {
        let m = Arc::make_mut(&mut a);
        for v in m.values_mut() {
            *v *= 3.0;
        }
    }

    let (y_after, hit, format) = served_y(&mut rt, &a, &x);
    assert_eq!(
        hit,
        Some(true),
        "pattern-only plan reuse must survive a value mutation"
    );
    assert_eq!(format, winner_format, "still served from the winner format");
    let err = kernels::spmv::max_rel_error(&y_after, &a.spmv_ref(&x));
    assert!(
        err < 1e-5,
        "value mutation must invalidate the converted operand \
         (stale-serve error would be ~0.67): {err}"
    );
}

/// A mutate-heavy stream must not strand dead fingerprints in the
/// tuner's key table until `max_keys` is exhausted and tuning shuts
/// off for every new matrix. Pre-fix there was no retirement: after
/// `max_keys` structural mutations `keys` saturated and the final
/// assertion fails because the fresh matrix is refused a sweep slot.
#[test]
fn mutate_heavy_stream_does_not_exhaust_tuner_keys() {
    let max_keys = 4;
    let mut rt = Runtime::new(
        GpuSpec::test_tiny(),
        RuntimeConfig {
            batch_max: 1,
            tune: TuneConfig {
                enabled: true,
                epsilon: 1.0,
                max_keys,
                ..TuneConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    let mut a = Arc::new(sparse::gen::powerlaw_floor(256, 256, 4, 2048, 1.8, 5));
    let x: Arc<[f32]> = sparse::dense::test_vector(a.cols()).into();
    let mut stream = EvolvingStream::new(0xfeed, 0.5);
    for i in 0..3 * max_keys {
        rt.serve(&[request(i as u64, &a, &x, 0.0)]).expect("serve");
        let batch = stream.next_batch(&a, 32);
        let out = mutate(&mut rt, &mut a, &batch).expect("in-bounds batch");
        assert_eq!(out.path, ApplyPath::Rebuilt, "delete-bearing batch rebuilds");
        assert!(
            rt.tune_stats().keys <= max_keys,
            "key table bounded at {max_keys}: {:?}",
            rt.tune_stats()
        );
    }
    // Every mutated-away fingerprint was retired, so a brand-new matrix
    // still gets a sweep slot.
    let fresh = Arc::new(sparse::gen::uniform(300, 300, 3_000, 77));
    let xf: Arc<[f32]> = sparse::dense::test_vector(fresh.cols()).into();
    let explores = rt.tune_stats().explores;
    rt.serve(&[request(1_000_000, &fresh, &xf, 0.0)]).expect("serve fresh");
    assert!(
        rt.tune_stats().explores > explores,
        "a fresh matrix must still be tuned after mutation churn: {:?}",
        rt.tune_stats()
    );
}

/// The fingerprint memo's overflow policy must not wipe the hot
/// working set. Pre-fix, hitting `FP_MEMO_CAP` cleared the whole memo,
/// so a hot matrix amid one-shot churn was re-fingerprinted (O(rows))
/// after every clear; the memo now evicts its least recently used
/// entry, so the hot entry's *only* miss is its first.
#[test]
fn memo_eviction_keeps_hot_entries_under_churn() {
    // FP_MEMO_CAP is 1024; push well past it.
    let churn_count = 1_500;
    let mut rt = Runtime::new(GpuSpec::test_tiny(), RuntimeConfig::default());
    let hot = Arc::new(sparse::gen::uniform(64, 64, 512, 1));
    // Every churn matrix is its own construction, so its own memo key.
    let churn: Vec<Arc<Csr<f32>>> = (0..churn_count)
        .map(|i| Arc::new(sparse::gen::banded(8 + (i % 7), 2, i as u64)))
        .collect();
    for c in &churn {
        rt.fingerprint(&hot);
        rt.fingerprint(c);
    }
    let stats = rt.memo_stats();
    assert_eq!(
        stats.misses,
        churn_count + 1,
        "hot entry fingerprinted exactly once (pre-fix: once per clear): {stats:?}"
    );
    assert!(stats.evictions > 0, "churn did overflow the memo: {stats:?}");
    assert!(
        stats.hit_rate() > 0.49,
        "hot lookups all hit: {stats:?}"
    );
}

/// Tentpole deliverable: after a structural drift the tuner's old
/// sweep state is retired and a *new* sweep runs to promotion on the
/// mutated pattern — re-convergence is proven, not assumed.
#[test]
fn tuner_reconverges_after_structural_drift() {
    let mut a = hybrid_friendly(41);
    let x: Arc<[f32]> = sparse::dense::test_vector(a.cols()).into();
    let mut rt = tuned_runtime();
    drive_to_promotion(&mut rt, &a, &x);
    let first_winner = rt
        .tuned_candidate(KernelKind::Spmv, &a)
        .expect("first sweep promoted");
    let promotes_before = rt.tune_stats().promotes;

    // Structural drift: a delete-bearing batch forces a rebuild and a
    // new fingerprint; `mutate` retires the old key's sweep state.
    let mut stream = EvolvingStream::new(0xabcd, 0.5);
    let batch = stream.next_batch(&a, 256);
    let out = mutate(&mut rt, &mut a, &batch).expect("in-bounds batch");
    assert_ne!(out.fp_after, out.fp_before, "pattern drifted");
    let retired = out.retired.expect("structural mutation retires");
    assert_eq!(retired.tuner_keys, 1, "old sweep slot retired: {retired:?}");
    assert!(
        rt.tuned_candidate(KernelKind::Spmv, &a).is_none(),
        "the mutated pattern starts untuned"
    );

    // The sweep restarts from scratch on the new fingerprint and
    // re-promotes.
    drive_to_promotion(&mut rt, &a, &x);
    assert_eq!(rt.tune_stats().promotes, promotes_before + 1);
    let second_winner = rt
        .tuned_candidate(KernelKind::Spmv, &a)
        .expect("re-converged on the drifted pattern");
    // The drifted matrix is still hybrid-friendly, so the new winner is
    // again a real measured cell (any format); the serve through it
    // matches the reference.
    let (y, _, _) = served_y(&mut rt, &a, &x);
    let err = kernels::spmv::max_rel_error(&y, &a.spmv_ref(&x));
    assert!(err < 1e-5, "post-reconvergence serve correct: {err}");
    let _ = (first_winner, second_winner);
}
