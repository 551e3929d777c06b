//! Streaming serve loop: matrices that mutate mid-stream.
//!
//! Every workload the runtime served before this module was a static
//! matrix. Dynamic-graph serving interleaves [`sparse::delta`] edge
//! batches with request windows, which makes the runtime's memoization
//! stack a correctness hazard: four cache tiers each hold something
//! derived from the matrix, and each is invalidated by a different
//! mutation class (DESIGN.md §15 tabulates the contract). [`mutate`] is
//! the one safe mutation entry point — it applies a batch through
//! [`sparse::delta::apply_in_place`] and retires every cache tier keyed
//! by the old fingerprint when the pattern changed. A structural batch
//! rebuilds the matrix, which mints a new [`Csr::structure_id`], so the
//! fingerprint memo misses on it by construction. Value-only patches
//! retire nothing: they keep the structure id, plans are pattern-only
//! (still valid), and converted operands are guarded lazily by the
//! value epoch.
//! [`serve_evolving`] drives whole windows of mutation + requests
//! deterministically for benches and tests.

use std::sync::Arc;

use sparse::delta::{apply_in_place, ApplyPath, DeltaBatch, EvolvingStream};
use sparse::{Csr, Prng};

use crate::{
    Fingerprint, Request, RetiredState, Runtime, ServeResult,
};

/// Outcome of one mutation applied through [`mutate`].
#[derive(Debug, Clone, Copy)]
pub struct MutationOutcome {
    /// Fingerprint before the batch.
    pub fp_before: Fingerprint,
    /// Fingerprint after (equal to `fp_before` for pattern-preserving
    /// patches).
    pub fp_after: Fingerprint,
    /// Which path the applier took.
    pub path: ApplyPath,
    /// Elements the applier touched (its work measure — see
    /// [`sparse::delta::DeltaApply`]).
    pub touched: usize,
    /// Modeled apply cost in simulated milliseconds.
    pub apply_ms: f64,
    /// Cache state retired because the fingerprint changed. `None` for
    /// pattern-preserving patches: plans are pattern-only and stay
    /// valid, and the value epoch lazily invalidates converted
    /// operands on their next lookup.
    pub retired: Option<RetiredState>,
}

/// Apply one edge-delta batch to a shared matrix and retire dead cache
/// state — the safe way to mutate a matrix the runtime is serving.
///
/// `Arc::make_mut` clones the matrix if other holders share it (their
/// view stays consistent; the clone shares the structure id, so the
/// fp memo still hits). After the apply, if the fingerprint changed —
/// a structural mutation — every cache tier keyed by the old
/// fingerprint is retired via [`Runtime::retire`]. Value-only patches
/// keep the fingerprint, and correctness is carried by the value
/// epoch: the next non-CSR serve detects the epoch mismatch and
/// re-converts instead of serving stale values.
pub fn mutate(
    rt: &mut Runtime,
    a: &mut Arc<Csr<f32>>,
    batch: &DeltaBatch,
) -> sparse::Result<MutationOutcome> {
    let fp_before = rt.fingerprint(a);
    let apply = apply_in_place(Arc::make_mut(a), batch)?;
    let fp_after = rt.fingerprint(a);
    let retired = (fp_after != fp_before).then(|| rt.retire(&fp_before));
    Ok(MutationOutcome {
        fp_before,
        fp_after,
        path: apply.path,
        touched: apply.touched,
        apply_ms: apply.apply_ms,
        retired,
    })
}

/// Spec for [`serve_evolving`]: `windows` rounds, each applying one
/// `batch_size` edge-delta batch drawn from a seeded
/// [`EvolvingStream`] (window 0 serves the initial matrix unmutated)
/// and then serving `requests_per_window` SpMV requests against the
/// current matrix.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Mutation + serve rounds.
    pub windows: usize,
    /// SpMV requests served per window.
    pub requests_per_window: usize,
    /// Edge events per mutation batch.
    pub batch_size: usize,
    /// Fraction of batch events that are inserts (see
    /// [`EvolvingStream::new`]).
    pub insert_frac: f64,
    /// Seed for the delta stream and the request vectors.
    pub seed: u64,
    /// Arrival spacing between consecutive requests in a window
    /// (simulated ms).
    pub spacing_ms: f64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            windows: 8,
            requests_per_window: 16,
            batch_size: 64,
            insert_frac: 0.7,
            seed: 0xd17a,
            spacing_ms: 0.02,
        }
    }
}

/// Per-window outcome from [`serve_evolving`].
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window index.
    pub window: usize,
    /// The mutation applied before this window's requests (`None` for
    /// window 0).
    pub mutation: Option<MutationOutcome>,
    /// Stored entries after the mutation.
    pub nnz: usize,
    /// Plan-cache hits during this window's serve.
    pub cache_hits: usize,
    /// Plan-cache misses during this window's serve.
    pub cache_misses: usize,
    /// Autotuner keys tracked after this window — bounded under
    /// mutation churn because [`mutate`] retires dead fingerprints.
    pub tuner_keys: usize,
    /// The window's serve result.
    pub serve: ServeResult,
}

/// Drive an evolving matrix through `spec.windows` rounds of
/// mutate-then-serve. Deterministic: the same runtime state, matrix,
/// and spec reproduce identical mutations, completions, and stats.
pub fn serve_evolving(
    rt: &mut Runtime,
    a: &mut Arc<Csr<f32>>,
    spec: &StreamSpec,
) -> simt::Result<Vec<WindowStats>> {
    let mut stream = EvolvingStream::new(spec.seed, spec.insert_frac);
    let mut xrng = Prng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(spec.windows);
    for w in 0..spec.windows {
        let mutation = if w == 0 {
            None
        } else {
            let batch = stream.next_batch(a, spec.batch_size);
            // The stream generator only emits in-bounds coordinates.
            Some(mutate(rt, a, &batch).expect("stream batches are in-bounds"))
        };
        let x: Arc<[f32]> = (0..a.cols())
            .map(|_| xrng.f64() as f32)
            .collect::<Vec<_>>()
            .into();
        let requests: Vec<Request> = (0..spec.requests_per_window)
            .map(|i| Request {
                id: (w * spec.requests_per_window + i) as u64,
                tenant: 0,
                matrix: Arc::clone(a),
                x: Arc::clone(&x),
                arrival_ms: i as f64 * spec.spacing_ms,
            })
            .collect();
        let before = rt.cache_stats();
        let serve = rt.serve(&requests)?;
        let after = rt.cache_stats();
        out.push(WindowStats {
            window: w,
            mutation,
            nnz: a.nnz(),
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            tuner_keys: rt.tune_stats().keys,
            serve,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use simt::GpuSpec;

    fn powerlaw(seed: u64) -> Arc<Csr<f32>> {
        Arc::new(sparse::gen::powerlaw_floor(256, 256, 4, 2048, 1.8, seed))
    }

    fn runtime() -> Runtime {
        Runtime::new(
            GpuSpec::test_tiny(),
            RuntimeConfig {
                keep_results: true,
                ..RuntimeConfig::default()
            },
        )
    }

    #[test]
    fn structural_mutation_retires_old_fingerprint_state() {
        let mut rt = runtime();
        let mut a = powerlaw(7);
        // Warm the plan cache and fp memo on the original pattern.
        let warm = Request {
            id: 0,
            tenant: 0,
            matrix: Arc::clone(&a),
            x: vec![1.0f32; a.cols()].into(),
            arrival_ms: 0.0,
        };
        rt.serve(&[warm]).unwrap();
        let fp = rt.fingerprint(&a);
        // Insert at a coordinate the pattern does not already hold
        // (power-law hubs can be dense rows, so search for a sparse one).
        let (row, new_col) = (0..a.rows())
            .find_map(|r| {
                let cols_r = a.row(r).0;
                (0..a.cols() as u32)
                    .find(|c| !cols_r.contains(c))
                    .map(|c| (r as u32, c))
            })
            .expect("matrix is not fully dense");
        let batch = DeltaBatch {
            inserts: vec![(row, new_col, 1.0)],
            deletes: vec![],
        };
        let out = mutate(&mut rt, &mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Rebuilt);
        assert_ne!(out.fp_after, fp, "pattern changed");
        let retired = out.retired.expect("structural change retires");
        assert!(retired.plans >= 1, "old plan dropped: {retired:?}");
        // The rebuild minted a new structure id, so the post-apply
        // fingerprint was a memo miss and the old id's entry is retired.
        assert_eq!(retired.memo_entries, 1);
        assert_eq!(rt.memo_stats().stamp_mismatches, 0);
    }

    #[test]
    fn value_only_patch_retires_nothing() {
        let mut rt = runtime();
        let mut a = powerlaw(7);
        let fp = rt.fingerprint(&a);
        // Re-insert an existing coordinate: the applier patches values
        // in place and the pattern (hence fingerprint) survives.
        let (cols0, _) = a.row(0);
        let target = cols0[0];
        let batch = DeltaBatch {
            inserts: vec![(0, target, 42.0)],
            deletes: vec![],
        };
        let out = mutate(&mut rt, &mut a, &batch).unwrap();
        assert_eq!(out.path, ApplyPath::Patched);
        assert_eq!(out.fp_after, fp);
        assert!(out.retired.is_none());
    }

    #[test]
    fn serve_evolving_is_deterministic() {
        let run = || {
            let mut rt = runtime();
            let mut a = powerlaw(11);
            let windows =
                serve_evolving(&mut rt, &mut a, &StreamSpec::default()).unwrap();
            let ys: Vec<Vec<f32>> = windows
                .iter()
                .flat_map(|w| w.serve.completions.iter())
                .map(|c| c.y.clone().expect("keep_results"))
                .collect();
            (ys, a.nnz(), windows.len())
        };
        assert_eq!(run(), run());
    }
}
