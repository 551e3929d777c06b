//! PageRank via power iteration — every iteration is one load-balanced
//! SpMV, so the whole algorithm inherits whatever schedule you pick
//! (§5.3's "the same schedules are easily reusable in this different
//! application domain", pushed one application further: Gunrock and
//! GraphBLAST both list PageRank among the primitives built on these
//! load-balancing techniques, §7).
//!
//! `rank_{k+1} = (1-d)/n + d · (Mᵀ rank_k + dangling_mass/n)` where `M`
//! is the column-normalized adjacency. We materialize `Mᵀ` once (a CSR
//! whose rows are *in*-edges with values `1/outdeg(source)`), then
//! iterate simulated SpMVs until the L1 delta crosses the tolerance.

use crate::formats::{spmv_format, PreparedOperand};
use crate::graph::Graph;
use crate::spmv::DEFAULT_BLOCK;
use loops::schedule::ScheduleKind;
use simt::{CostModel, GpuSpec, LaunchReport};
use sparse::{convert, Csr, FormatKind};

/// Result of a simulated PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankRun {
    /// Per-vertex rank, summing to 1.
    pub rank: Vec<f32>,
    /// Power iterations executed.
    pub iterations: usize,
    /// Accumulated report over all iterations.
    pub report: LaunchReport,
}

/// Standard damping factor.
pub const DAMPING: f32 = 0.85;

/// Build the column-normalized transposed adjacency `Mᵀ` (row `v` holds
/// `1/outdeg(u)` for every in-neighbor `u` of `v`).
pub fn normalized_transpose(g: &Graph) -> Csr<f32> {
    let n = g.num_vertices();
    let mut m = g.adjacency().clone();
    {
        let degrees: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();
        let offsets = m.row_offsets().to_vec();
        let vals = m.values_mut();
        for u in 0..n {
            let d = degrees[u].max(1) as f32;
            for v in vals[offsets[u]..offsets[u + 1]].iter_mut() {
                *v = 1.0 / d;
            }
        }
    }
    convert::transpose(&m)
}

/// Run PageRank with the given schedule until the L1 delta falls below
/// `tol` (or `max_iters`), starting from the uniform distribution.
pub fn pagerank(
    spec: &GpuSpec,
    g: &Graph,
    kind: ScheduleKind,
    tol: f32,
    max_iters: usize,
) -> simt::Result<PageRankRun> {
    let n = g.num_vertices();
    assert!(n > 0, "graph must have vertices");
    pagerank_warm(spec, g, kind, tol, max_iters, &vec![1.0f32 / n as f32; n])
}

/// Run PageRank **warm-started** from `init` — the incremental-recompute
/// primitive for streaming graphs: after a small edge delta, the old
/// fixpoint is close to the new one, so iterating from it converges in a
/// fraction of the uniform-start iterations. With `init` uniform this is
/// exactly [`pagerank`] (same ops, bitwise). `init` is L1-normalized
/// first, so stale ranks from a graph whose mass distribution drifted
/// still enter as a probability vector.
pub fn pagerank_warm(
    spec: &GpuSpec,
    g: &Graph,
    kind: ScheduleKind,
    tol: f32,
    max_iters: usize,
    init: &[f32],
) -> simt::Result<PageRankRun> {
    pagerank_in(spec, g, kind, FormatKind::Csr, tol, max_iters, init)
}

/// PageRank on one device: `Mᵀ` prepared in `format`, iterated by
/// [`power_iteration`] from `init`, with every iteration's launch
/// report accumulated.
pub(crate) fn pagerank_in(
    spec: &GpuSpec,
    g: &Graph,
    kind: ScheduleKind,
    format: FormatKind,
    tol: f32,
    max_iters: usize,
    init: &[f32],
) -> simt::Result<PageRankRun> {
    let mt = normalized_transpose(g);
    let op = PreparedOperand::prepare(&mt, format)?;
    let model = CostModel::standard();
    let mut total: Option<LaunchReport> = None;
    let (rank, iterations) = power_iteration(g, tol, max_iters, init, |rank| {
        let run = spmv_format(spec, &model, &mt, &op, rank, kind, DEFAULT_BLOCK)?;
        match &mut total {
            Some(t) => t.accumulate(&run.report),
            None => total = Some(run.report),
        }
        Ok(run.y)
    })?;
    Ok(PageRankRun {
        rank,
        iterations,
        report: total.expect("at least one iteration"),
    })
}

/// The power iteration every PageRank entry point runs, single-device
/// and sharded alike: `init` is L1-normalized first (see
/// [`pagerank_warm`]), then each iteration asks `spmv` for `Mᵀ · rank`
/// and applies the dangling-mass, teleport and L1-delta update on the
/// host, until the delta falls below `tol` or `max_iters` is reached.
/// Returns the ranks and the iterations run. Two callers whose `spmv`
/// steps return the same bits get the same ranks, bitwise.
///
/// # Panics
/// If `g` has no vertices or `init` does not hold one rank per vertex.
pub fn power_iteration(
    g: &Graph,
    tol: f32,
    max_iters: usize,
    init: &[f32],
    mut spmv: impl FnMut(&[f32]) -> simt::Result<Vec<f32>>,
) -> simt::Result<(Vec<f32>, usize)> {
    let n = g.num_vertices();
    assert!(n > 0, "graph must have vertices");
    assert_eq!(init.len(), n, "init must have one rank per vertex");
    let dangling: Vec<usize> = (0..n).filter(|&u| g.degree(u) == 0).collect();

    // Normalize the start to a probability vector. The f32 sum of a
    // uniform start misses 1 by more than 1e-6 at some sizes (n = 1000
    // does), and such a start is rescaled like any other.
    let mass: f32 = init.iter().sum();
    let mut rank: Vec<f32> = if mass > 0.0 && (mass - 1.0).abs() > 1e-6 {
        init.iter().map(|&r| r / mass).collect()
    } else {
        init.to_vec()
    };
    let mut iterations = 0usize;
    while iterations < max_iters {
        let y = spmv(&rank)?;
        let dangling_mass: f32 = dangling.iter().map(|&u| rank[u]).sum();
        let teleport = (1.0 - DAMPING) / n as f32 + DAMPING * dangling_mass / n as f32;
        let next: Vec<f32> = y.iter().map(|&s| teleport + DAMPING * s).collect();
        let delta: f32 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        iterations += 1;
        if delta < tol {
            break;
        }
    }
    Ok((rank, iterations))
}

/// CPU reference implementation (identical math, f64 accumulation).
pub fn pagerank_ref(g: &Graph, tol: f64, max_iters: usize) -> Vec<f32> {
    let n = g.num_vertices();
    let d = f64::from(DAMPING);
    let mut rank = vec![1.0f64 / n as f64; n];
    for _ in 0..max_iters {
        let mut next = vec![0.0f64; n];
        let mut dangling_mass = 0.0f64;
        for (u, &ru) in rank.iter().enumerate() {
            let deg = g.degree(u);
            if deg == 0 {
                dangling_mass += ru;
                continue;
            }
            let share = ru / deg as f64;
            let (nbrs, _) = g.adjacency().row(u);
            for &v in nbrs {
                next[v as usize] += share;
            }
        }
        let teleport = (1.0 - d) / n as f64 + d * dangling_mass / n as f64;
        let mut delta = 0.0f64;
        for (v, slot) in next.iter_mut().enumerate() {
            *slot = teleport + d * *slot;
            delta += (*slot - rank[v]).abs();
        }
        rank = next;
        if delta < tol {
            break;
        }
    }
    rank.into_iter().map(|r| r as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmat_graph() -> Graph {
        Graph::from_generator(sparse::gen::rmat(9, 8, (0.57, 0.19, 0.19), 41))
    }

    #[test]
    fn ranks_sum_to_one_and_match_reference() {
        let g = rmat_graph();
        let spec = GpuSpec::v100();
        for kind in [ScheduleKind::MergePath, ScheduleKind::WarpMapped] {
            let run = pagerank(&spec, &g, kind, 1e-6, 100).unwrap();
            let total: f32 = run.rank.iter().sum();
            assert!((total - 1.0).abs() < 1e-3, "{kind}: ranks sum to {total}");
            let want = pagerank_ref(&g, 1e-8, 200);
            for (v, (got, expect)) in run.rank.iter().zip(&want).enumerate() {
                assert!(
                    (got - expect).abs() < 1e-4,
                    "{kind}: rank[{v}] = {got}, want {expect}"
                );
            }
            assert!(run.iterations > 3, "{kind}: converged suspiciously fast");
        }
    }

    #[test]
    fn hubs_outrank_leaves() {
        // Star: everyone links to vertex 0.
        let n = 100u32;
        let triplets: Vec<(u32, u32, f32)> =
            (1..n).map(|u| (u, 0u32, 1.0f32)).collect();
        let g = Graph::new(Csr::from_triplets(n as usize, n as usize, triplets).unwrap());
        let run = pagerank(&GpuSpec::test_tiny(), &g, ScheduleKind::MergePath, 1e-7, 200).unwrap();
        let hub = run.rank[0];
        assert!(run.rank[1..].iter().all(|&r| r < hub / 5.0), "hub dominates");
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // A chain ending in a dangling vertex: 0→1→2, 2 has no out-edges.
        let g = Graph::new(
            Csr::from_triplets(3, 3, vec![(0u32, 1u32, 1.0f32), (1, 2, 1.0)]).unwrap(),
        );
        let run = pagerank(&GpuSpec::test_tiny(), &g, ScheduleKind::ThreadMapped, 1e-8, 500).unwrap();
        let total: f32 = run.rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "mass conserved: {total}");
        let want = pagerank_ref(&g, 1e-10, 1000);
        for (got, expect) in run.rank.iter().zip(&want) {
            assert!((got - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn warm_start_from_fixpoint_converges_faster() {
        let g = rmat_graph();
        let spec = GpuSpec::v100();
        let cold = pagerank(&spec, &g, ScheduleKind::MergePath, 1e-6, 100).unwrap();
        assert!(cold.iterations > 3, "cold run should take several iterations");
        // Restarting from the converged vector must land on the same
        // fixpoint in far fewer iterations.
        let warm =
            pagerank_warm(&spec, &g, ScheduleKind::MergePath, 1e-6, 100, &cold.rank).unwrap();
        assert!(
            warm.iterations < cold.iterations / 2,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        for (w, c) in warm.rank.iter().zip(&cold.rank) {
            assert!((w - c).abs() < 1e-5);
        }
        // A uniform init through the warm entry point is the cold path.
        let n = g.num_vertices();
        let uniform = vec![1.0f32 / n as f32; n];
        let via_warm =
            pagerank_warm(&spec, &g, ScheduleKind::MergePath, 1e-6, 100, &uniform).unwrap();
        assert_eq!(via_warm.iterations, cold.iterations);
        assert_eq!(via_warm.rank, cold.rank, "uniform warm start is bitwise cold");
    }

    #[test]
    fn normalized_transpose_columns_sum_to_outdeg_shares() {
        let g = rmat_graph();
        let mt = normalized_transpose(&g);
        assert_eq!(mt.rows(), g.num_vertices());
        // Each original out-row contributed deg × (1/deg) = 1 total mass.
        let total: f32 = mt.values().iter().sum();
        let non_dangling = (0..g.num_vertices()).filter(|&u| g.degree(u) > 0).count();
        assert!(
            (total - non_dangling as f32).abs() < 1e-2 * non_dangling as f32,
            "mass {total} vs {non_dangling}"
        );
    }
}
