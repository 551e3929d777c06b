//! The schedule-polymorphic dispatch engine: one executor for every
//! kernel and every [`ScheduleKind`].
//!
//! The paper's promise (§4–§6) is that the *schedule* is a one-identifier
//! swap while the *computation* is written once. This module is where the
//! repo keeps that promise structurally: a [`BalancedLaunch`] owns — in
//! exactly one place — schedule construction, block-dim clamping,
//! launch-config derivation, plan artifacts ([`KernelPlan`]), and trace
//! span labels ([`trace_label`]), while the kernel supplies only its
//! computation through the small [`TileExec`] interface.
//!
//! A computation is consumed in at most three shapes, and `TileExec` has
//! one hook per shape:
//!
//! * **flat spans** ([`TileExec::span`]) — one thread owns a contiguous
//!   run of one tile's atoms. Thread-mapped and work-queue hand out whole
//!   tiles (`complete == true`); merge-path also hands out *partial*
//!   spans whose results must be combined (`complete == false`). This is
//!   the paper's Listing 3 loop with the span boundary made explicit.
//! * **cooperative reduce** ([`TileExec::atom_value`] +
//!   [`TileExec::tile_done`]) — group/warp/block-mapped schedules compute
//!   a value per atom, segment-reduce by owning tile in scratchpad, and
//!   finalize each tile exactly once (SpMV-shaped kernels).
//! * **cooperative visit** ([`TileExec::visit`]) — the same schedules,
//!   but with an arbitrary per-atom side effect and no reduction
//!   (traversal-shaped kernels). [`TileExec::COOPERATIVE_REDUCE`] selects
//!   between the two cooperative shapes.
//!
//! LRB composes the flat and cooperative shapes over
//! [`SubsetTiles`] size classes; the engine
//! owns that composition too, so every kernel gets the binned schedule
//! (and its cached [`LrbPlan`] warm path) for free.

use crate::schedule::{
    bin_of, GroupMappedSchedule, LrbPlan, LrbSchedule, MergePathSchedule, ScheduleKind,
    ThreadMappedSchedule, TileSpan, WorkQueueSchedule, LRB_NUM_BINS,
};
use crate::ranges::{step_range, Charged, StepRange};
use crate::work::{SubsetTiles, TileSet};
use simt::{CostModel, GpuSpec, LaneCtx, LaunchConfig, LaunchReport};
use sparse::{FormatKind, FormatStats};

/// Default threads per block (the paper's Listing 3 uses 256).
pub const DEFAULT_BLOCK: u32 = 256;

/// Items per thread for merge-path, following CUB's V100 tuning.
pub const MERGE_ITEMS_PER_THREAD: usize = 7;

/// A computation expressed against the engine's consumption shapes.
///
/// Implementations own the kernel boundary (§4.3): what to do with a
/// span of atoms, and where results go. They never see a schedule — the
/// engine decides which hooks run, with which spans, on which simulated
/// processing elements.
pub trait TileExec: Sync {
    /// Whether cooperative schedules run the segment-reduced
    /// ([`Self::atom_value`]/[`Self::tile_done`]) shape (`true`) or the
    /// plain per-atom [`Self::visit`] shape (`false`).
    const COOPERATIVE_REDUCE: bool;

    /// Flat shape: process one thread's contiguous `span` of one tile.
    /// Iterate the atoms through [`span_atoms`] so the framework's range
    /// overheads are charged exactly as the schedules do.
    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan);

    /// Cooperative reduce shape, per atom: the value to accumulate into
    /// `tile`'s segment sum. Only called when
    /// [`Self::COOPERATIVE_REDUCE`] is `true`.
    fn atom_value(&self, _lane: &LaneCtx<'_>, _tile: usize, _atom: usize) -> f32 {
        unreachable!("kernel does not use the cooperative reduce shape")
    }

    /// Cooperative reduce shape, per tile: finalize `tile`'s segment
    /// `sum` (called exactly once per tile). Only called when
    /// [`Self::COOPERATIVE_REDUCE`] is `true`.
    fn tile_done(&self, _lane: &LaneCtx<'_>, _tile: usize, _sum: f32) {
        unreachable!("kernel does not use the cooperative reduce shape")
    }

    /// Cooperative visit shape: arbitrary side effect per atom. Only
    /// called when [`Self::COOPERATIVE_REDUCE`] is `false`.
    fn visit(&self, _lane: &LaneCtx<'_>, _tile: usize, _atom: usize) {
        unreachable!("kernel does not use the cooperative visit shape")
    }
}

/// Charged iterator over a flat span's atoms — the same consumption the
/// schedules hand out, so [`TileExec::span`] implementations charge
/// identically to hand-written kernels.
pub fn span_atoms<'l, 'm>(span: &TileSpan, lane: &'l LaneCtx<'m>) -> Charged<'l, 'm, StepRange> {
    Charged::atoms(step_range(span.atoms.start, span.atoms.end, 1), lane)
}

/// Largest divisor of `n` that is ≤ `k` (≥ 1). Keeps arbitrary group
/// sizes legal for any block size.
///
/// Runs in O(√n) by walking divisor *pairs* `(d, n/d)` up to √n instead
/// of scanning every candidate below `k` — this executes on every
/// group-mapped dispatch, so the descending O(k) scan it replaces was
/// per-launch overhead.
pub fn largest_divisor_leq(n: u32, k: u32) -> u32 {
    if n == 0 || k == 0 {
        return 1;
    }
    let k = k.min(n);
    let mut best = 1u32;
    let mut d = 1u32;
    while d <= n / d {
        if n.is_multiple_of(d) {
            if d <= k && d > best {
                best = d;
            }
            let q = n / d;
            if q <= k && q > best {
                best = q;
            }
        }
        d += 1;
    }
    best
}

/// Identifier for a kernel the engine can dispatch — the typed
/// replacement for the `&str` names that used to thread through
/// [`candidates`], plan-cache keys, and trace labels. `Display` emits the
/// lowercase name and [`std::str::FromStr`] round-trips it, mirroring
/// [`ScheduleKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Sparse matrix × dense vector.
    Spmv,
    /// Sparse matrix × dense matrix.
    Spmm,
    /// Breadth-first search (frontier traversal).
    Bfs,
    /// Single-source shortest paths (frontier traversal).
    Sssp,
    /// PageRank power iteration (SpMV-shaped inner loop).
    Pagerank,
}

impl KernelKind {
    /// The stable lowercase identifier used in trace labels, CSV columns,
    /// and plan-cache keys.
    pub fn base_name(&self) -> &'static str {
        match self {
            Self::Spmv => "spmv",
            Self::Spmm => "spmm",
            Self::Bfs => "bfs",
            Self::Sssp => "sssp",
            Self::Pagerank => "pagerank",
        }
    }

    /// Every kernel kind, in declaration order.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Spmv,
        KernelKind::Spmm,
        KernelKind::Bfs,
        KernelKind::Sssp,
        KernelKind::Pagerank,
    ];

    /// Frontier kernels rebuild their tile set every level, so per-plan
    /// artifacts (LRB bins) and one-time format conversions never
    /// amortize.
    pub fn is_frontier(&self) -> bool {
        matches!(self, Self::Bfs | Self::Sssp)
    }

    /// Whether the kernel has a format-generic execution path worth
    /// exploring beyond CSR (SpMV-shaped folds over a fixed matrix).
    pub fn supports_formats(&self) -> bool {
        matches!(self, Self::Spmv | Self::Spmm | Self::Pagerank)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.base_name())
    }
}

/// Error returned when a string names no [`KernelKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError(String);

impl std::fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown kernel {:?} (expected spmv, spmm, bfs, sssp, or pagerank)",
            self.0
        )
    }
}

impl std::error::Error for ParseKernelError {}

impl std::str::FromStr for KernelKind {
    type Err = ParseKernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "spmv" => Ok(Self::Spmv),
            "spmm" => Ok(Self::Spmm),
            "bfs" => Ok(Self::Bfs),
            "sssp" => Ok(Self::Sssp),
            "pagerank" => Ok(Self::Pagerank),
            _ => Err(ParseKernelError(s.to_owned())),
        }
    }
}

/// One cell of the autotuner's two-axis search space: a schedule paired
/// with the storage format it runs over.
pub type Candidate = (ScheduleKind, FormatKind);

/// ELL candidates are only worth measuring when padding stays below this
/// many slots per stored nonzero ([`FormatStats::ell_fill`]).
pub const ELL_MAX_FILL: f64 = 1.5;

/// Hybrid candidates need visible row-length skew: coefficient of
/// variation at least this…
pub const HYBRID_MIN_CV: f64 = 0.5;

/// …or a longest row at least this multiple of the mean
/// ([`FormatStats::max_over_mean`]).
pub const HYBRID_MIN_MAX_OVER_MEAN: f64 = 4.0;

/// Enumerate the (schedule × format) candidate space worth exploring for
/// `kernel` over the CSR pattern `a` — the search space an online
/// autotuner walks (paper §6.2: the schedule is a one-identifier swap, so
/// the whole space is enumerable; §5.2.1: the format axis only changes
/// the tile iterator, so it composes into the same sweep).
///
/// The schedule axis spans every family plus the tunable group-size and
/// chunk-width variants (warp and block widths are covered by
/// `WarpMapped`/`BlockMapped`, so the explicit `GroupMapped` entries
/// probe the sizes between and beyond them). Work-queue chunk widths
/// that exceed the tile count collapse into one claim and are pruned to
/// keep the sweep short. Frontier kernels (`bfs`, `sssp`) exclude LRB:
/// they rebuild tile sets every level, so the binning pass is paid per
/// launch and never amortizes into a cached plan. `spmm` coerces every
/// family except merge-path to thread-mapped, so its schedule space
/// collapses to those two — exploring coerced aliases would just
/// re-measure the same launch.
///
/// The format axis is filtered by [`FormatStats`] so the tuner never
/// pays to convert a structurally hopeless candidate: ELL only when the
/// padding overhead is bounded ([`ELL_MAX_FILL`]); the hybrid ELL+COO
/// split only when the row lengths are skewed enough that the slab
/// actually truncates hub rows. Canonical COO enumerates identically to
/// CSR (same offsets, same fold order, same cost) and CSC serves
/// column-major traversals, not row folds — neither earns a cell.
/// Frontier kernels stay CSR-only: their per-level tile sets make any
/// conversion cost unamortizable.
///
/// The order is deterministic — exploration policies that want an
/// unbiased walk shuffle it with their own seeded generator.
pub fn candidates(kernel: KernelKind, a: &sparse::Csr<f32>) -> Vec<Candidate> {
    let rows = a.rows();
    if rows == 0 || a.nnz() == 0 {
        // Degenerate patterns: every schedule is a no-op; don't burn
        // exploration serves distinguishing identical costs.
        return vec![(ScheduleKind::ThreadMapped, FormatKind::Csr)];
    }
    let stats = FormatStats::of(a);
    if kernel == KernelKind::Spmm {
        let mut space = vec![
            (ScheduleKind::ThreadMapped, FormatKind::Csr),
            (ScheduleKind::MergePath, FormatKind::Csr),
        ];
        space.extend(format_cells(kernel, &stats));
        return space;
    }
    let mut space: Vec<Candidate> = [
        ScheduleKind::ThreadMapped,
        ScheduleKind::WarpMapped,
        ScheduleKind::BlockMapped,
        ScheduleKind::GroupMapped(8),
        ScheduleKind::GroupMapped(16),
        ScheduleKind::GroupMapped(64),
        ScheduleKind::MergePath,
    ]
    .into_iter()
    .map(|k| (k, FormatKind::Csr))
    .collect();
    for chunk in [64u32, 256, 1024] {
        if chunk == 64 || (chunk as usize) < rows {
            space.push((ScheduleKind::WorkQueue(chunk), FormatKind::Csr));
        }
    }
    if !kernel.is_frontier() {
        space.push((ScheduleKind::Lrb, FormatKind::Csr));
    }
    space.extend(format_cells(kernel, &stats));
    space
}

/// The non-CSR cells of the candidate space (see [`candidates`] for the
/// filtering rationale). Non-CSR formats run thread-mapped only: ELL's
/// padded geometry keeps its bitwise contract under the flat-span
/// schedules but work-queue merely re-chunks the same one-row spans,
/// and the hybrid serve is a fused one-thread-per-tile launch whose
/// schedule axis is fixed by construction — extra cells would burn
/// exploration serves on duplicates.
fn format_cells(kernel: KernelKind, stats: &FormatStats) -> Vec<Candidate> {
    let mut cells = Vec::new();
    if !kernel.supports_formats() || kernel.is_frontier() {
        return cells;
    }
    if stats.ell_fill > 0.0 && stats.ell_fill <= ELL_MAX_FILL {
        cells.push((ScheduleKind::ThreadMapped, FormatKind::Ell));
    }
    let skewed = stats.cv >= HYBRID_MIN_CV || stats.max_over_mean >= HYBRID_MIN_MAX_OVER_MEAN;
    if skewed && stats.hybrid_width < stats.max_row {
        cells.push((ScheduleKind::ThreadMapped, FormatKind::Hybrid));
    }
    cells
}

/// The interned trace span label for `kernel` under `kind`:
/// `"{kernel}/{family}"`, e.g. `"spmv/merge-path"` — parameterless, so a
/// timeline row groups all group sizes / chunk widths of one family.
/// This is also the kernel component serving-runtime plan-cache keys are
/// derived from.
pub fn trace_label(kernel: KernelKind, kind: ScheduleKind) -> &'static str {
    trace::label::intern(&format!("{kernel}/{}", kind.base_name()))
}

/// Result of one engine dispatch.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Simulated launch report (accumulated over passes for LRB).
    pub report: LaunchReport,
    /// The schedule that actually ran, after clamping — e.g.
    /// `WarpMapped` resolves to `GroupMapped(warp_size)`.
    pub schedule: ScheduleKind,
}

/// A prepared, pattern-specific execution plan — the unit a serving
/// runtime caches per (kernel, matrix fingerprint).
///
/// A plan freezes everything about a launch that depends only on the
/// tile set's shape, not on the input values: the schedule choice, the
/// block size, and any precomputed setup artifacts —
///
/// * **merge-path**: the per-thread partition table, which a cold launch
///   walks again before it runs and is charged for as two in-kernel
///   diagonal searches per thread;
/// * **LRB**: the log₂ binning of tiles ([`LrbPlan`]), which the cold
///   path pays two extra launches to build.
///
/// [`BalancedLaunch::run_planned`] replays a plan against any input.
/// Results are **bitwise identical** to the cold path for the same
/// schedule: artifacts only change where work is *found*, never the
/// order in which results accumulate.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// Schedule the plan was prepared for.
    pub schedule: ScheduleKind,
    /// Threads per block.
    pub block_dim: u32,
    /// Merge-path partition table (`num_threads + 1` boundary tile
    /// indices; the atom coordinate is derivable from the diagonal),
    /// present iff `schedule == MergePath`.
    pub merge_starts: Option<Vec<u32>>,
    /// LRB binning artifacts, present iff `schedule == Lrb`.
    pub lrb: Option<LrbPlan>,
    /// Simulated one-time cost of building the *separable* artifacts
    /// (the LRB binning launches). Merge-path setup is charged inside
    /// the cold kernel itself, so on a cache hit its saving shows up as
    /// lower kernel elapsed rather than in this field.
    pub setup_ms: f64,
}

/// The schedule-polymorphic executor: a tile set plus launch policy,
/// ready to run any [`TileExec`] under any [`ScheduleKind`].
///
/// ```
/// use loops::adapters::CsrTiles;
/// use loops::dispatch::{span_atoms, BalancedLaunch, TileExec};
/// use loops::schedule::{ScheduleKind, TileSpan};
/// use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx};
///
/// // The computation, written once (SpMV's Listing 3 body):
/// struct Spmv<'a> {
///     a: &'a sparse::Csr<f32>,
///     x: &'a [f32],
///     y: GlobalMem<'a, f32>,
/// }
/// impl TileExec for Spmv<'_> {
///     const COOPERATIVE_REDUCE: bool = true;
///     fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
///         let mut sum = 0.0;
///         for nz in span_atoms(span, lane) {
///             sum += self.a.values()[nz] * self.x[self.a.col_indices()[nz] as usize];
///         }
///         if span.complete {
///             self.y.store(span.tile, sum);
///             lane.write_bytes(4);
///         } else if !span.atoms.is_empty() {
///             self.y.fetch_add(span.tile, sum);
///             lane.charge_atomic();
///         }
///     }
///     fn atom_value(&self, _: &LaneCtx<'_>, _: usize, nz: usize) -> f32 {
///         self.a.values()[nz] * self.x[self.a.col_indices()[nz] as usize]
///     }
///     fn tile_done(&self, lane: &LaneCtx<'_>, tile: usize, sum: f32) {
///         self.y.store(tile, sum);
///         lane.write_bytes(4);
///     }
/// }
///
/// let (spec, model) = (GpuSpec::v100(), CostModel::standard());
/// let a = sparse::gen::uniform(256, 256, 2048, 1);
/// let x = sparse::dense::test_vector(256);
/// let work = CsrTiles::new(&a);
/// let mut y = vec![0.0f32; 256];
/// // The schedule swap is one identifier — same exec, any schedule:
/// for kind in [ScheduleKind::ThreadMapped, ScheduleKind::MergePath, ScheduleKind::WarpMapped] {
///     y.fill(0.0);
///     let exec = Spmv { a: &a, x: &x, y: GlobalMem::new(&mut y) };
///     BalancedLaunch::new(&spec, &model, &work).run(kind, &exec).unwrap();
///     let want = a.spmv_ref(&x);
///     assert!(y.iter().zip(&want).all(|(g, w)| (g - w).abs() < 1e-3));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BalancedLaunch<'a, W> {
    spec: &'a GpuSpec,
    model: &'a CostModel,
    work: &'a W,
    block_dim: u32,
}

impl<'a, W: TileSet> BalancedLaunch<'a, W> {
    /// An executor over `work` with the default block size
    /// ([`DEFAULT_BLOCK`], clamped to the device). Merge-path always runs
    /// [`MERGE_ITEMS_PER_THREAD`] items per thread, the value
    /// [`Self::prepare`] partitions by.
    pub fn new(spec: &'a GpuSpec, model: &'a CostModel, work: &'a W) -> Self {
        Self {
            spec,
            model,
            work,
            block_dim: DEFAULT_BLOCK.min(spec.max_threads_per_block),
        }
    }

    /// Set threads per block. The engine owns the device clamp: a value
    /// above `spec.max_threads_per_block` is silently reduced, so no
    /// call site can launch an illegal block.
    pub fn block_dim(mut self, block_dim: u32) -> Self {
        self.block_dim = block_dim.min(self.spec.max_threads_per_block);
        self
    }

    /// The block size this launch will use (post-clamp).
    pub fn effective_block_dim(&self) -> u32 {
        self.block_dim
    }

    /// Run `exec` under `kind` — the single schedule switch every kernel
    /// dispatches through.
    pub fn run<E: TileExec>(&self, kind: ScheduleKind, exec: &E) -> simt::Result<Dispatch> {
        match kind {
            ScheduleKind::ThreadMapped => self.thread_mapped(exec),
            ScheduleKind::MergePath => self.merge_path(exec, None),
            ScheduleKind::WarpMapped => self.group_mapped(self.spec.warp_size, exec),
            ScheduleKind::BlockMapped => self.group_mapped(self.block_dim, exec),
            ScheduleKind::GroupMapped(g) => self.group_mapped(g, exec),
            ScheduleKind::WorkQueue(chunk) => self.work_queue(chunk, exec),
            ScheduleKind::Lrb => self.lrb(exec, None),
        }
    }

    /// Prepare a [`KernelPlan`] for `kind`: compute the pattern-only
    /// setup artifacts once, host-side, so repeated launches skip them.
    pub fn prepare(&self, kind: ScheduleKind) -> simt::Result<KernelPlan> {
        let mut plan = KernelPlan {
            schedule: kind,
            block_dim: self.block_dim,
            merge_starts: None,
            lrb: None,
            setup_ms: 0.0,
        };
        match kind {
            ScheduleKind::MergePath => {
                let sched = MergePathSchedule::new(self.work, MERGE_ITEMS_PER_THREAD);
                plan.merge_starts = Some(sched.partition());
            }
            ScheduleKind::Lrb => {
                let sched = LrbSchedule {
                    block_dim: self.block_dim,
                    ..LrbSchedule::default()
                };
                let lrb = sched.bin_tiles(self.spec, self.model, self.work)?;
                plan.setup_ms = lrb.binning_report.elapsed_ms();
                plan.lrb = Some(lrb);
            }
            // The remaining schedules have no pattern-dependent setup to
            // cache; the plan still pins the schedule + block size.
            _ => {}
        }
        Ok(plan)
    }

    /// Run `exec` under a prepared plan: the schedule choice and any
    /// setup artifacts come from the plan, so a cached plan skips the
    /// setup work a cold launch pays. Bitwise identical to
    /// [`Self::run`] with the plan's schedule. The plan's `block_dim` is
    /// *not* applied automatically — callers set it via
    /// [`Self::block_dim`] so the clamp stays in one place.
    pub fn run_planned<E: TileExec>(&self, plan: &KernelPlan, exec: &E) -> simt::Result<Dispatch> {
        match plan.schedule {
            ScheduleKind::MergePath => self.merge_path(exec, plan.merge_starts.as_deref()),
            ScheduleKind::Lrb => self.lrb(exec, plan.lrb.as_ref()),
            kind => self.run(kind, exec),
        }
    }

    /// Listing 2/3: tile per thread, grid-strided; every span complete.
    fn thread_mapped<E: TileExec>(&self, exec: &E) -> simt::Result<Dispatch> {
        let sched = ThreadMappedSchedule::new(self.work);
        let cfg = LaunchConfig::over_threads(self.work.num_tiles().max(1) as u64, self.block_dim);
        let report = simt::launch_threads_with_model(self.spec, self.model, cfg, |t| {
            for tile in sched.tiles(t) {
                exec.span(
                    t,
                    &TileSpan {
                        tile,
                        atoms: self.work.tile_atoms(tile),
                        complete: true,
                    },
                );
            }
        })?;
        Ok(Dispatch {
            report,
            schedule: ScheduleKind::ThreadMapped,
        })
    }

    /// §5.2.1: merge-path. A plan's partition table is the warm path:
    /// each thread loads its span bounds
    /// ([`MergePathSchedule::spans_prepartitioned`]). A cold launch walks
    /// the table once, here on the calling thread, and its threads read
    /// their bounds from it charged as the two in-kernel diagonal
    /// searches ([`MergePathSchedule::spans_walked`]), so every simulated
    /// number is the searched launch's.
    fn merge_path<E: TileExec>(&self, exec: &E, starts: Option<&[u32]>) -> simt::Result<Dispatch> {
        let sched = MergePathSchedule::new(self.work, MERGE_ITEMS_PER_THREAD);
        let walked;
        let (table, warm) = match starts {
            Some(s) => {
                assert_eq!(
                    s.len(),
                    sched.num_threads() + 1,
                    "merge-path partition table does not match this matrix"
                );
                (s, true)
            }
            None => {
                walked = sched.partition();
                (&walked[..], false)
            }
        };
        let cfg = sched.launch_config(self.block_dim);
        let report = simt::launch_threads_with_model(self.spec, self.model, cfg, |t| {
            let spans = if warm {
                sched.spans_prepartitioned(t, table)
            } else {
                sched.spans_walked(t, table)
            };
            for span in spans {
                exec.span(t, &span);
            }
        })?;
        Ok(Dispatch {
            report,
            schedule: ScheduleKind::MergePath,
        })
    }

    /// §5.2.2/§5.2.3: group-mapped (warp- and block-mapped are the same
    /// code at fixed group sizes). The engine owns the legality clamp: a
    /// group cannot exceed its block and must tile it evenly.
    fn group_mapped<E: TileExec>(&self, group_size: u32, exec: &E) -> simt::Result<Dispatch> {
        let group_size = group_size.clamp(1, self.block_dim);
        let group_size = largest_divisor_leq(self.block_dim, group_size);
        let sched = GroupMappedSchedule::new(self.work, group_size);
        // Oversubscribe ~8 blocks per SM; rounds absorb the remainder.
        let cfg = sched.launch_config(self.block_dim, self.spec.num_sms * 8);
        let report = if E::COOPERATIVE_REDUCE {
            simt::launch_groups_with_model(self.spec, self.model, cfg, group_size, |g| {
                sched.process_batches(
                    g,
                    |lane, tile, atom| exec.atom_value(lane, tile, atom),
                    |lane, tile, sum| exec.tile_done(lane, tile, sum),
                );
            })?
        } else {
            simt::launch_groups_with_model(self.spec, self.model, cfg, group_size, |g| {
                sched.process(g, |lane, tile, atom| exec.visit(lane, tile, atom));
            })?
        };
        Ok(Dispatch {
            report,
            schedule: ScheduleKind::GroupMapped(group_size),
        })
    }

    /// Dynamic: persistent threads claiming tile chunks from a global
    /// atomic queue; every claimed tile is a complete flat span. Only the
    /// threads with a first claim run lane by lane; the rest of each
    /// block is charged as idle.
    fn work_queue<E: TileExec>(&self, chunk: u32, exec: &E) -> simt::Result<Dispatch> {
        let sched = WorkQueueSchedule::new(self.work, chunk as usize);
        let cfg = sched.launch_config(self.spec, self.block_dim);
        let kernel = |b: &mut simt::BlockCtx<'_>| {
            let active = sched.claiming_threads(b.block_idx(), b.grid_dim(), b.block_dim());
            b.for_each_active_thread(active, |t| {
                sched.process_tiles(t, |lane, tile| {
                    exec.span(
                        lane,
                        &TileSpan {
                            tile,
                            atoms: self.work.tile_atoms(tile),
                            complete: true,
                        },
                    );
                });
            });
        };
        let report = simt::launch_with_model(self.spec, self.model, cfg, &kernel)?;
        Ok(Dispatch {
            report,
            schedule: ScheduleKind::WorkQueue(sched.chunk() as u32),
        })
    }

    /// §7's Logarithmic Radix Binning, composed from the other shapes: a
    /// binning pass (or a cached [`LrbPlan`]) groups tiles by log₂ size;
    /// small tiles run as flat spans one-per-thread, medium tiles
    /// cooperative at warp width, large tiles cooperative at block width.
    fn lrb<E: TileExec>(&self, exec: &E, cached: Option<&LrbPlan>) -> simt::Result<Dispatch> {
        let cfg_sched = LrbSchedule {
            block_dim: self.block_dim,
            ..LrbSchedule::default()
        };
        // A cached plan skips the binning launches entirely (the bins
        // only depend on the tile-set shape, not on input values); its
        // cost was paid once at prepare time.
        let owned;
        let (plan, mut report) = match cached {
            Some(p) => (p, None),
            None => {
                owned = cfg_sched.bin_tiles(self.spec, self.model, self.work)?;
                let r = owned.binning_report.clone();
                (&owned, Some(r))
            }
        };
        let small_hi = bin_of(cfg_sched.small_limit) + 1;
        let medium_hi = bin_of(cfg_sched.medium_limit) + 1;
        let class = |lo: usize, hi: usize| &plan.order[plan.bin_offsets[lo]..plan.bin_offsets[hi]];
        // Small tiles: flat spans, one tile per thread.
        let small = class(0, small_hi);
        if !small.is_empty() {
            let view = SubsetTiles::new(self.work, small);
            let sched = ThreadMappedSchedule::new(&view);
            let cfg = LaunchConfig::over_threads(small.len() as u64, self.block_dim);
            let r = simt::launch_threads_with_model(self.spec, self.model, cfg, |t| {
                for local in sched.tiles(t) {
                    exec.span(
                        t,
                        &TileSpan {
                            tile: view.global_tile(local),
                            atoms: view.tile_atoms(local),
                            complete: true,
                        },
                    );
                }
            })?;
            match report {
                Some(ref mut rep) => rep.accumulate(&r),
                None => report = Some(r),
            }
        }
        // Medium and large classes: cooperative at warp / block width.
        for (lo, hi, group) in [
            (small_hi, medium_hi, self.spec.warp_size),
            (medium_hi, LRB_NUM_BINS, self.block_dim),
        ] {
            let tiles = class(lo, hi.max(lo));
            if tiles.is_empty() {
                continue;
            }
            let view = SubsetTiles::new(self.work, tiles);
            let sched = GroupMappedSchedule::new(&view, group);
            let cfg = sched.launch_config(self.block_dim, self.spec.num_sms * 8);
            let r = if E::COOPERATIVE_REDUCE {
                simt::launch_groups_with_model(self.spec, self.model, cfg, group, |g| {
                    sched.process_batches(
                        g,
                        |lane, local, atom| exec.atom_value(lane, view.global_tile(local), atom),
                        |lane, local, sum| exec.tile_done(lane, view.global_tile(local), sum),
                    );
                })?
            } else {
                simt::launch_groups_with_model(self.spec, self.model, cfg, group, |g| {
                    sched.process(g, |lane, local, atom| {
                        exec.visit(lane, view.global_tile(local), atom)
                    });
                })?
            };
            match report {
                Some(ref mut rep) => rep.accumulate(&r),
                None => report = Some(r),
            }
        }
        let report = match report {
            Some(r) => r,
            // Fully empty tile set on the cached path: synthesize a
            // minimal launch so the run still carries a valid report.
            None => simt::launch_threads_with_model(
                self.spec,
                self.model,
                LaunchConfig::over_threads(1, self.block_dim),
                |_t| {},
            )?,
        };
        Ok(Dispatch {
            report,
            schedule: ScheduleKind::Lrb,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::CountedTiles;
    use simt::GlobalMem;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A visit-shaped exec that counts (tile, atom) hits.
    struct CountExec<'a> {
        work: &'a CountedTiles,
        hits: &'a AtomicU64,
    }

    impl TileExec for CountExec<'_> {
        const COOPERATIVE_REDUCE: bool = false;
        fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
            for atom in span_atoms(span, lane) {
                assert!(self.work.tile_atoms(span.tile).contains(&atom));
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn visit(&self, _lane: &LaneCtx<'_>, tile: usize, atom: usize) {
            assert!(self.work.tile_atoms(tile).contains(&atom));
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_schedule_covers_every_atom_exactly_once() {
        let work = CountedTiles::from_counts((0..200).map(|i| (i * 7) % 60).collect::<Vec<_>>());
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::BlockMapped,
            ScheduleKind::GroupMapped(4),
            ScheduleKind::WorkQueue(3),
            ScheduleKind::Lrb,
        ] {
            let hits = AtomicU64::new(0);
            let exec = CountExec {
                work: &work,
                hits: &hits,
            };
            let d = BalancedLaunch::new(&spec, &model, &work)
                .block_dim(16)
                .run(kind, &exec)
                .unwrap();
            assert_eq!(
                hits.load(Ordering::Relaxed),
                work.num_atoms() as u64,
                "{kind}"
            );
            assert!(d.report.elapsed_ms() > 0.0, "{kind}");
        }
    }

    /// A reduce-shaped exec summing atom ids per tile.
    struct SumExec<'a> {
        out: GlobalMem<'a, f32>,
    }

    impl TileExec for SumExec<'_> {
        const COOPERATIVE_REDUCE: bool = true;
        fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
            let mut sum = 0.0f32;
            for atom in span_atoms(span, lane) {
                sum += atom as f32;
            }
            if span.complete {
                self.out.store(span.tile, sum);
                lane.write_bytes(4);
            } else if !span.atoms.is_empty() {
                self.out.fetch_add(span.tile, sum);
                lane.charge_atomic();
            }
        }
        fn atom_value(&self, _lane: &LaneCtx<'_>, _tile: usize, atom: usize) -> f32 {
            atom as f32
        }
        fn tile_done(&self, lane: &LaneCtx<'_>, tile: usize, sum: f32) {
            self.out.store(tile, sum);
            lane.write_bytes(4);
        }
        fn visit(&self, _lane: &LaneCtx<'_>, _tile: usize, _atom: usize) {
            unreachable!("reduce-shaped exec never visits")
        }
    }

    #[test]
    fn reduce_shape_agrees_across_schedules_and_plans() {
        let work = CountedTiles::from_counts(vec![3usize, 0, 40, 1, 7, 120, 2, 2]);
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let want: Vec<f32> = (0..work.num_tiles())
            .map(|t| work.tile_atoms(t).map(|a| a as f32).sum())
            .collect();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::GroupMapped(8),
            ScheduleKind::WorkQueue(2),
            ScheduleKind::Lrb,
        ] {
            let engine = BalancedLaunch::new(&spec, &model, &work).block_dim(16);
            let mut cold = vec![0.0f32; work.num_tiles()];
            {
                let exec = SumExec {
                    out: GlobalMem::new(&mut cold),
                };
                engine.run(kind, &exec).unwrap();
            }
            assert_eq!(cold, want, "{kind}");
            // Planned path must be bitwise identical.
            let plan = engine.prepare(kind).unwrap();
            let mut warm = vec![0.0f32; work.num_tiles()];
            {
                let exec = SumExec {
                    out: GlobalMem::new(&mut warm),
                };
                engine.run_planned(&plan, &exec).unwrap();
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cold), bits(&warm), "{kind}: plan changed results");
        }
    }

    #[test]
    fn engine_owns_the_clamps() {
        let work = CountedTiles::from_counts(vec![2usize; 10]);
        let spec = GpuSpec::test_tiny();
        let model = CostModel::standard();
        let engine = BalancedLaunch::new(&spec, &model, &work).block_dim(1 << 20);
        assert_eq!(engine.effective_block_dim(), spec.max_threads_per_block);
        // Zero work-queue chunk and absurd group sizes are legalized, not
        // panics.
        let hits = AtomicU64::new(0);
        let exec = CountExec {
            work: &work,
            hits: &hits,
        };
        let d = engine.run(ScheduleKind::WorkQueue(0), &exec).unwrap();
        assert_eq!(d.schedule, ScheduleKind::WorkQueue(1));
        let d = engine.run(ScheduleKind::GroupMapped(1 << 20), &exec).unwrap();
        assert_eq!(
            d.schedule,
            ScheduleKind::GroupMapped(spec.max_threads_per_block)
        );
    }

    #[test]
    fn trace_labels_are_parameterless_and_interned() {
        assert_eq!(
            trace_label(KernelKind::Spmv, ScheduleKind::WorkQueue(256)),
            "spmv/work-queue"
        );
        assert_eq!(
            trace_label(KernelKind::Bfs, ScheduleKind::GroupMapped(64)),
            "bfs/group-mapped"
        );
        let a = trace_label(KernelKind::Spmm, ScheduleKind::MergePath);
        let b = trace_label(KernelKind::Spmm, ScheduleKind::MergePath);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn kernel_kinds_round_trip_display_and_reject_junk() {
        for kind in KernelKind::ALL {
            let parsed: KernelKind = kind.to_string().parse().expect("round-trip");
            assert_eq!(parsed, kind, "{kind}");
        }
        assert_eq!(KernelKind::Pagerank.to_string(), "pagerank");
        for bad in ["SpMV", "spgemm", ""] {
            let err = bad.parse::<KernelKind>().unwrap_err();
            assert!(err.to_string().contains("unknown kernel"), "{bad}");
        }
    }

    #[test]
    fn largest_divisor_behaves() {
        assert_eq!(largest_divisor_leq(256, 32), 32);
        assert_eq!(largest_divisor_leq(256, 3), 2);
        assert_eq!(largest_divisor_leq(256, 1), 1);
        assert_eq!(largest_divisor_leq(96, 64), 48);
        assert_eq!(largest_divisor_leq(7, 7), 7);
    }

    #[test]
    fn largest_divisor_matches_naive_scan() {
        let naive =
            |n: u32, k: u32| -> u32 { (1..=k.min(n)).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1) };
        for n in 0..=300u32 {
            for k in 0..=(n + 2).min(300) {
                assert_eq!(largest_divisor_leq(n, k), naive(n, k), "n={n} k={k}");
            }
        }
        let mut rng = sparse::Prng::seed_from_u64(0xd1f);
        for _ in 0..2000 {
            let n = rng.index(0, 1 << 16) as u32;
            let k = rng.index(0, 1 << 16) as u32;
            assert_eq!(largest_divisor_leq(n, k), naive(n, k), "n={n} k={k}");
        }
    }

    #[test]
    fn candidate_space_is_deterministic_and_covers_variants() {
        let a = sparse::gen::uniform(2000, 2000, 20_000, 7);
        let space = candidates(KernelKind::Spmv, &a);
        assert_eq!(space, candidates(KernelKind::Spmv, &a), "order must be stable");
        assert!(space.contains(&(ScheduleKind::MergePath, FormatKind::Csr)));
        assert!(space.contains(&(ScheduleKind::GroupMapped(8), FormatKind::Csr)));
        assert!(space.contains(&(ScheduleKind::WorkQueue(1024), FormatKind::Csr)));
        assert!(space.contains(&(ScheduleKind::Lrb, FormatKind::Csr)));
        // Each candidate appears once.
        for k in &space {
            assert_eq!(space.iter().filter(|c| *c == k).count(), 1, "{k:?}");
        }
        // Frontier kernels rebuild tile sets per level: no LRB, no
        // non-CSR formats (conversions never amortize).
        let frontier = candidates(KernelKind::Bfs, &a);
        assert!(!frontier.contains(&(ScheduleKind::Lrb, FormatKind::Csr)));
        assert!(frontier.contains(&(ScheduleKind::MergePath, FormatKind::Csr)));
        assert!(frontier.iter().all(|&(_, f)| f == FormatKind::Csr));
        // Chunk widths that exceed the tile count are pruned.
        let tiny = candidates(KernelKind::Spmv, &sparse::gen::uniform(100, 100, 400, 1));
        assert!(tiny.contains(&(ScheduleKind::WorkQueue(64), FormatKind::Csr)));
        assert!(!tiny.contains(&(ScheduleKind::WorkQueue(1024), FormatKind::Csr)));
        // Degenerate patterns collapse to a single no-op candidate.
        let empty = candidates(KernelKind::Spmv, &sparse::gen::uniform(5, 5, 0, 1));
        assert_eq!(empty, vec![(ScheduleKind::ThreadMapped, FormatKind::Csr)]);
        // SpMM coerces all non-merge-path families to thread-mapped, so
        // its CSR schedule space is exactly those two (plus any
        // thread-mapped format cells).
        let spmm = candidates(KernelKind::Spmm, &a);
        assert_eq!(
            spmm.iter()
                .filter(|&&(_, f)| f == FormatKind::Csr)
                .map(|&(k, _)| k)
                .collect::<Vec<_>>(),
            vec![ScheduleKind::ThreadMapped, ScheduleKind::MergePath]
        );
        assert!(spmm
            .iter()
            .all(|&(k, f)| f == FormatKind::Csr || k == ScheduleKind::ThreadMapped));
    }

    #[test]
    fn format_cells_follow_the_structural_filters() {
        // A regular banded matrix: ELL fill ≈ 1, no skew → ELL yes,
        // hybrid no.
        let banded = sparse::gen::banded(400, 3, 13);
        let space = candidates(KernelKind::Spmv, &banded);
        assert!(space.contains(&(ScheduleKind::ThreadMapped, FormatKind::Ell)));
        assert!(!space.iter().any(|&(_, f)| f == FormatKind::Hybrid));
        // A power law: ELL fill explodes → no ELL; heavy skew → the
        // hybrid cell (thread-mapped only: the fused serve fixes its
        // own geometry, so other schedules would be duplicates).
        let pl = sparse::gen::powerlaw(2000, 2000, 30_000, 1.8, 7);
        let space = candidates(KernelKind::Spmv, &pl);
        assert!(!space.iter().any(|&(_, f)| f == FormatKind::Ell));
        assert!(space.contains(&(ScheduleKind::ThreadMapped, FormatKind::Hybrid)));
        assert!(
            space
                .iter()
                .all(|&(k, f)| f != FormatKind::Hybrid || k == ScheduleKind::ThreadMapped),
            "hybrid earns exactly the thread-mapped cell"
        );
        // COO and CSC never earn cells (identical cost / wrong traversal).
        for kernel in KernelKind::ALL {
            for &(_, f) in &candidates(kernel, &pl) {
                assert!(f != FormatKind::Coo && f != FormatKind::Csc, "{kernel}");
            }
        }
    }
}
