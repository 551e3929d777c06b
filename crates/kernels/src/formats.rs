//! Format-generic kernel execution (paper §5.2.1): the same fold, any
//! storage format.
//!
//! The engine already runs over any [`TileSet`]; this module adds the
//! kernel half of format polymorphism — one SpMV and one SpMM
//! [`TileExec`] body, written against [`MatrixView`], that serve CSR,
//! canonical COO, ELL, and the hybrid ELL+COO split, plus the
//! [`PreparedOperand`] conversion wrapper a serving runtime caches and
//! amortizes. CSR is one more operand: every SpMV and SpMM — cold or
//! planned, whole matrix or [`crate::spmv::spmv_rows`] span — runs
//! through these bodies. A cold launch is a planned launch of an
//! artifact-free [`KernelPlan`]: the engine runs the merge-path search
//! and the LRB binning in-launch when the plan carries neither.
//!
//! **Bitwise contract.** For every supported (schedule × format) cell the
//! result vector is bit-for-bit equal to the CSR path under the same
//! schedule, because the per-row fold order never changes:
//!
//! * **COO** (canonical): the derived tile offsets equal CSR's row
//!   offsets and the value/column arrays are byte-identical, so *every*
//!   schedule — including merge-path and the cooperative reducers —
//!   makes identical decisions and identical charges.
//! * **ELL**: rows are front-packed in CSR order with padding only at
//!   the end; the flat-span schedules (thread-mapped, work-queue) hand
//!   each row out as one complete span, and the fold skips padded slots,
//!   reproducing CSR's left-to-right fold exactly. Schedules that split
//!   or interleave rows (merge-path, cooperative) see the *padded*
//!   geometry and are coerced to thread-mapped.
//! * **Hybrid**: one *fused* launch of `rows + tail_nnz` threads. The
//!   low threads fold their row's constant-width slab lane (the first
//!   `width` CSR entries) and store the partial; the high threads
//!   scatter the COO tail, one entry each, in ascending entry index
//!   order. Slab stores occupy strictly lower block indices than tail
//!   adds, so the sequential backend runs every store before any add,
//!   and the parallel backend replays the deferred float adds after
//!   the workers join — both orders equal `store(p); fetch_add(v₁);
//!   fetch_add(v₂)…`, the same fold as CSR's `((p + v₁) + v₂)…`. The
//!   fused geometry is one-thread-per-tile by construction, so hybrid
//!   serves coerce to thread-mapped.
//!
//! CSC is not servable: its tiles are columns, so a row fold would need
//! a scatter with a different accumulation order.
//! [`PreparedOperand::prepare`] refuses it.

use crate::graph::Graph;
use crate::pagerank::PageRankRun;
use crate::spmm::{self, SpmmRun};
use crate::spmv::{SpmvRun, DEFAULT_BLOCK};
use loops::adapters::{CooTiles, CsrTiles, EllTiles, HybridSlabTiles};
use loops::dispatch::{span_atoms, BalancedLaunch, KernelPlan, TileExec};
use loops::schedule::{ScheduleKind, TileSpan};
use loops::view::MatrixView;
use loops::work::TileSet;
use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx, LaunchConfig};
use sparse::{convert, Coo, Csr, DenseMatrix, Ell, FormatKind, Hybrid};
use std::ops::Range;

/// Modeled conversion cost per element touched, deterministic (no wall
/// clock) so replayed traces and CI byte-diffs stay stable. A format
/// conversion is a streaming permutation: each element moves ~24 bytes
/// (read the triplet, write the new layout) at device bandwidth
/// (~900 GB/s on the V100 profile) ≈ 2.5 × 10⁻⁸ ms.
pub const CONVERT_MS_PER_ELEMENT: f64 = 2.5e-8;

/// Hard safety bound on ELL fill for [`PreparedOperand::prepare`]: a
/// conversion that would inflate storage beyond this many slots per
/// nonzero fails instead of allocating a slab orders of magnitude larger
/// than the matrix. (The candidate filter is far stricter —
/// [`loops::dispatch::ELL_MAX_FILL`] — this bound only protects direct
/// callers.)
pub const ELL_SERVE_MAX_FILL: f64 = 64.0;

/// A matrix converted to a serving format, with the modeled one-time
/// conversion cost attached — the unit a runtime caches per
/// `(fingerprint, format)` and amortizes across warm hits.
#[derive(Debug, Clone)]
pub struct PreparedOperand {
    format: FormatKind,
    convert_ms: f64,
    data: OperandData,
}

#[derive(Debug, Clone)]
enum OperandData {
    /// CSR serves from the caller's matrix; nothing is materialized.
    Csr,
    Coo(Coo<f32>),
    Ell(Ell<f32>),
    Hybrid(Hybrid<f32>),
}

impl PreparedOperand {
    /// The CSR operand, which converts nothing and costs nothing.
    pub(crate) const CSR: Self = Self {
        format: FormatKind::Csr,
        convert_ms: 0.0,
        data: OperandData::Csr,
    };

    /// Convert `a` to `format`, charging the modeled one-time cost.
    ///
    /// Errors with [`simt::LaunchError::InvalidWork`] when the format
    /// cannot serve the matrix: CSC (its tiles are columns, not the rows
    /// the kernels fold), or ELL fill beyond [`ELL_SERVE_MAX_FILL`].
    pub fn prepare(a: &Csr<f32>, format: FormatKind) -> simt::Result<Self> {
        let refuse = |reason: String| simt::LaunchError::InvalidWork { reason };
        let (data, elements) = match format {
            FormatKind::Csr => return Ok(Self::CSR),
            FormatKind::Coo => (OperandData::Coo(convert::csr_to_coo(a)), a.nnz()),
            FormatKind::Csc => {
                return Err(refuse(
                    "CSC serves column-major traversals, not row folds".to_owned(),
                ))
            }
            FormatKind::Ell => {
                let e = Ell::from_csr(a, ELL_SERVE_MAX_FILL)
                    .map_err(|e| refuse(format!("ELL conversion refused: {e}")))?;
                let slots = e.slots();
                (OperandData::Ell(e), slots)
            }
            FormatKind::Hybrid => {
                let h = Hybrid::from_csr_auto(a);
                let elements = h.slab_slots() + 2 * h.tail_nnz();
                (OperandData::Hybrid(h), elements)
            }
        };
        Ok(Self {
            format,
            convert_ms: elements as f64 * CONVERT_MS_PER_ELEMENT,
            data,
        })
    }

    /// The format this operand serves.
    pub fn format(&self) -> FormatKind {
        self.format
    }

    /// Modeled one-time conversion cost, charged once on the cold path
    /// and excluded from warm-hit measurements.
    pub fn convert_ms(&self) -> f64 {
        self.convert_ms
    }

    /// The schedule that will actually run for this operand (non-CSR
    /// formats coerce, see [`coerce_for_format`]).
    pub fn effective_schedule(&self, kind: ScheduleKind) -> ScheduleKind {
        coerce_for_format(self.format, kind)
    }

    /// Run `k` over this operand's tile set and entry view — the one
    /// place a format maps to its tiles. The CSR cell serves from `a`,
    /// the matrix the operand was prepared from.
    fn launch<K: OperandKernel>(&self, a: &Csr<f32>, k: &K) -> simt::Result<K::Out> {
        match &self.data {
            OperandData::Csr => k.tiles(&CsrTiles::new(a), &CsrEntries::span(a, 0..a.rows())),
            OperandData::Coo(coo) => k.tiles(&CooTiles::try_new(coo)?, coo),
            OperandData::Ell(e) => k.tiles(&EllTiles::new(e), e),
            OperandData::Hybrid(h) => k.hybrid(h),
        }
    }
}

/// The schedules a format actually runs. CSR and canonical COO share
/// CSR's geometry, so every schedule is legal; ELL only keeps its
/// bitwise contract under the complete-tile flat-span schedules and
/// coerces everything else to thread-mapped (mirroring SpMM's
/// merge-path coercion); hybrid always runs the fused
/// one-thread-per-tile launch, i.e. thread-mapped.
pub fn coerce_for_format(format: FormatKind, kind: ScheduleKind) -> ScheduleKind {
    match format {
        FormatKind::Csr | FormatKind::Coo | FormatKind::Csc => kind,
        FormatKind::Ell => match kind {
            ScheduleKind::ThreadMapped | ScheduleKind::WorkQueue(_) => kind,
            _ => ScheduleKind::ThreadMapped,
        },
        FormatKind::Hybrid => ScheduleKind::ThreadMapped,
    }
}

/// The artifact-free plan a cold launch runs: the engine computes any
/// merge-path partition or LRB binning in-launch, and charges it there.
pub(crate) fn cold_plan(schedule: ScheduleKind, block_dim: u32) -> KernelPlan {
    KernelPlan {
        schedule,
        block_dim,
        merge_starts: None,
        lrb: None,
        setup_ms: 0.0,
    }
}

/// CSR's stored entries as its flat column/value slices, rebased to the
/// first entry of a row span (the atom indices of
/// [`loops::work::RowSpanTiles`]). Indexing the slices directly keeps
/// the view body as fast as a CSR-specific one.
pub(crate) struct CsrEntries<'a> {
    rows: usize,
    cols: usize,
    col_indices: &'a [u32],
    values: &'a [f32],
}

impl<'a> CsrEntries<'a> {
    /// The entries of `a`'s rows `rows`.
    pub(crate) fn span(a: &'a Csr<f32>, rows: Range<usize>) -> Self {
        let atoms = a.row_offsets()[rows.start]..a.row_offsets()[rows.end];
        Self {
            rows: rows.len(),
            cols: a.cols(),
            col_indices: &a.col_indices()[atoms.clone()],
            values: &a.values()[atoms],
        }
    }
}

impl MatrixView for CsrEntries<'_> {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    #[inline]
    fn entry(&self, atom: usize) -> Option<(u32, f32)> {
        Some((self.col_indices[atom], self.values[atom]))
    }
}

/// SpMV, written once for every schedule and format (Listing 3): a flat
/// span accumulates locally and either stores (complete tile) or
/// combines through `atomicAdd` (partial merge-path tile — the
/// framework-level equivalent of CUB's carry-out/fixup pass); cooperative
/// schedules compute one product per atom and store each tile's
/// segment-reduced sum exactly once. Padded slots are skipped.
struct ViewSpmvExec<'a, M: MatrixView> {
    m: &'a M,
    x: &'a [f32],
    y: GlobalMem<'a, f32>,
}

impl<M: MatrixView> TileExec for ViewSpmvExec<'_, M> {
    const COOPERATIVE_REDUCE: bool = true;

    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        let mut sum = 0.0f32;
        for nz in span_atoms(span, lane) {
            if let Some((c, v)) = self.m.entry(nz) {
                sum += v * self.x[c as usize];
            }
        }
        if span.complete {
            self.y.store(span.tile, sum);
            lane.write_bytes(4);
        } else if !span.atoms.is_empty() {
            self.y.fetch_add(span.tile, sum);
            lane.charge_atomic();
        }
    }

    fn atom_value(&self, _lane: &LaneCtx<'_>, _tile: usize, nz: usize) -> f32 {
        self.m
            .entry(nz)
            .map_or(0.0, |(c, v)| v * self.x[c as usize])
    }

    fn tile_done(&self, lane: &LaneCtx<'_>, tile: usize, sum: f32) {
        self.y.store(tile, sum);
        lane.write_bytes(4);
    }
}

/// SpMM, written once for every format (Listing 4): per span, loop over
/// `B`'s columns; per column, the same PAD-aware fold as SpMV. Complete
/// tiles store directly; partial merge-path tiles combine through
/// `atomicAdd`.
struct ViewSpmmExec<'a, M: MatrixView> {
    m: &'a M,
    b: &'a DenseMatrix<f32>,
    c: GlobalMem<'a, f32>,
    n_cols: usize,
}

impl<M: MatrixView> TileExec for ViewSpmmExec<'_, M> {
    const COOPERATIVE_REDUCE: bool = false;

    fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
        // Listing 4: the new loop over B's columns.
        for col in loops::ranges::step_range(0, self.n_cols, 1) {
            let mut sum = 0.0f32;
            for nz in span_atoms(span, lane) {
                if let Some((ci, v)) = self.m.entry(nz) {
                    sum += v * self.b.get(ci as usize, col);
                }
            }
            let out = span.tile * self.n_cols + col;
            if span.complete {
                self.c.store(out, sum);
                lane.write_bytes(4);
            } else if !span.atoms.is_empty() {
                self.c.fetch_add(out, sum);
                lane.charge_atomic();
            }
        }
    }
}

/// What one kernel — or plan preparation — does with an operand's tile
/// set and entry view. Each kernel writes this once, and
/// [`PreparedOperand::launch`] holds the only per-format dispatch.
pub(crate) trait OperandKernel {
    /// The launch's result.
    type Out;

    /// Run over `work`, whose atom indices address `m`.
    fn tiles<W: TileSet, M: MatrixView>(&self, work: &W, m: &M) -> simt::Result<Self::Out>;

    /// Run over a hybrid operand: by default over its slab alone.
    fn hybrid(&self, h: &Hybrid<f32>) -> simt::Result<Self::Out> {
        self.tiles(&HybridSlabTiles::new(h), h)
    }
}

/// Plan preparation: the pattern-only setup artifacts of `kind` over an
/// operand's tiles.
struct Prepare<'a> {
    spec: &'a GpuSpec,
    model: &'a CostModel,
    kind: ScheduleKind,
    block_dim: u32,
}

impl OperandKernel for Prepare<'_> {
    type Out = KernelPlan;

    fn tiles<W: TileSet, M: MatrixView>(&self, work: &W, _: &M) -> simt::Result<KernelPlan> {
        BalancedLaunch::new(self.spec, self.model, work)
            .block_dim(self.block_dim)
            .prepare(self.kind)
    }
}

/// SpMV under a plan — the launch behind every SpMV entry point.
pub(crate) struct SpmvLaunch<'a> {
    pub(crate) spec: &'a GpuSpec,
    pub(crate) model: &'a CostModel,
    pub(crate) x: &'a [f32],
    pub(crate) plan: &'a KernelPlan,
}

impl OperandKernel for SpmvLaunch<'_> {
    type Out = SpmvRun;

    fn tiles<W: TileSet, M: MatrixView>(&self, work: &W, m: &M) -> simt::Result<SpmvRun> {
        assert_eq!(self.x.len(), m.cols(), "x must have one entry per column");
        let mut y = vec![0.0f32; work.num_tiles()];
        let d = {
            let exec = ViewSpmvExec {
                m,
                x: self.x,
                y: GlobalMem::new(&mut y),
            };
            BalancedLaunch::new(self.spec, self.model, work)
                .block_dim(self.plan.block_dim)
                .run_planned(self.plan, &exec)?
        };
        Ok(SpmvRun {
            y,
            report: d.report,
            schedule: d.schedule,
        })
    }

    /// The fused hybrid SpMV: one launch of `rows + tail_nnz` threads.
    /// Threads below `rows` fold their row's constant-width slab lane
    /// and store the partial; the threads above scatter the COO tail,
    /// one entry each, in ascending entry order (charged like a
    /// standalone COO scatter kernel). Fusing the passes drops the
    /// second launch's overhead, and the slab width is a launch
    /// constant, so — unlike a CSR row — a slab row needs no row-extent
    /// read: its only bookkeeping traffic is the y store.
    ///
    /// **Bitwise contract.** The grid covers all `rows + tail_nnz`
    /// threads in one pass, so slab stores occupy strictly lower block
    /// indices than tail adds. The sequential backend therefore runs
    /// every store before any add, and the parallel backend applies
    /// stores live and replays the deferred float adds after the workers
    /// join, in (block, program) order — both execute `store(p);
    /// fetch_add(v₁); fetch_add(v₂)…` per row, the CSR fold.
    fn hybrid(&self, h: &Hybrid<f32>) -> simt::Result<SpmvRun> {
        let x = self.x;
        assert_eq!(x.len(), h.cols(), "x must have one entry per column");
        let rows = h.rows();
        let width = h.width();
        let n = rows + h.tail_nnz();
        let mut y = vec![0.0f32; rows];
        let (scols, svals) = (h.slab_col_indices(), h.slab_values());
        let (trows, tcols, tvals) = (
            h.tail().row_indices(),
            h.tail().col_indices(),
            h.tail().values(),
        );
        let block = self.plan.block_dim.min(self.spec.max_threads_per_block);
        let report = {
            let gy = GlobalMem::new(&mut y);
            simt::launch_threads_with_model(
                self.spec,
                self.model,
                LaunchConfig::over_threads(n.max(1) as u64, block),
                |t| {
                    let i = t.global_thread_id() as usize;
                    if i < rows {
                        // Tile bookkeeping cycles without the row-offset
                        // read: the slab extent is `width`, a constant.
                        t.charge(t.model().tile_cost);
                        let mut sum = 0.0f32;
                        for s in i * width..(i + 1) * width {
                            t.charge(t.model().atom_cost);
                            t.charge_range_iter();
                            // Every slot reads its column index; only
                            // stored entries load the value and gather
                            // from x — padded slots skip both, so they
                            // cost 4 of the model's `bytes_per_atom`
                            // (col + val + x).
                            t.read_bytes(4);
                            let c = scols[s];
                            if c != sparse::ell::PAD {
                                t.read_bytes((t.model().bytes_per_atom as u64).saturating_sub(4));
                                sum += svals[s] * x[c as usize];
                            }
                        }
                        gy.store(i, sum);
                        t.write_bytes(4);
                    } else if i < n {
                        let k = i - rows;
                        t.charge_atom();
                        gy.fetch_add(trows[k] as usize, tvals[k] * x[tcols[k] as usize]);
                        t.charge_atomic();
                    }
                },
            )?
        };
        Ok(SpmvRun {
            y,
            report,
            schedule: ScheduleKind::ThreadMapped,
        })
    }
}

/// SpMM under a plan — the launch behind every SpMM entry point.
struct SpmmLaunch<'a> {
    spec: &'a GpuSpec,
    model: &'a CostModel,
    b: &'a DenseMatrix<f32>,
    plan: &'a KernelPlan,
}

impl OperandKernel for SpmmLaunch<'_> {
    type Out = SpmmRun;

    fn tiles<W: TileSet, M: MatrixView>(&self, work: &W, m: &M) -> simt::Result<SpmmRun> {
        assert_eq!(m.cols(), self.b.rows(), "inner dimensions must agree");
        let mut c = DenseMatrix::zeros(work.num_tiles(), self.b.cols());
        let d = {
            let exec = ViewSpmmExec {
                m,
                b: self.b,
                c: GlobalMem::new(c.as_mut_slice()),
                n_cols: self.b.cols(),
            };
            BalancedLaunch::new(self.spec, self.model, work)
                .block_dim(self.plan.block_dim)
                .run_planned(self.plan, &exec)?
        };
        Ok(SpmmRun {
            c,
            report: d.report,
            schedule: d.schedule,
        })
    }

    /// The slab launch, then a second launch scattering the COO tail:
    /// one thread per tail entry, adding its product to every column of
    /// its output row, in column order.
    fn hybrid(&self, h: &Hybrid<f32>) -> simt::Result<SpmmRun> {
        let mut run = self.tiles(&HybridSlabTiles::new(h), h)?;
        let n = h.tail_nnz();
        if n == 0 {
            return Ok(run);
        }
        let (b, n_cols) = (self.b, self.b.cols());
        let tail = h.tail();
        let (rows, cols, vals) = (tail.row_indices(), tail.col_indices(), tail.values());
        let block = self.plan.block_dim.min(self.spec.max_threads_per_block);
        let report = {
            let gc = GlobalMem::new(run.c.as_mut_slice());
            simt::launch_threads_with_model(
                self.spec,
                self.model,
                LaunchConfig::over_threads(n as u64, block),
                |t| {
                    let i = t.global_thread_id() as usize;
                    if i < n {
                        t.charge_atom();
                        for col in 0..n_cols {
                            gc.fetch_add(
                                rows[i] as usize * n_cols + col,
                                vals[i] * b.get(cols[i] as usize, col),
                            );
                            t.charge_atomic();
                        }
                    }
                },
            )?
        };
        run.report.accumulate(&report);
        Ok(run)
    }
}

/// Run SpMV over a prepared operand with the given schedule, cold: any
/// merge-path search or LRB binning runs, and is charged, in-launch.
/// `a` is the CSR matrix the operand was prepared from (the CSR cell
/// serves from it directly). Unsupported (format × schedule)
/// combinations coerce per [`coerce_for_format`].
pub fn spmv_format(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    x: &[f32],
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<SpmvRun> {
    let plan = cold_plan(op.effective_schedule(kind), block_dim);
    spmv_format_with_plan(spec, model, a, op, x, &plan)
}

/// Prepare a reusable SpMV plan over `op`: the schedule (after
/// [`coerce_for_format`]), the block size, and the pattern-only setup
/// artifacts (merge-path partition table, LRB bins). The artifacts
/// depend only on the sparsity pattern, so one plan serves *any* `x` —
/// the unit a serving runtime caches per matrix. CSR and COO keep every
/// schedule's artifacts (their geometries are identical); the padded
/// formats coerce first, so their plans are always flat-span.
pub fn prepare_format_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    kind: ScheduleKind,
    block_dim: u32,
) -> simt::Result<KernelPlan> {
    op.launch(
        a,
        &Prepare {
            spec,
            model,
            kind: op.effective_schedule(kind),
            block_dim,
        },
    )
}

/// Run SpMV over a prepared operand under a prepared plan: the schedule
/// and any setup artifacts come from the plan, so a cached plan skips
/// the setup a cold launch pays. Bitwise identical to [`spmv_format`]
/// with the plan's schedule — the plan changes *when* work is found,
/// never *what order* each row's products accumulate in.
pub fn spmv_format_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    x: &[f32],
    plan: &KernelPlan,
) -> simt::Result<SpmvRun> {
    op.launch(
        a,
        &SpmvLaunch {
            spec,
            model,
            x,
            plan,
        },
    )
}

/// Run SpMM over a prepared operand with the given schedule, cold.
/// SpMM's own coercion (merge-path, else thread-mapped) applies first,
/// then the format's: the padded formats drop merge-path too, and the
/// hybrid tail is scattered per entry per column.
pub fn spmm_format(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    b: &DenseMatrix<f32>,
    kind: ScheduleKind,
) -> simt::Result<SpmmRun> {
    let plan = cold_plan(op.effective_schedule(spmm::coerce(kind)), DEFAULT_BLOCK);
    spmm_format_with_plan(spec, model, a, op, b, &plan)
}

/// Prepare a reusable SpMM plan over `op`, coerced as in
/// [`spmm_format`]. The artifacts depend only on the sparsity pattern,
/// so one plan serves *any* dense `B`.
pub fn prepare_spmm_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    kind: ScheduleKind,
) -> simt::Result<KernelPlan> {
    prepare_format_plan(spec, model, a, op, spmm::coerce(kind), DEFAULT_BLOCK)
}

/// Run SpMM over a prepared operand under a plan from
/// [`prepare_spmm_plan`] — bitwise identical to [`spmm_format`] with the
/// plan's schedule; a cached merge-path plan skips the in-kernel
/// diagonal searches.
pub fn spmm_format_with_plan(
    spec: &GpuSpec,
    model: &CostModel,
    a: &Csr<f32>,
    op: &PreparedOperand,
    b: &DenseMatrix<f32>,
    plan: &KernelPlan,
) -> simt::Result<SpmmRun> {
    op.launch(
        a,
        &SpmmLaunch {
            spec,
            model,
            b,
            plan,
        },
    )
}

/// PageRank with a format-generic inner SpMV: [`crate::pagerank`]'s
/// power iteration over `Mᵀ` prepared in `format`. Bitwise-identical
/// ranks to [`crate::pagerank::pagerank`] whenever the format's SpMV is
/// bitwise-identical to CSR's under the (coerced) schedule — every
/// iteration sees identical inputs, so the fold never diverges.
pub fn pagerank_format(
    spec: &GpuSpec,
    g: &Graph,
    kind: ScheduleKind,
    format: FormatKind,
    tol: f32,
    max_iters: usize,
) -> simt::Result<PageRankRun> {
    let n = g.num_vertices();
    let uniform = vec![1.0f32 / n as f32; n];
    crate::pagerank::pagerank_in(spec, g, kind, format, tol, max_iters, &uniform)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn coo_cell_is_bitwise_equal_under_every_schedule() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 6_000, 1.7, 6);
        let x = sparse::dense::test_vector(400);
        let csr = PreparedOperand::prepare(&a, FormatKind::Csr).unwrap();
        assert_eq!(csr.convert_ms(), 0.0);
        let op = PreparedOperand::prepare(&a, FormatKind::Coo).unwrap();
        assert!(op.convert_ms() > 0.0);
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::GroupMapped(16),
            ScheduleKind::WorkQueue(8),
            ScheduleKind::Lrb,
        ] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let c = crate::spmv::spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK)
                .unwrap();
            assert_eq!(bits(&f.y), bits(&c.y), "{kind}");
            assert_eq!(f.schedule, c.schedule, "{kind}");
        }
    }

    #[test]
    fn ell_and_hybrid_cells_match_csr_bitwise_under_flat_span_schedules() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // Skewed enough that the hybrid tail is non-empty.
        let a = sparse::gen::powerlaw(500, 500, 7_000, 1.8, 7);
        let x = sparse::dense::test_vector(500);
        let op = PreparedOperand::prepare(&a, FormatKind::Ell).unwrap();
        for kind in [ScheduleKind::ThreadMapped, ScheduleKind::WorkQueue(16)] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let c =
                crate::spmv::spmv_with_model(&spec, &model, &a, &x, kind, DEFAULT_BLOCK).unwrap();
            assert_eq!(bits(&f.y), bits(&c.y), "ell {kind}");
        }
        // Unsupported ELL schedules coerce to thread-mapped; hybrid
        // *always* runs the fused thread-mapped launch. Both stay
        // bitwise equal to CSR's thread-mapped fold.
        let csr_tm = crate::spmv::spmv_with_model(
            &spec,
            &model,
            &a,
            &x,
            ScheduleKind::ThreadMapped,
            DEFAULT_BLOCK,
        )
        .unwrap();
        let f = spmv_format(&spec, &model, &a, &op, &x, ScheduleKind::MergePath, DEFAULT_BLOCK)
            .unwrap();
        assert_eq!(f.schedule, ScheduleKind::ThreadMapped, "ell coerced");
        assert_eq!(bits(&f.y), bits(&csr_tm.y), "ell coerced");
        let op = PreparedOperand::prepare(&a, FormatKind::Hybrid).unwrap();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::WorkQueue(16),
            ScheduleKind::MergePath,
        ] {
            let f = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            assert_eq!(f.schedule, ScheduleKind::ThreadMapped, "hybrid {kind}");
            assert_eq!(bits(&f.y), bits(&csr_tm.y), "hybrid {kind}");
        }
        // The hybrid really split: tail entries exist for this corpus.
        if let OperandData::Hybrid(h) = &op.data {
            assert!(h.tail_nnz() > 0, "test corpus should spill");
        } else {
            unreachable!()
        }
    }

    #[test]
    fn planned_format_runs_are_bitwise_identical() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(400, 400, 5_000, 1.8, 9);
        let x = sparse::dense::test_vector(400);
        for (format, kind) in [
            (FormatKind::Csr, ScheduleKind::Lrb),
            (FormatKind::Coo, ScheduleKind::MergePath),
            (FormatKind::Ell, ScheduleKind::ThreadMapped),
            (FormatKind::Hybrid, ScheduleKind::WorkQueue(16)),
        ] {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            let plan = prepare_format_plan(&spec, &model, &a, &op, kind, DEFAULT_BLOCK).unwrap();
            let cold = spmv_format(&spec, &model, &a, &op, &x, kind, DEFAULT_BLOCK).unwrap();
            let warm = spmv_format_with_plan(&spec, &model, &a, &op, &x, &plan).unwrap();
            assert_eq!(bits(&cold.y), bits(&warm.y), "{format} {kind}");
            assert_eq!(cold.schedule, warm.schedule, "{format} {kind}");
        }
    }

    #[test]
    fn spmm_format_cells_match_csr_bitwise() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let a = sparse::gen::powerlaw(200, 200, 3_000, 1.8, 10);
        let b = DenseMatrix::from_fn(200, 3, |r, c| ((r * 7 + c) as f32).sin());
        let csr_tm = crate::spmm::spmm_with_model(&spec, &model, &a, &b, ScheduleKind::ThreadMapped)
            .unwrap();
        for format in [FormatKind::Coo, FormatKind::Ell, FormatKind::Hybrid] {
            let op = PreparedOperand::prepare(&a, format).unwrap();
            let f = spmm_format(&spec, &model, &a, &op, &b, ScheduleKind::ThreadMapped).unwrap();
            assert_eq!(
                bits(csr_tm.c.as_slice()),
                bits(f.c.as_slice()),
                "{format}"
            );
        }
        // COO also shares merge-path (identical geometry).
        let csr_mp =
            crate::spmm::spmm_with_model(&spec, &model, &a, &b, ScheduleKind::MergePath).unwrap();
        let op = PreparedOperand::prepare(&a, FormatKind::Coo).unwrap();
        let f = spmm_format(&spec, &model, &a, &op, &b, ScheduleKind::MergePath).unwrap();
        assert_eq!(bits(csr_mp.c.as_slice()), bits(f.c.as_slice()));
    }

    #[test]
    fn pagerank_format_matches_the_csr_path_bitwise() {
        let g = crate::graph::Graph::from_generator(sparse::gen::rmat(
            8,
            8,
            (0.57, 0.19, 0.19),
            21,
        ));
        let spec = GpuSpec::v100();
        let want = crate::pagerank::pagerank(&spec, &g, ScheduleKind::ThreadMapped, 1e-6, 50)
            .unwrap();
        for format in [FormatKind::Coo, FormatKind::Hybrid] {
            let run =
                pagerank_format(&spec, &g, ScheduleKind::ThreadMapped, format, 1e-6, 50).unwrap();
            assert_eq!(bits(&want.rank), bits(&run.rank), "{format}");
            assert_eq!(want.iterations, run.iterations, "{format}");
        }
    }

    #[test]
    fn csc_is_not_servable_and_says_why() {
        let a = sparse::gen::uniform(50, 50, 300, 3);
        let err = PreparedOperand::prepare(&a, FormatKind::Csc).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }

    #[test]
    fn ell_is_regular_but_pays_for_padding() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // Skewed matrix: ELL pads every row to the max (512 vs 8).
        // (Row count divides the block size: a ragged tail block would
        // trip the latency-exposure term — see DESIGN.md's model notes.)
        let a = sparse::gen::hub_rows(20_480, 20_480, 64, 512, 8, 17);
        let x = sparse::dense::test_vector(a.cols());
        let op = PreparedOperand::prepare(&a, FormatKind::Ell).unwrap();
        let tm = ScheduleKind::ThreadMapped;
        let ell = spmv_format(&spec, &model, &a, &op, &x, tm, DEFAULT_BLOCK).unwrap();
        let err = crate::spmv::max_rel_error(&ell.y, &a.spmv_ref(&x));
        assert!(err < 2e-3, "err {err}");
        let csr_tm = crate::spmv::spmv(&spec, &a, &x, tm).unwrap();
        // The format pre-balances every row to the same slot count, so the
        // workload is regular by construction...
        assert!(ell.report.timing.sm_utilization > 0.5);
        // ...but the padding is real work: `slots` touched, not `nnz` —
        // the §7 trade between pre-balanced formats and active schedules.
        assert!(
            ell.report.timing.total_units > 5.0 * csr_tm.report.timing.total_units,
            "53x fill should dominate: ell {} vs csr {}",
            ell.report.timing.total_units,
            csr_tm.report.timing.total_units
        );
    }

    #[test]
    fn ell_conversion_refuses_pathological_fill() {
        // One hub row of 5000 over 5000 rows of ~1: fill ≈ 2500.
        let a = sparse::gen::hub_rows(5_000, 5_000, 1, 5_000, 1, 30);
        let err = PreparedOperand::prepare(&a, FormatKind::Ell).unwrap_err();
        assert!(matches!(err, simt::LaunchError::InvalidWork { .. }));
    }
}
