//! `spmv_sweep`: the paper's Fig. 3 experiment shape, run cold.
//!
//! 96 seeded matrices, twelve per family with sizes spread geometrically
//! from 20k to 300k nonzeros (a smooth size range, as in a sparse
//! corpus): four skewed families carry the imbalance, four regular ones
//! are the control on which schedules tie. Every `loops::dispatch::candidates`
//! cell of every matrix runs cold — operand conversion, plan
//! preparation, planned launch — on the sequential host backend. Plan
//! setup (merge-path search, LRB binning), format conversion and the
//! per-lane execution path dominate; the serving runtime is absent.
//! One operation is one cold cell.

use std::collections::BTreeMap;

use kernels::formats::{prepare_format_plan, spmv_format_with_plan, PreparedOperand};
use kernels::spmv::{SpmvRun, DEFAULT_BLOCK};
use loops::dispatch::{candidates, Candidate, KernelKind};
use loops::heuristic::Heuristic;
use loops::schedule::ScheduleKind;
use simt::{CostModel, GpuSpec, HostBackend};
use sparse::{Csr, FormatKind};

use super::{mismatch, subseed, Rep, Workload};
use crate::metrics::cell_metric;
use crate::spans::Tracer;

/// Generates a family member with about `nnz` nonzeros from a seed.
type Generator = fn(usize, u64) -> Csr<f32>;

/// Families, skewed first.
const FAMILIES: [(&str, Generator); 8] = [
    ("powerlaw", |nnz, s| {
        sparse::gen::powerlaw(nnz / 10, nnz / 10, nnz, 1.8, s)
    }),
    ("powerlaw_floor", |nnz, s| {
        sparse::gen::powerlaw_floor(nnz / 10, nnz / 10, 4, nnz, 1.8, s)
    }),
    ("rmat", |nnz, s| {
        let scale = (nnz as f64 / 16.0).log2().round() as u32;
        sparse::gen::rmat(scale, 16, (0.57, 0.19, 0.19), s)
    }),
    ("hub_rows", |nnz, s| {
        let rows = nnz * 10 / 96;
        sparse::gen::hub_rows(rows, rows, 16, rows / 10, 8, s)
    }),
    ("uniform", |nnz, s| {
        sparse::gen::uniform(nnz / 10, nnz / 10, nnz, s)
    }),
    ("banded", |nnz, s| sparse::gen::banded(nnz / 9, 4, s)),
    ("stencil5", |nnz, s| {
        let side = (nnz as f64 / 5.0).sqrt() as usize;
        sparse::gen::stencil5(side, side, s)
    }),
    ("block_diag", |nnz, s| {
        sparse::gen::block_diag(nnz / 256, 16, s)
    }),
];

/// Members generated per family, and the smallest and largest sizes.
const PER_FAMILY: usize = 12;
const MIN_NNZ: f64 = 20_000.0;
const MAX_NNZ: f64 = 300_000.0;

struct Matrix {
    name: String,
    a: Csr<f32>,
    x: Vec<f32>,
    reference: Vec<f32>,
    cells: Vec<Candidate>,
    paper: ScheduleKind,
}

pub struct SpmvSweep {
    spec: GpuSpec,
    model: CostModel,
    mats: Vec<Matrix>,
}

impl Workload for SpmvSweep {
    fn setup(seed: u64) -> Self {
        let mut mats = Vec::new();
        for (f, (family, gen)) in FAMILIES.iter().enumerate() {
            for i in 0..PER_FAMILY {
                let part = (f * PER_FAMILY + i) as u64;
                // The seed also draws each size within ±10% of its
                // nominal value, so structure-only families (banded,
                // stencil, block-diagonal) differ between seeds too.
                let jitter = 0.9 + 0.2 * (subseed(seed, part + 1_000) as f64 / u64::MAX as f64);
                let nominal =
                    MIN_NNZ * (MAX_NNZ / MIN_NNZ).powf(i as f64 / (PER_FAMILY - 1) as f64);
                let a = gen((nominal * jitter) as usize, subseed(seed, part));
                let x = sparse::dense::test_vector(a.cols());
                mats.push(Matrix {
                    name: format!("{family}#{i}"),
                    reference: a.spmv_ref(&x),
                    cells: candidates(KernelKind::Spmv, &a),
                    paper: Heuristic::paper().select(a.rows(), a.cols(), a.nnz()),
                    a,
                    x,
                });
            }
        }
        Self {
            spec: GpuSpec::v100(),
            model: CostModel::standard(),
            mats,
        }
    }

    fn rep(&mut self, tr: &Tracer, validate: bool) -> Rep {
        let mut rep = Rep::default();
        // Per cell family: simulated Gnnz/s samples and SM utilizations.
        let mut per_cell: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        let mut paper = Vec::new();
        let (mut bytes, mut nnz_all) = (0u64, 0u64);
        let (mut lrb_setup, mut lrb_total) = (0.0f64, 0.0f64);
        for m in &self.mats {
            let nnz = m.a.nnz() as u64;
            for &(kind, format) in &m.cells {
                rep.attempted += 1;
                let tag = cell_tag(kind, format);
                let out = rep.op(tr, nnz, || {
                    simt::host::scoped(HostBackend::Sequential, || {
                        cold_cell(tr, &self.spec, &self.model, m, kind, format, tag)
                    })
                });
                let (convert_ms, setup_ms, run) = match out {
                    Ok(c) => c,
                    Err(e) => {
                        rep.failures
                            .push(format!("{} {kind}@{format:?}: {e}", m.name));
                        continue;
                    }
                };
                if validate {
                    let bad = mismatch(&run.y, &m.reference);
                    rep.check(bad.is_none(), || {
                        format!(
                            "{} {kind}@{format:?}: y[{}] off the reference",
                            m.name,
                            bad.unwrap_or(0)
                        )
                    });
                }
                let elapsed = run.report.elapsed_ms();
                rep.sim_latency_ms.push(convert_ms + setup_ms + elapsed);
                rep.digest.f32s(&run.y);
                rep.digest.f64(run.report.timing.sm_utilization);
                rep.digest.u64(run.report.mem.total_bytes());
                *rep.host.entry("simt.host_wall_ms").or_default() += run.report.host_wall_ms;

                let gnnz = nnz as f64 / (elapsed * 1e6);
                let slot = per_cell.entry(tag).or_default();
                slot.0.push(gnnz);
                slot.1.push(run.report.timing.sm_utilization);
                if format == FormatKind::Csr && kind == m.paper {
                    paper.push(gnnz);
                }
                bytes += run.report.mem.total_bytes();
                nnz_all += nnz;
                if kind == ScheduleKind::Lrb {
                    lrb_setup += setup_ms;
                    lrb_total += setup_ms + elapsed;
                }
            }
        }
        for (tag, (gnnz, util)) in &per_cell {
            rep.layer.insert(
                cell_metric("simt.sim_gnnz_per_s.", tag),
                bench::geomean(gnnz),
            );
            rep.layer.insert(
                cell_metric("simt.sm_utilization.", tag),
                util.iter().sum::<f64>() / util.len() as f64,
            );
        }
        if !paper.is_empty() {
            rep.layer
                .insert("simt.sim_gnnz_per_s.paper", bench::geomean(&paper));
        }
        rep.layer.insert(
            "simt.sim_bytes_per_nnz",
            bytes as f64 / nnz_all.max(1) as f64,
        );
        if lrb_total > 0.0 {
            rep.layer
                .insert("loops.lrb_sim_setup_share", lrb_setup / lrb_total);
        }
        rep
    }
}

/// The per-cell label: the format for non-CSR cells, else the schedule
/// family.
fn cell_tag(kind: ScheduleKind, format: FormatKind) -> &'static str {
    match format {
        FormatKind::Ell => "ell",
        FormatKind::Hybrid => "hybrid",
        _ => kind.base_name(),
    }
}

/// One cold cell: convert, prepare the plan, launch. Returns the modeled
/// conversion and plan-setup costs with the run.
fn cold_cell(
    tr: &Tracer,
    spec: &GpuSpec,
    model: &CostModel,
    m: &Matrix,
    kind: ScheduleKind,
    format: FormatKind,
    tag: &'static str,
) -> simt::Result<(f64, f64, SpmvRun)> {
    let nnz = m.a.nnz() as u64;
    let format_tag = match format {
        FormatKind::Csr => "csr",
        _ => tag,
    };
    let op = tr.span("sparse.convert", format_tag, nnz, || {
        PreparedOperand::prepare(&m.a, format)
    })?;
    let plan = tr.span(
        "loops.prepare",
        op.effective_schedule(kind).base_name(),
        nnz,
        || prepare_format_plan(spec, model, &m.a, &op, kind, DEFAULT_BLOCK),
    )?;
    let run = tr.span("kernels.spmv", tag, nnz, || {
        spmv_format_with_plan(spec, model, &m.a, &op, &m.x, &plan)
    })?;
    Ok((op.convert_ms(), plan.setup_ms, run))
}
