//! # loops — a programming model for GPU load balancing
//!
//! Rust port of the PPoPP '23 paper's contribution: a fine-grained
//! load-balancing abstraction that **separates workload mapping from work
//! execution**. The pipeline has three stages (paper §3, Figure 1):
//!
//! 1. **Define the work** ([`work`], [`adapters`]): a sparse data
//!    structure is described as *work atoms* (indivisible units, e.g.
//!    nonzeros), *work tiles* (logical groups, e.g. rows), and a *tile set*
//!    (the whole problem). Any format reduces to three sequences: the
//!    atoms, the tiles, and the atoms-per-tile counts — the three
//!    iterators of the paper's Listing 1, which [`work::TileSet`]
//!    answers as methods (`num_tiles`, `tile_atoms`, `atoms_in_tile`).
//!
//! 2. **Define the load balance** ([`schedule`]): a pluggable schedule maps
//!    tiles/atoms onto processing elements and hands each element
//!    ready-to-consume ranges. Five schedules are provided, mirroring
//!    §4.2/§5.2 —
//!    [`schedule::ThreadMappedSchedule`] (tile per thread),
//!    [`schedule::MergePathSchedule`] (perfectly even atoms+tiles split via
//!    2-D diagonal search), and the cooperative-groups generalization
//!    [`schedule::GroupMappedSchedule`], whose `warp_mapped` /
//!    `block_mapped` constructors recover the classic warp- and
//!    block-level schedules for free.
//!
//! 3. **Define the work execution** (your kernel): the user owns the
//!    kernel boundary (§4.3). A computation is written once against the
//!    small [`dispatch::TileExec`] interface and dispatched through the
//!    schedule-polymorphic engine, [`dispatch::BalancedLaunch`] — the one
//!    place that constructs schedules, clamps block dims, derives launch
//!    configs, and caches plan artifacts:
//!
//! ```
//! use loops::adapters::CsrTiles;
//! use loops::dispatch::{span_atoms, BalancedLaunch, TileExec};
//! use loops::schedule::{ScheduleKind, TileSpan};
//! use simt::{CostModel, GlobalMem, GpuSpec, LaneCtx};
//!
//! // The paper's Listing 3 (SpMV), written once:
//! struct Spmv<'a> {
//!     a: &'a sparse::Csr<f32>,
//!     x: &'a [f32],
//!     y: GlobalMem<'a, f32>,
//! }
//! impl TileExec for Spmv<'_> {
//!     const COOPERATIVE_REDUCE: bool = true;
//!     fn span(&self, lane: &LaneCtx<'_>, span: &TileSpan) {
//!         let mut sum = 0.0f32;
//!         for nz in span_atoms(span, lane) {
//!             sum += self.a.values()[nz] * self.x[self.a.col_indices()[nz] as usize];
//!         }
//!         if span.complete {
//!             self.y.store(span.tile, sum);
//!         } else if !span.atoms.is_empty() {
//!             self.y.fetch_add(span.tile, sum);
//!         }
//!     }
//!     fn atom_value(&self, _: &LaneCtx<'_>, _: usize, nz: usize) -> f32 {
//!         self.a.values()[nz] * self.x[self.a.col_indices()[nz] as usize]
//!     }
//!     fn tile_done(&self, _: &LaneCtx<'_>, tile: usize, sum: f32) {
//!         self.y.store(tile, sum);
//!     }
//! }
//!
//! let a = sparse::gen::uniform(256, 256, 2048, 1);
//! let x = sparse::dense::test_vector(256);
//! let mut y = vec![0.0f32; 256];
//! let work = CsrTiles::new(&a);
//! let exec = Spmv { a: &a, x: &x, y: GlobalMem::new(&mut y) };
//! // Switching the schedule — the whole point — is one identifier:
//! BalancedLaunch::new(&GpuSpec::v100(), &CostModel::standard(), &work)
//!     .run(ScheduleKind::MergePath, &exec)
//!     .unwrap();
//! let want = a.spmv_ref(&x);
//! assert!(y.iter().zip(&want).all(|(a, b)| (a - b).abs() < 1e-3));
//! ```
//!
//! Schedules remain directly consumable for custom kernels (nested
//! range-based loops, as in the paper's listings), but every built-in
//! kernel dispatches through the engine, and the
//! [`heuristic::Heuristic`] can pick the schedule per dataset.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapters;
pub mod dispatch;
pub mod heuristic;
pub mod ranges;
pub mod schedule;
pub mod view;
pub mod work;

pub use adapters::{CooTiles, CscTiles, CsrTiles, EllTiles, HybridSlabTiles};
pub use dispatch::{BalancedLaunch, Candidate, Dispatch, KernelKind, KernelPlan, TileExec};
pub use view::MatrixView;
pub use heuristic::Heuristic;
pub use ranges::{
    block_stride_range, grid_stride_range, infinite_range, step_range, warp_stride_range,
    ChargeKind, Charged, StepRange,
};
pub use schedule::{
    GroupMappedSchedule, LrbPlan, LrbSchedule, MergePathSchedule, ScheduleKind,
    ThreadMappedSchedule, TileSpan, WorkQueueSchedule,
};
pub use work::{CountedTiles, RowSpanTiles, SliceTiles, SubsetTiles, TileSet};
