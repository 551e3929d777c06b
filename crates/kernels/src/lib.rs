//! # kernels — applications written against the load-balancing abstraction
//!
//! Stage three of the paper's pipeline (§3.3, §4.3): user-owned kernels
//! that consume load-balanced ranges. Everything here is expressed the way
//! the paper's listings are — a computation wrapped around schedule-
//! provided tiles/atoms — so switching schedules never touches the math:
//!
//! * [`mod@spmv`] — sparse matrix × dense vector under *every* schedule
//!   (Listing 3), the paper's benchmark application, from CSR;
//!   [`spmv::spmv_rows`] runs one contiguous row span, the per-device
//!   unit of multi-GPU SpMV;
//! * [`spmm`] — sparse matrix × dense matrix from CSR: Listing 4's "one
//!   extra loop" around the SpMV fold;
//! * [`formats`] — the one SpMV and one SpMM body, written against
//!   [`loops::view::MatrixView`], behind every entry point above: served
//!   from CSR/COO/ELL/hybrid [`PreparedOperand`]s (CSR is one more
//!   operand), cold or under a cached plan, with the conversion wrapper
//!   the runtime caches (§5.2.1's format polymorphism);
//! * [`spgemm`] — Gustavson sparse × sparse with the two-kernel
//!   count-then-fill structure §5.3 sketches;
//! * [`graph`], [`traversal`], [`bfs`], [`sssp`], [`pagerank`] —
//!   data-centric graph algorithms (Listing 5): the *same* schedules
//!   load-balance frontier expansion and power iteration, which is the
//!   paper's reuse claim in action;
//! * [`triangle`] — triangle counting, the Logarithmic-Radix-Binning
//!   workload of §7, on the same traversal engine;
//! * [`reduce`], [`cg`] — device-wide reductions and a Conjugate Gradient
//!   solver composed from the framework's primitives (§3.3's cooperative
//!   algorithms, §2's composability goal);
//! * [`mod@reference`] — sequential ground-truth implementations every
//!   simulated kernel is validated against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bfs;
pub mod cg;
pub mod formats;
pub mod graph;
pub mod pagerank;
pub mod reduce;
pub mod reference;
pub mod spgemm;
pub mod spmm;
pub mod spmv;
pub mod sssp;
pub mod triangle;
pub mod traversal;

pub use formats::PreparedOperand;
pub use graph::{Frontier, Graph};
pub use spmv::{spmv, SpmvRun};
