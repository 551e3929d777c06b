//! # simt — a deterministic SIMT GPU execution simulator
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *"A Programming Model for GPU Load Balancing"* (PPoPP '23). The paper's
//! framework targets NVIDIA's CUDA execution model; this environment has no
//! GPU, so `simt` provides the closest synthetic equivalent: kernels are
//! written per-thread against a CUDA-like hierarchy (grid → block →
//! warp/group → lane), are executed **functionally** (real results are
//! computed — sequentially by default, or across host worker threads via
//! the bitwise-equivalent [`HostBackend`]), and are **timed analytically**
//! with a cost model that captures exactly the phenomena the paper studies:
//!
//! * **lockstep divergence** — a warp's cost is the *maximum* over its
//!   lanes, so an idle lane waiting on a heavy neighbour is paid for;
//! * **intra-SM throughput** — a streaming multiprocessor issues its
//!   resident warps at a bounded rate, so a block's cost is
//!   `max(critical-warp, total-work / issue-width)`;
//! * **oversubscription** — blocks are dispatched greedily to the
//!   least-loaded SM, so launching many more blocks than SMs smooths load,
//!   while a single long-pole block stretches the device makespan;
//! * **memory roofline** — total bytes moved divide by device bandwidth and
//!   the device time is the max of the compute and memory times;
//! * **schedule setup cost** — binary searches, prefix sums, and the
//!   abstraction's per-iteration range overhead are charged explicitly.
//!
//! ## Execution model
//!
//! A kernel is launched over a 1-D grid of 1-D blocks ([`fn@launch`],
//! [`LaunchConfig`]). Each block executes as a sequence of *phases*: within
//! a phase every lane runs a closure to completion; the end of a phase is a
//! barrier. This is the bulk-synchronous subset of CUDA — sufficient for
//! every schedule and kernel in the paper — and it keeps the simulator
//! deterministic and allocation-light. Cooperative groups
//! ([`GroupCtx`]) provide group-wide collectives (`reduce`, `exclusive
//! scan`, `ballot`) with logarithmic-step cost charging, generalizing warp-
//! and block-level cooperation exactly as §5.2.3 of the paper describes.
//!
//! Global memory is shared mutable state accessed through [`GlobalMem`],
//! which stores scalars in atomic cells (relaxed ordering), so racy kernels
//! are *wrong* but never undefined behaviour; `fetch_add`/`fetch_min` give
//! CUDA-style `atomicAdd`/`atomicMin` including the float variants.
//!
//! ## Quick example
//!
//! ```
//! use simt::{GpuSpec, LaunchConfig, GlobalMem, launch_threads};
//!
//! let spec = GpuSpec::v100();
//! let mut out = vec![0.0f32; 1024];
//! {
//!     let gout = GlobalMem::new(&mut out);
//!     let report = launch_threads(
//!         &spec,
//!         LaunchConfig::over_threads(1024, 256),
//!         |t| {
//!             let gid = t.global_thread_id() as usize;
//!             if gid < gout.len() {
//!                 gout.store(gid, gid as f32 * 2.0);
//!                 t.charge(1.0);
//!             }
//!         },
//!     )
//!     .unwrap();
//!     assert!(report.elapsed_ms() > 0.0);
//! }
//! assert_eq!(out[10], 20.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod cache;
pub mod cost;
pub mod error;
pub mod exchange;
pub mod fault;
pub mod group;
pub mod host;
pub mod lane;
pub mod launch;
pub mod memory;
pub mod occupancy;
pub mod report;
pub mod scheduler;
pub mod shared;
pub mod spec;
pub mod stream;
pub mod tracing;

pub use block::BlockCtx;
pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use cost::{CostModel, MemCounters};
pub use error::{LaunchError, Result, SimError, SimResult};
pub use exchange::{halo_exchange, ExchangeCost, MultiGpuSpec};
pub use fault::{FaultCounters, FaultPlan};
pub use group::GroupCtx;
pub use host::HostBackend;
pub use lane::LaneCtx;
pub use launch::{
    launch, launch_groups, launch_groups_with_model, launch_threads, launch_threads_with_model,
    launch_with_model, BlockKernel, LaunchConfig,
};
pub use memory::{GlobalMem, Scalar};
pub use occupancy::Occupancy;
pub use report::{LaunchReport, TimingBreakdown};
pub use shared::SharedBuf;
pub use spec::GpuSpec;
pub use stream::{DeviceSim, JobReport, StreamId};
