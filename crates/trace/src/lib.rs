//! # trace — structured tracing for the simulator and serving runtime
//!
//! The simulator (`simt`) and the serving runtime (`runtime`) report
//! *aggregates*: a `TimingBreakdown`, a `RuntimeReport`. This crate is
//! the event-level view underneath those numbers — the simulated
//! analogue of an Nsight timeline: which block ran on which SM for how
//! long, how divergent each warp was, when each request arrived, hit or
//! missed the plan cache, dispatched, and completed.
//!
//! Three layers:
//!
//! * **Events + sink** ([`TraceEvent`], [`TraceSink`]) — small `Copy`
//!   records delivered through an optional handle. Instrumented code
//!   holds `Option<&dyn TraceSink>` (or an `Option<Arc<_>>`): when
//!   `None`, the cost is one branch and results are bitwise identical
//!   to uninstrumented code.
//! * **Recorder** ([`Recorder`]) — the standard sink: a bounded ring
//!   buffer of timeline events plus on-arrival aggregation of per-warp
//!   idle lanes and block durations into [`LogHistogram`]s, and a
//!   top-N long-pole-block table.
//! * **Exporters** ([`chrome::to_chrome_json`], [`summary::render`]) —
//!   Chrome Trace Event Format JSON (open `results/trace_*.json` in
//!   Perfetto or `chrome://tracing`) and a plain-text profile.
//!
//! The crate is dependency-free and knows nothing about `simt` or
//! `runtime`; they depend on it, not the other way around.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod label;
pub mod recorder;
pub mod sink;
pub mod summary;

pub use chrome::{to_chrome_json, RUNTIME_PID, STREAM_TID_BASE};
pub use event::{
    CounterKind, FaultKind, KernelId, RequestPhase, ShardPhase, TenantOutcome, TraceEvent,
    TunePhase,
};
pub use hist::LogHistogram;
pub use recorder::{LongPole, Recorder, TraceData};
pub use sink::{Fanout, NullSink, TraceSink};
