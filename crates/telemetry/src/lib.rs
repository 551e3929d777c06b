//! # telemetry — deterministic windowed metrics on the simulated clock
//!
//! Every signal the repo emitted before this crate was either an
//! end-of-run aggregate (`RuntimeReport`, `LaunchReport`) or a raw
//! event stream (`trace`). This crate is the middle layer a serving
//! operator actually watches: time series. Samples are bucketed into
//! fixed windows of the **simulated** clock (`floor(ts_ms /
//! window_ms)`), so the series are a pure function of the seeded run —
//! two same-seed runs export byte-identical files, and CI diffs them.
//!
//! Layers:
//!
//! * [`metrics::MetricsRegistry`] — counters, gauges (with per-window
//!   extrema), and log-bucketed histograms ([`trace::LogHistogram`],
//!   exact power-of-two edges), keyed by interned `(name, label set)`.
//! * [`collect::TelemetryCollector`] — a [`trace::TraceSink`] that
//!   folds the existing event stream into the registry. Attaching it is
//!   the only integration instrumented crates need, so the disabled
//!   path stays the one-branch `Option` check that PR 2 proved bitwise
//!   invisible.
//! * [`slo`] — per-tenant deadline-miss budgets with window burn
//!   rates, plus cache-collapse and queue-growth detectors, each
//!   raising a typed [`slo::Alert`] that every exporter reads from the
//!   snapshot.
//! * [`export`] + [`dashboard`] — Prometheus text exposition, the
//!   `telemetry_serve.csv` time series, and the operator dashboard.
//!
//! The crate depends only on `trace` and knows nothing about the
//! simulator or runtime; like the recorder, it observes and never
//! influences.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collect;
pub mod dashboard;
pub mod export;
pub mod metrics;
pub mod slo;

pub use collect::{TelemetryCollector, TelemetryConfig, TelemetrySnapshot};
pub use export::{to_csv, to_prometheus};
pub use metrics::{labels, GaugeWindow, Interner, MetricsRegistry, SymbolId, NO_LABELS};
pub use slo::{evaluate, Alert, AlertKind, SloPolicy};
