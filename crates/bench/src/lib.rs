//! # bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6), plus
//! ablations. Every binary writes a CSV under `results/` in the artifact's
//! format (`kernel,dataset,rows,cols,nnzs,elapsed`, elapsed in simulated
//! milliseconds) and prints the headline statistics the paper reports.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | Figure 2 — abstraction overhead vs CUB |
//! | `fig3` | Figure 3 — 3 schedules vs cuSparse landscape |
//! | `fig4` | Figure 4 — heuristic-combined speedup vs cuSparse |
//! | `table1` | Table 1 — lines of kernel code |
//! | `ablation_group_size` | group-size sweep (§5.2.3) |
//! | `ablation_heuristic` | α/β threshold sweep (§6.2) |
//! | `ablation_overhead` | abstraction-overhead decomposition (§6.1) |
//! | `ablation_devices` | V100/A100/RTX3090/MI100 portability (§5.2.3) |
//! | `ablation_multi_gpu` | 1–8 device scaling (§8 future work) |
//! | `ablation_dynamic` | static vs dynamic work-queue scheduling |
//! | `locality_report` | schedule-order L2 hit rates (§8 future work) |
//! | `timeline` | per-SM busy profile per schedule (+ `timeline.csv`) |
//! | `profile` | Chrome-trace timelines of a skewed SpMV and a serve run |
//! | `autotune_bench` | static heuristic vs online autotuner steady state |
//! | `shard_bench` | sharded split-mode serving, 1–16 shard scaling |
//! | `streaming_bench` | incremental vs full recompute on evolving graphs |
//! | `telemetry_gate` | windowed-metrics regression gate vs pinned baseline |
//! | `corpus_stats` | corpus structure/imbalance inventory |
//! | `run_all` | every experiment in sequence (the artifact's `run.sh`) |
//!
//! Common flags: `--limit N` (run the first N corpus entries by the
//! deterministic subset rule), `--out DIR` (default `results/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autotune;
pub mod cli;
pub mod csv;
pub mod format_ablation;
pub mod loc;
pub mod microbench;
pub mod node;
pub mod plot;
pub mod profile;
pub mod runner;
pub mod shardbench;
pub mod streaming;
pub mod summary;
pub mod telemetry;

pub use cli::Cli;
pub use csv::CsvWriter;
pub use node::{node_spmv, NodeSpmv};
pub use plot::ScatterPlot;
pub use runner::{for_each_corpus_matrix, validate_against_reference};
pub use summary::{geomean, quantile};
