//! # shard — sharded distributed serving over partitioned matrices
//!
//! The serving runtime (`runtime`) scales *within* one node: a device
//! pool behind one plan cache. This crate scales *across* nodes: a
//! [`ShardGroup`] of N nodes joined by an interconnect whose cost model
//! (`simt::exchange`) prices the data movement the single-node path
//! never pays.
//!
//! Three layers:
//!
//! * **Partitioning** (`sparse::partition`) — 1D row, 1D nnz, and 2D
//!   row×nnz cuts of a CSR matrix into contiguous row spans with halo
//!   (ghost-column) metadata: which input-vector entries each shard
//!   needs but does not own.
//! * **Home labels** ([`HashRing`]) — consistent hashing of tenants
//!   onto shards with virtual nodes, deterministic per seed. It names
//!   each request's home shard for its completion and trace events;
//!   the request itself runs on every shard.
//! * **Serving** ([`ShardGroup`]) — split execution: every request runs
//!   data-parallel across all shards, each running
//!   `kernels::spmv::spmv_rows` over its row span of the request's own
//!   matrix, paying a bulk-synchronous halo-exchange + merge charge.
//!   Results are **bitwise identical** to the single-shard path at any
//!   shard count, because the partition is row-aligned (merging is
//!   concatenation) and the schedule is pinned to a flat-span one
//!   (`runtime::split::pinned_schedule`) whose per-row fold order is
//!   position-independent. [`ShardGroup::pagerank`] runs the same
//!   split execution as its SpMV step.
//!
//! `shard_bench` sweeps shard count × corpus family and writes the
//! scaling curve — including where the communication charge overtakes
//! the compute win — to `results/shard_scaling.csv`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod group;
pub mod ring;

pub use group::{ShardGroup, ShardGroupConfig, ShardPageRank};
pub use ring::HashRing;
