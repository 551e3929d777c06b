//! Sharded-serving scaling sweep: one seeded Zipf stream per corpus
//! family, served in split mode by shard groups of 1→16 shards under
//! every partitioning strategy. Emits `results/shard_scaling.csv`.
//!
//! The interconnect is priced PCIe-class (12 GB/s, 5 µs) rather than
//! NVLink-class on purpose: shards model *nodes*, and a weak link is
//! what makes the communication wall visible inside the sweep. The
//! curve shows per family where the bulk-synchronous halo-exchange +
//! merge charge kills scaling:
//!
//! * **banded** — ghost columns exist only at block seams, so the halo
//!   is a few dozen bytes per shard; scaling holds to 16 shards while
//!   the (latency-dominated) comm share climbs toward parity.
//! * **powerlaw / rmat** — hub columns are referenced from every row
//!   block, so the ghost set approaches the whole input vector per
//!   shard and the charge erases the compute win almost immediately.
//!   The pinned flat-span schedule (the price of bitwise-identical
//!   split results, see `runtime::split`) also serializes hub rows, so
//!   skewed slices under-fill their device — both effects are visible
//!   in the same row of the CSV.
//!
//! Extends `serve_bench` (pool scaling within a node) and
//! `ablation_multi_gpu` (one SpMV across devices over the same
//! `ShardPlan` partitioners, no runtime) one level up, with the same
//! determinism contract: every row of the CSV is a pure function of the
//! seeds, and CI byte-diffs two runs.

use std::path::PathBuf;
use std::sync::Arc;

use runtime::{zipf_workload, Request, WorkloadSpec};
use shard::{ShardGroup, ShardGroupConfig};
use simt::GpuSpec;
use sparse::{Csr, ShardStrategy};

use crate::{Cli, CsvWriter};

const REQUESTS: usize = 100;
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const STRATEGIES: [ShardStrategy; 3] = [
    ShardStrategy::Rows1D,
    ShardStrategy::Nnz1D,
    ShardStrategy::RowNnz2D,
];
const LINK_BW_GBS: f64 = 12.0;
const LINK_LATENCY_US: f64 = 5.0;

/// One corpus family: a name plus a seeded generator of its `take`
/// members (sizes grow with the index, so `--limit` scales work).
struct Family {
    name: &'static str,
    gen: fn(usize) -> Csr<f32>,
}

const FAMILIES: [Family; 3] = [
    Family {
        name: "powerlaw",
        gen: |i| {
            sparse::gen::powerlaw(
                10_000 * (i + 1),
                10_000 * (i + 1),
                200_000 * (i + 1),
                1.8,
                50 + i as u64,
            )
        },
    },
    Family {
        name: "banded",
        gen: |i| sparse::gen::banded(40_000 * (i + 1), 8, 60 + i as u64),
    },
    Family {
        name: "rmat",
        gen: |i| sparse::gen::rmat(12 + (i as u32 % 3), 16, (0.57, 0.19, 0.19), 70 + i as u64),
    },
];

/// Run the full sweep and return the CSV's path.
pub fn run(cli: &Cli) -> std::io::Result<PathBuf> {
    let take = cli.limit.unwrap_or(4).max(1);

    let mut csv = CsvWriter::create(
        &cli.out_dir,
        "shard_scaling.csv",
        "family,strategy,shards,served,shard_rejects,halo_bytes,comm_share,p50_ms,p99_ms,makespan_ms,throughput_rps,speedup_vs_1",
    )?;

    println!("== shard_bench: split-mode scaling, 1→16 shards ==");
    println!(
        "{:<10} {:<9} {:>6} {:>6} {:>12} {:>10} {:>10} {:>12} {:>9}",
        "family", "strategy", "shards", "served", "halo bytes", "comm", "p99 ms", "req/s", "speedup"
    );

    for family in &FAMILIES {
        let matrices: Vec<Arc<Csr<f32>>> =
            (0..take).map(|i| Arc::new((family.gen)(i))).collect();
        let requests: Vec<Request> = zipf_workload(
            &matrices,
            &WorkloadSpec {
                requests: REQUESTS,
                zipf_s: 1.1,
                mean_interarrival_ms: 0.001,
                seed: 42,
            },
        );

        for strategy in STRATEGIES {
            let mut base_makespan = None;
            for shards in SHARD_COUNTS {
                let mut cfg = ShardGroupConfig::new(shards);
                cfg.strategy = strategy;
                cfg.link_bw_gbs = LINK_BW_GBS;
                cfg.link_latency_us = LINK_LATENCY_US;
                let mut group = ShardGroup::new(GpuSpec::test_tiny(), cfg);
                let out = group.serve_split(&requests).expect("serve");
                let r = &out.report;
                assert!(r.reconciles(), "report must reconcile");

                // The group's own communication charge, so the comm
                // share column decomposes the measured makespan.
                let comm_share = if r.makespan_ms > 0.0 {
                    (r.shard.comm_ms / r.makespan_ms).min(1.0)
                } else {
                    0.0
                };
                let speedup = match base_makespan {
                    None => {
                        base_makespan = Some(r.makespan_ms);
                        1.0
                    }
                    Some(base) => base / r.makespan_ms.max(f64::MIN_POSITIVE),
                };

                csv.row(&format!(
                    "{},{},{},{},{},{},{:.4},{:.5},{:.5},{:.4},{:.1},{:.3}",
                    family.name,
                    strategy.name(),
                    shards,
                    r.served,
                    r.shard.shard_rejects,
                    r.shard.halo_bytes,
                    comm_share,
                    r.latency_p50_ms,
                    r.latency_p99_ms,
                    r.makespan_ms,
                    r.throughput_rps(),
                    speedup
                ))?;
                println!(
                    "{:<10} {:<9} {:>6} {:>6} {:>12} {:>9.1}% {:>10.4} {:>12.0} {:>8.2}x",
                    family.name,
                    strategy.name(),
                    shards,
                    r.served,
                    r.shard.halo_bytes,
                    comm_share * 100.0,
                    r.latency_p99_ms,
                    r.throughput_rps(),
                    speedup
                );
            }
        }
    }
    let path = csv.finish()?;
    eprintln!("wrote {}", path.display());
    host_backend_wall_clock(take);
    Ok(path)
}

/// Host-backend wall clock for the powerlaw family's 4-shard split.
///
/// Stdout only: the CSV above is already finished, and the simulated
/// columns are pinned bitwise across backends (`tests/host_parallel.rs`),
/// so the host's own compute time is the one number that may move.
/// Speedup is bounded by this machine's core count.
fn host_backend_wall_clock(take: usize) {
    use simt::HostBackend;

    let family = &FAMILIES[0]; // powerlaw — the skewed, hub-heavy case
    let matrices: Vec<Arc<Csr<f32>>> = (0..take).map(|i| Arc::new((family.gen)(i))).collect();
    let requests = zipf_workload(
        &matrices,
        &WorkloadSpec {
            requests: REQUESTS,
            zipf_s: 1.1,
            mean_interarrival_ms: 0.001,
            seed: 42,
        },
    );
    println!("\n== host backend wall clock: powerlaw x 4 shards (nnz1d) ==");
    println!("{:<13} {:>10} {:>9}", "backend", "wall ms", "speedup");

    let serve = |backend: HostBackend| {
        let mut cfg = ShardGroupConfig::new(4);
        cfg.strategy = ShardStrategy::Nnz1D;
        cfg.link_bw_gbs = LINK_BW_GBS;
        cfg.link_latency_us = LINK_LATENCY_US;
        let mut group = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        let t0 = std::time::Instant::now();
        let out = simt::host::scoped(backend, || group.serve_split(&requests)).expect("serve");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (wall_ms, out.report.makespan_ms.to_bits(), out.report.served)
    };

    let (seq_ms, seq_makespan, seq_served) = serve(HostBackend::Sequential);
    println!("{:<13} {:>10.1} {:>8.2}x", "sequential", seq_ms, 1.0);
    for threads in [2usize, 4, 8] {
        let (ms, makespan, served) = serve(HostBackend::Parallel { threads });
        assert_eq!(
            (makespan, served),
            (seq_makespan, seq_served),
            "parallel({threads}) diverged from the sequential backend"
        );
        println!(
            "{:<13} {:>10.1} {:>8.2}x",
            format!("parallel({threads})"),
            ms,
            seq_ms / ms
        );
    }
}
