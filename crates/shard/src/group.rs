//! A simulated shard group: N serving runtimes, each standing in for a
//! device pool on its own node, joined by an interconnect.
//!
//! Two serving modes, matching the two ways a request can relate to the
//! partition:
//!
//! * [`ShardGroup::serve_split`] — every request's matrix is split
//!   across *all* shards by a [`ShardPlan`]; each shard computes its
//!   row block and the group pays a bulk-synchronous halo-exchange +
//!   merge charge per request. Results are bitwise identical to the
//!   single-shard path (see [`runtime::split`]).
//! * [`ShardGroup::serve_routed`] — whole requests are routed to their
//!   tenant's home shard by the consistent-hash [`HashRing`]; each
//!   shard's runtime serves its slice of the stream with its own plan
//!   cache, batcher, and autotuner. No communication charge — tenants
//!   are independent — at the cost of per-shard load imbalance.
//!
//! The split path is a *global* data-parallel execution (strong
//! scaling, communication-bound); the routed path is *tenant*
//! parallelism (throughput scaling, balance-bound). `shard_bench`
//! sweeps both against shard count.

use std::collections::HashMap;
use std::sync::Arc;

use kernels::graph::Graph;
use kernels::pagerank::{normalized_transpose, power_iteration};
use loops::schedule::ScheduleKind;
use runtime::cache::Lru;
use runtime::split::{pinned_schedule, split_spmv};
use runtime::{
    latency_stats, Completion, DeviceReport, DropReason, DroppedRequest, QueuePolicy, Request,
    Runtime, RuntimeConfig, RuntimeReport, ServeResult, ShardCounters,
};
use simt::exchange::halo_exchange;
use simt::{GpuSpec, MultiGpuSpec};
use sparse::{Csr, ShardPlan, ShardStrategy};
use trace::{ShardPhase, TenantOutcome, TraceEvent, TraceSink};

use crate::ring::HashRing;

/// Virtual nodes per shard on the routing ring.
const RING_VNODES: usize = 64;

/// Seed of the routing ring's hash points.
const RING_SEED: u64 = 0x5eed;

/// Sizing and policy knobs of one shard group.
#[derive(Debug, Clone)]
pub struct ShardGroupConfig {
    /// Shards (nodes) in the group.
    pub shards: usize,
    /// How split-mode matrices are partitioned across shards.
    pub strategy: ShardStrategy,
    /// Per-shard runtime configuration (device pool, caches, batching).
    pub runtime: RuntimeConfig,
    /// Global admission window of the split path: split requests in
    /// flight (admitted, not yet completed) before backpressure.
    pub queue_depth: usize,
    /// What the global admission layer does when the window is full.
    pub policy: QueuePolicy,
    /// Inter-shard link bandwidth per direction, GB/s.
    pub link_bw_gbs: f64,
    /// Per-transfer link latency, microseconds.
    pub link_latency_us: f64,
}

impl ShardGroupConfig {
    /// A group of `shards` NVLink-class nodes with default policies.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            strategy: ShardStrategy::RowNnz2D,
            runtime: RuntimeConfig::default(),
            queue_depth: 64,
            policy: QueuePolicy::Block,
            link_bw_gbs: 150.0,
            link_latency_us: 2.0,
        }
    }
}

/// A split-mode partition of one matrix, cached by its
/// [`Csr::value_epoch`] so repeat tenants pay the partitioning cost
/// once (the group-level analogue of the runtime's plan cache).
#[derive(Debug)]
struct SplitEntry {
    subs: Vec<Arc<Csr<f32>>>,
    kind: ScheduleKind,
    halo_bytes: Vec<u64>,
    total_halo: u64,
    merge_bytes: u64,
    /// Shard whose halo bounds the exchange (owns the critical
    /// transfer).
    bounding_shard: u32,
}

/// Result of a sharded PageRank run (see [`ShardGroup::pagerank`]).
#[derive(Debug, Clone)]
pub struct ShardPageRank {
    /// Per-vertex rank, summing to 1 — bitwise identical to
    /// `kernels::pagerank` under the same pinned schedule.
    pub rank: Vec<f32>,
    /// Power iterations executed.
    pub iterations: usize,
    /// The pinned flat-span schedule every shard ran.
    pub schedule: ScheduleKind,
    /// Summed critical-shard compute time over all iterations (ms).
    pub compute_ms: f64,
    /// Summed halo-exchange + merge charge over all iterations (ms).
    pub comm_ms: f64,
}

/// N shard runtimes plus the ring, link model, and split-partition
/// cache that tie them into one serving surface.
#[derive(Debug)]
pub struct ShardGroup {
    cfg: ShardGroupConfig,
    ring: HashRing,
    shards: Vec<Runtime>,
    link: MultiGpuSpec,
    /// Split partitions keyed by the source's value epoch: equal epochs
    /// mean equal structure and equal values. An [`Lru`] of the shards'
    /// `plan_cache_capacity` entries.
    splits: Lru<u64, Arc<SplitEntry>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl ShardGroup {
    /// Build a group of `cfg.shards` identical runtimes over `spec`
    /// devices.
    ///
    /// # Panics
    /// If `cfg.shards` is zero.
    pub fn new(spec: GpuSpec, cfg: ShardGroupConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let shards = (0..cfg.shards)
            .map(|_| Runtime::new(spec.clone(), cfg.runtime))
            .collect();
        let link = MultiGpuSpec {
            device: spec,
            num_devices: cfg.shards as u32,
            link_bw_gbs: cfg.link_bw_gbs,
            link_latency_us: cfg.link_latency_us,
        };
        let ring = HashRing::new(cfg.shards, RING_VNODES, RING_SEED);
        Self {
            splits: Lru::new(cfg.runtime.plan_cache_capacity),
            cfg,
            ring,
            shards,
            link,
            sink: None,
        }
    }

    /// Shards in the group.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing ring (read-only; membership is fixed at
    /// construction).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Attach a trace sink; shard milestones
    /// ([`TraceEvent::Shard`]) are emitted through it.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    fn emit(&self, shard: u32, phase: ShardPhase, ts_ms: f64, value: f64) {
        if let Some(s) = &self.sink {
            s.event(&TraceEvent::Shard {
                shard,
                phase,
                ts_ms,
                value,
            });
        }
    }

    fn emit_tenant(&self, tenant: u32, ts_ms: f64, latency_ms: f64, outcome: TenantOutcome) {
        if let Some(s) = &self.sink {
            s.event(&TraceEvent::TenantSample {
                tenant,
                ts_ms,
                latency_ms,
                outcome,
            });
        }
    }

    /// Partition (or recall) the split-mode plan for `a`. A matrix
    /// rebuilt, or written through `values_mut`, since the last cut has
    /// a new value epoch and so gets a new partition.
    fn split_entry(&mut self, a: &Csr<f32>) -> Arc<SplitEntry> {
        let key = a.value_epoch();
        if let Some(entry) = self.splits.get(&key) {
            return Arc::clone(entry);
        }
        let plan = ShardPlan::partition(a, self.shards.len(), self.cfg.strategy);
        let subs = (0..plan.num_shards())
            .map(|s| Arc::new(plan.submatrix(a, s)))
            .collect();
        let halo_bytes: Vec<u64> = plan.shards.iter().map(|s| s.halo_bytes()).collect();
        let bounding_shard = halo_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .map_or(0, |(i, _)| i as u32);
        let entry = Arc::new(SplitEntry {
            subs,
            kind: pinned_schedule(a),
            total_halo: plan.total_halo_bytes(),
            merge_bytes: plan.max_output_bytes(),
            halo_bytes,
            bounding_shard,
        });
        self.splits.insert(key, Arc::clone(&entry));
        entry
    }

    /// Serve a request stream in **split mode**: each request runs
    /// data-parallel across every shard, bulk-synchronously — compute
    /// the critical shard's row block, pay the halo-exchange and merge
    /// charge, concatenate. The merged outputs are bitwise identical to
    /// serving on one shard (the root `shard_oracle` tests assert it).
    ///
    /// Global admission applies the group's `queue_depth`/`policy`
    /// *before* routing; per-request deadlines
    /// ([`RuntimeConfig::deadline_ms`]) are honored against the
    /// admitted start time.
    pub fn serve_split(&mut self, requests: &[Request]) -> simt::Result<ServeResult> {
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&i, &j| {
            requests[i]
                .arrival_ms
                .partial_cmp(&requests[j].arrival_ms)
                .expect("finite arrivals")
        });

        let cache_before: Vec<_> = self.shards.iter().map(Runtime::cache_stats).collect();
        let mut completions: Vec<Completion> = Vec::new();
        let mut dropped: Vec<DroppedRequest> = Vec::new();
        let mut counters = ShardCounters::default();
        let mut deadline_missed = 0usize;
        // The split path is bulk-synchronous: one request occupies the
        // whole group at a time, so admitted-but-unfinished requests
        // form a FIFO whose completion times are non-decreasing.
        let mut ends: Vec<f64> = Vec::new();
        let mut busy_until = 0.0f64;

        for &i in &order {
            let r = &requests[i];
            let in_flight = ends.len() - ends.partition_point(|&e| e <= r.arrival_ms);
            if in_flight >= self.cfg.queue_depth && self.cfg.policy == QueuePolicy::Reject {
                counters.shard_rejects += 1;
                self.emit(
                    self.ring.route(r.id),
                    ShardPhase::Reject,
                    r.arrival_ms,
                    r.id as f64,
                );
                self.emit_tenant(r.tenant, r.arrival_ms, 0.0, TenantOutcome::Rejected);
                dropped.push(DroppedRequest {
                    id: r.id,
                    ts_ms: r.arrival_ms,
                    reason: DropReason::Rejected,
                });
                continue;
            }
            let home = self.ring.route(r.id);
            counters.routed += 1;
            self.emit(home, ShardPhase::Route, r.arrival_ms, r.id as f64);

            let start = r.arrival_ms.max(busy_until);
            if start - r.arrival_ms > self.cfg.runtime.deadline_ms {
                deadline_missed += 1;
                self.emit_tenant(
                    r.tenant,
                    start,
                    start - r.arrival_ms,
                    TenantOutcome::DeadlineMiss,
                );
                dropped.push(DroppedRequest {
                    id: r.id,
                    ts_ms: start,
                    reason: DropReason::DeadlineMissed,
                });
                continue;
            }

            let split = self.split_entry(&r.matrix);
            let run = split_spmv(&mut self.shards, &split.subs, &r.x, split.kind)?;
            let cost = halo_exchange(&self.link, &split.halo_bytes, split.merge_bytes);
            let end = start + run.critical_shard_ms() + cost.total_ms();

            if self.shards.len() > 1 {
                counters.halo_bytes += split.total_halo;
                self.emit(
                    split.bounding_shard,
                    ShardPhase::HaloExchange,
                    start,
                    split.total_halo as f64,
                );
            }
            counters.merges += 1;
            self.emit(home, ShardPhase::Merge, end, 4.0 * run.y.len() as f64);

            self.emit_tenant(r.tenant, end, end - r.arrival_ms, TenantOutcome::Served);
            let active = split.subs.iter().filter(|s| s.rows() > 0).count();
            completions.push(Completion {
                id: r.id,
                arrival_ms: r.arrival_ms,
                start_ms: start,
                end_ms: end,
                device: home as usize,
                batched: false,
                cache_hit: Some(run.cache_hits == active),
                schedule: split.kind,
                format: sparse::FormatKind::Csr,
                attempts: 1,
                y: self.cfg.runtime.keep_results.then_some(run.y),
            });
            ends.push(end);
            busy_until = end;
        }

        let mut report = self.assemble_report(requests.len(), &completions, &cache_before);
        report.rejected = counters.shard_rejects;
        report.deadline_missed = deadline_missed;
        report.shard = counters;
        debug_assert!(report.reconciles(), "split accounting must balance");
        Ok(ServeResult {
            completions,
            dropped,
            report,
        })
    }

    /// Serve a request stream in **routed mode**: the ring assigns each
    /// request's tenant (its id) a home shard, and each shard's runtime
    /// serves its slice independently — shard-local plan caches,
    /// batchers, and autotuners all engage. Completions carry
    /// group-global device indices (`shard · devices_per_shard +
    /// local`).
    pub fn serve_routed(&mut self, requests: &[Request]) -> simt::Result<ServeResult> {
        let mut per_shard: Vec<Vec<Request>> = vec![Vec::new(); self.shards.len()];
        for r in requests {
            let home = self.ring.route(r.id);
            self.emit(home, ShardPhase::Route, r.arrival_ms, r.id as f64);
            per_shard[home as usize].push(r.clone());
        }

        let devices_per_shard = self.cfg.runtime.devices;
        let mut completions: Vec<Completion> = Vec::new();
        let mut dropped: Vec<DroppedRequest> = Vec::new();
        let mut merged: Option<RuntimeReport> = None;
        for (s, stream) in per_shard.iter().enumerate() {
            if stream.is_empty() {
                continue;
            }
            let mut out = self.shards[s].serve(stream)?;
            for c in &mut out.completions {
                c.device += s * devices_per_shard;
            }
            completions.extend(out.completions);
            dropped.extend(out.dropped);
            let mut rep = out.report;
            for d in &mut rep.devices {
                d.device += s * devices_per_shard;
            }
            merged = Some(match merged {
                None => rep,
                Some(acc) => merge_reports(acc, rep),
            });
        }

        // Shard-local runtimes have no sink wired, so per-tenant
        // outcome samples are emitted here at the group boundary from
        // the merged completion/drop record.
        if self.sink.is_some() {
            let tenants: HashMap<u64, (u32, f64)> = requests
                .iter()
                .map(|r| (r.id, (r.tenant, r.arrival_ms)))
                .collect();
            for c in &completions {
                if let Some(&(tenant, _)) = tenants.get(&c.id) {
                    self.emit_tenant(
                        tenant,
                        c.end_ms,
                        c.end_ms - c.arrival_ms,
                        TenantOutcome::Served,
                    );
                }
            }
            for d in &dropped {
                if let Some(&(tenant, arrival_ms)) = tenants.get(&d.id) {
                    let latency_ms = (d.ts_ms - arrival_ms).max(0.0);
                    self.emit_tenant(tenant, d.ts_ms, latency_ms, d.reason.outcome());
                }
            }
        }

        let mut report = merged.unwrap_or_else(|| {
            self.assemble_report(0, &[], &vec![Default::default(); self.shards.len()])
        });
        report.submitted = requests.len();
        // Re-derive stream-wide latency stats: per-shard percentiles do
        // not compose, the merged sample does.
        let (p50, p99, mean) = latency_stats(&completions);
        report.latency_p50_ms = p50;
        report.latency_p99_ms = p99;
        report.latency_mean_ms = mean;
        report.shard = ShardCounters {
            routed: requests.len(),
            ..ShardCounters::default()
        };
        debug_assert!(report.reconciles(), "routed accounting must balance");
        Ok(ServeResult {
            completions,
            dropped,
            report,
        })
    }

    /// Sharded PageRank: the normalized transpose is partitioned once,
    /// and `kernels::pagerank`'s own [`power_iteration`] runs with one
    /// split execution plus the bulk-synchronous communication charge as
    /// its SpMV step. The scalar update (dangling mass, teleport, delta)
    /// runs on the *merged* vector, which is why the ranks are bitwise
    /// identical to the single-shard run at any shard count.
    pub fn pagerank(
        &mut self,
        g: &Graph,
        tol: f32,
        max_iters: usize,
    ) -> simt::Result<ShardPageRank> {
        let n = g.num_vertices();
        assert!(n > 0, "graph must have vertices");
        let mt = normalized_transpose(g);
        let kind = pinned_schedule(&mt);
        let plan = ShardPlan::partition(&mt, self.shards.len(), self.cfg.strategy);
        let subs: Vec<Arc<Csr<f32>>> = (0..plan.num_shards())
            .map(|s| Arc::new(plan.submatrix(&mt, s)))
            .collect();
        let halo: Vec<u64> = plan.shards.iter().map(|s| s.halo_bytes()).collect();

        let mut compute_ms = 0.0f64;
        let mut comm_ms = 0.0f64;
        let init = vec![1.0f32 / n as f32; n];
        let (rank, iterations) = power_iteration(g, tol, max_iters, &init, |rank| {
            let run = split_spmv(&mut self.shards, &subs, rank, kind)?;
            compute_ms += run.critical_shard_ms();
            comm_ms += halo_exchange(&self.link, &halo, plan.max_output_bytes()).total_ms();
            Ok(run.y)
        })?;
        Ok(ShardPageRank {
            rank,
            iterations,
            schedule: kind,
            compute_ms,
            comm_ms,
        })
    }

    /// Assemble a report skeleton for the split path from completions
    /// plus per-shard cache deltas; the caller fills in the drop and
    /// shard counters.
    fn assemble_report(
        &self,
        submitted: usize,
        completions: &[Completion],
        cache_before: &[runtime::CacheStats],
    ) -> RuntimeReport {
        let (p50, p99, mean) = latency_stats(completions);
        let mut cache = runtime::CacheStats::default();
        let mut devices = Vec::with_capacity(self.shards.len());
        for (s, rt) in self.shards.iter().enumerate() {
            let after = rt.cache_stats();
            let before = cache_before.get(s).copied().unwrap_or_default();
            cache.hits += after.hits - before.hits;
            cache.misses += after.misses - before.misses;
            cache.evictions += after.evictions - before.evictions;
            devices.push(DeviceReport {
                device: s,
                jobs: completions.len(),
                sm_occupancy: 0.0,
                makespan_ms: completions.iter().fold(0.0f64, |m, c| m.max(c.end_ms)),
                faults: Default::default(),
            });
        }
        RuntimeReport {
            submitted,
            served: completions.len(),
            rejected: 0,
            deadline_missed: 0,
            failed: 0,
            retries: 0,
            failovers: 0,
            plan_fallbacks: 0,
            device_evictions: 0,
            batches: 0,
            batched_requests: 0,
            cache,
            tune_explores: 0,
            tune_promotes: 0,
            latency_p50_ms: p50,
            latency_p99_ms: p99,
            latency_mean_ms: mean,
            makespan_ms: completions.iter().fold(0.0f64, |m, c| m.max(c.end_ms)),
            shard: ShardCounters::default(),
            devices,
        }
    }
}

/// Fold two per-shard reports into one: counters add, latency stats are
/// re-derived by the caller, makespan is the slowest shard's.
fn merge_reports(mut acc: RuntimeReport, rep: RuntimeReport) -> RuntimeReport {
    acc.submitted += rep.submitted;
    acc.served += rep.served;
    acc.rejected += rep.rejected;
    acc.deadline_missed += rep.deadline_missed;
    acc.failed += rep.failed;
    acc.retries += rep.retries;
    acc.failovers += rep.failovers;
    acc.plan_fallbacks += rep.plan_fallbacks;
    acc.device_evictions += rep.device_evictions;
    acc.batches += rep.batches;
    acc.batched_requests += rep.batched_requests;
    acc.cache.hits += rep.cache.hits;
    acc.cache.misses += rep.cache.misses;
    acc.cache.evictions += rep.cache.evictions;
    acc.tune_explores += rep.tune_explores;
    acc.tune_promotes += rep.tune_promotes;
    acc.makespan_ms = acc.makespan_ms.max(rep.makespan_ms);
    acc.devices.extend(rep.devices);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{zipf_workload, WorkloadSpec};

    fn corpus() -> Vec<Arc<Csr<f32>>> {
        vec![
            Arc::new(sparse::gen::powerlaw(1_200, 1_200, 15_000, 1.8, 31)),
            Arc::new(sparse::gen::banded(1_000, 9, 32)),
            Arc::new(sparse::gen::uniform(900, 900, 8_000, 33)),
        ]
    }

    fn workload(n: usize) -> Vec<Request> {
        zipf_workload(
            &corpus(),
            &WorkloadSpec {
                requests: n,
                zipf_s: 1.1,
                mean_interarrival_ms: 0.05,
                seed: 99,
            },
        )
    }

    fn group(n: usize) -> ShardGroup {
        let mut cfg = ShardGroupConfig::new(n);
        cfg.runtime.keep_results = true;
        ShardGroup::new(GpuSpec::test_tiny(), cfg)
    }

    #[test]
    fn split_serving_is_bitwise_identical_across_shard_counts() {
        let reqs = workload(60);
        let base = group(1).serve_split(&reqs).unwrap();
        assert!(base.report.reconciles());
        for n in [2usize, 4] {
            let out = group(n).serve_split(&reqs).unwrap();
            assert!(out.report.reconciles(), "{n} shards must reconcile");
            assert_eq!(out.completions.len(), base.completions.len());
            for (a, b) in out.completions.iter().zip(&base.completions) {
                assert_eq!(a.id, b.id);
                let (ya, yb) = (a.y.as_ref().unwrap(), b.y.as_ref().unwrap());
                let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ya), bits(yb), "request {} diverged at {n} shards", a.id);
            }
        }
    }

    #[test]
    fn split_mode_fills_shard_counters_and_reconciles() {
        let reqs = workload(40);
        let out = group(4).serve_split(&reqs).unwrap();
        let shard = out.report.shard;
        assert!(shard.is_active());
        assert_eq!(shard.routed, 40);
        assert_eq!(shard.merges, out.report.served);
        assert!(shard.halo_bytes > 0, "4-way powerlaw splits must have ghosts");
        assert!(out.report.reconciles());
        assert!(out.report.cache.hits > 0, "repeat tenants must hit shard caches");
    }

    #[test]
    fn split_cache_stays_bounded_under_structural_mutation() {
        // Every rebuild mints a new value epoch, so without the bound the
        // split cache would grow by one dead entry per round.
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.keep_results = true;
        cfg.runtime.plan_cache_capacity = 4;
        let mut grp = ShardGroup::new(GpuSpec::test_tiny(), cfg.clone());
        let mut rt = Runtime::new(GpuSpec::test_tiny(), cfg.runtime);
        let mut a = Arc::new(sparse::gen::powerlaw(300, 300, 3_000, 1.8, 5));
        let mut stream = sparse::delta::EvolvingStream::new(3, 0.5);
        let bits = |out: &ServeResult| -> Vec<u32> {
            let y = out.completions[0].y.as_ref().expect("keep_results");
            y.iter().map(|v| v.to_bits()).collect()
        };
        for round in 0..12u64 {
            let batch = stream.next_batch(&a, 16);
            let out = runtime::mutate(&mut rt, &mut a, &batch).unwrap();
            assert_eq!(out.path, sparse::delta::ApplyPath::Rebuilt);
            let req = [Request {
                id: round,
                tenant: 0,
                matrix: Arc::clone(&a),
                x: sparse::dense::test_vector(a.cols()).into(),
                arrival_ms: 0.0,
            }];
            let got = grp.serve_split(&req).unwrap();
            let want = ShardGroup::new(GpuSpec::test_tiny(), cfg.clone())
                .serve_split(&req)
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "round {round}");
            assert!(grp.splits.len() <= 4, "round {round}: {}", grp.splits.len());
        }
    }

    #[test]
    fn split_cache_keeps_a_hot_matrix_under_churn() {
        // The split cache evicts its least recently used entry, so a hot
        // matrix served between one-shot ones keeps its partition.
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.plan_cache_capacity = 4;
        let mut grp = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        let request = |id: u64, a: &Arc<Csr<f32>>| Request {
            id,
            tenant: 0,
            matrix: Arc::clone(a),
            x: sparse::dense::test_vector(a.cols()).into(),
            arrival_ms: 0.0,
        };
        let hot = Arc::new(sparse::gen::banded(300, 4, 7));
        let hot_cut = |grp: &mut ShardGroup| {
            let split = grp.splits.get(&hot.value_epoch()).expect("hot split");
            Arc::clone(&split.subs[0])
        };
        grp.serve_split(&[request(0, &hot)]).unwrap();
        let cut = hot_cut(&mut grp);
        for i in 1..=8u64 {
            let other = Arc::new(sparse::gen::banded(100 + i as usize, 2, i));
            let reqs = [request(2 * i - 1, &other), request(2 * i, &hot)];
            grp.serve_split(&reqs).unwrap();
            let kept = hot_cut(&mut grp);
            assert!(Arc::ptr_eq(&kept, &cut), "re-partitioned after {i} others");
        }
        // At capacity 0 a split is still computed and served, never kept.
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.plan_cache_capacity = 0;
        let mut uncached = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        assert_eq!(uncached.serve_split(&[request(0, &hot)]).unwrap().report.served, 1);
        assert!(uncached.splits.is_empty());
    }

    #[test]
    fn split_admission_rejects_when_the_window_fills() {
        let mut cfg = ShardGroupConfig::new(2);
        cfg.queue_depth = 1;
        cfg.policy = QueuePolicy::Reject;
        let mut g = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        // Everything arrives at once: one admitted, the rest shed.
        let reqs: Vec<Request> = workload(20)
            .into_iter()
            .map(|mut r| {
                r.arrival_ms = 0.0;
                r
            })
            .collect();
        let out = g.serve_split(&reqs).unwrap();
        assert!(out.report.shard.shard_rejects > 0);
        assert_eq!(out.report.rejected, out.report.shard.shard_rejects);
        assert!(out.report.reconciles());
        assert_eq!(
            out.completions.len() + out.dropped.len(),
            reqs.len(),
            "every submission accounted"
        );
    }

    #[test]
    fn routed_serving_reconciles_and_spreads_load() {
        let reqs = workload(120);
        let out = group(4).serve_routed(&reqs).unwrap();
        assert!(out.report.reconciles());
        assert_eq!(out.report.shard.routed, 120);
        assert_eq!(out.report.submitted, 120);
        assert_eq!(out.report.served + out.report.rejected, 120);
        // Group-global device ids must span more than one shard.
        let mut shards_hit: Vec<usize> = out
            .completions
            .iter()
            .map(|c| c.device / RuntimeConfig::default().devices.max(1))
            .collect();
        shards_hit.sort_unstable();
        shards_hit.dedup();
        assert!(shards_hit.len() > 1, "routing never left one shard");
    }

    #[test]
    fn sharded_pagerank_matches_the_single_shard_run_bitwise() {
        let g = Graph::from_generator(sparse::gen::rmat(9, 8, (0.57, 0.19, 0.19), 41));
        let base = group(1).pagerank(&g, 1e-6, 60).unwrap();
        let total: f32 = base.rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "ranks sum to {total}");
        for n in [2usize, 4] {
            let run = group(n).pagerank(&g, 1e-6, 60).unwrap();
            assert_eq!(run.iterations, base.iterations);
            let bits = |y: &[f32]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&run.rank), bits(&base.rank), "{n}-shard ranks diverged");
            assert!(run.comm_ms > 0.0, "multi-shard runs must pay communication");
        }
        assert_eq!(base.comm_ms, 0.0, "one shard exchanges nothing");
    }

    #[test]
    fn trace_sink_sees_shard_milestones() {
        let rec = Arc::new(trace::Recorder::with_capacity(4_096));
        let mut g = group(2);
        g.set_trace_sink(rec.clone());
        g.serve_split(&workload(10)).unwrap();
        let data = rec.snapshot();
        let mut phases: Vec<&'static str> = data
            .events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Shard { phase, .. } => Some(phase.name()),
                _ => None,
            })
            .collect();
        phases.sort_unstable();
        phases.dedup();
        assert!(phases.contains(&"shard_route"));
        assert!(phases.contains(&"halo_exchange"));
        assert!(phases.contains(&"shard_merge"));
    }
}
