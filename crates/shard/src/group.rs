//! A simulated shard group: N nodes joined by an interconnect.
//!
//! [`ShardGroup::serve_split`] splits every request's matrix across
//! *all* shards by a [`ShardPlan`]; each shard runs [`spmv_rows`] over
//! its row span of the request's own matrix, and the group pays a
//! bulk-synchronous halo-exchange + merge charge per request. Results
//! are bitwise identical to the single-shard path (see
//! [`runtime::decomposable`]). [`ShardGroup::pagerank`] runs the same
//! split execution as its SpMV step. Both launch kernels directly, the
//! path `bench::node` runs too.
//!
//! Every request outcome is recorded in a [`Ledger`], the record the
//! runtime serves through, so admission, drops, tenant samples and the
//! report are the runtime's own. The consistent-hash [`HashRing`] only
//! labels: it names each request's home shard, the `device` of its
//! completion and the shard of its route, reject and merge events.
//!
//! Split execution is a *global* data-parallel execution (strong
//! scaling, communication-bound); `shard_bench` sweeps it against shard
//! count.

use std::ops::Range;
use std::sync::Arc;

use kernels::graph::Graph;
use kernels::pagerank::{normalized_transpose, power_iteration};
use kernels::spmv::{spmv_rows, DEFAULT_BLOCK};
use loops::schedule::ScheduleKind;
use runtime::cache::Lru;
use runtime::{
    pinned_schedule, Completion, DeviceReport, DropReason, Ledger, Request, RuntimeConfig,
    ServeResult,
};
use simt::exchange::halo_exchange;
use simt::{CostModel, GpuSpec, MultiGpuSpec};
use sparse::{Csr, ShardPlan, ShardStrategy};
use trace::{ShardPhase, TraceEvent, TraceSink};

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
    /// Serving policy. Split mode reads five fields: `queue_depth` and
    /// `policy` (the global admission window), `deadline_ms`,
    /// `keep_results`, and `plan_cache_capacity` (the bound of the split
    /// cache). The rest, `host_backend` included, are unread: split
    /// launches run on the ambient host backend.
    pub runtime: RuntimeConfig,
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
            link_bw_gbs: 150.0,
            link_latency_us: 2.0,
        }
    }
}

/// One matrix cut for split execution: each shard's row span, the
/// pinned schedule, and the communication priced once. All of it
/// follows from the matrix's structure and the link, so
/// [`ShardGroup::serve_split`] caches one per [`Csr::structure_id`]:
/// repeat tenants pay the partitioning once (the group-level analogue
/// of the runtime's plan cache), and a write through `values_mut`
/// keeps the cut. [`ShardGroup::pagerank`] builds one per solve.
#[derive(Debug)]
struct SplitEntry {
    /// Each shard's rows of the source matrix, in shard order.
    spans: Vec<Range<usize>>,
    kind: ScheduleKind,
    total_halo: u64,
    /// Shard whose halo bounds the exchange (owns the critical
    /// transfer).
    bounding_shard: u32,
    /// Halo-exchange + merge charge of one split execution (ms).
    comm_ms: f64,
}

impl SplitEntry {
    fn new(a: &Csr<f32>, shards: usize, strategy: ShardStrategy, link: &MultiGpuSpec) -> Self {
        let plan = ShardPlan::partition(a, shards, strategy);
        let halo_bytes: Vec<u64> = plan.shards.iter().map(|s| s.halo_bytes()).collect();
        let bounding_shard = halo_bytes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .map_or(0, |(i, _)| i as u32);
        Self {
            spans: plan.shards.iter().map(|s| s.rows.clone()).collect(),
            kind: pinned_schedule(a),
            total_halo: plan.total_halo_bytes(),
            bounding_shard,
            comm_ms: halo_exchange(link, &halo_bytes, plan.max_output_bytes()).total_ms(),
        }
    }

    /// One split SpMV of `a`, a matrix with the structure this cut was
    /// made from: [`spmv_rows`] under the pinned schedule over each
    /// non-empty span (an empty one launches nothing), the slices
    /// concatenated. Returns `y`, the slowest shard's kernel time (the
    /// compute half of the bulk-synchronous critical path), and each
    /// shard's SM busy time: the sum of its launch's
    /// `timing.sm_times_ms`, 0 for a shard that launched nothing. The
    /// pinned schedule is flat-span, so `y` is bitwise the whole-matrix
    /// run's at any shard count.
    fn spmv(
        &self,
        spec: &GpuSpec,
        a: &Csr<f32>,
        x: &[f32],
    ) -> simt::Result<(Vec<f32>, f64, Vec<f64>)> {
        let model = CostModel::standard();
        let mut y = Vec::with_capacity(a.rows());
        let mut critical_ms = 0.0f64;
        let mut sm_busy_ms = vec![0.0f64; self.spans.len()];
        let launched = sm_busy_ms.iter_mut().zip(&self.spans);
        for (busy, rows) in launched.filter(|(_, r)| !r.is_empty()) {
            let run = spmv_rows(spec, &model, a, rows.clone(), x, self.kind, DEFAULT_BLOCK)?;
            y.extend(run.y);
            critical_ms = critical_ms.max(run.report.elapsed_ms());
            *busy = run.report.timing.sm_times_ms.iter().sum();
        }
        Ok((y, critical_ms, sm_busy_ms))
    }
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

/// N shards joined by a link model, with the split cache that cuts each
/// matrix once and the ring that names each tenant's home shard.
#[derive(Debug)]
pub struct ShardGroup {
    cfg: ShardGroupConfig,
    ring: HashRing,
    link: MultiGpuSpec,
    /// Split cuts keyed by the source's structure id: equal ids mean
    /// equal structure. An [`Lru`] of `plan_cache_capacity` entries,
    /// whose counters are a split serve's cache counters.
    splits: Lru<u64, Arc<SplitEntry>>,
    sink: Option<Arc<dyn TraceSink>>,
}

impl ShardGroup {
    /// Build a group of `cfg.shards` identical `spec` devices.
    ///
    /// # Panics
    /// If `cfg.shards` is zero.
    pub fn new(spec: GpuSpec, cfg: ShardGroupConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
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
            link,
            sink: None,
        }
    }

    /// Shards in the group.
    pub fn num_shards(&self) -> usize {
        self.cfg.shards
    }

    /// Attach a trace sink; shard milestones
    /// ([`TraceEvent::Shard`]) and request outcomes are emitted through
    /// it.
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

    /// The home shard of `r`: its tenant's shard on the ring.
    fn home(&self, r: &Request) -> u32 {
        self.ring.route(u64::from(r.tenant))
    }

    /// Partition (or recall) the split-mode cut of `a`, and whether it
    /// was cached. A write through `values_mut` keeps the cut; a
    /// rebuilt matrix has a new structure id and so gets a new one.
    fn split_entry(&mut self, a: &Csr<f32>) -> (Arc<SplitEntry>, bool) {
        let key = a.structure_id();
        if let Some(entry) = self.splits.get(&key) {
            return (Arc::clone(entry), true);
        }
        let entry = Arc::new(SplitEntry::new(
            a,
            self.cfg.shards,
            self.cfg.strategy,
            &self.link,
        ));
        self.splits.insert(key, Arc::clone(&entry));
        (entry, false)
    }

    /// Serve a request stream in **split mode**: each request runs
    /// data-parallel across every shard, bulk-synchronously — compute
    /// the critical shard's row span, pay the halo-exchange and merge
    /// charge, concatenate. The merged outputs are bitwise identical to
    /// serving on one shard (the root `shard_oracle` tests assert it).
    ///
    /// Requests are taken in arrival order, ties by id, as
    /// [`Runtime::serve`](runtime::Runtime::serve) takes them. Global
    /// admission applies the runtime window
    /// ([`RuntimeConfig::queue_depth`] and [`RuntimeConfig::policy`])
    /// *before* routing; per-request deadlines
    /// ([`RuntimeConfig::deadline_ms`]) are honored against the start
    /// time. Each completion's `device` is its request's home shard,
    /// which also labels its route, reject and merge events. The
    /// report's cache counters and each completion's `cache_hit` are the
    /// split cache's: one lookup per request that starts. A shard's
    /// [`DeviceReport`] covers the served requests whose span on it was
    /// non-empty, the ones it launched: `jobs` counts them, `makespan_ms`
    /// is the last one's end (0 if none), and `sm_occupancy` is their
    /// launches' summed SM busy time over `num_sms × makespan_ms`, as a
    /// device's occupancy is defined.
    pub fn serve_split(&mut self, requests: &[Request]) -> simt::Result<ServeResult> {
        let mut order: Vec<&Request> = requests.iter().collect();
        order.sort_by(|a, b| {
            a.arrival_ms
                .partial_cmp(&b.arrival_ms)
                .expect("finite arrivals")
                .then(a.id.cmp(&b.id))
        });

        let cache_before = self.splits.stats();
        let mut ledger = Ledger::new(self.sink.clone());
        // The split path is bulk-synchronous: one request occupies the
        // whole group at a time, so completion times never decrease.
        let mut busy_until = 0.0f64;
        let mut devices: Vec<DeviceReport> = (0..self.cfg.shards)
            .map(|device| DeviceReport {
                device,
                jobs: 0,
                sm_occupancy: 0.0,
                makespan_ms: 0.0,
                faults: Default::default(),
            })
            .collect();
        let mut sm_busy_ms = vec![0.0f64; self.cfg.shards];

        for r in order {
            let home = self.home(r);
            let Some(admitted) = ledger.admit(r, &self.cfg.runtime) else {
                ledger.shard.shard_rejects += 1;
                self.emit(home, ShardPhase::Reject, r.arrival_ms, r.id as f64);
                continue;
            };
            ledger.shard.routed += 1;
            self.emit(home, ShardPhase::Route, r.arrival_ms, r.id as f64);

            let start = admitted.max(busy_until);
            if start - r.arrival_ms > self.cfg.runtime.deadline_ms {
                ledger.drop([r], DropReason::DeadlineMissed, start);
                continue;
            }

            let (split, cache_hit) = self.split_entry(&r.matrix);
            let (y, critical_ms, busy) = split.spmv(&self.link.device, &r.matrix, &r.x)?;
            let end = start + critical_ms + split.comm_ms;

            if self.cfg.shards > 1 {
                ledger.shard.halo_bytes += split.total_halo;
                self.emit(
                    split.bounding_shard,
                    ShardPhase::HaloExchange,
                    start,
                    split.total_halo as f64,
                );
            }
            ledger.shard.merges += 1;
            ledger.shard.comm_ms += split.comm_ms;
            self.emit(home, ShardPhase::Merge, end, 4.0 * y.len() as f64);
            // An empty span launches nothing.
            for (s, rows) in split.spans.iter().enumerate() {
                if !rows.is_empty() {
                    devices[s].jobs += 1;
                    devices[s].makespan_ms = end;
                    sm_busy_ms[s] += busy[s];
                }
            }

            ledger.served(
                r.tenant,
                Completion {
                    id: r.id,
                    arrival_ms: r.arrival_ms,
                    start_ms: start,
                    end_ms: end,
                    device: home as usize,
                    batched: false,
                    cache_hit: Some(cache_hit),
                    schedule: split.kind,
                    format: sparse::FormatKind::Csr,
                    attempts: 1,
                    y: self.cfg.runtime.keep_results.then_some(y),
                },
            );
            ledger.occupy(end);
            busy_until = end;
        }

        let after = self.splits.stats();
        ledger.cache.hits = after.hits - cache_before.hits;
        ledger.cache.misses = after.misses - cache_before.misses;
        ledger.cache.evictions = after.evictions - cache_before.evictions;
        let num_sms = f64::from(self.link.device.num_sms);
        for (d, busy) in devices.iter_mut().zip(sm_busy_ms) {
            if d.makespan_ms > 0.0 {
                d.sm_occupancy = busy / (num_sms * d.makespan_ms);
            }
        }
        ledger.devices = devices;
        Ok(ledger.finish(requests.len()))
    }

    /// Sharded PageRank: the normalized transpose is partitioned once,
    /// and `kernels::pagerank`'s own [`power_iteration`] runs with one
    /// split execution plus the bulk-synchronous communication charge as
    /// its SpMV step. The scalar update (dangling mass, teleport, delta)
    /// runs on the *merged* vector, which is why the ranks are bitwise
    /// identical to the single-shard run at any shard count.
    pub fn pagerank(&self, g: &Graph, tol: f32, max_iters: usize) -> simt::Result<ShardPageRank> {
        let n = g.num_vertices();
        assert!(n > 0, "graph must have vertices");
        let mt = normalized_transpose(g);
        let split = SplitEntry::new(&mt, self.cfg.shards, self.cfg.strategy, &self.link);

        let mut compute_ms = 0.0f64;
        let mut comm_ms = 0.0f64;
        let init = vec![1.0f32 / n as f32; n];
        let (rank, iterations) = power_iteration(g, tol, max_iters, &init, |rank| {
            let (y, critical_ms, _) = split.spmv(&self.link.device, &mt, rank)?;
            compute_ms += critical_ms;
            comm_ms += split.comm_ms;
            Ok(y)
        })?;
        Ok(ShardPageRank {
            rank,
            iterations,
            schedule: split.kind,
            compute_ms,
            comm_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{zipf_workload, QueuePolicy, Runtime, WorkloadSpec};
    use trace::{RequestPhase, TenantOutcome};

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

    /// `n` workload requests that all arrive at t = 0.
    fn simultaneous(n: usize) -> Vec<Request> {
        workload(n)
            .into_iter()
            .map(|mut r| {
                r.arrival_ms = 0.0;
                r
            })
            .collect()
    }

    fn group(n: usize) -> ShardGroup {
        let mut cfg = ShardGroupConfig::new(n);
        cfg.runtime.keep_results = true;
        ShardGroup::new(GpuSpec::test_tiny(), cfg)
    }

    fn bits(out: &ServeResult, i: usize) -> Vec<u32> {
        let y = out.completions[i].y.as_ref().expect("keep_results");
        y.iter().map(|v| v.to_bits()).collect()
    }

    fn request(id: u64, a: &Arc<Csr<f32>>) -> Request {
        Request {
            id,
            tenant: 0,
            matrix: Arc::clone(a),
            x: sparse::dense::test_vector(a.cols()).into(),
            arrival_ms: 0.0,
        }
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
        // One split-cache lookup per served request.
        let cache = out.report.cache;
        assert_eq!(cache.hits + cache.misses, out.report.served);
        assert!(cache.hits > 0, "repeat matrices must hit the split cache");
        let hits = out.completions.iter().filter(|c| c.cache_hit == Some(true));
        assert_eq!(hits.count(), cache.hits);
    }

    #[test]
    fn arrival_ties_break_by_id() {
        // The same simultaneous requests in reverse input order must
        // start and end at the same times, request by request.
        let times = |reqs: &[Request]| {
            let out = group(2).serve_split(reqs).unwrap();
            let mut t: Vec<_> = out
                .completions
                .iter()
                .map(|c| (c.id, c.start_ms.to_bits(), c.end_ms.to_bits()))
                .collect();
            t.sort_unstable();
            t
        };
        let ordered = simultaneous(20);
        let mut reversed = ordered.clone();
        reversed.reverse();
        assert_eq!(times(&reversed), times(&ordered));
    }

    #[test]
    fn empty_spans_launch_nothing_and_match_one_shard() {
        // Eight equal-row shards over three rows: five spans are empty.
        let a = Arc::new(sparse::gen::uniform(3, 3, 6, 23));
        let req = [request(0, &a)];
        let mut cfg = ShardGroupConfig::new(8);
        cfg.strategy = ShardStrategy::Rows1D;
        cfg.runtime.keep_results = true;
        let mut grp = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        let rec = Arc::new(trace::Recorder::with_capacity(4_096));
        let out = simt::tracing::scoped(rec.clone(), "split", || grp.serve_split(&req)).unwrap();
        let launches = rec
            .snapshot()
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Kernel { .. }))
            .count();
        assert_eq!(launches, 3, "one launch per non-empty span");
        assert_eq!(bits(&out, 0), bits(&group(1).serve_split(&req).unwrap(), 0));
        // A shard books a job only for a span it launched.
        let jobs: Vec<usize> = out.report.devices.iter().map(|d| d.jobs).collect();
        assert_eq!(jobs.iter().sum::<usize>(), 3, "{jobs:?}");
        let cut = grp.splits.get(&a.structure_id()).expect("cut cached");
        for (s, rows) in cut.spans.iter().enumerate() {
            assert_eq!(jobs[s], usize::from(!rows.is_empty()), "shard {s}: {jobs:?}");
        }
        // A shard's makespan and occupancy cover only what it launched.
        let end = out.completions[0].end_ms;
        for d in &out.report.devices {
            if d.jobs == 0 {
                assert_eq!((d.makespan_ms, d.sm_occupancy), (0.0, 0.0), "{d:?}");
            } else {
                assert_eq!(d.makespan_ms.to_bits(), end.to_bits(), "{d:?}");
                assert!(d.sm_occupancy > 0.0 && d.sm_occupancy <= 1.0, "{d:?}");
            }
        }
    }

    #[test]
    fn split_completions_carry_their_tenants_home_shard() {
        let reqs = workload(120);
        let rec = Arc::new(trace::Recorder::with_capacity(4_096));
        let mut g = group(4);
        g.set_trace_sink(rec.clone());
        let out = g.serve_split(&reqs).unwrap();
        assert_eq!(out.completions.len(), reqs.len());
        let events = rec.snapshot().events;
        let shard_events = |want: ShardPhase| -> Vec<(u32, f64, f64)> {
            events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::Shard {
                        shard,
                        phase,
                        ts_ms,
                        value,
                    } if phase == want => Some((shard, ts_ms, value)),
                    _ => None,
                })
                .collect()
        };
        // A route event's value is its request's id; a merge event is
        // stamped with its request's end time.
        let (routes, merges) = (shard_events(ShardPhase::Route), shard_events(ShardPhase::Merge));
        let mut homes = Vec::new();
        for c in &out.completions {
            let tenant = reqs.iter().find(|r| r.id == c.id).expect("request").tenant;
            let home = g.ring.route(u64::from(tenant));
            assert_eq!(c.device, home as usize, "request {}", c.id);
            let route = routes.iter().find(|e| e.2 == c.id as f64);
            assert_eq!(route.map(|e| e.0), Some(home), "request {}: route", c.id);
            let merge = merges.iter().find(|e| e.1 == c.end_ms);
            assert_eq!(merge.map(|e| e.0), Some(home), "request {}: merge", c.id);
            homes.push(home);
        }
        homes.sort_unstable();
        homes.dedup();
        assert!(homes.len() > 1, "every tenant homed on shard {homes:?}");
    }

    #[test]
    fn split_cache_stays_bounded_under_structural_mutation() {
        // Every rebuild mints a new structure id, so without the bound
        // the split cache would grow by one dead entry per round.
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.keep_results = true;
        cfg.runtime.plan_cache_capacity = 4;
        let mut grp = ShardGroup::new(GpuSpec::test_tiny(), cfg.clone());
        let mut rt = Runtime::new(GpuSpec::test_tiny(), cfg.runtime);
        let mut a = Arc::new(sparse::gen::powerlaw(300, 300, 3_000, 1.8, 5));
        let mut stream = sparse::delta::EvolvingStream::new(3, 0.5);
        for round in 0..12u64 {
            let batch = stream.next_batch(&a, 16);
            let out = runtime::mutate(&mut rt, &mut a, &batch).unwrap();
            assert_eq!(out.path, sparse::delta::ApplyPath::Rebuilt);
            let req = [request(round, &a)];
            let got = grp.serve_split(&req).unwrap();
            let want = ShardGroup::new(GpuSpec::test_tiny(), cfg.clone())
                .serve_split(&req)
                .unwrap();
            assert_eq!(bits(&got, 0), bits(&want, 0), "round {round}");
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
        let hot = Arc::new(sparse::gen::banded(300, 4, 7));
        let hot_cut = |grp: &mut ShardGroup| {
            Arc::clone(grp.splits.get(&hot.structure_id()).expect("hot split"))
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
    fn split_cache_keeps_the_cut_across_a_value_write() {
        // The cut depends on the structure alone: a write through
        // `values_mut` reuses it, and the next serve reads the new values.
        let mut grp = group(2);
        let mut a = Arc::new(sparse::gen::uniform(300, 300, 3_000, 9));
        let before = grp.serve_split(&[request(0, &a)]).unwrap();
        let cut = Arc::clone(grp.splits.get(&a.structure_id()).expect("cut cached"));
        for v in Arc::make_mut(&mut a).values_mut() {
            *v *= 2.0;
        }
        let after = grp.serve_split(&[request(1, &a)]).unwrap();
        let kept = grp.splits.get(&a.structure_id()).expect("cut kept");
        assert!(Arc::ptr_eq(kept, &cut), "a value write re-partitioned");
        assert_eq!(after.completions[0].cache_hit, Some(true));
        let fresh = group(2).serve_split(&[request(1, &a)]).unwrap();
        assert_eq!(bits(&after, 0), bits(&fresh, 0), "served pre-write values");
        assert_ne!(bits(&after, 0), bits(&before, 0));
    }

    #[test]
    fn split_admission_rejects_when_the_window_fills() {
        let mut cfg = ShardGroupConfig::new(2);
        cfg.runtime.queue_depth = 1;
        cfg.runtime.policy = QueuePolicy::Reject;
        let mut g = ShardGroup::new(GpuSpec::test_tiny(), cfg);
        // Everything arrives at once: one admitted, the rest shed.
        let reqs = simultaneous(20);
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
    fn split_drops_trace_like_the_runtime() {
        // A window of one under Reject, then a deadline no queued
        // request can meet: each drop must trace its request phase, then
        // a tenant sample with the matching outcome, as the runtime's
        // drops do.
        let mut reject = ShardGroupConfig::new(2);
        reject.runtime.queue_depth = 1;
        reject.runtime.policy = QueuePolicy::Reject;
        let mut late = ShardGroupConfig::new(2);
        late.runtime.deadline_ms = 0.0;
        for cfg in [reject, late] {
            let rec = Arc::new(trace::Recorder::with_capacity(4_096));
            let mut g = ShardGroup::new(GpuSpec::test_tiny(), cfg);
            g.set_trace_sink(rec.clone());
            let out = g.serve_split(&simultaneous(20)).unwrap();
            assert!(out.report.reconciles());
            assert!(!out.dropped.is_empty(), "the config must drop requests");
            let events = rec.snapshot().events;
            for d in &out.dropped {
                let (want_phase, want_outcome) = match d.reason {
                    DropReason::Rejected => (RequestPhase::Reject, TenantOutcome::Rejected),
                    DropReason::DeadlineMissed => {
                        (RequestPhase::DeadlineMiss, TenantOutcome::DeadlineMiss)
                    }
                    DropReason::Failed => unreachable!("split serving never retries"),
                };
                let phases: Vec<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| {
                        matches!(e, TraceEvent::Request { id, phase, ts_ms }
                            if *id == d.id && *phase == want_phase && *ts_ms == d.ts_ms)
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(phases.len(), 1, "request {}: one {want_phase:?}", d.id);
                let sample = events[phases[0]..].iter().find_map(|e| match *e {
                    TraceEvent::TenantSample { outcome, ts_ms, .. } => Some((outcome, ts_ms)),
                    _ => None,
                });
                assert_eq!(sample, Some((want_outcome, d.ts_ms)), "request {}", d.id);
            }
        }
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
