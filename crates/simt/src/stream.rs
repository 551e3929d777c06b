//! Streams and a shared-device timeline — CUDA's concurrency surface on
//! the analytic makespan model.
//!
//! [`launch`](crate::launch::launch) answers "how long does this kernel
//! take on an idle device?". A serving workload asks a different question:
//! *many* kernels, submitted over time, sharing one device. Kernels
//! execute only in the [`launch`](mod@crate::launch) module, functionally and
//! once; [`DeviceSim::replay`] then places each measured footprint onto
//! the device's shared SM timeline the way hardware shares a device:
//!
//! * **Streams are FIFO** — a kernel on a stream starts only after the
//!   stream's previous kernel finished.
//! * **Streams overlap** — kernels on *different* streams may run
//!   concurrently. A job lands on the SMs that free up first, so a kernel
//!   that cannot fill the device leaves SMs for a concurrent kernel,
//!   which is exactly the underutilization-recovery that makes streams
//!   profitable on hardware.
//!
//! Two simplifications are deliberate and documented: memory bandwidth is
//! charged per launch (concurrent launches do not slow each other's DRAM
//! traffic down), and a launch reserves its SMs for its compute time only.
//! Both err toward optimism for heavily overlapped memory-bound mixes;
//! relative comparisons between pool sizes and schedules — what the
//! serving experiments report — are unaffected.

use crate::error::{SimError, SimResult};
use crate::fault::{FaultCounters, FaultPlan, FaultRng};
use crate::report::LaunchReport;
use crate::spec::GpuSpec;
use std::sync::Arc;
use trace::{FaultKind, KernelId, TraceEvent, TraceSink};

/// Handle to one FIFO work queue on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(u32);

impl StreamId {
    /// The stream's index on its device (the value trace events carry).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// Placement of one kernel on the shared device timeline.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The stream the kernel ran on.
    pub stream: StreamId,
    /// When the kernel became eligible (stream ready + not-before, past
    /// any stall window).
    pub start_ms: f64,
    /// When the kernel completed.
    pub end_ms: f64,
}

impl JobReport {
    /// Shared-timeline latency of this kernel (≥ its idle-device elapsed
    /// time).
    pub fn elapsed_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Live fault-injection state of one device: the attached plan, the
/// per-SM multipliers derived from it, the sequential per-dispatch
/// transient-failure stream, and counters of what actually fired.
#[derive(Debug, Clone)]
struct DeviceFaults {
    plan: FaultPlan,
    multipliers: Vec<f64>,
    rng: FaultRng,
    counters: FaultCounters,
}

/// One simulated device with a shared SM timeline and multiple streams.
/// The in-flight-kernel counterpart of [`GpuSpec`] +
/// [`launch`](crate::launch::launch).
#[derive(Debug, Clone)]
pub struct DeviceSim {
    spec: GpuSpec,
    /// Per-SM time at which the SM's queued compute drains (ms).
    sm_free: Vec<f64>,
    /// Per-SM cumulative busy time (ms), for occupancy accounting.
    sm_busy: Vec<f64>,
    /// Per-stream time at which the stream's queue drains (ms).
    stream_ready: Vec<f64>,
    jobs_done: usize,
    makespan_ms: f64,
    /// Attached trace sink; `None` keeps every path allocation-free.
    sink: Option<Arc<dyn TraceSink>>,
    /// Device index stamped on emitted events.
    device_id: u32,
    /// Injected fault state; `None` keeps every path bitwise identical
    /// to a healthy device.
    faults: Option<DeviceFaults>,
}

impl DeviceSim {
    /// An idle device with no streams.
    pub fn new(spec: GpuSpec) -> Self {
        let n = spec.num_sms as usize;
        Self {
            spec,
            sm_free: vec![0.0; n],
            sm_busy: vec![0.0; n],
            stream_ready: Vec::new(),
            jobs_done: 0,
            makespan_ms: 0.0,
            sink: None,
            device_id: 0,
            faults: None,
        }
    }

    /// The device's architecture.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Attach a trace sink; subsequent replays and faults emit events
    /// stamped with `device_id`. Timing results are unchanged — the sink
    /// only observes the shared-timeline placement the device computes
    /// anyway.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>, device_id: u32) {
        self.sink = Some(sink);
        self.device_id = device_id;
    }

    /// Attach a fault plan: subsequent dispatches run under the plan's
    /// degraded SMs, stall/kill windows, and transient launch failures.
    /// Derives the per-SM multipliers now (emitting one
    /// [`TraceEvent::Fault`] per degraded SM) and resets the plan's
    /// per-dispatch failure stream, so attaching the same plan twice
    /// reproduces the same fault sequence bitwise.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let multipliers: Vec<f64> = (0..self.sm_free.len())
            .map(|i| plan.sm_multiplier(i as u32))
            .collect();
        let mut counters = FaultCounters::default();
        for &m in &multipliers {
            if m < 1.0 {
                counters.degraded_sms += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device: self.device_id,
                        kind: FaultKind::SmDegraded,
                        ts_ms: 0.0,
                        value: m,
                    });
                }
            }
        }
        self.faults = Some(DeviceFaults {
            rng: FaultRng::seed_from_u64(plan.seed),
            plan,
            multipliers,
            counters,
        });
    }

    /// Detach any fault plan; the device is healthy again (counters are
    /// discarded — read [`Self::fault_counters`] first if needed).
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// Counters of faults that have actually fired (all zero without a
    /// plan).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.as_ref().map(|f| f.counters).unwrap_or_default()
    }

    /// The throughput multiplier of SM `sm` under the attached plan
    /// (1.0 when healthy). Dividing a time by 1.0 is bit-exact, so the
    /// no-plan and healthy-plan paths stay bitwise identical.
    fn sm_mult(&self, sm: usize) -> f64 {
        match &self.faults {
            Some(f) => f.multipliers[sm],
            None => 1.0,
        }
    }

    /// Run one dispatch attempt through the attached plan's fault
    /// sequence: push the start past any stall window, refuse it if the
    /// device is dead, then draw from the transient-failure stream. A
    /// transient failure still burns the launch overhead at the head of
    /// `stream_idx`, so a retry on the same stream starts later. Returns
    /// the (possibly stalled) start time.
    fn fault_gate(&mut self, stream_idx: usize, mut start: f64) -> SimResult<f64> {
        let device = self.device_id;
        let overhead_ms = self.spec.launch_overhead_us * 1e-3;
        let Some(f) = self.faults.as_mut() else {
            return Ok(start);
        };
        if let Some(at) = f.plan.stall_at_ms {
            let window_end = at + f.plan.stall_ms;
            if start >= at && start < window_end {
                f.counters.stalled_dispatches += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device,
                        kind: FaultKind::Stall,
                        ts_ms: start,
                        value: window_end,
                    });
                }
                start = window_end;
            }
        }
        if let Some(kill) = f.plan.kill_at_ms {
            if start >= kill {
                f.counters.lost_dispatches += 1;
                if let Some(sink) = &self.sink {
                    sink.event(&TraceEvent::Fault {
                        device,
                        kind: FaultKind::DeviceLost,
                        ts_ms: start,
                        value: start,
                    });
                }
                return Err(SimError::DeviceLost { device, at_ms: start });
            }
        }
        if f.plan.launch_fail_prob > 0.0 && f.rng.chance(f.plan.launch_fail_prob) {
            f.counters.transient_launch_failures += 1;
            if let Some(sink) = &self.sink {
                sink.event(&TraceEvent::Fault {
                    device,
                    kind: FaultKind::TransientLaunch,
                    ts_ms: start,
                    value: start,
                });
            }
            let ready = &mut self.stream_ready[stream_idx];
            *ready = ready.max(start + overhead_ms);
            return Err(SimError::TransientLaunch { device, at_ms: start });
        }
        Ok(start)
    }

    /// Open a new stream (its FIFO starts empty and ready at t = 0).
    pub fn create_stream(&mut self) -> StreamId {
        self.stream_ready.push(0.0);
        StreamId(self.stream_ready.len() as u32 - 1)
    }

    /// Place a kernel whose cost was already measured solo (a
    /// [`LaunchReport`] from the one-shot [`launch`](mod@crate::launch)
    /// functions) on `stream`, eligible no earlier than `not_before_ms` on
    /// the device clock (an arrival time in a serving workload), without
    /// re-executing it. `name` labels the kernel span in the trace; the
    /// serving runtime passes the schedule label, so the Perfetto timeline
    /// reads "spmv/merge-path".
    ///
    /// Footprint: the job occupies `k = ⌈sm_utilization · solo SMs⌉` of
    /// the least-loaded SMs for its solo `compute_ms` each (the solo
    /// makespan already folds in the launch's internal imbalance),
    /// stretched on degraded SMs. Memory is charged at the bandwidth share
    /// of the realized utilization, and the report's launch overhead once.
    ///
    /// # Errors
    ///
    /// Only under an attached [`FaultPlan`] (stall windows merely delay
    /// the start). A transient launch failure
    /// ([`SimError::TransientLaunch`]) burns the launch overhead at the
    /// stream head; a dead device refuses the dispatch
    /// ([`SimError::DeviceLost`]); and a job whose execution would still
    /// be running at the plan's kill tick is **lost mid-run**: the call
    /// fails with [`SimError::DeviceLost`] and commits *nothing* — no SM
    /// time, no stream advance, no trace spans — so the caller
    /// re-dispatches the whole job on a surviving device without
    /// double-charging this one.
    ///
    /// # Panics
    ///
    /// If `stream` does not name a stream of this device.
    pub fn replay(
        &mut self,
        stream: StreamId,
        report: &LaunchReport,
        not_before_ms: f64,
        name: &'static str,
    ) -> SimResult<JobReport> {
        let s = stream.0 as usize;
        assert!(s < self.stream_ready.len(), "unknown stream {stream:?}");
        let start = self.stream_ready[s].max(not_before_ms);
        let start = self.fault_gate(s, start)?;

        let num_sms = self.sm_free.len();
        let solo_sms = report.timing.sm_times_ms.len().max(1);
        let span = report.timing.compute_ms;
        let k = if span > 0.0 {
            ((report.timing.sm_utilization * solo_sms as f64).ceil() as usize).clamp(1, num_sms)
        } else {
            0
        };

        // Plan the placement first (k least-loaded SMs, `span` each on
        // the SM's own clock, stretched on degraded SMs); commit only
        // after the kill check below so a lost job leaves no trace.
        let mut order: Vec<usize> = (0..num_sms).collect();
        order.sort_by(|&a, &b| {
            self.sm_free[a]
                .partial_cmp(&self.sm_free[b])
                .expect("SM times are finite")
                .then(a.cmp(&b))
        });
        order.truncate(k);
        let mut placements: Vec<(usize, f64, f64)> = Vec::with_capacity(k);
        let mut compute_end = start;
        for &i in &order {
            let job_start_i = self.sm_free[i].max(start);
            let end_i = job_start_i + span / self.sm_mult(i);
            placements.push((i, job_start_i, end_i));
            compute_end = compute_end.max(end_i);
        }
        let compute_ms = compute_end - start;
        let utilization = if num_sms > 0 {
            k as f64 / num_sms as f64
        } else {
            0.0
        };
        let memory_ms =
            crate::scheduler::memory_ms(&self.spec, report.mem.total_bytes(), utilization);
        let end = compute_ms.max(memory_ms) + report.timing.overhead_ms + start;

        // Mid-run kill: the job started before the kill tick but would
        // still be running when the device dies — it is lost, and
        // nothing above was committed.
        if let Some(f) = self.faults.as_mut() {
            if let Some(kill) = f.plan.kill_at_ms {
                if end > kill {
                    f.counters.lost_dispatches += 1;
                    if let Some(sink) = &self.sink {
                        sink.event(&TraceEvent::Fault {
                            device: self.device_id,
                            kind: FaultKind::DeviceLost,
                            ts_ms: kill,
                            value: start,
                        });
                    }
                    return Err(SimError::DeviceLost {
                        device: self.device_id,
                        at_ms: kill,
                    });
                }
            }
        }

        // Commit the planned placement.
        let kernel_id = self.sink.as_ref().map(|_| KernelId::next());
        for (bi, &(i, job_start_i, end_i)) in placements.iter().enumerate() {
            self.sm_busy[i] += end_i - job_start_i;
            self.sm_free[i] = self.sm_free[i].max(end_i);
            if let (Some(sink), Some(kid)) = (&self.sink, kernel_id) {
                sink.event(&TraceEvent::Block {
                    kernel: kid,
                    device: self.device_id,
                    block: bi as u32,
                    sm: i as u32,
                    start_ms: job_start_i,
                    end_ms: end_i,
                });
            }
        }

        if let (Some(sink), Some(kid)) = (&self.sink, kernel_id) {
            sink.event(&TraceEvent::Kernel {
                id: kid,
                name,
                device: self.device_id,
                stream: stream.0,
                start_ms: start,
                end_ms: end,
                grid_dim: report.grid_dim,
                block_dim: report.block_dim,
            });
        }

        self.stream_ready[s] = end;
        self.jobs_done += 1;
        self.makespan_ms = self.makespan_ms.max(end);
        Ok(JobReport {
            stream,
            start_ms: start,
            end_ms: end,
        })
    }

    /// The time at which `stream`'s queue drains.
    pub fn stream_ready_ms(&self, stream: StreamId) -> f64 {
        self.stream_ready[stream.0 as usize]
    }

    /// Device-wide completion time: when the last queued kernel finishes.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }

    /// Kernels completed on this device.
    pub fn jobs_done(&self) -> usize {
        self.jobs_done
    }

    /// Mean SM busy fraction over the device makespan so far (0 if idle).
    /// This is the serving-level occupancy number: how much of the device
    /// the submitted mix actually used.
    pub fn sm_occupancy(&self) -> f64 {
        if self.makespan_ms <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.sm_busy.iter().sum();
        busy / (self.makespan_ms * self.sm_busy.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::LaunchConfig;

    /// The solo report of a balanced compute kernel: every thread of
    /// `cfg` charges `units`.
    fn solo_report(spec: &GpuSpec, cfg: LaunchConfig, units: f64) -> LaunchReport {
        crate::launch::launch_threads(spec, cfg, |t| t.charge(units)).unwrap()
    }

    #[test]
    fn replays_overlap_across_streams_and_serialize_within_one() {
        let spec = GpuSpec::v100(); // 80 SMs
        let half = solo_report(&spec, LaunchConfig::new(40, 256), 100_000.0);
        // Replay on an idle device ≈ solo elapsed.
        let mut dev = DeviceSim::new(spec.clone());
        let s = dev.create_stream();
        let j = dev.replay(s, &half, 0.0, "half").unwrap();
        let rel = (j.elapsed_ms() - half.elapsed_ms()).abs() / half.elapsed_ms();
        assert!(rel < 0.05, "idle replay {} vs solo {}", j.elapsed_ms(), half.elapsed_ms());
        // Two half-device jobs on different streams overlap: both start
        // at t = 0 (true concurrency, not queueing)...
        let mut dev = DeviceSim::new(spec.clone());
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        let j1 = dev.replay(s1, &half, 0.0, "half").unwrap();
        let j2 = dev.replay(s2, &half, 0.0, "half").unwrap();
        assert_eq!((j1.start_ms, j2.start_ms), (0.0, 0.0));
        assert!(j1.end_ms.max(j2.end_ms) < 1.5 * half.elapsed_ms());
        assert_eq!(dev.jobs_done(), 2);
        assert!(dev.sm_occupancy() > 0.0);
        // ...but serialize FIFO on the same stream.
        let mut dev = DeviceSim::new(spec.clone());
        let s = dev.create_stream();
        let j1 = dev.replay(s, &half, 0.0, "half").unwrap();
        let j2 = dev.replay(s, &half, 0.0, "half").unwrap();
        assert!(j2.start_ms >= j1.end_ms, "FIFO: j2 start {} < j1 end {}", j2.start_ms, j1.end_ms);
        // Kernels that already fill every SM gain nothing from streams.
        let full = solo_report(&spec, LaunchConfig::new(160, 256), 100_000.0);
        let mut dev = DeviceSim::new(spec);
        let (s1, s2) = (dev.create_stream(), dev.create_stream());
        dev.replay(s1, &full, 0.0, "full").unwrap();
        let j2 = dev.replay(s2, &full, 0.0, "full").unwrap();
        assert!(
            j2.end_ms >= 1.8 * full.elapsed_ms(),
            "two saturating kernels {} vs solo {}",
            j2.end_ms,
            full.elapsed_ms()
        );
    }

    #[test]
    fn not_before_delays_start() {
        let spec = GpuSpec::v100();
        let solo = solo_report(&spec, LaunchConfig::new(8, 64), 10.0);
        let mut dev = DeviceSim::new(spec);
        let s = dev.create_stream();
        let j = dev.replay(s, &solo, 3.5, "k").unwrap();
        assert_eq!(j.start_ms, 3.5);
        assert!(dev.makespan_ms() > 3.5);
    }

    #[test]
    fn traced_device_matches_untraced_and_spans_nest() {
        let spec = GpuSpec::v100();
        let solo = solo_report(&spec, LaunchConfig::new(40, 256), 100_000.0);
        let run = |sink: Option<Arc<trace::Recorder>>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(s) = &sink {
                dev.set_trace(s.clone(), 2);
            }
            let (s1, s2) = (dev.create_stream(), dev.create_stream());
            let j1 = dev.replay(s1, &solo, 0.0, "spmv/merge-path").unwrap();
            let j2 = dev.replay(s2, &solo, 0.5, "spmv/merge-path").unwrap();
            ((j1.start_ms, j1.end_ms), (j2.start_ms, j2.end_ms), dev.makespan_ms())
        };
        let rec = Arc::new(trace::Recorder::new());
        assert_eq!(run(None), run(Some(rec.clone())));

        let data = rec.snapshot();
        let kernels: Vec<_> = data.kernels().collect();
        assert_eq!(kernels.len(), 2);
        assert!(kernels
            .iter()
            .all(|k| matches!(k, TraceEvent::Kernel { name: "spmv/merge-path", device: 2, .. })));
        assert!(data.block_durations.count > 0, "footprint blocks recorded");
        // Every block span sits inside its kernel's span.
        for ev in &data.events {
            if let TraceEvent::Block { kernel, start_ms, end_ms, .. } = ev {
                let span = kernels
                    .iter()
                    .find_map(|k| match k {
                        TraceEvent::Kernel { id, start_ms, end_ms, .. } if id == kernel => {
                            Some((*start_ms, *end_ms))
                        }
                        _ => None,
                    })
                    .expect("block references a recorded kernel");
                assert!(*start_ms >= span.0 - 1e-12 && *end_ms <= span.1 + 1e-12);
            }
        }
    }

    #[test]
    fn healthy_fault_plan_is_bitwise_transparent() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let (short, long) = (solo_report(&spec, cfg, 1_000.0), solo_report(&spec, cfg, 50_000.0));
        let run = |plan: Option<FaultPlan>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let s = dev.create_stream();
            let j1 = dev.replay(s, &short, 0.0, "k").unwrap();
            let j2 = dev.replay(s, &long, 0.0, "k").unwrap();
            (j1.start_ms, j1.end_ms, j2.start_ms, j2.end_ms, dev.makespan_ms())
        };
        assert_eq!(run(None), run(Some(FaultPlan::healthy(99))));
        assert_eq!(
            DeviceSim::new(spec).fault_counters(),
            FaultCounters::default()
        );
    }

    #[test]
    fn degraded_sms_stretch_timing() {
        let spec = GpuSpec::v100();
        let plan = FaultPlan::healthy(11).with_degraded_sms(0.6, 0.3, 0.7);
        let solo = solo_report(&spec, LaunchConfig::over_threads(512, 64), 200.0);
        let run = |plan: Option<FaultPlan>| {
            let mut dev = DeviceSim::new(spec.clone());
            if let Some(p) = plan {
                dev.set_fault_plan(p);
            }
            let s = dev.create_stream();
            dev.replay(s, &solo, 0.0, "k").unwrap().end_ms
        };
        let (healthy_end, degraded_end) = (run(None), run(Some(plan)));
        assert!(
            degraded_end > healthy_end,
            "degraded {degraded_end} vs healthy {healthy_end}"
        );
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(plan);
        assert!(dev.fault_counters().degraded_sms > 0);
    }

    #[test]
    fn stall_window_pushes_dispatches_past_it() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = solo_report(&spec, cfg, 50_000.0);
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(FaultPlan::healthy(1).with_stall(2.0, 3.0));
        let s = dev.create_stream();
        let j = dev.replay(s, &solo, 2.5, "replay").unwrap();
        assert_eq!(j.start_ms, 5.0, "start pushed to the stall window's end");
        assert_eq!(dev.fault_counters().stalled_dispatches, 1);
        // Dispatches outside the window are untouched.
        let j2 = dev.replay(s, &solo, 0.0, "replay").unwrap();
        assert_eq!(j2.start_ms, j.end_ms);
    }

    #[test]
    fn killed_device_refuses_work_and_loses_mid_run_jobs_without_commit() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(40, 256);
        let solo = solo_report(&spec, cfg, 200_000.0);
        assert!(solo.elapsed_ms() > 0.05, "need a job long enough to cross the kill tick");
        let mut dev = DeviceSim::new(spec);
        dev.set_fault_plan(FaultPlan::healthy(1).with_kill_at(solo.elapsed_ms() * 0.5));
        let s = dev.create_stream();
        // Starts before the kill tick but would finish after it: lost.
        let err = dev.replay(s, &solo, 0.0, "replay").unwrap_err();
        assert!(matches!(err, SimError::DeviceLost { .. }));
        // Nothing committed: the device looks untouched.
        assert_eq!(dev.jobs_done(), 0);
        assert_eq!(dev.stream_ready_ms(s), 0.0);
        assert_eq!(dev.makespan_ms(), 0.0);
        // At/after the kill tick the device is dead to new work too.
        let err = dev.replay(s, &solo, solo.elapsed_ms(), "replay").unwrap_err();
        assert!(matches!(err, SimError::DeviceLost { .. }));
        assert_eq!(dev.fault_counters().lost_dispatches, 2);
        // A short job that completes before the kill tick still runs.
        let quick = solo_report(dev.spec(), LaunchConfig::new(8, 64), 10.0);
        let j = dev.replay(s, &quick, 0.0, "replay").unwrap();
        assert!(j.end_ms < solo.elapsed_ms() * 0.5);
        assert_eq!(dev.jobs_done(), 1);
    }

    #[test]
    fn transient_failures_are_seed_deterministic_and_burn_overhead() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(8, 64);
        let solo = solo_report(&spec, cfg, 100.0);
        let plan = FaultPlan::healthy(21).with_flaky_launches(0.4);
        let run = |plan: FaultPlan| {
            let mut dev = DeviceSim::new(spec.clone());
            dev.set_fault_plan(plan);
            let s = dev.create_stream();
            let pattern: Vec<bool> = (0..32)
                .map(|_| dev.replay(s, &solo, 0.0, "replay").is_ok())
                .collect();
            (pattern, dev.stream_ready_ms(s), dev.fault_counters())
        };
        let (pat_a, ready_a, counters_a) = run(plan);
        let (pat_b, ready_b, counters_b) = run(plan);
        assert_eq!(pat_a, pat_b, "same seed, same failure sequence");
        assert_eq!(ready_a, ready_b, "bitwise-identical timelines");
        assert_eq!(counters_a, counters_b);
        let fails = pat_a.iter().filter(|ok| !**ok).count();
        assert!(fails > 3 && fails < 29, "~40% failures, got {fails}/32");
        assert_eq!(counters_a.transient_launch_failures, fails as u64);
        // A failed attempt burned launch overhead at the stream head.
        let mut healthy = DeviceSim::new(spec.clone());
        let hs = healthy.create_stream();
        for _ in pat_a.iter().filter(|ok| **ok) {
            healthy.replay(hs, &solo, 0.0, "replay").unwrap();
        }
        assert!(
            ready_a > healthy.stream_ready_ms(hs),
            "flaky stream {ready_a} should trail healthy {}",
            healthy.stream_ready_ms(hs)
        );
        // A different seed draws a different sequence.
        let (pat_c, _, _) = run(FaultPlan::healthy(22).with_flaky_launches(0.4));
        assert_ne!(pat_a, pat_c);
    }

    #[test]
    #[should_panic(expected = "unknown stream")]
    fn unknown_stream_panics() {
        let spec = GpuSpec::test_tiny();
        let solo = solo_report(&spec, LaunchConfig::new(1, 32), 1.0);
        let s = DeviceSim::new(spec.clone()).create_stream();
        let _ = DeviceSim::new(spec).replay(s, &solo, 0.0, "k");
    }
}
