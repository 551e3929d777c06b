//! Kernel launching: configuration, the block-kernel trait, and block
//! execution on the active host backend.
//!
//! Blocks execute functionally — in ascending block order on the calling
//! thread under [`HostBackend::Sequential`](crate::host::HostBackend)
//! (the default), or on a pool of worker threads under
//! `HostBackend::Parallel` — and each block produces a [`BlockCost`] the
//! device timing model turns into a [`LaunchReport`]. Either way the
//! launch is fully deterministic: the parallel executor merges costs and
//! deferred float atomics back in block order (see [`crate::host`]), so
//! results and reports are bitwise identical at any thread count.
//!
//! A launch that declares an idle tail ([`LaunchConfig::with_idle_tail`])
//! runs its busy blocks and the first idle one; the timing model charges
//! every later block as a repeat of that idle block's cost.

use crate::block::{BlockCost, BlockCtx};
use crate::cost::CostModel;
use crate::error::{LaunchError, Result};
use crate::group::GroupCtx;
use crate::lane::LaneCtx;
use crate::occupancy::Occupancy;
use crate::report::LaunchReport;
use crate::scheduler::{device_time_traced, TraceCtx};
use crate::spec::GpuSpec;
use trace::{KernelId, TraceEvent};

/// Launch geometry: 1-D grid of 1-D blocks plus declared shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Dynamic shared memory declared per block, in bytes.
    pub shared_bytes: u32,
    /// Blocks `busy_blocks..grid_dim` are idle (see
    /// [`Self::with_idle_tail`]); `u32::MAX`, the default, declares none.
    pub busy_blocks: u32,
}

impl LaunchConfig {
    /// A grid of `grid_dim` blocks of `block_dim` threads.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        Self {
            grid_dim,
            block_dim,
            shared_bytes: 0,
            busy_blocks: u32::MAX,
        }
    }

    /// Enough blocks of `block_dim` threads to cover `total_threads`
    /// (the classic `(n + b - 1) / b` launch).
    pub fn over_threads(total_threads: u64, block_dim: u32) -> Self {
        let grid = total_threads.div_ceil(u64::from(block_dim.max(1)));
        Self::new(grid.min(u64::from(u32::MAX)) as u32, block_dim)
    }

    /// Declare dynamic shared memory per block.
    pub fn with_shared(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Declare every block from index `busy` on idle. The kernel promises
    /// that those blocks touch no memory and that each would end exactly
    /// as the first of them does, with the same cost or the same error,
    /// as a persistent kernel's blocks do when the work runs out before
    /// their first claim. The launch then runs block `busy` (the first
    /// idle one) and charges each later block as a repeat of its cost:
    /// the report, the traced events and any launch error are bitwise
    /// those of running every block.
    pub fn with_idle_tail(mut self, busy: u32) -> Self {
        self.busy_blocks = busy;
        self
    }

    /// Total threads in the launch.
    pub fn grid_size(&self) -> u64 {
        u64::from(self.grid_dim) * u64::from(self.block_dim)
    }
}

/// A kernel expressed at block granularity.
pub trait BlockKernel: Sync {
    /// Execute one block.
    fn run(&self, block: &mut BlockCtx<'_>);
}

impl<F: Fn(&mut BlockCtx<'_>) + Sync> BlockKernel for F {
    fn run(&self, block: &mut BlockCtx<'_>) {
        self(block)
    }
}

fn validate(spec: &GpuSpec, cfg: &LaunchConfig) -> Result<Occupancy> {
    if cfg.grid_dim == 0 || cfg.block_dim == 0 {
        return Err(LaunchError::EmptyLaunch);
    }
    Occupancy::compute(spec, cfg.block_dim, cfg.shared_bytes)
}

/// Launch a block kernel with an explicit cost model.
///
/// # Errors
///
/// On `Err`, the contents of any buffer the kernel writes are
/// **unspecified under every host backend**: the sequential loop stops
/// at the failing block, while the parallel executor may have run
/// blocks after the failing index (live integer atomics applied) and
/// drops deferred float adds. Callers must discard, not read, kernel
/// output after an error.
pub fn launch_with_model<K: BlockKernel>(
    spec: &GpuSpec,
    model: &CostModel,
    cfg: LaunchConfig,
    kernel: &K,
) -> Result<LaunchReport> {
    let occ = validate(spec, &cfg)?;
    // One TLS read per launch; when no sink is scoped in, the launch runs
    // the exact untraced path (stats off, `device_time` math unchanged).
    let scoped_sink = crate::tracing::current();
    let t0 = std::time::Instant::now();
    let blocks = run_blocks(spec, model, &cfg, kernel, scoped_sink.is_some())?;
    let host_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (timing, mem) = match &scoped_sink {
        None => device_time_traced(spec, model, &blocks, cfg.grid_dim, &occ, None),
        Some((sink, label)) => {
            let ctx = TraceCtx {
                sink: sink.as_ref(),
                kernel: KernelId::next(),
                device: 0,
            };
            let (timing, mem) =
                device_time_traced(spec, model, &blocks, cfg.grid_dim, &occ, Some(&ctx));
            sink.event(&TraceEvent::Kernel {
                id: ctx.kernel,
                name: label,
                device: 0,
                stream: 0,
                start_ms: 0.0,
                end_ms: timing.elapsed_ms,
                grid_dim: cfg.grid_dim,
                block_dim: cfg.block_dim,
            });
            (timing, mem)
        }
    };
    Ok(LaunchReport {
        grid_dim: cfg.grid_dim,
        block_dim: cfg.block_dim,
        shared_bytes: cfg.shared_bytes,
        occupancy: occ,
        timing,
        mem,
        host_wall_ms,
    })
}

/// Launch a block kernel with the standard cost model.
///
/// On `Err`, buffer contents are unspecified under any host backend —
/// see [`launch_with_model`]'s error docs.
pub fn launch<K: BlockKernel>(spec: &GpuSpec, cfg: LaunchConfig, kernel: &K) -> Result<LaunchReport> {
    launch_with_model(spec, &CostModel::standard(), cfg, kernel)
}

/// Launch a per-thread kernel (no barriers, no shared memory): `f` runs
/// once per thread, exactly like a plain CUDA `__global__` function body.
pub fn launch_threads<F>(spec: &GpuSpec, cfg: LaunchConfig, f: F) -> Result<LaunchReport>
where
    F: Fn(&LaneCtx<'_>) + Sync,
{
    launch_threads_with_model(spec, &CostModel::standard(), cfg, f)
}

/// [`launch_threads`] with an explicit cost model.
pub fn launch_threads_with_model<F>(
    spec: &GpuSpec,
    model: &CostModel,
    cfg: LaunchConfig,
    f: F,
) -> Result<LaunchReport>
where
    F: Fn(&LaneCtx<'_>) + Sync,
{
    launch_with_model(spec, model, cfg, &|block: &mut BlockCtx<'_>| {
        block.for_each_thread(|lane| f(lane));
    })
}

/// Launch a cooperative kernel partitioned into groups of `group_size`
/// threads: `f` runs once per group.
pub fn launch_groups<F>(
    spec: &GpuSpec,
    cfg: LaunchConfig,
    group_size: u32,
    f: F,
) -> Result<LaunchReport>
where
    F: Fn(&mut GroupCtx<'_>) + Sync,
{
    launch_groups_with_model(spec, &CostModel::standard(), cfg, group_size, f)
}

/// [`launch_groups`] with an explicit cost model.
pub fn launch_groups_with_model<F>(
    spec: &GpuSpec,
    model: &CostModel,
    cfg: LaunchConfig,
    group_size: u32,
    f: F,
) -> Result<LaunchReport>
where
    F: Fn(&mut GroupCtx<'_>) + Sync,
{
    launch_with_model(spec, model, cfg, &|block: &mut BlockCtx<'_>| {
        block.for_each_group(group_size, |g| f(g));
    })
}

/// Execute the grid's blocks up to and including the first idle one on
/// the active [host backend](crate::host), returning their costs in
/// block order; [`grid_costs`](crate::scheduler::grid_costs) charges
/// every later block as a repeat of the last.
///
/// Sequential (the default) runs blocks in ascending index order on the
/// calling thread; `Parallel { threads }` hands them to the
/// [`HostExecutor`](crate::host), whose deterministic merge makes the
/// two paths bitwise identical.
///
/// On `Err`, the set of blocks that ran — and therefore every buffer
/// the kernel writes — is backend-dependent and unspecified; callers
/// must not read kernel output after an error.
fn run_blocks<K: BlockKernel>(
    spec: &GpuSpec,
    model: &CostModel,
    cfg: &LaunchConfig,
    kernel: &K,
    stats: bool,
) -> Result<Vec<BlockCost>> {
    let n = cfg.grid_dim;
    let run = n.min(cfg.busy_blocks.saturating_add(1));
    let threads = crate::host::current().threads().min(run as usize).max(1);
    if threads == 1 {
        let mut out = Vec::with_capacity(run as usize);
        for b in 0..run {
            let mut ctx =
                BlockCtx::with_stats(b, cfg.block_dim, n, cfg.shared_bytes, spec, model, stats);
            kernel.run(&mut ctx);
            out.push(ctx.finish()?);
        }
        return Ok(out);
    }
    crate::host::HostExecutor::new(threads).run(run, |b| {
        let mut ctx = BlockCtx::with_stats(b, cfg.block_dim, n, cfg.shared_bytes, spec, model, stats);
        kernel.run(&mut ctx);
        ctx.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::GlobalMem;

    #[test]
    fn over_threads_rounds_grid_up() {
        let c = LaunchConfig::over_threads(1000, 256);
        assert_eq!(c.grid_dim, 4);
        assert_eq!(c.grid_size(), 1024);
        let c = LaunchConfig::over_threads(1024, 256);
        assert_eq!(c.grid_dim, 4);
    }

    #[test]
    fn empty_launch_is_rejected() {
        let spec = GpuSpec::test_tiny();
        let r = launch_threads(&spec, LaunchConfig::new(0, 32), |_| {});
        assert!(matches!(r, Err(LaunchError::EmptyLaunch)));
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        let spec = GpuSpec::test_tiny();
        let n = 10_000usize;
        let mut hits = vec![0u32; n];
        {
            let g = GlobalMem::new(&mut hits);
            launch_threads(&spec, LaunchConfig::over_threads(n as u64, 64), |t| {
                let gid = t.global_thread_id() as usize;
                if gid < g.len() {
                    g.fetch_add(gid, 1);
                }
            })
            .unwrap();
        }
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn grid_stride_loop_covers_large_domain() {
        let spec = GpuSpec::test_tiny();
        let n = 100_000usize;
        let mut out = vec![0u64; n];
        {
            let g = GlobalMem::new(&mut out);
            launch_threads(&spec, LaunchConfig::new(8, 64), |t| {
                let mut i = t.global_thread_id();
                while (i as usize) < g.len() {
                    g.store(i as usize, i * 2);
                    i += t.grid_size();
                }
            })
            .unwrap();
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn group_launch_runs_each_group() {
        let spec = GpuSpec::test_tiny();
        let mut out = vec![0u64; 8]; // 2 blocks * 4 groups? (32/8=4 groups/block)
        {
            let g = GlobalMem::new(&mut out);
            launch_groups(&spec, LaunchConfig::new(2, 32), 8, |grp| {
                let id = grp.global_group_id() as usize;
                let ones = grp.phase(|_| 1u64);
                let total = grp.reduce_sum_u64(&ones);
                g.store(id, total);
            })
            .unwrap();
        }
        assert_eq!(out, vec![8; 8]);
    }

    #[test]
    fn divergent_kernel_costs_more_than_uniform_for_same_total_work() {
        let spec = GpuSpec::v100();
        let cfg = LaunchConfig::new(80, 256);
        // Uniform: every thread charges 100.
        let uniform = launch_threads(&spec, cfg, |t| t.charge(100.0)).unwrap();
        // Divergent: one lane per warp charges 3200, the rest 0 (same
        // total work per warp).
        let divergent = launch_threads(&spec, cfg, |t| {
            if t.lane_id() == 0 {
                t.charge(3200.0);
            }
        })
        .unwrap();
        assert!(
            divergent.timing.compute_ms > uniform.timing.compute_ms * 5.0,
            "divergent {} vs uniform {}",
            divergent.timing.compute_ms,
            uniform.timing.compute_ms
        );
    }

    #[test]
    fn report_reflects_memory_traffic() {
        let spec = GpuSpec::v100();
        let r = launch_threads(&spec, LaunchConfig::new(1, 32), |t| {
            t.read_bytes(1000);
        })
        .unwrap();
        assert_eq!(r.mem.read_bytes, 32_000);
    }

    #[test]
    fn shared_overflow_propagates_from_parallel_executor() {
        let spec = GpuSpec::test_tiny();
        let cfg = LaunchConfig::new(8, 8).with_shared(16);
        let overflow = |b: &mut BlockCtx<'_>| {
            let _ = b.alloc_shared::<u64>(100);
        };
        let r = launch(&spec, cfg, &overflow);
        assert!(matches!(r, Err(LaunchError::SharedMemOverflow { .. })));
        // Same error from the parallel backend.
        let r = crate::host::scoped(crate::host::HostBackend::Parallel { threads: 4 }, || {
            launch(&spec, cfg, &overflow)
        });
        assert!(matches!(r, Err(LaunchError::SharedMemOverflow { .. })));
    }

    /// A block span `('b', block, sm, start, end)` or a warp sample
    /// `('w', block, warp, units, idle lanes)`, as bits.
    type Dispatch = (char, u32, u32, u64, u64);

    /// Every block span and warp sample a traced launch emits, without
    /// the kernel id (each launch mints its own).
    #[derive(Debug, Default)]
    struct Dispatches(std::sync::Mutex<Vec<Dispatch>>);

    impl trace::TraceSink for Dispatches {
        fn event(&self, ev: &TraceEvent) {
            let sample = match *ev {
                TraceEvent::Block {
                    block,
                    sm,
                    start_ms,
                    end_ms,
                    ..
                } => ('b', block, sm, start_ms.to_bits(), end_ms.to_bits()),
                TraceEvent::Warp {
                    block,
                    warp,
                    units,
                    idle_lanes,
                    ..
                } => ('w', block, warp, units.to_bits(), idle_lanes.to_bits()),
                _ => return,
            };
            self.0.lock().expect("no sink user panics").push(sample);
        }
    }

    #[test]
    fn idle_tail_is_bitwise_equal_to_running_every_block() {
        let block_dim = 12u32;
        // Blocks below `busy` write, add and charge by block index; every
        // later block only charges a fixed, divergent cost per thread
        // and, with `overflow`, over-allocates shared memory.
        let run = |spec: &GpuSpec, cfg: LaunchConfig, busy: u32, overflow: bool, traced: bool| {
            let mut out = vec![0.0f32; cfg.grid_dim as usize * block_dim as usize + 1];
            let sink = std::sync::Arc::new(Dispatches::default());
            let report = {
                let g = GlobalMem::new(&mut out);
                let kernel = |b: &mut BlockCtx<'_>| {
                    let idx = b.block_idx();
                    if idx >= busy && overflow {
                        let _ = b.alloc_shared::<u64>(100);
                    }
                    b.for_each_thread(|t| {
                        if idx < busy {
                            let gid = t.global_thread_id() as usize;
                            t.charge(0.1 * f64::from((idx * 7 + t.thread_idx()) % 5));
                            t.read_bytes(u64::from(t.thread_idx()) + 4);
                            g.store(gid + 1, gid as f32 * 0.5);
                            g.fetch_add(0, 0.1);
                        } else {
                            t.charge(0.1 * f64::from(t.thread_idx() % 3));
                        }
                    });
                };
                if traced {
                    crate::tracing::scoped(sink.clone(), "tail", || launch(spec, cfg, &kernel))
                } else {
                    launch(spec, cfg, &kernel)
                }
            };
            let report = report.map(|mut r| {
                r.host_wall_ms = 0.0;
                r
            });
            let out: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            let samples = std::mem::take(&mut *sink.0.lock().expect("no sink user panics"));
            (report, out, samples)
        };
        // Several waves on 4 SMs; a grid smaller than the V100's 80 SMs.
        for (spec, grid) in [(GpuSpec::test_tiny(), 11u32), (GpuSpec::v100(), 5)] {
            for busy in [0, 1, grid - 1, grid] {
                for backend in [
                    crate::host::HostBackend::Sequential,
                    crate::host::HostBackend::Parallel { threads: 4 },
                ] {
                    for (overflow, traced) in [(false, false), (false, true), (true, false)] {
                        let every = LaunchConfig::new(grid, block_dim).with_shared(16);
                        let tail = every.with_idle_tail(busy);
                        let (want, got) = crate::host::scoped(backend, || {
                            let want = run(&spec, every, busy, overflow, traced);
                            (want, run(&spec, tail, busy, overflow, traced))
                        });
                        let label = format!(
                            "{} busy {busy} of {grid}, {backend}, overflow {overflow}",
                            spec.name
                        );
                        assert_eq!(got.0, want.0, "{label}: report");
                        if let (Ok(_), false) = (&want.0, overflow) {
                            assert_eq!(got.1, want.1, "{label}: output");
                        }
                        assert_eq!(got.2, want.2, "{label}: block spans and warp samples");
                        if traced {
                            let spans = got.2.iter().filter(|s| s.0 == 'b').count();
                            assert_eq!(spans, grid as usize, "{label}: one span per block");
                        }
                        if overflow && busy < grid {
                            assert!(
                                matches!(
                                    want.0,
                                    Err(LaunchError::SharedMemOverflow { block_idx, .. })
                                        if block_idx == busy
                                ),
                                "{label}: the first idle block fails"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn launch_overhead_is_included() {
        let spec = GpuSpec::v100();
        let r = launch_threads(&spec, LaunchConfig::new(1, 32), |_| {}).unwrap();
        assert!(r.elapsed_ms() >= spec.launch_overhead_us * 1e-3);
    }

    #[test]
    fn single_thread_launch_works() {
        let spec = GpuSpec::test_tiny();
        let mut out = vec![0u32; 1];
        {
            let g = GlobalMem::new(&mut out);
            let r = launch_threads(&spec, LaunchConfig::new(1, 1), |t| {
                assert_eq!(t.global_thread_id(), 0);
                assert_eq!(t.grid_size(), 1);
                g.store(0, 7);
            })
            .unwrap();
            assert_eq!(r.occupancy.resident_warps, spec.max_blocks_per_sm);
        }
        assert_eq!(out[0], 7);
    }

    #[test]
    fn block_too_large_is_rejected_before_execution() {
        let spec = GpuSpec::test_tiny(); // max 256 threads/block
        let r = launch_threads(&spec, LaunchConfig::new(1, 512), |_| {
            panic!("must not execute")
        });
        assert!(matches!(r, Err(LaunchError::BlockTooLarge { .. })));
    }

    #[test]
    fn declared_shared_beyond_block_limit_is_rejected() {
        let spec = GpuSpec::test_tiny(); // 8 KiB per block
        let r = launch(
            &spec,
            LaunchConfig::new(1, 8).with_shared(16 * 1024),
            &|_: &mut BlockCtx<'_>| {},
        );
        assert!(matches!(r, Err(LaunchError::SharedMemTooLarge { .. })));
    }

    #[test]
    fn bad_group_size_surfaces_from_group_launch() {
        let spec = GpuSpec::test_tiny();
        let r = launch_groups(&spec, LaunchConfig::new(1, 16), 5, |_| {});
        assert!(matches!(r, Err(LaunchError::BadGroupSize { .. })));
    }

    #[test]
    fn large_grid_executes_every_block_once() {
        let spec = GpuSpec::test_tiny();
        let n_blocks = 10_000u32;
        for backend in [
            crate::host::HostBackend::Sequential,
            crate::host::HostBackend::Parallel { threads: 4 },
        ] {
            let mut hits = vec![0u32; n_blocks as usize];
            {
                let g = GlobalMem::new(&mut hits);
                crate::host::scoped(backend, || {
                    launch(&spec, LaunchConfig::new(n_blocks, 8), &|b: &mut BlockCtx<'_>| {
                        let idx = b.block_idx() as usize;
                        b.for_each_thread(|t| {
                            if t.thread_idx() == 0 {
                                g.fetch_add(idx, 1);
                            }
                        });
                    })
                })
                .unwrap();
            }
            assert!(hits.iter().all(|&h| h == 1), "backend {backend}");
        }
    }

    #[test]
    fn report_timing_fields_are_consistent() {
        let spec = GpuSpec::v100();
        let r = launch_threads(&spec, LaunchConfig::new(100, 256), |t| {
            t.charge(50.0);
            t.read_bytes(64);
        })
        .unwrap();
        let t = &r.timing;
        assert!(t.elapsed_ms >= t.compute_ms.max(t.memory_ms));
        assert!((t.elapsed_ms - (t.compute_ms.max(t.memory_ms) + t.overhead_ms)).abs() < 1e-12);
        assert!(t.sm_utilization > 0.0 && t.sm_utilization <= 1.0 + 1e-9);
        assert!(t.total_units > 0.0);
        assert_eq!(r.mem.read_bytes, 100 * 256 * 64);
    }
}
