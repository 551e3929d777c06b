//! The host execution backend: how simulated blocks run on *host*
//! threads, decoupled from how they are timed on the simulated device.
//!
//! Every launch funnels through the launch module's `run_blocks`, which
//! asks this module for the active [`HostBackend`]:
//!
//! * [`HostBackend::Sequential`] (the default) executes blocks in
//!   ascending block-index order on the calling thread — the reference
//!   semantics every other backend must reproduce bitwise.
//! * [`HostBackend::Parallel`] runs a work-stealing executor
//!   (`HostExecutor`): worker threads claim chunks of block
//!   indices from a shared atomic counter, execute each block's
//!   lane-level compute into per-worker buffers, and the coordinator
//!   merges [`BlockCost`]s — and replays deferred floating-point
//!   atomics — back in ascending block order.
//!
//! # The bitwise contract
//!
//! Simulated time, every [`LaunchReport`](crate::report::LaunchReport)
//! field except `host_wall_ms`, and every kernel result are **bitwise
//! identical at any thread count**, including 1 (`tests/host_parallel.rs`
//! pins this across the full dispatch matrix). Three mechanisms make
//! that true:
//!
//! 1. **Deterministic merge.** Each block's [`BlockCost`] is a pure
//!    function of the block index and launch-start memory; the merge
//!    orders costs by block index, so the greedy dispatch in
//!    [`crate::scheduler::device_time_traced`] consumes an identical
//!    sequence. That dispatch takes blocks in ascending index order (an
//!    idle tail's repeats of its first idle block last, still in index
//!    order) and puts each on the SM with the least queued load, the
//!    lowest index on ties, so the SM each block lands on is a function
//!    of that sequence alone.
//! 2. **Deferred float accumulation.** IEEE-754 addition is commutative
//!    but not associative, so concurrent `atomicAdd` on `f32`/`f64`
//!    cells would make the final sum depend on interleaving. Under the
//!    parallel backend, float `fetch_add`s against *launch-level*
//!    buffers are *logged* per block instead of applied, then replayed
//!    in (block index, program order) — exactly the sequence the
//!    sequential backend applies live. The returned "previous value" is
//!    unspecified under the parallel backend (it reflects the
//!    launch-start cell); portable kernels must not branch on
//!    `atomicAdd`'s return value, and none in this workspace do.
//!    Integer atomics and float `fetch_min`/`fetch_max` apply live:
//!    their *final* cell value is exact and order-independent.
//!
//!    Deferral is **creation-scoped** so replay never touches dead
//!    memory: every [`GlobalMem`](crate::memory::GlobalMem) snapshots a
//!    global launch-epoch counter at construction, and an add is only
//!    deferred when the target `GlobalMem` predates the executor run
//!    that is executing the block (`defer_add_f32`). A `GlobalMem`
//!    created *during* the run — block-local scratch inside the kernel
//!    body, or one built on any thread the kernel spawns — applies its
//!    adds live on the worker, which is safe and still bitwise equal to
//!    the sequential path (only that block can reach block-local
//!    storage, so accumulation stays in program order).
//! 3. **TLS propagation.** A thread-scoped trace sink
//!    ([`crate::tracing::scoped`]) or fault plan
//!    ([`crate::fault::scoped`]) active at launch is re-installed inside
//!    every worker, so code that consults the ambient context mid-block
//!    sees the same answer on any backend.
//!
//! What the contract *requires of kernels* (true of all nine in-repo
//! kernels, asserted by the equivalence harness): a block must not read
//! a cell that another block of the same launch writes (disjoint stores
//! and idempotent flag-stores are fine), and a block must not `load`,
//! `store`, `fetch_min`/`fetch_max`, or `cas` a *launch-level* float
//! cell it has itself `fetch_add`ed during the same launch — the add is
//! deferred, so the cell still holds the launch-start value and the two
//! backends would silently diverge. Debug builds panic on such an
//! access (`debug_assert_no_pending_add`); block-local scratch is
//! exempt because its adds apply live. On `Err` from any launch, buffer
//! contents are **unspecified under every backend** (the two backends
//! stop at different points); callers must discard, not read, them.
//!
//! # Selection
//!
//! Resolution order: innermost [`scoped`] override → the process default
//! from the `LOOPS_HOST_THREADS` environment variable (read once; `0`,
//! `1`, unset, or unparsable mean sequential) → [`HostBackend::Sequential`].
//! The dispatch engine's builder installs a scoped override around its
//! launches, so the runtime's warm plan path and sharded serving inherit a
//! backend without per-kernel changes.

use crate::block::BlockCost;
use crate::error::{LaunchError, Result};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// How a launch's simulated blocks execute on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostBackend {
    /// Blocks run on the calling thread in ascending block-index order.
    #[default]
    Sequential,
    /// Blocks run on `threads` worker threads claiming chunks from a
    /// shared counter; results merge back in block order, bitwise equal
    /// to [`Self::Sequential`]. `threads <= 1` degenerates to the
    /// sequential path.
    Parallel {
        /// Worker threads to spawn (independent of the machine's core
        /// count: the results are identical either way, only wall-clock
        /// changes).
        threads: usize,
    },
}

impl std::fmt::Display for HostBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sequential => write!(f, "sequential"),
            Self::Parallel { threads } => write!(f, "parallel({threads})"),
        }
    }
}

impl HostBackend {
    /// The backend requested by `LOOPS_HOST_THREADS`: `N >= 2` selects
    /// `Parallel { threads: N }`; unset, `0`, `1`, or unparsable select
    /// `Sequential`.
    pub fn from_env() -> Self {
        match std::env::var("LOOPS_HOST_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(n) if n >= 2 => Self::Parallel { threads: n },
            _ => Self::Sequential,
        }
    }

    /// Worker threads this backend uses (1 for sequential).
    pub fn threads(self) -> usize {
        match self {
            Self::Sequential => 1,
            Self::Parallel { threads } => threads.max(1),
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<HostBackend>> = const { RefCell::new(Vec::new()) };
}

static PROCESS_DEFAULT: OnceLock<HostBackend> = OnceLock::new();

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Run `f` with `backend` installed as the current thread's host
/// backend. Scopes nest (innermost wins) and are panic-safe.
pub fn scoped<R>(backend: HostBackend, f: impl FnOnce() -> R) -> R {
    STACK.with(|s| s.borrow_mut().push(backend));
    let _guard = ScopeGuard;
    f()
}

/// The backend the next launch on this thread will use: the innermost
/// [`scoped`] override, else the process default from
/// [`HostBackend::from_env`] (environment read once per process).
pub fn current() -> HostBackend {
    STACK.with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| *PROCESS_DEFAULT.get_or_init(HostBackend::from_env))
}

/// One logged floating-point `atomicAdd`, to be replayed at merge time.
///
/// The cell address is carried as `usize`, which is sound because
/// deferral is creation-scoped: `defer_add_f32` only logs a cell when
/// its [`GlobalMem`](crate::memory::GlobalMem) was created *before* the
/// executor run now executing the block (its [`creation_epoch`]
/// snapshot predates the run's generation). A `GlobalMem` that old can
/// only be reachable inside a block through the kernel closure's
/// environment — captures, or conduits (locks, channels) typed with the
/// `GlobalMem`'s borrow lifetime — so the borrow checker forces its
/// backing buffer to outlive the whole [`HostExecutor::run`] call, and
/// the replay happens inside that call, after every worker has joined.
/// Buffers created during the run (block-local scratch, or a `GlobalMem`
/// built on a thread the kernel spawned) snapshot an epoch `>=` the
/// run's generation, are never logged, and apply their adds live.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeferredAdd {
    /// `f32` add against an `AtomicU32` cell.
    F32 { cell: usize, v: f32 },
    /// `f64` add against an `AtomicU64` cell.
    F64 { cell: usize, v: f64 },
}

/// Monotonic launch-epoch counter: bumped once per parallel executor
/// run, snapshotted by every `GlobalMem` at construction. The pair
/// orders "buffer created" against "run started" across threads.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// The epoch a `GlobalMem` constructed right now should record
/// (compared against the run generation by `defer_add_f32`).
#[inline]
pub(crate) fn creation_epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

thread_local! {
    /// The generation of the executor run this thread is executing a
    /// block for (`0` = not inside a parallel block). Checked on every
    /// float `fetch_add`.
    static ACTIVE_GEN: Cell<u64> = const { Cell::new(0) };
    /// The current block's deferred-add log (program order).
    static DEFER_LOG: RefCell<Vec<DeferredAdd>> = const { RefCell::new(Vec::new()) };
}

#[cfg(debug_assertions)]
thread_local! {
    /// Debug builds: cells with a pending deferred add from the current
    /// block, to catch same-block read-your-own-write divergence.
    static DEFER_CELLS: RefCell<std::collections::HashSet<usize>> =
        RefCell::new(std::collections::HashSet::new());
}

/// If the calling thread is inside a parallel block *and* the target
/// `GlobalMem` predates the run (`created_epoch` below the run's
/// generation), log an `f32` add and return `true`; otherwise return
/// `false` so the caller applies it live.
#[inline]
pub(crate) fn defer_add_f32(cell: &AtomicU32, v: f32, created_epoch: u64) -> bool {
    let gen = ACTIVE_GEN.with(Cell::get);
    if gen == 0 || created_epoch >= gen {
        return false;
    }
    let cell = cell as *const AtomicU32 as usize;
    DEFER_LOG.with(|l| l.borrow_mut().push(DeferredAdd::F32 { cell, v }));
    #[cfg(debug_assertions)]
    DEFER_CELLS.with(|s| {
        s.borrow_mut().insert(cell);
    });
    true
}

/// `defer_add_f32` for `f64`.
#[inline]
pub(crate) fn defer_add_f64(cell: &AtomicU64, v: f64, created_epoch: u64) -> bool {
    let gen = ACTIVE_GEN.with(Cell::get);
    if gen == 0 || created_epoch >= gen {
        return false;
    }
    let cell = cell as *const AtomicU64 as usize;
    DEFER_LOG.with(|l| l.borrow_mut().push(DeferredAdd::F64 { cell, v }));
    #[cfg(debug_assertions)]
    DEFER_CELLS.with(|s| {
        s.borrow_mut().insert(cell);
    });
    true
}

/// Debug-build contract check: panic if `cell` has a deferred add
/// pending from the current block. A kernel that `load`s / `store`s /
/// `min`s / `max`es / `cas`es a launch-level float cell after its own
/// `fetch_add` would silently read the stale launch-start value under
/// the parallel backend while the sequential backend sees the sum —
/// fail loudly instead of diverging. No-op in release builds and
/// outside a deferral window.
#[inline]
pub(crate) fn debug_assert_no_pending_add(cell: usize) {
    #[cfg(debug_assertions)]
    {
        // Outside a deferral window (sequential backend, coordinator
        // thread) nothing can be pending: skip the set lookup.
        if ACTIVE_GEN.with(Cell::get) == 0 {
            return;
        }
        DEFER_CELLS.with(|s| {
            assert!(
                !s.borrow().contains(&cell),
            "bitwise-contract violation: this block read or modified a float cell it \
             `fetch_add`ed earlier in the same launch; under the parallel host backend the \
             add is deferred to merge time, so the access would observe the launch-start \
             value and diverge from the sequential backend (see `simt::host` docs)"
            );
        });
    }
    #[cfg(not(debug_assertions))]
    let _ = cell;
}

/// RAII scope for one block's deferral window; panic-safe (a worker
/// panic clears the generation before the thread is reused or unwinds).
struct DeferScope;

impl DeferScope {
    fn begin(gen: u64) -> Self {
        debug_assert_ne!(gen, 0, "generation 0 means 'not in a run'");
        ACTIVE_GEN.with(|f| f.set(gen));
        DeferScope
    }

    /// End the window and take the block's log.
    fn take(self) -> Vec<DeferredAdd> {
        DEFER_LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
        // Drop clears the generation and the debug cell set.
    }
}

impl Drop for DeferScope {
    fn drop(&mut self) {
        ACTIVE_GEN.with(|f| f.set(0));
        DEFER_LOG.with(|l| l.borrow_mut().clear());
        #[cfg(debug_assertions)]
        DEFER_CELLS.with(|s| s.borrow_mut().clear());
    }
}

/// Replay one block's deferred adds in program order.
///
/// Runs on the coordinating thread after every worker has been joined,
/// so each load-add-store below is unobserved by any concurrent access
/// — the replay is the same read-modify-write sequence the sequential
/// backend performed live.
fn replay(adds: &[DeferredAdd]) {
    for a in adds {
        match *a {
            DeferredAdd::F32 { cell, v } => {
                // SAFETY: `cell` was logged by `defer_add_f32`, which
                // only accepts cells of a `GlobalMem` created before
                // this executor run began; such a view is reachable in
                // a block only through the kernel closure's environment,
                // so its borrow outlives the `run` call this replay is
                // part of (see `DeferredAdd` docs). Workers are joined,
                // so the coordinator is the only accessor.
                let c = unsafe { &*(cell as *const AtomicU32) };
                let old = f32::from_bits(c.load(Ordering::Relaxed));
                c.store((old + v).to_bits(), Ordering::Relaxed);
            }
            DeferredAdd::F64 { cell, v } => {
                // SAFETY: as above.
                let c = unsafe { &*(cell as *const AtomicU64) };
                let old = f64::from_bits(c.load(Ordering::Relaxed));
                c.store((old + v).to_bits(), Ordering::Relaxed);
            }
        }
    }
}

/// The work-stealing parallel block executor.
///
/// Mirrors the shape of a hybrid CPU/GPU load balancer: a shared atomic
/// cursor hands out chunks of the block range, workers execute into
/// per-worker buffers, and a deterministic merge reassembles the launch.
pub(crate) struct HostExecutor {
    threads: usize,
}

type BlockOutcome = (
    u32,
    std::result::Result<BlockCost, LaunchError>,
    Vec<DeferredAdd>,
);

impl HostExecutor {
    pub(crate) fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(2),
        }
    }

    /// Execute blocks `0..n` via `run_block`, returning costs in block
    /// order. Bitwise equal to the sequential loop for kernels honoring
    /// the module contract; on error, the error of the *lowest* block
    /// index is returned (the one the sequential loop would have hit),
    /// and buffer contents are unspecified — blocks after the failing
    /// index may or may not have run, so callers must not read them
    /// (true of the sequential path's partial state too).
    pub(crate) fn run<F>(&self, n: u32, run_block: F) -> Result<Vec<BlockCost>>
    where
        F: Fn(u32) -> std::result::Result<BlockCost, LaunchError> + Sync,
    {
        // Mint this run's generation: a GlobalMem is eligible for
        // deferred float adds only if it snapshotted an earlier epoch,
        // i.e. provably existed before the run (see `DeferredAdd`).
        let gen = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
        // Capture the caller's ambient contexts for re-installation in
        // the workers: a worker is a fresh thread with empty TLS stacks.
        let trace = crate::tracing::current();
        let fault = crate::fault::current();
        // Chunked claiming: big enough to amortize the shared counter,
        // small enough to keep the tail balanced. Chunk size affects
        // wall-clock only — results are merged by block index.
        let chunk = (n as usize / (self.threads * 8)).clamp(1, 256);
        let next = AtomicUsize::new(0);
        let run_block = &run_block;
        let outcomes: Vec<BlockOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    let next = &next;
                    let trace = trace.clone();
                    s.spawn(move || {
                        let body = || {
                            let mut local: Vec<BlockOutcome> = Vec::new();
                            loop {
                                let base = next.fetch_add(chunk, Ordering::Relaxed);
                                if base >= n as usize {
                                    break;
                                }
                                let end = (base + chunk).min(n as usize);
                                for b in base as u32..end as u32 {
                                    let scope = DeferScope::begin(gen);
                                    let res = run_block(b);
                                    local.push((b, res, scope.take()));
                                }
                            }
                            local
                        };
                        let with_fault = || match fault {
                            Some(plan) => crate::fault::scoped(plan, body),
                            None => body(),
                        };
                        match &trace {
                            Some((sink, label)) => {
                                crate::tracing::scoped(sink.clone(), label, with_fault)
                            }
                            None => with_fault(),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("host executor worker panicked"))
                .collect()
        });

        // Deterministic merge: reassemble by block index, then replay
        // each block's deferred float adds in that order — the exact
        // accumulation sequence of the sequential backend.
        let mut slots: Vec<Option<BlockOutcome>> = (0..n).map(|_| None).collect();
        for o in outcomes {
            let idx = o.0 as usize;
            debug_assert!(slots[idx].is_none(), "block {idx} executed twice");
            slots[idx] = Some(o);
        }
        let mut out = Vec::with_capacity(n as usize);
        for slot in slots {
            let (b, res, adds) = slot.expect("every block index executed exactly once");
            match res {
                Ok(cost) => {
                    replay(&adds);
                    out.push(cost);
                }
                // Lowest-index error: the deterministic choice, and the
                // one the sequential loop reports. Later blocks' deferred
                // adds are dropped, like the sequential loop never
                // running them; callers discard buffers on error.
                Err(e) => {
                    let _ = b;
                    return Err(e);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockCost;
    use crate::cost::MemSummary;

    fn cost(units: f64) -> BlockCost {
        BlockCost {
            warp_costs: vec![units],
            warp_idle: Vec::new(),
            mem: MemSummary::default(),
        }
    }

    #[test]
    fn env_parsing_maps_small_counts_to_sequential() {
        // from_env reads the real environment; only the parse mapping is
        // testable deterministically here.
        assert_eq!(HostBackend::Sequential.threads(), 1);
        assert_eq!(HostBackend::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(HostBackend::Parallel { threads: 8 }.threads(), 8);
    }

    #[test]
    fn scoped_overrides_nest_and_pop() {
        let outer = HostBackend::Parallel { threads: 2 };
        let inner = HostBackend::Parallel { threads: 7 };
        scoped(outer, || {
            assert_eq!(current(), outer);
            scoped(inner, || assert_eq!(current(), inner));
            assert_eq!(current(), outer);
        });
    }

    #[test]
    fn executor_merges_costs_in_block_order() {
        let ex = HostExecutor::new(4);
        let out = ex.run(100, |b| Ok(cost(f64::from(b)))).unwrap();
        assert_eq!(out.len(), 100);
        for (i, c) in out.iter().enumerate() {
            assert_eq!(c.warp_costs[0], i as f64);
        }
    }

    #[test]
    fn executor_reports_the_lowest_block_index_error() {
        let ex = HostExecutor::new(8);
        // Blocks 10 and 90 both fail; the deterministic answer is 10's.
        let r = ex.run(100, |b| {
            if b == 10 || b == 90 {
                Err(LaunchError::SharedMemOverflow {
                    block_idx: b,
                    used: 0,
                    declared: 0,
                })
            } else {
                Ok(cost(1.0))
            }
        });
        match r {
            Err(LaunchError::SharedMemOverflow { block_idx, .. }) => assert_eq!(block_idx, 10),
            other => panic!("expected overflow from block 10, got {other:?}"),
        }
    }

    #[test]
    fn deferred_adds_replay_in_block_then_program_order() {
        // Each block contributes (b+1) and then (b+1)/10 to one cell.
        // The replayed sequence must match a sequential fold exactly.
        let mut seq = vec![0.0f32; 1];
        {
            let g = crate::memory::GlobalMem::new(&mut seq);
            for b in 0..32u32 {
                g.fetch_add(0, (b + 1) as f32);
                g.fetch_add(0, (b + 1) as f32 / 10.0);
            }
        }
        let mut par = vec![0.0f32; 1];
        {
            let g = crate::memory::GlobalMem::new(&mut par);
            let ex = HostExecutor::new(4);
            ex.run(32, |b| {
                g.fetch_add(0, (b + 1) as f32);
                g.fetch_add(0, (b + 1) as f32 / 10.0);
                Ok(cost(1.0))
            })
            .unwrap();
        }
        assert_eq!(seq[0].to_bits(), par[0].to_bits());
    }

    #[test]
    fn block_local_global_mem_applies_live_and_reads_back() {
        // The once-unsound scenario: a GlobalMem over a scratch buffer
        // created *inside* the kernel body. Its epoch postdates the run,
        // so adds are never logged (no pointer survives the block) and
        // read-your-own-write behaves exactly like the sequential
        // backend.
        let ex = HostExecutor::new(4);
        ex.run(16, |b| {
            let mut scratch = vec![0.0f32; 1];
            let g = crate::memory::GlobalMem::new(&mut scratch);
            g.fetch_add(0, b as f32);
            g.fetch_add(0, 0.5);
            assert_eq!(
                g.load(0).to_bits(),
                (b as f32 + 0.5).to_bits(),
                "block-local adds must apply live, in program order"
            );
            Ok(cost(1.0))
        })
        .unwrap();
    }

    #[test]
    fn pre_run_global_mem_is_deferred_but_block_local_is_not() {
        let mut shared = vec![0.0f64; 1];
        let g = crate::memory::GlobalMem::new(&mut shared);
        let ex = HostExecutor::new(2);
        ex.run(8, |_| {
            // Launch-level view: the add is logged, the cell still holds
            // the launch-start value inside the block.
            g.fetch_add(0, 1.0);
            // Block-local view: applied immediately.
            let mut local = vec![10.0f64; 1];
            let l = crate::memory::GlobalMem::new(&mut local);
            l.fetch_add(0, 1.0);
            assert_eq!(l.load(0), 11.0);
            Ok(cost(1.0))
        })
        .unwrap();
        assert_eq!(g.load(0), 8.0, "deferred adds replay at merge time");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "host executor worker panicked")]
    fn debug_build_panics_on_read_after_deferred_add() {
        let mut shared = vec![0.0f32; 1];
        let g = crate::memory::GlobalMem::new(&mut shared);
        let ex = HostExecutor::new(2);
        let _ = ex.run(4, |_| {
            g.fetch_add(0, 1.0);
            // Same-block read of a deferred-add target: diverges from
            // the sequential backend, so debug builds must fail loudly.
            let _ = g.load(0);
            Ok(cost(1.0))
        });
    }

    #[test]
    fn defer_flag_is_cleared_outside_the_executor() {
        let ex = HostExecutor::new(2);
        ex.run(8, |_| Ok(cost(1.0))).unwrap();
        // Back on the coordinator: live application.
        let mut buf = vec![0.0f32; 1];
        let g = crate::memory::GlobalMem::new(&mut buf);
        g.fetch_add(0, 2.5);
        assert_eq!(g.load(0), 2.5);
    }
}
