//! Device-level timing: dispatching blocks onto SMs and computing the
//! launch makespan.
//!
//! The GPU's gigathread engine dispatches blocks to SMs as residency slots
//! free up — effectively a greedy least-loaded assignment. We model each SM
//! as a server with issue throughput `issue_width_per_sm` (scaled down when
//! occupancy is too low to hide latency), and charge each SM
//! `max(throughput load, longest single warp)`: a stream of balanced blocks
//! is throughput-bound, while one monstrous warp (the hub row of a
//! power-law matrix under a thread-mapped schedule) becomes the critical
//! path no amount of oversubscription can hide. The device compute time is
//! the slowest SM; the launch time is the max of compute and the memory
//! roofline, plus fixed launch overhead.
//!
//! The dispatcher keeps the SMs in a min-heap keyed by (load, SM index).
//! Its contract: on the finite, non-negative loads the model produces,
//! it picks, block after block, exactly the SM a linear scan for the
//! first least-loaded SM picks (the lowest index on ties), in
//! O(log SMs) per block rather than O(SMs).

use crate::block::BlockCost;
use crate::cost::{CostModel, MemSummary};
use crate::occupancy::Occupancy;
use crate::report::{Boundedness, TimingBreakdown};
use crate::spec::GpuSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use trace::{KernelId, TraceEvent, TraceSink};

/// Where a traced dispatch should send its per-block records.
///
/// Carries the identity that block/warp events need but the timing model
/// itself doesn't: which kernel this dispatch belongs to and on which
/// device it runs.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx<'a> {
    /// The sink receiving events.
    pub sink: &'a dyn TraceSink,
    /// Kernel span these blocks belong to.
    pub kernel: KernelId,
    /// Device index (0 for single-device launches).
    pub device: u32,
}

/// Compute the timing breakdown for a set of executed blocks.
pub fn device_time(
    spec: &GpuSpec,
    model: &CostModel,
    blocks: &[BlockCost],
    occ: &Occupancy,
) -> TimingBreakdown {
    device_time_traced(spec, model, blocks, blocks.len() as u32, occ, None).0
}

/// Every block's cost in a launch of `grid_dim` blocks that executed
/// `blocks`, in block order: the executed blocks, then the last of them
/// once more for each block past them (the launch's idle tail, see
/// [`LaunchConfig::with_idle_tail`](crate::launch::LaunchConfig::with_idle_tail)).
///
/// # Panics
///
/// If `blocks` is empty while `grid_dim` is not.
pub(crate) fn grid_costs(blocks: &[BlockCost], grid_dim: u32) -> impl Iterator<Item = &BlockCost> {
    let last = blocks.len().saturating_sub(1);
    (0..grid_dim as usize).map(move |b| &blocks[b.min(last)])
}

/// [`device_time`] for a launch of `grid_dim` blocks, optionally emitting
/// per-block dispatch spans and per-warp idle-lane samples to `trace`.
///
/// Block `b` costs `blocks[b]`; every block past the end of `blocks`
/// costs the last entry, and is dispatched, traced and summed exactly
/// as a stored copy of it would be.
///
/// Returns the timing and the launch's summed memory traffic. The
/// timing math is untouched by tracing — the sink only observes the
/// greedy dispatcher's intermediate state (which SM each block lands on
/// and the SM's queue depth before/after), so traced and untraced calls
/// return identical breakdowns.
pub fn device_time_traced(
    spec: &GpuSpec,
    model: &CostModel,
    blocks: &[BlockCost],
    grid_dim: u32,
    occ: &Occupancy,
    trace: Option<&TraceCtx<'_>>,
) -> (TimingBreakdown, MemSummary) {
    let hide = (f64::from(occ.resident_warps) / model.latency_hiding_warps).min(1.0);
    let eff_issue = (f64::from(spec.issue_width_per_sm) * hide).max(1e-9);

    let num_sms = spec.num_sms as usize;
    let mut load = vec![0.0f64; num_sms]; // cycles of queued throughput work
    let mut critical = vec![0.0f64; num_sms]; // longest single warp seen
    // The SMs by (load, index), least first. A non-negative f64's bits
    // order as its value does, so the key compares loads exactly.
    let mut least_loaded: BinaryHeap<Reverse<(u64, usize)>> =
        (0..num_sms).map(|sm| Reverse((0.0f64.to_bits(), sm))).collect();
    let mut mem = MemSummary::default();
    let mut total_units = 0.0;
    let cycles_to_ms = 1.0 / (spec.clock_ghz * 1e9) * 1e3;
    // A thread-scoped fault plan (`fault::scoped`) degrades individual
    // SMs' issue throughput. Timing-only: results were computed before
    // this function runs. Without a degrading plan nothing is even
    // touched, keeping the healthy path bitwise identical.
    let fault_mults: Option<Vec<f64>> = crate::fault::current()
        .filter(|p| p.sm_degrade_prob > 0.0)
        .map(|p| (0..num_sms).map(|i| p.sm_multiplier(i as u32)).collect());

    for (bi, b) in grid_costs(blocks, grid_dim).enumerate() {
        // Greedy: dispatch to the SM that currently finishes earliest,
        // ties to the *lowest* SM index, so the SM assignment is a pure
        // function of the block sequence. The parallel host backend
        // relies on this: merging `BlockCost`s back in block order is
        // sufficient for bitwise-identical timing, with no hidden
        // dependence on comparison order (pinned by
        // `ties_break_to_the_lowest_sm_index`).
        let mut top = least_loaded.peek_mut().expect("a device has at least one SM");
        let sm = top.0 .1;
        let units = b.total_units();
        total_units += units;
        let start = load[sm];
        let m = fault_mults.as_ref().map_or(1.0, |v| v[sm]);
        load[sm] += units / eff_issue / m;
        debug_assert!(load[sm] >= 0.0, "SM loads are non-negative and not NaN");
        // Re-keying the top sifts it down when `top` drops.
        *top = Reverse((load[sm].to_bits(), sm));
        drop(top);
        critical[sm] = critical[sm].max(b.critical_warp() / m);
        mem = mem.merged(b.mem);
        if let Some(t) = trace {
            t.sink.event(&TraceEvent::Block {
                kernel: t.kernel,
                device: t.device,
                block: bi as u32,
                sm: sm as u32,
                start_ms: start * cycles_to_ms,
                end_ms: load[sm] * cycles_to_ms,
            });
            for (w, (&cost, &idle)) in b.warp_costs.iter().zip(&b.warp_idle).enumerate() {
                t.sink.event(&TraceEvent::Warp {
                    kernel: t.kernel,
                    block: bi as u32,
                    warp: w as u32,
                    units: cost,
                    idle_lanes: if cost > 0.0 { idle / cost } else { 0.0 },
                });
            }
        }
    }

    let timing = breakdown(spec, model, eff_issue, &load, &critical, mem, total_units);
    (timing, mem)
}

/// The launch's timing from the dispatcher's final state: each SM's
/// queued load and longest warp, the launch's traffic and its units.
fn breakdown(
    spec: &GpuSpec,
    model: &CostModel,
    eff_issue: f64,
    load: &[f64],
    critical: &[f64],
    mem: MemSummary,
    total_units: f64,
) -> TimingBreakdown {
    let cycles_to_ms = 1.0 / (spec.clock_ghz * 1e9) * 1e3;
    // An SM's time: its throughput load, plus any critical-path excess —
    // a warp that outlives all co-resident work runs alone, latency
    // exposed, and pays `latency_stall`× for the uncovered portion.
    let sm_cycles: Vec<f64> = load
        .iter()
        .zip(critical)
        .map(|(&l, &c)| l + (c - l).max(0.0) * model.latency_stall)
        .collect();
    let compute_cycles = sm_cycles.iter().copied().fold(0.0, f64::max);
    let compute_ms = compute_cycles * cycles_to_ms;
    let overhead_ms = spec.launch_overhead_us * 1e-3;
    let busy: f64 = sm_cycles.iter().sum();
    let utilization = if compute_cycles > 0.0 {
        busy / (compute_cycles * sm_cycles.len() as f64)
    } else {
        0.0
    };
    let memory_ms = memory_ms(spec, mem.total_bytes(), utilization);
    TimingBreakdown {
        compute_ms,
        memory_ms,
        overhead_ms,
        elapsed_ms: compute_ms.max(memory_ms) + overhead_ms,
        bound: if compute_ms >= memory_ms {
            Boundedness::Compute
        } else {
            Boundedness::Memory
        },
        sm_utilization: utilization,
        total_units,
        effective_issue_width: eff_issue,
        sm_times_ms: sm_cycles.iter().map(|&c| c * cycles_to_ms).collect(),
    }
}

/// The memory roofline: milliseconds to move `bytes` of global traffic
/// while a `utilization` share of the SMs is busy.
///
/// Idle SMs issue no loads, so an imbalanced launch cannot saturate the
/// memory system: achieved bandwidth scales with SM busyness. A quarter
/// of the SMs streaming flat-out can still reach peak (memory-level
/// parallelism), and even one busy SM draws ~5% of peak — hence the
/// clamp. This coupling is what makes load imbalance hurt *memory-bound*
/// kernels, the central phenomenon of the paper's evaluation.
pub(crate) fn memory_ms(spec: &GpuSpec, bytes: u64, utilization: f64) -> f64 {
    let bw_frac = if bytes == 0 {
        1.0
    } else {
        (utilization * 4.0).clamp(0.05, 1.0)
    };
    bytes as f64 / (spec.mem_bw_gbs * 1e9 * bw_frac) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(spec: &GpuSpec) -> Occupancy {
        Occupancy::compute(spec, 256, 0).unwrap()
    }

    fn block_of(warps: &[f64]) -> BlockCost {
        BlockCost {
            warp_costs: warps.to_vec(),
            warp_idle: Vec::new(),
            mem: MemSummary::default(),
        }
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let spec = GpuSpec::v100();
        let t = device_time(&spec, &CostModel::standard(), &[], &occ(&spec));
        assert_eq!(t.compute_ms, 0.0);
        assert!((t.elapsed_ms - spec.launch_overhead_us * 1e-3).abs() < 1e-12);
    }

    #[test]
    fn empty_blocks_produce_empty_sm_timeline_and_zero_units() {
        // Edge case behind every `grid_dim ≥ 1` guard upstream: with no
        // blocks the dispatcher must not touch any SM state.
        let spec = GpuSpec::v100();
        let t = device_time(&spec, &CostModel::standard(), &[], &occ(&spec));
        assert_eq!(t.total_units, 0.0);
        assert_eq!(t.sm_utilization, 0.0);
        assert!(t.sm_times_ms.iter().all(|&ms| ms == 0.0));
        assert_eq!(t.memory_ms, 0.0);
        assert_eq!(t.bound, Boundedness::Compute);
    }

    #[test]
    fn ties_break_to_the_lowest_sm_index() {
        // All SMs start equally loaded (empty), so the first block must
        // land on SM 0; after one identical block per SM, every SM is
        // tied again and the next wave must repeat the 0..num_sms order.
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let o = occ(&spec);
        let num_sms = spec.num_sms as usize;
        let blocks: Vec<_> = (0..2 * num_sms).map(|_| block_of(&[100.0; 8])).collect();
        let rec = trace::Recorder::new();
        let ctx = TraceCtx {
            sink: &rec,
            kernel: KernelId::next(),
            device: 0,
        };
        device_time_traced(&spec, &model, &blocks, blocks.len() as u32, &o, Some(&ctx));
        let sms: Vec<u32> = rec
            .snapshot()
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Block { sm, .. } => Some(*sm),
                _ => None,
            })
            .collect();
        let want: Vec<u32> = (0..num_sms as u32).chain(0..num_sms as u32).collect();
        assert_eq!(sms, want, "greedy argmin must resolve ties by lowest SM index");
    }

    /// The dispatcher the heap replaced, kept as the reference: a linear
    /// scan for the first least-loaded SM, over every block's stored
    /// cost. Returns the timing and each block's (SM, start, end) bits.
    fn scan_reference(
        spec: &GpuSpec,
        model: &CostModel,
        blocks: &[BlockCost],
        occ: &Occupancy,
    ) -> (TimingBreakdown, Vec<(u32, u64, u64)>) {
        let hide = (f64::from(occ.resident_warps) / model.latency_hiding_warps).min(1.0);
        let eff_issue = (f64::from(spec.issue_width_per_sm) * hide).max(1e-9);
        let num_sms = spec.num_sms as usize;
        let (mut load, mut critical) = (vec![0.0f64; num_sms], vec![0.0f64; num_sms]);
        let (mut mem, mut total_units) = (MemSummary::default(), 0.0);
        let cycles_to_ms = 1.0 / (spec.clock_ghz * 1e9) * 1e3;
        let fault_mults: Option<Vec<f64>> = crate::fault::current()
            .filter(|p| p.sm_degrade_prob > 0.0)
            .map(|p| (0..num_sms).map(|i| p.sm_multiplier(i as u32)).collect());
        let mut spans = Vec::new();
        for b in blocks {
            let (sm, _) = load
                .iter()
                .enumerate()
                .fold((0usize, f64::INFINITY), |(bi, bv), (i, &v)| {
                    if v < bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                });
            let units = b.total_units();
            total_units += units;
            let start = load[sm];
            let m = fault_mults.as_ref().map_or(1.0, |v| v[sm]);
            load[sm] += units / eff_issue / m;
            critical[sm] = critical[sm].max(b.critical_warp() / m);
            mem = mem.merged(b.mem);
            let ms = |cycles: f64| (cycles * cycles_to_ms).to_bits();
            spans.push((sm as u32, ms(start), ms(load[sm])));
        }
        let timing = breakdown(spec, model, eff_issue, &load, &critical, mem, total_units);
        (timing, spans)
    }

    fn timing_bits(t: &TimingBreakdown) -> (Vec<u64>, Boundedness) {
        let scalars = [
            t.compute_ms,
            t.memory_ms,
            t.overhead_ms,
            t.elapsed_ms,
            t.sm_utilization,
            t.total_units,
            t.effective_issue_width,
        ];
        let bits = scalars.iter().chain(&t.sm_times_ms).map(|x| x.to_bits()).collect();
        (bits, t.bound)
    }

    #[test]
    fn heap_dispatch_matches_the_linear_scan_bit_for_bit() {
        let model = CostModel::standard();
        // splitmix64: a seeded stream, uniform in `0..n`.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let degraded = crate::fault::FaultPlan::healthy(5).with_degraded_sms(0.5, 0.25, 0.75);
        for spec in [GpuSpec::v100(), GpuSpec::test_tiny()] {
            let o = occ(&spec);
            let sms = u64::from(spec.num_sms);
            for case in 0..150 {
                // Few distinct warp costs, on an integer grid or in 0.1
                // steps, so SM loads tie often; grids from one block to
                // several waves of SMs.
                let step = if case % 2 == 0 { 10.0 } else { 0.1 };
                let grid = 1 + draw(4 * sms + 3) as usize;
                let warps = 1 + draw(4) as usize;
                // Half the cases end in an idle tail: the blocks past
                // `executed` repeat the last executed cost.
                let executed = if case % 4 < 2 { grid } else { 1 + draw(grid as u64) as usize };
                let blocks: Vec<BlockCost> = (0..executed)
                    .map(|_| BlockCost {
                        warp_costs: (0..warps).map(|_| step * draw(4) as f64).collect(),
                        warp_idle: Vec::new(),
                        mem: MemSummary {
                            read_bytes: draw(3) << 20,
                            ..Default::default()
                        },
                    })
                    .collect();
                let mut every_block = blocks.clone();
                every_block.resize(grid, blocks[executed - 1].clone());
                let check = || {
                    let rec = trace::Recorder::new();
                    let ctx = TraceCtx {
                        sink: &rec,
                        kernel: KernelId::next(),
                        device: 0,
                    };
                    let (heap, _) =
                        device_time_traced(&spec, &model, &blocks, grid as u32, &o, Some(&ctx));
                    let spans: Vec<(u32, u64, u64)> = rec
                        .snapshot()
                        .events
                        .iter()
                        .filter_map(|e| match *e {
                            TraceEvent::Block {
                                sm, start_ms, end_ms, ..
                            } => Some((sm, start_ms.to_bits(), end_ms.to_bits())),
                            _ => None,
                        })
                        .collect();
                    let (scan, scan_spans) = scan_reference(&spec, &model, &every_block, &o);
                    let label = format!("{} case {case}: {executed} of {grid} blocks", spec.name);
                    assert_eq!(timing_bits(&heap), timing_bits(&scan), "{label}: timing");
                    assert_eq!(spans, scan_spans, "{label}: block spans");
                };
                check();
                crate::fault::scoped(degraded, check);
            }
        }
    }

    #[test]
    fn balanced_blocks_spread_across_sms() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // 160 identical blocks on 80 SMs: each SM gets exactly 2.
        let blocks: Vec<_> = (0..160).map(|_| block_of(&[100.0; 8])).collect();
        let t = device_time(&spec, &model, &blocks, &occ(&spec));
        let expected_cycles = 2.0 * (8.0 * 100.0) / 4.0; // 2 blocks, 8 warps, issue 4
        let expected_ms = expected_cycles / (spec.clock_ghz * 1e9) * 1e3;
        assert!((t.compute_ms - expected_ms).abs() / expected_ms < 1e-9);
        assert!(t.sm_utilization > 0.99);
    }

    #[test]
    fn one_monster_warp_is_the_critical_path() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let mut blocks: Vec<_> = (0..80).map(|_| block_of(&[10.0; 8])).collect();
        blocks.push(block_of(&[1_000_000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]));
        let t = device_time(&spec, &model, &blocks, &occ(&spec));
        let expected_ms = 1_000_000.0 / (spec.clock_ghz * 1e9) * 1e3;
        assert!(t.compute_ms >= expected_ms);
        // Utilization collapses: one SM is the long pole.
        assert!(t.sm_utilization < 0.1);
    }

    #[test]
    fn memory_roofline_dominates_when_traffic_is_heavy() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // 160 balanced blocks → full utilization → peak bandwidth.
        let blocks: Vec<_> = (0..160)
            .map(|_| BlockCost {
                warp_costs: vec![1.0; 8],
                warp_idle: Vec::new(),
                mem: MemSummary {
                    read_bytes: 9_000_000_000 / 160, // 10 ms total at 900 GB/s
                    ..Default::default()
                },
            })
            .collect();
        let t = device_time(&spec, &model, &blocks, &occ(&spec));
        assert_eq!(t.bound, Boundedness::Memory);
        assert!((t.memory_ms - 10.0).abs() < 0.1, "memory_ms = {}", t.memory_ms);
        assert!(t.elapsed_ms >= 10.0);
    }

    #[test]
    fn imbalance_degrades_achieved_bandwidth() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let bytes_total = 9_000_000_000u64;
        let balanced: Vec<_> = (0..160)
            .map(|_| BlockCost {
                warp_costs: vec![100.0; 8],
                warp_idle: Vec::new(),
                mem: MemSummary {
                    read_bytes: bytes_total / 160,
                    ..Default::default()
                },
            })
            .collect();
        // Same traffic, but one block does all the compute work → SMs idle.
        let mut skewed = vec![BlockCost {
            warp_costs: vec![1_000_000.0; 8],
            warp_idle: Vec::new(),
            mem: MemSummary {
                read_bytes: bytes_total,
                ..Default::default()
            },
        }];
        skewed.extend((0..159).map(|_| BlockCost {
            warp_costs: vec![0.001; 8],
            warp_idle: Vec::new(),
            mem: MemSummary::default(),
        }));
        let t_bal = device_time(&spec, &model, &balanced, &occ(&spec));
        let t_skew = device_time(&spec, &model, &skewed, &occ(&spec));
        assert!(
            t_skew.memory_ms > 5.0 * t_bal.memory_ms,
            "skewed {} vs balanced {}",
            t_skew.memory_ms,
            t_bal.memory_ms
        );
    }

    #[test]
    fn low_occupancy_degrades_issue_width() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        // One warp per block, block limit 32 → 32 resident warps ≥ 16: full.
        let full = Occupancy::compute(&spec, 32, 0).unwrap();
        // Shared-mem-hungry: 1 block of 1 warp resident → 1 warp < 16.
        let starved = Occupancy {
            blocks_per_sm: 1,
            resident_warps: 1,
            occupancy_frac: 1.0 / 64.0,
            limited_by: crate::occupancy::OccupancyLimit::SharedMem,
        };
        let blocks: Vec<_> = (0..320).map(|_| block_of(&[64.0])).collect();
        let t_full = device_time(&spec, &model, &blocks, &full);
        let t_starved = device_time(&spec, &model, &blocks, &starved);
        assert!(t_starved.compute_ms > t_full.compute_ms * 2.0);
    }

    #[test]
    fn tracing_does_not_perturb_timing_and_blocks_nest_in_compute() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let o = occ(&spec);
        let blocks: Vec<_> = (0..100)
            .map(|i| block_of(&[f64::from(i % 7 + 1) * 50.0; 8]))
            .collect();
        let plain = device_time(&spec, &model, &blocks, &o);
        let rec = trace::Recorder::new();
        let ctx = TraceCtx {
            sink: &rec,
            kernel: KernelId::next(),
            device: 0,
        };
        let (traced, _) =
            device_time_traced(&spec, &model, &blocks, blocks.len() as u32, &o, Some(&ctx));
        assert_eq!(plain, traced);
        let data = rec.snapshot();
        let spans: Vec<_> = data
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Block { .. }))
            .collect();
        assert_eq!(spans.len(), blocks.len());
        for ev in spans {
            if let TraceEvent::Block { start_ms, end_ms, sm, .. } = ev {
                assert!(*start_ms <= *end_ms);
                assert!(*end_ms <= traced.compute_ms + 1e-12);
                assert!((*sm as usize) < spec.num_sms as usize);
            }
        }
    }

    #[test]
    fn scoped_fault_plan_degrades_timing_deterministically() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let o = occ(&spec);
        let blocks: Vec<_> = (0..160).map(|_| block_of(&[100.0; 8])).collect();
        let healthy = device_time(&spec, &model, &blocks, &o);
        let plan = crate::fault::FaultPlan::healthy(5).with_degraded_sms(0.5, 0.25, 0.75);
        let degraded = crate::fault::scoped(plan, || device_time(&spec, &model, &blocks, &o));
        assert!(
            degraded.compute_ms > healthy.compute_ms,
            "degraded {} vs healthy {}",
            degraded.compute_ms,
            healthy.compute_ms
        );
        let again = crate::fault::scoped(plan, || device_time(&spec, &model, &blocks, &o));
        assert_eq!(degraded, again, "same plan, bitwise-identical timing");
        let noop = crate::fault::scoped(crate::fault::FaultPlan::healthy(5), || {
            device_time(&spec, &model, &blocks, &o)
        });
        assert_eq!(noop, healthy, "non-degrading plan is bitwise transparent");
    }

    #[test]
    fn oversubscription_beats_single_block_per_sm_shapes() {
        let spec = GpuSpec::v100();
        let model = CostModel::standard();
        let o = occ(&spec);
        // Same total work: 80 uneven blocks vs 800 smaller even blocks.
        let uneven: Vec<_> = (0..80)
            .map(|i| block_of(&[if i == 0 { 8000.0 } else { 80.0 }; 8]))
            .collect();
        let even: Vec<_> = (0..800).map(|_| block_of(&[17.9; 8])).collect();
        let t_uneven = device_time(&spec, &model, &uneven, &o);
        let t_even = device_time(&spec, &model, &even, &o);
        assert!(t_even.compute_ms < t_uneven.compute_ms);
    }
}
