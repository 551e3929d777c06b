//! Property-based invariants across the workspace: schedule partitions
//! are exact for *arbitrary* tile sets, format conversions round-trip,
//! and every SpMV agrees with the reference on random matrices.
//!
//! The proptest crate is unavailable offline, so these properties are
//! exercised the same way with a seeded in-repo generator
//! ([`sparse::Prng`]): each property runs over dozens of randomly drawn
//! cases and every failure message carries the case's inputs, so a
//! reproduction is one seed away.

use loops::schedule::{GroupMappedSchedule, MergePathSchedule, ScheduleKind};
use loops::work::{CountedTiles, TileSet};
use simt::{GpuSpec, LaunchConfig};
use sparse::Prng;

const CASES: usize = 48;

/// Random tile-length vector: up to `max_tiles` tiles of up to `max_len`.
fn random_counts(rng: &mut Prng, max_tiles: usize, max_len: usize) -> Vec<usize> {
    let n = rng.index(0, max_tiles + 1);
    (0..n).map(|_| rng.index(0, max_len)).collect()
}

/// Collect the atoms each merge-path thread claims and check the exact
/// partition property.
fn merge_path_partitions_exactly(counts: Vec<usize>, ipt: usize) {
    let w = CountedTiles::from_counts(counts.clone());
    let sched = MergePathSchedule::new(&w, ipt);
    let spec = GpuSpec::test_tiny();
    let cfg = sched.launch_config(8);
    let mut seen = vec![0u32; w.num_atoms().max(1)];
    {
        let gs = simt::GlobalMem::new(&mut seen);
        simt::launch_threads(&spec, cfg, |t| {
            for span in sched.spans(t) {
                let tile_range = w.tile_atoms(span.tile);
                assert!(span.atoms.start >= tile_range.start);
                assert!(span.atoms.end <= tile_range.end);
                if span.complete {
                    assert_eq!(span.atoms, tile_range);
                }
                for a in span.atoms.clone() {
                    gs.fetch_add(a, 1);
                }
            }
        })
        .unwrap();
    }
    if w.num_atoms() > 0 {
        assert!(
            seen.iter().all(|&c| c == 1),
            "every atom exactly once: ipt={ipt} counts={counts:?}"
        );
    }
}

/// Group-mapped coverage with correct tile attribution.
fn group_mapped_covers_exactly(counts: Vec<usize>, group_size: u32) {
    let w = CountedTiles::from_counts(counts.clone());
    let sched = GroupMappedSchedule::new(&w, group_size);
    let spec = GpuSpec::test_tiny();
    let block = 16u32;
    let cfg = LaunchConfig::new(2, block).with_shared(sched.shared_bytes(block));
    let mut seen = vec![0u32; w.num_atoms().max(1)];
    {
        let gs = simt::GlobalMem::new(&mut seen);
        simt::launch_groups(&spec, cfg, group_size, |g| {
            sched.process(g, |_, tile, atom| {
                assert!(w.tile_atoms(tile).contains(&atom), "atom in claimed tile");
                gs.fetch_add(atom, 1);
            });
        })
        .unwrap();
    }
    if w.num_atoms() > 0 {
        assert!(
            seen.iter().all(|&c| c == 1),
            "group_size={group_size} counts={counts:?}"
        );
    }
}

#[test]
fn merge_path_partition_property() {
    let mut rng = Prng::seed_from_u64(0x6d65_7267);
    for _ in 0..CASES {
        let counts = random_counts(&mut rng, 80, 60);
        let ipt = rng.index(1, 20);
        merge_path_partitions_exactly(counts, ipt);
    }
}

#[test]
fn group_mapped_partition_property() {
    let mut rng = Prng::seed_from_u64(0x6772_6f75);
    for _ in 0..CASES {
        let counts = random_counts(&mut rng, 80, 60);
        // Group sizes 1, 2, 4, 8, 16 — all divide block 16.
        let gs_pow = rng.index(0, 5) as u32;
        group_mapped_covers_exactly(counts, 1 << gs_pow);
    }
}

#[test]
fn csr_coo_csc_roundtrips() {
    let mut rng = Prng::seed_from_u64(0x726f_756e);
    for case in 0..CASES {
        let n = rng.index(0, 200);
        let entries: Vec<(u32, u32, f32)> = (0..n)
            .map(|_| {
                (
                    rng.index(0, 40) as u32,
                    rng.index(0, 30) as u32,
                    rng.f32_range(-10.0, 10.0),
                )
            })
            .collect();
        let mut coo = sparse::Coo::empty(40, 30);
        for &(r, c, v) in &entries {
            coo.push(r, c, v).unwrap();
        }
        let raw = sparse::convert::coo_to_csr(&coo);
        coo.canonicalize();
        let csr = sparse::convert::coo_to_csr(&coo);
        // Assembly sums duplicates in input order, as canonicalize does.
        let bits = |m: &sparse::Csr<f32>| -> Vec<u32> {
            m.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(raw, csr, "case {case}");
        assert_eq!(bits(&raw), bits(&csr), "case {case}");
        // CSR ↔ COO
        let back = sparse::convert::coo_to_csr(&sparse::convert::csr_to_coo(&csr));
        assert_eq!(csr, back, "case {case}");
        // transpose(transpose) = id
        let tt = sparse::convert::transpose(&sparse::convert::transpose(&csr));
        assert_eq!(csr, tt, "case {case}");
        // CSC SpMV equivalence
        let x = sparse::dense::test_vector(30);
        let csc = sparse::convert::csr_to_csc(&csr);
        let (y1, y2) = (csr.spmv_ref(&x), csc.spmv_ref(&x));
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-3 * a.abs().max(1.0), "case {case}");
        }
    }
}

#[test]
fn spmv_schedules_agree_on_random_matrices() {
    let mut rng = Prng::seed_from_u64(0x7370_6d76);
    for _ in 0..CASES {
        let rows = rng.index(1, 120);
        let cols = rng.index(1, 120);
        let density_pct = rng.index(0, 40);
        let seed = rng.index(0, 1000) as u64;
        let nnz = rows * cols * density_pct / 100;
        let a = sparse::gen::uniform(rows, cols, nnz, seed);
        let x = sparse::dense::test_vector(cols);
        let want = a.spmv_ref(&x);
        let spec = GpuSpec::test_tiny();
        for kind in [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
        ] {
            let run = kernels::spmv(&spec, &a, &x, kind).unwrap();
            let err = kernels::spmv::max_rel_error(&run.y, &want);
            assert!(err < 2e-3, "{kind} err {err} on {rows}x{cols} seed {seed}");
        }
    }
}

/// The ordered-map model of [`sparse::delta::apply_in_place`]: the path
/// rule, the charge, and the post-batch matrix rebuilt through a
/// `BTreeMap` of every entry (the applier's rebuild before it became a
/// row-range copy and per-row merge).
fn apply_model(
    a: &sparse::Csr<f32>,
    batch: &sparse::DeltaBatch,
) -> (sparse::Csr<f32>, sparse::DeltaApply) {
    use sparse::delta::APPLY_MS_PER_ELEMENT;
    let mut entries: std::collections::BTreeMap<(u32, u32), f32> =
        a.iter().map(|(r, c, v)| ((r, c), v)).collect();
    let patch = batch.deletes.is_empty()
        && batch
            .inserts
            .iter()
            .all(|&(r, c, _)| entries.contains_key(&(r, c)));
    let touched = if patch {
        batch.inserts.len()
    } else {
        a.nnz() + batch.len()
    };
    for &(r, c) in &batch.deletes {
        entries.remove(&(r, c));
    }
    for &(r, c, v) in &batch.inserts {
        entries.insert((r, c), v);
    }
    let triplets = entries.into_iter().map(|((r, c), v)| (r, c, v)).collect();
    let model = sparse::Csr::from_triplets(a.rows(), a.cols(), triplets).expect("model");
    let path = if patch {
        sparse::ApplyPath::Patched
    } else {
        sparse::ApplyPath::Rebuilt
    };
    let apply_ms = touched as f64 * APPLY_MS_PER_ELEMENT;
    (
        model,
        sparse::DeltaApply {
            path,
            touched,
            apply_ms,
        },
    )
}

#[test]
fn apply_in_place_matches_the_ordered_map_model() {
    // Property: for ANY matrix and batch sequence, the linear-time
    // applier takes the model's path, charges the model's `touched` and
    // `apply_ms`, and leaves the model's offsets, columns and value bits.
    // Matrices mix empty rows with one hub row, and shapes include 1×n
    // and n×1; batches name the first and last rows, insert one
    // coordinate twice, delete and re-insert another, delete absent
    // coordinates, and each case's fourth batch only overwrites stored
    // coordinates (the patch path).
    use sparse::{ApplyPath, DeltaBatch};
    let mut rng = Prng::seed_from_u64(0x6465_6c74);
    let (mut patched, mut rebuilt, mut absent_deletes) = (0, 0, 0);
    for case in 0..CASES {
        let (rows, cols) = match case % 4 {
            0 => (1, rng.index(1, 40)),
            1 => (rng.index(1, 40), 1),
            _ => (rng.index(2, 40), rng.index(2, 40)),
        };
        let hub = rng.index(0, rows);
        let mut triplets = Vec::new();
        for r in 0..rows {
            let len = if r == hub {
                rng.index(cols / 2, cols + 1)
            } else if rng.chance(0.3) {
                0
            } else {
                rng.index(0, cols.min(4) + 1)
            };
            for _ in 0..len {
                let v = rng.index(1, 64) as f32 / 8.0;
                triplets.push((r as u32, rng.index(0, cols) as u32, v));
            }
        }
        let mut a = sparse::Csr::from_triplets(rows, cols, triplets).unwrap();
        for step in 0..6 {
            let ctx = format!("case {case} step {step}: {rows}x{cols} nnz={}", a.nnz());
            let stored: Vec<(u32, u32)> = a.iter().map(|(r, c, _)| (r, c)).collect();
            // By `k % 4`: a stored coordinate, one in the first row, one
            // in the last row, or any.
            let pick = |rng: &mut Prng, k: usize| match k % 4 {
                0 if !stored.is_empty() => stored[rng.index(0, stored.len())],
                1 => (0, rng.index(0, cols) as u32),
                2 => ((rows - 1) as u32, rng.index(0, cols) as u32),
                _ => (rng.index(0, rows) as u32, rng.index(0, cols) as u32),
            };
            let value = |rng: &mut Prng| rng.index(1, 1000) as f32 / 16.0;
            let mut batch = DeltaBatch::default();
            if step == 3 && !stored.is_empty() {
                for _ in 0..4 {
                    let (r, c) = stored[rng.index(0, stored.len())];
                    batch.inserts.push((r, c, value(&mut rng)));
                }
            } else {
                for k in 0..rng.index(0, 8) {
                    let (r, c) = pick(&mut rng, k);
                    batch.inserts.push((r, c, value(&mut rng)));
                }
                for k in 0..rng.index(0, 6) {
                    batch.deletes.push(pick(&mut rng, k));
                }
                let (k1, k2) = (rng.index(0, 4), rng.index(0, 4));
                let twice = pick(&mut rng, k1);
                let deleted_then_inserted = pick(&mut rng, k2);
                batch.deletes.push(deleted_then_inserted);
                for (r, c) in [twice, deleted_then_inserted, twice] {
                    batch.inserts.push((r, c, value(&mut rng)));
                }
            }
            absent_deletes += batch.deletes.iter().filter(|d| !stored.contains(d)).count();
            let (model, want) = apply_model(&a, &batch);
            let id_before = a.structure_id();
            let got = sparse::delta::apply_in_place(&mut a, &batch).expect("in-bounds batch");
            assert_eq!(got.path, want.path, "{ctx}: path");
            assert_eq!(got.touched, want.touched, "{ctx}: touched");
            assert_eq!(
                got.apply_ms.to_bits(),
                want.apply_ms.to_bits(),
                "{ctx}: apply_ms"
            );
            assert_eq!(a.row_offsets(), model.row_offsets(), "{ctx}: offsets");
            assert_eq!(a.col_indices(), model.col_indices(), "{ctx}: columns");
            let bits = |m: &sparse::Csr<f32>| -> Vec<u32> {
                m.values().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&model), "{ctx}: value bits");
            match got.path {
                ApplyPath::Patched => {
                    patched += 1;
                    assert_eq!(a.structure_id(), id_before, "{ctx}: a patch keeps the id");
                }
                ApplyPath::Rebuilt => {
                    rebuilt += 1;
                    assert_ne!(a.structure_id(), id_before, "{ctx}: a rebuild mints an id");
                }
            }
        }
    }
    assert!(patched > 0 && rebuilt > 0 && absent_deletes > 0, "coverage");
}

#[test]
fn mutated_then_served_equals_fresh_runtime_on_post_mutation_matrix() {
    // Property: for ANY random insert/delete batch, a runtime that
    // watched the matrix mutate mid-stream (warm plan cache, prepared
    // operands, tuner sweep state — all carried over and selectively
    // retired by `runtime::mutate`) serves the post-mutation matrix
    // bitwise identically to a *fresh* runtime built from an
    // independently reconstructed copy of it — for SpMV through
    // `Runtime::serve` and for PageRank over the mutated adjacency —
    // at 1 and 4 host threads. This is the end-to-end statement that
    // no cache tier leaks pre-mutation state into a serve. (Tuning is
    // off here: exploration order depends on serve history, and
    // different candidates differ in summation order, so bitwise
    // equality across the two arms requires both to make the same
    // schedule choices. Mutation safety of the *tuned* non-CSR paths
    // is pinned in tests/streaming.rs with a reference oracle.)
    use std::sync::Arc;
    use runtime::{Runtime, RuntimeConfig};
    use simt::HostBackend;

    let mut rng = Prng::seed_from_u64(0x6d75_7461);
    for case in 0..10 {
        let rows = rng.index(24, 96);
        let cols = rows;
        let nnz = rng.index(rows, 6 * rows);
        let seed = rng.index(0, 1000) as u64;
        let a = Arc::new(sparse::gen::powerlaw(rows, cols, nnz, 1.8, seed));

        // Random batch: inserts anywhere (some will collide with stored
        // coordinates), deletes split between stored atoms and misses.
        let n_ins = rng.index(0, 40);
        let n_del = rng.index(0, 20);
        let inserts: Vec<(u32, u32, f32)> = (0..n_ins)
            .map(|_| {
                (
                    rng.index(0, rows) as u32,
                    rng.index(0, cols) as u32,
                    rng.index(1, 100) as f32 / 10.0,
                )
            })
            .collect();
        let deletes: Vec<(u32, u32)> = (0..n_del)
            .map(|_| {
                if a.nnz() > 0 && rng.f64() < 0.5 {
                    // A stored coordinate: find the atom's row by offset.
                    let atom = rng.index(0, a.nnz());
                    let r = a
                        .row_offsets()
                        .partition_point(|&o| o <= atom)
                        .saturating_sub(1);
                    (r as u32, a.col_indices()[atom])
                } else {
                    (rng.index(0, rows) as u32, rng.index(0, cols) as u32)
                }
            })
            .collect();
        let batch = sparse::DeltaBatch { inserts, deletes };

        let cfg = RuntimeConfig {
            keep_results: true,
            batch_max: 1,
            ..RuntimeConfig::default()
        };
        let x: Arc<[f32]> = sparse::dense::test_vector(cols).into();
        let reqs = |m: &Arc<sparse::Csr<f32>>, base: u64| -> Vec<runtime::Request> {
            (0..6)
                .map(|i| runtime::Request {
                    id: base + i,
                    tenant: 0,
                    matrix: Arc::clone(m),
                    x: Arc::clone(&x),
                    arrival_ms: i as f64 * 0.05,
                })
                .collect()
        };

        let mut legs: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 4] {
            let backend = if threads == 1 {
                HostBackend::Sequential
            } else {
                HostBackend::Parallel { threads }
            };
            let (y_mutated, y_fresh, pr_mutated, pr_fresh) = simt::host::scoped(backend, || {
                // Arm 1: warm a runtime on the pre-mutation matrix,
                // mutate mid-stream, serve again.
                let mut warm = Runtime::new(GpuSpec::test_tiny(), cfg);
                let mut m = Arc::clone(&a);
                warm.serve(&reqs(&m, 0)).expect("pre-mutation serve");
                runtime::mutate(&mut warm, &mut m, &batch).expect("in-bounds batch");
                let served = warm.serve(&reqs(&m, 100)).expect("post-mutation serve");

                // Arm 2: a fresh runtime over an independently
                // reconstructed post-mutation matrix (new allocation,
                // new value epoch — nothing shared with arm 1).
                let rebuilt = Arc::new(sparse::Csr::from_triplets(
                    m.rows(),
                    m.cols(),
                    (0..m.rows())
                        .flat_map(|r| {
                            let (cs, vs) = m.row(r);
                            cs.iter()
                                .zip(vs)
                                .map(move |(&c, &v)| (r as u32, c, v))
                                .collect::<Vec<_>>()
                        })
                        .collect(),
                )
                .expect("rebuild"));
                let mut fresh = Runtime::new(GpuSpec::test_tiny(), cfg);
                let fresh_served = fresh.serve(&reqs(&rebuilt, 100)).expect("fresh serve");

                let pr = |mat: &Arc<sparse::Csr<f32>>| {
                    kernels::pagerank::pagerank(
                        &GpuSpec::test_tiny(),
                        &kernels::graph::Graph::new((**mat).clone()),
                        ScheduleKind::MergePath,
                        1e-6,
                        60,
                    )
                    .expect("pagerank")
                    .rank
                };
                (
                    served
                        .completions
                        .iter()
                        .map(|c| c.y.clone().expect("keep_results"))
                        .collect::<Vec<_>>(),
                    fresh_served
                        .completions
                        .iter()
                        .map(|c| c.y.clone().expect("keep_results"))
                        .collect::<Vec<_>>(),
                    pr(&m),
                    pr(&rebuilt),
                )
            });
            let bits = |ys: &[Vec<f32>]| -> Vec<Vec<u32>> {
                ys.iter()
                    .map(|y| y.iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(
                bits(&y_mutated),
                bits(&y_fresh),
                "case {case} threads {threads}: mutated-then-served SpMV \
                 must be bitwise equal to a fresh runtime"
            );
            assert_eq!(
                pr_mutated.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                pr_fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "case {case} threads {threads}: PageRank over the mutated \
                 matrix must be bitwise equal to the reconstruction"
            );
            legs.push(bits(&y_mutated));
        }
        assert_eq!(
            legs[0], legs[1],
            "case {case}: 1-thread and 4-thread legs must agree bitwise"
        );
    }
}

#[test]
fn random_fault_plans_never_perturb_spmv_results() {
    // Property: for ANY non-fatal fault plan — random seed, degrade
    // probability/range, launch-failure rate, stall window — and any
    // schedule, SpMV under `fault::scoped` is bitwise identical to the
    // fault-free run. Faults may stretch simulated time; results are
    // computed functionally and must not move.
    let mut rng = Prng::seed_from_u64(0x6661_756c);
    let schedules = [
        ScheduleKind::ThreadMapped,
        ScheduleKind::WarpMapped,
        ScheduleKind::BlockMapped,
        ScheduleKind::MergePath,
        ScheduleKind::WorkQueue(256),
        ScheduleKind::Lrb,
    ];
    for case in 0..CASES {
        let rows = rng.index(1, 150);
        let cols = rng.index(1, 150);
        let nnz = rows * cols * rng.index(0, 30) / 100;
        let mseed = rng.index(0, 1000) as u64;
        let a = sparse::gen::uniform(rows, cols, nnz, mseed);
        let x = sparse::dense::test_vector(cols);
        let kind = schedules[rng.index(0, schedules.len())];

        let mut plan = simt::FaultPlan::healthy(rng.index(0, 1 << 30) as u64);
        if rng.chance(0.7) {
            let lo = rng.f64_range(0.05, 0.6);
            let hi = rng.f64_range(lo, 1.0);
            plan = plan.with_degraded_sms(rng.f64(), lo, hi);
        }
        if rng.chance(0.5) {
            plan = plan.with_flaky_launches(rng.f64_range(0.0, 0.8));
        }
        if rng.chance(0.5) {
            plan = plan.with_stall(rng.f64_range(0.0, 1.0), rng.f64_range(0.0, 5.0));
        }
        assert!(!plan.is_fatal());

        let spec = GpuSpec::test_tiny();
        let clean = kernels::spmv(&spec, &a, &x, kind).unwrap();
        let faulted = simt::fault::scoped(plan, || kernels::spmv(&spec, &a, &x, kind)).unwrap();
        let (cb, fb): (Vec<u32>, Vec<u32>) = (
            clean.y.iter().map(|v| v.to_bits()).collect(),
            faulted.y.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(
            cb, fb,
            "case {case}: {kind} {rows}x{cols} nnz={nnz} mseed={mseed} plan={plan:?}"
        );
    }
}

#[test]
fn parallel_host_backend_matches_sequential_on_random_cases() {
    // Property: for ANY random matrix, schedule, and worker-thread
    // count, the parallel host backend's results and launch report
    // (minus the host wall-clock diagnostic) are bitwise identical to
    // the sequential backend's. This is the randomized counterpart of
    // the fixed matrix in `tests/host_parallel.rs`.
    let mut rng = Prng::seed_from_u64(0x686f_7374);
    let schedules = [
        ScheduleKind::ThreadMapped,
        ScheduleKind::WarpMapped,
        ScheduleKind::BlockMapped,
        ScheduleKind::GroupMapped(16),
        ScheduleKind::MergePath,
        ScheduleKind::WorkQueue(8),
        ScheduleKind::Lrb,
    ];
    for case in 0..CASES {
        let rows = rng.index(1, 250);
        let cols = rng.index(1, 250);
        let nnz = rows * cols * rng.index(0, 30) / 100;
        let mseed = rng.index(0, 1000) as u64;
        let a = sparse::gen::powerlaw(rows, cols, nnz, 1.4 + 0.1 * (case % 8) as f64, mseed);
        let x = sparse::dense::test_vector(cols);
        let kind = schedules[rng.index(0, schedules.len())];
        let threads = [2usize, 3, 4, 8][rng.index(0, 4)];
        let spec = GpuSpec::test_tiny();

        let strip = |mut r: simt::LaunchReport| {
            r.host_wall_ms = 0.0;
            r
        };
        let seq = kernels::spmv(&spec, &a, &x, kind).unwrap();
        let par = simt::host::scoped(simt::HostBackend::Parallel { threads }, || {
            kernels::spmv(&spec, &a, &x, kind)
        })
        .unwrap();
        let (sb, pb): (Vec<u32>, Vec<u32>) = (
            seq.y.iter().map(|v| v.to_bits()).collect(),
            par.y.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(
            sb, pb,
            "case {case}: {kind} {rows}x{cols} nnz={nnz} mseed={mseed} threads={threads}"
        );
        assert_eq!(seq.schedule, par.schedule, "case {case}: resolved schedule moved");
        assert_eq!(
            strip(seq.report),
            strip(par.report),
            "case {case}: {kind} threads={threads} launch report diverged"
        );
    }
}

#[test]
fn fault_plans_inject_identically_under_the_parallel_backend() {
    // Property: a thread-scoped `FaultPlan` must produce the *same*
    // injected failures, degraded timing, and results whether blocks
    // execute sequentially or on worker threads — the worker threads
    // re-install the caller's fault scope, so fault streams stay keyed
    // to the launch, never to the executing thread.
    let mut rng = Prng::seed_from_u64(0x6661_7568);
    for case in 0..24 {
        let rows = rng.index(1, 150);
        let cols = rng.index(1, 150);
        let nnz = rows * cols * rng.index(0, 30) / 100;
        let mseed = rng.index(0, 1000) as u64;
        let a = sparse::gen::uniform(rows, cols, nnz, mseed);
        let x = sparse::dense::test_vector(cols);
        let kind = [
            ScheduleKind::ThreadMapped,
            ScheduleKind::MergePath,
            ScheduleKind::WarpMapped,
            ScheduleKind::Lrb,
        ][rng.index(0, 4)];
        let threads = [2usize, 4, 8][rng.index(0, 3)];

        let mut plan = simt::FaultPlan::healthy(rng.index(0, 1 << 30) as u64);
        let lo = rng.f64_range(0.05, 0.6);
        let hi = rng.f64_range(lo, 1.0);
        plan = plan.with_degraded_sms(rng.f64_range(0.2, 1.0), lo, hi);
        if rng.chance(0.5) {
            plan = plan.with_stall(rng.f64_range(0.0, 1.0), rng.f64_range(0.0, 5.0));
        }

        let spec = GpuSpec::test_tiny();
        let strip = |mut r: simt::LaunchReport| {
            r.host_wall_ms = 0.0;
            r
        };
        let seq = simt::fault::scoped(plan, || kernels::spmv(&spec, &a, &x, kind)).unwrap();
        let par = simt::host::scoped(simt::HostBackend::Parallel { threads }, || {
            simt::fault::scoped(plan, || kernels::spmv(&spec, &a, &x, kind))
        })
        .unwrap();
        let (sb, pb): (Vec<u32>, Vec<u32>) = (
            seq.y.iter().map(|v| v.to_bits()).collect(),
            par.y.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(sb, pb, "case {case}: results moved under faults, plan={plan:?}");
        assert_eq!(
            strip(seq.report),
            strip(par.report),
            "case {case}: {kind} threads={threads} degraded timing diverged, plan={plan:?}"
        );
    }
}

#[test]
fn format_roundtrips_preserve_triplets_on_random_matrices() {
    // Property: for ANY random matrix, every storage format preserves
    // the exact triplet set — conversion is lossless in structure and
    // in value bits. CSR is the canonical pivot: each format converts
    // out and back and must reproduce the original CSR exactly, and a
    // chained tour through every format lands back on it too.
    let mut rng = Prng::seed_from_u64(0x666d_7274);
    for case in 0..CASES {
        let rows = rng.index(1, 200);
        let cols = rng.index(1, 200);
        let nnz = rows * cols * rng.index(0, 30) / 100;
        let mseed = rng.index(0, 1000) as u64;
        let a = if rng.chance(0.5) {
            sparse::gen::powerlaw(rows, cols, nnz, 1.4 + 0.1 * (case % 8) as f64, mseed)
        } else {
            sparse::gen::uniform(rows, cols, nnz, mseed)
        };
        let ctx = format!("case {case}: {rows}x{cols} nnz={} mseed={mseed}", a.nnz());

        // CSR ↔ COO
        let coo = sparse::convert::csr_to_coo(&a);
        assert_eq!(sparse::convert::coo_to_csr(&coo), a, "{ctx}: COO");

        // CSR ↔ ELL (unbounded fill so no matrix is refused here)
        let ell = sparse::Ell::from_csr(&a, f64::INFINITY).unwrap();
        assert_eq!(ell.to_csr(), a, "{ctx}: ELL");

        // CSR ↔ hybrid, at the stats-driven split and at a random one
        let hybrid = sparse::Hybrid::from_csr_auto(&a);
        assert_eq!(hybrid.to_csr(), a, "{ctx}: hybrid(auto)");
        let max_row = a.row_lengths().into_iter().max().unwrap_or(0);
        let width = rng.index(0, max_row + 2);
        let forced = sparse::Hybrid::from_csr(&a, width);
        assert_eq!(forced.to_csr(), a, "{ctx}: hybrid(width={width})");

        // CSR ↔ CSC: same triplets, column-major order
        let csc = sparse::convert::csr_to_csc(&a);
        let mut csc_triplets: Vec<(u32, u32, u32)> = Vec::with_capacity(csc.nnz());
        for c in 0..csc.cols() {
            let (rows_in_col, vals) = csc.col(c);
            for (&r, &v) in rows_in_col.iter().zip(vals) {
                csc_triplets.push((r, c as u32, v.to_bits()));
            }
        }
        csc_triplets.sort_unstable();
        let mut csr_triplets: Vec<(u32, u32, u32)> = Vec::with_capacity(a.nnz());
        for r in 0..a.rows() {
            let (cols_in_row, vals) = a.row(r);
            for (&c, &v) in cols_in_row.iter().zip(vals) {
                csr_triplets.push((r as u32, c, v.to_bits()));
            }
        }
        csr_triplets.sort_unstable();
        assert_eq!(csc_triplets, csr_triplets, "{ctx}: CSC triplets");

        // The grand tour: CSR → ELL → CSR → COO → CSR → hybrid → CSR
        let toured = sparse::Hybrid::from_csr_auto(&sparse::convert::coo_to_csr(
            &sparse::convert::csr_to_coo(&ell.to_csr()),
        ))
        .to_csr();
        assert_eq!(toured, a, "{ctx}: chained tour");
    }
}

#[test]
fn format_generic_spmv_matches_csr_at_one_and_four_host_threads() {
    // Property: for ANY random matrix, serving format, and schedule,
    // the format-generic SpMV is bitwise identical to the CSR kernel
    // under the schedule the cell coerces to — on the sequential host
    // backend (the `LOOPS_HOST_THREADS=1` resolution) and on four
    // worker threads, with identical stripped launch reports across
    // backends.
    use kernels::formats::{coerce_for_format, spmv_format};
    use sparse::FormatKind;

    let mut rng = Prng::seed_from_u64(0x666d_7370);
    let formats = [
        FormatKind::Csr,
        FormatKind::Coo,
        FormatKind::Ell,
        FormatKind::Hybrid,
    ];
    let schedules = [
        ScheduleKind::ThreadMapped,
        ScheduleKind::WarpMapped,
        ScheduleKind::GroupMapped(16),
        ScheduleKind::MergePath,
        ScheduleKind::WorkQueue(8),
        ScheduleKind::Lrb,
    ];
    let spec = GpuSpec::test_tiny();
    let model = simt::CostModel::standard();
    let strip = |mut r: simt::LaunchReport| {
        r.host_wall_ms = 0.0;
        r
    };
    for case in 0..CASES {
        let rows = rng.index(1, 200);
        let cols = rng.index(1, 200);
        let nnz = rows * cols * rng.index(0, 25) / 100;
        let mseed = rng.index(0, 1000) as u64;
        let a = sparse::gen::powerlaw(rows, cols, nnz, 1.5 + 0.1 * (case % 6) as f64, mseed);
        let x = sparse::dense::test_vector(cols);
        let format = formats[rng.index(0, formats.len())];
        let kind = schedules[rng.index(0, schedules.len())];
        let ctx = format!("case {case}: {kind}@{format} {rows}x{cols} nnz={} mseed={mseed}", a.nnz());

        let op = kernels::PreparedOperand::prepare(&a, format).unwrap();
        let eff = coerce_for_format(format, kind);
        let want = kernels::spmv::spmv_with_model(&spec, &model, &a, &x, eff, 256).unwrap();

        let seq = spmv_format(&spec, &model, &a, &op, &x, kind, 256).unwrap();
        let par = simt::host::scoped(simt::HostBackend::Parallel { threads: 4 }, || {
            spmv_format(&spec, &model, &a, &op, &x, kind, 256)
        })
        .unwrap();

        let bits = |y: &[f32]| -> Vec<u32> { y.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&seq.y), bits(&want.y), "{ctx}: sequential vs CSR");
        assert_eq!(bits(&par.y), bits(&want.y), "{ctx}: 4 threads vs CSR");
        assert_eq!(
            strip(seq.report),
            strip(par.report),
            "{ctx}: launch report diverged across backends"
        );
    }
}

#[test]
fn row_stats_invariants() {
    let mut rng = Prng::seed_from_u64(0x7374_6174);
    for _ in 0..CASES {
        let n = rng.index(1, 200);
        let lengths: Vec<usize> = (0..n).map(|_| rng.index(0, 500)).collect();
        let s = sparse::RowStats::from_lengths(&lengths);
        assert!(s.min <= s.max);
        assert!((0.0..=1.0).contains(&s.gini), "lengths={lengths:?}");
        assert!((0.0..=1.0).contains(&s.empty_frac));
        assert!(s.mean >= 0.0);
        if s.nnz > 0 {
            assert!(s.max_over_mean >= 1.0 - 1e-9);
        }
    }
}

#[test]
fn counted_tiles_total_matches_sum() {
    let mut rng = Prng::seed_from_u64(0x7469_6c65);
    for _ in 0..CASES {
        let counts = random_counts(&mut rng, 100, 1000);
        let total: usize = counts.iter().sum();
        let w = CountedTiles::from_counts(counts.clone());
        assert_eq!(w.num_atoms(), total);
        assert_eq!(w.num_tiles(), counts.len());
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(w.atoms_in_tile(t), c);
        }
        assert!(w.validate());
    }
}
