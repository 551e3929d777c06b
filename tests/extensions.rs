//! Integration tests for the beyond-the-paper extensions: the dynamic
//! work-queue schedule, the ELL pre-balanced format, PageRank, and
//! multi-GPU partitioned SpMV — all against CPU references.

use bench::node_spmv;
use kernels::Graph;
use loops::schedule::ScheduleKind;
use simt::{GpuSpec, MultiGpuSpec};
use sparse::ShardStrategy;

#[test]
fn work_queue_spmv_matches_reference_across_chunks() {
    let spec = GpuSpec::v100();
    let a = sparse::gen::powerlaw(4_000, 4_000, 60_000, 1.8, 101);
    let x = sparse::dense::test_vector(a.cols());
    let want = a.spmv_ref(&x);
    for chunk in [1u32, 2, 7, 32, 1024] {
        let run = kernels::spmv(&spec, &a, &x, ScheduleKind::WorkQueue(chunk)).unwrap();
        let err = kernels::spmv::max_rel_error(&run.y, &want);
        assert!(err < 2e-3, "chunk {chunk}: err {err}");
        // Persistent shape: grid independent of problem size.
        assert_eq!(run.report.grid_dim, spec.num_sms * 8);
    }
}

#[test]
fn ell_pipeline_csr_to_ell_to_spmv() {
    let spec = GpuSpec::v100();
    let a = sparse::gen::stencil9(60, 60, 102);
    let op = kernels::PreparedOperand::prepare(&a, sparse::FormatKind::Ell).unwrap();
    let x = sparse::dense::test_vector(a.cols());
    let run = kernels::formats::spmv_format(
        &spec,
        &simt::CostModel::standard(),
        &a,
        &op,
        &x,
        ScheduleKind::ThreadMapped,
        kernels::spmv::DEFAULT_BLOCK,
    )
    .unwrap();
    let err = kernels::spmv::max_rel_error(&run.y, &a.spmv_ref(&x));
    assert!(err < 2e-3);
    // Round-trip sanity.
    assert_eq!(sparse::Ell::from_csr(&a, 3.0).unwrap().to_csr(), a);
}

#[test]
fn pagerank_agrees_across_schedules() {
    let spec = GpuSpec::v100();
    let g = Graph::from_generator(sparse::gen::rmat(8, 8, (0.57, 0.19, 0.19), 103));
    let a = kernels::pagerank::pagerank(&spec, &g, ScheduleKind::MergePath, 1e-7, 150).unwrap();
    let b = kernels::pagerank::pagerank(&spec, &g, ScheduleKind::WorkQueue(8), 1e-7, 150).unwrap();
    for (x, y) in a.rank.iter().zip(&b.rank) {
        assert!((x - y).abs() < 1e-4);
    }
    let want = kernels::pagerank::pagerank_ref(&g, 1e-9, 300);
    for (x, w) in a.rank.iter().zip(&want) {
        assert!((x - w).abs() < 1e-4);
    }
}

#[test]
fn multi_gpu_matches_single_gpu_numerically() {
    let a = sparse::gen::uniform(5_000, 5_000, 80_000, 104);
    let x = sparse::dense::test_vector(a.cols());
    let single = kernels::spmv(&GpuSpec::v100(), &a, &x, ScheduleKind::MergePath).unwrap();
    for d in [2u32, 4, 8] {
        let multi = node_spmv(
            &MultiGpuSpec::dgx_v100(d),
            &a,
            &x,
            ScheduleKind::MergePath,
            ShardStrategy::Nnz1D,
        )
        .unwrap();
        let err = kernels::spmv::max_rel_error(&multi.y, &single.y);
        assert!(err < 1e-4, "d={d}: err {err}");
        assert_eq!(*multi.plan.boundaries.last().unwrap(), a.rows());
    }
}

#[test]
fn multi_gpu_comm_cost_appears_only_beyond_one_device() {
    let a = sparse::gen::uniform(10_000, 10_000, 200_000, 105);
    let x = sparse::dense::test_vector(a.cols());
    let one = node_spmv(
        &MultiGpuSpec::dgx_v100(1),
        &a,
        &x,
        ScheduleKind::MergePath,
        ShardStrategy::Rows1D,
    )
    .unwrap();
    assert_eq!(one.comm_ms, 0.0);
    let four = node_spmv(
        &MultiGpuSpec::dgx_v100(4),
        &a,
        &x,
        ScheduleKind::MergePath,
        ShardStrategy::Rows1D,
    )
    .unwrap();
    assert!(four.comm_ms > 0.0);
    assert_eq!(four.device_ms.len(), 4);
    assert_eq!(four.elapsed_ms, four.critical_ms() + four.comm_ms);
}

#[test]
fn custom_tile_sets_compose_with_every_schedule() {
    // The ELL adapter through the generic schedule machinery: run the
    // group-mapped schedule over an EllTiles set directly.
    use loops::adapters::EllTiles;
    use loops::schedule::GroupMappedSchedule;
    use loops::work::TileSet;
    let a = sparse::gen::banded(512, 2, 106);
    let e = sparse::Ell::from_csr(&a, 2.0).unwrap();
    let tiles = EllTiles::new(&e);
    let sched = GroupMappedSchedule::new(&tiles, 16);
    let spec = GpuSpec::test_tiny();
    let mut hits = vec![0u32; tiles.num_atoms()];
    {
        let g = simt::GlobalMem::new(&mut hits);
        let cfg = sched.launch_config(64, 64);
        simt::launch_groups(&spec, cfg, 16, |grp| {
            sched.process(grp, |_, tile, atom| {
                assert!(tiles.tile_atoms(tile).contains(&atom));
                g.fetch_add(atom, 1);
            });
        })
        .unwrap();
    }
    assert!(hits.iter().all(|&h| h == 1));
}
