//! Cross-crate consistency: the analytic design-space model, the DPU
//! simulator, and the allocator library must tell one coherent story —
//! and every parallel multi-DPU engine must reproduce its serial
//! reference exactly at paper scale (512 DPUs).

use pim_dse::{run_strategy, DseConfig, Strategy};
use pim_malloc::{PimAllocator, StrawManAllocator, StrawManConfig};
use pim_sim::{DpuConfig, DpuSim};

#[test]
fn dse_pim_local_time_matches_a_real_dpu_run() {
    // PIM-Metadata/PIM-Executed = launch overhead + the straw-man
    // batch measured on an actual DpuSim. Re-derive it independently.
    let cfg = DseConfig::default();
    let r = run_strategy(Strategy::PimMetaPimExec, &cfg);

    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let mut alloc = StrawManAllocator::init(&mut dpu, cfg.straw_man).expect("straw-man init");
    let t0 = dpu.clock(0);
    for _ in 0..cfg.allocs_per_dpu {
        let mut ctx = dpu.ctx(0);
        alloc.pim_malloc(&mut ctx, cfg.alloc_size).unwrap();
    }
    let batch_secs = (dpu.clock(0) - t0).as_secs(dpu.config().cost.clock_mhz);
    let expected = cfg.launch_us * 1e-6 + batch_secs;
    assert!(
        (r.total_secs - expected).abs() < 1e-9,
        "DSE {} vs independent {}",
        r.total_secs,
        expected
    );
}

#[test]
fn dse_crossover_matches_figure6() {
    // Below a handful of DPUs the host-executed strategy can win; by
    // 512 DPUs PIM-local execution wins by orders of magnitude.
    let small = DseConfig::default().with_dpus(1);
    let gray = run_strategy(Strategy::HostMetaHostExec, &small);
    let red = run_strategy(Strategy::PimMetaPimExec, &small);
    assert!(
        gray.total_secs < red.total_secs,
        "at 1 DPU the brawny host should beat one wimpy core"
    );
    let large = DseConfig::default().with_dpus(512);
    let gray = run_strategy(Strategy::HostMetaHostExec, &large);
    let red = run_strategy(Strategy::PimMetaPimExec, &large);
    assert!(red.total_secs * 10.0 < gray.total_secs);
}

#[test]
fn virtual_time_is_deterministic() {
    let run = || {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
        let mut alloc =
            StrawManAllocator::init(&mut dpu, StrawManConfig::default()).expect("straw-man init");
        for i in 0..128 {
            let mut ctx = dpu.ctx(i % 16);
            alloc
                .pim_malloc(&mut ctx, 32 + (i as u32 % 7) * 32)
                .unwrap();
        }
        (dpu.max_clock(), dpu.total_stats(), dpu.traffic())
    };
    assert_eq!(run(), run(), "two identical runs must agree exactly");
}

#[test]
fn wram_budget_is_shared_across_components() {
    // The straw-man buffer and PIM-malloc structures share one 64 KB
    // scratchpad: a second allocator on the same DPU must account for
    // the already-reserved space.
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
    let before = dpu.wram().available_bytes();
    let _a = StrawManAllocator::init(&mut dpu, StrawManConfig::default()).expect("straw-man init");
    let after = dpu.wram().available_bytes();
    assert_eq!(before - after, 2048, "straw-man reserves its 2 KB window");
    // An allocator demanding more WRAM than remains must fail cleanly.
    let cfg = pim_malloc::AllocGeometry::sw(16)
        .with_backend(pim_malloc::BackendKind::Coarse {
            buffer_bytes: after.next_power_of_two(),
        })
        .build();
    assert!(matches!(
        pim_malloc::PimMalloc::init(&mut dpu, cfg),
        Err(pim_malloc::InitError::Wram(_))
    ));
}

#[test]
fn llm_serving_at_512_dpus_is_engine_invariant() {
    // run_serving_many fans one share-nothing simulation per KV scheme
    // (each modeling the default 512-DPU PIM side) over the parallel
    // engine; it must reproduce the serial map exactly.
    use pim_workloads::llm::{
        fixed_trace, run_serving, run_serving_many, KvScheme, ServingConfig, ServingResult,
    };
    use pim_workloads::AllocatorKind;
    let schemes = [
        KvScheme::Static,
        KvScheme::Dynamic(AllocatorKind::StrawMan),
        KvScheme::Dynamic(AllocatorKind::Sw),
        KvScheme::Dynamic(AllocatorKind::HwSw),
    ];
    let trace = fixed_trace(40, 10.0);
    let cfg = ServingConfig::default();
    assert_eq!(cfg.llm.n_dpus, 512, "the paper's serving fleet");
    let key = |r: &ServingResult| {
        (
            r.throughput_tokens_per_s.to_bits(),
            r.tpot_p50_ms.to_bits(),
            r.tpot_p95_ms.to_bits(),
            r.tpot_p99_ms.to_bits(),
            r.peak_batch,
            r.makespan_s.to_bits(),
            r.kv_push_secs.to_bits(),
            r.kv_push_stall_secs.to_bits(),
            r.kv_push_calls,
        )
    };
    let serial: Vec<_> = schemes
        .iter()
        .map(|&s| key(&run_serving(s, &cfg, &trace)))
        .collect();
    let parallel: Vec<_> = run_serving_many(&schemes, &cfg, &trace)
        .iter()
        .map(key)
        .collect();
    assert_eq!(
        parallel, serial,
        "run_serving_many diverged from the serial map"
    );
}

#[test]
fn pipeline_sharing_slows_dense_multithreading() {
    // The same instruction stream takes longer per tasklet at 24
    // tasklets than at 11 (issue-slot sharing), but aggregate
    // throughput is preserved.
    let time_per_tasklet = |n: usize| {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n));
        for t in 0..n {
            dpu.ctx(t).instrs(1000);
        }
        dpu.max_clock()
    };
    let t11 = time_per_tasklet(11);
    let t24 = time_per_tasklet(24);
    assert_eq!(t11.0, 11 * 1000);
    assert_eq!(t24.0, 24 * 1000);
}
