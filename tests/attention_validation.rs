//! Cross-validation: the serving simulator's *analytic* decode-step
//! model must agree with the *measured* attention kernel running on
//! the DPU simulator with a real allocator — the two layers of the
//! reproduction telling the same story.

use pim_sim::{DpuConfig, DpuSim};
use pim_workloads::llm::{AttentionKernel, LlmConfig, ServingConfig};
use pim_workloads::AllocatorKind;

/// Measures one decode step of a `batch`-request kernel at a given
/// context length, in seconds.
fn measured_step_secs(batch: usize, context: u32) -> f64 {
    let cfg = LlmConfig::default();
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
    let mut alloc = AllocatorKind::HwSw.build(&mut dpu, 16, 32 << 20);
    let mut kernel = AttentionKernel::new(cfg);
    for r in 0..batch {
        let mut ctx = dpu.ctx(r % 16);
        kernel.admit(&mut ctx, alloc.as_mut(), context).unwrap();
    }
    let step = kernel.decode_step(&mut dpu, alloc.as_mut()).unwrap();
    step.as_secs(dpu.config().cost.clock_mhz)
}

/// The serving simulator's analytic attention time for the same state.
fn analytic_step_secs(batch: usize, context: u32) -> f64 {
    let cfg = ServingConfig::default();
    let kv_read = batch as u64 * u64::from(context) * cfg.llm.kv_bytes_per_token_per_dpu();
    cfg.launch_secs + kv_read as f64 / cfg.mram_bw_bytes_per_s
}

#[test]
fn analytic_and_measured_attention_agree_within_an_order_of_magnitude() {
    // The analytic model is bandwidth-only; the kernel additionally
    // pays MAC instructions (PrIM finds DPU GEMV compute-bound) and a
    // second pass for V, so it sits a small constant factor above.
    for (batch, context) in [(4usize, 64u32), (8, 128), (16, 128)] {
        let measured = measured_step_secs(batch, context);
        let analytic = analytic_step_secs(batch, context);
        let ratio = measured / analytic;
        assert!(
            (1.0..12.0).contains(&ratio),
            "batch {batch} ctx {context}: measured {measured:.6}s vs analytic {analytic:.6}s \
             (ratio {ratio:.2})"
        );
    }
}

#[test]
fn both_models_scale_linearly_with_context() {
    let m1 = measured_step_secs(4, 64);
    let m2 = measured_step_secs(4, 128);
    let a1 = analytic_step_secs(4, 64);
    let a2 = analytic_step_secs(4, 128);
    let m_scale = m2 / m1;
    let a_scale = a2 / a1;
    // Both grow with context; the kernel grows at least as fast (its
    // per-byte compute term scales linearly while fixed overheads
    // shrink relatively).
    assert!(
        a_scale > 1.2,
        "analytic must scale with context: x{a_scale:.2}"
    );
    assert!(
        m_scale > 1.2,
        "measured must scale with context: x{m_scale:.2}"
    );
    assert!(
        m_scale >= a_scale - 0.3,
        "kernel must not scale slower: x{m_scale:.2} vs x{a_scale:.2}"
    );
}

#[test]
fn kernel_allocation_overhead_matches_microbench_ranking() {
    // The kernel's extra step time under the straw-man must come from
    // allocation (the only differing component).
    let step = |kind: AllocatorKind| {
        let cfg = LlmConfig::default();
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
        let mut alloc = kind.build(&mut dpu, 16, 32 << 20);
        let mut kernel = AttentionKernel::new(cfg);
        for r in 0..8 {
            let mut ctx = dpu.ctx(r % 16);
            kernel.admit(&mut ctx, alloc.as_mut(), 16).unwrap();
        }
        let cycles = kernel.decode_step(&mut dpu, alloc.as_mut()).unwrap();
        cycles.as_secs(dpu.config().cost.clock_mhz)
    };
    let straw = step(AllocatorKind::StrawMan);
    let sw = step(AllocatorKind::Sw);
    let hw = step(AllocatorKind::HwSw);
    assert!(straw > sw, "straw-man {straw} vs SW {sw}");
    assert!(hw <= sw, "HW/SW {hw} vs SW {sw}");
}
