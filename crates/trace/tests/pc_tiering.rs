//! Producer-consumer replay through the tiered free paths: on the
//! default three-tier allocator, the trace's `RemoteFree` edges must
//! take the batched remote-free path (batched MRAM pricing) and never
//! the legacy global-lock walk; on the config-reachable two-tier
//! allocator the same edges must all take the global path. The
//! three-tier replay must also finish no later — batching exists to
//! make cross-tasklet frees cheaper, and the modeled costs have to
//! show it.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc, TierPolicy};
use pim_sim::{Cycles, DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, SizeLaw, SynthConfig, TemporalShape};

fn pc_trace() -> pim_trace::AllocTrace {
    synthesize(&SynthConfig {
        n_tasklets: 8,
        mallocs_per_tasklet: 64,
        live_window: 16,
        size_law: SizeLaw::Fixed(512),
        shape: TemporalShape::ProducerConsumer { compute: 500 },
        heap_size: 1 << 22,
        seed: 0xA110C,
    })
}

fn run(policy: TierPolicy) -> (u64, u64, Cycles) {
    let trace = pc_trace();
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut geom = AllocGeometry::sw(trace.n_tasklets).with_heap_size(trace.heap_size);
    if policy == TierPolicy::TwoTier {
        geom = geom.two_tier();
    }
    let mut alloc: Box<dyn PimAllocator> =
        Box::new(PimMalloc::init(&mut dpu, geom.build()).expect("init"));
    let result = replay(&mut dpu, alloc.as_mut(), &trace);
    assert_eq!(result.oom_count, 0, "heap sized for the trace");
    assert_eq!(result.dropped_frees, 0, "every remote edge satisfiable");
    let pm = alloc
        .as_any()
        .downcast_ref::<PimMalloc>()
        .expect("built a PimMalloc");
    (
        pm.alloc_stats().frees_remote_transfer,
        pm.alloc_stats().frees_remote_global,
        result.finish,
    )
}

#[test]
fn remote_frees_route_through_the_transfer_cache_by_default() {
    let (remote_transfer, remote_global, _) = run(TierPolicy::ThreeTier);
    assert!(
        remote_transfer > 0,
        "producer-consumer trace must exercise the batched remote-free path"
    );
    assert_eq!(
        remote_global, 0,
        "no remote free may take the global-lock path on three-tier"
    );
}

#[test]
fn two_tier_remote_frees_all_take_the_global_path() {
    let (remote_transfer, remote_global, _) = run(TierPolicy::TwoTier);
    assert_eq!(remote_transfer, 0);
    assert!(remote_global > 0);
}

#[test]
fn three_tier_finishes_no_later_than_two_tier() {
    let (transfer_frees, _, finish3) = run(TierPolicy::ThreeTier);
    let (_, global_frees, finish2) = run(TierPolicy::TwoTier);
    assert_eq!(
        transfer_frees, global_frees,
        "both tiers see the same remote frees"
    );
    assert!(
        finish3 <= finish2,
        "three-tier ({finish3:?}) must not lose to two-tier ({finish2:?}) \
         on a remote-free-heavy trace"
    );
}
