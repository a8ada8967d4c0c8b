//! Producer-consumer replay through the remote-free path: the trace's
//! `RemoteFree` edges must take the batched remote-free path (batched
//! MRAM pricing) and never a global-lock walk.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
use pim_sim::{DpuConfig, DpuSim};
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

#[test]
fn remote_frees_route_through_the_transfer_cache_by_default() {
    let trace = pc_trace();
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let geom = AllocGeometry::sw(trace.n_tasklets).with_heap_size(trace.heap_size);
    let mut alloc: Box<dyn PimAllocator> =
        Box::new(PimMalloc::init(&mut dpu, geom.build()).expect("init"));
    let result = replay(&mut dpu, alloc.as_mut(), &trace);
    assert_eq!(result.oom_count, 0, "heap sized for the trace");
    assert_eq!(result.dropped_frees, 0, "every remote edge satisfiable");
    let stats = alloc
        .as_any()
        .downcast_ref::<PimMalloc>()
        .expect("built a PimMalloc")
        .alloc_stats();
    assert!(
        stats.frees_remote_transfer > 0,
        "producer-consumer trace must exercise the batched remote-free path"
    );
    assert_eq!(
        stats.frees_remote_global, 0,
        "no remote free may take the global-lock path"
    );
}
