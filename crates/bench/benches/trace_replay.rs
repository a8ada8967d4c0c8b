//! Criterion benches for the trace subsystem's host-side cost:
//!
//! * `synthesize` — generating a 16-tasklet zipf/bursty trace.
//! * `round_trip` — JSON encode + parse of the same trace.
//! * `replay_1dpu` — replaying it against PIM-malloc-SW on one DPU.
//! * `replay_fleet_64dpu/{serial,parallel}` — the same trace fanned
//!   over 64 share-nothing DPUs, a serial loop of direct replays vs
//!   `replay_fleet` on the parallel engine.

use criterion::{criterion_group, criterion_main, Criterion};
use pim_malloc::PimAllocator;
use pim_sim::{Cycles, DpuConfig, DpuSim};
use pim_trace::{
    replay, replay_fleet, synthesize, AllocTrace, FleetConfig, SizeLaw, SynthConfig, TemporalShape,
};
use pim_workloads::AllocatorKind;

fn bench_trace() -> (SynthConfig, AllocTrace) {
    let cfg = SynthConfig {
        n_tasklets: 16,
        mallocs_per_tasklet: 256,
        size_law: SizeLaw::Zipf {
            min: 16,
            max: 4096,
            exponent: 1.1,
        },
        shape: TemporalShape::Bursty {
            burst: 16,
            gap: 20_000,
        },
        ..SynthConfig::default()
    };
    let trace = synthesize(&cfg);
    (cfg, trace)
}

fn build(dpu: &mut DpuSim, trace: &AllocTrace) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, trace.n_tasklets, trace.heap_size)
}

/// Replays `trace` on a fresh DPU and returns its finish time.
fn replay_one(trace: &AllocTrace) -> Cycles {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut alloc = build(&mut dpu, trace);
    replay(&mut dpu, alloc.as_mut(), trace).finish
}

fn bench_synthesize(c: &mut Criterion) {
    let (cfg, _) = bench_trace();
    let mut g = c.benchmark_group("trace");
    g.bench_function("synthesize", |b| b.iter(|| synthesize(&cfg).op_count()));
    g.finish();
}

fn bench_round_trip(c: &mut Criterion) {
    let (_, trace) = bench_trace();
    let mut g = c.benchmark_group("trace");
    g.bench_function("round_trip", |b| {
        b.iter(|| {
            let json = trace.to_json();
            AllocTrace::from_json(&json).expect("round trip").op_count()
        })
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let (_, trace) = bench_trace();
    let mut g = c.benchmark_group("trace");
    g.bench_function("replay_1dpu", |b| b.iter(|| replay_one(&trace)));
    g.finish();
}

fn bench_fleet(c: &mut Criterion) {
    let (_, trace) = bench_trace();
    let mut g = c.benchmark_group("replay_fleet_64dpu");
    g.sample_size(2);
    g.bench_function("serial", |b| {
        b.iter(|| (0..64).map(|_| replay_one(&trace)).max())
    });
    let cfg = FleetConfig {
        n_dpus: 64,
        ..FleetConfig::default()
    };
    g.bench_function("parallel", |b| {
        b.iter(|| replay_fleet(&trace, &cfg, |dpu| build(dpu, &trace)).kernel_finish)
    });
    g.finish();
}

criterion_group!(
    trace_replay,
    bench_synthesize,
    bench_round_trip,
    bench_replay,
    bench_fleet
);
criterion_main!(trace_replay);
