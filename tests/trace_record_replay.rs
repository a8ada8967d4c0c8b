//! End-to-end trace subsystem tests: the microbenchmark's request
//! streams recorded as a trace, round-tripped through JSON, and
//! replayed on a fresh allocator must reproduce the direct run's
//! figure output byte for byte — across allocator kinds and request
//! patterns.

use pim_sim::{DpuConfig, DpuSim};
use pim_trace::{replay, AllocTrace};
use pim_workloads::micro::{run_micro, run_micro_recorded, MicroConfig, Pattern};
use pim_workloads::AllocatorKind;

/// Replays `trace` once on one fresh DPU with a fresh `kind` allocator.
fn replay_once(trace: &AllocTrace, kind: AllocatorKind) -> pim_trace::ReplayResult {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut alloc = kind.build(&mut dpu, trace.n_tasklets, trace.heap_size);
    replay(&mut dpu, alloc.as_mut(), trace)
}

#[test]
fn recorded_micro_matches_direct_figure_output() {
    for kind in [
        AllocatorKind::StrawMan,
        AllocatorKind::Sw,
        AllocatorKind::HwSw,
    ] {
        for pattern in [Pattern::AllocOnly, Pattern::AllocFreePairs] {
            let cfg = MicroConfig {
                n_tasklets: 16,
                allocs_per_tasklet: 32,
                pattern,
                ..MicroConfig::default()
            };
            // Recording must not perturb the benchmark itself...
            let direct = run_micro(kind, &cfg);
            let (recorded_result, trace) = run_micro_recorded(kind, &cfg);
            assert_eq!(direct.timeline_us, recorded_result.timeline_us);
            assert_eq!(direct.avg_latency_us, recorded_result.avg_latency_us);

            // ...and the trace — even after a JSON round-trip — must
            // replay to byte-identical latency results.
            let parsed = AllocTrace::from_json(&trace.to_json()).expect("round trip");
            assert_eq!(parsed, trace);
            let replayed = replay_once(&parsed, kind);
            let mhz = pim_sim::CostModel::default().clock_mhz;
            let replay_timeline: Vec<(f64, f64)> = replayed
                .timeline
                .iter()
                .map(|&(t, l)| (t.as_micros(mhz), l.as_micros(mhz)))
                .collect();
            assert_eq!(
                direct.timeline_us, replay_timeline,
                "{kind:?}/{pattern:?} replay diverged from the direct run"
            );
            assert_eq!(direct.finish_us, replayed.finish.as_micros(mhz));
        }
    }
}

#[test]
fn replaying_twice_is_byte_identical() {
    let cfg = MicroConfig {
        n_tasklets: 16,
        allocs_per_tasklet: 48,
        ..MicroConfig::default()
    };
    let (_, trace) = run_micro_recorded(AllocatorKind::Sw, &cfg);
    let a = replay_once(&trace, AllocatorKind::Sw);
    let b = replay_once(&trace, AllocatorKind::Sw);
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.finish, b.finish);
}
