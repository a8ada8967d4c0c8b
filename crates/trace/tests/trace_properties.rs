//! Property tests of the trace subsystem.
//!
//! * **Serde round-trip** — arbitrary traces (all four op kinds,
//!   pathological slot/size/cycle values) survive
//!   `to_json` → `from_json` losslessly.
//! * **Replay determinism** — replaying one trace twice yields
//!   byte-identical latency timelines.
//! * **Replay robustness** — arbitrary (even nonsensical) traces
//!   replay without panicking once they validate: bad frees drop, OOM
//!   counts, the run terminates. A malloc larger than the heap must
//!   not validate, since no allocator can count it as OOM.

use pim_malloc::PimAllocator;
use pim_sim::{DpuConfig, DpuSim};
use pim_trace::{replay, AllocTrace, TraceOp};
use proptest::collection::vec;
use proptest::prelude::*;

const N_TASKLETS: usize = 4;
const HEAP_SIZE: u32 = 1 << 20;

/// Arbitrary ops. A malloc larger than the heap is drawn rarely, so
/// about one trace in five holds one and the rest still validate.
fn op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        160 => (1u32..16384, 0u32..24).prop_map(|(size, slot)| TraceOp::Malloc { size, slot }),
        1 => (HEAP_SIZE + 1..=u32::MAX, 0u32..24)
            .prop_map(|(size, slot)| TraceOp::Malloc { size, slot }),
        80 => (0u32..24).prop_map(|slot| TraceOp::Free { slot }),
        40 => (0u32..N_TASKLETS as u32, 0u32..24)
            .prop_map(|(tasklet, slot)| TraceOp::RemoteFree { tasklet, slot }),
        80 => (0u64..100_000).prop_map(|cycles| TraceOp::Compute { cycles }),
    ]
}

/// Arbitrary traces, with slots folded below their owning stream's op
/// count so most of them validate; a remote free into an empty stream
/// keeps slot 0 and stays invalid.
fn trace_strategy() -> impl Strategy<Value = AllocTrace> {
    vec(vec(op_strategy(), 0..40), N_TASKLETS..=N_TASKLETS).prop_map(|mut streams| {
        let ops: Vec<u32> = streams.iter().map(|s| s.len().max(1) as u32).collect();
        for (tid, stream) in streams.iter_mut().enumerate() {
            for op in stream {
                match op {
                    TraceOp::Malloc { slot, .. } | TraceOp::Free { slot } => *slot %= ops[tid],
                    TraceOp::RemoteFree { tasklet, slot } => *slot %= ops[*tasklet as usize],
                    TraceOp::Compute { .. } => {}
                }
            }
        }
        AllocTrace {
            name: "prop".to_owned(),
            n_tasklets: N_TASKLETS,
            heap_size: HEAP_SIZE,
            streams,
        }
    })
}

fn sw_build(dpu: &mut DpuSim) -> Box<dyn PimAllocator> {
    let cfg = pim_malloc::AllocGeometry::sw(N_TASKLETS)
        .with_heap_size(HEAP_SIZE)
        .build();
    Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serde_round_trips_losslessly(trace in trace_strategy()) {
        let json = trace.to_json();
        let back = AllocTrace::from_json(&json);
        // Arbitrary streams may violate validation (that's fine — they
        // must then be *rejected*, not silently mangled).
        match (trace.validate(), back) {
            (Ok(()), Ok(parsed)) => prop_assert_eq!(parsed, trace),
            (Ok(()), Err(e)) => prop_assert!(false, "valid trace failed to parse: {e}"),
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => prop_assert!(false, "invalid trace parsed: {e}"),
        }
    }

    #[test]
    fn replay_is_deterministic_and_total(trace in trace_strategy()) {
        prop_assume!(trace.validate().is_ok());
        let run = || {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(N_TASKLETS));
            let mut alloc = sw_build(&mut dpu);
            replay(&mut dpu, alloc.as_mut(), &trace)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.timeline, &b.timeline);
        prop_assert_eq!(a.finish, b.finish);
        prop_assert_eq!(a.oom_count, b.oom_count);
        prop_assert_eq!(a.dropped_frees, b.dropped_frees);
    }
}
