//! The multi-tasklet request driver.
//!
//! Workloads describe each tasklet's behaviour as a stream of
//! [`Request`]s; the driver interleaves the streams in **virtual-time
//! order** (always advancing the tasklet with the smallest logical
//! clock), so mutex hand-offs and DMA queueing between tasklets are
//! causally consistent. Per-request allocation latencies are recorded
//! in completion order, which is what the paper's latency-over-time
//! plots (Figures 8(a) and 17(c)) show.
//!
//! Since the trace subsystem landed, the driver is a thin veneer over
//! [`pim_trace`]'s replay engine: request streams convert 1:1 into
//! [`TraceOp`]s and [`drive`] delegates to
//! [`replay_streams`](pim_trace::replay_streams). A driver workload is
//! therefore *exactly* a trace — [`drive_recorded`] hands back the
//! [`AllocTrace`] alongside the results, and replaying it later
//! reproduces the run's latency timeline byte for byte.

use pim_malloc::PimAllocator;
use pim_sim::{Cycles, DpuSim, LatencyRecorder};
use pim_trace::{AllocTrace, TraceOp};

/// One allocator request in a tasklet's stream.
///
/// `slot` names an allocation within the tasklet's private slot table
/// so later requests can free it without knowing addresses up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Allocate `size` bytes and remember the address in `slot`.
    Malloc {
        /// Request size in bytes.
        size: u32,
        /// Slot index to store the returned address in.
        slot: usize,
    },
    /// Free the address remembered in `slot` (no-op if empty).
    Free {
        /// Slot index to free.
        slot: usize,
    },
}

impl Request {
    /// The trace event this request replays as.
    pub fn to_trace_op(self) -> TraceOp {
        match self {
            Request::Malloc { size, slot } => TraceOp::Malloc {
                size,
                slot: slot as u32,
            },
            Request::Free { slot } => TraceOp::Free { slot: slot as u32 },
        }
    }
}

/// Converts per-tasklet request streams into trace event streams.
fn to_op_streams(streams: &[Vec<Request>]) -> Vec<Vec<TraceOp>> {
    streams
        .iter()
        .map(|s| s.iter().map(|r| r.to_trace_op()).collect())
        .collect()
}

/// Outcome of a driver run.
#[derive(Debug, Clone)]
pub struct DriveResult {
    /// Latency of every `Malloc` request, in completion order.
    pub malloc_latencies: LatencyRecorder,
    /// `(completion time, latency)` of every `Malloc`, in completion
    /// order — the latency-over-time series of Figures 8(a)/17(c).
    pub timeline: Vec<(Cycles, Cycles)>,
    /// Per-tasklet total `pim_malloc` time (Figure 17(b)).
    pub per_tasklet_malloc: Vec<Cycles>,
    /// Number of `Malloc` requests that failed with out-of-memory.
    pub oom_count: u64,
    /// Virtual time when the last tasklet finished.
    pub finish: Cycles,
}

/// Runs per-tasklet request streams against `alloc` on `dpu`.
///
/// Streams are indexed by tasklet id; `streams.len()` must not exceed
/// the DPU's tasklet count. Out-of-memory failures are counted and the
/// stream continues (matching how the paper's microbenchmarks keep
/// requesting); other allocator errors panic, since the driver only
/// frees slots it has filled.
pub fn drive(
    dpu: &mut DpuSim,
    alloc: &mut dyn PimAllocator,
    streams: &[Vec<Request>],
) -> DriveResult {
    assert!(
        streams.len() <= dpu.config().n_tasklets,
        "more streams ({}) than tasklets ({})",
        streams.len(),
        dpu.config().n_tasklets
    );
    let r = pim_trace::replay_streams(dpu, alloc, &to_op_streams(streams));
    DriveResult {
        malloc_latencies: r.malloc_latencies,
        timeline: r.timeline,
        per_tasklet_malloc: r.per_tasklet_malloc,
        oom_count: r.oom_count,
        finish: r.finish,
    }
}

/// [`drive`], additionally returning the run as an [`AllocTrace`]
/// named `name` against a `heap_size`-byte heap.
///
/// Because the driver executes *through* the replay engine, replaying
/// the returned trace on a fresh identical allocator reproduces this
/// run's latency results byte for byte.
pub fn drive_recorded(
    dpu: &mut DpuSim,
    alloc: &mut dyn PimAllocator,
    streams: &[Vec<Request>],
    name: impl Into<String>,
    heap_size: u32,
) -> (DriveResult, AllocTrace) {
    let result = drive(dpu, alloc, streams);
    let trace = AllocTrace {
        name: name.into(),
        n_tasklets: streams.len(),
        heap_size,
        streams: to_op_streams(streams),
    };
    (result, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;
    use pim_sim::DpuConfig;

    fn setup(kind: AllocatorKind, tasklets: usize) -> (DpuSim, Box<dyn PimAllocator>) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(tasklets));
        let alloc = kind.build(&mut dpu, tasklets, 1 << 20);
        (dpu, alloc)
    }

    #[test]
    fn drives_alloc_free_pairs() {
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 2);
        let stream = vec![
            Request::Malloc { size: 64, slot: 0 },
            Request::Free { slot: 0 },
            Request::Malloc { size: 128, slot: 0 },
            Request::Free { slot: 0 },
        ];
        let r = drive(&mut dpu, alloc.as_mut(), &[stream.clone(), stream]);
        assert_eq!(r.malloc_latencies.len(), 4);
        assert_eq!(r.oom_count, 0);
        assert_eq!(r.timeline.len(), 4);
        assert!(r.finish > Cycles::ZERO);
        // Timeline is in completion order.
        for w in r.timeline.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn free_of_empty_slot_is_noop() {
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 1);
        let r = drive(&mut dpu, alloc.as_mut(), &[vec![Request::Free { slot: 0 }]]);
        assert_eq!(r.malloc_latencies.len(), 0);
    }

    #[test]
    fn slot_reuse_frees_previous_allocation() {
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 1);
        let stream: Vec<Request> = (0..100)
            .map(|_| Request::Malloc {
                size: 4096,
                slot: 0,
            })
            .collect();
        let r = drive(&mut dpu, alloc.as_mut(), &[stream]);
        // 100 allocations through one slot never exhaust a 1 MB heap.
        assert_eq!(r.oom_count, 0);
        assert_eq!(r.malloc_latencies.len(), 100);
    }

    #[test]
    fn oom_is_counted_not_fatal() {
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 1);
        let stream: Vec<Request> = (0..40)
            .map(|i| Request::Malloc {
                size: 64 << 10,
                slot: i,
            })
            .collect();
        let r = drive(&mut dpu, alloc.as_mut(), &[stream]);
        assert!(r.oom_count > 0, "1 MB heap cannot hold 40 × 64 KB");
        assert!(r.malloc_latencies.len() < 40);
    }

    #[test]
    fn contention_inflates_multi_tasklet_latency() {
        // The same per-tasklet stream takes longer per request under
        // 16-way contention on the straw-man's single mutex.
        let stream: Vec<Request> = (0..16)
            .map(|_| Request::Malloc { size: 32, slot: 0 })
            .collect();
        let (mut dpu1, mut a1) = setup(AllocatorKind::StrawMan, 1);
        let r1 = drive(&mut dpu1, a1.as_mut(), std::slice::from_ref(&stream));
        let (mut dpu16, mut a16) = setup(AllocatorKind::StrawMan, 16);
        let streams: Vec<_> = (0..16).map(|_| stream.clone()).collect();
        let r16 = drive(&mut dpu16, a16.as_mut(), &streams);
        assert!(
            r16.malloc_latencies.mean().0 > 2 * r1.malloc_latencies.mean().0,
            "contended mean {} vs solo mean {}",
            r16.malloc_latencies.mean(),
            r1.malloc_latencies.mean()
        );
    }

    #[test]
    fn recorded_drive_replays_byte_identically() {
        let streams: Vec<Vec<Request>> = (0..4)
            .map(|_| {
                (0..16)
                    .flat_map(|i| {
                        [
                            Request::Malloc {
                                size: 32 << (i % 3),
                                slot: i,
                            },
                            Request::Free { slot: i },
                        ]
                    })
                    .collect()
            })
            .collect();
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 4);
        let (direct, trace) = drive_recorded(&mut dpu, alloc.as_mut(), &streams, "micro", 1 << 20);
        let (mut dpu2, mut alloc2) = setup(AllocatorKind::Sw, 4);
        let replayed = pim_trace::replay(&mut dpu2, alloc2.as_mut(), &trace);
        assert_eq!(direct.timeline, replayed.timeline);
        assert_eq!(direct.finish, replayed.finish);
    }

    #[test]
    #[should_panic(expected = "more streams")]
    fn too_many_streams_rejected() {
        let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 1);
        let s = vec![vec![], vec![]];
        drive(&mut dpu, alloc.as_mut(), &s);
    }
}
