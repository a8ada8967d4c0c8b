//! Differential tests of the replay engine against an op-at-a-time
//! reference.
//!
//! `replay` applies each run of `Compute` ops, and of remote-free
//! retries, at the end of the op before it and pops its queue once per
//! allocator call. The reference below is the engine that folding
//! replaced: pick the unfinished tasklet with the smallest
//! `(clock, id)`, run exactly one of its ops or retries (a `Compute`
//! included), repeat. Everything a replay can observe must match: the
//! latency timeline, per-tasklet malloc time, OOM and dropped-free
//! counts, every tasklet's clock and time classes, DRAM traffic and
//! the allocator's counters. The remote-free retry is the case that
//! needs care, since it reads the owner's clock while the owner's
//! computes may already be folded, and its own retries may be folded
//! ahead of the pops that would take them.

use pim_malloc::{AllocError, AllocGeometry, AllocStats, PimAllocator, PimMalloc};
use pim_sim::{Cycles, DpuConfig, DpuSim, DramTraffic, TaskletStats};
use pim_trace::{replay, AllocTrace, TraceOp};
use proptest::collection::vec;
use proptest::prelude::*;

const N_TASKLETS: usize = 4;
const HEAP_SIZE: u32 = 1 << 20;
/// The engine's retry budget per remote free.
const RETRY_LIMIT: u32 = 1000;

/// What the reference engine returns: the `ReplayResult` fields a
/// caller compares.
#[derive(Debug, PartialEq)]
struct Outcome {
    timeline: Vec<(Cycles, Cycles)>,
    per_tasklet_malloc: Vec<Cycles>,
    oom_count: u64,
    dropped_frees: u64,
}

/// The op-at-a-time engine: one linear-scan pop per op, `Compute`
/// included.
fn reference(dpu: &mut DpuSim, alloc: &mut dyn PimAllocator, streams: &[Vec<TraceOp>]) -> Outcome {
    let n = streams.len();
    let mut next_op = vec![0usize; n];
    let mut retries = vec![0u32; n];
    // Valid traces name slots below their owner's op count.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut slots = vec![vec![None::<u32>; longest]; n];
    let mut out = Outcome {
        timeline: Vec::new(),
        per_tasklet_malloc: vec![Cycles::ZERO; n],
        oom_count: 0,
        dropped_frees: 0,
    };
    while let Some(tid) = (0..n)
        .filter(|&t| next_op[t] < streams[t].len())
        .min_by_key(|&t| dpu.clock(t))
    {
        let mut advanced = true;
        match streams[tid][next_op[tid]] {
            TraceOp::Malloc { size, slot } => {
                let mut ctx = dpu.ctx(tid);
                let start = ctx.now();
                match alloc.pim_malloc(&mut ctx, size) {
                    Ok(addr) => {
                        let end = ctx.now();
                        out.timeline.push((end, end - start));
                        out.per_tasklet_malloc[tid] += end - start;
                        if let Some(prev) = slots[tid][slot as usize].replace(addr) {
                            alloc
                                .pim_free(&mut dpu.ctx(tid), prev)
                                .expect("shadowed slot frees");
                        }
                    }
                    Err(AllocError::OutOfMemory { .. }) => out.oom_count += 1,
                    Err(e) => panic!("malloc failed: {e}"),
                }
            }
            TraceOp::Free { slot } => {
                if let Some(addr) = slots[tid][slot as usize].take() {
                    alloc
                        .pim_free(&mut dpu.ctx(tid), addr)
                        .expect("replayer frees live slots");
                }
            }
            TraceOp::RemoteFree { tasklet, slot } => {
                let owner = tasklet as usize;
                match slots[owner][slot as usize].take() {
                    Some(addr) => {
                        let mut ctx = dpu.ctx(tid);
                        ctx.mram_read(addr, 8);
                        alloc
                            .pim_free(&mut ctx, addr)
                            .expect("replayer frees live slots");
                    }
                    None => {
                        let owner_pending = owner != tid && next_op[owner] < streams[owner].len();
                        if owner_pending && retries[tid] < RETRY_LIMIT {
                            retries[tid] += 1;
                            let wake = dpu.clock(owner).max(dpu.clock(tid)) + Cycles(1);
                            dpu.ctx(tid).wait_until(wake);
                            advanced = false;
                        } else {
                            out.dropped_frees += 1;
                        }
                    }
                }
            }
            TraceOp::Compute { cycles } => {
                let mut ctx = dpu.ctx(tid);
                let t = ctx.now() + Cycles(cycles);
                ctx.wait_until(t);
            }
        }
        if advanced {
            retries[tid] = 0;
            next_op[tid] += 1;
        }
    }
    out
}

/// Everything observable after a run: the engine's outcome, every
/// tasklet's clock and time classes, DRAM traffic and the allocator's
/// counters.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    finish: Cycles,
    clocks: Vec<Cycles>,
    tasklet_stats: Vec<TaskletStats>,
    traffic: DramTraffic,
    alloc_counters: Vec<u64>,
}

fn counters(s: &AllocStats) -> Vec<u64> {
    let mut c = vec![
        s.frontend_hits,
        s.frontend_refills,
        s.bypass,
        s.frees_frontend,
        s.frees_backend,
        s.transfer_hits,
        s.central_hits,
        s.frees_remote_transfer,
        s.frees_remote_global,
        s.transfer_flushes,
        s.central_demotes,
        s.spans_returned,
        s.cycles_frontend.0,
        s.cycles_backend.0,
    ];
    c.extend(s.malloc_latencies.samples().iter().map(|l| l.0));
    c
}

/// Replays `trace` on a fresh SW DPU with the engine under test, or
/// with the reference when `use_reference` is set.
fn observe(trace: &AllocTrace, use_reference: bool) -> Observed {
    let n = trace.n_tasklets;
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n));
    let cfg = AllocGeometry::sw(n).with_heap_size(HEAP_SIZE).build();
    let mut alloc = PimMalloc::init(&mut dpu, cfg).expect("init");
    let outcome = if use_reference {
        reference(&mut dpu, &mut alloc, &trace.streams)
    } else {
        let r = replay(&mut dpu, &mut alloc, trace);
        assert_eq!(
            r.malloc_latencies.samples(),
            r.timeline.iter().map(|&(_, l)| l).collect::<Vec<_>>()
        );
        assert_eq!(r.finish, dpu.max_clock());
        Outcome {
            timeline: r.timeline,
            per_tasklet_malloc: r.per_tasklet_malloc,
            oom_count: r.oom_count,
            dropped_frees: r.dropped_frees,
        }
    };
    Observed {
        outcome,
        finish: dpu.max_clock(),
        clocks: (0..n).map(|t| dpu.clock(t)).collect(),
        tasklet_stats: (0..n).map(|t| dpu.tasklet_stats(t)).collect(),
        traffic: dpu.traffic(),
        alloc_counters: counters(alloc.alloc_stats()),
    }
}

/// `trace_properties.rs`' op mix with more remote frees and computes,
/// zero-cycle computes included.
fn op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        4 => (1u32..16384, 0u32..24).prop_map(|(size, slot)| TraceOp::Malloc { size, slot }),
        2 => (0u32..24).prop_map(|slot| TraceOp::Free { slot }),
        3 => (0u32..N_TASKLETS as u32, 0u32..24)
            .prop_map(|(tasklet, slot)| TraceOp::RemoteFree { tasklet, slot }),
        1 => Just(TraceOp::Compute { cycles: 0 }),
        2 => (1u64..64).prop_map(|cycles| TraceOp::Compute { cycles }),
        2 => (0u64..100_000).prop_map(|cycles| TraceOp::Compute { cycles }),
    ]
}

/// `op_strategy`'s computes.
fn compute_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        1 => Just(TraceOp::Compute { cycles: 0 }),
        2 => (1u64..64).prop_map(|cycles| TraceOp::Compute { cycles }),
        2 => (0u64..100_000).prop_map(|cycles| TraceOp::Compute { cycles }),
    ]
}

/// A producer's ops: `op_strategy`'s mix without remote frees.
fn producer_op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        4 => (1u32..16384, 0u32..24).prop_map(|(size, slot)| TraceOp::Malloc { size, slot }),
        2 => (0u32..24).prop_map(|slot| TraceOp::Free { slot }),
        5 => compute_strategy(),
    ]
}

/// A consumer's ops: computes and remote frees of the two producers'
/// slots.
fn consumer_op_strategy() -> impl Strategy<Value = TraceOp> {
    prop_oneof![
        3 => (0u32..2, 0u32..24)
            .prop_map(|(tasklet, slot)| TraceOp::RemoteFree { tasklet, slot }),
        5 => compute_strategy(),
    ]
}

/// A trace of `streams` with slots folded below their owner's op
/// count, as in `trace_properties.rs`, so remote frees name slots the
/// owner fills.
fn trace(mut streams: Vec<Vec<TraceOp>>) -> AllocTrace {
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
        name: "reference".to_owned(),
        n_tasklets: N_TASKLETS,
        heap_size: HEAP_SIZE,
        streams,
    }
}

/// Traces in which any tasklet may remote-free any tasklet's slots,
/// so nearly every tasklet's clock is read by another's retries.
fn trace_strategy() -> impl Strategy<Value = AllocTrace> {
    vec(vec(op_strategy(), 0..40), N_TASKLETS..=N_TASKLETS).prop_map(trace)
}

/// Producer-consumer traces: tasklets 0 and 1 malloc, free and
/// compute; tasklets 2 and 3 remote-free their slots. No stream
/// remote-frees from a consumer, so the consumers fold their retries.
fn pc_trace_strategy() -> impl Strategy<Value = AllocTrace> {
    (
        vec(vec(producer_op_strategy(), 0..40), 2..=2),
        vec(vec(consumer_op_strategy(), 0..40), 2..=2),
    )
        .prop_map(|(producers, consumers)| trace([producers, consumers].concat()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn folded_replay_matches_the_op_at_a_time_engine(trace in trace_strategy()) {
        prop_assert_eq!(observe(&trace, false), observe(&trace, true));
    }

    #[test]
    fn pc_replay_matches_the_op_at_a_time_engine(trace in pc_trace_strategy()) {
        prop_assert_eq!(observe(&trace, false), observe(&trace, true));
    }
}

fn two_tasklet_trace(owner: Vec<TraceOp>, consumer: Vec<TraceOp>) -> AllocTrace {
    let mut t = AllocTrace::new("edge", HEAP_SIZE, 2);
    t.streams = vec![owner, consumer];
    t.validate().expect("valid");
    t
}

#[test]
fn retry_budget_runs_out_inside_a_long_compute_run() {
    // Each consumer retry wakes one cycle past the owner's clock as the
    // op-at-a-time engine showed it, which lets exactly one more 10-cycle
    // compute run; 1,000 retries run out before the malloc.
    let mut owner = vec![TraceOp::Compute { cycles: 10 }; 1001];
    owner.push(TraceOp::Malloc { size: 64, slot: 0 });
    let consumer = vec![TraceOp::RemoteFree {
        tasklet: 0,
        slot: 0,
    }];
    let trace = two_tasklet_trace(owner, consumer);
    let got = observe(&trace, false);
    assert_eq!(got.outcome.dropped_frees, 1);
    assert_eq!(got.clocks[1], Cycles(233_766));
    assert_eq!(got, observe(&trace, true));
}

#[test]
fn retry_sees_the_owner_before_its_folded_compute() {
    // The consumer's second retry reads the owner after its malloc but
    // before its 100,000-cycle compute has run, so it wakes one cycle
    // past the malloc, not past the compute. Its next attempt finds the
    // owner done and drops the edge.
    let owner = vec![
        TraceOp::Malloc { size: 64, slot: 0 },
        TraceOp::Compute { cycles: 100_000 },
    ];
    let consumer = vec![
        TraceOp::Compute { cycles: 1 },
        TraceOp::RemoteFree {
            tasklet: 0,
            slot: 1,
        },
    ];
    let trace = two_tasklet_trace(owner, consumer);
    let got = observe(&trace, false);
    assert_eq!(got.outcome.dropped_frees, 1);
    assert_eq!(got.clocks[1], got.outcome.timeline[0].0 + Cycles(1));
    assert_eq!(got, observe(&trace, true));
}
