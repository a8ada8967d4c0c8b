//! Deterministic trace replay.
//!
//! [`replay`] drives one DPU's allocator with an [`AllocTrace`] in
//! virtual-time order. The microbenchmark runs its request streams
//! through [`replay_streams`] too, so the trace of a microbenchmark
//! run replays to byte-identical latency results by construction.
//! A DPU is deterministic, so one replay stands for every DPU of an
//! SPMD fleet that runs the same trace on its own bank.
//!
//! The engine pops its [`VirtualTimeQueue`] once per allocator call.
//! A `Compute` op moves only its own tasklet's clock and idle time, so
//! each run of them is applied at the end of the op before it (a
//! stream's leading run before the queue is built), and the tasklet is
//! re-queued at its post-run clock. Every allocator call keeps its
//! `(clock, tasklet)` key, so calls run in the order an engine that
//! pops once per op gives them. The remote-free retry is the one
//! reader of another tasklet's state, and it sees the owner as that
//! op-at-a-time engine showed it: there, a `Compute` of tasklet `o`
//! starting at clock `c` has run before tasklet `t`'s op at clock `c_t`
//! exactly when `(c, o) < (c_t, t)`. The retry walks the owner's last
//! folded run under that rule (see `FoldedRun`).
//!
//! A retry only moves the waiting tasklet's clock, and what it reads,
//! the owner's folded run and the empty slot, cannot change until the
//! owner is popped. So the retries a tasklet would take before its
//! owner's next pop are taken in one go, at the end of the op before
//! the remote free or at the pop that finds the slot empty (see
//! `FoldedRun::wait`). Those taken past the current pop view a copy of
//! the owner's run, so a tasklet popped in between still sees the
//! owner as the op-at-a-time engine showed it. Only an *unwatched*
//! tasklet folds its retries: one whose slots no other stream
//! remote-frees. A watched tasklet's clock is read by those streams'
//! retries, which must not see it past retries the op-at-a-time engine
//! had not yet taken, so it still retries once per pop.

use pim_malloc::{AllocError, PimAllocator};
use pim_sim::{Cycles, DpuSim, LatencyRecorder, VirtualTimeQueue};

use crate::format::{AllocTrace, TraceOp};

/// How many times a [`TraceOp::RemoteFree`] re-waits for its producer
/// before the edge is dropped as unsatisfiable (producer OOM'd or the
/// trace is malformed). Each retry strictly advances the consumer's
/// clock past the producer's, so replay always terminates. The budget
/// counts every retry of one op, whether taken at a pop or folded into
/// the op before.
const REMOTE_FREE_RETRY_LIMIT: u32 = 1000;

/// Outcome of replaying one trace on one DPU.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Latency of every `Malloc` event, in completion order.
    pub malloc_latencies: LatencyRecorder,
    /// `(completion time, latency)` of every `Malloc`, in completion
    /// order — the latency-over-time series of the paper's plots.
    pub timeline: Vec<(Cycles, Cycles)>,
    /// Per-tasklet total `pim_malloc` time.
    pub per_tasklet_malloc: Vec<Cycles>,
    /// `Malloc` events that failed with out-of-memory.
    pub oom_count: u64,
    /// Cross-tasklet free edges dropped because the producer never
    /// filled the slot: it finished first, or the consumer's 1,000
    /// retries ran out.
    pub dropped_frees: u64,
    /// Virtual time when the last tasklet finished.
    pub finish: Cycles,
}

/// A tasklet's last run of `Compute` ops, already applied to its
/// clock, and how far into it the op-at-a-time engine would be as of
/// the last popped key that read it.
///
/// Popped `(clock, tasklet)` keys never decrease, so a compute that had
/// run before one popped key had run before every later one: the
/// engine's copy moves `seen` only forward, and a run of k computes
/// costs O(k) over all the pops that read it. A retry folded ahead of
/// its pop reads the run at a key past the current pop, so it views a
/// copy: moving the engine's copy there would show a tasklet popped
/// later at a smaller key computes that had not run before it.
#[derive(Debug, Clone, Copy)]
struct FoldedRun {
    /// Index of the run's first compute not known to have run.
    seen: usize,
    /// One past the run's last op.
    end: usize,
    /// The tasklet's clock before op `seen`.
    clock: Cycles,
}

impl FoldedRun {
    /// A run of no ops at stream index `at`, tasklet clock `clock`.
    fn empty(at: usize, clock: Cycles) -> Self {
        FoldedRun {
            seen: at,
            end: at,
            clock,
        }
    }

    /// Applies the run of `Compute` ops at `*next` in `tid`'s stream
    /// in one clock step and moves `*next` past it.
    fn apply(dpu: &mut DpuSim, tid: usize, stream: &[TraceOp], next: &mut usize) -> Self {
        let (start, clock) = (*next, dpu.clock(tid));
        let mut cycles = 0;
        while let Some(&TraceOp::Compute { cycles: c }) = stream.get(*next) {
            cycles += c;
            *next += 1;
        }
        if cycles > 0 {
            let mut ctx = dpu.ctx(tid);
            let t = ctx.now() + Cycles(cycles);
            ctx.wait_until(t);
        }
        FoldedRun {
            seen: start,
            end: *next,
            clock,
        }
    }

    /// Tasklet `owner`'s clock, and whether it has ops left, as the
    /// op-at-a-time engine showed them to the op at `key`.
    fn view(&mut self, stream: &[TraceOp], owner: usize, key: (Cycles, usize)) -> (Cycles, bool) {
        while self.seen < self.end && (self.clock, owner) < key {
            if let TraceOp::Compute { cycles } = stream[self.seen] {
                self.clock += Cycles(cycles);
            }
            self.seen += 1;
        }
        (self.clock, self.seen < stream.len())
    }

    /// Takes tasklet `tid`'s retries of a remote free of an empty slot
    /// of `owner`, whose last folded run this is a copy of, from `tid`'s
    /// clock on; returns whether it took one.
    ///
    /// A retry at key `(at, tid)` views the owner at that key and waits
    /// until one cycle past the owner's clock. It is taken only while
    /// that key is below the owner's queue key: until the owner is
    /// popped, neither its run nor the slot can change, so the retry
    /// reads what the op-at-a-time engine's retry at that key read.
    /// None is taken once the owner has no ops left or `retries` is
    /// spent; the pop at `tid`'s clock then drops the edge. With `fold`
    /// unset it takes at most one, as a pop of the op-at-a-time engine
    /// does.
    fn wait(
        mut self,
        dpu: &mut DpuSim,
        stream: &[TraceOp],
        owner: usize,
        tid: usize,
        retries: &mut u32,
        fold: bool,
    ) -> bool {
        let mut waited = false;
        while fold || !waited {
            let key = (dpu.clock(tid), tid);
            if key >= (dpu.clock(owner), owner) {
                break;
            }
            let (owner_clock, owner_pending) = self.view(stream, owner, key);
            if !owner_pending || *retries >= REMOTE_FREE_RETRY_LIMIT {
                break;
            }
            *retries += 1;
            dpu.ctx(tid).wait_until(owner_clock.max(key.0) + Cycles(1));
            waited = true;
        }
        waited
    }
}

/// Folds into the op before it the retries of tasklet `tid`'s next op
/// when that op is a remote free of a slot still empty. Only for an
/// unwatched `tid` (see the module docs).
fn wait_ahead(
    dpu: &mut DpuSim,
    tid: usize,
    streams: &[Vec<TraceOp>],
    next_op: &[usize],
    slots: &[Vec<Option<u32>>],
    runs: &[FoldedRun],
    retries: &mut [u32],
) {
    if let Some(&TraceOp::RemoteFree { tasklet, slot }) = streams[tid].get(next_op[tid]) {
        let owner = tasklet as usize;
        if slots[owner][slot as usize].is_none() {
            runs[owner].wait(dpu, &streams[owner], owner, tid, &mut retries[tid], true);
        }
    }
}

/// Replays `trace` against `alloc` on `dpu`.
///
/// Semantics per op: `Malloc` allocates and then frees any address
/// shadowed in its slot; `Free` frees the tasklet's own slot
/// (no-op if empty); `RemoteFree` frees another tasklet's slot,
/// waiting (bounded) until the producer has filled it; `Compute`
/// advances the tasklet's clock. Out-of-memory is counted and the
/// stream continues; other allocator errors panic, since the replayer
/// only frees slots it has filled and a valid trace only asks for
/// sizes in 1..=heap (see [`AllocTrace::validate`]).
///
/// # Panics
///
/// Panics if the trace needs more tasklets than `dpu` has, or on a
/// non-OOM allocator error.
pub fn replay(dpu: &mut DpuSim, alloc: &mut dyn PimAllocator, trace: &AllocTrace) -> ReplayResult {
    replay_streams(dpu, alloc, &trace.streams)
}

/// [`replay`] over raw per-tasklet streams (no surrounding
/// [`AllocTrace`] header), as the microbenchmark builds them.
///
/// # Panics
///
/// As [`replay`].
pub fn replay_streams(
    dpu: &mut DpuSim,
    alloc: &mut dyn PimAllocator,
    streams: &[Vec<TraceOp>],
) -> ReplayResult {
    assert!(
        streams.len() <= dpu.config().n_tasklets,
        "more streams ({}) than tasklets ({})",
        streams.len(),
        dpu.config().n_tasklets
    );
    let n = streams.len();
    let mut next_op = vec![0usize; n];
    let mut retries = vec![0u32; n];
    let mut slots: Vec<Vec<Option<u32>>> = streams
        .iter()
        .map(|s| {
            let max_slot = s
                .iter()
                .map(|op| match op {
                    TraceOp::Malloc { slot, .. } | TraceOp::Free { slot } => *slot as usize + 1,
                    TraceOp::RemoteFree { .. } | TraceOp::Compute { .. } => 0,
                })
                .max()
                .unwrap_or(0);
            vec![None; max_slot]
        })
        .collect();
    // Remote edges may name slots beyond any local Malloc/Free in the
    // owner's stream; grow owner tables up front so indexing is safe.
    // The same pass counts the mallocs the recorders will hold and
    // marks the tasklets whose clock another stream's retries read.
    let mut mallocs = 0;
    let mut watched = vec![false; n];
    for (tid, stream) in streams.iter().enumerate() {
        for op in stream {
            match *op {
                TraceOp::Malloc { .. } => mallocs += 1,
                TraceOp::RemoteFree { tasklet, slot } => {
                    watched[tasklet as usize] |= tasklet as usize != tid;
                    let table = &mut slots[tasklet as usize];
                    if table.len() <= slot as usize {
                        table.resize(slot as usize + 1, None);
                    }
                }
                TraceOp::Free { .. } | TraceOp::Compute { .. } => {}
            }
        }
    }
    let mut result = ReplayResult {
        malloc_latencies: LatencyRecorder::with_capacity(mallocs),
        timeline: Vec::with_capacity(mallocs),
        per_tasklet_malloc: vec![Cycles::ZERO; n],
        oom_count: 0,
        dropped_frees: 0,
        finish: Cycles::ZERO,
    };

    // Each stream's leading run of computes applies before the first pop.
    let mut runs: Vec<FoldedRun> = (0..n)
        .map(|t| FoldedRun::apply(dpu, t, &streams[t], &mut next_op[t]))
        .collect();
    for tid in (0..n).filter(|&t| !watched[t]) {
        wait_ahead(dpu, tid, streams, &next_op, &slots, &runs, &mut retries);
    }
    // Always advance the unfinished tasklet with the smallest clock.
    let mut queue = VirtualTimeQueue::new((0..n).filter(|&t| next_op[t] < streams[t].len()));
    while let Some(tid) = queue.pop(dpu) {
        let op = streams[tid][next_op[tid]];
        let mut advanced = true;
        match op {
            TraceOp::Malloc { size, slot } => {
                let mut ctx = dpu.ctx(tid);
                let start = ctx.now();
                match alloc.pim_malloc(&mut ctx, size) {
                    Ok(addr) => {
                        let end = ctx.now();
                        let latency = end - start;
                        result.malloc_latencies.record(latency);
                        result.timeline.push((end, latency));
                        result.per_tasklet_malloc[tid] += latency;
                        if let Some(prev) = slots[tid][slot as usize].replace(addr) {
                            // Slot reuse frees the shadowed allocation
                            // to keep the heap from leaking.
                            let mut ctx = dpu.ctx(tid);
                            alloc.pim_free(&mut ctx, prev).expect("shadowed slot frees");
                        }
                    }
                    Err(AllocError::OutOfMemory { .. }) => result.oom_count += 1,
                    Err(e) => panic!("malloc failed: {e}"),
                }
            }
            TraceOp::Free { slot } => {
                if let Some(addr) = slots[tid][slot as usize].take() {
                    let mut ctx = dpu.ctx(tid);
                    alloc
                        .pim_free(&mut ctx, addr)
                        .expect("replayer frees live slots");
                }
            }
            TraceOp::RemoteFree { tasklet, slot } => {
                let owner = tasklet as usize;
                match slots[owner][slot as usize].take() {
                    Some(addr) => {
                        let mut ctx = dpu.ctx(tid);
                        ctx.mram_read(addr, 8); // load the shared pointer
                        alloc
                            .pim_free(&mut ctx, addr)
                            .expect("replayer frees live slots");
                    }
                    None => {
                        // Producer hasn't filled the slot yet: spin
                        // past its clock and retry this op. The queue
                        // pops smallest-clock first, so the producer
                        // runs before we come back. Only the popped
                        // key moves the engine's copy of the owner's
                        // run; `wait` views a copy.
                        let (stream, fold) = (&streams[owner], !watched[tid]);
                        runs[owner].view(stream, owner, (dpu.clock(tid), tid));
                        if runs[owner].wait(dpu, stream, owner, tid, &mut retries[tid], fold) {
                            runs[tid] = FoldedRun::empty(next_op[tid], dpu.clock(tid));
                            advanced = false;
                        } else {
                            result.dropped_frees += 1;
                        }
                    }
                }
            }
            TraceOp::Compute { .. } => unreachable!("compute runs are folded into the op before"),
        }
        if advanced {
            retries[tid] = 0;
            next_op[tid] += 1;
            runs[tid] = FoldedRun::apply(dpu, tid, &streams[tid], &mut next_op[tid]);
            if !watched[tid] {
                wait_ahead(dpu, tid, streams, &next_op, &slots, &runs, &mut retries);
            }
        }
        if next_op[tid] < streams[tid].len() {
            queue.push(tid);
        }
    }
    result.finish = dpu.max_clock();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_malloc::{AllocGeometry, PimMalloc, StrawManAllocator, StrawManConfig};
    use pim_sim::DpuConfig;

    fn dpu(tasklets: usize) -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(tasklets))
    }

    fn sw_alloc(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
        let cfg = AllocGeometry::sw(tasklets).with_heap_size(heap).build();
        Box::new(PimMalloc::init(dpu, cfg).expect("init"))
    }

    #[test]
    fn malloc_free_compute_replays() {
        let mut t = AllocTrace::new("t", 1 << 20, 1);
        t.streams[0] = vec![
            TraceOp::Compute { cycles: 500 },
            TraceOp::Malloc { size: 64, slot: 0 },
            TraceOp::Free { slot: 0 },
            TraceOp::Malloc { size: 64, slot: 0 },
        ];
        let mut d = dpu(1);
        let mut a = sw_alloc(&mut d, 1, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        assert_eq!(r.malloc_latencies.len(), 2);
        assert_eq!(r.oom_count, 0);
        assert_eq!(r.dropped_frees, 0);
        assert!(r.finish >= Cycles(500));
    }

    #[test]
    fn remote_free_waits_for_producer() {
        // Producer (tasklet 0) computes a long time before filling
        // slot 0; consumer (tasklet 1) frees it remotely. The consumer
        // must wait for the producer rather than dropping the edge.
        let mut t = AllocTrace::new("pc", 1 << 20, 2);
        t.streams[0] = vec![
            TraceOp::Compute { cycles: 10_000 },
            TraceOp::Malloc { size: 256, slot: 0 },
        ];
        t.streams[1] = vec![TraceOp::RemoteFree {
            tasklet: 0,
            slot: 0,
        }];
        let mut d = dpu(2);
        let mut a = sw_alloc(&mut d, 2, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        assert_eq!(r.dropped_frees, 0);
        assert_eq!(r.malloc_latencies.len(), 1);
        // Consumer finished after the producer's compute span.
        assert!(d.clock(1) > Cycles(10_000));
        // The edge took the allocator's batched remote-free path.
        assert_eq!(a.alloc_stats().frees_remote_transfer, 1);
    }

    #[test]
    fn unsatisfiable_remote_free_is_dropped() {
        // The producer never fills the slot; the edge drops after
        // bounded retries instead of hanging.
        let mut t = AllocTrace::new("drop", 1 << 20, 2);
        t.streams[0] = vec![TraceOp::Compute { cycles: 1 }];
        t.streams[1] = vec![TraceOp::RemoteFree {
            tasklet: 0,
            slot: 5,
        }];
        let mut d = dpu(2);
        let mut a = sw_alloc(&mut d, 2, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        assert_eq!(r.dropped_frees, 1);
    }

    #[test]
    fn mutual_remote_waits_terminate() {
        // Two tasklets each waiting on a slot the other never fills:
        // the retry budget breaks the cycle deterministically.
        let mut t = AllocTrace::new("cycle", 1 << 20, 2);
        t.streams[0] = vec![TraceOp::RemoteFree {
            tasklet: 1,
            slot: 0,
        }];
        t.streams[1] = vec![TraceOp::RemoteFree {
            tasklet: 0,
            slot: 0,
        }];
        let mut d = dpu(2);
        let mut a = sw_alloc(&mut d, 2, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        assert_eq!(r.dropped_frees, 2);
    }

    #[test]
    fn shadowed_slot_is_freed_on_reuse() {
        let mut t = AllocTrace::new("shadow", 1 << 20, 1);
        t.streams[0] = (0..100)
            .map(|_| TraceOp::Malloc {
                size: 4096,
                slot: 0,
            })
            .collect();
        let mut d = dpu(1);
        let mut a = sw_alloc(&mut d, 1, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        // 100 allocations through one slot never exhaust a 1 MB heap.
        assert_eq!(r.oom_count, 0);
        assert_eq!(r.malloc_latencies.len(), 100);
    }

    #[test]
    fn oom_is_counted_not_fatal() {
        let mut t = AllocTrace::new("oom", 1 << 20, 1);
        t.streams[0] = (0..40)
            .map(|slot| TraceOp::Malloc {
                size: 64 << 10,
                slot,
            })
            .collect();
        let mut d = dpu(1);
        let mut a = sw_alloc(&mut d, 1, 1 << 20);
        let r = replay(&mut d, a.as_mut(), &t);
        assert!(r.oom_count > 0, "1 MB heap cannot hold 40 × 64 KB");
        assert_eq!(r.malloc_latencies.len() as u64 + r.oom_count, 40);
    }

    #[test]
    fn free_of_empty_slot_is_noop() {
        let mut t = AllocTrace::new("empty", 1 << 20, 1);
        t.streams[0] = vec![TraceOp::Free { slot: 0 }];
        let mut d = dpu(1);
        let mut a = sw_alloc(&mut d, 1, 1 << 20);
        let before = d.max_clock();
        let r = replay(&mut d, a.as_mut(), &t);
        assert_eq!(r.malloc_latencies.len(), 0);
        assert_eq!(r.finish, before, "nothing ran");
    }

    #[test]
    fn contention_inflates_multi_tasklet_latency() {
        // The same per-tasklet stream takes longer per malloc under
        // 16-way contention on the straw-man's single mutex.
        let mean_latency = |tasklets: usize| {
            let mut t = AllocTrace::new("contend", 1 << 20, tasklets);
            for stream in &mut t.streams {
                *stream = vec![TraceOp::Malloc { size: 32, slot: 0 }; 16];
            }
            let mut d = dpu(tasklets);
            let cfg = StrawManConfig {
                heap_size: 1 << 20,
                ..StrawManConfig::default()
            };
            let mut a = StrawManAllocator::init(&mut d, cfg).expect("init");
            replay(&mut d, &mut a, &t).malloc_latencies.mean()
        };
        let (solo, contended) = (mean_latency(1), mean_latency(16));
        assert!(
            contended.0 > 2 * solo.0,
            "contended mean {contended} vs solo mean {solo}"
        );
    }

    #[test]
    #[should_panic(expected = "more streams")]
    fn too_many_streams_rejected() {
        let t = AllocTrace::new("big", 1 << 20, 2);
        let mut d = dpu(1);
        let mut a = sw_alloc(&mut d, 1, 1 << 20);
        let mut streams = t.streams;
        streams[0].push(TraceOp::Compute { cycles: 1 });
        streams[1].push(TraceOp::Compute { cycles: 1 });
        replay_streams(&mut d, a.as_mut(), &streams);
    }
}
