//! Virtual-time scheduling over per-tasklet logical clocks.
//!
//! Workload drivers and trace replayers interleave per-tasklet streams
//! in **virtual-time order** — always advancing the tasklet with the
//! smallest logical clock — so mutex hand-offs and DMA queueing between
//! tasklets stay causally consistent. [`VirtualTimeQueue`] is that
//! scheduler; it lives in the simulator crate because both
//! `pim-workloads` (the graph update phases) and `pim-trace` (the trace
//! replayer, which the microbenchmark runs on) drive [`DpuSim`]s
//! through it. The serving frontend's loop, whose events sit on one
//! timeline of virtual nanoseconds rather than on tasklet clocks,
//! orders them itself (`pim_serving::serve`).
//!
//! The trace replayer pops once per allocator call. It applies each
//! run of `Compute` ops at the end of the op before it, and the
//! remote-free retries a tasklet would take before the owner's next
//! pop too, unless another stream's retries read that tasklet's clock.
//! So a tasklet may come back to the queue past several computes and
//! retries. A retry, which reads the owner's clock, sees the owner as
//! an engine that pops once per op would: there a compute of tasklet
//! `o` starting at clock `c` has run before tasklet `t`'s op at clock
//! `c_t` exactly when `(c, o) < (c_t, t)`, the order this queue pops
//! in.

use crate::cost::Cycles;
use crate::dpu::{DpuSim, MAX_TASKLETS};

/// A virtual-time scheduler over per-tasklet logical clocks.
///
/// The queue is a bitmask of queued tasklet ids. [`pop`](Self::pop)
/// scans the queued tasklets' live clocks on the DPU and returns the
/// smallest, breaking ties on the smaller id — the
/// `(0..n).min_by_key(clock)` rule, so request interleavings are
/// byte-identical to that scan's. A DPU runs at most [`MAX_TASKLETS`]
/// (24) tasklets, so the scan reads at most 24 clocks, which costs
/// less than a heap's pop and push; and since no key is stored, none
/// can go stale when a clock moves while its tasklet is queued.
///
/// Usage: `pop` the next tasklet, execute one of its requests (which
/// advances only that tasklet's clock), then `push` it back while it
/// has requests left.
#[derive(Debug)]
pub struct VirtualTimeQueue {
    /// Bit `t` is set while tasklet `t` is queued.
    queued: u32,
}

impl VirtualTimeQueue {
    /// Creates a queue holding `tasklets`.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push), for any id in `tasklets`.
    pub fn new(tasklets: impl IntoIterator<Item = usize>) -> Self {
        let mut queue = VirtualTimeQueue { queued: 0 };
        for tid in tasklets {
            queue.push(tid);
        }
        queue
    }

    /// Removes and returns the queued tasklet with the smallest clock
    /// on `dpu` (smallest id on ties), or `None` when the queue is
    /// empty.
    pub fn pop(&mut self, dpu: &DpuSim) -> Option<usize> {
        let mut rest = self.queued;
        let mut best: Option<(Cycles, usize)> = None;
        while rest != 0 {
            let tid = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let clock = dpu.clock(tid);
            if best.is_none_or(|(min, _)| clock < min) {
                best = Some((clock, tid));
            }
        }
        let (_, tid) = best?;
        self.queued &= !(1 << tid);
        Some(tid)
    }

    /// Queues `tid` (call after executing one of its requests, while it
    /// has more).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not below [`MAX_TASKLETS`].
    pub fn push(&mut self, tid: usize) {
        assert!(
            tid < MAX_TASKLETS,
            "tasklet {tid} outside the DPU's 0..{MAX_TASKLETS}"
        );
        self.queued |= 1 << tid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DpuConfig;

    #[test]
    fn queue_selection_is_identical_to_linear_scan() {
        // The scheduler must replicate the old
        // `(0..n).min_by_key(clock)` selection exactly, including
        // smallest-id tie-breaking, so latency orderings stay
        // byte-identical.
        let run = |use_queue: bool| -> Vec<usize> {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(6));
            // Uneven head start so clocks collide and diverge.
            dpu.ctx(4).instrs(2);
            let mut remaining = [3usize, 1, 4, 2, 3, 0];
            let mut order = Vec::new();
            if use_queue {
                let mut q = VirtualTimeQueue::new((0..6).filter(|&t| remaining[t] > 0));
                while let Some(tid) = q.pop(&dpu) {
                    order.push(tid);
                    dpu.ctx(tid).instrs((tid as u64 % 3) + 1);
                    remaining[tid] -= 1;
                    if remaining[tid] > 0 {
                        q.push(tid);
                    }
                }
            } else {
                while let Some(tid) = (0..6)
                    .filter(|&t| remaining[t] > 0)
                    .min_by_key(|&t| dpu.clock(t))
                {
                    order.push(tid);
                    dpu.ctx(tid).instrs((tid as u64 % 3) + 1);
                    remaining[tid] -= 1;
                }
            }
            order
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn empty_queue_pops_none() {
        let dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut q = VirtualTimeQueue::new(std::iter::empty());
        assert!(q.pop(&dpu).is_none());
    }

    #[test]
    #[should_panic(expected = "tasklet 24 outside the DPU's 0..24")]
    fn ids_past_a_dpu_are_rejected() {
        VirtualTimeQueue::new([0, MAX_TASKLETS - 1, MAX_TASKLETS]);
    }
}
