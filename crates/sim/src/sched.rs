//! Virtual-time scheduling over per-tasklet logical clocks.
//!
//! Workload drivers and trace replayers interleave per-tasklet streams
//! in **virtual-time order** — always advancing the tasklet with the
//! smallest logical clock — so mutex hand-offs and DMA queueing between
//! tasklets stay causally consistent. [`VirtualTimeQueue`] is that
//! scheduler; it lives in the simulator crate because both
//! `pim-workloads` (the graph update phases) and `pim-trace` (the trace
//! replayer, which the microbenchmark runs on) drive [`DpuSim`]s
//! through it.
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

use std::collections::{BinaryHeap, VecDeque};

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

/// A deterministic discrete-event queue over an arbitrary virtual
/// timeline: events pop in ascending time order, ties breaking on
/// insertion order (FIFO), so two runs that push the same events pop
/// them in the same order regardless of heap internals.
///
/// Events arrive by two paths that share one insertion counter:
/// [`push`](Self::push) takes any time and goes through a binary heap;
/// [`push_in_order`](Self::push_in_order) takes nondecreasing times
/// and goes through a FIFO lane that costs O(1) per event. `pop`
/// compares the lane's front with the heap's top by `(time, insertion
/// order)`, so the pop order is the one `push` alone would give.
///
/// [`VirtualTimeQueue`] schedules *tasklets by their clocks*; this
/// queue schedules *arbitrary payloads at explicit times* — arrivals
/// (in the lane), dispatches, and completions in the serving
/// frontend's event loop.
///
/// ```
/// use pim_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push_in_order(10, "early");
/// q.push(10, "early-tie");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-tie")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    /// Events from `push_in_order`, ascending by `(at, seq)`.
    lane: VecDeque<Event<T>>,
    /// Time of the latest `push_in_order`.
    lane_last: u64,
    seq: u64,
}

#[derive(Debug)]
struct Event<T> {
    at: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    /// Max-heap order inverted: the smallest `(at, seq)` is the
    /// greatest element, so `BinaryHeap::pop` yields earliest-first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_last: 0,
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules `payload` at virtual time `at`.
    pub fn push(&mut self, at: u64, payload: T) {
        let seq = self.next_seq();
        self.heap.push(Event { at, seq, payload });
    }

    /// Schedules `payload` at virtual time `at` through the FIFO lane:
    /// the same pop order as [`push`](Self::push), without the heap's
    /// sift, for a stream of events whose times never decrease (such
    /// as a sorted arrival stream).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the previous
    /// `push_in_order`.
    pub fn push_in_order(&mut self, at: u64, payload: T) {
        assert!(
            at >= self.lane_last,
            "push_in_order at {at} after one at {}",
            self.lane_last
        );
        self.lane_last = at;
        let seq = self.next_seq();
        self.lane.push_back(Event { at, seq, payload });
    }

    /// Removes and returns the earliest event as `(time, payload)`;
    /// equal times pop in insertion order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => (l.at, l.seq) < (h.at, h.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let event = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        event.map(|e| (e.at, e.payload))
    }

    /// The earliest scheduled time, if any event is pending.
    pub fn peek_time(&self) -> Option<u64> {
        let lane = self.lane.front().map(|e| e.at);
        let heap = self.heap.peek().map(|e| e.at);
        lane.into_iter().chain(heap).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
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

    #[test]
    fn event_queue_orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        q.push(10, 'd'); // same time as 'a', inserted later
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((10, 'd')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    #[should_panic(expected = "push_in_order at 4 after one at 5")]
    fn push_in_order_rejects_an_earlier_time() {
        let mut q = EventQueue::new();
        q.push_in_order(5, 'a');
        assert_eq!(q.pop(), Some((5, 'a')));
        // The lane is empty, but 4 still precedes the last lane push.
        q.push_in_order(4, 'b');
    }

    #[test]
    fn event_queue_interleaves_pushes_and_pops_deterministically() {
        let mut q = EventQueue::default();
        q.push(5, 0);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 2);
        q.push(3, 3);
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 0)));
    }
}
