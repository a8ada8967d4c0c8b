//! The serving loop's pending completions, bucketed by time.
//!
//! [`serve`](crate::serve) schedules one completion per job it starts.
//! Before it handles each arrival, flush or kill at key `(t, seq)`, it
//! applies every pending completion whose `(done, seq)` is below that
//! key. A binary heap would pop them one at a time in key order;
//! [`CompletionRing`] hands them over a bucket at a time instead:
//!
//! * [`BUCKETS`] buckets of `1 << BUCKET_SHIFT` ns each (2^14 × 1,024
//!   ns ≈ 16.8 ms). Each bucket is an intrusive singly linked list over
//!   one node pool with a free list, and a completion joins the tail
//!   of its `done` time's bucket. A bitmap of the non-empty buckets
//!   lets a query skip empty ones 64 at a time.
//! * A completion at or past the ring's horizon, [`BUCKETS`] buckets
//!   on from the last query's bucket, waits in a small heap instead.
//!
//! Completions do not drain in key order, but they do drain in push
//! order wherever push order and key order agree, as they do for one
//! DPU's jobs (FIFO service). A bucket's heap entries were all pushed
//! before the bucket came within the horizon, so they drain first, in
//! key order, and its list follows in push order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of one bucket's width in nanoseconds (1,024 ns).
const BUCKET_SHIFT: u32 = 10;
/// Buckets in the ring, a power of two; with [`BUCKET_SHIFT`] the ring
/// spans 2^24 ns ≈ 16.8 ms.
const BUCKETS: usize = 1 << 14;
/// End of a list.
const NIL: u32 = u32::MAX;

/// One pending completion: its key, the id it hands back, and the next
/// node of its bucket (or of the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    done: u64,
    seq: u64,
    id: u32,
    next: u32,
}

/// Pending completions keyed by `(done, seq)`; see the module docs.
#[derive(Debug)]
pub(crate) struct CompletionRing {
    /// Bucket number (`time >> BUCKET_SHIFT`) of the last query. Every
    /// earlier bucket is empty.
    cursor: u64,
    /// First and last node of each bucket's list, by bucket number
    /// modulo [`BUCKETS`]; [`NIL`] when empty.
    head: Box<[u32]>,
    tail: Box<[u32]>,
    /// Bit `slot % 64` of word `slot / 64` is set while that slot's
    /// list is non-empty.
    busy: Box<[u64]>,
    nodes: Vec<Node>,
    /// First free node, threaded through `next`.
    free: u32,
    /// Nodes linked into buckets.
    in_ring: usize,
    /// Completions pushed at or past the horizon, as `(done, seq, id)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl CompletionRing {
    /// An empty ring whose first query is at or after time 0.
    pub(crate) fn new() -> Self {
        CompletionRing {
            cursor: 0,
            head: vec![NIL; BUCKETS].into_boxed_slice(),
            tail: vec![NIL; BUCKETS].into_boxed_slice(),
            busy: vec![0; BUCKETS / 64].into_boxed_slice(),
            nodes: Vec::new(),
            free: NIL,
            in_ring: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules completion `id` at key `(done, seq)`. `done` must not
    /// precede the last query's time.
    pub(crate) fn push(&mut self, done: u64, seq: u64, id: u32) {
        let bucket = done >> BUCKET_SHIFT;
        debug_assert!(bucket >= self.cursor, "completion before the last query");
        if bucket - self.cursor >= BUCKETS as u64 {
            self.overflow.push(Reverse((done, seq, id)));
            return;
        }
        let node = Node {
            done,
            seq,
            id,
            next: NIL,
        };
        let n = if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        self.append(Self::slot(bucket), n);
        self.in_ring += 1;
    }

    /// Hands every pending completion whose `(done, seq)` is below
    /// `key` to `apply`, in the order the module docs describe. Keys
    /// of successive calls must not decrease.
    pub(crate) fn drain(&mut self, key: (u64, u64), mut apply: impl FnMut(u32)) {
        let target = key.0 >> BUCKET_SHIFT;
        loop {
            // Every bucket before the target lies wholly below `key`.
            self.cursor = self.next_busy().min(target);
            self.drain_bucket(key, &mut apply);
            if self.cursor == target {
                return;
            }
            self.cursor += 1;
        }
    }

    /// The first bucket at or after the cursor that holds a completion,
    /// in the ring or the heap; `u64::MAX` when none does.
    fn next_busy(&self) -> u64 {
        let mut next = self
            .overflow
            .peek()
            .map_or(u64::MAX, |Reverse((done, ..))| done >> BUCKET_SHIFT);
        if self.in_ring > 0 {
            // The ring holds buckets cursor .. cursor + BUCKETS, so the
            // first busy slot from the cursor's, cyclically, is the
            // earliest.
            let start = Self::slot(self.cursor);
            let words = self.busy.len();
            for i in 0..=words {
                let w = (start / 64 + i) % words;
                let bits = match i {
                    0 => self.busy[w] & (!0 << (start % 64)),
                    _ => self.busy[w],
                };
                if bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    let ahead = slot.wrapping_sub(start) & (BUCKETS - 1);
                    next = next.min(self.cursor + ahead as u64);
                    break;
                }
            }
        }
        next
    }

    /// Drains the cursor's bucket below `key`: its heap entries, then
    /// its list, whose kept nodes stay in order.
    fn drain_bucket(&mut self, key: (u64, u64), apply: &mut impl FnMut(u32)) {
        while let Some(&Reverse((done, seq, id))) = self.overflow.peek() {
            if done >> BUCKET_SHIFT != self.cursor || (done, seq) >= key {
                break;
            }
            self.overflow.pop();
            apply(id);
        }
        let slot = Self::slot(self.cursor);
        let mut n = std::mem::replace(&mut self.head[slot], NIL);
        self.tail[slot] = NIL;
        self.busy[slot / 64] &= !(1 << (slot % 64));
        while n != NIL {
            let node = self.nodes[n as usize];
            if (node.done, node.seq) < key {
                apply(node.id);
                self.nodes[n as usize].next = self.free;
                self.free = n;
                self.in_ring -= 1;
            } else {
                self.append(slot, n);
            }
            n = node.next;
        }
    }

    fn append(&mut self, slot: usize, n: u32) {
        self.nodes[n as usize].next = NIL;
        match self.tail[slot] {
            NIL => self.head[slot] = n,
            last => self.nodes[last as usize].next = n,
        }
        self.tail[slot] = n;
        self.busy[slot / 64] |= 1 << (slot % 64);
    }

    fn slot(bucket: u64) -> usize {
        bucket as usize & (BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The ring's horizon, in nanoseconds.
    const HORIZON: u64 = (BUCKETS as u64) << BUCKET_SHIFT;

    /// One step against the ring: a push `delay` ns after the current
    /// query time; a query `advance` ns later (`seq` picks its
    /// insertion number; see `run`); or a query at the time of a
    /// pending completion, `pick` into the pending ones by key, just
    /// below (`past == 0`) or just past its insertion number.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Push { delay: u64 },
        Query { advance: u64, seq: u64 },
        Reach { pick: usize, past: u64 },
    }

    fn delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            0u64..8,
            0u64..4_096,
            0u64..HORIZON,
            HORIZON - 2_048..HORIZON + 2_048,
            HORIZON..4 * HORIZON,
        ]
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            3 => delay().prop_map(|delay| Step::Push { delay }),
            2 => (delay(), 0u64..8).prop_map(|(advance, seq)| Step::Query { advance, seq }),
            1 => (0usize..64, 0u64..3).prop_map(|(pick, past)| Step::Reach { pick, past }),
        ]
    }

    /// Runs `steps` against the ring and a sorted reference. Pushes
    /// take rising insertion numbers. A query that stays at the same
    /// time moves its insertion number up by `seq`; one that moves on
    /// takes any number up to a few past the next push's.
    fn run(steps: &[Step]) -> Result<(), TestCaseError> {
        let mut ring = CompletionRing::new();
        let mut reference = BTreeSet::new();
        let mut key = (0u64, 0u64);
        let mut next_seq = 0u64;
        let mut pushes: Vec<(u64, u64)> = Vec::new();
        let mut drained: Vec<u32> = Vec::new();
        let all = steps.iter().copied().chain([Step::Query {
            advance: u64::MAX / 2,
            seq: 0,
        }]);
        for step in all {
            key = match step {
                Step::Push { delay } => {
                    let id = pushes.len() as u32;
                    let k = (key.0 + delay, next_seq);
                    next_seq += 1;
                    ring.push(k.0, k.1, id);
                    reference.insert((k, id));
                    pushes.push(k);
                    continue;
                }
                Step::Query { advance: 0, seq } => (key.0, key.1 + seq),
                Step::Query { advance, seq } => (key.0 + advance, seq * (next_seq + 3) / 7),
                Step::Reach { pick, past } => {
                    match reference.iter().nth(pick % reference.len().max(1)) {
                        Some(&((done, seq), _)) => (done, seq + past),
                        None => continue,
                    }
                }
            };
            let mut got = Vec::new();
            ring.drain(key, |id| got.push(id));
            let mut want: Vec<u32> = reference
                .iter()
                .take_while(|(k, _)| *k < key)
                .map(|&(_, id)| id)
                .collect();
            for &id in &want {
                reference.remove(&(pushes[id as usize], id));
            }
            drained.extend(&got);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "drained below {:?}", key);
        }
        prop_assert!(reference.is_empty());
        // Push order wherever key order agrees with it.
        let mut position = vec![0usize; pushes.len()];
        for (at, &id) in drained.iter().enumerate() {
            position[id as usize] = at;
        }
        for a in 0..pushes.len() {
            for b in a + 1..pushes.len() {
                if pushes[a] < pushes[b] {
                    prop_assert!(
                        position[a] < position[b],
                        "{:?} pushed before {:?} but drained after it",
                        pushes[a],
                        pushes[b]
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn drains_exactly_the_keys_below_each_query(
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            run(&steps)?;
        }
    }

    #[test]
    fn equal_times_split_on_insertion_number() {
        let mut ring = CompletionRing::new();
        ring.push(5_000, 3, 0);
        ring.push(5_000, 7, 1);
        let mut got = Vec::new();
        ring.drain((5_000, 3), |id| got.push(id));
        assert!(got.is_empty(), "a key is not below itself");
        ring.drain((5_000, 4), |id| got.push(id));
        assert_eq!(got, [0]);
        ring.drain((5_001, 0), |id| got.push(id));
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn completions_past_the_horizon_wait_in_the_heap() {
        let mut ring = CompletionRing::new();
        ring.push(HORIZON + 10, 0, 0);
        ring.push(10, 1, 1);
        ring.push(HORIZON + 10, 2, 2);
        assert_eq!(ring.overflow.len(), 2);
        assert_eq!(ring.in_ring, 1);
        let mut got = Vec::new();
        ring.drain((HORIZON + 10, 2), |id| got.push(id));
        assert_eq!(got, [1, 0]);
        // Within the horizon now, so it takes the node id 1 freed.
        ring.push(HORIZON + 100, 3, 3);
        assert_eq!(ring.nodes.len(), 1);
        ring.drain((u64::MAX, 0), |id| got.push(id));
        assert_eq!(got, [1, 0, 2, 3]);
    }
}
