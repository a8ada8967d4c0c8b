//! Property-based tests of the buddy allocator against a reference
//! free-list model.
//!
//! The reference implementation (`RefBuddy`) is the classic
//! free-list-per-level buddy allocator, configured with the *same
//! placement policy* as the tree traversal (leftmost eligible block —
//! buddy feasibility depends on placement history, so the policies
//! must match). With identical policies the two implementations must
//! return *identical addresses* and agree on every success/failure,
//! and the tree's structural invariants must hold after every
//! operation.

use std::collections::{BTreeMap, BTreeSet};

use pim_malloc::{AllocError, BackendKind, BuddyAllocator, BuddyGeometry, MetadataBackend};
use pim_sim::{DpuConfig, DpuSim};
use proptest::prelude::*;

/// Reference buddy allocator: free lists per level.
struct RefBuddy {
    geometry: BuddyGeometry,
    /// level -> set of free block addresses at that level.
    free: BTreeMap<u32, BTreeSet<u32>>,
    /// live addr -> level.
    live: BTreeMap<u32, u32>,
}

impl RefBuddy {
    fn new(geometry: BuddyGeometry) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, BTreeSet::from([geometry.heap_base()]));
        RefBuddy {
            geometry,
            free,
            live: BTreeMap::new(),
        }
    }

    fn alloc(&mut self, size: u32) -> Option<u32> {
        let block = self.geometry.block_for_size(size)?;
        let target = self.geometry.level_for_block(block);
        // Leftmost placement: among all free blocks at levels 0..=target,
        // take the one with the lowest base address (ties cannot occur —
        // free blocks are disjoint).
        let mut best: Option<(u32, u32)> = None; // (addr, level)
        for level in 0..=target {
            if let Some(&addr) = self.free.get(&level).and_then(|s| s.iter().next()) {
                if best.is_none_or(|(a, _)| addr < a) {
                    best = Some((addr, level));
                }
            }
        }
        let (addr, mut level) = best?;
        self.free.get_mut(&level).unwrap().remove(&addr);
        // Split down to the target level, pushing right halves.
        while level < target {
            level += 1;
            let half = self.geometry.block_size_at(level);
            self.free.entry(level).or_default().insert(addr + half);
        }
        self.live.insert(addr, target);
        Some(addr)
    }

    fn free_block(&mut self, addr: u32) -> bool {
        let Some(mut level) = self.live.remove(&addr) else {
            return false;
        };
        let mut addr = addr;
        // Merge with the buddy while it is free.
        loop {
            if level == 0 {
                break;
            }
            let size = self.geometry.block_size_at(level);
            let off = addr - self.geometry.heap_base();
            let buddy = self.geometry.heap_base() + (off ^ size);
            let set = self.free.entry(level).or_default();
            if set.remove(&buddy) {
                addr = addr.min(buddy);
                level -= 1;
            } else {
                break;
            }
        }
        self.free.entry(level).or_default().insert(addr);
        true
    }

    fn live_spans(&self) -> Vec<(u32, u32)> {
        self.live
            .iter()
            .map(|(&a, &l)| (a, self.geometry.block_size_at(l)))
            .collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc { size: u32 },
    Free { victim: usize },
}

fn op_strategy(max_size: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..max_size).prop_map(|size| Op::Alloc { size }),
        2 => any::<usize>().prop_map(|victim| Op::Free { victim }),
    ]
}

fn run_sequence(heap_size: u32, min_block: u32, ops: &[Op]) {
    let geometry = BuddyGeometry::new(0x1000, heap_size, min_block);
    let mut sys = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let mut tree = BuddyAllocator::new(
        geometry,
        MetadataBackend::new(BackendKind::Coarse { buffer_bytes: 512 }, &geometry, 0),
    );
    {
        let mut ctx = sys.ctx(0);
        tree.reset(&mut ctx);
    }
    let mut reference = RefBuddy::new(geometry);
    let mut live: Vec<u32> = Vec::new();

    for op in ops {
        match op {
            Op::Alloc { size } => {
                let mut ctx = sys.ctx(0);
                let got = tree.alloc(&mut ctx, *size);
                let expect = reference.alloc(*size);
                match (got, expect) {
                    (Ok(addr), Some(ref_addr)) => {
                        assert_eq!(addr, ref_addr, "identical policies must place identically");
                        let block = geometry.block_for_size(*size).unwrap();
                        assert_eq!(
                            (addr - geometry.heap_base()) % block,
                            0,
                            "block at {addr:#x} not aligned to {block}"
                        );
                        assert!(geometry.contains(addr));
                        live.push(addr);
                    }
                    (Err(AllocError::OutOfMemory { .. }), None) => {}
                    (g, e) => panic!("feasibility mismatch: tree={g:?} reference={e:?}"),
                }
            }
            Op::Free { victim } => {
                if live.is_empty() {
                    continue;
                }
                let idx = victim % live.len();
                let addr = live.swap_remove(idx);
                let mut ctx = sys.ctx(0);
                tree.free(&mut ctx, addr).expect("live block frees cleanly");
                assert!(reference.free_block(addr), "reference lost a block");
            }
        }
        tree.check_invariants();
        // Disjointness of the reference's live spans (the tree allocator
        // chose possibly-different addresses but its invariant check
        // covers overlap structurally).
        let mut spans = reference.live_spans();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap in {spans:?}");
        }
        // Free-byte accounting agrees with the reference.
        let ref_live: u64 = spans.iter().map(|&(_, s)| u64::from(s)).sum();
        assert_eq!(tree.free_bytes(), u64::from(heap_size) - ref_live);
    }

    // Drain everything; the heap must coalesce back to one block.
    for addr in live.drain(..) {
        let mut ctx = sys.ctx(0);
        tree.free(&mut ctx, addr).unwrap();
        reference.free_block(addr);
    }
    tree.check_invariants();
    assert_eq!(tree.free_bytes(), u64::from(heap_size));
    let mut ctx = sys.ctx(0);
    let whole = tree.alloc(&mut ctx, heap_size);
    assert!(whole.is_ok(), "full coalescing must restore the root block");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_reference_feasibility_small_heap(
        ops in proptest::collection::vec(op_strategy(512), 1..120)
    ) {
        run_sequence(4096, 32, &ops);
    }

    #[test]
    fn tree_matches_reference_feasibility_medium_heap(
        ops in proptest::collection::vec(op_strategy(16 << 10), 1..80)
    ) {
        run_sequence(64 << 10, 64, &ops);
    }

    #[test]
    fn tree_matches_reference_with_tiny_min_block(
        ops in proptest::collection::vec(op_strategy(128), 1..100)
    ) {
        run_sequence(2048, 4, &ops);
    }
}

#[test]
fn exhaustive_pairs_of_sizes_roundtrip() {
    // Deterministic sweep: allocate two blocks of every size pair,
    // free in both orders, and require full coalescing each time.
    let geometry = BuddyGeometry::new(0, 8192, 32);
    for s1 in [32u32, 64, 100, 500, 2048, 4096] {
        for s2 in [32u32, 48, 1024, 4096] {
            for order in 0..2 {
                let mut sys = DpuSim::new(DpuConfig::default().with_tasklets(1));
                let mut tree = BuddyAllocator::new(
                    geometry,
                    MetadataBackend::new(BackendKind::Coarse { buffer_bytes: 512 }, &geometry, 0),
                );
                let mut ctx = sys.ctx(0);
                tree.reset(&mut ctx);
                let a = tree.alloc(&mut ctx, s1).unwrap();
                let b = tree.alloc(&mut ctx, s2).unwrap();
                if order == 0 {
                    tree.free(&mut ctx, a).unwrap();
                    tree.free(&mut ctx, b).unwrap();
                } else {
                    tree.free(&mut ctx, b).unwrap();
                    tree.free(&mut ctx, a).unwrap();
                }
                assert_eq!(tree.free_bytes(), 8192, "sizes {s1}/{s2} order {order}");
                tree.check_invariants();
            }
        }
    }
}
