//! The buddy allocation algorithm over a [`MetadataBackend`].
//!
//! Allocation descends from the root looking for a free block of the
//! target level, splitting free blocks on the way down and marking
//! full subtrees on the way back up. Deallocation locates the
//! allocated node covering an address by following split marks from
//! the root, frees it, and merges buddies upward — the classic
//! Knowlton algorithm, with every metadata touch charged to the
//! calling tasklet through the store.

use pim_sim::TaskletCtx;

use crate::error::AllocError;
use crate::metadata::{MetadataBackend, NodeState};

use super::geometry::BuddyGeometry;

/// Instructions of per-node traversal logic (state decode, branch,
/// child index arithmetic) besides the metadata access itself.
const NODE_VISIT_INSTRS: u64 = 25;
/// Instructions of fixed request overhead (size rounding, level
/// computation, call/return).
const REQUEST_INSTRS: u64 = 30;

/// A buddy allocator over one DPU heap.
///
/// Not thread-safe by itself: callers serialize access with a DPU
/// mutex, exactly as the paper's implementation does.
#[derive(Debug)]
pub struct BuddyAllocator {
    geometry: BuddyGeometry,
    store: MetadataBackend,
    free_bytes: u64,
    policy: DescentPolicy,
}

/// How the allocation descent handles split subtrees.
///
/// The paper's 2-bit metadata tracks *fully allocated / partially
/// allocated / unallocated*, and its measured single-thread latency is
/// flat across an allocation sequence (Figure 8(a)) — an O(depth)
/// descent that prunes full subtrees. [`DescentPolicy::FullMarks`]
/// models that: the fourth 2-bit codepoint distinguishes "allocated as
/// a unit" from "split and full below" so both pruning and
/// address-only `free` work. [`DescentPolicy::ThreeState`] is the
/// naive variant without full marks, whose descent must explore split
/// subtrees and therefore degrades with heap occupancy; it is kept as
/// an ablation of this design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescentPolicy {
    /// Four-state metadata: full subtrees are marked and skipped
    /// (paper behaviour; default).
    #[default]
    FullMarks,
    /// Three-state metadata: no pruning; descent cost grows with the
    /// number of live blocks (ablation).
    ThreeState,
}

impl BuddyAllocator {
    /// Creates an allocator with all memory free, using
    /// [`DescentPolicy::FullMarks`].
    ///
    /// The metadata store is assumed to be freshly zeroed; call
    /// [`BuddyAllocator::reset`] to (re)initialize with cost accounting.
    pub fn new(geometry: BuddyGeometry, store: MetadataBackend) -> Self {
        BuddyAllocator {
            free_bytes: u64::from(geometry.heap_size()),
            geometry,
            store,
            policy: DescentPolicy::default(),
        }
    }

    /// Switches the descent policy (ablation hook).
    pub fn with_policy(mut self, policy: DescentPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The descent policy in use.
    pub fn policy(&self) -> DescentPolicy {
        self.policy
    }

    /// The heap geometry.
    pub fn geometry(&self) -> &BuddyGeometry {
        &self.geometry
    }

    /// The metadata store (for statistics inspection).
    pub fn store(&self) -> &MetadataBackend {
        &self.store
    }

    /// Bytes currently free (in buddy-rounded terms).
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Re-initializes the heap: all memory free, metadata zeroed.
    pub fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        self.store.reset(ctx);
        self.free_bytes = u64::from(self.geometry.heap_size());
    }

    /// Allocates a block of at least `size` bytes, returning its heap
    /// address. The block actually reserved is `size` rounded up to a
    /// power of two (≥ the minimum block).
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidSize`] if `size` is zero or larger than the
    /// heap; [`AllocError::OutOfMemory`] if no suitable block is free.
    pub fn alloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        ctx.instrs(REQUEST_INSTRS);
        let block = self
            .geometry
            .block_for_size(size)
            .ok_or(AllocError::InvalidSize { requested: size })?;
        let target_level = self.geometry.level_for_block(block);
        match self.descend(ctx, 1, 0, target_level) {
            Some(node) => {
                if self.policy == DescentPolicy::FullMarks {
                    self.mark_full_upward(ctx, node);
                }
                self.free_bytes -= u64::from(block);
                Ok(self.geometry.addr_of(node))
            }
            None => Err(AllocError::OutOfMemory { requested: size }),
        }
    }

    /// Recursive first-fit descent to a free node at `target_level`.
    fn descend(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        node: u32,
        level: u32,
        target_level: u32,
    ) -> Option<u32> {
        ctx.instrs(NODE_VISIT_INSTRS);
        let state = self.store.get(ctx, node);
        if level == target_level {
            return if state == NodeState::Free {
                self.store.set(ctx, node, NodeState::Allocated);
                Some(node)
            } else {
                None
            };
        }
        match state {
            NodeState::Free => {
                // Split and take the left child; the subtree is empty,
                // so the descent cannot fail.
                self.store.set(ctx, node, NodeState::Split);
                self.descend(ctx, 2 * node, level + 1, target_level)
            }
            NodeState::Split => {
                // Peek both children to choose the branch (the paper's
                // implementation reads child metadata before
                // descending), then recurse — the child is re-read at
                // entry, as `getMetadata`-per-node code does.
                let left = self.store.get(ctx, 2 * node);
                let took = if self.prunes(left) {
                    None
                } else {
                    self.descend(ctx, 2 * node, level + 1, target_level)
                };
                took.or_else(|| {
                    let right = self.store.get(ctx, 2 * node + 1);
                    if self.prunes(right) {
                        None
                    } else {
                        self.descend(ctx, 2 * node + 1, level + 1, target_level)
                    }
                })
            }
            NodeState::Allocated | NodeState::SplitFull => None,
        }
    }

    /// Whether the descent may skip a child in `state` without
    /// exploring it.
    fn prunes(&self, state: NodeState) -> bool {
        match self.policy {
            DescentPolicy::FullMarks => state.is_full(),
            DescentPolicy::ThreeState => state == NodeState::Allocated,
        }
    }

    /// After allocating `node`, marks ancestors `SplitFull` while both
    /// children are full.
    fn mark_full_upward(&mut self, ctx: &mut TaskletCtx<'_>, node: u32) {
        let mut n = node;
        while n > 1 {
            ctx.instrs(NODE_VISIT_INSTRS);
            let buddy = n ^ 1;
            if !self.store.get(ctx, buddy).is_full() {
                break;
            }
            let parent = n / 2;
            self.store.set(ctx, parent, NodeState::SplitFull);
            n = parent;
        }
    }

    /// Frees the block at `addr`, returning the size of the freed
    /// block in bytes.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is not the base address of
    /// a live allocation.
    pub fn free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<u32, AllocError> {
        ctx.instrs(REQUEST_INSTRS);
        if !self.geometry.contains(addr) {
            return Err(AllocError::InvalidFree { addr });
        }
        // Locate the allocated node covering `addr` by following split
        // marks down from the root.
        let mut node = 1u32;
        let mut level = 0u32;
        loop {
            ctx.instrs(NODE_VISIT_INSTRS);
            match self.store.get(ctx, node) {
                NodeState::Allocated => break,
                NodeState::Split | NodeState::SplitFull => {
                    if level == self.geometry.depth() {
                        return Err(AllocError::InvalidFree { addr });
                    }
                    level += 1;
                    node = self.geometry.node_at(level, addr);
                }
                NodeState::Free => return Err(AllocError::InvalidFree { addr }),
            }
        }
        // The address must be the block's base, not an interior byte.
        if self.geometry.addr_of(node) != addr {
            return Err(AllocError::InvalidFree { addr });
        }
        let block = self.geometry.block_size_at(level);
        self.store.set(ctx, node, NodeState::Free);
        self.merge_upward(ctx, node);
        self.free_bytes += u64::from(block);
        Ok(block)
    }

    /// After freeing below, merges free buddies and downgrades
    /// `SplitFull` ancestors until the tree is consistent.
    fn merge_upward(&mut self, ctx: &mut TaskletCtx<'_>, node: u32) {
        let mut n = node;
        while n > 1 {
            ctx.instrs(NODE_VISIT_INSTRS);
            let parent = n / 2;
            let buddy = n ^ 1;
            let n_free = self.store.get(ctx, n) == NodeState::Free;
            let buddy_free = self.store.get(ctx, buddy) == NodeState::Free;
            let new_state = if n_free && buddy_free {
                NodeState::Free // merge the buddies back together
            } else {
                NodeState::Split // free capacity now exists below
            };
            if self.store.get(ctx, parent) == new_state {
                break;
            }
            self.store.set(ctx, parent, new_state);
            n = parent;
        }
    }

    /// Checks the structural invariants of the whole tree (test/debug
    /// helper; does not charge simulation cost).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let g = &self.geometry;
        for idx in 1..=g.node_count() {
            let state = self.store.peek(idx);
            let level = g.level_of(idx);
            if level < g.depth() {
                let (l, r) = (self.store.peek(2 * idx), self.store.peek(2 * idx + 1));
                match state {
                    NodeState::Free | NodeState::Allocated => {
                        assert_eq!(
                            (l, r),
                            (NodeState::Free, NodeState::Free),
                            "node {idx} ({state:?}) must have free children"
                        );
                    }
                    NodeState::Split => {
                        assert!(
                            !(l == NodeState::Free && r == NodeState::Free),
                            "split node {idx} has two free children (missed merge)"
                        );
                        if self.policy == DescentPolicy::FullMarks {
                            assert!(
                                !(l.is_full() && r.is_full()),
                                "split node {idx} has two full children (missed full mark)"
                            );
                        }
                    }
                    NodeState::SplitFull => {
                        assert!(
                            l.is_full() && r.is_full(),
                            "split-full node {idx} has a non-full child"
                        );
                    }
                }
            } else if state == NodeState::Split || state == NodeState::SplitFull {
                panic!("leaf node {idx} cannot be split");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::BackendKind;
    use pim_sim::{DpuConfig, DpuSim};

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    fn small_alloc() -> BuddyAllocator {
        // 1 KB heap, 32 B min blocks: depth 5, 63 nodes.
        let g = BuddyGeometry::new(0, 1024, 32);
        BuddyAllocator::new(g, MetadataBackend::new(BackendKind::Wram, &g, 0))
    }

    #[test]
    fn paper_figure2_workflow() {
        // Figure 2: a 4 KB request against a 16 KB pool splits twice
        // and returns the leftmost 4 KB block.
        let g = BuddyGeometry::new(0, 16 << 10, 4 << 10);
        let mut a = BuddyAllocator::new(g, MetadataBackend::new(BackendKind::Wram, &g, 0));
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        let addr = a.alloc(&mut ctx, 4 << 10).unwrap();
        assert_eq!(addr, 0);
        assert_eq!(a.store().peek(1), NodeState::Split);
        assert_eq!(a.store().peek(2), NodeState::Split);
        assert_eq!(a.store().peek(4), NodeState::Allocated);
        a.check_invariants();
    }

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        let mut got = Vec::new();
        while let Ok(addr) = a.alloc(&mut ctx, 64) {
            assert_eq!(addr % 64, 0, "block must be size-aligned");
            got.push(addr);
        }
        assert_eq!(got.len(), 16, "1 KB / 64 B = 16 blocks");
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 16, "no duplicates");
        a.check_invariants();
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        let x = a.alloc(&mut ctx, 512).unwrap();
        let y = a.alloc(&mut ctx, 512).unwrap();
        assert!(a.alloc(&mut ctx, 512).is_err());
        assert_eq!(a.free(&mut ctx, x).unwrap(), 512);
        let z = a.alloc(&mut ctx, 512).unwrap();
        assert_eq!(x, z);
        assert_eq!(a.free(&mut ctx, y).unwrap(), 512);
        assert_eq!(a.free(&mut ctx, z).unwrap(), 512);
        // Fully merged: a whole-heap allocation succeeds.
        let w = a.alloc(&mut ctx, 1024).unwrap();
        assert_eq!(w, 0);
        a.check_invariants();
    }

    #[test]
    fn coalescing_restores_large_blocks() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        let addrs: Vec<u32> = (0..32).map(|_| a.alloc(&mut ctx, 32).unwrap()).collect();
        assert_eq!(a.free_bytes(), 0);
        for addr in addrs {
            a.free(&mut ctx, addr).unwrap();
        }
        assert_eq!(a.free_bytes(), 1024);
        assert!(a.alloc(&mut ctx, 1024).is_ok());
        a.check_invariants();
    }

    #[test]
    fn mixed_sizes_round_up_to_powers_of_two() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        let addr = a.alloc(&mut ctx, 100).unwrap(); // rounds to 128
        assert_eq!(addr % 128, 0);
        assert_eq!(a.free(&mut ctx, addr).unwrap(), 128);
        let addr = a.alloc(&mut ctx, 1).unwrap(); // rounds to min block 32
        assert_eq!(a.free(&mut ctx, addr).unwrap(), 32);
    }

    #[test]
    fn fragmentation_can_defeat_large_requests() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        // Allocate all 32 B blocks, free every other one: 512 B free
        // but no 64 B block available.
        let addrs: Vec<u32> = (0..32).map(|_| a.alloc(&mut ctx, 32).unwrap()).collect();
        for addr in addrs.iter().step_by(2) {
            a.free(&mut ctx, *addr).unwrap();
        }
        assert_eq!(a.free_bytes(), 512);
        assert!(matches!(
            a.alloc(&mut ctx, 64),
            Err(AllocError::OutOfMemory { requested: 64 })
        ));
        // A 32 B request still succeeds.
        assert!(a.alloc(&mut ctx, 32).is_ok());
        a.check_invariants();
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        assert!(matches!(
            a.alloc(&mut ctx, 0),
            Err(AllocError::InvalidSize { .. })
        ));
        assert!(matches!(
            a.alloc(&mut ctx, 2048),
            Err(AllocError::InvalidSize { .. })
        ));
    }

    #[test]
    fn invalid_frees_are_rejected() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        // Free of never-allocated address.
        assert!(matches!(
            a.free(&mut ctx, 0),
            Err(AllocError::InvalidFree { .. })
        ));
        let addr = a.alloc(&mut ctx, 64).unwrap();
        // Interior pointer.
        assert!(matches!(
            a.free(&mut ctx, addr + 32),
            Err(AllocError::InvalidFree { .. })
        ));
        // Out of heap.
        assert!(matches!(
            a.free(&mut ctx, 4096),
            Err(AllocError::InvalidFree { .. })
        ));
        // Double free.
        a.free(&mut ctx, addr).unwrap();
        assert!(matches!(
            a.free(&mut ctx, addr),
            Err(AllocError::InvalidFree { .. })
        ));
    }

    #[test]
    fn deeper_trees_cost_more_cycles() {
        // The Figure 7 effect: same allocation size, bigger heap →
        // deeper traversal → higher latency.
        let mut costs = Vec::new();
        for heap in [32u32 << 10, 1 << 20, 32 << 20] {
            let g = BuddyGeometry::new(0, heap, 32);
            let mut a = BuddyAllocator::new(
                g,
                MetadataBackend::new(BackendKind::Coarse { buffer_bytes: 2048 }, &g, 0),
            );
            let mut d = dpu();
            let mut ctx = d.ctx(0);
            let t0 = ctx.now();
            a.alloc(&mut ctx, 32).unwrap();
            costs.push((ctx.now() - t0).0);
        }
        assert!(costs[0] < costs[1] && costs[1] < costs[2], "{costs:?}");
    }

    #[test]
    fn reset_restores_full_capacity() {
        let mut a = small_alloc();
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        a.alloc(&mut ctx, 512).unwrap();
        a.reset(&mut ctx);
        assert_eq!(a.free_bytes(), 1024);
        assert!(a.alloc(&mut ctx, 1024).is_ok());
    }
}
