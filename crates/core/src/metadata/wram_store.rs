//! Metadata resident entirely in the WRAM scratchpad.
//!
//! This is how UPMEM's stock `buddy_alloc()` works: the heap is small
//! enough (≤64 KB) that the whole 2-bit tree fits in scratchpad, and
//! every metadata access is an ordinary load/store instruction.

use pim_sim::TaskletCtx;

use super::{BitArray, MetaStats, NodeState};

/// Instructions per metadata access (index arithmetic + load/store +
/// bit extraction on the DPU).
const ACCESS_INSTRS: u64 = 3;

/// Buddy-tree metadata stored wholly in WRAM.
#[derive(Debug, Clone)]
pub struct WramStore {
    bits: BitArray,
    stats: MetaStats,
}

impl WramStore {
    /// Creates a store for a tree of `nodes` nodes (1-based indices).
    pub fn new(nodes: u32) -> Self {
        WramStore {
            bits: BitArray::new(nodes),
            stats: MetaStats::default(),
        }
    }

    pub(crate) fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        ctx.instrs(ACCESS_INSTRS);
        self.stats.hits += 1;
        self.bits.get(idx)
    }

    pub(crate) fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        ctx.instrs(ACCESS_INSTRS);
        self.stats.hits += 1;
        self.bits.set(idx, state);
    }

    pub(crate) fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        // memset of the tree in WRAM: ~1 instruction per 8 bytes.
        ctx.instrs(u64::from(self.bits.len_bytes() / 8 + 1));
        self.bits.clear();
        self.stats = MetaStats::default();
    }

    pub(crate) fn stats(&self) -> MetaStats {
        self.stats
    }

    pub(crate) fn peek(&self, idx: u32) -> NodeState {
        self.bits.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buddy::BuddyGeometry;
    use crate::metadata::BackendKind;
    use pim_sim::{DpuConfig, DpuSim};

    #[test]
    fn get_set_roundtrip_and_cost() {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut store = WramStore::new(31);
        let mut ctx = dpu.ctx(0);
        store.set(&mut ctx, 5, NodeState::Allocated);
        assert_eq!(store.get(&mut ctx, 5), NodeState::Allocated);
        assert_eq!(store.peek(5), NodeState::Allocated);
        // Two accesses, ACCESS_INSTRS each.
        assert_eq!(dpu.total_stats().instrs, 2 * ACCESS_INSTRS);
        assert_eq!(
            dpu.traffic().total_bytes(),
            0,
            "WRAM store never touches DRAM"
        );
    }

    #[test]
    fn reset_clears_and_recounts() {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut store = WramStore::new(31);
        let mut ctx = dpu.ctx(0);
        store.set(&mut ctx, 3, NodeState::Split);
        store.reset(&mut ctx);
        assert_eq!(store.peek(3), NodeState::Free);
        assert_eq!(store.stats(), MetaStats::default());
    }

    #[test]
    fn wram_footprint_matches_geometry() {
        // UPMEM's 32 KB scratchpad heap with 32 B min blocks: depth 10,
        // 2^11 nodes, ~512 B of metadata (§III-C).
        let geometry = BuddyGeometry::new(0, 32 << 10, 32);
        assert_eq!(geometry.node_count(), (1 << 11) - 1);
        let bytes = BackendKind::Wram.wram_bytes(&geometry);
        assert_eq!(
            bytes,
            WramStore::new(geometry.node_count()).bits.len_bytes()
        );
        assert!(bytes <= 513);
    }
}
