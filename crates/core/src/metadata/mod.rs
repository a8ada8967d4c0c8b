//! Buddy-tree metadata placements.
//!
//! The buddy allocator reads and writes 2-bit node states during tree
//! traversal. *Where* those bits live and *how* they are cached is the
//! crux of the paper's design space, and [`BackendKind`] is its one
//! description:
//!
//! * [`BackendKind::Wram`] — the whole tree resides in scratchpad, as
//!   in UPMEM's stock 64 KB `buddy_alloc()`. Only feasible for tiny
//!   heaps (Figure 7's heaps of 64 KB or less).
//! * [`BackendKind::Coarse`] — the tree resides in MRAM, with a
//!   software-managed WRAM buffer that caches one contiguous window
//!   and is flushed-and-reloaded wholesale on a miss (straw-man and
//!   PIM-malloc-SW; `coarse.rs`).
//! * [`BackendKind::FineLru`] — a software LRU over small granules;
//!   fewer DRAM transfers but heavy per-access instruction overhead
//!   (the §IV-B ablation that regressed 29%). It is the hardware CAM's
//!   LRU at software prices.
//! * [`BackendKind::HwCache`] — a hardware CAM with single-cycle
//!   access: with 4-byte entries the paper's buddy cache
//!   (PIM-malloc-HW/SW), with wider ones §VII's general-purpose line
//!   cache (`hw_cache.rs`).
//!
//! [`MetadataBackend::new`] builds one tree's store for a placement.
//! Every placement keeps the node states in the same array; it decides
//! only what an access costs, charged to the calling tasklet's
//! [`TaskletCtx`], and what [`MetaStats`] counts.

mod coarse;
mod hw_cache;

use pim_sim::{BuddyCacheConfig, BuddyCacheStats, TaskletCtx};
use serde::{Deserialize, Serialize};

use crate::buddy::BuddyGeometry;
use coarse::Window;
use hw_cache::{Lru, HARDWARE, SOFTWARE};

/// Instructions per WRAM-resident metadata access (index arithmetic +
/// load/store + bit extraction on the DPU).
const ACCESS_INSTRS: u64 = 3;

/// Where the buddy tree's metadata lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The whole tree in WRAM — UPMEM's stock scratchpad allocator.
    Wram,
    /// MRAM behind a coarse software-managed WRAM window — the
    /// straw-man and **PIM-malloc-SW**.
    Coarse {
        /// WRAM window size in bytes (paper: 2 KB).
        buffer_bytes: u32,
    },
    /// MRAM behind a fine-grained software LRU — the §IV-B ablation.
    FineLru {
        /// Number of cached granules.
        entries: usize,
        /// Granule size in bytes.
        granule_bytes: u32,
    },
    /// MRAM behind a hardware CAM — **PIM-malloc-HW/SW**'s buddy cache
    /// (4 B entries), or §VII's line cache (64 B or 8 B entries).
    HwCache {
        /// CAM configuration (paper default: 16 × 4 B).
        cache: BuddyCacheConfig,
    },
}

impl BackendKind {
    /// Bytes of WRAM the placement reserves for a tree of `geometry`.
    pub fn wram_bytes(&self, geometry: &BuddyGeometry) -> u32 {
        match *self {
            BackendKind::Wram => geometry.metadata_bytes(),
            BackendKind::Coarse { buffer_bytes } => buffer_bytes,
            BackendKind::FineLru {
                entries,
                granule_bytes,
            } => entries as u32 * granule_bytes,
            // The CAM is dedicated hardware; WRAM only stages a fill.
            BackendKind::HwCache { cache } => hw_cache::transfer_bytes(cache.bytes_per_entry),
        }
    }
}

/// One tree's node states, stored where a [`BackendKind`] places them.
#[derive(Debug)]
pub struct MetadataBackend {
    bits: BitArray,
    /// MRAM base address of the tree's copy (unused in WRAM).
    meta_base: u32,
    placement: Placement,
    stats: MetaStats,
}

/// What stands between the tasklet and the node array: nothing (the
/// tree is in WRAM), or a window or an LRU over the MRAM copy.
#[derive(Debug)]
enum Placement {
    Wram,
    Window(Window),
    Lru(Lru),
}

impl MetadataBackend {
    /// The store `kind` names for a tree of `geometry`, with its
    /// MRAM copy (if any) at `meta_base`.
    pub fn new(kind: BackendKind, geometry: &BuddyGeometry, meta_base: u32) -> Self {
        Self::with_nodes(kind, geometry.node_count(), meta_base)
    }

    /// [`MetadataBackend::new`] for a tree of `nodes` nodes.
    pub(crate) fn with_nodes(kind: BackendKind, nodes: u32, meta_base: u32) -> Self {
        let bits = BitArray::new(nodes);
        let len = bits.len_bytes();
        let placement = match kind {
            BackendKind::Wram => Placement::Wram,
            BackendKind::Coarse { buffer_bytes } => {
                Placement::Window(Window::new(len, buffer_bytes))
            }
            BackendKind::FineLru {
                entries,
                granule_bytes,
            } => {
                assert!(
                    granule_bytes.is_power_of_two() && granule_bytes >= 8,
                    "granule must be a power of two of at least 8 bytes"
                );
                let cache = BuddyCacheConfig {
                    entries,
                    bytes_per_entry: granule_bytes,
                };
                Placement::Lru(Lru::new(len, cache, SOFTWARE))
            }
            BackendKind::HwCache { cache } => Placement::Lru(Lru::new(len, cache, HARDWARE)),
        };
        MetadataBackend {
            bits,
            meta_base,
            placement,
            stats: MetaStats::default(),
        }
    }

    /// Reads the state of node `idx`.
    #[inline]
    pub fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        self.charge(ctx, idx, false);
        self.bits.get(idx)
    }

    /// Writes the state of node `idx`.
    #[inline]
    pub fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        self.charge(ctx, idx, true);
        self.bits.set(idx, state);
    }

    /// Charges one read or write of node `idx` to `ctx`.
    #[inline]
    fn charge(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, write: bool) {
        let stats = &mut self.stats;
        match &mut self.placement {
            Placement::Wram => {
                ctx.instrs(ACCESS_INSTRS);
                stats.hits += 1;
            }
            Placement::Window(window) => window.access(ctx, stats, self.meta_base, idx, write),
            Placement::Lru(lru) => lru.access(ctx, stats, self.meta_base, idx, write),
        }
    }

    /// Resets every node to [`NodeState::Free`] and clears caches.
    /// Called by `initAllocator`; costs are charged to `ctx`.
    pub fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        let (len, base) = (self.bits.len_bytes(), self.meta_base);
        // initAllocator zeroes an MRAM-resident tree with streaming DMA
        // writes from a zeroed WRAM buffer.
        let zero = |ctx: &mut TaskletCtx<'_>, chunk: u32| {
            for off in (0..len).step_by(chunk as usize) {
                ctx.mram_write(base + off, chunk.min(len - off));
            }
        };
        match &mut self.placement {
            // memset of the tree in WRAM: ~1 instruction per 8 bytes.
            Placement::Wram => ctx.instrs(u64::from(len / 8 + 1)),
            Placement::Window(window) => {
                zero(ctx, window.len);
                window.invalidate();
            }
            Placement::Lru(lru) => {
                zero(ctx, 2048);
                lru.init(ctx);
            }
        }
        self.bits.clear();
        self.stats = MetaStats::default();
    }

    /// Transfer/hit statistics since construction or the last reset.
    pub fn stats(&self) -> MetaStats {
        self.stats
    }

    /// Statistics of the hardware CAM, if the tree sits behind one
    /// ([`BackendKind::HwCache`]; the software LRU is not a CAM).
    pub fn cam_stats(&self) -> Option<BuddyCacheStats> {
        match &self.placement {
            Placement::Lru(lru) => lru.cam_stats(),
            _ => None,
        }
    }

    /// Reads a node state *without* charging any simulation cost.
    ///
    /// For invariant checks and tests only — a real DPU has no free
    /// metadata reads.
    pub fn peek(&self, idx: u32) -> NodeState {
        self.bits.get(idx)
    }
}

/// The 2-bit state of one buddy-tree node.
///
/// The paper describes three logical states (unallocated / partially
/// allocated / fully allocated); we use the fourth 2-bit codepoint to
/// distinguish "allocated *as a unit*" from "split and full below",
/// which `pim_free` needs to find a block's level from its address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum NodeState {
    /// The block is entirely free (and not split).
    Free = 0,
    /// The block is split; at least one descendant is free.
    Split = 1,
    /// The block is allocated as a unit.
    Allocated = 2,
    /// The block is split and has no free capacity below.
    SplitFull = 3,
}

impl NodeState {
    /// Decodes a 2-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    pub fn from_bits(bits: u8) -> NodeState {
        match bits {
            0 => NodeState::Free,
            1 => NodeState::Split,
            2 => NodeState::Allocated,
            3 => NodeState::SplitFull,
            _ => panic!("invalid node state bits {bits}"),
        }
    }

    /// Encodes to a 2-bit value.
    pub fn to_bits(self) -> u8 {
        self as u8
    }

    /// True if the subtree rooted here has no free capacity.
    pub fn is_full(self) -> bool {
        matches!(self, NodeState::Allocated | NodeState::SplitFull)
    }
}

/// Transfer and hit-rate statistics of a metadata store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaStats {
    /// Accesses served from on-chip storage.
    pub hits: u64,
    /// Accesses that required a DRAM fetch.
    pub misses: u64,
    /// Metadata bytes read from DRAM.
    pub bytes_read: u64,
    /// Metadata bytes written back to DRAM.
    pub bytes_written: u64,
}

impl MetaStats {
    /// Hit rate in `[0, 1]`; zero if no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total metadata bytes moved to/from DRAM.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A flat 2-bit-per-node array: the authoritative node states of every
/// placement.
#[derive(Debug, Clone)]
pub(crate) struct BitArray {
    /// Node `i` is bits `2 * (i % 4)..` of byte `i / 4`; node 0 is
    /// unused and stays zero.
    bytes: Vec<u8>,
    nodes: u32,
}

impl BitArray {
    pub(crate) fn new(nodes: u32) -> Self {
        BitArray {
            bytes: vec![0u8; ((nodes as usize) + 4) / 4],
            nodes,
        }
    }

    #[inline]
    pub(crate) fn get(&self, idx: u32) -> NodeState {
        debug_assert!(idx >= 1 && idx <= self.nodes, "node {idx} out of range");
        let byte = self.bytes[(idx / 4) as usize];
        NodeState::from_bits((byte >> ((idx % 4) * 2)) & 0b11)
    }

    #[inline]
    pub(crate) fn set(&mut self, idx: u32, state: NodeState) {
        debug_assert!(idx >= 1 && idx <= self.nodes, "node {idx} out of range");
        let slot = (idx / 4) as usize;
        let shift = (idx % 4) * 2;
        self.bytes[slot] = (self.bytes[slot] & !(0b11 << shift)) | (state.to_bits() << shift);
    }

    pub(crate) fn clear(&mut self) {
        self.bytes.fill(0);
    }

    /// Byte offset of the metadata byte holding node `idx`.
    #[inline]
    pub(crate) fn byte_of(idx: u32) -> u32 {
        idx / 4
    }

    pub(crate) fn len_bytes(&self) -> u32 {
        self.bytes.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, DpuSim};

    #[test]
    fn get_set_roundtrip_and_cost() {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut store = MetadataBackend::with_nodes(BackendKind::Wram, 31, 0);
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
        let mut store = MetadataBackend::with_nodes(BackendKind::Wram, 31, 0);
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
        let store = MetadataBackend::new(BackendKind::Wram, &geometry, 0);
        assert_eq!(bytes, store.bits.len_bytes());
        assert!(bytes <= 513);
    }

    #[test]
    fn node_state_bits_roundtrip() {
        for s in [
            NodeState::Free,
            NodeState::Split,
            NodeState::Allocated,
            NodeState::SplitFull,
        ] {
            assert_eq!(NodeState::from_bits(s.to_bits()), s);
        }
    }

    #[test]
    #[should_panic(expected = "invalid node state")]
    fn bad_bits_panic() {
        NodeState::from_bits(4);
    }

    #[test]
    fn fullness_classification() {
        assert!(!NodeState::Free.is_full());
        assert!(!NodeState::Split.is_full());
        assert!(NodeState::Allocated.is_full());
        assert!(NodeState::SplitFull.is_full());
    }

    #[test]
    fn bitarray_packs_four_nodes_per_byte() {
        let mut a = BitArray::new(16);
        a.set(1, NodeState::Split);
        a.set(2, NodeState::Allocated);
        a.set(3, NodeState::SplitFull);
        a.set(4, NodeState::Allocated);
        assert_eq!(a.get(1), NodeState::Split);
        assert_eq!(a.get(2), NodeState::Allocated);
        assert_eq!(a.get(3), NodeState::SplitFull);
        assert_eq!(a.get(4), NodeState::Allocated);
        // Neighbors unaffected.
        assert_eq!(a.get(5), NodeState::Free);
        a.clear();
        assert_eq!(a.get(3), NodeState::Free);
    }

    #[test]
    fn bitarray_byte_mapping() {
        assert_eq!(BitArray::byte_of(1), 0);
        assert_eq!(BitArray::byte_of(4), 1);
        assert_eq!(BitArray::byte_of(7), 1);
        assert_eq!(BitArray::byte_of(8), 2);
    }

    #[test]
    fn meta_stats_hit_rate() {
        let s = MetaStats {
            hits: 3,
            misses: 1,
            bytes_read: 10,
            bytes_written: 2,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.total_bytes(), 12);
        assert_eq!(MetaStats::default().hit_rate(), 0.0);
    }
}
