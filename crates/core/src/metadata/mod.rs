//! Buddy-tree metadata storage backends.
//!
//! The buddy allocator reads and writes 2-bit node states during tree
//! traversal. *Where* those bits live and *how* they are cached is the
//! crux of the paper's design space:
//!
//! * [`WramStore`] — the whole tree resides in scratchpad, as in
//!   UPMEM's stock 64 KB `buddy_alloc()`. Only feasible for tiny heaps.
//! * [`CoarseBufferStore`] — the tree resides in MRAM, with a
//!   software-managed WRAM buffer that caches one contiguous window and
//!   is flushed-and-reloaded wholesale on a miss (straw-man and
//!   PIM-malloc-SW).
//! * [`FineLruStore`] — a software LRU over small granules; fewer DRAM
//!   transfers but heavy per-access instruction overhead (the §IV-B
//!   ablation that regressed 29%).
//! * [`HwCacheStore`] — the paper's hardware buddy cache: a 16-entry
//!   CAM of 4-byte metadata words with single-cycle access
//!   (PIM-malloc-HW/SW).
//!
//! All stores implement [`MetadataStore`], charging their access costs
//! to the calling tasklet's [`TaskletCtx`].

mod coarse;
mod fine_lru;
mod hw_cache;
mod line_cache;
mod wram_store;

pub use coarse::CoarseBufferStore;
pub use fine_lru::FineLruStore;
pub use hw_cache::HwCacheStore;
pub use line_cache::LineCacheStore;
pub use wram_store::WramStore;

use pim_sim::TaskletCtx;
use serde::{Deserialize, Serialize};

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

/// Storage backend for 2-bit buddy-tree node states.
///
/// Implementations charge their access latency (WRAM instructions, DMA
/// transfers, buddy-cache operations) to the provided context.
pub trait MetadataStore {
    /// Reads the state of node `idx`.
    fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState;

    /// Writes the state of node `idx`.
    fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState);

    /// Resets every node to [`NodeState::Free`] and clears caches.
    /// Called by `initAllocator`; costs are charged to `ctx`.
    fn reset(&mut self, ctx: &mut TaskletCtx<'_>);

    /// Transfer/hit statistics since construction or the last reset.
    fn stats(&self) -> MetaStats;

    /// Reads a node state *without* charging any simulation cost.
    ///
    /// For invariant checks and tests only — a real DPU has no free
    /// metadata reads.
    fn peek(&self, idx: u32) -> NodeState;
}

/// A flat 2-bit-per-node array: the shared authoritative storage used
/// by every store implementation.
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

    /// The 4-byte metadata word `w`: nodes `16w..16w + 15`, node
    /// `16w + k` in bits `2k..2k + 1`. These are bytes `4w..4w + 3`
    /// read little-endian; the bytes past the array's end read as
    /// zero.
    #[inline]
    pub(crate) fn word(&self, w: u32) -> u32 {
        let start = 4 * w as usize;
        if let Some(le) = self.bytes.get(start..start + 4) {
            return u32::from_le_bytes(le.try_into().expect("four bytes"));
        }
        let tail = self.bytes.get(start..).unwrap_or_default();
        let mut le = [0u8; 4];
        le[..tail.len()].copy_from_slice(tail);
        u32::from_le_bytes(le)
    }

    /// Number of 4-byte metadata words covering nodes `0..=nodes`.
    pub(crate) fn word_count(&self) -> usize {
        self.nodes as usize / 16 + 1
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
    use proptest::prelude::*;

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

    /// Word `w` assembled node by node, as the hardware store did
    /// before it read the packed bytes.
    fn word_by_nodes(a: &BitArray, w: u32) -> u32 {
        (0..16)
            .map(|k| (16 * w + k, k))
            .filter(|&(n, _)| n >= 1 && n <= a.nodes)
            .fold(0, |word, (n, k)| {
                word | u32::from(a.get(n).to_bits()) << (2 * k)
            })
    }

    proptest! {
        /// Every word reads as its sixteen nodes, including a short last
        /// word (at 4,096 nodes it runs three bytes past the array).
        #[test]
        fn word_reads_match_node_by_node_assembly(
            sets in proptest::collection::vec((any::<u32>(), 0u8..4), 0..600),
        ) {
            for nodes in [1u32, 7, 63, 4096, 16_383] {
                let mut a = BitArray::new(nodes);
                for &(idx, bits) in &sets {
                    a.set(1 + idx % nodes, NodeState::from_bits(bits));
                }
                prop_assert_eq!(a.word_count(), nodes as usize / 16 + 1);
                for w in 0..a.word_count() as u32 {
                    prop_assert_eq!(a.word(w), word_by_nodes(&a, w), "{} nodes, word {}", nodes, w);
                }
            }
        }
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
