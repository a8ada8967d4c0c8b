//! Metadata store backed by the hardware buddy cache (PIM-malloc-HW/SW).
//!
//! Each buddy-cache entry holds one 4-byte metadata *word* — sixteen
//! 2-bit node states — keyed by its MRAM address. The runtime follows
//! Figure 13(b) of the paper: `lookup_bc`; on a hit, `read_bc`; on a
//! miss, fetch *only the requested word* from DRAM (one minimum-size
//! DMA beat), evict the LRU entry (writing it back if dirty), and
//! install the word with `write_bc`. Every cache operation costs a
//! single instruction, reflecting the 1-cycle CAM access.
//!
//! On the host, an access that hits costs O(1): the store remembers
//! the CAM slot each word was last found in and checks it before the
//! tag scan, and it reads a word straight from the packed node array.

use pim_sim::{BuddyCache, BuddyCacheConfig, BuddyCacheStats, LookupResult, TaskletCtx};

use super::{BitArray, MetaStats, MetadataStore, NodeState};

/// Minimum DMA transfer size on UPMEM hardware.
const DMA_GRANULE: u32 = 8;
/// Instructions of miss-path bookkeeping besides the DMA and cache ops.
const MISS_INSTRS: u64 = 40;

/// Hardware-buddy-cache-backed metadata store.
#[derive(Debug, Clone)]
pub struct HwCacheStore {
    bits: BitArray,
    meta_base: u32,
    cache: BuddyCache,
    /// For each metadata word, the CAM slot it was last found in. Only
    /// a guess for [`BuddyCache::lookup_hinted`]: a stale slot, or one
    /// past 255 cut to a byte, costs the tag scan and nothing else.
    slots: Vec<u8>,
    stats: MetaStats,
}

impl HwCacheStore {
    /// Creates a store for `nodes` nodes backed by MRAM at `meta_base`,
    /// with the given buddy-cache configuration.
    pub fn new(nodes: u32, meta_base: u32, cache_config: BuddyCacheConfig) -> Self {
        let bits = BitArray::new(nodes);
        HwCacheStore {
            slots: vec![0; bits.word_count()],
            bits,
            meta_base,
            cache: BuddyCache::new(cache_config),
            stats: MetaStats::default(),
        }
    }

    /// Statistics of the underlying hardware cache.
    pub fn cache_stats(&self) -> BuddyCacheStats {
        self.cache.stats()
    }

    /// Ensures node `idx`'s word is cached; charges lookup and, on a
    /// miss, the fill path (DMA + eviction write-back + `write_bc`).
    fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> usize {
        let word = idx / 16;
        // MRAM address of the 4-byte word holding node `idx`.
        let addr = self.meta_base + 4 * word;
        // The getMetadata wrapper's call and index math overhead is
        // common with the SW path; only the buffer search is hardware.
        ctx.instrs(15); // call + index math + lookup_bc
        let hint = usize::from(self.slots[word as usize]);
        let slot = match self.cache.lookup_hinted(addr, hint) {
            LookupResult::Hit(slot) => {
                self.stats.hits += 1;
                slot
            }
            LookupResult::Miss => {
                self.stats.misses += 1;
                ctx.instrs(MISS_INSTRS);
                // Fetch only the requested word (one minimum DMA beat).
                ctx.mram_read(addr, DMA_GRANULE);
                self.stats.bytes_read += u64::from(DMA_GRANULE);
                ctx.instrs(1); // write_bc
                let (slot, victim) = self.cache.fill(addr, self.bits.word(word));
                if let Some(victim) = victim.filter(|v| v.dirty) {
                    ctx.mram_write(victim.addr, DMA_GRANULE);
                    self.stats.bytes_written += u64::from(DMA_GRANULE);
                }
                slot
            }
        };
        self.slots[word as usize] = slot as u8;
        slot
    }
}

impl MetadataStore for HwCacheStore {
    fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        let slot = self.ensure(ctx, idx);
        ctx.instrs(10); // read_bc + 2-bit extract
        let word = self.cache.read(slot);
        NodeState::from_bits(((word >> (2 * (idx % 16))) & 0b11) as u8)
    }

    fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        let slot = self.ensure(ctx, idx);
        ctx.instrs(10); // write_bc (update in place, marks dirty)
        self.bits.set(idx, state);
        self.cache.update(slot, self.bits.word(idx / 16));
    }

    fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        // Zero the MRAM metadata and init_bc the cache.
        let len = self.bits.len_bytes();
        let mut off = 0;
        while off < len {
            let chunk = 2048.min(len - off);
            ctx.mram_write(self.meta_base + off, chunk);
            off += chunk;
        }
        ctx.instrs(1); // init_bc
        self.bits.clear();
        self.cache.init();
        self.stats = MetaStats::default();
    }

    fn stats(&self) -> MetaStats {
        self.stats
    }

    fn peek(&self, idx: u32) -> NodeState {
        self.bits.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, DpuSim};
    use proptest::prelude::*;

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    fn store(nodes: u32) -> HwCacheStore {
        HwCacheStore::new(nodes, 0x0800_0000, BuddyCacheConfig::default())
    }

    #[test]
    fn sixteen_nodes_share_one_cached_word() {
        let mut d = dpu();
        let mut s = store(1 << 12);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 16); // cold miss fetches word for nodes 16..31
        for idx in 17..32 {
            let _ = s.get(&mut ctx, idx);
        }
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().hits, 15);
        assert_eq!(s.stats().bytes_read, 8, "only one beat fetched");
    }

    #[test]
    fn set_then_get_roundtrips_through_the_cam() {
        let mut d = dpu();
        let mut s = store(1 << 12);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 100, NodeState::SplitFull);
        assert_eq!(s.get(&mut ctx, 100), NodeState::SplitFull);
        assert_eq!(s.peek(100), NodeState::SplitFull);
        // Neighbors in the same word are unaffected.
        assert_eq!(s.get(&mut ctx, 101), NodeState::Free);
    }

    #[test]
    fn dirty_eviction_writes_back_one_beat() {
        let mut d = dpu();
        // One-entry cache: every new word evicts the previous one.
        let mut s = HwCacheStore::new(
            1 << 16,
            0,
            BuddyCacheConfig {
                entries: 1,
                bytes_per_entry: 4,
            },
        );
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split); // word 0, dirty
        let _ = s.get(&mut ctx, 64); // word 4 → evicts dirty word 0
        assert_eq!(s.stats().bytes_written, 8);
        assert_eq!(
            s.peek(1),
            NodeState::Split,
            "write-back preserved the value"
        );
    }

    #[test]
    fn misses_transfer_far_less_than_a_coarse_window() {
        let mut d = dpu();
        let mut s = store(1 << 20);
        let mut ctx = d.ctx(0);
        // Walk a root-to-leaf path: 20 scattered words.
        let mut idx = 1u32;
        while idx < (1 << 20) {
            let _ = s.get(&mut ctx, idx);
            idx *= 2;
        }
        // 8 B per miss vs the 2048 B a coarse window would move.
        assert!(s.stats().bytes_read <= 8 * 20);
    }

    #[test]
    fn repeated_path_traversal_hits_after_warmup() {
        let mut d = dpu();
        let mut s = store(1 << 12);
        let mut ctx = d.ctx(0);
        let path: Vec<u32> = (0..8).map(|l| 1u32 << l).collect();
        for &n in &path {
            let _ = s.get(&mut ctx, n);
        }
        let cold_misses = s.stats().misses;
        for _ in 0..10 {
            for &n in &path {
                let _ = s.get(&mut ctx, n);
            }
        }
        assert_eq!(
            s.stats().misses,
            cold_misses,
            "upper-tree words must stay resident (temporal locality)"
        );
        assert!(s.cache_stats().hit_rate() > 0.8);
    }

    proptest! {
        /// The CAM counts one lookup per store access, so its hits and
        /// misses are the store's.
        #[test]
        fn cache_counts_one_lookup_per_access(
            entries in 1usize..6,
            ops in proptest::collection::vec((1u32..1024, 0u8..5), 1..300),
        ) {
            let mut d = dpu();
            let mut s = HwCacheStore::new(
                1023,
                0,
                BuddyCacheConfig { entries, bytes_per_entry: 4 },
            );
            let mut ctx = d.ctx(0);
            for (idx, op) in ops {
                match op {
                    0..=3 => s.set(&mut ctx, idx, NodeState::from_bits(op)),
                    _ => { s.get(&mut ctx, idx); }
                }
            }
            let (cam, store) = (s.cache_stats(), s.stats());
            prop_assert_eq!((cam.hits, cam.misses), (store.hits, store.misses));
        }
    }

    #[test]
    fn reset_initializes_cache_and_metadata() {
        let mut d = dpu();
        let mut s = store(1 << 12);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 5, NodeState::Allocated);
        s.reset(&mut ctx);
        assert_eq!(s.peek(5), NodeState::Free);
        assert_eq!(s.stats(), MetaStats::default());
        assert_eq!(s.cache_stats().hits, 0);
    }
}
