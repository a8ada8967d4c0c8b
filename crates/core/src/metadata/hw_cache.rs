//! Metadata store backed by a hardware CAM: the buddy cache of
//! PIM-malloc-HW/SW, or with wider entries §VII's general-purpose line
//! cache.
//!
//! Each CAM entry covers `bytes_per_entry` bytes of the MRAM-resident
//! tree (4 B, sixteen 2-bit node states, in the paper), tagged by their
//! MRAM address. The runtime follows Figure 13(b) of the paper:
//! `lookup_bc`; on a hit, `read_bc`; on a miss, fetch *only the
//! requested entry* from DRAM, evict the LRU entry (writing it back if
//! dirty), and install the entry with `write_bc`. Every cache operation
//! costs a single instruction, reflecting the 1-cycle CAM access. A
//! fill or a dirty write-back moves the entry, but at least one
//! minimum-size DMA: 8 B for the buddy cache's 4 B words.
//!
//! The §VII Discussion argues that a general-purpose data cache, which
//! "operates on coarse-grained cache lines (e.g., 64 bytes)", is a poor
//! home for the buddy tree's fine-grained metadata. That cache is this
//! store with 64 B entries: at equal capacity, wider entries mean fewer
//! of them — a 1 KB cache of 64 B lines covers 16 tree regions where
//! 8 B entries cover 128 — and buddy traversal touches many small,
//! scattered regions.
//!
//! On the host, an access that hits costs O(1): the store remembers
//! the CAM slot each entry was last found in and checks it before the
//! tag scan. The node states live in the store's node array; the CAM
//! model keeps only tags, dirty bits and LRU order.

use pim_sim::{BuddyCache, BuddyCacheConfig, BuddyCacheStats, LookupResult, TaskletCtx};

use super::{BitArray, MetaStats, NodeState};

/// Minimum MRAM DMA transfer on UPMEM hardware (PrIM, arXiv
/// 2105.03814).
const MIN_DMA_BYTES: u32 = 8;
/// Instructions of miss-path bookkeeping besides the DMA and cache ops.
const MISS_INSTRS: u64 = 40;

/// Bytes one fill or dirty write-back of a `width`-byte entry moves.
pub(super) fn transfer_bytes(width: u32) -> u32 {
    width.max(MIN_DMA_BYTES)
}

/// Hardware-CAM-backed metadata store.
#[derive(Debug, Clone)]
pub struct HwCacheStore {
    bits: BitArray,
    meta_base: u32,
    /// log2 of the nodes per entry (four nodes per byte), so node `idx`
    /// is in entry `idx >> shift`.
    shift: u32,
    /// Bytes per entry.
    width: u32,
    cache: BuddyCache,
    /// For each entry, the CAM slot it was last found in. Only a guess
    /// for [`BuddyCache::lookup_hinted`]: a stale slot, or one past 255
    /// cut to a byte, costs the tag scan and nothing else.
    slots: Vec<u8>,
    stats: MetaStats,
}

impl HwCacheStore {
    /// Creates a store for `nodes` nodes backed by MRAM at `meta_base`,
    /// with the given CAM configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `cache_config.bytes_per_entry` is a power of two
    /// of at least 4, or if the CAM has no entries.
    pub fn new(nodes: u32, meta_base: u32, cache_config: BuddyCacheConfig) -> Self {
        let width = cache_config.bytes_per_entry;
        assert!(
            width.is_power_of_two() && width >= 4,
            "CAM entry width must be a power of two of at least 4 bytes"
        );
        let bits = BitArray::new(nodes);
        HwCacheStore {
            slots: vec![0; bits.len_bytes().div_ceil(width) as usize],
            bits,
            meta_base,
            shift: 2 + width.trailing_zeros(),
            width,
            cache: BuddyCache::new(cache_config),
            stats: MetaStats::default(),
        }
    }

    /// Statistics of the underlying hardware cache.
    pub fn cache_stats(&self) -> BuddyCacheStats {
        self.cache.stats()
    }

    /// Ensures node `idx`'s entry is cached; charges lookup and, on a
    /// miss, the fill path (DMA + eviction write-back + `write_bc`).
    fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> usize {
        let entry = idx >> self.shift;
        let addr = self.meta_base + entry * self.width;
        // The getMetadata wrapper's call and index math overhead is
        // common with the SW path; only the buffer search is hardware.
        ctx.instrs(15); // call + index math + lookup_bc
        let hint = usize::from(self.slots[entry as usize]);
        let slot = match self.cache.lookup_hinted(addr, hint) {
            LookupResult::Hit(slot) => {
                self.stats.hits += 1;
                slot
            }
            LookupResult::Miss => {
                self.stats.misses += 1;
                ctx.instrs(MISS_INSTRS);
                let bytes = transfer_bytes(self.width);
                ctx.mram_read(addr, bytes);
                self.stats.bytes_read += u64::from(bytes);
                ctx.instrs(1); // write_bc
                let (slot, victim) = self.cache.fill(addr);
                if let Some(victim) = victim.filter(|v| v.dirty) {
                    ctx.mram_write(victim.addr, bytes);
                    self.stats.bytes_written += u64::from(bytes);
                }
                slot
            }
        };
        self.slots[entry as usize] = slot as u8;
        slot
    }

    pub(crate) fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        self.ensure(ctx, idx);
        ctx.instrs(10); // read_bc + 2-bit extract
        self.bits.get(idx)
    }

    pub(crate) fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        let slot = self.ensure(ctx, idx);
        ctx.instrs(10); // write_bc (update in place, marks dirty)
        self.bits.set(idx, state);
        self.cache.update(slot);
    }

    pub(crate) fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
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
    use pim_sim::{DpuConfig, DpuSim};
    use proptest::prelude::*;

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    fn store(nodes: u32) -> HwCacheStore {
        HwCacheStore::new(nodes, 0x0800_0000, BuddyCacheConfig::default())
    }

    /// A store whose CAM holds `entries` entries of `width` bytes.
    fn cam(nodes: u32, entries: usize, width: u32) -> HwCacheStore {
        HwCacheStore::new(
            nodes,
            0,
            BuddyCacheConfig {
                entries,
                bytes_per_entry: width,
            },
        )
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
        let mut s = cam(1 << 16, 1, 4);
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
    fn fills_and_write_backs_move_the_entry_or_one_minimum_dma() {
        // Per entry width: the nodes one entry covers, and the bytes a
        // fill or a dirty write-back moves.
        for (width, nodes_per_entry, moved) in [(4, 16, 8u32), (8, 32, 8), (64, 256, 64)] {
            let mut d = dpu();
            let mut s = cam(1 << 16, 1, width);
            let mut ctx = d.ctx(0);
            s.set(&mut ctx, 1, NodeState::Split); // entry 0: fill, dirty
            let _ = s.get(&mut ctx, nodes_per_entry - 1); // same entry
            let _ = s.get(&mut ctx, nodes_per_entry); // entry 1 evicts entry 0
            let stats = s.stats();
            assert_eq!(stats.misses, 2, "{width} B entries");
            assert_eq!(stats.bytes_read, 2 * u64::from(moved), "{width} B fills");
            assert_eq!(
                stats.bytes_written,
                u64::from(moved),
                "{width} B write-back"
            );
            let traffic = d.traffic();
            assert_eq!(
                (traffic.bytes_read, traffic.bytes_written),
                (stats.bytes_read, stats.bytes_written),
                "{width} B entries: the DMAs charged are the ones counted"
            );
        }
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
            let mut s = cam(1023, entries, 4);
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

    #[test]
    fn one_line_covers_its_nodes() {
        let mut d = dpu();
        // 64 B lines: 256 nodes per line.
        let mut s = cam(1 << 12, 16, 64);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1);
        for idx in 2..256 {
            let _ = s.get(&mut ctx, idx);
        }
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().bytes_read, 64, "one line fill");
    }

    #[test]
    fn set_roundtrips_and_dirty_lines_write_back_whole_lines() {
        let mut d = dpu();
        // One-entry cache of 64 B lines.
        let mut s = cam(1 << 16, 1, 64);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split);
        assert_eq!(s.get(&mut ctx, 1), NodeState::Split);
        // Touch a far line: the dirty 64 B line is written back whole.
        let far = 64 * 4 * 8;
        let _ = s.get(&mut ctx, far);
        assert_eq!(s.stats().bytes_written, 64);
        assert_eq!(s.peek(1), NodeState::Split);
    }

    #[test]
    fn equal_capacity_wider_lines_hit_less_on_scattered_paths() {
        // The §VII granularity-mismatch argument: walk root-to-leaf
        // paths (scattered across levels) with equal-capacity caches.
        let nodes = 1 << 20;
        let run = |line: u32| {
            let mut d = dpu();
            let mut s = cam(nodes, (512 / line) as usize, line);
            let mut ctx = d.ctx(0);
            for start in 0..64u32 {
                let mut idx = 1 + start;
                while idx < nodes {
                    let _ = s.get(&mut ctx, idx);
                    idx *= 2;
                }
            }
            (s.stats().hit_rate(), s.stats().total_bytes())
        };
        let (fine_hits, fine_bytes) = run(8);
        let (coarse_hits, coarse_bytes) = run(64);
        assert!(
            fine_hits >= coarse_hits,
            "fine granularity must hit at least as often: {fine_hits} vs {coarse_hits}"
        );
        assert!(
            fine_bytes < coarse_bytes,
            "fine granularity must move fewer bytes: {fine_bytes} vs {coarse_bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn bad_capacity_rejected() {
        cam(16, 0, 64);
    }

    #[test]
    #[should_panic(expected = "power of two of at least 4 bytes")]
    fn entry_width_must_be_a_power_of_two_of_at_least_4() {
        cam(16, 1, 96);
    }
}
