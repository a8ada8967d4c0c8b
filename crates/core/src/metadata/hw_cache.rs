//! The fully associative LRU over an MRAM-resident tree: the buddy
//! cache of PIM-malloc-HW/SW, §VII's general-purpose line cache, or
//! the §IV-B software LRU.
//!
//! Each entry covers `bytes_per_entry` bytes of the MRAM-resident tree
//! (4 B, sixteen 2-bit node states, in the paper), tagged by their
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
//! LRU with 64 B entries: at equal capacity, wider entries mean fewer
//! of them — a 1 KB cache of 64 B lines covers 16 tree regions where
//! 8 B entries cover 128 — and buddy traversal touches many small,
//! scattered regions.
//!
//! Before adding hardware, the paper tried managing the WRAM metadata
//! buffer at a fine granularity with a software LRU policy. It *does*
//! cut DRAM transfers, but tag search and LRU maintenance are ordinary
//! DPU instructions, and that per-access software overhead swamps the
//! savings — a 29% regression on the 16-thread 4 KB microbenchmark.
//! That buffer is the same fully associative true LRU; only its
//! [`PriceList`] differs.
//!
//! On the host, a hit costs O(1): the LRU checks the slot each entry
//! was last found in before the tag scan. The node states live in the
//! store's node array; the cache model keeps tags, dirty bits and
//! LRU order.

use pim_sim::{BuddyCache, BuddyCacheConfig, BuddyCacheStats, LookupResult, TaskletCtx};

use super::MetaStats;

/// Minimum MRAM DMA transfer on UPMEM hardware (PrIM, arXiv
/// 2105.03814).
const MIN_DMA_BYTES: u32 = 8;
/// Instructions of the CAM's miss-path bookkeeping besides the DMA and
/// cache ops.
const MISS_INSTRS: u64 = 40;
/// Instructions per tag-compare step of the software lookup loop.
const SCAN_INSTRS_PER_ENTRY: u64 = 4;
/// Instructions to maintain the software LRU list on every access: a
/// doubly-linked list splice in WRAM (six pointer loads/stores plus
/// head/tail updates and branches) on an ISA with no indexed
/// addressing modes.
const LRU_UPDATE_INSTRS: u64 = 80;
/// Instructions of software miss handling besides the DMA itself.
const SW_MISS_INSTRS: u64 = 30;

/// Bytes one fill or dirty write-back of a `width`-byte entry moves.
pub(super) fn transfer_bytes(width: u32) -> u32 {
    width.max(MIN_DMA_BYTES)
}

/// What an LRU access costs, in DPU instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PriceList {
    /// Every access, before the tag search.
    lookup: u64,
    /// Each tag a software search compares, most recent first; a CAM
    /// compares every tag at once.
    per_entry: u64,
    /// Every miss, besides its DMAs.
    miss: u64,
    /// One CAM operation: `write_bc` after a fill, `init_bc` at reset.
    cam_op: u64,
    /// Every access, after the tag search.
    read_write: u64,
}

/// The buddy cache's prices. The `getMetadata` wrapper's call and
/// index math are common with the software path (15 with
/// `lookup_bc`); only the buffer search is hardware. `read_bc` or
/// `write_bc` plus the 2-bit extract take 10.
pub(super) const HARDWARE: PriceList = PriceList {
    lookup: 15,
    per_entry: 0,
    miss: MISS_INSTRS,
    cam_op: 1,
    read_write: 10,
};

/// The §IV-B software LRU's prices: a tag scan in MRU order and a list
/// splice on every access, and no CAM operations.
pub(super) const SOFTWARE: PriceList = PriceList {
    lookup: LRU_UPDATE_INSTRS,
    per_entry: SCAN_INSTRS_PER_ENTRY,
    miss: SW_MISS_INSTRS,
    cam_op: 0,
    read_write: 0,
};

/// The LRU placement's state: the cache model and its prices.
#[derive(Debug)]
pub(super) struct Lru {
    /// log2 of the nodes per entry (four nodes per byte), so node `idx`
    /// is in entry `idx >> shift`.
    shift: u32,
    /// Bytes per entry.
    width: u32,
    cache: BuddyCache,
    prices: PriceList,
    /// For each entry, the slot it was last found in. Only a guess for
    /// [`BuddyCache::lookup_hinted`]: a stale slot, or one past 255 cut
    /// to a byte, costs the tag scan and nothing else.
    slots: Vec<u8>,
}

impl Lru {
    /// An empty LRU over `meta_len` bytes of metadata. Panics unless
    /// `config` has entries of a power of two of at least 4 bytes.
    pub(super) fn new(meta_len: u32, config: BuddyCacheConfig, prices: PriceList) -> Self {
        let width = config.bytes_per_entry;
        assert!(
            width.is_power_of_two() && width >= 4,
            "CAM entry width must be a power of two of at least 4 bytes"
        );
        Lru {
            shift: 2 + width.trailing_zeros(),
            width,
            cache: BuddyCache::new(config),
            prices,
            slots: vec![0; meta_len.div_ceil(width) as usize],
        }
    }

    /// Statistics of the cache, if it is the hardware CAM.
    pub(super) fn cam_stats(&self) -> Option<BuddyCacheStats> {
        (self.prices == HARDWARE).then(|| self.cache.stats())
    }

    /// `init_bc`: empties the cache.
    pub(super) fn init(&mut self, ctx: &mut TaskletCtx<'_>) {
        ctx.instrs(self.prices.cam_op);
        self.cache.init();
    }

    /// Charges one access to node `idx`: the tag search and, on a miss,
    /// the fill (DMA, `write_bc`, dirty victim's write-back).
    #[inline]
    pub(super) fn access(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        stats: &mut MetaStats,
        meta_base: u32,
        idx: u32,
        write: bool,
    ) {
        let p = self.prices;
        let entry = idx >> self.shift;
        let addr = meta_base + entry * self.width;
        // A software search pays for each tag it compares: up to the
        // match, or every valid entry on a miss.
        let scanned = if p.per_entry == 0 {
            0
        } else {
            let compared = self.cache.recency(addr).map(|r| r + 1);
            compared.unwrap_or(self.cache.valid_entries()).max(1) as u64
        };
        ctx.instrs(p.lookup + scanned * p.per_entry);
        let hint = usize::from(self.slots[entry as usize]);
        let slot = match self.cache.lookup_hinted(addr, hint) {
            LookupResult::Hit(slot) => {
                stats.hits += 1;
                slot
            }
            LookupResult::Miss => {
                stats.misses += 1;
                ctx.instrs(p.miss);
                let bytes = transfer_bytes(self.width);
                ctx.mram_read(addr, bytes);
                stats.bytes_read += u64::from(bytes);
                ctx.instrs(p.cam_op);
                let (slot, victim) = self.cache.fill(addr);
                if let Some(victim) = victim.filter(|v| v.dirty) {
                    ctx.mram_write(victim.addr, bytes);
                    stats.bytes_written += u64::from(bytes);
                }
                slot
            }
        };
        self.slots[entry as usize] = slot as u8;
        ctx.instrs(p.read_write);
        if write {
            self.cache.update(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{BackendKind, BitArray, MetadataBackend, NodeState};
    use pim_sim::{Cycles, DpuConfig, DpuSim};
    use proptest::prelude::*;

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    fn store(nodes: u32) -> MetadataBackend {
        let kind = BackendKind::HwCache {
            cache: BuddyCacheConfig::default(),
        };
        MetadataBackend::with_nodes(kind, nodes, 0x0800_0000)
    }

    /// A store behind a CAM of `entries` entries of `width` bytes.
    fn cam(nodes: u32, entries: usize, width: u32) -> MetadataBackend {
        let cache = BuddyCacheConfig {
            entries,
            bytes_per_entry: width,
        };
        MetadataBackend::with_nodes(BackendKind::HwCache { cache }, nodes, 0)
    }

    /// A store behind a software LRU of `entries` granules of
    /// `granule_bytes`.
    fn software(nodes: u32, entries: usize, granule_bytes: u32) -> MetadataBackend {
        let kind = BackendKind::FineLru {
            entries,
            granule_bytes,
        };
        MetadataBackend::with_nodes(kind, nodes, 0)
    }

    fn coarse(nodes: u32) -> MetadataBackend {
        MetadataBackend::with_nodes(BackendKind::Coarse { buffer_bytes: 2048 }, nodes, 0)
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
        // A one-entry CAM of 4 B words, and two 8 B entries: touching one
        // entry more than fits evicts entry 0, the least recently used
        // and dirty one.
        for (width, fits) in [(4u32, 1u32), (8, 2)] {
            let mut d = dpu();
            let mut s = cam(1 << 16, fits as usize, width);
            let mut ctx = d.ctx(0);
            s.set(&mut ctx, 1, NodeState::Split); // entry 0, dirty
            for entry in 1..=fits {
                let _ = s.get(&mut ctx, entry * width * 4);
            }
            let what = format!("{fits} x {width} B");
            assert_eq!(s.stats().bytes_written, 8, "{what}");
            assert_eq!(s.peek(1), NodeState::Split, "{what}: value preserved");
        }
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
        assert!(s.cam_stats().unwrap().hit_rate() > 0.8);
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
            let (cam, store) = (s.cam_stats().unwrap(), s.stats());
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
        assert_eq!(s.cam_stats().unwrap().hits, 0);
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
    fn hits_avoid_dram_but_cost_instructions() {
        let mut d = dpu();
        let mut s = software(1 << 16, 8, 8);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1); // cold miss
        let read_after_miss = s.stats().bytes_read;
        let t0 = ctx.now();
        let _ = s.get(&mut ctx, 1); // hit
        let hit_cost = ctx.now() - t0;
        assert_eq!(s.stats().bytes_read, read_after_miss);
        assert!(hit_cost > Cycles::ZERO, "software lookup is never free");
        assert_eq!(s.cam_stats(), None, "a software LRU is no CAM");
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty() {
        let mut d = dpu();
        // 2 entries of 8 bytes: granule k covers bytes [8k, 8k+8).
        let mut s = software(1 << 16, 2, 8);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split); // granule 0, dirty
        let _ = s.get(&mut ctx, 8 * 4); // granule 1
        let _ = s.get(&mut ctx, 16 * 4); // granule 2 → evicts granule 0 (dirty)
        assert_eq!(s.stats().bytes_written, 8);
        // Value is preserved in the authoritative array.
        assert_eq!(s.peek(1), NodeState::Split);
    }

    #[test]
    fn transfers_fewer_bytes_than_coarse_on_scattered_access() {
        let nodes = 1 << 20;
        let mut d1 = dpu();
        let mut fine = software(nodes, 64, 8);
        let mut d2 = dpu();
        let mut coarse = coarse(nodes);
        // Ping-pong between two far-apart regions: coarse thrashes its
        // single window, fine keeps both resident.
        for round in 0..50u32 {
            for &base in &[1u32, 1 << 18] {
                let idx = base + (round % 4);
                let mut c1 = d1.ctx(0);
                let _ = fine.get(&mut c1, idx);
                let mut c2 = d2.ctx(0);
                let _ = coarse.get(&mut c2, idx);
            }
        }
        assert!(
            fine.stats().total_bytes() < coarse.stats().total_bytes() / 10,
            "fine {} vs coarse {}",
            fine.stats().total_bytes(),
            coarse.stats().total_bytes()
        );
    }

    #[test]
    fn per_access_instruction_overhead_exceeds_coarse_hit() {
        // A realistic traversal touches many granules; the software tag
        // scan then pays for its position in the LRU list, while a
        // coarse-window hit is a constant-cost range check.
        let nodes = 1 << 16;
        let mut d1 = dpu();
        let mut fine = software(nodes, 64, 8);
        let granule_nodes = 8 * 4; // one 8 B granule covers 32 nodes
        let working_set: Vec<u32> = (0..32u32).map(|g| 1 + g * granule_nodes).collect();
        // Warm all granules.
        let mut c1 = d1.ctx(0);
        for &idx in &working_set {
            let _ = fine.get(&mut c1, idx);
        }
        let t0 = c1.now();
        for &idx in &working_set {
            let _ = fine.get(&mut c1, idx);
        }
        let fine_hit = Cycles((c1.now() - t0).0 / working_set.len() as u64);

        let mut d2 = dpu();
        let mut coarse = coarse(nodes);
        let mut c2 = d2.ctx(0);
        let _ = coarse.get(&mut c2, 1);
        let t0 = c2.now();
        let _ = coarse.get(&mut c2, 2);
        let coarse_hit = c2.now() - t0;
        assert!(
            fine_hit.0 > coarse_hit.0 * 2,
            "software LRU access ({fine_hit}) must be much costlier than a window hit ({coarse_hit})"
        );
    }

    /// The deleted fine-grained software LRU store, kept as the
    /// reference for [`SOFTWARE`]: `resident` lists the cached granules
    /// most recently used first, a hit moves one to the front, and a
    /// full list writes back its last granule (if dirty) before a fill.
    struct MruListLru {
        bits: BitArray,
        meta_base: u32,
        granule_bytes: u32,
        /// (granule start byte, dirty), most recently used first.
        resident: Vec<(u32, bool)>,
        capacity: usize,
        stats: MetaStats,
    }

    impl MruListLru {
        fn new(nodes: u32, meta_base: u32, entries: usize, granule_bytes: u32) -> Self {
            MruListLru {
                bits: BitArray::new(nodes),
                meta_base,
                granule_bytes,
                resident: Vec::with_capacity(entries),
                capacity: entries,
                stats: MetaStats::default(),
            }
        }

        fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, write: bool) {
            let granule = BitArray::byte_of(idx) & !(self.granule_bytes - 1);
            let pos = self.resident.iter().position(|&(g, _)| g == granule);
            let scanned = pos.map(|p| p + 1).unwrap_or(self.resident.len()).max(1);
            ctx.instrs(scanned as u64 * SCAN_INSTRS_PER_ENTRY + LRU_UPDATE_INSTRS);
            match pos {
                Some(p) => {
                    self.stats.hits += 1;
                    let mut entry = self.resident.remove(p);
                    entry.1 |= write;
                    self.resident.insert(0, entry);
                }
                None => {
                    self.stats.misses += 1;
                    ctx.instrs(SW_MISS_INSTRS);
                    if self.resident.len() == self.capacity {
                        if let Some((victim, true)) = self.resident.pop() {
                            ctx.mram_write(self.meta_base + victim, self.granule_bytes);
                            self.stats.bytes_written += u64::from(self.granule_bytes);
                        }
                    }
                    ctx.mram_read(self.meta_base + granule, self.granule_bytes);
                    self.stats.bytes_read += u64::from(self.granule_bytes);
                    self.resident.insert(0, (granule, write));
                }
            }
        }

        fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
            self.ensure(ctx, idx, false);
            self.bits.get(idx)
        }

        fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
            self.ensure(ctx, idx, true);
            self.bits.set(idx, state);
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The software price list on the CAM's LRU charges what the
        /// MRU-list store charged. It fills before it writes a dirty
        /// victim back, where the list wrote back first; both DMAs move
        /// one granule with no instruction between them, so every
        /// clock, stat and byte count agrees after every access.
        #[test]
        fn software_lru_matches_the_deleted_fine_lru(
            entries in 1usize..9,
            granule_log2 in 3u32..7,
            tasklets in 1usize..5,
            ops in proptest::collection::vec((0usize..4, 1u32..4096, 0u8..5), 1..300),
        ) {
            let granule_bytes = 1 << granule_log2;
            let mut s = software(4095, entries, granule_bytes);
            let mut list = MruListLru::new(4095, 0, entries, granule_bytes);
            let config = DpuConfig::default().with_tasklets(tasklets);
            let (mut d, mut d_list) = (DpuSim::new(config.clone()), DpuSim::new(config));
            for (tid, idx, op) in ops {
                let tid = tid % tasklets;
                let (mut ctx, mut ctx_list) = (d.ctx(tid), d_list.ctx(tid));
                match op {
                    0..=3 => {
                        s.set(&mut ctx, idx, NodeState::from_bits(op));
                        list.set(&mut ctx_list, idx, NodeState::from_bits(op));
                    }
                    _ => prop_assert_eq!(s.get(&mut ctx, idx), list.get(&mut ctx_list, idx)),
                }
                for t in 0..tasklets {
                    prop_assert_eq!(d.clock(t), d_list.clock(t));
                    prop_assert_eq!(d.tasklet_stats(t), d_list.tasklet_stats(t));
                }
                prop_assert_eq!(d.traffic(), d_list.traffic());
                prop_assert_eq!(s.stats(), list.stats);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn bad_capacity_rejected() {
        cam(16, 0, 64);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        software(16, 0, 8);
    }

    #[test]
    #[should_panic(expected = "power of two of at least 4 bytes")]
    fn entry_width_must_be_a_power_of_two_of_at_least_4() {
        cam(16, 1, 96);
    }
}
