//! The per-tasklet thread cache — PIM-malloc's frontend (§IV-A).
//!
//! Each tasklet owns one [`ThreadCache`] with eight size-class pools
//! (16 B … 2 KB by default). Each pool holds 4 KB blocks obtained from
//! the backend buddy allocator, subdivided into fixed-size sub-blocks
//! whose availability is tracked by a per-block bitmap (bit = 1 means
//! free, as in Figure 9(b) of the paper). Because the cache is private
//! to its tasklet, no mutex is needed: small allocations are O(1) and
//! contention-free.
//!
//! Every alloc pays for each block and bitmap word its scan examines,
//! and every free for each block it searches to find the freed
//! address.
//!
//! Each block also keeps a second bitmap of *remote* marks: a slot
//! freed by another tasklet ([`ThreadCache::free_remote`]) is marked
//! while it stays cached, and the [`ThreadCache::alloc`] that reuses it
//! reports and clears the mark. [`crate::PimMalloc`] prices
//! cross-tasklet frees from these marks; a released block takes its
//! marks with it.

use pim_sim::TaskletCtx;

use crate::geometry::SizeClassTable;

/// The paper's default size classes: powers of two from 16 B to 2 KB.
pub const DEFAULT_SIZE_CLASSES: [u32; 8] = [16, 32, 64, 128, 256, 512, 1024, 2048];

/// Size of the blocks the frontend requests from the backend.
pub const CACHE_BLOCK_BYTES: u32 = 4096;

/// Fixed instructions of a frontend alloc/free attempt: size-class
/// lookup (a loop over classes on a core without a divider), list-head
/// load, and call overhead.
const REQUEST_INSTRS: u64 = 120;
/// Instructions per 4 KB block examined while scanning a class list.
const BLOCK_SCAN_INSTRS: u64 = 6;
/// Instructions per bitmap word examined.
const WORD_SCAN_INSTRS: u64 = 8;
/// Instructions to flip a bitmap bit and compute the sub-block address.
const BIT_OP_INSTRS: u64 = 30;

/// Marks the first `slots` positions free (bit = 1) and every padding
/// bit beyond them busy (bit = 0).
///
/// No shift here can reach 64: deriving the tail as "slots remaining
/// in the last word" (a count in `1..=64`) and computing
/// `(1u64 << tail) - 1` overflows for slot counts on a word boundary
/// (64-, 128-, 192-slot classes…) — a debug panic, or in release a
/// wrapped shift that marks the whole tail word busy.
fn init_free_mask(slots: u32, words: &mut [u64]) {
    debug_assert!(
        slots as usize <= words.len() * 64,
        "{slots} slots exceed {} bitmap words",
        words.len()
    );
    for (wi, word) in words.iter_mut().enumerate() {
        let below = wi as u32 * 64;
        *word = match slots.saturating_sub(below).min(64) {
            0 => 0,
            64 => u64::MAX,
            in_word => (1u64 << in_word) - 1,
        };
    }
}

/// One 4 KB block subdivided into `class_bytes` sub-blocks.
#[derive(Debug, Clone)]
struct CacheBlock {
    base: u32,
    /// Bitmap of sub-blocks, 1 = free.
    bitmap: Vec<u64>,
    /// Bitmap of free sub-blocks last freed by another tasklet and not
    /// yet reused, 1 = remote.
    remote: Vec<u64>,
    free_slots: u32,
    slots: u32,
}

impl CacheBlock {
    fn new(base: u32, class_bytes: u32) -> Self {
        let slots = CACHE_BLOCK_BYTES / class_bytes;
        let words = (slots as usize).div_ceil(64);
        let mut bitmap = vec![0u64; words];
        init_free_mask(slots, &mut bitmap);
        CacheBlock {
            base,
            bitmap,
            remote: vec![0; words],
            free_slots: slots,
            slots,
        }
    }

    fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.base + CACHE_BLOCK_BYTES
    }
}

/// One size-class pool: a list of 4 KB blocks plus their bitmaps.
#[derive(Debug, Clone)]
pub struct SizeClassPool {
    class_bytes: u32,
    blocks: Vec<CacheBlock>,
}

impl SizeClassPool {
    fn new(class_bytes: u32) -> Self {
        SizeClassPool {
            class_bytes,
            blocks: Vec::new(),
        }
    }

    /// Sub-block size of this pool.
    pub fn class_bytes(&self) -> u32 {
        self.class_bytes
    }

    /// Number of 4 KB blocks currently held.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Free sub-blocks across all blocks.
    pub fn free_slots(&self) -> u32 {
        self.blocks.iter().map(|b| b.free_slots).sum()
    }
}

/// A sub-block handed out by [`ThreadCache::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Address of the sub-block.
    pub addr: u32,
    /// Another tasklet freed it last ([`ThreadCache::free_remote`]);
    /// this alloc cleared the mark.
    pub remote: bool,
}

/// Outcome of [`ThreadCache::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The sub-block was returned to its pool.
    Cached,
    /// The containing 4 KB block became fully free and was detached;
    /// the caller must return `block_base` to the backend.
    BlockReleased {
        /// Base address of the released 4 KB block.
        block_base: u32,
    },
}

/// A private, mutex-free allocation frontend for one tasklet.
#[derive(Debug, Clone)]
pub struct ThreadCache {
    pools: Vec<SizeClassPool>,
}

impl ThreadCache {
    /// Creates an empty cache over the shared size-class geometry
    /// (class validation and `class_for` lookup live on
    /// [`SizeClassTable`]).
    pub fn new(size_classes: &SizeClassTable) -> Self {
        ThreadCache {
            pools: size_classes
                .classes()
                .iter()
                .map(|&c| SizeClassPool::new(c))
                .collect(),
        }
    }

    /// The pools, smallest class first.
    pub fn pools(&self) -> &[SizeClassPool] {
        &self.pools
    }

    /// WRAM bytes needed for one block's bitmap in every pool — the
    /// steady-state scratchpad footprint of this cache's metadata.
    pub fn bitmap_wram_bytes(&self) -> u32 {
        self.pools
            .iter()
            .map(|p| (CACHE_BLOCK_BYTES / p.class_bytes).div_ceil(8))
            .sum()
    }

    /// Attempts to allocate from the class pool `class_idx`: the lowest
    /// free sub-block of the most recently used block that has one.
    ///
    /// Returns the sub-block, or `None` if every block in the pool is
    /// exhausted (the caller should fetch a block from the backend and
    /// retry).
    pub fn alloc(&mut self, ctx: &mut TaskletCtx<'_>, class_idx: usize) -> Option<Slot> {
        let pool = &mut self.pools[class_idx];
        let hit = pool.blocks.iter().position(|b| b.free_slots > 0);
        let blocks_scanned = hit.map_or(pool.blocks.len(), |bi| bi + 1) as u64;
        let mut scan = REQUEST_INSTRS + BLOCK_SCAN_INSTRS * blocks_scanned;
        let slot = hit.map(|bi| {
            let block = &mut pool.blocks[bi];
            let wi = block
                .bitmap
                .iter()
                .position(|&w| w != 0)
                .expect("free_slots > 0 implies a set bit");
            scan += WORD_SCAN_INSTRS * (wi as u64 + 1) + BIT_OP_INSTRS;
            let bit = block.bitmap[wi].trailing_zeros();
            let mask = 1u64 << bit;
            block.bitmap[wi] &= !mask;
            block.free_slots -= 1;
            let remote = block.remote[wi] & mask != 0;
            block.remote[wi] &= !mask;
            let addr = block.base + (wi as u32 * 64 + bit) * pool.class_bytes;
            // Keep the most recently used block at the front so the
            // common case scans one block.
            pool.blocks[..=bi].rotate_right(1);
            Slot { addr, remote }
        });
        ctx.instrs(scan);
        slot
    }

    /// Installs a fresh 4 KB block (from the backend) into a pool.
    pub fn add_block(&mut self, ctx: &mut TaskletCtx<'_>, class_idx: usize, base: u32) {
        // Link the block and init its bitmap head.
        ctx.instrs(BIT_OP_INSTRS + 4);
        let class = self.pools[class_idx].class_bytes;
        self.pools[class_idx]
            .blocks
            .insert(0, CacheBlock::new(base, class));
    }

    /// Frees the sub-block at `addr` in pool `class_idx`.
    ///
    /// If the containing block becomes entirely free **and** the pool
    /// holds another block, the block is detached and returned for the
    /// caller to hand back to the backend; the pool always keeps its
    /// last block to avoid thrashing the buddy allocator on
    /// alloc/free ping-pong.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not belong to any block of the pool or the
    /// sub-block is already free (double free) — both are program bugs
    /// the shadow bookkeeping in [`crate::PimMalloc`] rules out.
    pub fn free(&mut self, ctx: &mut TaskletCtx<'_>, class_idx: usize, addr: u32) -> FreeOutcome {
        let (outcome, bi) = self.free_at(class_idx, addr, false);
        ctx.instrs(REQUEST_INSTRS + BLOCK_SCAN_INSTRS * (bi as u64 + 1) + BIT_OP_INSTRS);
        outcome
    }

    /// [`ThreadCache::free`] by another tasklet, without charging the
    /// caller: [`crate::PimMalloc`] prices a remote free in batches,
    /// and the freeing tasklet never walks the owner's private
    /// structures. If the slot stays cached it is marked remote until
    /// an [`ThreadCache::alloc`] reuses it.
    pub fn free_remote(&mut self, class_idx: usize, addr: u32) -> FreeOutcome {
        self.free_at(class_idx, addr, true).0
    }

    /// Shared mutation of both free variants (`remote` marks the slot);
    /// returns the outcome and the index of the containing block (the
    /// scan depth a local free pays for).
    fn free_at(&mut self, class_idx: usize, addr: u32, remote: bool) -> (FreeOutcome, usize) {
        let pool = &mut self.pools[class_idx];
        let bi = pool
            .blocks
            .iter()
            .position(|b| b.contains(addr))
            .expect("freed address belongs to this pool");
        let block = &mut pool.blocks[bi];
        let slot = (addr - block.base) / pool.class_bytes;
        let (wi, bit) = ((slot / 64) as usize, slot % 64);
        assert_eq!(
            block.bitmap[wi] & (1u64 << bit),
            0,
            "double free of {addr:#x} in class {}",
            pool.class_bytes
        );
        block.bitmap[wi] |= 1u64 << bit;
        // A released block drops its marks with it.
        block.remote[wi] |= u64::from(remote) << bit;
        block.free_slots += 1;
        let outcome = if block.free_slots == block.slots && pool.blocks.len() > 1 {
            let released = pool.blocks.remove(bi);
            FreeOutcome::BlockReleased {
                block_base: released.base,
            }
        } else {
            FreeOutcome::Cached
        };
        (outcome, bi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, DpuSim};

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    fn cache() -> ThreadCache {
        ThreadCache::new(&SizeClassTable::paper_default())
    }

    #[test]
    fn pools_mirror_the_shared_table() {
        let c = cache();
        let table = SizeClassTable::paper_default();
        let pool_classes: Vec<u32> = c.pools().iter().map(SizeClassPool::class_bytes).collect();
        assert_eq!(pool_classes, table.classes());
    }

    #[test]
    fn alloc_exhausts_a_block_exactly() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 0, 0x1000); // 16 B class: 256 slots
        let mut addrs = Vec::new();
        while let Some(a) = c.alloc(&mut ctx, 0).map(|s| s.addr) {
            addrs.push(a);
        }
        assert_eq!(addrs.len(), 256);
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 256, "sub-blocks must be distinct");
        assert!(addrs.iter().all(|a| (0x1000..0x2000).contains(a)));
        assert!(addrs.iter().all(|a| (a - 0x1000) % 16 == 0));
    }

    #[test]
    fn two_kb_class_splits_block_in_two() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 7, 0x8000);
        assert_eq!(c.alloc(&mut ctx, 7).map(|s| s.addr), Some(0x8000));
        assert_eq!(c.alloc(&mut ctx, 7).map(|s| s.addr), Some(0x8800));
        assert!(c.alloc(&mut ctx, 7).is_none());
    }

    #[test]
    fn free_makes_slot_reusable() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 4, 0x1000); // 256 B: 16 slots
        let a = c.alloc(&mut ctx, 4).unwrap().addr;
        let b = c.alloc(&mut ctx, 4).unwrap().addr;
        assert_eq!(c.free(&mut ctx, 4, a), FreeOutcome::Cached);
        let again = c.alloc(&mut ctx, 4).unwrap().addr;
        assert_eq!(again, a, "freed slot is the first free bit again");
        let _ = b;
    }

    #[test]
    fn freed_slots_return_lowest_first() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 4, 0x8000); // 256 B: 16 slots
        let addrs: Vec<u32> = (0..16)
            .map(|_| c.alloc(&mut ctx, 4).unwrap().addr)
            .collect();
        let expect: Vec<u32> = (0..16).map(|i| 0x8000 + i * 256).collect();
        assert_eq!(addrs, expect, "lowest slot first");
        c.free(&mut ctx, 4, 0x8000 + 5 * 256);
        c.free(&mut ctx, 4, 0x8000 + 2 * 256);
        // The *lowest* freed slot comes back first, whatever order the
        // frees arrived in.
        assert_eq!(c.alloc(&mut ctx, 4).map(|s| s.addr), Some(0x8000 + 2 * 256));
        assert_eq!(c.alloc(&mut ctx, 4).map(|s| s.addr), Some(0x8000 + 5 * 256));
    }

    #[test]
    fn smallest_class_fills_every_bitmap_word() {
        let table = SizeClassTable::new([crate::SIZE_CLASS_ALIGN]);
        let mut c = ThreadCache::new(&table);
        let mut d = dpu();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 0, 0); // 512 slots, 8 bitmap words
        let mut seen = std::collections::HashSet::new();
        while let Some(a) = c.alloc(&mut ctx, 0).map(|s| s.addr) {
            assert!(seen.insert(a), "{a:#x} issued twice");
        }
        assert_eq!(
            seen.len() as u32,
            CACHE_BLOCK_BYTES / crate::SIZE_CLASS_ALIGN
        );
    }

    #[test]
    fn fully_free_block_released_only_if_not_last() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 7, 0x8000);
        let a = c.alloc(&mut ctx, 7).unwrap().addr;
        // Last block in pool: kept even when fully free.
        assert_eq!(c.free(&mut ctx, 7, a), FreeOutcome::Cached);
        assert_eq!(c.pools()[7].block_count(), 1);
        // With a second block, a fully-free one is released.
        c.add_block(&mut ctx, 7, 0x9000);
        let b = c.alloc(&mut ctx, 7).unwrap().addr;
        assert_eq!(b, 0x9000, "MRU block serves first");
        match c.free(&mut ctx, 7, b) {
            FreeOutcome::BlockReleased { block_base } => assert_eq!(block_base, 0x9000),
            other => panic!("expected release, got {other:?}"),
        }
        assert_eq!(c.pools()[7].block_count(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 0, 0x1000);
        let a = c.alloc(&mut ctx, 0).unwrap().addr;
        c.free(&mut ctx, 0, a);
        c.free(&mut ctx, 0, a);
    }

    #[test]
    fn hit_cost_is_constant_ish_and_small() {
        // O(1) claim: the 1000th alloc from a pool costs about the same
        // as the 1st (no dependence on allocation history).
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 1, 0x1000); // 32 B: 128 slots
        let t0 = ctx.now();
        c.alloc(&mut ctx, 1).unwrap();
        let first = (ctx.now() - t0).0;
        let mut last = 0;
        for _ in 0..100 {
            let t = ctx.now();
            if c.alloc(&mut ctx, 1).is_none() {
                c.add_block(&mut ctx, 1, 0x8000);
            }
            last = (ctx.now() - t).0;
        }
        assert!(last <= first * 3, "hit cost drifted: {first} -> {last}");
    }

    #[test]
    fn exact_64_multiple_slot_counts_initialize_fully_free() {
        // Regression: classes whose slot count is an exact multiple of
        // 64 (64 B class → 64 slots, 32 B → 128, 16 B → 256) must
        // start with *every* slot free. The old tail-word expression
        // `(1u64 << tail) - 1` overflows when the tail is derived as
        // "slots remaining in the last word" (64 at a word boundary).
        for (class_idx, class_bytes, slots) in [(2usize, 64u32, 64u32), (1, 32, 128), (0, 16, 256)]
        {
            let mut d = dpu();
            let mut c = cache();
            let mut ctx = d.ctx(0);
            c.add_block(&mut ctx, class_idx, 0x1000);
            assert_eq!(
                c.pools()[class_idx].free_slots(),
                slots,
                "{class_bytes} B class must start fully free"
            );
            // And every one of them is allocatable, in address order.
            for i in 0..slots {
                assert_eq!(
                    c.alloc(&mut ctx, class_idx).map(|s| s.addr),
                    Some(0x1000 + i * class_bytes),
                    "slot {i} of the {class_bytes} B class"
                );
            }
            assert!(c.alloc(&mut ctx, class_idx).is_none());
        }
    }

    /// Regression for [`init_free_mask`]: slot counts that are an
    /// exact multiple of 64 must leave the last word fully free, not
    /// wrapped to all-busy. 64 slots = the 64 B class, 128 = the 32 B
    /// class, 192 = a three-word block (reachable with
    /// non-power-of-two class geometry).
    #[test]
    fn exact_word_multiples_keep_every_slot_free() {
        for slots in [64u32, 128, 192] {
            let words = (slots as usize).div_ceil(64);
            let mut bitmap = vec![0u64; words];
            init_free_mask(slots, &mut bitmap);
            assert!(
                bitmap.iter().all(|&w| w == u64::MAX),
                "{slots} slots: every word must be all-free, got {bitmap:#x?}"
            );
        }
    }

    #[test]
    fn partial_tail_words_mask_padding_bits() {
        for slots in [1u32, 2, 63, 65, 100, 130, 250] {
            let words = (slots as usize).div_ceil(64);
            let mut bitmap = vec![u64::MAX; words]; // stale garbage
            init_free_mask(slots, &mut bitmap);
            // Free bits are exactly the lowest `slots` positions.
            for s in 0..(words * 64) as u32 {
                let set = bitmap[(s / 64) as usize] & (1u64 << (s % 64)) != 0;
                assert_eq!(set, s < slots, "slot {s} of {slots}");
            }
        }
    }

    #[test]
    fn bitmap_wram_budget_is_small() {
        // §VI-E: thread-cache bitmap metadata is negligible. One block
        // per class: 256+128+64+32+16+8+4+2 bits = 510 bits ≈ 64 B.
        let c = cache();
        assert!(c.bitmap_wram_bytes() <= 70, "{}", c.bitmap_wram_bytes());
    }

    #[test]
    fn unpriced_free_mutates_identically_but_charges_nothing() {
        let mut d = dpu();
        let mut priced = cache();
        let mut unpriced = priced.clone();
        let mut ctx = d.ctx(0);
        priced.add_block(&mut ctx, 4, 0x1000);
        unpriced.add_block(&mut ctx, 4, 0x1000);
        let a = priced.alloc(&mut ctx, 4).unwrap().addr;
        assert_eq!(unpriced.alloc(&mut ctx, 4).map(|s| s.addr), Some(a));
        let before = ctx.now();
        assert_eq!(unpriced.free_remote(4, a), FreeOutcome::Cached);
        assert_eq!(ctx.now(), before, "remote free charges no cycles");
        priced.free(&mut ctx, 4, a);
        assert!(ctx.now() > before, "priced free does charge");
        // Identical post-state: the freed slot is reissued first by
        // both variants.
        assert_eq!(priced.alloc(&mut ctx, 4).map(|s| s.addr), Some(a));
        assert_eq!(unpriced.alloc(&mut ctx, 4).map(|s| s.addr), Some(a));
    }

    #[test]
    fn remote_marks_last_until_reuse_or_release() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 7, 0x8000); // 2 KB: 2 slots per block
        c.add_block(&mut ctx, 7, 0x9000);
        // MRU order serves 0x9000's slots a, b first, then 0x8000's x
        // and its second slot: both blocks are full.
        let [a, b, x, _] = [(); 4].map(|_| c.alloc(&mut ctx, 7).unwrap());
        assert_eq!([a.addr, b.addr, x.addr], [0x9000, 0x9800, 0x8000]);
        assert!(!a.remote && !x.remote, "fresh slots carry no mark");

        // A local free never marks its slot.
        c.free(&mut ctx, 7, a.addr);
        assert_eq!(c.alloc(&mut ctx, 7), Some(a));

        // A remote free marks the slot while it stays cached; the alloc
        // that reuses it reports the mark exactly once.
        assert_eq!(c.free_remote(7, x.addr), FreeOutcome::Cached);
        let reused = c.alloc(&mut ctx, 7).unwrap();
        assert_eq!(reused, Slot { remote: true, ..x });
        c.free(&mut ctx, 7, reused.addr);
        assert_eq!(c.alloc(&mut ctx, 7), Some(x), "the mark was cleared");

        // A remote free that releases its block marks nothing, and a
        // block reinstalled at the same base starts unmarked.
        assert_eq!(c.free_remote(7, a.addr), FreeOutcome::Cached);
        assert_eq!(
            c.free_remote(7, b.addr),
            FreeOutcome::BlockReleased { block_base: 0x9000 }
        );
        c.add_block(&mut ctx, 7, 0x9000);
        assert_eq!(c.alloc(&mut ctx, 7), Some(a));
        assert_eq!(c.alloc(&mut ctx, 7), Some(b));
    }

    #[test]
    fn release_drops_only_the_released_blocks_marks() {
        let mut d = dpu();
        let mut c = cache();
        let mut ctx = d.ctx(0);
        c.add_block(&mut ctx, 7, 0x8000); // 2 KB: 2 slots per block
        c.add_block(&mut ctx, 7, 0x9000);
        c.add_block(&mut ctx, 0, 0xA000);
        // Fills 0x9000 (MRU) then 0x8000.
        for _ in 0..4 {
            c.alloc(&mut ctx, 7).unwrap();
        }
        let small = c.alloc(&mut ctx, 0).unwrap().addr;
        // Marks in both 2 KB blocks and in the 16 B block.
        for (class_idx, addr) in [(7, 0x9000), (7, 0x8000), (0, small)] {
            assert_eq!(c.free_remote(class_idx, addr), FreeOutcome::Cached);
        }
        // Draining 0x9000 releases it with its mark; the other blocks
        // keep theirs.
        assert_eq!(
            c.free_remote(7, 0x9800),
            FreeOutcome::BlockReleased { block_base: 0x9000 }
        );
        let marked = |addr| Some(Slot { addr, remote: true });
        assert_eq!(c.alloc(&mut ctx, 7), marked(0x8000));
        assert_eq!(c.alloc(&mut ctx, 0), marked(small));
        c.add_block(&mut ctx, 7, 0x9000);
        let reinstalled = c.alloc(&mut ctx, 7).unwrap();
        assert_eq!((reinstalled.addr, reinstalled.remote), (0x9000, false));
    }
}
