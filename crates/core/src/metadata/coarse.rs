//! The software-managed, coarse-grained metadata buffer.
//!
//! The straw-man `buddy_alloc_PIM_DRAM` and PIM-malloc-SW keep the
//! buddy tree in MRAM and cache a single **contiguous window** of it in
//! WRAM. A hit is an ordinary scratchpad access. On a miss the whole
//! window is flushed (one DMA write if dirty) and a new window around
//! the requested byte is loaded (one DMA read) — the "flush all, reload"
//! policy of Figure 13(a). The paper measures this scheme transferring
//! ~2 KB per `pimMalloc` at a 73% hit rate in the 4 KB-allocation
//! microbenchmark, which is what motivates the hardware buddy cache.

use pim_sim::TaskletCtx;

use super::{BitArray, MetaStats, NodeState};

/// Instructions for a buffered (hit) access: `getMetadata` is a real
/// function call whose index→byte/shift math uses `%` and `/` — the
/// DPU has no hardware divider, so generic code pays a soft-div loop
/// on every access.
const HIT_INSTRS: u64 = 40;
/// Instructions of bookkeeping around a miss: window address math
/// needs several 32-bit divisions/modulos, which the DPU lacks a
/// hardware divider for (each is a ~40-instruction soft-div loop),
/// plus flush bookkeeping and DMA programming. The DMA transfer
/// itself is charged separately.
const MISS_INSTRS: u64 = 250;

/// Coarse-grained software metadata buffer over MRAM-resident metadata.
#[derive(Debug, Clone)]
pub struct CoarseBufferStore {
    bits: BitArray,
    /// MRAM base address of the metadata array.
    meta_base: u32,
    /// Window length: the WRAM buffer size clamped to the metadata
    /// size. Cached because the hit check runs on every node access.
    window_len: u32,
    /// First metadata byte currently buffered, aligned to the window.
    window_start: u32,
    window_valid: bool,
    dirty: bool,
    stats: MetaStats,
}

impl CoarseBufferStore {
    /// Creates a store for `nodes` nodes with a WRAM window of
    /// `buffer_bytes`, backed by MRAM at `meta_base`.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_bytes` is not a positive power of two (window
    /// alignment relies on it).
    pub fn new(nodes: u32, meta_base: u32, buffer_bytes: u32) -> Self {
        assert!(
            buffer_bytes.is_power_of_two() && buffer_bytes >= 8,
            "buffer size must be a power of two of at least 8 bytes"
        );
        let bits = BitArray::new(nodes);
        let window_len = buffer_bytes.min(bits.len_bytes().next_power_of_two());
        CoarseBufferStore {
            bits,
            meta_base,
            window_len,
            window_start: 0,
            window_valid: false,
            dirty: false,
            stats: MetaStats::default(),
        }
    }

    /// Ensures the metadata byte holding `idx` is buffered, charging
    /// flush + reload DMA on a miss.
    ///
    /// The hit check is the hot path (every buddy node visit lands
    /// here), so it stays small and inlinable; the flush-and-reload
    /// miss path is split out as a cold function.
    #[inline]
    fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) {
        let byte = BitArray::byte_of(idx);
        if self.window_valid && byte.wrapping_sub(self.window_start) < self.window_len {
            self.stats.hits += 1;
            return;
        }
        self.refill(ctx, byte);
    }

    /// The miss path of [`Self::ensure`]: flush the dirty window and
    /// reload it starting at the requested byte.
    ///
    /// On a miss the window is refilled **starting at the requested
    /// byte** (`fillBuddyMetadata(metadataIdx)` in Figure 13(a)), so it
    /// covers the requested entry and its forward neighbours — in a
    /// shallow tree one window then spans a parent-level scan region
    /// *and* its children, while in the deep straw-man tree each level
    /// change below the window still misses.
    #[cold]
    fn refill(&mut self, ctx: &mut TaskletCtx<'_>, byte: u32) {
        let len = self.window_len;
        self.stats.misses += 1;
        ctx.instrs(MISS_INSTRS);
        if self.window_valid && self.dirty {
            // Flush the whole window back to MRAM.
            ctx.mram_write(self.meta_base + self.window_start, len);
            self.stats.bytes_written += u64::from(len);
        }
        // Fill starting at the requested byte, clamped so the window
        // stays within the metadata array.
        let max_start = self.bits.len_bytes().saturating_sub(len);
        let target_start = byte.min(max_start);
        ctx.mram_read(self.meta_base + target_start, len);
        self.stats.bytes_read += u64::from(len);
        self.window_start = target_start;
        self.window_valid = true;
        self.dirty = false;
    }

    #[inline]
    pub(crate) fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        self.ensure(ctx, idx);
        ctx.instrs(HIT_INSTRS);
        self.bits.get(idx)
    }

    #[inline]
    pub(crate) fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        self.ensure(ctx, idx);
        ctx.instrs(HIT_INSTRS);
        self.dirty = true;
        self.bits.set(idx, state);
    }

    pub(crate) fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        // initAllocator zeroes the MRAM-resident metadata with streaming
        // DMA writes from a zeroed WRAM window.
        let len = self.bits.len_bytes();
        let window = self.window_len;
        let mut off = 0;
        while off < len {
            let chunk = window.min(len - off);
            ctx.mram_write(self.meta_base + off, chunk);
            off += chunk;
        }
        self.bits.clear();
        self.window_valid = false;
        self.dirty = false;
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

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    #[test]
    fn first_access_misses_then_neighbors_hit() {
        let mut d = dpu();
        let mut s = CoarseBufferStore::new(1 << 16, 0x1000, 2048);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split);
        assert_eq!(s.stats().misses, 1);
        // Nodes 2..1000 live within the same 2 KB window.
        for idx in 2..1000 {
            let _ = s.get(&mut ctx, idx);
        }
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().hits, 998);
    }

    #[test]
    fn miss_far_away_flushes_dirty_window() {
        let mut d = dpu();
        let mut s = CoarseBufferStore::new(1 << 20, 0, 2048);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split); // miss + dirty
        let far = 2048 * 4 * 8; // a node well past the first window
        let _ = s.get(&mut ctx, far); // miss: flush 2 KB + load 2 KB
        assert_eq!(s.stats().bytes_written, 2048);
        assert_eq!(s.stats().bytes_read, 2 * 2048);
        // Value survives the round trip through the authoritative array.
        let _ = s.get(&mut ctx, 1); // miss again (window moved)
        assert_eq!(s.peek(1), NodeState::Split);
    }

    #[test]
    fn clean_miss_does_not_write_back() {
        let mut d = dpu();
        let mut s = CoarseBufferStore::new(1 << 20, 0, 2048);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1); // miss, clean
        let _ = s.get(&mut ctx, 2048 * 4 * 8); // miss, no flush needed
        assert_eq!(s.stats().bytes_written, 0);
        assert_eq!(s.stats().bytes_read, 2 * 2048);
    }

    #[test]
    fn misses_cost_dma_time() {
        let mut d = dpu();
        let mut s = CoarseBufferStore::new(1 << 20, 0, 2048);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1);
        let hit_start = ctx.now();
        let _ = s.get(&mut ctx, 2);
        let hit_cost = ctx.now() - hit_start;
        let miss_start = ctx.now();
        let _ = s.get(&mut ctx, 2048 * 4 * 8);
        let miss_cost = ctx.now() - miss_start;
        assert!(
            miss_cost.0 > hit_cost.0 * 5,
            "miss ({miss_cost}) must dwarf hit ({hit_cost})"
        );
    }

    #[test]
    fn window_smaller_than_metadata_is_clamped() {
        // Tiny tree (16 nodes, 5 bytes) with a large buffer: the window
        // covers everything, so there is exactly one cold miss.
        let mut d = dpu();
        let mut s = CoarseBufferStore::new(16, 0, 4096);
        let mut ctx = d.ctx(0);
        for idx in 1..=16 {
            let _ = s.get(&mut ctx, idx);
        }
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn reset_streams_whole_metadata() {
        let mut d = dpu();
        let nodes = 1 << 14; // 4 KB of metadata
        let mut s = CoarseBufferStore::new(nodes, 0, 2048);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Allocated);
        s.reset(&mut ctx);
        assert_eq!(s.peek(1), NodeState::Free);
        // Reset wrote at least the metadata size to MRAM.
        assert!(d.traffic().bytes_written >= u64::from(nodes / 4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_buffer_size_rejected() {
        CoarseBufferStore::new(16, 0, 100);
    }
}
