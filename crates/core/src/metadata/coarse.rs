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

use super::{BitArray, MetaStats};

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

/// The coarse-grained software window over an MRAM-resident tree.
#[derive(Debug)]
pub(super) struct Window {
    /// Bytes buffered: the WRAM buffer size clamped to the metadata
    /// size. Cached because the hit check runs on every node access.
    pub(super) len: u32,
    /// Last start that keeps the window within the metadata array.
    max_start: u32,
    /// First metadata byte currently buffered.
    start: u32,
    valid: bool,
    dirty: bool,
}

impl Window {
    /// A window of `buffer_bytes`, which must be a power of two of at
    /// least 8, over `meta_len` bytes of metadata.
    pub(super) fn new(meta_len: u32, buffer_bytes: u32) -> Self {
        assert!(
            buffer_bytes.is_power_of_two() && buffer_bytes >= 8,
            "buffer size must be a power of two of at least 8 bytes"
        );
        let len = buffer_bytes.min(meta_len.next_power_of_two());
        Window {
            len,
            max_start: meta_len.saturating_sub(len),
            start: 0,
            valid: false,
            dirty: false,
        }
    }

    /// Drops the buffered window without writing it back.
    pub(super) fn invalidate(&mut self) {
        self.valid = false;
        self.dirty = false;
    }

    /// Charges one access to node `idx`. The hit check is the hot path
    /// (every buddy node visit lands here), so it stays small and
    /// inlinable; the flush-and-reload miss path is cold.
    #[inline]
    pub(super) fn access(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        stats: &mut MetaStats,
        meta_base: u32,
        idx: u32,
        write: bool,
    ) {
        let byte = BitArray::byte_of(idx);
        if self.valid && byte.wrapping_sub(self.start) < self.len {
            stats.hits += 1;
        } else {
            self.refill(ctx, stats, meta_base, byte);
        }
        ctx.instrs(HIT_INSTRS);
        self.dirty |= write;
    }

    /// The miss path of [`Self::access`]: flush the dirty window and
    /// refill it **starting at the requested byte**
    /// (`fillBuddyMetadata(metadataIdx)` in Figure 13(a)), so it covers
    /// the requested entry and its forward neighbours — in a shallow
    /// tree one window then spans a parent-level scan region *and* its
    /// children, while in the deep straw-man tree each level change
    /// below the window still misses.
    #[cold]
    fn refill(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        stats: &mut MetaStats,
        meta_base: u32,
        byte: u32,
    ) {
        let len = self.len;
        stats.misses += 1;
        ctx.instrs(MISS_INSTRS);
        if self.valid && self.dirty {
            // Flush the whole window back to MRAM.
            ctx.mram_write(meta_base + self.start, len);
            stats.bytes_written += u64::from(len);
        }
        // Fill starting at the requested byte, clamped so the window
        // stays within the metadata array.
        self.start = byte.min(self.max_start);
        ctx.mram_read(meta_base + self.start, len);
        stats.bytes_read += u64::from(len);
        self.valid = true;
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use crate::metadata::{BackendKind, MetadataBackend, NodeState};
    use pim_sim::{DpuConfig, DpuSim};

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    /// A store behind a window of `buffer_bytes`.
    fn window(nodes: u32, meta_base: u32, buffer_bytes: u32) -> MetadataBackend {
        MetadataBackend::with_nodes(BackendKind::Coarse { buffer_bytes }, nodes, meta_base)
    }

    #[test]
    fn first_access_misses_then_neighbors_hit() {
        let mut d = dpu();
        let mut s = window(1 << 16, 0x1000, 2048);
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
        let mut s = window(1 << 20, 0, 2048);
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
        let mut s = window(1 << 20, 0, 2048);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1); // miss, clean
        let _ = s.get(&mut ctx, 2048 * 4 * 8); // miss, no flush needed
        assert_eq!(s.stats().bytes_written, 0);
        assert_eq!(s.stats().bytes_read, 2 * 2048);
    }

    #[test]
    fn misses_cost_dma_time() {
        let mut d = dpu();
        let mut s = window(1 << 20, 0, 2048);
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
        let mut s = window(16, 0, 4096);
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
        let mut s = window(nodes, 0, 2048);
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
        window(16, 0, 100);
    }
}
