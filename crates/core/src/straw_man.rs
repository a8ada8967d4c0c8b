//! The straw-man `buddy_alloc_PIM_DRAM` allocator (§III-B).
//!
//! A single mutex-protected buddy allocator manages the whole 32 MB
//! heap down to 32 B blocks — a 20-level tree whose 512 KB of metadata
//! lives in MRAM behind the coarse software-managed buffer (or, for
//! Figure 7's small heaps, in WRAM). Every request, small or large,
//! traverses the deep tree under the lock, which is exactly what makes
//! it slow (Figure 7) and contention-prone (Figure 8).

use pim_sim::{DpuSim, MutexId, TaskletCtx};

use crate::api::PimAllocator;
use crate::buddy::{BuddyAllocator, BuddyGeometry, DescentPolicy};
use crate::error::{AllocError, InitError};
use crate::metadata::{BackendKind, MetaStats, MetadataBackend};
use crate::region_map::{FreeRoute, RegionMap};
use crate::stats::{AllocStats, ServiceSite};

/// Configuration of the straw-man allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrawManConfig {
    /// First address of the heap region in MRAM.
    pub heap_base: u32,
    /// Heap capacity (power of two; paper: 32 MB).
    pub heap_size: u32,
    /// Minimum allocation size (paper: 32 B → a 20-level tree).
    pub min_block: u32,
    /// MRAM address of the metadata array.
    pub meta_base: u32,
    /// Where the metadata lives (paper: MRAM behind a 2 KB coarse
    /// window; [`BackendKind::Wram`] models UPMEM's stock scratchpad
    /// `buddy_alloc()` for small heaps).
    pub metadata: BackendKind,
    /// Descent policy (ablation hook).
    pub descent: DescentPolicy,
}

impl Default for StrawManConfig {
    /// The paper's straw-man: 32 MB heap, 32 B min block, 2 KB buffer.
    fn default() -> Self {
        StrawManConfig {
            heap_base: 0x0200_0000,
            heap_size: 32 << 20,
            min_block: 32,
            meta_base: 0x0100_0000,
            metadata: BackendKind::Coarse { buffer_bytes: 2048 },
            descent: DescentPolicy::FullMarks,
        }
    }
}

/// The mutex-protected, single-level straw-man buddy allocator.
#[derive(Debug)]
pub struct StrawManAllocator {
    buddy: BuddyAllocator,
    mutex: MutexId,
    stats: AllocStats,
    /// O(1) host-side free validation, shared with [`crate::PimMalloc`]
    /// (frame granularity = `min_block`, so every buddy allocation
    /// starts on a frame boundary).
    region: RegionMap,
}

impl StrawManAllocator {
    /// Initializes the allocator on a DPU (metadata zeroing runs on
    /// tasklet 0).
    ///
    /// # Errors
    ///
    /// [`InitError::Wram`] if the metadata's WRAM share (the whole tree
    /// for [`BackendKind::Wram`]) does not fit the scratchpad —
    /// reachable from data (DSE sweeps explore tree depths whose
    /// metadata exceeds 64 KB), so it is reported, not panicked.
    ///
    /// # Panics
    ///
    /// Panics on malformed geometry (non-power-of-two sizes).
    pub fn init(dpu: &mut DpuSim, config: StrawManConfig) -> Result<Self, InitError> {
        let geometry = BuddyGeometry::new(config.heap_base, config.heap_size, config.min_block);
        dpu.wram_mut()
            .reserve("straw-man metadata", config.metadata.wram_bytes(&geometry))?;
        let store = MetadataBackend::new(config.metadata, &geometry, config.meta_base);
        let mut buddy = BuddyAllocator::new(geometry, store).with_policy(config.descent);
        let mutex = dpu.alloc_mutex();
        {
            let mut ctx = dpu.ctx(0);
            buddy.reset(&mut ctx);
        }
        Ok(StrawManAllocator {
            region: RegionMap::new(config.heap_base, config.heap_size, config.min_block),
            buddy,
            mutex,
            stats: AllocStats::default(),
        })
    }

    /// The underlying buddy allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Metadata-store transfer statistics of the buddy tree.
    pub fn metadata_stats(&self) -> MetaStats {
        self.buddy.store().stats()
    }

    /// Number of live user allocations.
    pub fn live_allocations(&self) -> usize {
        self.region.live_allocations()
    }
}

impl PimAllocator for StrawManAllocator {
    fn pim_malloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        let start = ctx.now();
        ctx.mutex_lock(self.mutex);
        let result = self.buddy.alloc(ctx, size);
        ctx.mutex_unlock(self.mutex);
        let addr = result?;
        let reserved = self
            .buddy
            .geometry()
            .block_for_size(size)
            .ok_or(AllocError::InvalidSize { requested: size })?;
        self.region.note_backend_alloc(addr, reserved, size);
        self.stats
            .record_malloc(ServiceSite::Bypass, ctx.now() - start);
        Ok(addr)
    }

    fn pim_free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<(), AllocError> {
        // Validate through the same O(1) frame table PIM-malloc uses;
        // an invalid or double free is rejected before any simulated
        // descent. The straw-man has one owner only, so the route is
        // always the backend.
        let route = self.region.take_route(addr)?;
        debug_assert!(matches!(route, FreeRoute::Backend { .. }));
        ctx.mutex_lock(self.mutex);
        let result = self.buddy.free(ctx, addr);
        ctx.mutex_unlock(self.mutex);
        result?;
        self.stats.record_free(true);
        Ok(())
    }

    fn alloc_stats(&self) -> &AllocStats {
        &self.stats
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Cycles, DpuConfig};

    fn dpu(tasklets: usize) -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(tasklets))
    }

    #[test]
    fn default_config_is_a_20_level_tree() {
        let mut d = dpu(1);
        let a = StrawManAllocator::init(&mut d, StrawManConfig::default()).unwrap();
        assert_eq!(a.buddy().geometry().depth(), 20);
        assert_eq!(a.buddy().geometry().metadata_bytes(), 512 << 10);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut d = dpu(1);
        let cfg = StrawManConfig {
            heap_size: 1 << 20,
            ..StrawManConfig::default()
        };
        let mut a = StrawManAllocator::init(&mut d, cfg).unwrap();
        let mut ctx = d.ctx(0);
        let x = a.pim_malloc(&mut ctx, 32).unwrap();
        let y = a.pim_malloc(&mut ctx, 32).unwrap();
        assert_ne!(x, y);
        a.pim_free(&mut ctx, x).unwrap();
        a.pim_free(&mut ctx, y).unwrap();
        assert_eq!(a.alloc_stats().total_mallocs(), 2);
        a.buddy().check_invariants();
    }

    #[test]
    fn contention_produces_busy_wait() {
        // Figure 8: 16 tasklets hammering the single mutex spend most
        // of their time busy-waiting.
        let mut d = dpu(16);
        let cfg = StrawManConfig {
            heap_size: 1 << 20,
            ..StrawManConfig::default()
        };
        let mut a = StrawManAllocator::init(&mut d, cfg).unwrap();
        for _ in 0..8 {
            for tid in 0..16 {
                let mut ctx = d.ctx(tid);
                a.pim_malloc(&mut ctx, 32).unwrap();
            }
        }
        let s = d.total_stats();
        assert!(
            s.busy_wait > Cycles::ZERO,
            "16 contending tasklets must busy-wait"
        );
        // Contention dominates: busy-wait exceeds run time (Figure 8(b)).
        assert!(
            s.busy_wait > s.run,
            "busy-wait {} run {}",
            s.busy_wait,
            s.run
        );
    }

    #[test]
    fn wram_variant_for_scratchpad_heap() {
        let mut d = dpu(1);
        let cfg = StrawManConfig {
            heap_base: 0,
            heap_size: 32 << 10,
            min_block: 32,
            metadata: BackendKind::Wram,
            ..StrawManConfig::default()
        };
        let mut a = StrawManAllocator::init(&mut d, cfg).unwrap();
        assert_eq!(a.buddy().geometry().depth(), 10);
        let mut ctx = d.ctx(0);
        let addr = a.pim_malloc(&mut ctx, 2048).unwrap();
        a.pim_free(&mut ctx, addr).unwrap();
        // No DRAM traffic: metadata lives in scratchpad.
        assert_eq!(d.traffic().total_bytes(), 0);
    }

    #[test]
    fn small_allocs_in_big_heap_are_slow() {
        // The Figure 7 diagonal: 32 B allocation in a 32 MB heap is
        // far slower than 2 KB in a 32 KB heap.
        let mut d1 = dpu(1);
        let small = StrawManConfig {
            heap_base: 0,
            heap_size: 32 << 10,
            min_block: 32,
            metadata: BackendKind::Wram,
            ..StrawManConfig::default()
        };
        let mut a1 = StrawManAllocator::init(&mut d1, small).unwrap();
        let mut ctx = d1.ctx(0);
        let t0 = ctx.now();
        a1.pim_malloc(&mut ctx, 2048).unwrap();
        let fast = (ctx.now() - t0).0;

        let mut d2 = dpu(1);
        let mut a2 = StrawManAllocator::init(&mut d2, StrawManConfig::default()).unwrap();
        let mut ctx = d2.ctx(0);
        let t0 = ctx.now();
        a2.pim_malloc(&mut ctx, 32).unwrap();
        let slow = (ctx.now() - t0).0;
        assert!(slow > fast * 3, "expected ≥3x gap, got {fast} vs {slow}");
    }
}
