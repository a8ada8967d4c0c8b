//! PIM-malloc: the hierarchical allocator (§IV of the paper).
//!
//! [`PimMalloc`] combines per-tasklet [`ThreadCache`] frontends with a
//! mutex-protected backend [`BuddyAllocator`] whose tree is truncated
//! at 4 KB blocks (depth 13 for a 32 MB heap instead of the straw-man's
//! depth 20). Requests up to the largest size class (2 KB) are served
//! lock-free from the calling tasklet's cache; larger requests bypass
//! to the backend (Figure 10).
//!
//! Cross-tasklet frees are priced in batches. The free updates the
//! owner's bitmap unpriced and marks the slot remote
//! ([`ThreadCache::free_remote`]); the owner's [`ThreadCache::alloc`]
//! that reuses the slot reports the mark. Two counters per size class
//! turn these events into batch traffic: every eighth remote free
//! writes one batch of pointers to MRAM, and every eighth reuse of a
//! remote slot reads one back. A block whose bitmap drains returns to
//! the buddy backend with its marks.
//!
//! The backend's metadata store selects between the paper's variants:
//! a coarse software buffer (**PIM-malloc-SW**), the hardware buddy
//! cache (**PIM-malloc-HW/SW**), or the fine-grained software LRU
//! ablation.

use pim_sim::{BuddyCacheConfig, BuddyCacheStats, DpuSim, MutexId, TaskletCtx, MAX_TASKLETS};

use crate::api::PimAllocator;
use crate::buddy::{BuddyAllocator, BuddyGeometry, MetadataBackend};
use crate::error::{AllocError, InitError};
use crate::frag::FragTracker;
use crate::geometry::{PimMallocConfig, SizeClassTable};
use crate::metadata::{MetaStats, MetadataStore};
use crate::region_map::{FreeRoute, RegionMap};
use crate::stats::{AllocStats, ServiceSite};
use crate::thread_cache::{FreeOutcome, ThreadCache, CACHE_BLOCK_BYTES};

/// Fixed instructions of `pim_malloc` entry (argument checks, size
/// classification).
const MALLOC_ENTRY_INSTRS: u64 = 15;
/// Fixed instructions of `pim_free` entry (argument checks and routing
/// off the block header; the header itself costs one MRAM read).
const FREE_ENTRY_INSTRS: u64 = 20;
/// Bytes of the per-block header `pim_free` reads to learn the owning
/// route (thread-cache class vs backend level) — one 8 B DMA beat.
const BLOCK_HEADER_BYTES: u32 = 8;
/// Instructions to stage one remote-freed pointer in a per-class
/// batch (bounds check, tail append, index bump).
const TRANSFER_PUSH_INSTRS: u64 = 12;
/// Instructions to claim one staged pointer on the allocation side.
const TRANSFER_POP_INSTRS: u64 = 10;
/// Staged pointers moved per simulated MRAM round-trip.
const TRANSFER_BATCH: u32 = 8;
/// Bytes per staged object pointer in a batch.
const TRANSFER_SLOT_BYTES: u32 = 8;

/// Which metadata store the backend buddy allocator runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendKind {
    /// Coarse software-managed WRAM window — **PIM-malloc-SW**.
    Coarse {
        /// WRAM window size in bytes (paper: 2 KB).
        buffer_bytes: u32,
    },
    /// Fine-grained software LRU — the §IV-B ablation.
    FineLru {
        /// Number of cached granules.
        entries: usize,
        /// Granule size in bytes.
        granule_bytes: u32,
    },
    /// Hardware buddy cache — **PIM-malloc-HW/SW**.
    HwCache {
        /// CAM configuration (paper default: 16 × 4 B).
        cache: BuddyCacheConfig,
    },
    /// Line-granular general-purpose metadata cache — the §VII
    /// cache-enabled-PIM counterfactual.
    LineCache {
        /// Total cache capacity in bytes.
        capacity_bytes: u32,
        /// Cache line size in bytes (e.g. 64).
        line_bytes: u32,
    },
}

/// The hierarchical PIM-malloc allocator for one DPU.
#[derive(Debug)]
pub struct PimMalloc {
    /// One thread cache per tasklet, indexed by tasklet id.
    caches: Vec<ThreadCache>,
    backend: BuddyAllocator,
    backend_mutex: MutexId,
    /// O(1) frame-table routing for `pim_free` (see [`RegionMap`]).
    region: RegionMap,
    /// The shared size-class geometry (also baked into every cache's
    /// pools).
    classes: SizeClassTable,
    /// Per class, remote frees staged since the last batch write.
    staged: Vec<u32>,
    /// Per class, remote slots reused since the last batch read.
    claimed: Vec<u32>,
    stats: AllocStats,
    frag: FragTracker,
    init_end: pim_sim::Cycles,
    /// Invalid frees observed so far (each one was rejected).
    invalid_frees: u32,
    /// Invalid frees tolerated before sealing; `None` never seals.
    quarantine_after: Option<u32>,
    /// Once set, every operation returns [`AllocError::Quarantined`].
    quarantined: bool,
}

impl PimMalloc {
    /// Initializes the allocator on a DPU: reserves WRAM for the
    /// metadata buffer and thread-cache bitmaps, zeroes the backend
    /// metadata, and (optionally) pre-populates the thread caches.
    ///
    /// Initialization runs on tasklet 0, as in the paper (`initAllocator`
    /// is executed by the designated thread).
    ///
    /// # Errors
    ///
    /// [`InitError::Tasklets`] if the tasklet count is outside 1..=24;
    /// [`InitError::Wram`] if the WRAM budget is exceeded;
    /// [`InitError::Alloc`] if pre-population exhausts the heap.
    ///
    /// # Panics
    ///
    /// Panics on a heap the buddy backend cannot tile (see
    /// [`BuddyGeometry::new`]).
    pub fn init(dpu: &mut DpuSim, config: PimMallocConfig) -> Result<Self, InitError> {
        if !(1..=MAX_TASKLETS).contains(&config.n_tasklets) {
            return Err(InitError::Tasklets {
                n: config.n_tasklets,
            });
        }
        // The frame table maps one backend block per frame, so the
        // backend's minimum block is the thread-cache block.
        let geometry = BuddyGeometry::new(config.heap_base, config.heap_size, CACHE_BLOCK_BYTES);
        let caches: Vec<ThreadCache> = (0..config.n_tasklets)
            .map(|_| ThreadCache::new(&config.size_classes))
            .collect();

        // WRAM budget: backend metadata buffer + per-tasklet bitmaps.
        match config.backend {
            BackendKind::Coarse { buffer_bytes } => {
                dpu.wram_mut()
                    .reserve("buddy metadata buffer", buffer_bytes)?;
            }
            BackendKind::FineLru {
                entries,
                granule_bytes,
            } => {
                dpu.wram_mut()
                    .reserve("fine-lru metadata buffer", entries as u32 * granule_bytes)?;
            }
            BackendKind::HwCache { .. } => {
                // The buddy cache is dedicated hardware; only a staging
                // beat in WRAM is needed for miss handling.
                dpu.wram_mut().reserve("buddy cache staging", 8)?;
            }
            BackendKind::LineCache { line_bytes, .. } => {
                dpu.wram_mut().reserve("line cache staging", line_bytes)?;
            }
        }
        let bitmap_bytes: u32 = caches.iter().map(ThreadCache::bitmap_wram_bytes).sum();
        dpu.wram_mut()
            .reserve("thread cache bitmaps", bitmap_bytes)?;

        let store = match config.backend {
            BackendKind::Coarse { buffer_bytes } => {
                MetadataBackend::coarse(&geometry, config.meta_base, buffer_bytes)
            }
            BackendKind::FineLru {
                entries,
                granule_bytes,
            } => MetadataBackend::fine_lru(&geometry, config.meta_base, entries, granule_bytes),
            BackendKind::HwCache { cache } => {
                MetadataBackend::hw_cache(&geometry, config.meta_base, cache)
            }
            BackendKind::LineCache {
                capacity_bytes,
                line_bytes,
            } => {
                MetadataBackend::line_cache(&geometry, config.meta_base, capacity_bytes, line_bytes)
            }
        };
        let mut backend = BuddyAllocator::new(geometry, store);
        let backend_mutex = dpu.alloc_mutex();

        let mut this = {
            let mut ctx = dpu.ctx(0);
            backend.reset(&mut ctx);
            PimMalloc {
                caches,
                backend,
                backend_mutex,
                region: RegionMap::new(config.heap_base, config.heap_size, CACHE_BLOCK_BYTES),
                classes: config.size_classes.clone(),
                staged: vec![0; config.size_classes.len()],
                claimed: vec![0; config.size_classes.len()],
                stats: AllocStats::default(),
                frag: FragTracker::new(),
                init_end: pim_sim::Cycles::ZERO,
                invalid_frees: 0,
                quarantine_after: config.quarantine_after,
                quarantined: false,
            }
        };

        if config.prepopulate {
            let n_classes = config.size_classes.len();
            for tid in 0..config.n_tasklets {
                for class_idx in 0..n_classes {
                    let mut ctx = dpu.ctx(0);
                    let base = this.backend.alloc(&mut ctx, CACHE_BLOCK_BYTES)?;
                    this.frag.on_reserve(u64::from(CACHE_BLOCK_BYTES));
                    this.region.note_cache_block(
                        base,
                        tid,
                        class_idx,
                        config.size_classes.class_bytes(class_idx),
                    );
                    this.caches[tid].add_block(&mut ctx, class_idx, base);
                }
            }
        }
        this.init_end = dpu.clock(0);
        Ok(this)
    }

    /// Allocation statistics (service sites, latency attribution).
    pub fn alloc_stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Fragmentation tracker (A/U accounting, Table III).
    pub fn frag(&self) -> &FragTracker {
        &self.frag
    }

    /// Metadata-store transfer statistics of the backend.
    pub fn metadata_stats(&self) -> MetaStats {
        self.backend.store().stats()
    }

    /// Hardware buddy-cache statistics, if this instance runs
    /// PIM-malloc-HW/SW.
    pub fn buddy_cache_stats(&self) -> Option<BuddyCacheStats> {
        match self.backend.store() {
            MetadataBackend::HwCache(s) => Some(s.cache_stats()),
            _ => None,
        }
    }

    /// The backend buddy allocator (read-only).
    pub fn backend(&self) -> &BuddyAllocator {
        &self.backend
    }

    /// The thread caches, indexed by tasklet id.
    pub fn caches(&self) -> &[ThreadCache] {
        &self.caches
    }

    /// The shared size-class geometry.
    pub fn size_classes(&self) -> &SizeClassTable {
        &self.classes
    }

    /// Tasklet-0 time when `init` finished (initialization cost).
    pub fn init_end(&self) -> pim_sim::Cycles {
        self.init_end
    }

    /// Number of live user allocations.
    pub fn live_allocations(&self) -> usize {
        self.region.live_allocations()
    }

    /// Invalid frees observed (and rejected) so far.
    pub fn invalid_frees(&self) -> u32 {
        self.invalid_frees
    }

    /// True once the allocator has sealed itself after exceeding its
    /// invalid-free budget (`PimMallocConfig::quarantine_after`).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    fn backend_alloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        ctx.mutex_lock(self.backend_mutex);
        let result = self.backend.alloc(ctx, size);
        ctx.mutex_unlock(self.backend_mutex);
        result
    }

    fn backend_free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<u32, AllocError> {
        ctx.mutex_lock(self.backend_mutex);
        let result = self.backend.free(ctx, addr);
        ctx.mutex_unlock(self.backend_mutex);
        result
    }

    /// Returns a drained cache block to the buddy backend.
    fn release_block(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        block_base: u32,
    ) -> Result<(), AllocError> {
        self.region.release_cache_block(block_base);
        self.backend_free(ctx, block_base)?;
        self.frag.on_release(u64::from(CACHE_BLOCK_BYTES));
        Ok(())
    }
}

/// Counts one more pointer into a per-class batch; true (and the count
/// restarts) when that completes a batch of [`TRANSFER_BATCH`].
fn completes_batch(count: &mut u32) -> bool {
    *count += 1;
    let full = *count == TRANSFER_BATCH;
    if full {
        *count = 0;
    }
    full
}

impl PimAllocator for PimMalloc {
    /// Allocates `size` bytes for the calling tasklet (Figure 10).
    fn pim_malloc(&mut self, ctx: &mut TaskletCtx<'_>, size: u32) -> Result<u32, AllocError> {
        let start = ctx.now();
        ctx.instrs(MALLOC_ENTRY_INSTRS);
        if self.quarantined {
            return Err(AllocError::Quarantined {
                invalid_frees: self.invalid_frees,
            });
        }
        if size == 0 {
            return Err(AllocError::InvalidSize { requested: size });
        }
        let tid = ctx.tid();
        let (addr, site) = match self.classes.class_for(size) {
            Some(class_idx) => {
                let (addr, site) = match self.caches[tid].alloc(ctx, class_idx) {
                    // Case 1: frontend hit. Reusing a remote-freed
                    // slot also claims its staged pointer, priced per
                    // batch.
                    Some(slot) if slot.remote => {
                        ctx.instrs(TRANSFER_POP_INSTRS);
                        if completes_batch(&mut self.claimed[class_idx]) {
                            // One MRAM read fetches the whole staged batch.
                            ctx.mram_read(slot.addr, TRANSFER_SLOT_BYTES * TRANSFER_BATCH);
                        }
                        (slot.addr, ServiceSite::TransferHit)
                    }
                    Some(slot) => (slot.addr, ServiceSite::FrontendHit),
                    // Case 2: frontend miss — refill from the backend.
                    None => {
                        let base = self.backend_alloc(ctx, CACHE_BLOCK_BYTES)?;
                        self.frag.on_reserve(u64::from(CACHE_BLOCK_BYTES));
                        let class_bytes = self.classes.class_bytes(class_idx);
                        self.region
                            .note_cache_block(base, tid, class_idx, class_bytes);
                        let cache = &mut self.caches[tid];
                        cache.add_block(ctx, class_idx, base);
                        let slot = cache
                            .alloc(ctx, class_idx)
                            .expect("fresh block has free sub-blocks");
                        (slot.addr, ServiceSite::FrontendRefill)
                    }
                };
                self.region.note_cache_alloc(addr, size);
                (addr, site)
            }
            // Case 3: frontend bypass straight to the backend.
            None => {
                let addr = self.backend_alloc(ctx, size)?;
                let reserved = self
                    .backend
                    .geometry()
                    .block_for_size(size)
                    .ok_or(AllocError::InvalidSize { requested: size })?;
                self.frag.on_reserve(u64::from(reserved));
                self.region.note_backend_alloc(addr, reserved, size);
                (addr, ServiceSite::Bypass)
            }
        };
        self.frag.on_user_alloc(u64::from(size));
        self.stats.record_malloc(site, ctx.now() - start);
        Ok(addr)
    }

    /// Frees the allocation at `addr`.
    fn pim_free(&mut self, ctx: &mut TaskletCtx<'_>, addr: u32) -> Result<(), AllocError> {
        ctx.instrs(FREE_ENTRY_INSTRS);
        if self.quarantined {
            return Err(AllocError::Quarantined {
                invalid_frees: self.invalid_frees,
            });
        }
        // O(1) host-side routing off the frame table; the simulated
        // cost is the block-header read charged below. A failed route
        // is a corrupted free: reject it, count it, and seal the
        // allocator once the quarantine budget is exhausted.
        let route = match self.region.take_route(addr) {
            Ok(route) => route,
            Err(err) => {
                self.invalid_frees = self.invalid_frees.saturating_add(1);
                if let Some(budget) = self.quarantine_after {
                    if self.invalid_frees > budget {
                        self.quarantined = true;
                        return Err(AllocError::Quarantined {
                            invalid_frees: self.invalid_frees,
                        });
                    }
                }
                return Err(err);
            }
        };
        ctx.mram_read(addr, BLOCK_HEADER_BYTES);
        match route {
            FreeRoute::Cache {
                tid,
                class_idx,
                requested,
            } => {
                let outcome = if tid != ctx.tid() {
                    // Update the owner's bitmap host-side (unpriced) and
                    // stage the pointer; the simulated cost is a few WRAM
                    // instructions plus one MRAM write per batch of
                    // staged pointers.
                    let outcome = self.caches[tid].free_remote(class_idx, addr);
                    ctx.instrs(TRANSFER_PUSH_INSTRS);
                    if outcome == FreeOutcome::Cached
                        && completes_batch(&mut self.staged[class_idx])
                    {
                        ctx.mram_write(addr, TRANSFER_SLOT_BYTES * TRANSFER_BATCH);
                        self.stats.transfer_flushes += 1;
                    }
                    self.stats.frees_remote_transfer += 1;
                    outcome
                } else {
                    self.caches[tid].free(ctx, class_idx, addr)
                };
                match outcome {
                    FreeOutcome::Cached => self.stats.record_free(false),
                    FreeOutcome::BlockReleased { block_base } => {
                        self.release_block(ctx, block_base)?;
                        self.stats.record_free(true);
                    }
                }
                self.frag.on_user_free(u64::from(requested));
            }
            FreeRoute::Backend { requested } => {
                let freed = self.backend_free(ctx, addr)?;
                self.frag.on_release(u64::from(freed));
                self.frag.on_user_free(u64::from(requested));
                self.stats.record_free(true);
            }
        }
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
    use crate::geometry::AllocGeometry;
    use pim_sim::DpuConfig;

    fn dpu(tasklets: usize) -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(tasklets))
    }

    fn small_sw(tasklets: usize) -> AllocGeometry {
        // A 1 MB heap keeps tests fast while preserving structure.
        AllocGeometry::sw(tasklets).with_heap_size(1 << 20)
    }

    #[test]
    fn init_prepopulates_every_pool() {
        let mut d = dpu(4);
        let pm = PimMalloc::init(&mut d, small_sw(4).build()).unwrap();
        for cache in pm.caches() {
            for pool in cache.pools() {
                assert_eq!(pool.block_count(), 1);
            }
        }
        // 4 tasklets × 8 classes × 4 KB reserved, nothing requested yet.
        assert_eq!(pm.frag().reserved_live(), 4 * 8 * 4096);
        assert!(pm.init_end() > pim_sim::Cycles::ZERO);
    }

    #[test]
    fn lazy_init_reserves_nothing() {
        let mut d = dpu(4);
        let pm = PimMalloc::init(&mut d, small_sw(4).lazy().build()).unwrap();
        assert_eq!(pm.frag().reserved_live(), 0);
        for cache in pm.caches() {
            assert!(cache.pools().iter().all(|p| p.block_count() == 0));
        }
    }

    #[test]
    fn small_allocation_hits_thread_cache() {
        let mut d = dpu(2);
        let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
        let mut ctx = d.ctx(1);
        let addr = pm.pim_malloc(&mut ctx, 128).unwrap();
        assert_eq!(pm.alloc_stats().frontend_hits, 1);
        assert_eq!(pm.live_allocations(), 1);
        pm.pim_free(&mut ctx, addr).unwrap();
        assert_eq!(pm.alloc_stats().frees_frontend, 1);
        assert_eq!(pm.live_allocations(), 0);
    }

    #[test]
    fn cache_exhaustion_triggers_refill() {
        let mut d = dpu(1);
        let mut pm = PimMalloc::init(&mut d, small_sw(1).build()).unwrap();
        let mut ctx = d.ctx(0);
        // 2 KB class holds 2 sub-blocks per 4 KB block; the third
        // allocation forces a backend refill.
        let a = pm.pim_malloc(&mut ctx, 2048).unwrap();
        let b = pm.pim_malloc(&mut ctx, 2048).unwrap();
        let c = pm.pim_malloc(&mut ctx, 2048).unwrap();
        assert_eq!(pm.alloc_stats().frontend_hits, 2);
        assert_eq!(pm.alloc_stats().frontend_refills, 1);
        for x in [a, b, c] {
            pm.pim_free(&mut ctx, x).unwrap();
        }
    }

    #[test]
    fn big_allocation_bypasses_cache() {
        let mut d = dpu(1);
        let mut pm = PimMalloc::init(&mut d, small_sw(1).build()).unwrap();
        let mut ctx = d.ctx(0);
        let addr = pm.pim_malloc(&mut ctx, 8192).unwrap();
        assert_eq!(pm.alloc_stats().bypass, 1);
        assert_eq!(addr % 8192, pm.backend().geometry().heap_base() % 8192);
        pm.pim_free(&mut ctx, addr).unwrap();
        assert_eq!(pm.alloc_stats().frees_backend, 1);
    }

    #[test]
    fn frontend_hit_is_much_faster_than_refill_or_bypass() {
        let mut d = dpu(1);
        let mut pm = PimMalloc::init(&mut d, small_sw(1).build()).unwrap();
        let mut ctx = d.ctx(0);
        let t0 = ctx.now();
        pm.pim_malloc(&mut ctx, 64).unwrap();
        let hit = (ctx.now() - t0).0;
        let t0 = ctx.now();
        pm.pim_malloc(&mut ctx, 4096).unwrap();
        let bypass = (ctx.now() - t0).0;
        assert!(
            bypass > hit * 3,
            "bypass ({bypass}) must dwarf a cache hit ({hit})"
        );
    }

    #[test]
    fn distinct_tasklets_get_distinct_memory_without_contention() {
        let mut d = dpu(16);
        let mut pm = PimMalloc::init(&mut d, small_sw(16).build()).unwrap();
        let mut addrs = Vec::new();
        for tid in 0..16 {
            let mut ctx = d.ctx(tid);
            for _ in 0..4 {
                addrs.push(pm.pim_malloc(&mut ctx, 256).unwrap());
            }
        }
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 64, "no overlap across tasklets");
        // All served by private caches: the backend mutex was never
        // contended.
        let total = d.total_stats();
        assert_eq!(total.busy_wait, pim_sim::Cycles::ZERO);
        assert_eq!(pm.alloc_stats().frontend_hits, 64);
    }

    #[test]
    fn invalid_requests_are_rejected() {
        let mut d = dpu(1);
        let mut pm = PimMalloc::init(&mut d, small_sw(1).build()).unwrap();
        let mut ctx = d.ctx(0);
        assert!(matches!(
            pm.pim_malloc(&mut ctx, 0),
            Err(AllocError::InvalidSize { .. })
        ));
        assert!(matches!(
            pm.pim_free(&mut ctx, 0x1234),
            Err(AllocError::InvalidFree { .. })
        ));
        // Without a quarantine budget, invalid frees are counted but
        // never seal the allocator.
        assert_eq!(pm.invalid_frees(), 1);
        assert!(!pm.is_quarantined());
        let addr = pm.pim_malloc(&mut ctx, 64).unwrap();
        pm.pim_free(&mut ctx, addr).unwrap();
    }

    #[test]
    fn quarantine_seals_after_the_invalid_free_budget() {
        let mut d = dpu(1);
        let cfg = small_sw(1).with_quarantine(2).build();
        let mut pm = PimMalloc::init(&mut d, cfg).unwrap();
        let mut ctx = d.ctx(0);
        let live = pm.pim_malloc(&mut ctx, 64).unwrap();

        // The first two corrupted frees are rejected individually.
        for i in 0..2u32 {
            assert!(matches!(
                pm.pim_free(&mut ctx, 0xDEAD_0000 + i),
                Err(AllocError::InvalidFree { .. })
            ));
            assert!(!pm.is_quarantined());
        }
        // Valid operations still work while under budget.
        let second = pm.pim_malloc(&mut ctx, 64).unwrap();
        pm.pim_free(&mut ctx, second).unwrap();

        // The third corrupted free exceeds the budget and seals.
        assert!(matches!(
            pm.pim_free(&mut ctx, 0xDEAD_BEEF),
            Err(AllocError::Quarantined { invalid_frees: 3 })
        ));
        assert!(pm.is_quarantined());
        assert_eq!(pm.invalid_frees(), 3);

        // Every subsequent operation — even a valid free — is refused.
        assert!(matches!(
            pm.pim_malloc(&mut ctx, 64),
            Err(AllocError::Quarantined { .. })
        ));
        assert!(matches!(
            pm.pim_free(&mut ctx, live),
            Err(AllocError::Quarantined { .. })
        ));
        // The frame table was never corrupted by the garbage frees:
        // the live allocation is still accounted.
        assert_eq!(pm.live_allocations(), 1);
    }

    #[test]
    fn heap_exhaustion_reports_oom() {
        let mut d = dpu(1);
        // 64 KB heap: 16 backend blocks.
        let cfg = AllocGeometry::sw(1).with_heap_size(64 << 10).build();
        let mut pm = PimMalloc::init(&mut d, cfg).unwrap();
        let mut ctx = d.ctx(0);
        let mut count = 0;
        loop {
            match pm.pim_malloc(&mut ctx, 32 << 10) {
                Ok(_) => count += 1,
                Err(AllocError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // 8 blocks of 4 KB went to pre-population, leaving 32 KB.
        assert_eq!(count, 1);
    }

    #[test]
    fn hwsw_variant_reports_cache_stats() {
        let mut d = dpu(1);
        let cfg = AllocGeometry::hw_sw(1).with_heap_size(1 << 20).build();
        let mut pm = PimMalloc::init(&mut d, cfg).unwrap();
        let mut ctx = d.ctx(0);
        for _ in 0..16 {
            pm.pim_malloc(&mut ctx, 4096).unwrap();
        }
        let stats = pm.buddy_cache_stats().expect("HW/SW has a buddy cache");
        assert!(stats.hits + stats.misses > 0);
        // The SW variant reports none.
        let mut d2 = dpu(1);
        let pm2 = PimMalloc::init(&mut d2, small_sw(1).build()).unwrap();
        assert!(pm2.buddy_cache_stats().is_none());
    }

    #[test]
    fn fragmentation_of_prepopulated_single_class_workload() {
        // Table III intuition: a workload that only ever touches one
        // size class leaves 7 of 8 pre-populated pools unused.
        let mut d = dpu(1);
        let mut pm = PimMalloc::init(&mut d, small_sw(1).build()).unwrap();
        let mut ctx = d.ctx(0);
        for _ in 0..16 {
            pm.pim_malloc(&mut ctx, 256).unwrap();
        }
        let eager = pm.frag().ratio();

        let mut d2 = dpu(1);
        let mut pm2 = PimMalloc::init(&mut d2, small_sw(1).lazy().build()).unwrap();
        let mut ctx2 = d2.ctx(0);
        for _ in 0..16 {
            pm2.pim_malloc(&mut ctx2, 256).unwrap();
        }
        let lazy = pm2.frag().ratio();
        assert!(
            eager > lazy,
            "pre-population must increase fragmentation ({eager} vs {lazy})"
        );
        assert!(lazy >= 1.0);
    }

    #[test]
    fn tasklet_count_outside_the_dpu_is_a_typed_error() {
        for n in [0, 25] {
            let mut d = dpu(1);
            assert!(matches!(
                PimMalloc::init(&mut d, small_sw(n).build()),
                Err(InitError::Tasklets { n: got }) if got == n
            ));
        }
    }

    #[test]
    fn wram_budget_is_enforced() {
        let mut d = dpu(1);
        let cfg = small_sw(1)
            .with_backend(BackendKind::Coarse {
                buffer_bytes: 128 << 10, // bigger than WRAM
            })
            .build();
        assert!(matches!(
            PimMalloc::init(&mut d, cfg),
            Err(InitError::Wram(_))
        ));
    }

    #[test]
    fn alloc_free_cycle_preserves_backend_capacity() {
        let mut d = dpu(2);
        let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
        let free0 = pm.backend().free_bytes();
        for round in 0..3 {
            let mut addrs = Vec::new();
            for tid in 0..2 {
                let mut ctx = d.ctx(tid);
                for i in 0..64 {
                    let size = [24, 100, 500, 1500][(i + round) % 4];
                    addrs.push((tid, pm.pim_malloc(&mut ctx, size).unwrap()));
                }
            }
            for (tid, addr) in addrs {
                let mut ctx = d.ctx(tid);
                pm.pim_free(&mut ctx, addr).unwrap();
            }
        }
        // All user memory returned; caches may retain one block per
        // touched pool beyond the pre-populated one... but never grow
        // without bound.
        assert!(pm.backend().free_bytes() <= free0);
        assert_eq!(pm.live_allocations(), 0);
        assert_eq!(pm.frag().requested_live(), 0);
        pm.backend().check_invariants();
    }

    #[test]
    fn remote_free_stages_in_the_transfer_cache() {
        let mut d = dpu(2);
        let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
        let addr = {
            let mut ctx = d.ctx(0);
            pm.pim_malloc(&mut ctx, 256).unwrap()
        };
        {
            let mut ctx = d.ctx(1);
            pm.pim_free(&mut ctx, addr).unwrap();
        }
        assert_eq!(pm.alloc_stats().frees_remote_transfer, 1);
        // The owner's next allocation of that class reuses the
        // remote-freed slot and claims its staged pointer.
        let mut ctx = d.ctx(0);
        let again = pm.pim_malloc(&mut ctx, 256).unwrap();
        assert_eq!(again, addr);
        assert_eq!(pm.alloc_stats().transfer_hits, 1);
    }

    #[test]
    fn unclaimed_remote_frees_are_not_capped() {
        // 100 unclaimed remote frees in the 16 B class, past the 64 a
        // per-class staging ring used to hold. Every reuse is a
        // transfer hit, every 8th staged free wrote a batch, and the
        // addresses are those of the same frees issued by the owner.
        let run = |freer: usize| {
            let mut d = dpu(2);
            let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
            let mut addrs: Vec<u32> = {
                let mut ctx = d.ctx(0);
                (0..100)
                    .map(|_| pm.pim_malloc(&mut ctx, 16).unwrap())
                    .collect()
            };
            let mut ctx = d.ctx(freer);
            for &a in &addrs {
                pm.pim_free(&mut ctx, a).unwrap();
            }
            let mut ctx = d.ctx(0);
            addrs.extend((0..100).map(|_| pm.pim_malloc(&mut ctx, 16).unwrap()));
            (addrs, pm.alloc_stats().clone())
        };
        let (addrs, stats) = run(1);
        assert_eq!(stats.frees_remote_transfer, 100);
        assert_eq!(stats.transfer_hits, 100);
        assert_eq!(stats.transfer_flushes, 100 / 8);
        assert_eq!(stats.frontend_hits, 100);
        let (owner_addrs, owner_stats) = run(0);
        assert_eq!(owner_stats.frees_remote_transfer, 0);
        assert_eq!(addrs, owner_addrs);
    }

    #[test]
    fn every_eighth_staged_free_flushes() {
        // Staged frees are counted per class: the free that completes a
        // batch of 8 in its own class writes one 64 B batch to MRAM,
        // however many frees other classes staged in between.
        let mut d = dpu(2);
        let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
        let mut ctx = d.ctx(0);
        let small: Vec<u32> = (0..16)
            .map(|_| pm.pim_malloc(&mut ctx, 16).unwrap())
            .collect();
        let large: Vec<u32> = (0..8)
            .map(|_| pm.pim_malloc(&mut ctx, 256).unwrap())
            .collect();
        let mut order = Vec::new();
        for (i, &a) in small.iter().enumerate() {
            order.push(a);
            if i < 7 {
                order.push(large[i]);
            }
        }
        order.push(large[7]);
        let mut flushed = Vec::new();
        for a in order {
            let before = d.traffic().bytes_written;
            pm.pim_free(&mut d.ctx(1), a).unwrap();
            match d.traffic().bytes_written - before {
                0 => {}
                64 => flushed.push(a),
                other => panic!("free of {a:#x} wrote {other} B"),
            }
        }
        assert_eq!(flushed, [small[7], small[15], large[7]]);
        assert_eq!(pm.alloc_stats().frees_remote_transfer, 24);
        assert_eq!(pm.alloc_stats().transfer_flushes, 3);
    }

    #[test]
    fn remote_reuse_claims_once_and_reads_per_batch() {
        // Each reuse of a remote-freed slot is one claim, counted per
        // class: the 8th claim in a class reads one 64 B batch back
        // from MRAM, and a claimed slot freed locally claims nothing.
        fn malloc_reading(d: &mut DpuSim, pm: &mut PimMalloc, size: u32) -> (u32, u64) {
            let before = d.traffic().bytes_read;
            let addr = pm.pim_malloc(&mut d.ctx(0), size).unwrap();
            (addr, d.traffic().bytes_read - before)
        }
        let mut d = dpu(2);
        let mut pm = PimMalloc::init(&mut d, small_sw(2).build()).unwrap();
        let mut ctx = d.ctx(0);
        let small: Vec<u32> = (0..9)
            .map(|_| pm.pim_malloc(&mut ctx, 16).unwrap())
            .collect();
        let large = pm.pim_malloc(&mut ctx, 256).unwrap();
        let mut ctx = d.ctx(1);
        for &a in small.iter().chain([&large]) {
            pm.pim_free(&mut ctx, a).unwrap();
        }
        for &a in &small[..7] {
            assert_eq!(malloc_reading(&mut d, &mut pm, 16), (a, 0));
        }
        // A claim in another class does not complete the 16 B batch.
        assert_eq!(malloc_reading(&mut d, &mut pm, 256), (large, 0));
        assert_eq!(malloc_reading(&mut d, &mut pm, 16), (small[7], 64));
        assert_eq!(malloc_reading(&mut d, &mut pm, 16), (small[8], 0));
        assert_eq!(pm.alloc_stats().transfer_hits, 10);
        pm.pim_free(&mut d.ctx(0), small[0]).unwrap();
        assert_eq!(malloc_reading(&mut d, &mut pm, 16), (small[0], 0));
        assert_eq!(pm.alloc_stats().transfer_hits, 10, "already claimed");
        assert_eq!(pm.alloc_stats().frontend_hits, 11);
    }
}
