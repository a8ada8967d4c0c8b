//! Selecting which allocator a workload runs on.

use pim_malloc::{
    AllocGeometry, BackendKind, MetaStats, PimAllocator, PimMalloc, StrawManAllocator,
    StrawManConfig,
};
use pim_sim::{BuddyCacheConfig, BuddyCacheStats, DpuSim};
use serde::{Deserialize, Serialize};

/// The allocator design points compared throughout the paper's
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// The straw-man `buddy_alloc_PIM_DRAM` (20-level tree, §III-B).
    StrawMan,
    /// PIM-malloc-SW: thread caches + coarse-buffered buddy backend.
    Sw,
    /// PIM-malloc-SW without thread-cache pre-population (Table III).
    SwLazy,
    /// PIM-malloc-HW/SW: thread caches + hardware buddy cache backend.
    HwSw,
    /// PIM-malloc with the fine-grained software-LRU backend — the
    /// §IV-B ablation that regressed 29%.
    SwFineLru,
}

impl AllocatorKind {
    /// The three headline designs of Figures 15, 17 and 18.
    pub const HEADLINE: [AllocatorKind; 3] = [
        AllocatorKind::StrawMan,
        AllocatorKind::Sw,
        AllocatorKind::HwSw,
    ];

    /// Short label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::StrawMan => "Straw-man",
            AllocatorKind::Sw => "PIM-malloc-SW",
            AllocatorKind::SwLazy => "PIM-malloc-lazy",
            AllocatorKind::HwSw => "PIM-malloc-HW/SW",
            AllocatorKind::SwFineLru => "PIM-malloc-SW (fine-grained LRU)",
        }
    }

    /// Builds and initializes the allocator on `dpu` with a heap of
    /// `heap_size` bytes for `n_tasklets` tasklets.
    ///
    /// # Panics
    ///
    /// Panics if initialization fails (WRAM overflow or heap too small
    /// for pre-population) — workload configurations are trusted.
    pub fn build(
        self,
        dpu: &mut DpuSim,
        n_tasklets: usize,
        heap_size: u32,
    ) -> Box<dyn PimAllocator> {
        match self {
            AllocatorKind::StrawMan => {
                let cfg = StrawManConfig {
                    heap_size,
                    ..StrawManConfig::default()
                };
                Box::new(StrawManAllocator::init(dpu, cfg).expect("straw-man init"))
            }
            AllocatorKind::Sw => {
                let cfg = AllocGeometry::sw(n_tasklets)
                    .with_heap_size(heap_size)
                    .build();
                Box::new(PimMalloc::init(dpu, cfg).expect("PIM-malloc-SW init"))
            }
            AllocatorKind::SwLazy => {
                let cfg = AllocGeometry::sw(n_tasklets)
                    .with_heap_size(heap_size)
                    .lazy()
                    .build();
                Box::new(PimMalloc::init(dpu, cfg).expect("PIM-malloc-lazy init"))
            }
            AllocatorKind::HwSw => {
                let cfg = AllocGeometry::hw_sw(n_tasklets)
                    .with_heap_size(heap_size)
                    .build();
                Box::new(PimMalloc::init(dpu, cfg).expect("PIM-malloc-HW/SW init"))
            }
            AllocatorKind::SwFineLru => {
                // 64 granules of 8 B: 512 B of WRAM, a quarter of the
                // coarse window's 2 KB.
                let cfg = AllocGeometry::sw(n_tasklets)
                    .with_heap_size(heap_size)
                    .with_backend(BackendKind::FineLru {
                        entries: 64,
                        granule_bytes: 8,
                    })
                    .build();
                Box::new(PimMalloc::init(dpu, cfg).expect("fine-LRU init"))
            }
        }
    }

    /// The buddy-cache configuration used by [`AllocatorKind::HwSw`],
    /// for sensitivity sweeps (Figure 16).
    pub fn hw_sw_with_cache(
        dpu: &mut DpuSim,
        n_tasklets: usize,
        heap_size: u32,
        cache: BuddyCacheConfig,
    ) -> Box<dyn PimAllocator> {
        let cfg = AllocGeometry::hw_sw(n_tasklets)
            .with_heap_size(heap_size)
            .with_backend(BackendKind::HwCache { cache })
            .build();
        Box::new(PimMalloc::init(dpu, cfg).expect("HW/SW init"))
    }
}

/// The metadata and buddy-cache statistics of an allocator built by
/// [`AllocatorKind::build`]. `PimAllocator` mirrors the paper's C API
/// and carries no statistics, so this downcasts to the two concrete
/// allocators; any other reads as zero traffic and no cache.
pub(crate) fn allocator_meta(alloc: &dyn PimAllocator) -> (MetaStats, Option<BuddyCacheStats>) {
    let any = alloc.as_any();
    if let Some(pm) = any.downcast_ref::<PimMalloc>() {
        (pm.metadata_stats(), pm.buddy_cache_stats())
    } else if let Some(sm) = any.downcast_ref::<StrawManAllocator>() {
        (sm.metadata_stats(), None)
    } else {
        (MetaStats::default(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::DpuConfig;

    #[test]
    fn every_kind_builds_and_allocates() {
        for kind in [
            AllocatorKind::StrawMan,
            AllocatorKind::Sw,
            AllocatorKind::SwLazy,
            AllocatorKind::HwSw,
            AllocatorKind::SwFineLru,
        ] {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
            let mut alloc = kind.build(&mut dpu, 4, 1 << 20);
            let mut ctx = dpu.ctx(0);
            let addr = alloc.pim_malloc(&mut ctx, 64).unwrap();
            alloc.pim_free(&mut ctx, addr).unwrap();
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn headline_list_matches_paper_figures() {
        assert_eq!(
            AllocatorKind::HEADLINE,
            [
                AllocatorKind::StrawMan,
                AllocatorKind::Sw,
                AllocatorKind::HwSw
            ]
        );
    }
}
