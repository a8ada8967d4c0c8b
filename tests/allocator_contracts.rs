//! Cross-crate contract tests: every allocator design must satisfy the
//! same behavioural contract through the `dyn PimAllocator` interface
//! the workloads use.

use std::collections::BTreeMap;

use pim_malloc::{AllocError, AllocGeometry, BackendKind, PimAllocator, PimMalloc};
use pim_sim::{BuddyCacheConfig, DpuConfig, DpuSim};
use pim_workloads::AllocatorKind;

const KINDS: [AllocatorKind; 5] = [
    AllocatorKind::StrawMan,
    AllocatorKind::Sw,
    AllocatorKind::SwLazy,
    AllocatorKind::HwSw,
    AllocatorKind::SwFineLru,
];

fn setup(kind: AllocatorKind, tasklets: usize) -> (DpuSim, Box<dyn PimAllocator>) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(tasklets));
    let alloc = kind.build(&mut dpu, tasklets, 4 << 20);
    (dpu, alloc)
}

#[test]
fn every_design_returns_disjoint_aligned_blocks() {
    for kind in KINDS {
        let (mut dpu, mut alloc) = setup(kind, 8);
        let mut spans: BTreeMap<u32, u32> = BTreeMap::new();
        for i in 0..200u32 {
            let size = [16u32, 80, 256, 1000, 4096][i as usize % 5];
            let tid = (i as usize) % 8;
            let mut ctx = dpu.ctx(tid);
            let addr = alloc
                .pim_malloc(&mut ctx, size)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let occupied = size.next_power_of_two().max(16);
            if let Some((&pa, &pl)) = spans.range(..=addr).next_back() {
                assert!(pa + pl <= addr, "{kind:?}: {pa:#x}+{pl} overlaps {addr:#x}");
            }
            if let Some((&na, _)) = spans.range(addr + 1..).next() {
                assert!(addr + occupied <= na, "{kind:?}: {addr:#x} overlaps next");
            }
            spans.insert(addr, occupied);
        }
    }
}

#[test]
fn every_design_rejects_invalid_operations() {
    for kind in KINDS {
        let (mut dpu, mut alloc) = setup(kind, 1);
        let mut ctx = dpu.ctx(0);
        assert!(
            matches!(
                alloc.pim_malloc(&mut ctx, 0),
                Err(AllocError::InvalidSize { .. }) | Err(AllocError::OutOfMemory { .. })
            ),
            "{kind:?} must reject zero-size requests"
        );
        assert!(
            matches!(
                alloc.pim_free(&mut ctx, 0x0dea_d000),
                Err(AllocError::InvalidFree { .. })
            ),
            "{kind:?} must reject bogus frees"
        );
        // Double free.
        let addr = alloc.pim_malloc(&mut ctx, 64).unwrap();
        alloc.pim_free(&mut ctx, addr).unwrap();
        assert!(
            matches!(
                alloc.pim_free(&mut ctx, addr),
                Err(AllocError::InvalidFree { .. })
            ),
            "{kind:?} must reject double frees"
        );
    }
}

#[test]
fn quarantine_contract_holds_through_the_dyn_interface() {
    // A quarantine budget is a PimMalloc config knob, but the sealing
    // behaviour must be observable through the same `dyn PimAllocator`
    // surface the workloads use: invalid frees within the budget are
    // reported individually, the overrun seals the allocator, and a
    // sealed allocator refuses even valid traffic.
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let cfg = AllocGeometry::sw(1).with_quarantine(2).build();
    let mut alloc: Box<dyn PimAllocator> = Box::new(PimMalloc::init(&mut dpu, cfg).expect("init"));
    let mut ctx = dpu.ctx(0);
    let live = alloc.pim_malloc(&mut ctx, 128).unwrap();
    for i in 0..2u32 {
        assert!(matches!(
            alloc.pim_free(&mut ctx, 0x0dea_d000 + i),
            Err(AllocError::InvalidFree { .. })
        ));
    }
    assert!(matches!(
        alloc.pim_free(&mut ctx, 0x0dea_d100),
        Err(AllocError::Quarantined { invalid_frees: 3 })
    ));
    assert!(matches!(
        alloc.pim_malloc(&mut ctx, 64),
        Err(AllocError::Quarantined { .. })
    ));
    assert!(matches!(
        alloc.pim_free(&mut ctx, live),
        Err(AllocError::Quarantined { .. })
    ));
}

#[test]
fn every_design_recovers_all_memory_after_churn() {
    for kind in KINDS {
        let (mut dpu, mut alloc) = setup(kind, 4);
        // Three rounds of allocate-everything / free-everything.
        for round in 0..3 {
            let mut live = Vec::new();
            for i in 0..120u32 {
                let size = [32u32, 128, 512, 2048, 8192][(i as usize + round) % 5];
                let tid = (i as usize) % 4;
                let mut ctx = dpu.ctx(tid);
                live.push((tid, alloc.pim_malloc(&mut ctx, size).unwrap()));
            }
            for (tid, addr) in live {
                let mut ctx = dpu.ctx(tid);
                alloc.pim_free(&mut ctx, addr).unwrap();
            }
        }
        // After full churn a heap-half allocation must still succeed:
        // nothing leaked, coalescing worked.
        let mut ctx = dpu.ctx(0);
        let big = alloc.pim_malloc(&mut ctx, 1 << 20);
        assert!(big.is_ok(), "{kind:?} leaked memory across churn rounds");
    }
}

#[test]
fn oom_is_recoverable_not_fatal() {
    for kind in KINDS {
        let (mut dpu, mut alloc) = setup(kind, 1);
        let mut live = Vec::new();
        loop {
            let mut ctx = dpu.ctx(0);
            match alloc.pim_malloc(&mut ctx, 256 << 10) {
                Ok(a) => live.push(a),
                Err(AllocError::OutOfMemory { .. }) => break,
                Err(e) => panic!("{kind:?}: unexpected {e}"),
            }
        }
        assert!(!live.is_empty(), "{kind:?} allocated nothing before OOM");
        // Free one block; the same request must now succeed.
        let victim = live.pop().unwrap();
        let mut ctx = dpu.ctx(0);
        alloc.pim_free(&mut ctx, victim).unwrap();
        assert!(
            alloc.pim_malloc(&mut ctx, 256 << 10).is_ok(),
            "{kind:?} must recover after a free"
        );
    }
}

#[test]
fn latency_ordering_straw_man_worst_for_small_allocs() {
    let mut means = Vec::new();
    for kind in [
        AllocatorKind::StrawMan,
        AllocatorKind::Sw,
        AllocatorKind::HwSw,
    ] {
        let (mut dpu, mut alloc) = setup(kind, 1);
        for _ in 0..64 {
            let mut ctx = dpu.ctx(0);
            alloc.pim_malloc(&mut ctx, 64).unwrap();
        }
        means.push(alloc.alloc_stats().malloc_latencies.mean());
    }
    assert!(
        means[0] > means[1] && means[1] >= means[2],
        "expected straw-man > SW >= HW/SW, got {means:?}"
    );
}

/// Workspace-wiring guard: every metadata backend `pim_malloc` exposes
/// must construct and serve a round-trip on a default `DpuSim`. If a
/// manifest or feature change drops a backend's supporting code, this
/// test fails here rather than only in downstream binaries.
#[test]
fn every_backend_kind_constructs_on_default_sim() {
    let backends = [
        BackendKind::Wram,
        BackendKind::Coarse { buffer_bytes: 2048 },
        BackendKind::FineLru {
            entries: 64,
            granule_bytes: 64,
        },
        BackendKind::HwCache {
            cache: BuddyCacheConfig::default(),
        },
        BackendKind::HwCache {
            cache: BuddyCacheConfig {
                entries: 64,
                bytes_per_entry: 64,
            },
        },
    ];
    for backend in backends {
        let mut dpu = DpuSim::new(DpuConfig::default());
        let config = AllocGeometry::sw(dpu.config().n_tasklets)
            .with_backend(backend)
            .build();
        let mut alloc = PimMalloc::init(&mut dpu, config)
            .unwrap_or_else(|e| panic!("{backend:?} failed to init: {e}"));
        let mut ctx = dpu.ctx(0);
        let addr = alloc
            .pim_malloc(&mut ctx, 256)
            .unwrap_or_else(|e| panic!("{backend:?} failed to malloc: {e}"));
        alloc
            .pim_free(&mut ctx, addr)
            .unwrap_or_else(|e| panic!("{backend:?} failed to free: {e}"));
    }
}

#[test]
fn stats_are_consistent_with_operations() {
    let (mut dpu, mut alloc) = setup(AllocatorKind::Sw, 2);
    let mut addrs = Vec::new();
    for i in 0..40 {
        let mut ctx = dpu.ctx(i % 2);
        addrs.push((i % 2, alloc.pim_malloc(&mut ctx, 100).unwrap()));
    }
    assert_eq!(alloc.alloc_stats().total_mallocs(), 40);
    assert_eq!(alloc.alloc_stats().malloc_latencies.len(), 40);
    for (tid, addr) in addrs {
        let mut ctx = dpu.ctx(tid);
        alloc.pim_free(&mut ctx, addr).unwrap();
    }
    let s = alloc.alloc_stats();
    assert_eq!(s.frees_frontend + s.frees_backend, 40);
}
