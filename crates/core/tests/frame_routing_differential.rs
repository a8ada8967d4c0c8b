//! Differential property test of the frame-table free routing.
//!
//! Random malloc/free interleavings drive a [`PimMalloc`] whose
//! `pim_free` routes through the O(1) `RegionMap`, while a test-side
//! reference oracle — `BTreeMap`s keyed by address, the bookkeeping the
//! production code used to carry — shadows every decision: which
//! service site each malloc must hit, which addresses are live, whether
//! a free is valid, whether it stays in the thread cache or releases a
//! block to the backend, and the exact A/U fragmentation counters. Any
//! divergence between the frame table and the oracle (addresses,
//! errors, `ServiceSite` stats, frag accounting) fails the property.

use std::collections::BTreeMap;

use pim_malloc::{
    AllocError, AllocGeometry, PimAllocator, PimMalloc, CACHE_BLOCK_BYTES, DEFAULT_SIZE_CLASSES,
};
use pim_sim::{DpuConfig, DpuSim};
use proptest::prelude::*;

const HEAP_SIZE: u32 = 1 << 20;

#[derive(Debug, Clone)]
enum Op {
    Alloc { tid: usize, size: u32 },
    FreeLive { victim: usize },
    FreeJunk { addr: u32 },
}

fn op_strategy(n_tasklets: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n_tasklets, 1u32..8192).prop_map(|(tid, size)| Op::Alloc { tid, size }),
        3 => any::<usize>().prop_map(|victim| Op::FreeLive { victim }),
        1 => any::<u32>().prop_map(|addr| Op::FreeJunk { addr }),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Class { tid: usize, class_idx: usize },
    Bypass,
}

/// The reference oracle: address-keyed BTreeMap bookkeeping of live
/// allocations and per-pool block occupancy.
#[derive(Debug, Default)]
struct Oracle {
    /// addr -> (requested bytes, route recorded at alloc time).
    live: BTreeMap<u32, (u32, Route)>,
    /// (tid, class) -> block base -> sub-blocks in use.
    pools: BTreeMap<(usize, usize), BTreeMap<u32, u32>>,
    /// (tid, class) -> pre-populated blocks not yet observed.
    unmaterialized: BTreeMap<(usize, usize), u32>,
    hits: u64,
    refills: u64,
    bypass: u64,
    frees_frontend: u64,
    frees_backend: u64,
    reserved: u64,
    requested: u64,
}

fn class_for(size: u32) -> Option<usize> {
    DEFAULT_SIZE_CLASSES.iter().position(|&c| c >= size)
}

fn slots_per_block(class_idx: usize) -> u32 {
    CACHE_BLOCK_BYTES / DEFAULT_SIZE_CLASSES[class_idx]
}

fn block_base(heap_base: u32, addr: u32) -> u32 {
    addr - ((addr - heap_base) % CACHE_BLOCK_BYTES)
}

impl Oracle {
    fn new(n_tasklets: usize, prepopulate: bool) -> Self {
        let mut o = Oracle::default();
        if prepopulate {
            for tid in 0..n_tasklets {
                for class_idx in 0..DEFAULT_SIZE_CLASSES.len() {
                    o.unmaterialized.insert((tid, class_idx), 1);
                    o.reserved += u64::from(CACHE_BLOCK_BYTES);
                }
            }
        }
        o
    }

    /// Free sub-block capacity of one pool, counting unseen
    /// pre-populated blocks.
    fn pool_free_slots(&self, tid: usize, class_idx: usize) -> u32 {
        let per_block = slots_per_block(class_idx);
        let hidden = self
            .unmaterialized
            .get(&(tid, class_idx))
            .copied()
            .unwrap_or(0);
        let known: u32 = self
            .pools
            .get(&(tid, class_idx))
            .map(|blocks| blocks.values().map(|used| per_block - used).sum())
            .unwrap_or(0);
        hidden * per_block + known
    }

    fn on_alloc_ok(
        &mut self,
        heap_base: u32,
        tid: usize,
        size: u32,
        addr: u32,
        predicted_hit: bool,
    ) {
        match class_for(size) {
            Some(class_idx) => {
                let base = block_base(heap_base, addr);
                let pool = self.pools.entry((tid, class_idx)).or_default();
                if let Some(used) = pool.get_mut(&base) {
                    *used += 1;
                } else {
                    // First touch of this block: either a pre-populated
                    // block just materialized (a frontend hit) or a
                    // fresh refill from the backend.
                    let hidden = self.unmaterialized.entry((tid, class_idx)).or_insert(0);
                    if predicted_hit {
                        assert!(*hidden > 0, "hit on an unknown block at {addr:#x}");
                        *hidden -= 1;
                    } else {
                        self.reserved += u64::from(CACHE_BLOCK_BYTES);
                    }
                    pool.insert(base, 1);
                }
                if predicted_hit {
                    self.hits += 1;
                } else {
                    self.refills += 1;
                }
                self.live
                    .insert(addr, (size, Route::Class { tid, class_idx }));
            }
            None => {
                self.bypass += 1;
                self.reserved += u64::from(size.next_power_of_two().max(CACHE_BLOCK_BYTES));
                self.live.insert(addr, (size, Route::Bypass));
            }
        }
        self.requested += u64::from(size);
    }

    fn on_free(&mut self, heap_base: u32, addr: u32) {
        let (size, route) = self.live.remove(&addr).expect("oracle frees live addrs");
        match route {
            Route::Class { tid, class_idx } => {
                let base = block_base(heap_base, addr);
                let pool = self.pools.get_mut(&(tid, class_idx)).expect("pool exists");
                let used = pool.get_mut(&base).expect("block exists");
                *used -= 1;
                let hidden = self
                    .unmaterialized
                    .get(&(tid, class_idx))
                    .copied()
                    .unwrap_or(0);
                if *used == 0 && pool.len() as u32 + hidden > 1 {
                    // Fully-free non-last block: released to the backend.
                    pool.remove(&base);
                    self.reserved -= u64::from(CACHE_BLOCK_BYTES);
                    self.frees_backend += 1;
                } else {
                    self.frees_frontend += 1;
                }
            }
            Route::Bypass => {
                self.reserved -= u64::from(size.next_power_of_two().max(CACHE_BLOCK_BYTES));
                self.frees_backend += 1;
            }
        }
        self.requested -= u64::from(size);
    }
}

fn run_differential(n_tasklets: usize, prepopulate: bool, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let base_geom = AllocGeometry::sw(n_tasklets).with_heap_size(HEAP_SIZE);
    let cfg = if prepopulate {
        base_geom.build()
    } else {
        base_geom.lazy().build()
    };
    let heap_base = cfg.heap_base();
    let mut pm = PimMalloc::init(&mut dpu, cfg).unwrap();
    let mut oracle = Oracle::new(n_tasklets, prepopulate);

    for op in ops {
        match op {
            Op::Alloc { tid, size } => {
                let predicted_hit = class_for(*size)
                    .map(|ci| oracle.pool_free_slots(*tid, ci) > 0)
                    .unwrap_or(false);
                let mut ctx = dpu.ctx(*tid);
                match pm.pim_malloc(&mut ctx, *size) {
                    Ok(addr) => {
                        prop_assert!(
                            !oracle.live.contains_key(&addr),
                            "address {addr:#x} handed out twice"
                        );
                        oracle.on_alloc_ok(heap_base, *tid, *size, addr, predicted_hit);
                    }
                    Err(AllocError::OutOfMemory { .. }) => {
                        prop_assert!(
                            !predicted_hit,
                            "a predicted frontend hit cannot run out of memory"
                        );
                    }
                    Err(e) => prop_assert!(false, "unexpected error {e}"),
                }
            }
            Op::FreeLive { victim } => {
                if oracle.live.is_empty() {
                    continue;
                }
                let addr = *oracle
                    .live
                    .keys()
                    .nth(victim % oracle.live.len())
                    .expect("nonempty");
                let mut ctx = dpu.ctx(0);
                prop_assert_eq!(
                    pm.pim_free(&mut ctx, addr),
                    Ok(()),
                    "live free must succeed"
                );
                oracle.on_free(heap_base, addr);
            }
            Op::FreeJunk { addr } => {
                if oracle.live.contains_key(addr) {
                    continue; // landed on a live allocation by chance
                }
                let mut ctx = dpu.ctx(0);
                prop_assert_eq!(
                    pm.pim_free(&mut ctx, *addr),
                    Err(AllocError::InvalidFree { addr: *addr }),
                    "junk free must be rejected without state change"
                );
            }
        }
        // The frame table must agree with the oracle after every op.
        let s = pm.alloc_stats();
        // Reuses of remote-freed slots count as transfer hits; the
        // oracle tracks all cache hits together.
        prop_assert_eq!(s.frontend_hits + s.transfer_hits, oracle.hits);
        prop_assert_eq!(s.frontend_refills, oracle.refills);
        prop_assert_eq!(s.bypass, oracle.bypass);
        prop_assert_eq!(s.frees_frontend, oracle.frees_frontend);
        prop_assert_eq!(s.frees_backend, oracle.frees_backend);
        prop_assert_eq!(pm.live_allocations(), oracle.live.len());
        prop_assert_eq!(pm.frag().requested_live(), oracle.requested);
        prop_assert_eq!(pm.frag().reserved_live(), oracle.reserved);
    }

    // Drain everything: every oracle-live address must free cleanly.
    let remaining: Vec<u32> = oracle.live.keys().copied().collect();
    for addr in remaining {
        let mut ctx = dpu.ctx(0);
        prop_assert_eq!(pm.pim_free(&mut ctx, addr), Ok(()));
        oracle.on_free(heap_base, addr);
    }
    prop_assert_eq!(pm.live_allocations(), 0);
    prop_assert_eq!(pm.frag().requested_live(), 0);
    pm.backend().check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn frame_routing_matches_oracle_eager(
        ops in proptest::collection::vec(op_strategy(4), 1..160)
    ) {
        run_differential(4, true, &ops)?;
    }

    #[test]
    fn frame_routing_matches_oracle_lazy(
        ops in proptest::collection::vec(op_strategy(2), 1..160)
    ) {
        run_differential(2, false, &ops)?;
    }

    #[test]
    fn frame_routing_matches_oracle_sixteen_tasklets(
        ops in proptest::collection::vec(op_strategy(16), 1..200)
    ) {
        run_differential(16, true, &ops)?;
    }
}
