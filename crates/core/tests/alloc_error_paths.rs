//! Property coverage of the allocator's *error* paths: hostile frees —
//! double frees, garbage addresses, out-of-region and interior
//! pointers — must always come back as `Err`, never as a panic, and
//! must never corrupt the frame table's accounting of the allocations
//! that are actually live. The same holds under the quarantine path:
//! once the invalid-free budget is exhausted the allocator seals
//! itself with [`AllocError::Quarantined`] instead of touching heap
//! metadata again.

use std::collections::BTreeSet;

use pim_malloc::{
    AllocError, AllocGeometry, PimAllocator, PimMalloc, RegionMap, SizeClassTable,
    CACHE_BLOCK_BYTES,
};
use pim_sim::{DpuConfig, DpuSim};
use proptest::prelude::*;

const HEAP_BASE: u32 = 0x0200_0000;
const HEAP_SIZE: u32 = 1 << 20;

fn fresh(tasklets: usize, quarantine: Option<u32>) -> (DpuSim, PimMalloc) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(tasklets));
    let mut geom = AllocGeometry::sw(tasklets).with_heap_size(HEAP_SIZE);
    if let Some(budget) = quarantine {
        geom = geom.with_quarantine(budget);
    }
    let pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    (dpu, pm)
}

/// Addresses that must never route: outside the heap, misaligned,
/// interior to blocks, or plain garbage.
fn hostile_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Below the heap.
        0u32..HEAP_BASE,
        // Above the heap.
        (HEAP_BASE + HEAP_SIZE)..u32::MAX,
        // Inside the heap but odd (every real block is 8-aligned).
        (HEAP_BASE..HEAP_BASE + HEAP_SIZE).prop_map(|a| a | 1),
        // Anything at all.
        any::<u32>(),
    ]
}

proptest! {
    /// A bare [`RegionMap`] rejects every free of an address it was
    /// never told about — no panic, no phantom live allocation.
    #[test]
    fn region_map_rejects_unknown_addresses(addrs in proptest::collection::vec(hostile_addr(), 1..64)) {
        let mut map = RegionMap::new(HEAP_BASE, HEAP_SIZE, 4096);
        for addr in addrs {
            prop_assert_eq!(map.take_route(addr), Err(AllocError::InvalidFree { addr }));
        }
        prop_assert_eq!(map.live_allocations(), 0);
    }

    /// A [`RegionMap`] with live allocations still rejects hostile
    /// frees *and* keeps routing the real ones: the frame table is not
    /// corrupted by the garbage in between.
    #[test]
    fn region_map_survives_interleaved_garbage(
        garbage in proptest::collection::vec(any::<u32>(), 1..48),
        kill_order in any::<u64>(),
    ) {
        let mut map = RegionMap::new(HEAP_BASE, HEAP_SIZE, 4096);
        // Three real backend allocations on block boundaries.
        let live: Vec<u32> = (0..3).map(|i| HEAP_BASE + i * 8192).collect();
        for &addr in &live {
            map.note_backend_alloc(addr, 8192, 100);
        }
        let live_set: BTreeSet<u32> = live.iter().copied().collect();
        for addr in garbage {
            if live_set.contains(&addr) {
                continue;
            }
            prop_assert_eq!(map.take_route(addr), Err(AllocError::InvalidFree { addr }));
        }
        prop_assert_eq!(map.live_allocations(), 3);
        // Real frees still route, in an arbitrary order; a second free
        // of the same address is a caught double free.
        let mut order = live.clone();
        order.rotate_left((kill_order % 3) as usize);
        for &addr in &order {
            prop_assert!(map.take_route(addr).is_ok(), "live {addr:#x} must route");
            prop_assert_eq!(map.take_route(addr), Err(AllocError::InvalidFree { addr }));
        }
        prop_assert_eq!(map.live_allocations(), 0);
    }

    /// Full-allocator property: interleaving valid traffic with
    /// hostile frees only ever produces `Err` results — and the valid
    /// traffic is entirely unaffected by them.
    #[test]
    fn hostile_frees_never_panic_or_leak_into_live_state(
        sizes in proptest::collection::vec(1u32..4096, 4..24),
        junk in proptest::collection::vec(hostile_addr(), 4..24),
    ) {
        let (mut dpu, mut pm) = fresh(1, None);
        let mut ctx = dpu.ctx(0);
        let mut live: Vec<u32> = Vec::new();
        let mut junk_seen = 0u32;
        for (i, &size) in sizes.iter().enumerate() {
            live.push(pm.pim_malloc(&mut ctx, size).expect("light load cannot OOM"));
            if let Some(&addr) = junk.get(i) {
                // A junk address can collide with a live block base by
                // construction; skip those rare draws.
                if live.contains(&addr) {
                    continue;
                }
                let r = pm.pim_free(&mut ctx, addr);
                prop_assert_eq!(r, Err(AllocError::InvalidFree { addr }));
                junk_seen += 1;
            }
        }
        prop_assert_eq!(pm.live_allocations(), live.len());
        prop_assert_eq!(pm.invalid_frees(), junk_seen);
        prop_assert!(!pm.is_quarantined(), "no budget configured");
        // Every real allocation frees exactly once; the second attempt
        // is a caught double free.
        for &addr in &live {
            prop_assert!(pm.pim_free(&mut ctx, addr).is_ok());
            prop_assert_eq!(
                pm.pim_free(&mut ctx, addr),
                Err(AllocError::InvalidFree { addr })
            );
        }
        prop_assert_eq!(pm.live_allocations(), 0);
    }

    /// Quarantine property: with a budget of `n`, exactly the first
    /// `n` hostile frees are reported individually, the `n+1`-th seals
    /// the allocator, and everything after that — hostile or valid —
    /// returns [`AllocError::Quarantined`] without panicking.
    #[test]
    fn quarantine_seals_exactly_at_the_budget(
        budget in 0u32..6,
        extra in 1u32..5,
    ) {
        let (mut dpu, mut pm) = fresh(1, Some(budget));
        let mut ctx = dpu.ctx(0);
        let live = pm.pim_malloc(&mut ctx, 64).expect("alloc");
        for i in 0..budget {
            let addr = 0x0100_0000 + i; // below the heap: always invalid
            prop_assert_eq!(pm.pim_free(&mut ctx, addr), Err(AllocError::InvalidFree { addr }));
            prop_assert!(!pm.is_quarantined());
        }
        for i in 0..extra {
            let addr = 0x0110_0000 + i;
            let r = pm.pim_free(&mut ctx, addr);
            prop_assert!(
                matches!(r, Err(AllocError::Quarantined { .. })),
                "free past the budget must report quarantine, got {r:?}"
            );
            prop_assert!(pm.is_quarantined());
        }
        // Sealed: even valid operations are refused, and the frame
        // table still remembers the live allocation untouched.
        prop_assert!(matches!(
            pm.pim_malloc(&mut ctx, 64),
            Err(AllocError::Quarantined { .. })
        ));
        prop_assert!(matches!(
            pm.pim_free(&mut ctx, live),
            Err(AllocError::Quarantined { .. })
        ));
        prop_assert_eq!(pm.live_allocations(), 1);
    }
}

/// Classes that do not divide a cache block leave a tail past the last
/// slot whose first byte is still class-aligned. A free there is
/// rejected like any hostile free, and counts toward quarantine.
#[test]
fn frees_past_the_last_slot_of_a_non_dividing_class_are_invalid() {
    let table = SizeClassTable::new([24, 48, 520, 2040]);
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let geom = AllocGeometry::sw(1)
        .with_heap_size(HEAP_SIZE)
        .with_size_classes(table.clone())
        .with_quarantine(4);
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    let mut ctx = dpu.ctx(0);
    let mut tails = Vec::new();
    for (&class, tail) in table.classes().iter().zip([4080, 4080, 3640, 4080]) {
        let addr = pm.pim_malloc(&mut ctx, class).expect("alloc");
        tails.push(addr - addr % CACHE_BLOCK_BYTES + tail);
    }
    for &addr in &tails {
        let r = pm.pim_free(&mut ctx, addr);
        assert_eq!(r, Err(AllocError::InvalidFree { addr }));
    }
    assert_eq!(pm.live_allocations(), 4);
    // A fifth invalid free exceeds the budget and seals the allocator.
    let r = pm.pim_free(&mut ctx, tails[0]);
    assert!(matches!(
        r,
        Err(AllocError::Quarantined { invalid_frees: 5 })
    ));
    assert_eq!(pm.live_allocations(), 4);
}
