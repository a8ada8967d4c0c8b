//! Differential property tests: every metadata placement is
//! *functionally identical* — placements differ only in cost and
//! traffic. Any sequence of get/set operations must return the same
//! states from each, and a buddy allocator running on each must produce
//! identical placements.

use pim_malloc::{BackendKind, BuddyAllocator, BuddyGeometry, MetadataBackend, NodeState};
use pim_sim::{BuddyCacheConfig, DpuConfig, DpuSim};
use proptest::prelude::*;

/// Node indices the store tests touch: `1..=NODES`.
const NODES: u32 = 1 << 12;

/// A tree of `(1 << 13) - 1` nodes, so every index the tests touch is
/// in it.
fn geometry() -> BuddyGeometry {
    BuddyGeometry::new(0, 1 << 20, 256)
}

/// One of each placement: WRAM, a 256 B coarse window, a fine LRU, and
/// CAMs with 4 B, 8 B and 64 B entries.
fn kinds() -> Vec<(&'static str, BackendKind)> {
    let cam = |entries, bytes_per_entry| BackendKind::HwCache {
        cache: BuddyCacheConfig {
            entries,
            bytes_per_entry,
        },
    };
    vec![
        ("wram", BackendKind::Wram),
        ("coarse", BackendKind::Coarse { buffer_bytes: 256 }),
        (
            "fine-lru",
            BackendKind::FineLru {
                entries: 8,
                granule_bytes: 8,
            },
        ),
        ("cam-4b", cam(16, 4)),
        ("cam-8b", cam(16, 8)),
        ("cam-64b", cam(2, 64)),
    ]
}

fn all_stores() -> Vec<(&'static str, MetadataBackend)> {
    kinds()
        .into_iter()
        .map(|(name, kind)| (name, MetadataBackend::new(kind, &geometry(), 0)))
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get { idx: u32 },
    Set { idx: u32, state: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=NODES).prop_map(|idx| Op::Get { idx }),
        (1u32..=NODES, 0u8..4).prop_map(|(idx, state)| Op::Set { idx, state }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every store returns identical states for identical op sequences,
    /// and `peek` always agrees with `get`.
    #[test]
    fn stores_agree_on_every_access(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut stores = all_stores();
        for op in &ops {
            let mut outcomes: Vec<(&str, NodeState)> = Vec::new();
            for (name, store) in &mut stores {
                let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
                let mut ctx = dpu.ctx(0);
                match *op {
                    Op::Get { idx } => {
                        let got = store.get(&mut ctx, idx);
                        prop_assert_eq!(got, store.peek(idx), "{}: get/peek mismatch", name);
                        outcomes.push((name, got));
                    }
                    Op::Set { idx, state } => {
                        let state = NodeState::from_bits(state);
                        store.set(&mut ctx, idx, state);
                        prop_assert_eq!(store.peek(idx), state, "{}: set lost", name);
                    }
                }
            }
            for w in outcomes.windows(2) {
                prop_assert_eq!(w[0].1, w[1].1, "{} vs {} diverged", w[0].0, w[1].0);
            }
        }
    }

    /// A buddy allocator over any backend makes identical placement
    /// decisions — backends are pure caches, never semantics.
    #[test]
    fn allocators_place_identically_on_every_backend(
        sizes in proptest::collection::vec(1u32..8192, 1..60)
    ) {
        let geometry = BuddyGeometry::new(0, 1 << 20, 32);
        let mut results: Vec<(&str, Vec<Option<u32>>)> = Vec::new();
        for (name, kind) in kinds() {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
            let mut tree = BuddyAllocator::new(geometry, MetadataBackend::new(kind, &geometry, 0));
            {
                let mut ctx = dpu.ctx(0);
                tree.reset(&mut ctx);
            }
            let mut placed = Vec::new();
            for (i, &size) in sizes.iter().enumerate() {
                let mut ctx = dpu.ctx(0);
                let addr = tree.alloc(&mut ctx, size).ok();
                // Free every third allocation to exercise merge paths.
                if i % 3 == 0 {
                    if let Some(a) = addr {
                        tree.free(&mut ctx, a).unwrap();
                    }
                }
                placed.push(addr);
            }
            tree.check_invariants();
            results.push((name, placed));
        }
        for w in results.windows(2) {
            prop_assert_eq!(&w[0].1, &w[1].1, "{} vs {} placements diverged", w[0].0, w[1].0);
        }
    }
}

#[test]
fn traffic_profiles_differ_as_designed() {
    // Same access pattern, very different transfer profiles: that is
    // the entire design space. Walk scattered tree paths on each store
    // and rank their DRAM traffic.
    let mut traffic = std::collections::BTreeMap::new();
    for (name, mut store) in all_stores() {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let mut ctx = dpu.ctx(0);
        for start in 0..32u32 {
            let mut idx = 1 + start;
            while idx <= NODES {
                let _ = store.get(&mut ctx, idx);
                idx *= 2;
            }
        }
        traffic.insert(name, store.stats().total_bytes());
    }
    assert_eq!(traffic["wram"], 0, "WRAM store never touches DRAM");
    assert!(
        traffic["cam-4b"] < traffic["coarse"],
        "word fills must beat window reloads: {traffic:?}"
    );
    assert!(
        traffic["fine-lru"] < traffic["coarse"],
        "granule fills must beat window reloads: {traffic:?}"
    );
}
