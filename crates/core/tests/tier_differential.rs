//! Differential property coverage of the free-path hierarchy: the
//! three-tier allocator (batched remote frees) must be a pure
//! *pricing* overlay over the two-tier design. Under any interleaving
//! of allocations, local frees, and cross-tasklet remote frees, both
//! tiers must return identical addresses, identical errors, and
//! identical fragmentation accounting — only the simulated cycle costs
//! may differ, since that is the whole point of batching.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc, TierPolicy};
use pim_sim::{DpuConfig, DpuSim};
use proptest::prelude::*;

const HEAP_SIZE: u32 = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `tid` allocates `size` bytes.
    Alloc { tid: usize, size: u32 },
    /// `tid` frees one of its own live allocations.
    LocalFree { tid: usize, victim: usize },
    /// `tid` frees one of `owner`'s live allocations (a remote free
    /// whenever `owner != tid` — the path the tiers disagree on).
    RemoteFree {
        tid: usize,
        owner: usize,
        victim: usize,
    },
}

fn op_strategy(n_tasklets: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..n_tasklets, 1u32..8192).prop_map(|(tid, size)| Op::Alloc { tid, size }),
        2 => (0..n_tasklets, any::<usize>())
            .prop_map(|(tid, victim)| Op::LocalFree { tid, victim }),
        2 => (0..n_tasklets, 0..n_tasklets, any::<usize>())
            .prop_map(|(tid, owner, victim)| Op::RemoteFree { tid, owner, victim }),
    ]
}

/// Everything a trial observes that must be tier-invariant.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-op outcome: allocated address, freed address, or the error.
    outcomes: Vec<Result<u32, String>>,
    live_allocations: usize,
    requested_live: u64,
    reserved_live: u64,
    backend_free_bytes: u64,
}

fn run(policy: TierPolicy, n_tasklets: usize, ops: &[Op]) -> (Observed, u64, u64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let mut geom = AllocGeometry::sw(n_tasklets).with_heap_size(HEAP_SIZE);
    if policy == TierPolicy::TwoTier {
        geom = geom.two_tier();
    }
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    assert_eq!(pm.tier(), policy);

    // addr lists per owning tasklet, appended in allocation order, so
    // victim indices resolve identically across both runs as long as
    // the returned addresses match (which is the property under test).
    let mut live: Vec<Vec<u32>> = vec![Vec::new(); n_tasklets];
    let mut outcomes = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            Op::Alloc { tid, size } => {
                let mut ctx = dpu.ctx(tid);
                match pm.pim_malloc(&mut ctx, size) {
                    Ok(addr) => {
                        live[tid].push(addr);
                        outcomes.push(Ok(addr));
                    }
                    Err(e) => outcomes.push(Err(e.to_string())),
                }
            }
            Op::LocalFree { tid, victim } => {
                if live[tid].is_empty() {
                    continue;
                }
                let idx = victim % live[tid].len();
                let addr = live[tid].swap_remove(idx);
                let mut ctx = dpu.ctx(tid);
                match pm.pim_free(&mut ctx, addr) {
                    Ok(()) => outcomes.push(Ok(addr)),
                    Err(e) => outcomes.push(Err(e.to_string())),
                }
            }
            Op::RemoteFree { tid, owner, victim } => {
                if live[owner].is_empty() {
                    continue;
                }
                let idx = victim % live[owner].len();
                let addr = live[owner].swap_remove(idx);
                let mut ctx = dpu.ctx(tid);
                match pm.pim_free(&mut ctx, addr) {
                    Ok(()) => outcomes.push(Ok(addr)),
                    Err(e) => outcomes.push(Err(e.to_string())),
                }
            }
        }
    }
    let remote_transfer = pm.alloc_stats().frees_remote_transfer;
    let remote_global = pm.alloc_stats().frees_remote_global;
    let observed = Observed {
        outcomes,
        live_allocations: pm.live_allocations(),
        requested_live: pm.frag().requested_live(),
        reserved_live: pm.frag().reserved_live(),
        backend_free_bytes: pm.backend().free_bytes(),
    };
    pm.backend().check_invariants();
    (observed, remote_transfer, remote_global)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Addresses, errors, and fragmentation accounting are identical
    /// across the two free-path hierarchies; remote frees are batched
    /// on three-tier and take the global lock on two-tier — never
    /// both.
    #[test]
    fn tiers_agree_on_everything_but_cycles(
        ops in proptest::collection::vec(op_strategy(4), 1..200)
    ) {
        let (three, t_remote_transfer, t_remote_global) =
            run(TierPolicy::ThreeTier, 4, &ops);
        let (two, s_remote_transfer, s_remote_global) =
            run(TierPolicy::TwoTier, 4, &ops);
        prop_assert_eq!(&three, &two);
        // Routing counters are exclusive per tier...
        prop_assert_eq!(t_remote_global, 0);
        prop_assert_eq!(s_remote_transfer, 0);
        // ...and agree on how many remote frees the run contained.
        prop_assert_eq!(t_remote_transfer, s_remote_global);
    }

    /// Same property at sixteen tasklets, where each owner's remote
    /// marks come from many distinct freers.
    #[test]
    fn tiers_agree_at_sixteen_tasklets(
        ops in proptest::collection::vec(op_strategy(16), 1..150)
    ) {
        let (three, ..) = run(TierPolicy::ThreeTier, 16, &ops);
        let (two, ..) = run(TierPolicy::TwoTier, 16, &ops);
        prop_assert_eq!(&three, &two);
    }
}

/// A deterministic drain: heavy cross-tasklet churn, then free
/// everything — both tiers must end with an empty heap and matching
/// backend capacity.
#[test]
fn full_drain_matches_across_tiers() {
    let run_drain = |policy: TierPolicy| -> (Vec<u32>, u64) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
        let mut geom = AllocGeometry::sw(4).with_heap_size(HEAP_SIZE);
        if policy == TierPolicy::TwoTier {
            geom = geom.two_tier();
        }
        let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
        let mut addrs = Vec::new();
        for round in 0..4usize {
            for tid in 0..4 {
                let mut ctx = dpu.ctx(tid);
                for i in 0..32 {
                    let size = [16u32, 100, 700, 2048][(i + round) % 4];
                    addrs.push(pm.pim_malloc(&mut ctx, size).unwrap());
                }
            }
            // Each tasklet frees the previous tasklet's allocations.
            let drained = std::mem::take(&mut addrs);
            for (i, addr) in drained.iter().enumerate() {
                let mut ctx = dpu.ctx((i / 32 + 1) % 4);
                pm.pim_free(&mut ctx, *addr).unwrap();
            }
        }
        assert_eq!(pm.live_allocations(), 0);
        assert_eq!(pm.frag().requested_live(), 0);
        pm.backend().check_invariants();
        (addrs, pm.backend().free_bytes())
    };
    let (a3, free3) = run_drain(TierPolicy::ThreeTier);
    let (a2, free2) = run_drain(TierPolicy::TwoTier);
    assert_eq!(a3, a2);
    assert_eq!(free3, free2);
}
