//! Differential property coverage of the remote-free path: a free
//! issued by another tasklet must be a pure *pricing* overlay over the
//! same free issued by the owner. Under any interleaving of
//! allocations, local frees, and cross-tasklet remote frees, a run
//! must return the same addresses, errors, and fragmentation
//! accounting as the reference run that issues every remote free from
//! its owner — only the simulated cycle costs may differ, since
//! batched pricing is all a remote free changes.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
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
    /// whenever `owner != tid`; the reference run issues it from
    /// `owner`).
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

/// Everything a trial observes that must not depend on which tasklet
/// issued a free.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per-op outcome: allocated address, freed address, or the error.
    outcomes: Vec<Result<u32, String>>,
    live_allocations: usize,
    requested_live: u64,
    reserved_live: u64,
    backend_free_bytes: u64,
}

/// Runs `ops`; with `owner_frees` every `RemoteFree` is issued by its
/// owner instead of `tid`. Returns what the run observed, the
/// allocator's remote-free count, and how many frees of cached
/// (class-sized) blocks crossed tasklets.
fn run(owner_frees: bool, n_tasklets: usize, ops: &[Op]) -> (Observed, u64, u64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let geom = AllocGeometry::sw(n_tasklets).with_heap_size(HEAP_SIZE);
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");

    // (addr, size) lists per owning tasklet, appended in allocation
    // order, so victim indices resolve identically across both runs as
    // long as the returned addresses match (the property under test).
    let mut live: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_tasklets];
    let mut outcomes = Vec::with_capacity(ops.len());
    let mut crossed = 0;
    for op in ops {
        match *op {
            Op::Alloc { tid, size } => {
                let mut ctx = dpu.ctx(tid);
                match pm.pim_malloc(&mut ctx, size) {
                    Ok(addr) => {
                        live[tid].push((addr, size));
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
                let (addr, _) = live[tid].swap_remove(idx);
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
                let (addr, size) = live[owner].swap_remove(idx);
                let freer = if owner_frees { owner } else { tid };
                let cached = pm.size_classes().class_for(size).is_some();
                crossed += u64::from(freer != owner && cached);
                let mut ctx = dpu.ctx(freer);
                match pm.pim_free(&mut ctx, addr) {
                    Ok(()) => outcomes.push(Ok(addr)),
                    Err(e) => outcomes.push(Err(e.to_string())),
                }
            }
        }
    }
    let remote = pm.alloc_stats().frees_remote_transfer;
    let observed = Observed {
        outcomes,
        live_allocations: pm.live_allocations(),
        requested_live: pm.frag().requested_live(),
        reserved_live: pm.frag().reserved_live(),
        backend_free_bytes: pm.backend().free_bytes(),
    };
    pm.backend().check_invariants();
    (observed, remote, crossed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Addresses, errors, and fragmentation accounting match the
    /// owner-issued reference run; every free that crossed tasklets
    /// took the batched remote path, and the reference run had none.
    #[test]
    fn remote_frees_change_nothing_but_cycles(
        ops in proptest::collection::vec(op_strategy(4), 1..200)
    ) {
        let (remote, remote_frees, crossed) = run(false, 4, &ops);
        let (owner, owner_remote_frees, _) = run(true, 4, &ops);
        prop_assert_eq!(&remote, &owner);
        prop_assert_eq!(remote_frees, crossed);
        prop_assert_eq!(owner_remote_frees, 0);
    }

    /// Same property at sixteen tasklets, where each owner's remote
    /// marks come from many distinct freers.
    #[test]
    fn remote_frees_agree_at_sixteen_tasklets(
        ops in proptest::collection::vec(op_strategy(16), 1..150)
    ) {
        let (remote, ..) = run(false, 16, &ops);
        let (owner, ..) = run(true, 16, &ops);
        prop_assert_eq!(&remote, &owner);
    }
}

/// A deterministic drain: heavy cross-tasklet churn, then free
/// everything — the run must end with an empty heap and the backend
/// capacity of the same frees issued by their owners.
#[test]
fn full_drain_matches_owner_frees() {
    let run_drain = |owner_frees: bool| -> (Vec<u32>, u64) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
        let geom = AllocGeometry::sw(4).with_heap_size(HEAP_SIZE);
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
            // Each tasklet frees the previous tasklet's allocations
            // (or, in the reference run, the owner frees its own).
            let drained = std::mem::take(&mut addrs);
            for (i, addr) in drained.iter().enumerate() {
                let owner = i / 32;
                let freer = if owner_frees { owner } else { (owner + 1) % 4 };
                let mut ctx = dpu.ctx(freer);
                pm.pim_free(&mut ctx, *addr).unwrap();
            }
        }
        assert_eq!(pm.live_allocations(), 0);
        assert_eq!(pm.frag().requested_live(), 0);
        pm.backend().check_invariants();
        (addrs, pm.backend().free_bytes())
    };
    let (remote, remote_free) = run_drain(false);
    let (owner, owner_free) = run_drain(true);
    assert_eq!(remote, owner);
    assert_eq!(remote_free, owner_free);
}
