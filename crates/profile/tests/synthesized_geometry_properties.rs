//! Property coverage of the synthesis → allocator pipeline: any table
//! the synthesizer emits from any profile must be a *valid* geometry —
//! the allocator built on it never panics, keeps its fragmentation
//! accounting closed under arbitrary alloc/free interleavings, and
//! returns the same results whichever tasklet issues a free, just like
//! the paper's fixed power-of-two table.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc, SizeClassTable};
use pim_profile::{synthesize_table, AllocProfile, MAX_CLASSES, MAX_CLASS_BYTES};
use pim_sim::{DpuConfig, DpuSim};
use proptest::prelude::*;

const N_TASKLETS: usize = 4;
const HEAP_SIZE: u32 = 1 << 20;

/// A random profile: up to 24 distinct (size, count) pairs.
fn profile_strategy() -> impl Strategy<Value = AllocProfile> {
    proptest::collection::vec((1u32..8192, 1u64..200), 1..24).prop_map(|pairs| {
        let mut p = AllocProfile::new("prop", N_TASKLETS);
        for (size, count) in pairs {
            for _ in 0..count {
                p.histogram.record(size);
            }
        }
        p
    })
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Alloc {
        tid: usize,
        size: u32,
    },
    LocalFree {
        tid: usize,
        victim: usize,
    },
    RemoteFree {
        tid: usize,
        owner: usize,
        victim: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..N_TASKLETS, 1u32..8192).prop_map(|(tid, size)| Op::Alloc { tid, size }),
        2 => (0..N_TASKLETS, any::<usize>())
            .prop_map(|(tid, victim)| Op::LocalFree { tid, victim }),
        2 => (0..N_TASKLETS, 0..N_TASKLETS, any::<usize>())
            .prop_map(|(tid, owner, victim)| Op::RemoteFree { tid, owner, victim }),
    ]
}

/// Everything a trial observes that must not depend on which tasklet
/// issued a free.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: Vec<Result<u32, String>>,
    live_allocations: usize,
    requested_live: u64,
    reserved_live: u64,
    backend_free_bytes: u64,
}

/// Runs `ops` on an allocator built with the given size-class table;
/// with `owner_frees` every `RemoteFree` is issued by its owner.
/// Panics (failing the property) if the allocator misbehaves
/// structurally.
fn run(owner_frees: bool, table: &SizeClassTable, ops: &[Op]) -> Observed {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(N_TASKLETS));
    let geom = AllocGeometry::sw(N_TASKLETS)
        .with_heap_size(HEAP_SIZE)
        .with_size_classes(table.clone());
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    let mut live: Vec<Vec<u32>> = vec![Vec::new(); N_TASKLETS];
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
                let mut ctx = dpu.ctx(if owner_frees { owner } else { tid });
                match pm.pim_free(&mut ctx, addr) {
                    Ok(()) => outcomes.push(Ok(addr)),
                    Err(e) => outcomes.push(Err(e.to_string())),
                }
            }
        }
    }
    // Drain everything that is still live: accounting must close.
    for (tid, pool) in live.iter_mut().enumerate() {
        for addr in std::mem::take(pool) {
            let mut ctx = dpu.ctx(tid);
            pm.pim_free(&mut ctx, addr).expect("drain free");
        }
    }
    assert_eq!(pm.live_allocations(), 0, "drain left live allocations");
    assert_eq!(pm.frag().requested_live(), 0, "requested-live leak");
    pm.backend().check_invariants();
    Observed {
        outcomes,
        live_allocations: pm.live_allocations(),
        requested_live: pm.frag().requested_live(),
        reserved_live: pm.frag().reserved_live(),
        backend_free_bytes: pm.backend().free_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any synthesized table passes `SizeClassTable::new`'s checks —
    /// the synthesizer can never emit a geometry the builder rejects —
    /// and synthesis is a pure function of the profile.
    #[test]
    fn synthesized_tables_are_valid_and_deterministic(profile in profile_strategy()) {
        let Ok(a) = synthesize_table(&profile) else {
            // NoCacheableSizes (all requests > 2048) is legitimate.
            return Ok(());
        };
        prop_assert_eq!(&SizeClassTable::new(a.table.classes().to_vec()), &a.table);
        prop_assert!(a.table.len() <= MAX_CLASSES);
        // Largest class covers the largest cacheable observed size.
        let max_cacheable = profile
            .histogram
            .entries()
            .filter(|&(s, _)| s <= MAX_CLASS_BYTES)
            .map(|(s, _)| s)
            .max()
            .expect("synthesis succeeded, so a cacheable size exists");
        prop_assert!(a.table.class_for(max_cacheable).is_some());
        let b = synthesize_table(&profile).expect("second run");
        prop_assert_eq!(a.table.classes(), b.table.classes());
        prop_assert_eq!(a.report, b.report);
    }

    /// An allocator built on a synthesized table upholds the same
    /// invariants as the paper geometry under random interleavings:
    /// no panics, closed accounting after a full drain, and the same
    /// observable behavior as the run whose remote frees the owners
    /// issue.
    #[test]
    fn synthesized_geometry_upholds_allocator_invariants(
        profile in profile_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let Ok(synth) = synthesize_table(&profile) else {
            return Ok(());
        };
        let remote = run(false, &synth.table, &ops);
        let owner = run(true, &synth.table, &ops);
        prop_assert_eq!(&remote, &owner);
    }
}
