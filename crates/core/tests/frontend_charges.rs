//! Recorded per-op charges of the allocation frontend and the
//! remote-free path.
//!
//! Each case drives one seeded op stream through a [`PimMalloc`]:
//! allocations that fill the 1 KB and 2 KB classes (4 and 2 sub-blocks
//! per block, so blocks go full and un-full all the time), a few small
//! requests and bypasses, and frees issued both by the owner and by
//! another tasklet. A producer-consumer case adds a stream in which
//! every free crosses tasklets, over all eight classes. Every op's
//! simulated latency (its `ctx.now()` delta) is folded into an FNV-1a
//! digest, stored next to the final `max_clock()` in
//! `golden/frontend_charges.txt`. Any change to what an op charges
//! shows up as a mismatch; rerun with `PIM_BLESS=1` to rewrite the
//! file after a deliberate pricing change.
//!
//! A 1M-op churn checks the frontend's hit rate on a fixed stream,
//! with frees issued by the owner and by another tasklet.

use std::collections::VecDeque;

use pim_malloc::{AllocGeometry, AllocStats, PimAllocator, PimMalloc};
use pim_sim::{DpuConfig, DpuSim};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/frontend_charges.txt"
);
const HEAP_SIZE: u32 = 4 << 20;
const OPS: usize = 2_400;
const PC_OPS: usize = 5_000;
/// Live allocations a tasklet may hold before it must free one.
const LIVE_CAP: usize = 32;

/// SplitMix64: a fixed, dependency-free op-stream generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 64-bit words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// A request size: mostly the two largest classes, plus small ones
/// and bypasses.
fn size(rng: &mut Rng) -> u32 {
    match rng.below(10) {
        0..=3 => 1025 + rng.below(1024) as u32,
        4..=7 => 513 + rng.below(512) as u32,
        8 => 16 + rng.below(497) as u32,
        _ => 2049 + rng.below(6144) as u32,
    }
}

/// A size in (class / 2, class] of a uniformly drawn paper class.
fn class_size(rng: &mut Rng) -> u32 {
    let class = 16u32 << rng.below(8);
    class / 2 + 1 + rng.below(u64::from(class / 2)) as u32
}

/// Runs one case; returns `(ops charged, remote frees, digest,
/// max_clock)`. With `pc`, the even tasklets allocate and each odd
/// tasklet frees what its even partner allocated.
fn record(n_tasklets: usize, pc: bool) -> (usize, u64, u64, u64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let geom = AllocGeometry::sw(n_tasklets).with_heap_size(HEAP_SIZE);
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    // The stream depends only on the case's tasklet count and `pc`.
    let mut rng = Rng(if pc {
        0x50C0_FFEE
    } else {
        0xA110_C000 + n_tasklets as u64
    });
    let mut live: Vec<Vec<u32>> = vec![Vec::new(); n_tasklets];
    let mut digest = Fnv::new();
    let mut charged = 0;
    while charged < if pc { PC_OPS } else { OPS } {
        // Allocate on `tid`, or free one live allocation of `owner`.
        let (tid, owner, alloc) = if pc {
            let producer = 2 * rng.below(n_tasklets as u64 / 2) as usize;
            let alloc = rng.below(2) == 0 && live[producer].len() < LIVE_CAP;
            (producer + usize::from(!alloc), producer, alloc)
        } else {
            // The owner is the caller itself, or (for kinds 6 and 7) a
            // random tasklet.
            let tid = rng.below(n_tasklets as u64) as usize;
            let kind = rng.below(8);
            let owner = if kind >= 6 {
                rng.below(n_tasklets as u64) as usize
            } else {
                tid
            };
            (tid, owner, kind < 4 && live[tid].len() < LIVE_CAP)
        };
        if !alloc && live[owner].is_empty() {
            continue;
        }
        let mut ctx = dpu.ctx(tid);
        let t0 = ctx.now();
        if alloc {
            let size = if pc {
                class_size(&mut rng)
            } else {
                size(&mut rng)
            };
            if let Ok(addr) = pm.pim_malloc(&mut ctx, size) {
                live[tid].push(addr);
            }
        } else {
            let victim = rng.below(live[owner].len() as u64) as usize;
            let addr = live[owner].swap_remove(victim);
            pm.pim_free(&mut ctx, addr).expect("victims are live");
        }
        digest.word((ctx.now() - t0).0);
        charged += 1;
    }
    let remote = pm.alloc_stats().frees_remote_transfer;
    let max_clock = dpu.max_clock().0;
    digest.word(max_clock);
    (charged, remote, digest.0, max_clock)
}

#[test]
fn recorded_charges_match_golden() {
    // `prices=BitmapClasses tier=ThreeTier` names the allocator's one
    // configuration by the labels older goldens used, so recorded lines
    // stay comparable across versions.
    let mut lines = Vec::new();
    for n_tasklets in [2, 4, 16] {
        let (ops, _, digest, max_clock) = record(n_tasklets, false);
        lines.push(format!(
            "tasklets={n_tasklets} prices=BitmapClasses tier=ThreeTier ops={ops} \
             max_clock={max_clock} digest={digest:016x}"
        ));
    }
    let (ops, remote, digest, max_clock) = record(16, true);
    assert!(remote >= 2_000, "only {remote} remote frees");
    lines.push(format!(
        "producer-consumer tasklets=16 prices=BitmapClasses tier=ThreeTier ops={ops} \
         remote_frees={remote} max_clock={max_clock} digest={digest:016x}"
    ));
    let recorded = lines.join("\n") + "\n";
    if std::env::var("PIM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN, &recorded).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read golden");
    let mismatched: Vec<&str> = recorded
        .lines()
        .filter(|line| !golden.lines().any(|g| g == *line))
        .collect();
    assert!(
        golden == recorded,
        "per-op charges differ from {GOLDEN} for {mismatched:#?}; \
         rerun with PIM_BLESS=1 after a deliberate pricing change"
    );
}

/// Runs 1,000,000 ops on 16 SW tasklets. Each tasklet mallocs through
/// a 64-slot FIFO window, freeing its oldest allocation once the
/// window is full; sizes cycle from 16 B to a 4 KB bypass. With
/// `cross_tasklet`, the next tasklet issues every free.
fn churn(cross_tasklet: bool) -> AllocStats {
    const CHURN_OPS: usize = 1_000_000;
    const WINDOW: usize = 64;
    let n_tasklets = 16;
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let mut pm = PimMalloc::init(&mut dpu, AllocGeometry::sw(n_tasklets).build()).expect("init");
    let sizes = [16u32, 48, 100, 256, 700, 1500, 2048, 4096];
    let mut windows: Vec<VecDeque<u32>> = vec![VecDeque::new(); n_tasklets];
    let mut ops = 0;
    let mut i = 0;
    while ops < CHURN_OPS {
        let tid = i % n_tasklets;
        if windows[tid].len() >= WINDOW {
            let victim = windows[tid].pop_front().expect("window is full");
            let freer = if cross_tasklet {
                (tid + 1) % n_tasklets
            } else {
                tid
            };
            pm.pim_free(&mut dpu.ctx(freer), victim)
                .expect("window frees are live");
            ops += 1;
        }
        let addr = pm
            .pim_malloc(&mut dpu.ctx(tid), sizes[i % sizes.len()])
            .expect("heap outlives window");
        windows[tid].push_back(addr);
        ops += 1;
        i += 1;
    }
    pm.alloc_stats().clone()
}

#[test]
fn churn_keeps_class_requests_on_the_frontend() {
    for cross_tasklet in [false, true] {
        let stats = churn(cross_tasklet);
        assert!(
            stats.class_hit_rate() >= 0.9,
            "cross_tasklet={cross_tasklet}: class hit rate {}",
            stats.class_hit_rate()
        );
        assert_eq!(
            stats.frees_remote_transfer > 0,
            cross_tasklet,
            "only cross-tasklet frees take the remote path"
        );
    }
}
