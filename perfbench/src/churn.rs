//! `churn`: one PIM-malloc-HW/SW DPU with 16 tasklets, driven by direct
//! `pim_malloc`/`pim_free` calls in virtual-time order. Each tasklet
//! keeps a 64-deep live window and frees its own oldest block, so
//! every free is local and the middle tier stays idle.

use std::collections::VecDeque;
use std::time::Instant;

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
use pim_sim::{Cycles, DpuConfig, DpuSim};

use crate::report::{self, Layers, Modeled, Rep, Snapshot, TraceRun};
use crate::span::{Spans, TracedAlloc};

const TASKLETS: usize = 16;
const WINDOW: usize = 64;
/// `pim_malloc` calls per repetition (plus one free per call beyond
/// each tasklet's window).
const MALLOCS: usize = 1_000_000;

/// The seeded size stream: ~99% of requests are 8–512 B and ~1% are
/// 4–8 KB, above the largest size class, so they bypass the frontend.
fn sizes(seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..MALLOCS)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let r = (z >> 8) as u32;
            if z.is_multiple_of(100) {
                4096 + r % 4097
            } else {
                8 + r % 505
            }
        })
        .collect()
}

struct Setup {
    sizes: Vec<u32>,
    dpu: DpuSim,
    pm: PimMalloc,
    t0: Cycles,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let sizes = sizes(seed);
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(TASKLETS));
    let pm = PimMalloc::init(&mut dpu, AllocGeometry::hw_sw(TASKLETS).build())
        .map_err(|e| format!("allocator init: {e}"))?;
    let t0 = report::barrier(&mut dpu);
    Ok(Setup { sizes, dpu, pm, t0 })
}

/// What the timed loop did.
struct Phase {
    /// Completion time of every successful malloc, cycles since `t0`.
    done: Vec<u64>,
    mallocs: u64,
    frees: u64,
    failed: u64,
}

/// The timed loop: the tasklet with the smallest clock issues its next
/// request, first freeing its oldest block once its window is full.
fn drive<A: PimAllocator>(
    dpu: &mut DpuSim,
    alloc: &mut A,
    sizes: &[u32],
    t0: Cycles,
) -> Result<Phase, String> {
    let mut live = vec![VecDeque::with_capacity(WINDOW); TASKLETS];
    let mut phase = Phase {
        done: Vec::with_capacity(sizes.len()),
        mallocs: 0,
        frees: 0,
        failed: 0,
    };
    for &size in sizes {
        let tid = dpu.next_tasklet();
        let mut ctx = dpu.ctx(tid);
        if live[tid].len() == WINDOW {
            let oldest = live[tid].pop_front().expect("window is full");
            alloc
                .pim_free(&mut ctx, oldest)
                .map_err(|e| format!("pim_free({oldest:#x}): {e}"))?;
            phase.frees += 1;
        }
        match alloc.pim_malloc(&mut ctx, size) {
            Ok(addr) => {
                live[tid].push_back(addr);
                phase.mallocs += 1;
                phase.done.push((ctx.now() - t0).0);
            }
            Err(_) => phase.failed += 1,
        }
    }
    Ok(phase)
}

fn modeled(s: &Setup, mut phase: Phase) -> Result<Modeled, String> {
    let stats = s.pm.alloc_stats();
    if stats.total_mallocs() != phase.mallocs {
        return Err(format!(
            "allocator counted {} mallocs, the benchmark issued {}",
            stats.total_mallocs(),
            phase.mallocs
        ));
    }
    report::check_time_classes(&s.dpu)?;
    let finish = report::secs(s.dpu.max_clock() - s.t0);
    let mut m = Modeled::default();
    m.set("sim_finish_s", finish);
    let mut lat: Vec<u64> = stats
        .malloc_latencies
        .samples()
        .iter()
        .map(|c| c.0)
        .collect();
    report::malloc_metrics(&mut m, &mut lat);
    m.set("frag_peak_ratio", s.pm.frag().peak_ratio());
    report::request_metrics(&mut m, &mut phase.done);
    m.set(
        "sim_knee_rps",
        (phase.mallocs + phase.frees) as f64 / finish,
    );
    m.set("cycles_backend", stats.cycles_backend.0 as f64);
    m.set("frontend_refills", stats.frontend_refills as f64);
    m.set("frees_backend", stats.frees_backend as f64);
    m.set("meta_bytes", s.pm.metadata_stats().total_bytes() as f64);
    m.set("dram_bytes", s.dpu.traffic().total_bytes() as f64);
    Ok(m)
}

pub fn rep(seed: u64) -> Result<Rep, String> {
    let (s, setup_s) = report::timed(|| setup(seed));
    let mut s = s?;
    let t0 = Instant::now();
    let phase = drive(&mut s.dpu, &mut s.pm, &s.sizes, s.t0)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (ops, failed) = (phase.mallocs + phase.frees, phase.failed);
    Ok(Rep {
        setup_s,
        wall_s,
        ops,
        failed,
        modeled: modeled(&s, phase)?,
    })
}

fn traced_rep(seed: u64, layers: &mut Layers, spans: &mut Spans) -> Result<Rep, String> {
    let (s, setup_ns) = spans.time("bench.setup", || setup(seed));
    let Setup {
        sizes,
        mut dpu,
        pm,
        t0,
    } = s?;
    let before = Snapshot::take(&dpu, &pm);
    let mut traced = TracedAlloc::new(pm);
    let start = Instant::now();
    let phase = drive(&mut dpu, &mut traced, &sizes, t0)?;
    let loop_ns = start.elapsed().as_nanos() as u64;
    let alloc_ns = traced.total_ns();
    spans.add("bench.driver", loop_ns, alloc_ns);
    spans.absorb(&traced.sites);
    report::check_wrapper(&traced)?;
    layers.set_alloc(&traced, &before, &dpu);
    layers.set(
        "bench.driver.self_s",
        loop_ns.saturating_sub(alloc_ns) as f64 * 1e-9,
    );
    let (ops, failed) = (phase.mallocs + phase.frees, phase.failed);
    let s = Setup {
        sizes,
        dpu,
        pm: traced.inner,
        t0,
    };
    Ok(Rep {
        setup_s: setup_ns as f64 * 1e-9,
        wall_s: loop_ns as f64 * 1e-9,
        ops,
        failed,
        modeled: modeled(&s, phase)?,
    })
}

pub fn trace_run(seed: u64, seconds: f64, spans: &mut Spans) -> Result<TraceRun, String> {
    report::alternate(
        seconds,
        spans,
        || rep(seed),
        |l, sp| traced_rep(seed, l, sp),
    )
}
