//! `remote-free`: one PIM-malloc-SW DPU with 16 tasklets replaying a
//! synthesized producer-consumer trace through `pim_trace::replay`.
//! Even tasklets allocate and their odd partners free, so every free
//! crosses tasklets and lands in the middle tier.

use std::time::Instant;

use pim_malloc::{AllocGeometry, PimMalloc};
use pim_sim::{Cycles, DpuConfig, DpuSim};
use pim_trace::{
    replay, synthesize, AllocTrace, ReplayResult, SizeLaw, SynthConfig, TemporalShape,
};

use crate::report::{self, Layers, Modeled, Rep, Snapshot, TraceRun};
use crate::span::{Spans, TracedAlloc};

const TASKLETS: usize = 16;
/// `Malloc` events per producer tasklet (8 producers).
const MALLOCS_PER_TASKLET: usize = 32_768;

fn trace(seed: u64) -> AllocTrace {
    synthesize(&SynthConfig {
        n_tasklets: TASKLETS,
        mallocs_per_tasklet: MALLOCS_PER_TASKLET,
        size_law: SizeLaw::Zipf {
            min: 16,
            max: 2048,
            exponent: 1.1,
        },
        shape: TemporalShape::ProducerConsumer { compute: 500 },
        seed,
        ..SynthConfig::default()
    })
}

struct Setup {
    trace: AllocTrace,
    dpu: DpuSim,
    pm: PimMalloc,
    t0: Cycles,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let trace = trace(seed);
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(TASKLETS));
    let pm = PimMalloc::init(&mut dpu, AllocGeometry::sw(TASKLETS).build())
        .map_err(|e| format!("allocator init: {e}"))?;
    let t0 = report::barrier(&mut dpu);
    Ok(Setup { trace, dpu, pm, t0 })
}

/// Allocator calls of the timed phase.
fn calls(pm: &PimMalloc) -> u64 {
    let s = pm.alloc_stats();
    s.total_mallocs() + s.frees_frontend + s.frees_backend
}

fn modeled(s: &Setup, r: &ReplayResult) -> Result<Modeled, String> {
    if r.oom_count != 0 || r.dropped_frees != 0 {
        return Err(format!(
            "replay hit {} OOMs and dropped {} frees",
            r.oom_count, r.dropped_frees
        ));
    }
    let stats = s.pm.alloc_stats();
    if stats.frees_remote_transfer == 0 {
        return Err("no free crossed tasklets".into());
    }
    report::check_time_classes(&s.dpu)?;
    let finish = report::secs(r.finish - s.t0);
    let mut m = Modeled::default();
    m.set("sim_finish_s", finish);
    let mut lat: Vec<u64> = r.malloc_latencies.samples().iter().map(|c| c.0).collect();
    report::malloc_metrics(&mut m, &mut lat);
    m.set("frag_peak_ratio", s.pm.frag().peak_ratio());
    let mut done: Vec<u64> = r.timeline.iter().map(|&(end, _)| (end - s.t0).0).collect();
    report::request_metrics(&mut m, &mut done);
    m.set("sim_knee_rps", calls(&s.pm) as f64 / finish);
    m.set("frees_remote_transfer", stats.frees_remote_transfer as f64);
    m.set("transfer_hits", stats.transfer_hits as f64);
    m.set("central_hits", stats.central_hits as f64);
    m.set("spans_returned", stats.spans_returned as f64);
    m.set("meta_bytes", s.pm.metadata_stats().total_bytes() as f64);
    Ok(m)
}

pub fn rep(seed: u64) -> Result<Rep, String> {
    let (s, setup_s) = report::timed(|| setup(seed));
    let mut s = s?;
    let (r, wall_s) = report::timed(|| replay(&mut s.dpu, &mut s.pm, &s.trace));
    Ok(Rep {
        setup_s,
        wall_s,
        ops: calls(&s.pm),
        failed: r.oom_count + r.dropped_frees,
        modeled: modeled(&s, &r)?,
    })
}

fn traced_rep(seed: u64, layers: &mut Layers, spans: &mut Spans) -> Result<Rep, String> {
    let (s, setup_ns) = spans.time("bench.setup", || setup(seed));
    let Setup {
        trace,
        mut dpu,
        pm,
        t0,
    } = s?;
    let before = Snapshot::take(&dpu, &pm);
    let mut traced = TracedAlloc::new(pm);
    let start = Instant::now();
    let r = replay(&mut dpu, &mut traced, &trace);
    let replay_ns = start.elapsed().as_nanos() as u64;
    let alloc_ns = traced.total_ns();
    spans.add("trace.replay", replay_ns, alloc_ns);
    spans.absorb(&traced.sites);
    report::check_wrapper(&traced)?;
    layers.set_alloc(&traced, &before, &dpu);
    let self_ns = replay_ns.saturating_sub(alloc_ns) as f64;
    let ops = calls(&traced.inner);
    layers.set("trace.replay.self_s", self_ns * 1e-9);
    layers.set("trace.replay.self_ns_per_op", self_ns / ops as f64);
    let s = Setup {
        trace,
        dpu,
        pm: traced.inner,
        t0,
    };
    Ok(Rep {
        setup_s: setup_ns as f64 * 1e-9,
        wall_s: replay_ns as f64 * 1e-9,
        ops,
        failed: r.oom_count + r.dropped_frees,
        modeled: modeled(&s, &r)?,
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
