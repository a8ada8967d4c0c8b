//! `graph-update`: `run_graph_update` on a linked-list graph with
//! PIM-malloc-SW over 64 DPUs, on a power-law graph scaled up from the
//! default until DPU 0 issues at least 10,000 timed mallocs.
//!
//! The graph is generated inside `run_graph_update`, so setup can only
//! cover what runs before the call: the config, plus the same public
//! generator run on the same seed to check the input (then dropped).

use pim_sim::{DramTraffic, SimContext};
use pim_workloads::graph::{
    generate_power_law, run_graph_update, GraphRepr, GraphUpdateConfig, GraphUpdateResult,
};
use pim_workloads::AllocatorKind;

use crate::report::{self, Layers, Modeled, Rep, TraceRun};
use crate::span::Spans;

/// Multiple of the default graph (8192 nodes, 26,000 + 13,000 edges).
const SCALE: usize = 112;
const MIN_DPU0_MALLOCS: usize = 10_000;
const WORKERS_ENV: &str = "PIM_EXEC_WORKERS";

fn config(seed: u64) -> GraphUpdateConfig {
    let d = GraphUpdateConfig::default();
    GraphUpdateConfig {
        repr: GraphRepr::LinkedList,
        allocator: AllocatorKind::Sw,
        n_dpus: 64,
        n_nodes: d.n_nodes * SCALE as u32,
        base_edges: d.base_edges * SCALE,
        new_edges: d.new_edges * SCALE,
        ctx: SimContext::default().with_seed(seed),
        ..d
    }
}

fn setup(seed: u64) -> Result<GraphUpdateConfig, String> {
    let cfg = config(seed);
    let g = generate_power_law(cfg.n_nodes, cfg.base_edges + cfg.new_edges, cfg.ctx.seed);
    if g.edges.len() != cfg.base_edges + cfg.new_edges
        || g.edges
            .iter()
            .any(|&(u, v)| u >= cfg.n_nodes || v >= cfg.n_nodes)
    {
        return Err("generated graph does not match its config".into());
    }
    Ok(cfg)
}

fn modeled(cfg: &GraphUpdateConfig, r: &GraphUpdateResult) -> Result<Modeled, String> {
    if r.alloc_timeline.len() < MIN_DPU0_MALLOCS {
        return Err(format!(
            "DPU 0 issued {} timed mallocs, fewer than {MIN_DPU0_MALLOCS}",
            r.alloc_timeline.len()
        ));
    }
    let b = r.breakdown;
    let mhz = report::mhz() as f64;
    let mut m = Modeled::default();
    m.set("sim_finish_s", r.update_secs);
    // DPU 0's timeline carries µs; cycles are whole numbers at the clock.
    let mut lat: Vec<u64> = r
        .alloc_timeline
        .iter()
        .map(|&(_, us)| (us * mhz).round() as u64)
        .collect();
    report::malloc_metrics(&mut m, &mut lat);
    m.set("frag_ratio", r.frag_ratio);
    let mut done: Vec<u64> = r
        .alloc_timeline
        .iter()
        .map(|&(ms, _)| (ms * 1e3 * mhz).round() as u64)
        .collect();
    report::request_metrics(&mut m, &mut done);
    m.set("sim_knee_rps", cfg.new_edges as f64 / r.update_secs);
    m.set("total_mallocs", r.total_mallocs as f64);
    m.set("meta_bytes", r.meta_bytes as f64);
    m.set("dram_bytes", r.dram_bytes as f64);
    m.set("busy_wait", b.busy_wait.0 as f64);
    m.set("idle_mem", b.idle_mem.0 as f64);
    m.set("frontend_fraction", r.frontend_fraction);
    m.set("backend_latency_fraction", r.backend_latency_fraction);
    m.set("host_push_s", r.host_push_secs);
    Ok(m)
}

fn run(seed: u64) -> Result<(Rep, GraphUpdateResult), String> {
    let (cfg, setup_s) = report::timed(|| setup(seed));
    let cfg = cfg?;
    let (r, wall_s) = report::timed(|| run_graph_update(&cfg));
    let rep = Rep {
        setup_s,
        wall_s,
        ops: cfg.new_edges as u64,
        failed: 0,
        modeled: modeled(&cfg, &r)?,
    };
    Ok((rep, r))
}

pub fn rep(seed: u64) -> Result<Rep, String> {
    run(seed).map(|(rep, _)| rep)
}

fn traced_rep(seed: u64, layers: &mut Layers, spans: &mut Spans) -> Result<Rep, String> {
    let (rep, r) = run(seed)?;
    spans.add("bench.setup", (rep.setup_s * 1e9) as u64, 0);
    spans.add(
        "workloads.graph.run_graph_update",
        (rep.wall_s * 1e9) as u64,
        0,
    );
    layers.set("workloads.graph.host_s", rep.wall_s);
    layers.set("workloads.graph.frontend_fraction", r.frontend_fraction);
    layers.set(
        "workloads.graph.backend_latency_fraction",
        r.backend_latency_fraction,
    );
    layers.set("workloads.graph.meta_bytes", r.meta_bytes as f64);
    layers.set("workloads.graph.total_mallocs", r.total_mallocs as f64);
    layers.set("workloads.graph.host_push_s", r.host_push_secs);
    layers.set("alloc.backend.latency_share", r.backend_latency_fraction);
    layers.set("alloc.meta.bytes", r.meta_bytes as f64);
    layers.set("alloc.frag.peak_ratio", r.frag_ratio);
    layers.set_dpu(r.breakdown, DramTraffic::default());
    layers.set("sim.dpu.dram_bytes", r.dram_bytes as f64);
    Ok(rep)
}

/// One run at a single worker, for the parallel speedup and the
/// worker-count half of the determinism guard.
fn one_worker(seed: u64) -> Result<Rep, String> {
    let pinned = std::env::var(WORKERS_ENV).ok();
    std::env::set_var(WORKERS_ENV, "1");
    let out = rep(seed);
    match pinned {
        Some(w) => std::env::set_var(WORKERS_ENV, w),
        None => std::env::remove_var(WORKERS_ENV),
    }
    out
}

pub fn trace_run(seed: u64, seconds: f64, spans: &mut Spans) -> Result<TraceRun, String> {
    let (mut layers, mut reps) = report::alternate(
        seconds,
        spans,
        || rep(seed),
        |l, sp| traced_rep(seed, l, sp),
    )?;
    let serial = one_worker(seed)?;
    report::same_modeled([&reps[0].modeled, &serial.modeled].into_iter())
        .map_err(|e| format!("1 worker vs the pinned worker count: {e}"))?;
    layers.set(
        "sim.exec.parallel_speedup",
        serial.wall_s / report::fastest(&reps),
    );
    spans.add(
        "workloads.graph.run_graph_update.1_worker",
        (serial.wall_s * 1e9) as u64,
        0,
    );
    reps.push(serial);
    Ok((layers, reps))
}
