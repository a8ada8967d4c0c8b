//! `serve`: the open-loop serving frontend on the paper-scale 2560-DPU
//! fleet with `standard_mix()` and Poisson arrivals, at a ladder of
//! offered rates frozen as absolute req/s.
//!
//! The allocator runs only when each request class is calibrated (its
//! fragment replayed once on a fresh DPU), so the `sim_malloc_*` and
//! `alloc.frag.peak_ratio` metrics of this workload come from those
//! replays.

use pim_malloc::PimAllocator;
use pim_serving::{
    estimated_capacity_rps, serve, ArrivalProcess, RequestClass, ServeConfig, ServeReport,
};
use pim_sim::{DpuConfig, DpuSim, SimContext};
use pim_trace::replay;
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

use crate::report::{self, Layers, Modeled, Rep, TraceRun};
use crate::span::Spans;

const DPUS: usize = 2560;
const REQUESTS: usize = 1_000_000;

/// Offered rates, req/s: 0.4×, 0.6×, 0.8×, 0.9×, 1.0×, 1.1× and 1.25×
/// the calibrated capacity of the fleet under PIM-malloc-SW when the
/// benchmark was defined (905,731 req/s), frozen so
/// that latency is compared at equal load even when allocator cost
/// moves the capacity.
pub const LADDER_RPS: [f64; 7] = [362e3, 543e3, 725e3, 815e3, 906e3, 996e3, 1_130e3];
/// The 0.6× rung: the rate of the timed repetitions.
const REFERENCE: usize = 1;
/// The knee is the highest rung with at most 1% drops, at least 95% of
/// the offered rate achieved, and p99.9 latency under this limit.
const P999_LIMIT_US: f64 = 5_000.0;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn config(seed: u64, rps: f64) -> ServeConfig {
    ServeConfig {
        n_dpus: DPUS,
        n_requests: REQUESTS,
        arrival: ArrivalProcess::Poisson { rps },
        ctx: SimContext::default().with_seed(seed),
        ..ServeConfig::default()
    }
}

/// The request mix and the config of one rung. Arrivals are generated
/// inside `serve`; setup runs the same public generator on the same
/// seed to check the stream (then drops it).
fn setup(seed: u64, rps: f64) -> Result<(Vec<RequestClass>, ServeConfig), String> {
    let classes = standard_mix();
    let cfg = config(seed, rps);
    let arrivals = cfg.arrival.arrival_times_ns(cfg.ctx.seed, cfg.n_requests);
    if arrivals.len() != REQUESTS || arrivals.windows(2).any(|w| w[0] > w[1]) {
        return Err("arrival stream is short or out of order".into());
    }
    Ok((classes, cfg))
}

fn check(r: &ServeReport) -> Result<(), String> {
    if r.admitted + r.dropped != REQUESTS as u64 {
        return Err(format!(
            "{} admitted + {} dropped != {REQUESTS} offered",
            r.admitted, r.dropped
        ));
    }
    Ok(())
}

/// Each class's fragment replayed on a fresh DPU, as calibration does:
/// every malloc latency and the worst peak A/U.
fn calibration(classes: &[RequestClass]) -> Result<(Vec<u64>, f64), String> {
    let mut lat = Vec::new();
    let mut frag = 0.0f64;
    for c in classes {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(c.trace.n_tasklets));
        let mut alloc = build(&mut dpu, c.trace.n_tasklets, c.trace.heap_size);
        let r = replay(&mut dpu, alloc.as_mut(), &c.trace);
        lat.extend(r.malloc_latencies.samples().iter().map(|x| x.0));
        frag = frag.max(report::pim_malloc_of(alloc.as_ref())?.frag().peak_ratio());
    }
    Ok((lat, frag))
}

fn modeled(classes: &[RequestClass], r: &ServeReport) -> Result<Modeled, String> {
    check(r)?;
    let mut m = Modeled::default();
    m.set("sim_finish_s", r.makespan_secs);
    let (mut lat, frag) = calibration(classes)?;
    report::malloc_metrics(&mut m, &mut lat);
    m.set("calibration_frag_peak_ratio", frag);
    m.set("sim_request_p50_us", r.latency.p50.0 as f64 * 1e-3);
    m.set("sim_request_p999_us", r.latency.p999.0 as f64 * 1e-3);
    m.set("dropped", r.dropped as f64);
    m.set("peak_in_flight", r.peak_in_flight as f64);
    m.set("push_calls", r.push_calls as f64);
    m.set("push_s", r.push_secs);
    Ok(m)
}

fn run(seed: u64, rung: usize) -> Result<(Rep, ServeReport), String> {
    let (s, setup_s) = report::timed(|| setup(seed, LADDER_RPS[rung]));
    let (classes, cfg) = s?;
    let (r, wall_s) = report::timed(|| serve(&cfg, &classes, &build));
    let rep = Rep {
        setup_s,
        wall_s,
        ops: REQUESTS as u64,
        failed: r.dropped,
        modeled: modeled(&classes, &r)?,
    };
    Ok((rep, r))
}

/// One timed repetition at the reference rate.
pub fn rep(seed: u64) -> Result<Rep, String> {
    run(seed, REFERENCE).map(|(rep, _)| rep)
}

/// The whole ladder, once per run: its reports in rung order, and the
/// knee. The reference rung must reproduce `reference` exactly. Only
/// the reference rung counts toward `attempted`/`failed`, since the
/// upper rungs are meant to shed load.
pub fn ladder(seed: u64, reference: &Modeled) -> Result<(Vec<(Rep, ServeReport)>, f64), String> {
    let runs = (0..LADDER_RPS.len())
        .map(|i| run(seed, i))
        .collect::<Result<Vec<_>, _>>()?;
    report::same_modeled([reference, &runs[REFERENCE].0.modeled].into_iter())?;
    let knee = runs
        .iter()
        .map(|(_, r)| r)
        .filter(|r| {
            r.drop_frac() <= 0.01
                && r.achieved_rps >= 0.95 * r.offered_rps
                && r.latency.p999.0 as f64 * 1e-3 <= P999_LIMIT_US
        })
        .map(|r| r.offered_rps)
        .fold(0.0, f64::max);
    Ok((runs, knee))
}

fn traced_rep(seed: u64, layers: &mut Layers, spans: &mut Spans) -> Result<Rep, String> {
    let (rep, r) = run(seed, REFERENCE)?;
    spans.add("bench.setup", (rep.setup_s * 1e9) as u64, 0);
    spans.add("serving.serve", (rep.wall_s * 1e9) as u64, 0);
    layers.set(
        "serving.host_ns_per_request",
        rep.wall_s * 1e9 / REQUESTS as f64,
    );
    layers.set("serving.push_calls", r.push_calls as f64);
    layers.set("serving.push_s", r.push_secs);
    layers.set("serving.peak_in_flight", r.peak_in_flight as f64);
    layers.set(
        "alloc.frag.peak_ratio",
        rep.modeled
            .get("calibration_frag_peak_ratio")
            .unwrap_or_default(),
    );
    Ok(rep)
}

pub fn trace_run(seed: u64, seconds: f64, spans: &mut Spans) -> Result<TraceRun, String> {
    let (mut layers, reps) = report::alternate(
        seconds,
        spans,
        || rep(seed),
        |l, sp| traced_rep(seed, l, sp),
    )?;
    let classes = standard_mix();
    let (capacity, calibrate_ns) = spans.time("serving.calibrate", || {
        estimated_capacity_rps(&classes, &build, DPUS)
    });
    layers.set("serving.calibrate_s", calibrate_ns as f64 * 1e-9);
    println!("calibrated capacity: {capacity:.0} req/s");
    let (runs, _) = ladder(seed, &reps[0].modeled)?;
    for (i, (rep, r)) in runs.iter().enumerate() {
        spans.add(
            &format!("serving.serve.rung{i}"),
            (rep.wall_s * 1e9) as u64,
            0,
        );
        layers.set(
            &format!("serving.ladder.{i}.p999_us"),
            r.latency.p999.0 as f64 * 1e-3,
        );
        layers.set(&format!("serving.ladder.{i}.drop_ratio"), r.drop_frac());
    }
    Ok((layers, reps))
}
