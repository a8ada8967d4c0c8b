//! Serving-frontend bench + machine-readable CI report.
//!
//! * `serve_50k_256dpu` — wall-clock of the open-loop event loop
//!   pushing 50,000 requests through a 256-DPU fleet at 60% of its
//!   calibrated capacity (host cost of the frontend itself).
//! * Before the timed group runs, one untimed pass serves the
//!   three-family mix and sweeps a small load ladder, writing
//!   `BENCH_serving.json`: the SLO percentiles (p50/p95/p99/p99.9 in
//!   simulated ms), drop fraction, calibrated capacity, knee and
//!   saturation throughput — all *modeled*, hence deterministic. CI
//!   runs the bench twice (default workers and `PIM_EXEC_WORKERS=1`)
//!   and gates on the modeled fields being byte-identical across the
//!   two legs, plus schema and SLO sanity floors. The only
//!   non-deterministic field is `frontend_reqs_per_sec` (host wall
//!   clock), which the determinism gate excludes.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use pim_malloc::PimAllocator;
use pim_serving::{estimated_capacity_rps, saturation_sweep, serve, ArrivalProcess, ServeConfig};
use pim_sim::DpuSim;
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

const N_DPUS: usize = 256;
const N_REQUESTS: usize = 50_000;
const LOAD: f64 = 0.6;
const SWEEP_LOADS: [f64; 3] = [0.5, 1.0, 2.0];

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn bench_cfg(rps: f64) -> ServeConfig {
    ServeConfig {
        n_dpus: N_DPUS,
        n_requests: N_REQUESTS,
        arrival: ArrivalProcess::Poisson { rps },
        ctx: pim_sim::SimContext::default(),
        ..ServeConfig::default()
    }
}

fn emit_ci_report(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        println!("serving: not invoked via `cargo bench`, skipping CI report");
        return;
    }
    let classes = standard_mix();
    let capacity_rps = estimated_capacity_rps(&classes, &build, N_DPUS);
    let cfg = bench_cfg(LOAD * capacity_rps);

    // Frontend host throughput (wall clock) + the SLO report (modeled).
    let t0 = Instant::now();
    let report = serve(&cfg, &classes, &build);
    let frontend_reqs_per_sec = N_REQUESTS as f64 / t0.elapsed().as_secs_f64();
    println!(
        "serving/serve_50k_256dpu: {frontend_reqs_per_sec:.0} host reqs/sec, \
         p99 {:.3} simulated ms",
        report.p99_ms()
    );

    let sweep = saturation_sweep(&cfg, &classes, &build, &SWEEP_LOADS);
    let json = format!(
        "{{\n  \
         \"schema_version\": 1,\n  \
         \"experiment\": \"serving\",\n  \
         \"bench\": \"serving\",\n  \
         \"n_dpus\": {N_DPUS},\n  \
         \"n_requests\": {N_REQUESTS},\n  \
         \"load_frac\": {LOAD},\n  \
         \"capacity_rps\": {capacity_rps:.4},\n  \
         \"offered_rps\": {:.4},\n  \
         \"achieved_rps\": {:.4},\n  \
         \"p50_ms\": {:.6},\n  \
         \"p95_ms\": {:.6},\n  \
         \"p99_ms\": {:.6},\n  \
         \"p999_ms\": {:.6},\n  \
         \"drop_frac\": {:.6},\n  \
         \"peak_in_flight\": {},\n  \
         \"push_calls\": {},\n  \
         \"knee_rps\": {:.4},\n  \
         \"saturation_rps\": {:.4},\n  \
         \"frontend_reqs_per_sec\": {frontend_reqs_per_sec:.1}\n}}\n",
        report.offered_rps,
        report.achieved_rps,
        report.p50_ms(),
        report.p95_ms(),
        report.p99_ms(),
        report.p999_ms(),
        report.drop_frac(),
        report.peak_in_flight,
        report.push_calls,
        sweep.knee_rps,
        sweep.saturation_rps,
    );
    // Cargo runs benches with CWD = the package dir (crates/bench);
    // drop the report at the workspace root, where the CI artifact
    // upload and jq gates look for it (BENCH_JSON_PATH overrides, so
    // the two CI determinism legs can write separate files).
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_serving.json")
            .display()
            .to_string()
    });
    std::fs::write(&path, json).expect("write bench json");
    println!("serving: wrote {path}");
}

fn bench_serve(c: &mut Criterion) {
    let classes = standard_mix();
    let capacity_rps = estimated_capacity_rps(&classes, &build, N_DPUS);
    let cfg = bench_cfg(LOAD * capacity_rps);
    let mut g = c.benchmark_group("serving");
    g.sample_size(2);
    g.bench_function("serve_50k_256dpu", |b| {
        b.iter(|| serve(&cfg, &classes, &build).admitted)
    });
    g.finish();
}

criterion_group!(serving, emit_ci_report, bench_serve);
criterion_main!(serving);
