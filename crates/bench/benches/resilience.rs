//! Resilience bench + machine-readable CI report.
//!
//! * `chaos_serve_20k_128dpu` — wall-clock of the self-healing event
//!   loop pushing 20,000 requests through a 128-DPU fleet under
//!   `FaultPlan::chaos` (host cost of the fault paths themselves).
//! * Before the timed group runs, one untimed pass serves the mix at
//!   60% of calibrated capacity twice — fault-free and under chaos —
//!   and writes `BENCH_resilience.json`: goodput ratio, healthy-fleet
//!   accounting (dead-on-arrival, killed, final), self-healing
//!   counters (retries, re-dispatches, failed/straggled shards), and
//!   the full drop attribution. All fields are *modeled*, hence
//!   deterministic; CI gates on `schema_version`, on the drop
//!   categories summing to `dropped_total`, and on
//!   `goodput_ratio >= 0.90` (graceful degradation), plus a
//!   two-legged byte-identity diff across `PIM_EXEC_WORKERS`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use pim_malloc::PimAllocator;
use pim_serving::{estimated_capacity_rps, serve, ArrivalProcess, ServeConfig};
use pim_sim::{DpuSim, FaultPlan};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

const N_DPUS: usize = 128;
const N_REQUESTS: usize = 20_000;
const LOAD: f64 = 0.6;
const FAULT_SEED: u64 = 0xC4A05;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn bench_cfg(rps: f64, faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        n_dpus: N_DPUS,
        n_requests: N_REQUESTS,
        arrival: ArrivalProcess::Poisson { rps },
        ctx: pim_sim::SimContext::default().with_faults(faults),
        ..ServeConfig::default()
    }
}

fn emit_ci_report(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        println!("resilience: not invoked via `cargo bench`, skipping CI report");
        return;
    }
    let classes = standard_mix();
    let capacity_rps = estimated_capacity_rps(&classes, &build, N_DPUS);
    let rate = LOAD * capacity_rps;

    let clean = serve(&bench_cfg(rate, FaultPlan::none()), &classes, &build);
    let t0 = Instant::now();
    let chaos = serve(
        &bench_cfg(rate, FaultPlan::chaos(FAULT_SEED)),
        &classes,
        &build,
    );
    let chaos_reqs_per_sec = N_REQUESTS as f64 / t0.elapsed().as_secs_f64();

    let goodput = |r: &pim_serving::ServeReport| {
        let total = r.admitted + r.dropped;
        if total == 0 {
            0.0
        } else {
            r.admitted as f64 / total as f64
        }
    };
    let goodput_ratio = if goodput(&clean) > 0.0 {
        goodput(&chaos) / goodput(&clean)
    } else {
        0.0
    };
    let f = &chaos.faults;
    println!(
        "resilience/chaos_serve_20k_128dpu: {chaos_reqs_per_sec:.0} host reqs/sec, \
         goodput ratio {goodput_ratio:.4}, {} healthy of {N_DPUS}",
        f.healthy_final
    );

    let json = format!(
        "{{\n  \
         \"schema_version\": 1,\n  \
         \"experiment\": \"resilience\",\n  \
         \"bench\": \"resilience\",\n  \
         \"n_dpus\": {N_DPUS},\n  \
         \"n_requests\": {N_REQUESTS},\n  \
         \"load_frac\": {LOAD},\n  \
         \"fault_seed\": {FAULT_SEED},\n  \
         \"goodput_clean\": {:.6},\n  \
         \"goodput_chaos\": {:.6},\n  \
         \"goodput_ratio\": {goodput_ratio:.6},\n  \
         \"p99_ms_clean\": {:.6},\n  \
         \"p99_ms_chaos\": {:.6},\n  \
         \"doa_dpus\": {},\n  \
         \"killed_dpus\": {},\n  \
         \"healthy_final\": {},\n  \
         \"retries\": {},\n  \
         \"redispatched\": {},\n  \
         \"timeouts\": {},\n  \
         \"xfer_failed_shards\": {},\n  \
         \"xfer_straggled_shards\": {},\n  \
         \"drops_queue_full\": {},\n  \
         \"drops_no_healthy\": {},\n  \
         \"drops_retry_exhausted\": {},\n  \
         \"dropped_total\": {},\n  \
         \"chaos_reqs_per_sec\": {chaos_reqs_per_sec:.1}\n}}\n",
        goodput(&clean),
        goodput(&chaos),
        clean.p99_ms(),
        chaos.p99_ms(),
        f.doa_dpus,
        f.killed_dpus,
        f.healthy_final,
        f.retries,
        f.redispatched,
        f.timeouts,
        f.xfer_failed_shards,
        f.xfer_straggled_shards,
        f.drops_queue_full,
        f.drops_no_healthy,
        f.drops_retry_exhausted,
        chaos.dropped,
    );
    // Cargo runs benches with CWD = the package dir (crates/bench);
    // drop the report at the workspace root, where the CI artifact
    // upload and jq gates look for it (BENCH_JSON_PATH overrides, so
    // the two CI determinism legs can write separate files).
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_resilience.json")
            .display()
            .to_string()
    });
    std::fs::write(&path, json).expect("write bench json");
    println!("resilience: wrote {path}");
}

fn bench_chaos_serve(c: &mut Criterion) {
    let classes = standard_mix();
    let capacity_rps = estimated_capacity_rps(&classes, &build, N_DPUS);
    let cfg = bench_cfg(LOAD * capacity_rps, FaultPlan::chaos(FAULT_SEED));
    let mut g = c.benchmark_group("resilience");
    g.sample_size(2);
    g.bench_function("chaos_serve_20k_128dpu", |b| {
        b.iter(|| serve(&cfg, &classes, &build).admitted)
    });
    g.finish();
}

criterion_group!(resilience, emit_ci_report, bench_chaos_serve);
criterion_main!(resilience);
