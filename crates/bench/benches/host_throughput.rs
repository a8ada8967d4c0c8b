//! Host-side throughput benches for the PR-level optimizations, plus a
//! machine-readable CI perf report:
//!
//! * `churn_1m_ops` — 1,000,000 alloc/free operations through one
//!   PIM-malloc-SW instance, exercising the thread caches and the O(1)
//!   frame-table free routing on the host (the path that used to walk
//!   a `BTreeMap` oracle). ns/iter ÷ 1e6 gives host nanoseconds per
//!   allocator operation. The report also records `class_hit_rate`,
//!   the deterministic fraction of class-eligible requests served
//!   without a backend refill.
//! * `churn_xtask_1m_ops` — the same churn with every free issued by
//!   the *next* tasklet, so every free is remote and takes the
//!   batched remote-free path.
//! * `fig15_64dpu/{serial,parallel}` — a Figure 15-style 64-DPU
//!   microbenchmark sweep executed with the serial `run_per_dpu` loop
//!   vs the scoped-thread `run_per_dpu_parallel` engine.
//! * Batched-vs-unbatched transfers — the 256-DPU host-executed DSE
//!   run under per-DPU calls vs per-rank shards (`HostBatching`),
//!   reporting the modeled transfer-time speedup and call counts.
//!
//! Before the timed groups run, one untimed pass measures everything
//! and writes `BENCH_host_throughput.json` (ops/sec for both churn
//! variants plus the serial-vs-parallel and batched-vs-unbatched
//! speedups). CI uploads the file as an artifact and gates on both
//! speedups staying ≥ 1.0 and the churn throughput staying above its
//! floor, so a lost parallelism or batching win fails the build
//! instead of scrolling past in a log. The modeled fields are
//! deterministic and must be byte-identical across `PIM_EXEC_WORKERS`
//! settings; CI runs the report on two worker legs and diffs the JSON
//! with the wall-clock fields stripped.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use pim_dse::{run_strategy, DseConfig, DseResult, Strategy};
use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
use pim_sim::{DpuConfig, DpuSim, HostBatching, PimSystem};
use pim_workloads::driver::{drive, Request};
use pim_workloads::AllocatorKind;

const CHURN_OPS: usize = 1_000_000;
const N_DPUS: usize = 64;
const DSE_DPUS: usize = 256;

/// Runs `CHURN_OPS` total operations: mallocs through a sliding window
/// of 64 live slots per tasklet (freeing the oldest once full), sizes
/// cycling through every size class plus a bypass. With `cross_tasklet`
/// every free is issued by the next tasklet, so it takes the allocator's
/// batched remote-free path.
/// Returns `(total mallocs, class-eligible hit rate)` — both
/// deterministic, since the op stream is fixed.
fn churn_with(cross_tasklet: bool) -> (u64, f64) {
    let n_tasklets = 16;
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n_tasklets));
    let geom = AllocGeometry::sw(n_tasklets);
    let mut pm = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    let sizes = [16u32, 48, 100, 256, 700, 1500, 2048, 4096];
    let mut windows: Vec<Vec<u32>> = vec![Vec::new(); n_tasklets];
    let mut ops = 0usize;
    let mut i = 0usize;
    while ops < CHURN_OPS {
        let tid = i % n_tasklets;
        if windows[tid].len() >= 64 {
            let victim = windows[tid].remove(0);
            let freer = if cross_tasklet {
                (tid + 1) % n_tasklets
            } else {
                tid
            };
            let mut ctx = dpu.ctx(freer);
            pm.pim_free(&mut ctx, victim)
                .expect("window frees are live");
            ops += 1;
        }
        let size = sizes[i % sizes.len()];
        let mut ctx = dpu.ctx(tid);
        let addr = pm.pim_malloc(&mut ctx, size).expect("heap outlives window");
        windows[tid].push(addr);
        ops += 1;
        i += 1;
    }
    if cross_tasklet {
        assert!(
            pm.alloc_stats().frees_remote_transfer > 0,
            "cross-tasklet churn must exercise the batched remote-free path"
        );
    }
    (
        pm.alloc_stats().total_mallocs(),
        pm.alloc_stats().class_hit_rate(),
    )
}

fn churn() -> (u64, f64) {
    churn_with(false)
}

fn churn_xtask() -> (u64, f64) {
    churn_with(true)
}

/// One DPU's share of a Figure 15-style cell: 16 tasklets × 32
/// allocations per size, alloc/free-paired so the run self-cleans.
fn fig15_cell(dpu: &mut DpuSim) {
    let n_tasklets = 16;
    let mut alloc = AllocatorKind::Sw.build(dpu, n_tasklets, 32 << 20);
    let streams: Vec<Vec<Request>> = (0..n_tasklets)
        .map(|_| {
            let mut s = Vec::new();
            for (slot, &size) in [32u32, 256, 4096].iter().enumerate() {
                for _ in 0..32 {
                    s.push(Request::Malloc { size, slot });
                    s.push(Request::Free { slot });
                }
            }
            s
        })
        .collect();
    drive(dpu, alloc.as_mut(), &streams);
}

/// The 256-DPU host-executed DSE run under one transfer schedule.
fn dse_host_executed(batching: HostBatching) -> DseResult {
    let base = DseConfig::default().with_dpus(DSE_DPUS);
    run_strategy(
        Strategy::HostMetaHostExec,
        &DseConfig {
            ctx: base.ctx.with_batching(batching),
            ..base
        },
    )
}

/// One untimed measurement pass: prints the CI log lines and writes
/// `BENCH_host_throughput.json` (or `$BENCH_JSON_PATH`).
///
/// `cargo test` also executes bench targets (with no `--bench` flag);
/// the measurement pass is minutes of work and a file side effect, so
/// it only runs under `cargo bench`, like upstream criterion's test
/// mode skips sampling.
fn emit_ci_report(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        println!("host_throughput: not invoked via `cargo bench`, skipping CI report");
        return;
    }
    // Churn ops/sec. Best-of-5 (first run pays cold caches and page
    // faults, and shared CI hosts add multi-x scheduling noise) so the
    // CI throughput floor sees the steady-state rate.
    // The hit rate is deterministic — identical on every repeat.
    let churn_best = |f: fn() -> (u64, f64)| -> (f64, u64, f64) {
        let mut best = f64::INFINITY;
        let mut mallocs = 0;
        let mut hit_rate = 0.0;
        for _ in 0..5 {
            let t0 = Instant::now();
            (mallocs, hit_rate) = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (CHURN_OPS as f64 / best, mallocs, hit_rate)
    };
    let (churn_ops_per_sec, mallocs, class_hit_rate) = churn_best(churn);
    println!(
        "host_throughput/churn_1m_ops: {churn_ops_per_sec:.0} host ops/sec \
         ({mallocs} mallocs, hit rate {class_hit_rate:.4})"
    );

    // Cross-tasklet churn: every free is remote, priced in batches
    // instead of on the owner's local fast path.
    let (churn_xtask_ops_per_sec, xtask_mallocs, _) = churn_best(churn_xtask);
    println!(
        "host_throughput/churn_xtask_1m_ops: {churn_xtask_ops_per_sec:.0} host ops/sec \
         ({xtask_mallocs} mallocs, all frees remote)"
    );

    // Serial vs parallel wall clock for the 64-DPU figure run.
    // Best-of-3 so scheduler noise doesn't fail the CI speedup gate on
    // machines where the win is small (with one worker the parallel
    // engine runs the same inline loop and the true ratio is 1.0).
    let dpu_config = || DpuConfig::default().with_tasklets(16);
    let best_of = |run: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let serial_secs = best_of(&|| {
        let mut sys = PimSystem::new(N_DPUS, dpu_config());
        sys.run_per_dpu(|_, dpu| fig15_cell(dpu));
    });
    let parallel_secs = best_of(&|| {
        let mut sys = PimSystem::new(N_DPUS, dpu_config());
        sys.run_per_dpu_parallel(|_, dpu| fig15_cell(dpu));
    });
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // With one worker `run_per_dpu_parallel` executes the same inline
    // loop as the serial engine: there is no parallelism win to lose,
    // and the measured ratio is pure timer noise — report the true
    // value, 1.0, so the gate doesn't flake on starved runners.
    let parallel_speedup = if workers > 1 {
        serial_secs / parallel_secs
    } else {
        1.0
    };
    println!(
        "host_throughput/fig15_64dpu: serial {serial_secs:.3}s, parallel {parallel_secs:.3}s, \
         speedup {parallel_speedup:.2}x over {workers} worker(s)"
    );

    // Batched vs unbatched transfer scheduling (modeled, deterministic).
    let per_dpu = dse_host_executed(HostBatching::PerDpu);
    let sharded = dse_host_executed(HostBatching::Sharded);
    let batched_speedup = per_dpu.transfer_secs / sharded.transfer_secs;
    println!(
        "host_throughput/dse256_host_executed: per-DPU {:.4}s transfer ({} calls), \
         sharded {:.4}s ({} calls), batched speedup {batched_speedup:.2}x",
        per_dpu.transfer_secs,
        per_dpu.transfer_calls,
        sharded.transfer_secs,
        sharded.transfer_calls
    );

    // Machine-readable report for the CI artifact + gate. Hand-rolled
    // so the bench stays free of serializer details; every value is a
    // finite number.
    let json = format!(
        "{{\n  \
         \"schema_version\": 1,\n  \
         \"experiment\": \"host_throughput\",\n  \
         \"bench\": \"host_throughput\",\n  \
         \"churn_ops_per_sec\": {churn_ops_per_sec:.1},\n  \
         \"churn_mallocs\": {mallocs},\n  \
         \"class_hit_rate\": {class_hit_rate:.6},\n  \
         \"churn_xtask_ops_per_sec\": {churn_xtask_ops_per_sec:.1},\n  \
         \"churn_xtask_mallocs\": {xtask_mallocs},\n  \
         \"fig15_serial_secs\": {serial_secs:.6},\n  \
         \"fig15_parallel_secs\": {parallel_secs:.6},\n  \
         \"parallel_speedup\": {parallel_speedup:.4},\n  \
         \"dse256_per_dpu_transfer_secs\": {:.6},\n  \
         \"dse256_sharded_transfer_secs\": {:.6},\n  \
         \"dse256_per_dpu_calls\": {},\n  \
         \"dse256_sharded_calls\": {},\n  \
         \"batched_speedup\": {batched_speedup:.4}\n}}\n",
        per_dpu.transfer_secs,
        sharded.transfer_secs,
        per_dpu.transfer_calls,
        sharded.transfer_calls,
    );
    // Cargo runs benches with CWD = the package dir (crates/bench);
    // drop the report at the workspace root, where the CI artifact
    // upload and jq gate look for it.
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_host_throughput.json")
            .display()
            .to_string()
    });
    std::fs::write(&path, json).expect("write bench json");
    println!("host_throughput: wrote {path}");
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("host_throughput");
    g.sample_size(2);
    g.bench_function("churn_1m_ops", |b| b.iter(churn));
    g.bench_function("churn_xtask_1m_ops", |b| b.iter(churn_xtask));
    g.finish();
}

fn bench_figure_run(c: &mut Criterion) {
    let dpu_config = || DpuConfig::default().with_tasklets(16);
    let mut g = c.benchmark_group("fig15_64dpu");
    g.sample_size(2);
    g.bench_function("serial", |b| {
        b.iter(|| {
            let mut sys = PimSystem::new(N_DPUS, dpu_config());
            sys.run_per_dpu(|_, dpu| fig15_cell(dpu));
            sys.kernel_finish()
        })
    });
    g.bench_function("parallel", |b| {
        b.iter(|| {
            let mut sys = PimSystem::new(N_DPUS, dpu_config());
            sys.run_per_dpu_parallel(|_, dpu| fig15_cell(dpu));
            sys.kernel_finish()
        })
    });
    g.finish();
}

fn bench_batching(c: &mut Criterion) {
    // The modeled result is deterministic; the bench tracks the host
    // cost of *computing* the 256-DPU host-executed sweep itself.
    let mut g = c.benchmark_group("dse256_host_executed");
    g.sample_size(2);
    g.bench_function("per_dpu", |b| {
        b.iter(|| dse_host_executed(HostBatching::PerDpu).total_secs)
    });
    g.bench_function("sharded", |b| {
        b.iter(|| dse_host_executed(HostBatching::Sharded).total_secs)
    });
    g.finish();
}

criterion_group!(
    host_throughput,
    emit_ci_report,
    bench_churn,
    bench_figure_run,
    bench_batching
);
criterion_main!(host_throughput);
