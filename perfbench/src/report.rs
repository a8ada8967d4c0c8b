//! Metric names, the record of one repetition, and the helpers every
//! workload shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pim_malloc::{MetaStats, PimAllocator, PimMalloc};
use pim_sim::{BuddyCacheStats, CostModel, Cycles, DpuSim, DramTraffic, TaskletStats};

use crate::host_speed::HostSpeed;
use crate::span::{self, Span, Spans, TracedAlloc};

/// End-to-end metrics `(name, unit)`, reported by every workload from
/// untraced repetitions. `failed_ratio` is not among them: it is 0 on
/// every workload, so it travels as the result's `failed`/`attempted`.
/// Peak A/U is a per-layer metric (`alloc.frag.peak_ratio`): on
/// `remote-free` it is set by two or three coincident 2 KB objects
/// against the pre-populated pool, so it jumps between seeds.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("sim_finish_s", "s"),
    ("sim_malloc_mean_cycles", "cycles"),
    ("sim_malloc_p50_cycles", "cycles"),
    ("sim_malloc_p999_cycles", "cycles"),
    ("sim_request_p50_us", "us"),
    ("sim_request_p999_us", "us"),
    ("sim_knee_rps", "req/s"),
];

/// Per-layer metrics `(name, unit)` of the traced run, before the
/// serving ladder's per-rung entries (see [`per_layer`]).
const PER_LAYER: [(&str, &str); 52] = [
    ("alloc.frontend.hits", "count"),
    ("alloc.frontend.refills", "count"),
    ("alloc.frontend.class_hit_rate", "ratio"),
    ("alloc.malloc.hit.sim_cycles_p50", "cycles"),
    ("alloc.malloc.host_ns_p50", "ns"),
    ("alloc.malloc.host_ns_p99", "ns"),
    ("alloc.free.host_ns_p50", "ns"),
    ("alloc.free.local.sim_cycles_p50", "cycles"),
    ("alloc.middle.remote_frees", "count"),
    ("alloc.middle.transfer_hits", "count"),
    ("alloc.middle.central_hits", "count"),
    ("alloc.middle.flushes", "count"),
    ("alloc.middle.demotes", "count"),
    ("alloc.middle.spans_returned", "count"),
    ("alloc.middle.reuse_rate", "ratio"),
    ("alloc.free.remote.sim_cycles_p50", "cycles"),
    ("alloc.free.remote.sim_cycles_p999", "cycles"),
    ("alloc.backend.bypass", "count"),
    ("alloc.backend.frees", "count"),
    ("alloc.backend.latency_share", "ratio"),
    ("alloc.malloc.refill.sim_cycles_p50", "cycles"),
    ("alloc.malloc.bypass.sim_cycles_p50", "cycles"),
    ("alloc.frag.peak_ratio", "A/U"),
    ("alloc.meta.hit_rate", "ratio"),
    ("alloc.meta.misses", "count"),
    ("alloc.meta.bytes", "bytes"),
    ("sim.buddy_cache.hit_rate", "ratio"),
    ("sim.buddy_cache.evictions", "count"),
    ("sim.buddy_cache.writebacks", "count"),
    ("sim.dpu.run_cycles", "cycles"),
    ("sim.dpu.busy_wait_cycles", "cycles"),
    ("sim.dpu.idle_mem_cycles", "cycles"),
    ("sim.dpu.idle_etc_cycles", "cycles"),
    ("sim.dpu.instrs", "count"),
    ("sim.dpu.dma_transfers", "count"),
    ("sim.dpu.dram_bytes", "bytes"),
    ("trace.replay.self_s", "s"),
    ("trace.replay.self_ns_per_op", "ns"),
    ("sim.exec.parallel_speedup", "x"),
    ("workloads.graph.host_s", "s"),
    ("workloads.graph.frontend_fraction", "ratio"),
    ("workloads.graph.backend_latency_fraction", "ratio"),
    ("workloads.graph.meta_bytes", "bytes"),
    ("workloads.graph.total_mallocs", "count"),
    ("workloads.graph.host_push_s", "s"),
    ("serving.calibrate_s", "s"),
    ("serving.host_ns_per_request", "ns"),
    ("serving.push_calls", "count"),
    ("serving.push_s", "s"),
    ("serving.peak_in_flight", "count"),
    ("bench.driver.self_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Every per-layer metric `(name, unit)`, the serving ladder's rungs
/// included. A workload that does not exercise a layer reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for i in 0..crate::serve::LADDER_RPS.len() {
        out.push((format!("serving.ladder.{i}.p999_us"), "us"));
        out.push((format!("serving.ladder.{i}.drop_ratio"), "ratio"));
    }
    out
}

/// Modeled results of one repetition. They are deterministic, so every
/// repetition, traced or not, must reproduce them bit for bit.
#[derive(Debug, Default, Clone)]
pub struct Modeled(Vec<(&'static str, f64)>);

impl Modeled {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Describes the first field whose bits differ from `other`'s.
    pub fn mismatch(&self, other: &Modeled) -> Option<String> {
        if self.0.len() != other.0.len() {
            return Some(format!(
                "{} vs {} modeled fields",
                self.0.len(),
                other.0.len()
            ));
        }
        self.0
            .iter()
            .zip(&other.0)
            .find(|((na, a), (nb, b))| na != nb || a.to_bits() != b.to_bits())
            .map(|((na, a), (nb, b))| format!("{na}={a} vs {nb}={b}"))
    }
}

/// One repetition: a fresh input, `DpuSim` and allocator, then the
/// timed phase.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Operations the timed phase performed (the unit of
    /// `host_ops_per_s`).
    pub ops: u64,
    pub failed: u64,
    pub modeled: Modeled,
}

/// Fails unless every repetition reproduced the first one's modeled
/// results exactly.
pub fn same_modeled<'a>(mut reps: impl Iterator<Item = &'a Modeled>) -> Result<(), String> {
    let Some(first) = reps.next() else {
        return Ok(());
    };
    for (i, m) in reps.enumerate() {
        if let Some(diff) = first.mismatch(m) {
            return Err(format!(
                "modeled results changed in repetition {}: {diff}",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Share of each repetition's timed phase spent afterwards sampling the
/// host's speed.
const SPEED_SAMPLE_SHARE: f64 = 0.25;

/// Runs `rep` until `seconds` have passed, and at least `min` times,
/// sampling the host's speed on `threads` threads after each repetition.
/// Also returns the peak resident set after the first repetition, MB
/// (later repetitions add only the host heap's fragmentation, which
/// varies with the seed), and the host's slowdown over the whole run.
pub fn repeat(
    seconds: f64,
    min: usize,
    threads: usize,
    mut rep: impl FnMut() -> Result<Rep, String>,
) -> Result<(Vec<Rep>, f64, f64), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut speed = HostSpeed::new(threads);
    let mut reps = Vec::new();
    let mut rss_mb = 0.0;
    while reps.len() < min || Instant::now() < deadline {
        let r = rep()?;
        if reps.is_empty() {
            rss_mb = peak_rss_mb();
        }
        speed.sample(SPEED_SAMPLE_SHARE * r.wall_s);
        reps.push(r);
    }
    same_modeled(reps.iter().map(|r| &r.modeled))?;
    Ok((reps, rss_mb, speed.slowdown()))
}

/// What a traced run yields: its layer metrics and every repetition.
pub type TraceRun = (Layers, Vec<Rep>);

/// The traced run: untraced and traced repetitions alternate until
/// `seconds` have passed, and must agree on every modeled result.
/// `traced` writes its layer metrics each time; the trace overhead
/// compares the two sides' fastest walls.
pub fn alternate(
    seconds: f64,
    spans: &mut Spans,
    mut untraced: impl FnMut() -> Result<Rep, String>,
    mut traced: impl FnMut(&mut Layers, &mut Spans) -> Result<Rep, String>,
) -> Result<TraceRun, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut layers = Layers::new();
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    while plain.len() < 2 || Instant::now() < deadline {
        plain.push(untraced()?);
        with.push(traced(&mut layers, spans)?);
    }
    same_modeled(plain.iter().chain(&with).map(|r| &r.modeled))?;
    layers.set(
        "bench.trace_overhead",
        fastest(&with) / fastest(&plain) - 1.0,
    );
    plain.extend(with);
    Ok((layers, plain))
}

/// The shortest timed phase among `reps`, seconds.
pub fn fastest(reps: &[Rep]) -> f64 {
    reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min)
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

pub fn mhz() -> u64 {
    CostModel::default().clock_mhz
}

pub fn secs(c: Cycles) -> f64 {
    c.as_secs(mhz())
}

/// Nearest-rank quantile (the `pim_sim::LatencyRecorder` convention)
/// without sorting the whole slice.
pub fn nearest_rank(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// `sim_malloc_*` from every malloc latency of the timed phase, cycles.
pub fn malloc_metrics(m: &mut Modeled, lat: &mut [u64]) {
    let sum: u128 = lat.iter().map(|&c| u128::from(c)).sum();
    m.set("sim_malloc_mean_cycles", sum as f64 / lat.len() as f64);
    m.set("sim_malloc_p50_cycles", nearest_rank(lat, 0.5) as f64);
    m.set("sim_malloc_p999_cycles", nearest_rank(lat, 0.999) as f64);
}

/// `sim_request_*` of a batch workload. A batch offers all its work at
/// once, so each operation is due when the timed phase starts and its
/// latency is its completion time, in cycles since that start.
pub fn request_metrics(m: &mut Modeled, done: &mut [u64]) {
    let us = |c: u64| Cycles(c).as_micros(mhz());
    m.set("sim_request_p50_us", us(nearest_rank(done, 0.5)));
    m.set("sim_request_p999_us", us(nearest_rank(done, 0.999)));
}

/// Lines every tasklet up at the latest clock, so the timed phase
/// starts together; returns that start.
pub fn barrier(dpu: &mut DpuSim) -> Cycles {
    let t0 = dpu.max_clock();
    for t in 0..dpu.config().n_tasklets {
        dpu.ctx(t).wait_until(t0);
    }
    t0
}

/// Each tasklet's four time classes must add up to its clock.
pub fn check_time_classes(dpu: &DpuSim) -> Result<(), String> {
    for t in 0..dpu.config().n_tasklets {
        let (total, clock) = (dpu.tasklet_stats(t).total(), dpu.clock(t));
        if total != clock {
            return Err(format!(
                "tasklet {t}: time classes sum to {} cycles, clock reads {}",
                total.0, clock.0
            ));
        }
    }
    Ok(())
}

/// The allocator from a `dyn PimAllocator`.
pub fn pim_malloc_of(alloc: &dyn PimAllocator) -> Result<&PimMalloc, String> {
    alloc
        .as_any()
        .downcast_ref::<PimMalloc>()
        .ok_or_else(|| "allocator is not PimMalloc".to_string())
}

/// Counters of one DPU and its allocator at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub stats: TaskletStats,
    pub traffic: DramTraffic,
    pub meta: MetaStats,
    pub buddy: BuddyCacheStats,
}

impl Snapshot {
    pub fn take(dpu: &DpuSim, pm: &PimMalloc) -> Self {
        Snapshot {
            stats: dpu.total_stats(),
            traffic: dpu.traffic(),
            meta: pm.metadata_stats(),
            buddy: pm.buddy_cache_stats().unwrap_or_default(),
        }
    }
}

/// Per-layer values of a traced run, every name present from the start.
#[derive(Debug)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, v: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// The DPU's time classes and DMA traffic between two instants.
    pub fn set_dpu(&mut self, stats: TaskletStats, traffic: DramTraffic) {
        self.set("sim.dpu.run_cycles", stats.run.0 as f64);
        self.set("sim.dpu.busy_wait_cycles", stats.busy_wait.0 as f64);
        self.set("sim.dpu.idle_mem_cycles", stats.idle_mem.0 as f64);
        self.set("sim.dpu.idle_etc_cycles", stats.idle_etc.0 as f64);
        self.set("sim.dpu.instrs", stats.instrs as f64);
        self.set("sim.dpu.dma_transfers", traffic.transfers as f64);
        self.set("sim.dpu.dram_bytes", traffic.total_bytes() as f64);
    }

    /// Allocator and DPU layers of a traced one-DPU timed phase.
    pub fn set_alloc(&mut self, traced: &TracedAlloc<PimMalloc>, before: &Snapshot, dpu: &DpuSim) {
        let pm = &traced.inner;
        let after = Snapshot::take(dpu, pm);
        let s = pm.alloc_stats();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let site = |i: usize| -> &Span { &traced.sites[i] };
        let mallocs = traced.merged(span::MALLOC_SITES);
        let frees = traced.merged(span::FREE_SITES);
        self.set("alloc.frontend.hits", s.frontend_hits as f64);
        self.set("alloc.frontend.refills", s.frontend_refills as f64);
        self.set("alloc.frontend.class_hit_rate", s.class_hit_rate());
        self.set(
            "alloc.malloc.hit.sim_cycles_p50",
            site(span::MALLOC_HIT).cycles.quantile(0.5) as f64,
        );
        self.set(
            "alloc.malloc.host_ns_p50",
            mallocs.host.quantile(0.5) as f64,
        );
        self.set(
            "alloc.malloc.host_ns_p99",
            mallocs.host.quantile(0.99) as f64,
        );
        self.set("alloc.free.host_ns_p50", frees.host.quantile(0.5) as f64);
        self.set(
            "alloc.free.local.sim_cycles_p50",
            site(span::FREE_LOCAL).cycles.quantile(0.5) as f64,
        );
        let remote = s.frees_remote_transfer + s.frees_remote_global;
        self.set("alloc.middle.remote_frees", remote as f64);
        self.set("alloc.middle.transfer_hits", s.transfer_hits as f64);
        self.set("alloc.middle.central_hits", s.central_hits as f64);
        self.set("alloc.middle.flushes", s.transfer_flushes as f64);
        self.set("alloc.middle.demotes", s.central_demotes as f64);
        self.set("alloc.middle.spans_returned", s.spans_returned as f64);
        self.set(
            "alloc.middle.reuse_rate",
            ratio(s.transfer_hits + s.central_hits, remote),
        );
        let remote_cycles = &site(span::FREE_REMOTE).cycles;
        self.set(
            "alloc.free.remote.sim_cycles_p50",
            remote_cycles.quantile(0.5) as f64,
        );
        self.set(
            "alloc.free.remote.sim_cycles_p999",
            remote_cycles.quantile(0.999) as f64,
        );
        self.set("alloc.backend.bypass", s.bypass as f64);
        self.set("alloc.backend.frees", s.frees_backend as f64);
        self.set("alloc.backend.latency_share", s.backend_latency_fraction());
        self.set("alloc.frag.peak_ratio", pm.frag().peak_ratio());
        self.set(
            "alloc.malloc.refill.sim_cycles_p50",
            site(span::MALLOC_REFILL).cycles.quantile(0.5) as f64,
        );
        self.set(
            "alloc.malloc.bypass.sim_cycles_p50",
            site(span::MALLOC_BYPASS).cycles.quantile(0.5) as f64,
        );
        let (m0, m1) = (before.meta, after.meta);
        let meta_hits = m1.hits - m0.hits;
        let meta_misses = m1.misses - m0.misses;
        self.set(
            "alloc.meta.hit_rate",
            ratio(meta_hits, meta_hits + meta_misses),
        );
        self.set("alloc.meta.misses", meta_misses as f64);
        self.set(
            "alloc.meta.bytes",
            (m1.total_bytes() - m0.total_bytes()) as f64,
        );
        let (b0, b1) = (before.buddy, after.buddy);
        let bc_hits = b1.hits - b0.hits;
        self.set(
            "sim.buddy_cache.hit_rate",
            ratio(bc_hits, bc_hits + b1.misses - b0.misses),
        );
        self.set(
            "sim.buddy_cache.evictions",
            (b1.evictions - b0.evictions) as f64,
        );
        self.set(
            "sim.buddy_cache.writebacks",
            (b1.writebacks - b0.writebacks) as f64,
        );
        let traffic = DramTraffic {
            bytes_read: after.traffic.bytes_read - before.traffic.bytes_read,
            bytes_written: after.traffic.bytes_written - before.traffic.bytes_written,
            transfers: after.traffic.transfers - before.traffic.transfers,
        };
        self.set_dpu(after.stats.since(&before.stats), traffic);
    }
}

/// The wrapper's per-site counts must add up to the allocator's malloc
/// count, and its modeled malloc cycles to the allocator's own split.
pub fn check_wrapper(traced: &TracedAlloc<PimMalloc>) -> Result<(), String> {
    let s = traced.inner.alloc_stats();
    let ok = span::MALLOC_HIT..span::MALLOC_FAILED;
    let count: u64 = traced.sites[ok.clone()].iter().map(|x| x.count).sum();
    if count != s.total_mallocs() {
        return Err(format!(
            "wrapper saw {count} mallocs, allocator counted {}",
            s.total_mallocs()
        ));
    }
    let cycles: u128 = traced.sites[ok].iter().map(|x| x.cycles.sum()).sum();
    let own = u128::from((s.cycles_frontend + s.cycles_backend).0);
    if cycles != own {
        return Err(format!(
            "wrapper saw {cycles} malloc cycles, allocator counted {own}"
        ));
    }
    Ok(())
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
