//! The standalone allocation microbenchmark (§V, "Microbenchmark").
//!
//! N tasklets each issue a series of `pim_malloc` calls of a fixed
//! size (optionally paired with frees) as [`TraceOp`] streams, which
//! [`replay_streams`] runs in virtual-time order. A run reports average
//! latency, the full latency timeline, the Figure 8(b)-style cycle
//! breakdown, metadata traffic, and buddy-cache statistics. This is
//! the workload behind Figures 7, 8, 15 and 16.

use pim_malloc::{BackendKind, MetaStats, PimAllocator, StrawManAllocator, StrawManConfig};
use pim_sim::{
    BuddyCacheConfig, BuddyCacheStats, DpuConfig, DpuSim, LatencyRecorder, TaskletStats,
};
use pim_trace::{replay_streams, AllocTrace, TraceOp};
use serde::{Deserialize, Serialize};

use crate::alloc_kind::allocator_meta;
use crate::AllocatorKind;

/// Request pattern of the microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pattern {
    /// Only allocations, slots never freed (Figures 8, 15, 16).
    AllocOnly,
    /// Each allocation is immediately freed — the "consecutive memory
    /// (de)allocation" pattern of Figure 7.
    AllocFreePairs,
}

/// Microbenchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroConfig {
    /// Number of tasklets issuing requests (paper: 1 or 16).
    pub n_tasklets: usize,
    /// `pim_malloc` calls per tasklet (paper: 128).
    pub allocs_per_tasklet: usize,
    /// Request size in bytes.
    pub alloc_size: u32,
    /// Heap capacity per DPU.
    pub heap_size: u32,
    /// Request pattern.
    pub pattern: Pattern,
}

impl Default for MicroConfig {
    /// The Figure 15 setup: 128 allocations per tasklet on a 32 MB heap.
    fn default() -> Self {
        MicroConfig {
            n_tasklets: 1,
            allocs_per_tasklet: 128,
            alloc_size: 32,
            heap_size: 32 << 20,
            pattern: Pattern::AllocOnly,
        }
    }
}

/// Results of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Allocator evaluated.
    pub kind: AllocatorKind,
    /// Mean `pim_malloc` latency in microseconds.
    pub avg_latency_us: f64,
    /// Every `pim_malloc` latency in completion order.
    pub latencies: LatencyRecorder,
    /// `(completion time µs, latency µs)` series (Figure 8(a)).
    pub timeline_us: Vec<(f64, f64)>,
    /// Aggregate cycle breakdown across tasklets (Figure 8(b)).
    pub breakdown: TaskletStats,
    /// Metadata-store traffic of the allocator's backend.
    pub meta: MetaStats,
    /// Buddy-cache statistics (HW/SW only).
    pub buddy_cache: Option<BuddyCacheStats>,
    /// Virtual finish time in microseconds.
    pub finish_us: f64,
}

/// One tasklet's stream: `n` mallocs of `size` bytes, each into its
/// own slot (`AllocOnly`) or freed right after it (`AllocFreePairs`).
fn stream(pattern: Pattern, size: u32, n: usize) -> Vec<TraceOp> {
    let mut s = Vec::with_capacity(2 * n);
    for slot in 0..n as u32 {
        match pattern {
            Pattern::AllocOnly => s.push(TraceOp::Malloc { size, slot }),
            Pattern::AllocFreePairs => {
                s.push(TraceOp::Malloc { size, slot: 0 });
                s.push(TraceOp::Free { slot: 0 });
            }
        }
    }
    s
}

fn streams(cfg: &MicroConfig) -> Vec<Vec<TraceOp>> {
    let s = stream(cfg.pattern, cfg.alloc_size, cfg.allocs_per_tasklet);
    vec![s; cfg.n_tasklets]
}

/// Replays `streams` on a fresh DPU against the allocator `build`
/// makes there.
fn run(
    kind: AllocatorKind,
    cfg: &MicroConfig,
    streams: &[Vec<TraceOp>],
    build: impl FnOnce(&mut DpuSim) -> Box<dyn PimAllocator>,
) -> MicroResult {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(cfg.n_tasklets));
    let mut alloc = build(&mut dpu);
    let r = replay_streams(&mut dpu, alloc.as_mut(), streams);
    let (meta, buddy_cache) = allocator_meta(alloc.as_ref());
    let mhz = dpu.config().cost.clock_mhz;
    MicroResult {
        kind,
        avg_latency_us: r.malloc_latencies.mean().as_micros(mhz),
        timeline_us: r
            .timeline
            .iter()
            .map(|&(t, l)| (t.as_micros(mhz), l.as_micros(mhz)))
            .collect(),
        latencies: r.malloc_latencies,
        breakdown: dpu.total_stats(),
        meta,
        buddy_cache,
        finish_us: r.finish.as_micros(mhz),
    }
}

/// Runs the microbenchmark on the given allocator design.
pub fn run_micro(kind: AllocatorKind, cfg: &MicroConfig) -> MicroResult {
    run(kind, cfg, &streams(cfg), |dpu| {
        kind.build(dpu, cfg.n_tasklets, cfg.heap_size)
    })
}

/// [`run_micro`], additionally returning its streams as an
/// [`AllocTrace`]. Replaying the trace against a fresh allocator of
/// the same kind reproduces the run's latency timeline byte for byte:
/// the run is that replay.
pub fn run_micro_recorded(kind: AllocatorKind, cfg: &MicroConfig) -> (MicroResult, AllocTrace) {
    let pattern = match cfg.pattern {
        Pattern::AllocOnly => "alloc-only",
        Pattern::AllocFreePairs => "alloc-free-pairs",
    };
    let trace = AllocTrace {
        name: format!("micro/{pattern}"),
        n_tasklets: cfg.n_tasklets,
        heap_size: cfg.heap_size,
        streams: streams(cfg),
    };
    let r = run(kind, cfg, &trace.streams, |dpu| {
        kind.build(dpu, cfg.n_tasklets, cfg.heap_size)
    });
    (r, trace)
}

/// Runs the microbenchmark on PIM-malloc-HW/SW with a specific buddy
/// cache size (Figure 16's sensitivity sweep).
pub fn run_micro_with_cache(cfg: &MicroConfig, cache: BuddyCacheConfig) -> MicroResult {
    run(AllocatorKind::HwSw, cfg, &streams(cfg), |dpu| {
        AllocatorKind::hw_sw_with_cache(dpu, cfg.n_tasklets, cfg.heap_size, cache)
    })
}

/// Runs the Figure 7 grid point: a *single-tasklet* straw-man
/// allocator over `heap_size` doing alloc/free pairs of `alloc_size`,
/// returning the average `pim_malloc` latency in microseconds.
///
/// Heaps of 64 KB or less keep their metadata in WRAM (UPMEM's stock
/// scratchpad allocator); larger heaps use the MRAM + coarse-buffer
/// configuration, reproducing the latency cliff of Figure 7.
pub fn run_straw_man_grid_point(heap_size: u32, alloc_size: u32, pairs: usize) -> f64 {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let cfg = StrawManConfig {
        heap_base: 0,
        heap_size,
        min_block: 32,
        metadata: if heap_size <= 64 << 10 {
            BackendKind::Wram
        } else {
            StrawManConfig::default().metadata
        },
        ..StrawManConfig::default()
    };
    let mut alloc = StrawManAllocator::init(&mut dpu, cfg).expect("straw-man init");
    let pairs = stream(Pattern::AllocFreePairs, alloc_size, pairs);
    let r = replay_streams(&mut dpu, &mut alloc, &[pairs]);
    assert_eq!(r.oom_count, 0, "grid point must fit its heap");
    r.malloc_latencies
        .mean()
        .as_micros(dpu.config().cost.clock_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15_single_thread_ordering() {
        // 32 B allocations, 1 thread: straw-man ≫ SW > HW/SW.
        let cfg = MicroConfig::default();
        let straw = run_micro(AllocatorKind::StrawMan, &cfg);
        let sw = run_micro(AllocatorKind::Sw, &cfg);
        let hw = run_micro(AllocatorKind::HwSw, &cfg);
        assert!(
            straw.avg_latency_us > 20.0 * sw.avg_latency_us,
            "straw-man {} vs SW {}",
            straw.avg_latency_us,
            sw.avg_latency_us
        );
        assert!(hw.avg_latency_us <= sw.avg_latency_us);
    }

    #[test]
    fn figure15_4kb_requests_exercise_backend() {
        let cfg = MicroConfig {
            alloc_size: 4096,
            n_tasklets: 16,
            ..MicroConfig::default()
        };
        let sw = run_micro(AllocatorKind::Sw, &cfg);
        let hw = run_micro(AllocatorKind::HwSw, &cfg);
        assert!(
            hw.avg_latency_us < sw.avg_latency_us,
            "buddy cache must accelerate 4 KB allocations: {} vs {}",
            hw.avg_latency_us,
            sw.avg_latency_us
        );
        let bc = hw.buddy_cache.expect("HW/SW exposes cache stats");
        assert!(bc.hit_rate() > 0.5, "hit rate {}", bc.hit_rate());
        // HW/SW transfers far less metadata than the coarse window.
        assert!(hw.meta.total_bytes() < sw.meta.total_bytes() / 4);
    }

    #[test]
    fn contention_dominates_16_thread_straw_man() {
        let cfg = MicroConfig {
            n_tasklets: 16,
            allocs_per_tasklet: 32,
            ..MicroConfig::default()
        };
        let r = run_micro(AllocatorKind::StrawMan, &cfg);
        let (_, busy, _, _) = r.breakdown.fractions();
        assert!(busy > 0.5, "busy-wait fraction {busy}");
    }

    #[test]
    fn sw_16_threads_stays_mostly_lock_free() {
        let cfg = MicroConfig {
            n_tasklets: 16,
            allocs_per_tasklet: 32,
            ..MicroConfig::default()
        };
        let r = run_micro(AllocatorKind::Sw, &cfg);
        let (_, busy, _, _) = r.breakdown.fractions();
        assert!(busy < 0.2, "thread caches avoid the mutex: {busy}");
    }

    #[test]
    fn figure7_latency_grows_with_heap_and_shrinks_with_alloc_size() {
        let small_heap = run_straw_man_grid_point(32 << 10, 2048, 16);
        let worst = run_straw_man_grid_point(32 << 20, 32, 16);
        let ratio = worst / small_heap;
        assert!(
            ratio > 5.0,
            "Figure 7 diagonal must show a large slowdown, got {ratio}"
        );
        // Monotonicity along the heap axis.
        let mid = run_straw_man_grid_point(2 << 20, 32, 16);
        let big = run_straw_man_grid_point(32 << 20, 32, 16);
        assert!(mid < big);
    }

    #[test]
    fn fine_lru_ablation_is_slower_than_coarse() {
        // §IV-B: fine-grained software LRU regresses on the 16-thread
        // 4 KB microbenchmark despite moving fewer bytes.
        let cfg = MicroConfig {
            n_tasklets: 16,
            alloc_size: 4096,
            allocs_per_tasklet: 64,
            ..MicroConfig::default()
        };
        let coarse = run_micro(AllocatorKind::Sw, &cfg);
        let fine = run_micro(AllocatorKind::SwFineLru, &cfg);
        assert!(
            fine.avg_latency_us > coarse.avg_latency_us,
            "fine {} must be slower than coarse {}",
            fine.avg_latency_us,
            coarse.avg_latency_us
        );
        assert!(fine.meta.total_bytes() < coarse.meta.total_bytes());
    }

    #[test]
    fn cache_size_sweep_saturates() {
        // Figure 16: hit rate and speedup saturate around 64 B.
        let cfg = MicroConfig {
            n_tasklets: 16,
            alloc_size: 4096,
            allocs_per_tasklet: 64,
            ..MicroConfig::default()
        };
        let mut hit_rates = Vec::new();
        for bytes in [16u32, 64, 256] {
            let r = run_micro_with_cache(&cfg, BuddyCacheConfig::with_capacity_bytes(bytes));
            hit_rates.push(r.buddy_cache.unwrap().hit_rate());
        }
        assert!(hit_rates[0] < hit_rates[1] + 0.05);
        assert!(
            (hit_rates[2] - hit_rates[1]).abs() < 0.1,
            "64 B → 256 B must be near-flat: {hit_rates:?}"
        );
    }

    #[test]
    fn recorded_micro_replays_identically() {
        let cfg = MicroConfig {
            n_tasklets: 4,
            allocs_per_tasklet: 32,
            ..MicroConfig::default()
        };
        let (direct, trace) = run_micro_recorded(AllocatorKind::Sw, &cfg);
        assert_eq!(trace.malloc_count(), 4 * 32);
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
        let mut alloc = AllocatorKind::Sw.build(&mut dpu, 4, cfg.heap_size);
        let replayed = pim_trace::replay(&mut dpu, alloc.as_mut(), &trace);
        let mhz = dpu.config().cost.clock_mhz;
        let replay_timeline: Vec<(f64, f64)> = replayed
            .timeline
            .iter()
            .map(|&(t, l)| (t.as_micros(mhz), l.as_micros(mhz)))
            .collect();
        assert_eq!(direct.timeline_us, replay_timeline);
    }

    #[test]
    fn alloc_free_pairs_never_oom() {
        let cfg = MicroConfig {
            pattern: Pattern::AllocFreePairs,
            allocs_per_tasklet: 256,
            heap_size: 1 << 20,
            ..MicroConfig::default()
        };
        let r = run_micro(AllocatorKind::Sw, &cfg);
        assert_eq!(r.latencies.len(), 256);
    }
}
