//! Microbenchmark-driven figures: 7, 8, 15, 16, and the ablations.
//!
//! Every grid point is an independent single-DPU simulation, so each
//! figure fans its sweep out with [`pim_sim::parallel_indexed`] and
//! assembles rows from the index-ordered results — same tables, host
//! wall-clock divided by the core count.

use pim_sim::{parallel_indexed, BuddyCacheConfig};
use pim_workloads::micro::{
    run_micro, run_micro_with_cache, run_straw_man_grid_point, MicroConfig,
};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

/// Figure 7: straw-man slowdown over heap size × allocation size,
/// normalized to (32 KB heap, 2 KB allocations).
pub fn fig7(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig7",
        "straw-man slowdown vs heap size and (de)allocation size",
        "up to 12x from (32KB heap, 2KB alloc) to (32MB heap, 32B alloc)",
    );
    let pairs = if quick { 8 } else { 64 };
    let heaps: &[u32] = if quick {
        &[32 << 10, 2 << 20, 32 << 20]
    } else {
        &[32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20]
    };
    let alloc_sizes: &[u32] = if quick {
        &[32, 2048]
    } else {
        &[32, 128, 512, 1024, 2048]
    };
    let grid: Vec<(u32, u32)> = alloc_sizes
        .iter()
        .flat_map(|&alloc| heaps.iter().map(move |&heap| (alloc, heap)))
        .collect();
    let baseline = run_straw_man_grid_point(32 << 10, 2048, pairs);
    let latencies = parallel_indexed(grid.len(), |i| {
        let (alloc, heap) = grid[i];
        run_straw_man_grid_point(heap, alloc, pairs)
    });
    for (ai, &alloc) in alloc_sizes.iter().enumerate() {
        let values = heaps
            .iter()
            .enumerate()
            .map(|(hi, &heap)| {
                (
                    format!("{}KB heap", heap >> 10),
                    latencies[ai * heaps.len() + hi] / baseline,
                )
            })
            .collect();
        e.push(Row {
            label: format!("{alloc} B alloc"),
            values,
        });
    }
    e
}

/// Figure 8: straw-man allocation latency over a request sequence and
/// the Run/Busy-wait/Idle breakdown, 1 vs 16 threads.
pub fn fig8(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig8",
        "straw-man latency over sequence + cycle breakdown, 1 vs 16 threads",
        "1 thread stable; 16 threads fluctuate, busy-wait dominates",
    );
    let allocs = if quick { 64 } else { 300 };
    let thread_counts = [1usize, 16];
    let runs = parallel_indexed(thread_counts.len(), |i| {
        let threads = thread_counts[i];
        let cfg = MicroConfig {
            n_tasklets: threads,
            allocs_per_tasklet: allocs / threads.min(allocs),
            alloc_size: 32,
            ..MicroConfig::default()
        };
        run_micro(AllocatorKind::StrawMan, &cfg)
    });
    for (threads, r) in thread_counts.into_iter().zip(runs) {
        let n = r.timeline_us.len().max(1);
        let early: f64 =
            r.timeline_us[..n / 4].iter().map(|&(_, l)| l).sum::<f64>() / (n / 4).max(1) as f64;
        let late: f64 = r.timeline_us[3 * n / 4..]
            .iter()
            .map(|&(_, l)| l)
            .sum::<f64>()
            / (n - 3 * n / 4).max(1) as f64;
        let max = r.timeline_us.iter().map(|&(_, l)| l).fold(0.0f64, f64::max);
        let (run, busy, mem, etc) = r.breakdown.fractions();
        e.push(Row::new(
            format!("{threads} thread(s)"),
            vec![
                ("mean us", r.avg_latency_us),
                ("first-quarter us", early),
                ("last-quarter us", late),
                ("max us", max),
                ("run", run),
                ("busy-wait", busy),
                ("idle(mem)", mem),
                ("idle(etc)", etc),
            ],
        ));
    }
    e
}

/// Figure 15: average allocation latency, {1, 16} threads ×
/// {32 B, 256 B, 4 KB} × {straw-man, SW, HW/SW}.
pub fn fig15(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig15",
        "average pim_malloc latency (us) across allocators",
        "SW 66x over straw-man overall; HW/SW +31% over SW; 39% on 4KB",
    );
    let allocs = if quick { 32 } else { 128 };
    let cells: Vec<(usize, u32)> = [1usize, 16]
        .into_iter()
        .flat_map(|threads| [32u32, 256, 4096].into_iter().map(move |s| (threads, s)))
        .collect();
    let kinds = AllocatorKind::HEADLINE;
    let latencies = parallel_indexed(cells.len() * kinds.len(), |i| {
        let (threads, size) = cells[i / kinds.len()];
        let cfg = MicroConfig {
            n_tasklets: threads,
            allocs_per_tasklet: allocs,
            alloc_size: size,
            ..MicroConfig::default()
        };
        run_micro(kinds[i % kinds.len()], &cfg).avg_latency_us
    });
    for (ci, &(threads, size)) in cells.iter().enumerate() {
        let &[straw, sw, hw] = &latencies[ci * kinds.len()..(ci + 1) * kinds.len()] else {
            unreachable!("HEADLINE is straw-man, SW, HW/SW");
        };
        e.push(Row::new(
            format!("{threads}thr {size}B"),
            vec![
                ("straw-man", straw),
                ("SW", sw),
                ("HW/SW", hw),
                ("straw/SW", straw / sw),
                ("SW/HWSW", sw / hw),
            ],
        ));
    }
    e
}

/// Figure 16: HW/SW speedup over SW and buddy-cache hit rate vs cache
/// capacity (16 threads, 4 KB requests).
pub fn fig16(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig16",
        "buddy-cache size sensitivity (16 threads, 4KB requests)",
        "speedup and hit rate saturate beyond 64 B of cache",
    );
    let cfg = MicroConfig {
        n_tasklets: 16,
        allocs_per_tasklet: if quick { 32 } else { 128 },
        alloc_size: 4096,
        ..MicroConfig::default()
    };
    let sw = run_micro(AllocatorKind::Sw, &cfg).avg_latency_us;
    let sizes = [16u32, 32, 64, 128, 256];
    let runs = parallel_indexed(sizes.len(), |i| {
        run_micro_with_cache(&cfg, BuddyCacheConfig::with_capacity_bytes(sizes[i]))
    });
    for (bytes, r) in sizes.into_iter().zip(runs) {
        let bc = r.buddy_cache.expect("HW/SW exposes cache stats");
        e.push(Row::new(
            format!("{bytes} B cache"),
            vec![
                ("speedup vs SW", sw / r.avg_latency_us),
                ("hit rate", bc.hit_rate()),
                (
                    "bytes/req",
                    r.meta.total_bytes() as f64 / (16.0 * cfg.allocs_per_tasklet as f64),
                ),
            ],
        ));
    }
    e
}

/// §IV-B ablation: the all-software fine-grained LRU metadata buffer
/// vs the coarse window (16 threads, 4 KB requests).
pub fn ablation_swlru(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "ablation-swlru",
        "fine-grained software LRU vs coarse window",
        "fine-grained SW management regressed 29% despite fewer transfers",
    );
    let cfg = MicroConfig {
        n_tasklets: 16,
        allocs_per_tasklet: if quick { 32 } else { 64 },
        alloc_size: 4096,
        ..MicroConfig::default()
    };
    let mut runs = parallel_indexed(2, |i| {
        run_micro([AllocatorKind::Sw, AllocatorKind::SwFineLru][i], &cfg)
    });
    let fine = runs.pop().expect("two runs");
    let coarse = runs.pop().expect("two runs");
    e.push(Row::new(
        "coarse window",
        vec![
            ("avg us", coarse.avg_latency_us),
            ("meta KB", coarse.meta.total_bytes() as f64 / 1024.0),
        ],
    ));
    e.push(Row::new(
        "fine SW LRU",
        vec![
            ("avg us", fine.avg_latency_us),
            ("meta KB", fine.meta.total_bytes() as f64 / 1024.0),
            (
                "regression",
                fine.avg_latency_us / coarse.avg_latency_us - 1.0,
            ),
        ],
    ));
    e
}

/// Descent-policy ablation: four-state full marks (paper behaviour)
/// vs naive three-state metadata whose descent degrades with
/// occupancy.
pub fn ablation_descent(quick: bool) -> Experiment {
    use pim_malloc::{DescentPolicy, PimAllocator, StrawManAllocator, StrawManConfig};
    use pim_sim::{DpuConfig, DpuSim};

    let mut e = Experiment::new(
        "ablation-descent",
        "buddy descent: full marks vs three-state metadata",
        "not in the paper: the four-state node encoding (NodeState, DescentPolicy) is this reproduction's choice",
    );
    let allocs = if quick { 128 } else { 512 };
    let policies = [
        ("full marks", DescentPolicy::FullMarks),
        ("three-state", DescentPolicy::ThreeState),
    ];
    let runs = parallel_indexed(policies.len(), |i| {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let cfg = StrawManConfig {
            descent: policies[i].1,
            ..StrawManConfig::default()
        };
        let mut alloc = StrawManAllocator::init(&mut dpu, cfg).expect("straw-man init");
        let mhz = dpu.config().cost.clock_mhz;
        let mut first = 0.0;
        let mut last = 0.0;
        for j in 0..allocs {
            let mut ctx = dpu.ctx(0);
            let t0 = ctx.now();
            alloc.pim_malloc(&mut ctx, 32).unwrap();
            let us = (ctx.now() - t0).as_micros(mhz);
            if j == 0 {
                first = us;
            }
            last = us;
        }
        (first, last)
    });
    for ((label, _), (first, last)) in policies.into_iter().zip(runs) {
        e.push(Row::new(
            label,
            vec![
                ("first alloc us", first),
                ("last alloc us", last),
                ("degradation", last / first.max(1e-9)),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_diagonal_shows_large_slowdown() {
        let e = fig7(true);
        let worst = e.row("32 B alloc").unwrap().value("32768KB heap").unwrap();
        let best = e.row("2048 B alloc").unwrap().value("32KB heap").unwrap();
        assert!(worst / best > 5.0, "worst {worst} best {best}");
    }

    #[test]
    fn fig8_contention_dominates_16_threads() {
        let e = fig8(true);
        let r16 = e.row("16 thread(s)").unwrap();
        assert!(r16.value("busy-wait").unwrap() > 0.5);
        let r1 = e.row("1 thread(s)").unwrap();
        // Single-thread latency is flat across the sequence.
        let early = r1.value("first-quarter us").unwrap();
        let late = r1.value("last-quarter us").unwrap();
        assert!(late < early * 2.0, "single-thread must stay stable");
    }

    #[test]
    fn fig15_headline_ratios() {
        let e = fig15(true);
        let r = e.row("1thr 32B").unwrap();
        assert!(r.value("straw/SW").unwrap() > 10.0);
        let r = e.row("16thr 4096B").unwrap();
        assert!(r.value("SW/HWSW").unwrap() > 1.2);
    }

    #[test]
    fn fig16_saturates_at_64b() {
        let e = fig16(true);
        let h64 = e.row("64 B cache").unwrap().value("hit rate").unwrap();
        let h256 = e.row("256 B cache").unwrap().value("hit rate").unwrap();
        assert!((h256 - h64).abs() < 0.1, "64B {h64} vs 256B {h256}");
    }

    #[test]
    fn swlru_regresses() {
        let e = ablation_swlru(true);
        let reg = e.row("fine SW LRU").unwrap().value("regression").unwrap();
        assert!(reg > 0.0, "fine LRU must be slower, got {reg}");
    }

    #[test]
    fn three_state_descent_degrades() {
        let e = ablation_descent(true);
        let fm = e.row("full marks").unwrap().value("degradation").unwrap();
        let ts = e.row("three-state").unwrap().value("degradation").unwrap();
        assert!(ts > fm * 2.0, "three-state {ts} vs full-marks {fm}");
    }
}
