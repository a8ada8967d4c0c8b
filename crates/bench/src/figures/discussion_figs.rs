//! The §VII Discussion experiments — the paper's forward-looking
//! claims, reproduced quantitatively.
//!
//! 1. **Future PIM with enhanced processing**: a faster DPU shrinks
//!    `pim_malloc`'s absolute latency but accelerates the surrounding
//!    workload proportionally, so allocation's *relative* share stays a
//!    bottleneck.
//! 2. **Cache-enabled PIM**: a general-purpose data cache with 64 B
//!    lines is a poor home for 2-bit buddy metadata; the dedicated
//!    fine-granularity buddy cache matches its latency with a fraction
//!    of the capacity and the DRAM traffic.

use pim_malloc::{AllocGeometry, BackendKind, PimAllocator, PimMalloc};
use pim_sim::{BuddyCacheConfig, CostModel, Cycles, DpuConfig, DpuSim};

use crate::report::{Experiment, Row};

/// Runs a small allocation-heavy kernel (interleaved 256 B allocations
/// and simulated compute) and returns `(total us, malloc us)`.
fn alloc_share_kernel(cost: CostModel, allocs: usize) -> (f64, f64) {
    let mut dpu = DpuSim::new(
        DpuConfig {
            cost,
            ..DpuConfig::default()
        }
        .with_tasklets(16),
    );
    let mut pm = PimMalloc::init(&mut dpu, AllocGeometry::sw(16).build()).expect("init");
    let mut malloc_cycles = Cycles::ZERO;
    for i in 0..allocs {
        let tid = i % 16;
        let mut ctx = dpu.ctx(tid);
        // Surrounding workload: some compute and a data write per item.
        ctx.instrs(800);
        ctx.mram_write(0, 256);
        let t = ctx.now();
        pm.pim_malloc(&mut ctx, 256).expect("heap sized");
        malloc_cycles += ctx.now() - t;
    }
    // Malloc time is summed across tasklets, so compare against the
    // total accounted tasklet time (run + waits across all tasklets).
    let total = dpu.total_stats().total();
    let mhz = cost.clock_mhz;
    (total.as_micros(mhz), malloc_cycles.as_micros(mhz))
}

/// §VII claim 1: allocation overhead survives faster PIM cores.
pub fn discussion_future_pim(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "discussion-future-pim",
        "allocation share of runtime as DPU processing improves",
        "faster cores cut absolute latency, not the relative bottleneck",
    );
    let allocs = if quick { 256 } else { 1024 };
    let base = CostModel::default();
    let configs = [
        ("today (350 MHz)", base),
        (
            "2x clock (700 MHz)",
            CostModel {
                clock_mhz: 700,
                ..base
            },
        ),
        (
            "2x clock + 2x DMA",
            CostModel {
                clock_mhz: 700,
                dma_setup_cycles: base.dma_setup_cycles / 2,
                dma_cycles_per_8b: base.dma_cycles_per_8b.max(2) / 2,
                ..base
            },
        ),
    ];
    for (label, cost) in configs {
        let (total_us, malloc_us) = alloc_share_kernel(cost, allocs);
        e.push(Row::new(
            label,
            vec![
                ("kernel us", total_us),
                ("malloc us", malloc_us),
                ("malloc share", malloc_us / total_us),
            ],
        ));
    }
    e
}

/// §VII claim 2: granularity mismatch of a general-purpose cache.
pub fn discussion_cache_granularity(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "discussion-cache-granularity",
        "dedicated 64 B buddy cache vs general-purpose line caches",
        "64 B-line caches waste bandwidth on 2-bit metadata; an 8 B \
         granularity complements a general-purpose cache",
    );
    let allocs = if quick { 256 } else { 1024 };
    // The line caches are CAMs with line-sized entries.
    let cam = |entries, bytes_per_entry| BackendKind::HwCache {
        cache: BuddyCacheConfig {
            entries,
            bytes_per_entry,
        },
    };
    let backends: [(&str, BackendKind); 4] = [
        ("buddy cache 64 B (16 x 4 B)", cam(16, 4)),
        ("line cache 1 KB, 64 B lines", cam(16, 64)),
        ("line cache 1 KB, 8 B lines", cam(128, 8)),
        ("line cache 64 B, 64 B lines", cam(1, 64)),
    ];
    for (label, backend) in backends {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
        let cfg = AllocGeometry::hw_sw(16).with_backend(backend).build();
        let mut pm = PimMalloc::init(&mut dpu, cfg).expect("init");
        for i in 0..allocs {
            let mut ctx = dpu.ctx(i % 16);
            // 4 KB requests exercise the backend tree on every call.
            pm.pim_malloc(&mut ctx, 4096).expect("heap sized");
        }
        let meta = pm.metadata_stats();
        let mean_us = pm
            .alloc_stats()
            .malloc_latencies
            .mean()
            .as_micros(dpu.config().cost.clock_mhz);
        e.push(Row::new(
            label,
            vec![
                ("avg us", mean_us),
                ("bytes/req", meta.total_bytes() as f64 / allocs as f64),
                ("hit rate", meta.hit_rate()),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_share_survives_faster_cores() {
        let e = discussion_future_pim(true);
        let today = e.row("today (350 MHz)").unwrap();
        let future = e.row("2x clock + 2x DMA").unwrap();
        // Absolute latency drops...
        assert!(future.value("malloc us").unwrap() < today.value("malloc us").unwrap());
        // ...but the share moves by far less than the 2x speedup.
        let s0 = today.value("malloc share").unwrap();
        let s1 = future.value("malloc share").unwrap();
        assert!(
            (s1 - s0).abs() < 0.25 * s0.max(s1),
            "share must be roughly invariant: {s0} vs {s1}"
        );
    }

    #[test]
    fn wide_lines_waste_bandwidth_at_equal_capacity() {
        let e = discussion_cache_granularity(true);
        let buddy = e.row("buddy cache 64 B (16 x 4 B)").unwrap();
        let wide = e.row("line cache 64 B, 64 B lines").unwrap();
        // At the capacity a per-DPU dedicated structure can afford,
        // 64 B granularity wastes orders of magnitude more bandwidth
        // and loses on latency — the paper's mismatch argument.
        assert!(
            buddy.value("bytes/req").unwrap() * 20.0 < wide.value("bytes/req").unwrap(),
            "64 B lines must waste bandwidth at equal capacity"
        );
        assert!(buddy.value("avg us").unwrap() < wide.value("avg us").unwrap());
        // A general-purpose cache only catches up by being 16x larger.
        let big = e.row("line cache 1 KB, 64 B lines").unwrap();
        let ratio = buddy.value("avg us").unwrap() / big.value("avg us").unwrap();
        assert!((0.8..1.3).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn equal_capacity_fine_lines_beat_wide_lines_on_traffic() {
        let e = discussion_cache_granularity(true);
        let fine = e.row("line cache 1 KB, 8 B lines").unwrap();
        let wide = e.row("line cache 1 KB, 64 B lines").unwrap();
        assert!(fine.value("bytes/req").unwrap() <= wide.value("bytes/req").unwrap());
    }
}
