//! Quickstart: bring up PIM-malloc on one simulated DPU, allocate and
//! free from several tasklets, and inspect the statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
use pim_sim::{DpuConfig, DpuSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One UPMEM-like DPU: 350 MHz, 16 tasklets, 64 MB MRAM, 64 KB WRAM.
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));

    // PIM-malloc-SW with the paper's defaults: 32 MB heap, 16 B..2 KB
    // size classes, a 4 KB-block buddy backend behind a 2 KB software
    // metadata window.
    let mhz = dpu.config().cost.clock_mhz;
    let mut alloc = PimMalloc::init(&mut dpu, AllocGeometry::sw(16).build())?;
    println!(
        "initAllocator finished at t = {:.1} us",
        alloc.init_end().as_micros(mhz)
    );

    // Every tasklet allocates a mix of sizes, then frees half of them.
    let mut live = Vec::new();
    for tid in 0..16 {
        for &size in &[24u32, 100, 500, 2000, 8192] {
            let mut ctx = dpu.ctx(tid);
            let addr = alloc.pim_malloc(&mut ctx, size)?;
            live.push((tid, addr));
        }
    }
    for &(tid, addr) in live.iter().step_by(2) {
        let mut ctx = dpu.ctx(tid);
        alloc.pim_free(&mut ctx, addr)?;
    }

    let stats = alloc.alloc_stats();
    println!("pim_malloc calls      : {}", stats.total_mallocs());
    println!(
        "frontend-serviced     : {:.1} %",
        100.0 * stats.frontend_service_fraction()
    );
    println!(
        "backend latency share : {:.1} %",
        100.0 * stats.backend_latency_fraction()
    );
    println!(
        "mean malloc latency   : {:.2} us",
        stats.malloc_latencies.mean().as_micros(mhz)
    );
    println!("fragmentation A/U     : {:.2}", alloc.frag().ratio());
    println!(
        "metadata DRAM traffic : {} B",
        alloc.metadata_stats().total_bytes()
    );
    println!(
        "virtual time elapsed  : {:.1} us",
        dpu.max_clock().as_micros(mhz)
    );
    Ok(())
}
