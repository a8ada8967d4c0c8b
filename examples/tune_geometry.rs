//! Profile-guided geometry tuning, end to end on one scenario family:
//! take the trace's request-size histogram with
//! [`AllocProfile::from_trace`], synthesize a custom size-class table
//! from it, then replay the same trace under the paper geometry and
//! the synthesized one and compare measured fragmentation.
//!
//! Run with: `cargo run --release --example tune_geometry`

use pim_malloc_repro::{synthesize_table, AllocGeometry, AllocProfile, PimMalloc, SizeClassTable};
use pim_profile::wram_bitmap_bytes;
use pim_sim::{DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, AllocTrace, SizeLaw, SynthConfig, TemporalShape};

/// Replays `trace` under `table`, returning (peak A over peak U,
/// finish us).
fn replay_under(trace: &AllocTrace, table: &SizeClassTable) -> (f64, f64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mhz = dpu.config().cost.clock_mhz;
    let geom = AllocGeometry::sw(trace.n_tasklets)
        .with_heap_size(trace.heap_size)
        .with_size_classes(table.clone());
    let mut alloc = PimMalloc::init(&mut dpu, geom.build()).expect("init");
    let result = replay(&mut dpu, &mut alloc, trace);
    (alloc.frag().peak_ratio(), result.finish.as_micros(mhz))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: the log-normal/phase-shift scenario family —
    //    size-diverse, so the fixed power-of-two table serves it
    //    poorly.
    let trace = synthesize(&SynthConfig {
        n_tasklets: 16,
        mallocs_per_tasklet: 96,
        size_law: SizeLaw::LogNormal {
            mu: 5.5,
            sigma: 1.0,
            min: 8,
            max: 8192,
        },
        shape: TemporalShape::PhaseShift {
            period: 32,
            compute: 200,
        },
        ..SynthConfig::default()
    });

    // 2. Profile: the trace's request sizes, no simulation needed.
    let profile = AllocProfile::from_trace(&trace);
    println!("profiled {}:", profile.name);
    println!(
        "  mallocs            : {}",
        profile.histogram.total_requests()
    );
    println!(
        "  distinct sizes     : {}",
        profile.histogram.distinct_sizes()
    );

    // 3. Synthesize a table from the profile.
    let synthesis = synthesize_table(&profile)?;
    let report = &synthesis.report;
    println!("\nsynthesized classes  : {:?}", report.classes);
    println!(
        "modeled frag         : {} B vs paper {} B (ratio {:.3})",
        report.modeled_frag_bytes, report.modeled_frag_bytes_paper, report.predicted_frag_ratio
    );
    println!(
        "WRAM bitmap/tasklet  : {} B vs paper {} B",
        report.wram_bytes_per_tasklet, report.wram_bytes_per_tasklet_paper
    );

    // 4. Replay: same trace, paper vs synthesized geometry.
    let paper = SizeClassTable::paper_default();
    let (frag_paper, finish_paper) = replay_under(&trace, &paper);
    let (frag_tuned, finish_tuned) = replay_under(&trace, &synthesis.table);
    println!("\nreplay               :    paper    tuned");
    println!("  frag A/U at peak   : {frag_paper:8.2} {frag_tuned:8.2}");
    println!("  kernel finish us   : {finish_paper:8.1} {finish_tuned:8.1}");
    println!(
        "  WRAM bitmaps B     : {:8} {:8}",
        wram_bitmap_bytes(&paper),
        wram_bitmap_bytes(&synthesis.table)
    );
    assert!(
        frag_tuned <= frag_paper,
        "synthesized geometry must not worsen measured fragmentation"
    );
    Ok(())
}
