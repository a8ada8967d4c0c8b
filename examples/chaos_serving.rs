//! Chaos serving: run the open-loop frontend over a faulty fleet and
//! watch it self-heal.
//!
//! A `FaultPlan` marks DPUs dead on arrival, kills more mid-run, and
//! fails or straggles transfer shards; the frontend routes around the
//! dead, retries failed shards with backoff, and re-dispatches
//! stranded requests. The run is fully seeded — same plan, same fault
//! trace, byte for byte.
//!
//! Run with: `cargo run --release --example chaos_serving`

use pim_malloc_repro::{serve, ArrivalProcess, FaultPlan, RequestClass, ServeConfig};
use pim_trace::{synthesize, SizeLaw, SynthConfig, TemporalShape};

fn main() {
    let class = RequestClass::new(
        "micro",
        synthesize(&SynthConfig {
            n_tasklets: 4,
            mallocs_per_tasklet: 8,
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 100 },
            heap_size: 1 << 20,
            ..SynthConfig::default()
        }),
        2048,
        1.0,
    );
    let build = |dpu: &mut pim_sim::DpuSim,
                 tasklets: usize,
                 heap: u32|
     -> Box<dyn pim_malloc::PimAllocator> {
        let cfg = pim_malloc::AllocGeometry::sw(tasklets)
            .with_heap_size(heap)
            .build();
        Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
    };
    let base = ServeConfig {
        n_dpus: 64,
        n_requests: 20_000,
        // ~60% of this fleet's calibrated capacity: the fault-free
        // leg serves cleanly, so the chaos leg's damage is visible.
        arrival: ArrivalProcess::Poisson { rps: 13_000.0 },
        ..ServeConfig::default()
    };

    let classes = [class];
    let clean = serve(&base, &classes, &build);
    let chaotic = serve(
        &ServeConfig {
            faults: FaultPlan::chaos(7),
            ..base
        },
        &classes,
        &build,
    );

    println!(
        "fleet of {} DPUs, {} requests",
        base.n_dpus, base.n_requests
    );
    for (name, r) in [("fault-free", &clean), ("chaos", &chaotic)] {
        println!(
            "{name:>10}: {} completed, {} dropped, p99 {:.2} ms, {} healthy at end",
            r.admitted,
            r.dropped,
            r.p99_ms(),
            r.faults.healthy_final
        );
    }
    let f = &chaotic.faults;
    println!(
        "self-healing: {} DoA + {} killed; {} retries, {} re-dispatched, \
         {} failed / {} straggled shards, {} fault drops",
        f.doa_dpus,
        f.killed_dpus,
        f.retries,
        f.redispatched,
        f.xfer_failed_shards,
        f.xfer_straggled_shards,
        f.fault_drops()
    );
    let goodput =
        |r: &pim_malloc_repro::ServeReport| r.admitted as f64 / (r.admitted + r.dropped) as f64;
    println!(
        "goodput ratio vs fault-free: {:.4}",
        goodput(&chaotic) / goodput(&clean)
    );
}
