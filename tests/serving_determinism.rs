//! End-to-end serving-frontend contract: the open-loop report — tail
//! percentiles, drops, queue timeline, saturation knee — must be
//! byte-identical between the parallel sweep and direct serial runs
//! (and, via the CI matrix, every `PIM_EXEC_WORKERS` setting), and its
//! SLO metrics must behave like a queueing system: ordered
//! percentiles, drop-free light load, load shedding past saturation.

use pim_malloc::PimAllocator;
use pim_serving::{saturation_sweep, serve, ArrivalProcess, RequestClass, ServeConfig};
use pim_sim::{DpuSim, FaultPlan, SimContext};
use pim_trace::{synthesize, SizeLaw, SynthConfig, TemporalShape};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn base() -> ServeConfig {
    ServeConfig {
        n_dpus: 128,
        n_requests: 10_000,
        arrival: ArrivalProcess::Bursty {
            rps: 1.0, // rescaled per sweep point
            burst: 16,
        },
        // Tight enough that a 10k-request stream can overflow it: the
        // default 64-deep queues would buffer the whole test stream.
        queue_cap: 16,
        ..ServeConfig::default()
    }
}

#[test]
fn sweep_is_engine_invariant() {
    // The knee-finding sweep fans serve runs over the parallel engine;
    // every point must reproduce a direct serial serve run exactly
    // (ServeReport derives PartialEq — f64 equality, not tolerance).
    let classes = standard_mix();
    let sweep = saturation_sweep(&base(), &classes, &build, &[0.5, 1.0, 2.0]);
    for p in &sweep.points {
        let rps = p.load * sweep.capacity_rps;
        let cfg = base().with_arrival(base().arrival.with_rps(rps));
        assert_eq!(p.report, serve(&cfg, &classes, &build), "load {}", p.load);
    }
    assert!(sweep.knee_rps > 0.0);
    assert!(sweep.saturation_rps > 0.0);
}

#[test]
fn slo_metrics_behave_like_a_queue() {
    let classes = standard_mix();
    let sweep = saturation_sweep(&base(), &classes, &build, &[0.4, 3.0]);
    let light = &sweep.points[0].report;
    let heavy = &sweep.points[1].report;

    // Percentile ordering on a real report.
    for r in [light, heavy] {
        assert!(r.latency.p50 <= r.latency.p95);
        assert!(r.latency.p95 <= r.latency.p99);
        assert!(r.latency.p99 <= r.latency.p999);
        assert!(r.latency.p999 <= r.latency.max);
        assert_eq!(r.admitted + r.dropped, 10_000);
        assert_eq!(r.latency.count, r.admitted);
        assert!(!r.queue_depth.is_empty());
    }

    // Light load serves everything; 3x capacity sheds and saturates.
    assert_eq!(light.dropped, 0, "0.4x capacity must not shed");
    assert!(heavy.drop_frac() > 0.05, "3x capacity must shed");
    assert!(
        heavy.p99_ms() > light.p99_ms(),
        "overload inflates the tail"
    );
    assert!(
        heavy.achieved_rps < 0.95 * heavy.offered_rps,
        "achieved must fall behind offered past saturation"
    );
    assert!(heavy.peak_in_flight > light.peak_in_flight);
}

#[test]
fn arrival_shapes_share_the_mean_but_not_the_tail() {
    // Same mean rate, same fleet: burstier shapes queue deeper. The
    // mean-throughput story stays within a few percent across shapes.
    let classes = standard_mix();
    let cap = pim_serving::estimated_capacity_rps(&classes, &build, 128);
    let rate = 0.6 * cap;
    let run = |arrival| serve(&base().with_arrival(arrival), &classes, &build);
    let poisson = run(ArrivalProcess::Poisson { rps: rate });
    let bursty = run(ArrivalProcess::Bursty {
        rps: rate,
        burst: 64,
    });
    assert_eq!(poisson.dropped, 0);
    assert_eq!(bursty.dropped, 0);
    assert!(
        (poisson.achieved_rps - bursty.achieved_rps).abs() < 0.1 * rate,
        "same mean load: {} vs {}",
        poisson.achieved_rps,
        bursty.achieved_rps
    );
    assert!(
        bursty.peak_in_flight > poisson.peak_in_flight,
        "64-deep bursts must queue deeper than Poisson: {} vs {}",
        bursty.peak_in_flight,
        poisson.peak_in_flight
    );
}

#[test]
fn an_arrival_tied_with_a_flush_misses_it() {
    // With 1 µs dispatch windows, an arrival now and then lands on the
    // exact nanosecond of the flush its predecessor scheduled. The flush
    // was scheduled first, so it goes first and the arrival waits for a
    // later window; handled the other way round, the arrival would ship
    // with that flush and the run would make one push fewer. The count
    // was pinned while every arrival still went through the event
    // queue, before `serve` held the next arrival beside it.
    let classes = standard_mix();
    let cap = pim_serving::estimated_capacity_rps(&classes, &build, 16);
    let cfg = ServeConfig {
        n_dpus: 16,
        n_requests: 50_000,
        arrival: ArrivalProcess::Poisson { rps: 0.9 * cap },
        queue_cap: 16,
        window_us: 1,
        ctx: SimContext::default().with_seed(1),
        ..ServeConfig::default()
    };
    assert_eq!(serve(&cfg, &classes, &build).push_calls, 49_889);
}

#[test]
fn a_kill_tied_with_a_flush_goes_first() {
    // Every DPU of a 4-DPU fleet dies within 2 ms, and with 1 µs windows
    // one kill lands on the exact nanosecond of a pending flush. The
    // kills were scheduled before the loop started, so the kill goes
    // first and moves the dying DPU's staged requests before the flush
    // ships the window; handled the other way round, the run makes 10
    // pushes.
    let trace = synthesize(&SynthConfig {
        n_tasklets: 4,
        mallocs_per_tasklet: 8,
        size_law: SizeLaw::Fixed(64),
        shape: TemporalShape::Steady { compute: 100 },
        heap_size: 1 << 20,
        ..SynthConfig::default()
    });
    let classes = [RequestClass::new("small", trace, 2048, 1.0)];
    let cap = pim_serving::estimated_capacity_rps(&classes, &build, 4);
    let cfg = ServeConfig {
        n_dpus: 4,
        n_requests: 2_000,
        arrival: ArrivalProcess::Poisson { rps: 2.0 * cap },
        queue_cap: 16,
        window_us: 1,
        ctx: SimContext::default().with_seed(1),
        faults: FaultPlan {
            seed: 31819,
            kill_frac: 1.0,
            kill_horizon_ns: 2_000_000,
            ..FaultPlan::none()
        },
        ..ServeConfig::default()
    };
    assert_eq!(serve(&cfg, &classes, &build).push_calls, 9);
}
