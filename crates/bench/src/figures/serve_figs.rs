//! Serving-frontend experiment: SLO tail latencies and the saturation
//! knee of the open-loop fleet (an extension beyond the paper's
//! kernel-time figures).
//!
//! Two tables in one experiment:
//!
//! * one row per arrival shape (Poisson / bursty / diurnal) at 60% of
//!   the calibrated fleet capacity — p50/p95/p99/p99.9 simulated
//!   latency, drop fraction, achieved throughput, peak in-flight;
//! * a knee-finding load ladder under Poisson arrivals — offered vs
//!   achieved vs p99 per point, closed by a `saturation` row with the
//!   calibrated capacity, the knee, and the saturation throughput.
//!
//! Each serve run is single-threaded and seeded; the shape rows and
//! ladder points fan out over [`parallel_indexed`] and merge in index
//! order, so the whole experiment is byte-identical for any
//! `PIM_EXEC_WORKERS`.

use pim_malloc::PimAllocator;
use pim_serving::{estimated_capacity_rps, saturation_sweep, serve, ArrivalProcess, ServeConfig};
use pim_sim::{parallel_indexed, DpuSim};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

/// Fraction of calibrated capacity the arrival-shape rows offer.
const SHAPE_LOAD: f64 = 0.6;

/// The fleet's allocator: PIM-malloc-SW on every DPU. The `chaos`
/// experiment serves the same fleet.
pub(super) fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

/// The fleet: 64 DPUs and 4,000 requests in quick mode, else the
/// paper-scale default.
pub(super) fn scaled(quick: bool, seed: u64) -> ServeConfig {
    let ctx = pim_sim::SimContext::default().with_seed(seed);
    if quick {
        ServeConfig {
            n_dpus: 64,
            n_requests: 4_000,
            ctx,
            ..ServeConfig::default()
        }
    } else {
        // The paper-scale fleet: 2560 DPUs × 10^6 requests.
        ServeConfig {
            ctx,
            ..ServeConfig::default()
        }
    }
}

fn report_row(label: impl Into<String>, r: &pim_serving::ServeReport) -> Row {
    Row::new(
        label.into(),
        vec![
            ("offered krps", r.offered_rps / 1e3),
            ("achieved krps", r.achieved_rps / 1e3),
            ("p50 ms", r.p50_ms()),
            ("p95 ms", r.p95_ms()),
            ("p99 ms", r.p99_ms()),
            ("p99.9 ms", r.p999_ms()),
            ("drop frac", r.drop_frac()),
            ("peak in-flight", r.peak_in_flight as f64),
        ],
    )
}

/// The `serve` experiment (see the module docs).
pub fn serve_frontend(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "serve",
        "open-loop serving: tail latency per arrival shape + saturation knee",
        "clean service at 60% load for every shape; \
         bursty tails widest; knee below the calibrated capacity",
    );
    let base = scaled(quick, seed);
    let classes = standard_mix();
    let capacity = estimated_capacity_rps(&classes, &build, base.n_dpus);

    // One row per arrival shape at 60% of capacity, fanned out like
    // every other figure sweep.
    let rate = SHAPE_LOAD * capacity;
    let shapes = [
        ArrivalProcess::Poisson { rps: rate },
        ArrivalProcess::Bursty {
            rps: rate,
            burst: 32,
        },
        ArrivalProcess::Diurnal {
            rps: rate,
            period_secs: 0.02,
            depth: 0.8,
        },
    ];
    let runs = parallel_indexed(shapes.len(), |i| {
        serve(&base.with_arrival(shapes[i]), &classes, &build)
    });
    for (shape, r) in shapes.iter().zip(&runs) {
        e.push(report_row(shape.label(), r));
    }

    // Knee-finding ladder under Poisson arrivals.
    let loads: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
    };
    let sweep = saturation_sweep(
        &base.with_arrival(ArrivalProcess::Poisson { rps: rate }),
        &classes,
        &build,
        loads,
    );
    for p in &sweep.points {
        e.push(report_row(format!("load x{:.2}", p.load), &p.report));
    }
    e.push(Row::new(
        "saturation",
        vec![
            ("capacity krps", sweep.capacity_rps / 1e3),
            ("knee krps", sweep.knee_rps / 1e3),
            ("saturation krps", sweep.saturation_rps / 1e3),
        ],
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_serve_cleanly_at_sixty_percent_load() {
        let e = serve_frontend(true, 42);
        for shape in ["poisson", "bursty", "diurnal"] {
            let r = e.row(shape).unwrap();
            assert!(
                r.value("drop frac").unwrap() < 0.01,
                "{shape} drops at 60% load"
            );
            assert!(r.value("p50 ms").unwrap() <= r.value("p99 ms").unwrap());
            assert!(r.value("p99 ms").unwrap() <= r.value("p99.9 ms").unwrap());
            assert!(
                r.value("p99 ms").unwrap() < 100.0,
                "{shape} p99 over 100 ms"
            );
        }
    }

    #[test]
    fn ladder_saturates_and_knee_is_sane() {
        let e = serve_frontend(true, 42);
        let sat = e.row("saturation").unwrap();
        let capacity = sat.value("capacity krps").unwrap();
        let knee = sat.value("knee krps").unwrap();
        assert!(capacity > 0.0);
        assert!(knee > 0.0, "the light rungs must serve cleanly");
        assert!(knee <= 2.0 * capacity, "knee beyond the swept range");
        assert!(sat.value("saturation krps").unwrap() > 1.0);
        // The overloaded top rung must shed or fall behind.
        let top = e.row("load x2.00").unwrap();
        assert!(
            top.value("drop frac").unwrap() > 0.01
                || top.value("achieved krps").unwrap() < 0.95 * top.value("offered krps").unwrap()
        );
    }

    #[test]
    fn experiment_is_seed_deterministic() {
        let a = serve_frontend(true, 7);
        let b = serve_frontend(true, 7);
        assert_eq!(a.to_json(), b.to_json());
    }
}
