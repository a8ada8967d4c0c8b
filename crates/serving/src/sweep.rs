//! Knee-finding saturation sweep over offered load.
//!
//! [`saturation_sweep`] re-runs the open-loop frontend at a ladder of
//! load multipliers relative to the fleet's calibrated capacity and
//! finds the *knee*: the highest offered load the fleet still serves
//! without shedding (≤1% drops) while achieving ≥95% of what was
//! offered. Sweep points are independent serve runs fanned over
//! [`pim_sim::parallel_indexed`]; results merge in index order, so the
//! report is byte-identical for any worker count.
//!
//! Sweeping a config whose [`ServeConfig::faults`] holds a
//! [`pim_sim::FaultPlan`] measures the *degraded* fleet:
//! fault-attributed drops count against the knee exactly like
//! admission drops (both live in [`ServeReport::drop_frac`]), so the
//! knee under faults is the honest capacity of the surviving DPUs.

use pim_sim::parallel_indexed;

use crate::frontend::{serve, ServeConfig, ServeReport};
use crate::request::{BuildAllocator, RequestClass};

/// Drop fraction above which a sweep point no longer counts as
/// "serving the offered load".
const KNEE_DROP_FRAC: f64 = 0.01;
/// Minimum achieved/offered ratio for a point to sit below the knee.
const KNEE_GOODPUT_FRAC: f64 = 0.95;

/// One offered-load point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load as a multiple of the calibrated capacity.
    pub load: f64,
    /// The full serve report at this load.
    pub report: ServeReport,
}

/// Outcome of a saturation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationReport {
    /// Calibrated fleet capacity (requests/second a drop-free fleet
    /// could serve back-to-back): `n_dpus / mean service seconds`.
    pub capacity_rps: f64,
    /// Sweep points in ascending load order.
    pub points: Vec<LoadPoint>,
    /// Offered load (rps) at the knee — the highest swept point still
    /// served at ≥95% goodput with ≤1% drops; 0 if even the lightest
    /// point sheds load.
    pub knee_rps: f64,
    /// Best achieved throughput across the sweep, requests/second —
    /// the fleet's saturation throughput.
    pub saturation_rps: f64,
}

/// Calibrated capacity of `n_dpus` DPUs serving `classes` mixed by
/// weight: `n_dpus / weighted mean service seconds`. The event loop's
/// drop-free upper bound (dispatch windows and queueing push the real
/// knee below it).
///
/// # Panics
///
/// Panics if `classes` is empty (calibration replays each class).
pub fn estimated_capacity_rps(
    classes: &[RequestClass],
    build: BuildAllocator,
    n_dpus: usize,
) -> f64 {
    assert!(!classes.is_empty(), "capacity needs at least one class");
    let total_weight: f64 = classes.iter().map(|c| c.weight).sum();
    let mean_secs: f64 = classes
        .iter()
        .map(|c| c.service_ns(build) as f64 * 1e-9 * (c.weight / total_weight))
        .sum();
    n_dpus as f64 / mean_secs
}

/// Sweeps offered load over `loads` (multiples of the calibrated
/// capacity, ascending) and locates the knee. `base.arrival` supplies
/// the *shape* (Poisson/bursty/diurnal); each point rescales its mean
/// rate.
///
/// # Panics
///
/// Panics if `loads` is empty or not strictly ascending and positive.
pub fn saturation_sweep(
    base: &ServeConfig,
    classes: &[RequestClass],
    build: BuildAllocator,
    loads: &[f64],
) -> SaturationReport {
    assert!(!loads.is_empty(), "sweep needs load points");
    assert!(
        loads.windows(2).all(|w| w[0] < w[1]) && loads[0] > 0.0,
        "load multipliers must be positive and ascending"
    );
    let capacity_rps = estimated_capacity_rps(classes, build, base.n_dpus);
    let reports = parallel_indexed(loads.len(), |i| {
        let cfg = base.with_arrival(base.arrival.with_rps(loads[i] * capacity_rps));
        serve(&cfg, classes, build)
    });
    let points: Vec<LoadPoint> = loads
        .iter()
        .zip(reports)
        .map(|(&load, report)| LoadPoint { load, report })
        .collect();
    let knee_rps = points
        .iter()
        .filter(|p| {
            p.report.drop_frac() <= KNEE_DROP_FRAC
                && p.report.achieved_rps >= KNEE_GOODPUT_FRAC * p.report.offered_rps
        })
        .map(|p| p.report.offered_rps)
        .fold(0.0, f64::max);
    let saturation_rps = points
        .iter()
        .map(|p| p.report.achieved_rps)
        .fold(0.0, f64::max);
    SaturationReport {
        capacity_rps,
        points,
        knee_rps,
        saturation_rps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use pim_malloc::PimAllocator;
    use pim_sim::DpuSim;
    use pim_trace::{synthesize, SizeLaw, SynthConfig, TemporalShape};

    fn sw_build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
        let cfg = pim_malloc::AllocGeometry::sw(tasklets)
            .with_heap_size(heap)
            .build();
        Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
    }

    fn classes() -> Vec<RequestClass> {
        let trace = synthesize(&SynthConfig {
            n_tasklets: 4,
            mallocs_per_tasklet: 8,
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 100 },
            heap_size: 1 << 20,
            ..SynthConfig::default()
        });
        vec![RequestClass::new("c", trace, 2048, 1.0)]
    }

    fn base() -> ServeConfig {
        ServeConfig {
            n_dpus: 16,
            n_requests: 1_500,
            arrival: ArrivalProcess::Poisson { rps: 1.0 }, // rescaled per point
            queue_cap: 16,
            window_us: 50,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn knee_sits_between_light_and_overload() {
        let r = saturation_sweep(&base(), &classes(), &sw_build, &[0.25, 0.5, 4.0]);
        assert!(r.capacity_rps > 0.0);
        assert_eq!(r.points.len(), 3);
        // The light points serve cleanly; 4x capacity cannot.
        assert!(r.points[0].report.drop_frac() <= 0.01);
        assert!(
            r.points[2].report.drop_frac() > 0.01 || {
                r.points[2].report.achieved_rps < 0.95 * r.points[2].report.offered_rps
            }
        );
        assert!(r.knee_rps >= 0.5 * r.capacity_rps * 0.9);
        assert!(r.knee_rps < 4.0 * r.capacity_rps);
        assert!(r.saturation_rps > 0.0);
        // Tails grow monotonically toward saturation in this ladder.
        assert!(r.points[2].report.p99_ms() >= r.points[0].report.p99_ms());
    }

    #[test]
    fn sweep_points_match_direct_serve_runs() {
        let cls = classes();
        let r = saturation_sweep(&base(), &cls, &sw_build, &[0.5, 2.0]);
        for p in &r.points {
            let cfg = base().with_arrival(base().arrival.with_rps(p.load * r.capacity_rps));
            assert_eq!(p.report, serve(&cfg, &cls, &sw_build), "load {}", p.load);
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_loads_rejected() {
        saturation_sweep(&base(), &classes(), &sw_build, &[1.0, 0.5]);
    }
}
