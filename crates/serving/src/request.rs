//! Request classes: what one admitted request *does* on its DPU.
//!
//! A [`RequestClass`] carries an [`AllocTrace`] fragment — the same
//! format the trace subsystem records and replays — so the replay
//! determinism contract extends to serving: the per-request service
//! time is *calibrated* by replaying the fragment once on a fresh
//! [`DpuSim`] under the allocator being served, then the event loop
//! charges that time analytically per request. Payload bytes ride the
//! host→PIM dispatch window and are priced by the shared transfer
//! planner.

use pim_malloc::PimAllocator;
use pim_sim::{CostModel, DpuConfig, DpuSim};
use pim_trace::{replay, AllocTrace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a fresh allocator for a calibration DPU: `(dpu, n_tasklets,
/// heap_size) -> allocator`. The same signature as
/// `pim_workloads::AllocatorKind::build`, without depending on it.
pub type BuildAllocator<'a> = &'a (dyn Fn(&mut DpuSim, usize, u32) -> Box<dyn PimAllocator> + Sync);

/// One class of allocation-bearing request in the open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestClass {
    /// Class name, used in reports.
    pub name: String,
    /// The allocation work one request performs on its DPU.
    pub trace: AllocTrace,
    /// Host→PIM bytes each request contributes to its dispatch window.
    pub payload_bytes: u64,
    /// Relative mixing weight in the request stream (need not sum
    /// to 1 across classes).
    pub weight: f64,
}

impl RequestClass {
    /// A class from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the fragment is invalid or the weight is not
    /// strictly positive.
    pub fn new(
        name: impl Into<String>,
        trace: AllocTrace,
        payload_bytes: u64,
        weight: f64,
    ) -> Self {
        trace.validate().expect("request fragments must be valid");
        assert!(weight > 0.0, "class weight must be positive");
        RequestClass {
            name: name.into(),
            trace,
            payload_bytes,
            weight,
        }
    }

    /// Calibrated service time of one request, in nanoseconds: the
    /// fragment replayed on a fresh default-config DPU under `build`'s
    /// allocator, finish time converted at the cost model's clock.
    /// Deterministic — replay is.
    ///
    /// # Panics
    ///
    /// Panics if the fragment needs more tasklets than a default DPU
    /// has, or the allocator fails to initialise.
    pub fn service_ns(&self, build: BuildAllocator) -> u64 {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(self.trace.n_tasklets));
        let mut alloc = build(&mut dpu, self.trace.n_tasklets, self.trace.heap_size);
        let r = replay(&mut dpu, alloc.as_mut(), &self.trace);
        let ns = r.finish.as_micros(CostModel::default().clock_mhz) * 1e3;
        (ns.round() as u64).max(1)
    }
}

/// The class of each request in stream order, drawn by seeded weighted
/// sampling: the stream's *composition* is part of the seed contract.
pub(crate) struct ClassPicks<'a> {
    classes: &'a [RequestClass],
    /// Sum of the class weights.
    total: f64,
    rng: StdRng,
}

impl<'a> ClassPicks<'a> {
    /// The picks for seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty.
    pub(crate) fn new(classes: &'a [RequestClass], seed: u64) -> Self {
        assert!(!classes.is_empty(), "serving needs at least one class");
        ClassPicks {
            classes,
            total: classes.iter().map(|c| c.weight).sum(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next request's class index.
    pub(crate) fn pick(&mut self) -> u32 {
        let mut u = self.rng.gen_range(0.0..1.0) * self.total;
        for (i, c) in self.classes.iter().enumerate() {
            if u < c.weight || i + 1 == self.classes.len() {
                return i as u32;
            }
            u -= c.weight;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::{synthesize, SizeLaw, SynthConfig, TemporalShape};

    fn class(weight: f64) -> RequestClass {
        let trace = synthesize(&SynthConfig {
            n_tasklets: 4,
            mallocs_per_tasklet: 8,
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 100 },
            heap_size: 1 << 20,
            ..SynthConfig::default()
        });
        RequestClass::new("t", trace, 4096, weight)
    }

    fn sw_build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
        let cfg = pim_malloc::AllocGeometry::sw(tasklets)
            .with_heap_size(heap)
            .build();
        Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
    }

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let c = class(1.0);
        let a = c.service_ns(&sw_build);
        let b = c.service_ns(&sw_build);
        assert_eq!(a, b);
        assert!(a > 0);
    }

    /// The generator [`ClassPicks`] replaced: all `n` picks up front.
    fn assign_classes(classes: &[RequestClass], seed: u64, n: usize) -> Vec<u32> {
        let total: f64 = classes.iter().map(|c| c.weight).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut u = rng.gen_range(0.0..1.0) * total;
                for (i, c) in classes.iter().enumerate() {
                    if u < c.weight || i + 1 == classes.len() {
                        return i as u32;
                    }
                    u -= c.weight;
                }
                0
            })
            .collect()
    }

    fn picks(classes: &[RequestClass], seed: u64, n: usize) -> Vec<u32> {
        let mut p = ClassPicks::new(classes, seed);
        (0..n).map(|_| p.pick()).collect()
    }

    #[test]
    fn class_assignment_follows_weights() {
        let classes = vec![class(3.0), class(1.0)];
        let picks = picks(&classes, 9, 40_000);
        let heavy = picks.iter().filter(|&&c| c == 0).count() as f64 / picks.len() as f64;
        assert!((heavy - 0.75).abs() < 0.03, "3:1 weights -> ~75%: {heavy}");
    }

    #[test]
    fn class_picks_match_the_up_front_assignment() {
        // Weights whose running differences round, and one class alone.
        let mixes = [
            vec![class(3.0), class(1.0)],
            vec![class(0.1), class(0.7), class(0.2), class(1e-3)],
            vec![class(2.5)],
        ];
        for classes in &mixes {
            for seed in [0, 9, u64::MAX] {
                assert_eq!(
                    picks(classes, seed, 10_000),
                    assign_classes(classes, seed, 10_000),
                    "{} classes, seed {seed}",
                    classes.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        class(0.0);
    }
}
