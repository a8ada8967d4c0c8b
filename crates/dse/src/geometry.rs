//! Design-space exploration over size-class synthesis objectives.
//!
//! The `pim-profile` synthesizer collapses a whole geometry decision
//! into one [`SynthesisObjective`] — but the objective's weights are
//! themselves a design space: how dearly should scarce WRAM be priced
//! against MRAM fragmentation? This module sweeps a ladder of
//! objectives over one [`AllocProfile`] and reports the Pareto-style
//! frontier of (modeled fragmentation, WRAM footprint) points, fanned
//! across host threads exactly like the Figure 6 strategy sweep.

use pim_profile::{synthesize_table, AllocProfile, SynthesisError, SynthesisObjective};
use serde::{Deserialize, Serialize};

/// Configuration of an objective-weight sweep.
#[derive(Debug, Clone)]
pub struct GeometrySweepConfig {
    /// The objectives to synthesize under, one grid point each.
    pub objectives: Vec<SynthesisObjective>,
}

impl Default for GeometrySweepConfig {
    /// A WRAM-weight ladder from "WRAM is free" to "WRAM is 256x
    /// dearer than fragmentation bytes", default constraints.
    fn default() -> Self {
        GeometrySweepConfig {
            objectives: [0.0, 1.0, 4.0, 16.0, 64.0, 256.0]
                .iter()
                .map(|&wram_weight| SynthesisObjective {
                    wram_weight,
                    ..SynthesisObjective::default()
                })
                .collect(),
        }
    }
}

/// One grid point of a geometry sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeometryPoint {
    /// The objective's fragmentation weight.
    pub frag_weight: f64,
    /// The objective's WRAM weight.
    pub wram_weight: f64,
    /// Synthesized classes, ascending.
    pub classes: Vec<u32>,
    /// Modeled fragmentation of the synthesized table, bytes.
    pub modeled_frag_bytes: u64,
    /// Per-tasklet WRAM bitmap footprint, bytes.
    pub wram_bytes_per_tasklet: u32,
    /// Modeled fragmentation relative to the paper geometry.
    pub predicted_frag_ratio: f64,
}

/// Synthesizes a table per objective in `config`, fanned over
/// [`pim_sim::parallel_indexed`]. Results are deterministic: grid order
/// is preserved for any worker count.
pub fn sweep_objectives(
    profile: &AllocProfile,
    config: &GeometrySweepConfig,
) -> Vec<Result<GeometryPoint, SynthesisError>> {
    pim_sim::parallel_indexed(config.objectives.len(), |i| {
        let objective = config.objectives[i];
        synthesize_table(profile, &objective).map(|s| GeometryPoint {
            frag_weight: objective.frag_weight,
            wram_weight: objective.wram_weight,
            classes: s.report.classes,
            modeled_frag_bytes: s.report.modeled_frag_bytes,
            wram_bytes_per_tasklet: s.report.wram_bytes_per_tasklet,
            predicted_frag_ratio: s.report.predicted_frag_ratio,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AllocProfile {
        let mut p = AllocProfile::new("sweep", 16);
        for (size, count) in [(24u32, 400u64), (136, 300), (700, 200), (2000, 100)] {
            for _ in 0..count {
                p.histogram.record(size);
            }
            p.mallocs += count;
        }
        p
    }

    #[test]
    fn ladder_trades_wram_for_fragmentation() {
        let p = profile();
        let points = sweep_objectives(&p, &GeometrySweepConfig::default());
        assert_eq!(points.len(), 6);
        let ok: Vec<&GeometryPoint> = points.iter().map(|r| r.as_ref().unwrap()).collect();
        // Monotone along the ladder: pricier WRAM never buys more
        // bitmap bytes, cheaper WRAM never models worse fragmentation.
        for w in ok.windows(2) {
            assert!(w[1].wram_bytes_per_tasklet <= w[0].wram_bytes_per_tasklet);
            assert!(w[1].modeled_frag_bytes >= w[0].modeled_frag_bytes);
        }
    }

    #[test]
    fn sweep_points_match_direct_synthesis() {
        let p = profile();
        let config = GeometrySweepConfig::default();
        let points = sweep_objectives(&p, &config);
        for (point, objective) in points.iter().zip(&config.objectives) {
            let direct = synthesize_table(&p, objective).expect("synthesizes");
            assert_eq!(
                point.as_ref().expect("synthesizes").classes,
                direct.report.classes
            );
        }
    }
}
