//! The profile-guided geometry-tuning experiment (extension beyond
//! the paper): closes the profile → synthesize → replay loop.
//!
//! For every synthetic scenario family, the experiment takes the
//! trace's request-size histogram as its profile, synthesizes a
//! custom size-class table from it, and replays the same trace under
//! both the paper's fixed power-of-two geometry and the synthesized
//! one — reporting *measured* fragmentation (peak reserved over peak
//! requested bytes), churn throughput, and WRAM bitmap footprint next
//! to the synthesizer's *modeled* predictions. Every DPU runs the
//! same trace (SPMD), so each (trace, geometry) pair replays once.

use pim_malloc::{AllocGeometry, PimMalloc, SizeClassTable};
use pim_profile::{synthesize_table, AllocProfile, Synthesis};
use pim_sim::{CostModel, DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, AllocTrace};

use crate::figures::scenario_families;
use crate::report::{Experiment, Row};

/// Builds the paper-geometry or tuned-geometry allocator for `trace`.
fn build_alloc(dpu: &mut DpuSim, trace: &AllocTrace, table: &SizeClassTable) -> PimMalloc {
    let geom = AllocGeometry::sw(trace.n_tasklets)
        .with_heap_size(trace.heap_size)
        .with_size_classes(table.clone());
    PimMalloc::init(dpu, geom.build()).expect("geometry fits the trace heap")
}

/// What one (trace, geometry) replay measures.
pub struct Measured {
    /// Peak reserved bytes over peak requested bytes; the two peaks
    /// need not fall at the same moment.
    pub frag_peak_ratio: f64,
    /// The trace's mallocs per second of simulated kernel time.
    pub churn_ops_per_sec: f64,
    /// Mean `pim_malloc` latency, microseconds.
    pub mean_us: f64,
    /// Out-of-memory events.
    pub oom: u64,
}

/// Replays `trace` once on a fresh DPU under `table`.
fn measure(trace: &AllocTrace, table: &SizeClassTable) -> Measured {
    let mhz = CostModel::default().clock_mhz;
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut alloc = build_alloc(&mut dpu, trace, table);
    let r = replay(&mut dpu, &mut alloc, trace);
    Measured {
        frag_peak_ratio: alloc.frag().peak_ratio(),
        churn_ops_per_sec: trace.malloc_count() as f64 / r.finish.as_secs(mhz),
        mean_us: r.malloc_latencies.mean().as_micros(mhz),
        oom: r.oom_count,
    }
}

/// Per-family synthesis outcome the experiment reports.
pub struct TunedFamily {
    /// Scenario name (`fixed64/steady`, …).
    pub name: String,
    /// The synthesized table and its modeled report.
    pub synthesis: Synthesis,
    /// Replay measurements under the paper geometry.
    pub paper: Measured,
    /// Replay measurements under the synthesized geometry.
    pub tuned: Measured,
}

impl TunedFamily {
    /// Measured fragmentation ratio, tuned over paper.
    pub fn frag_ratio(&self) -> f64 {
        self.tuned.frag_peak_ratio / self.paper.frag_peak_ratio
    }

    /// Measured churn-throughput ratio, tuned over paper.
    pub fn churn_ratio(&self) -> f64 {
        self.tuned.churn_ops_per_sec / self.paper.churn_ops_per_sec
    }
}

/// Profiles, synthesizes, and replays every scenario family.
pub fn tune_families(quick: bool, seed: u64) -> Vec<TunedFamily> {
    let paper = SizeClassTable::paper_default();
    scenario_families(quick, seed)
        .iter()
        .map(|family| {
            let trace = synthesize(family);
            let profile = AllocProfile::from_trace(&trace);
            let synthesis = synthesize_table(&profile)
                .expect("every scenario family allocates cacheable sizes");
            TunedFamily {
                name: trace.name.clone(),
                paper: measure(&trace, &paper),
                tuned: measure(&trace, &synthesis.table),
                synthesis,
            }
        })
        .collect()
}

/// The `tune` experiment: paper vs synthesized geometry per family.
pub fn geometry_tune(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "tune",
        "profile-guided geometry: synthesized vs paper size classes per scenario family",
        "extension; internal-fragmentation model per Table III (A/U, Hoard-style)",
    );
    let paper_table = SizeClassTable::paper_default();
    for fam in tune_families(quick, seed) {
        let report = &fam.synthesis.report;
        e.push(Row::new(
            format!("{} @ paper", fam.name),
            vec![
                ("classes", paper_table.len() as f64),
                ("frag A/U", fam.paper.frag_peak_ratio),
                ("churn Mops/s", fam.paper.churn_ops_per_sec / 1e6),
                ("mean us", fam.paper.mean_us),
                ("wram B", f64::from(report.wram_bytes_per_tasklet_paper)),
                ("oom", fam.paper.oom as f64),
            ],
        ));
        e.push(Row::new(
            format!("{} @ tuned", fam.name),
            vec![
                ("classes", report.classes.len() as f64),
                ("frag A/U", fam.tuned.frag_peak_ratio),
                ("churn Mops/s", fam.tuned.churn_ops_per_sec / 1e6),
                ("mean us", fam.tuned.mean_us),
                ("wram B", f64::from(report.wram_bytes_per_tasklet)),
                ("oom", fam.tuned.oom as f64),
            ],
        ));
        e.push(Row::new(
            format!("{} delta", fam.name),
            vec![
                ("frag ratio", fam.frag_ratio()),
                ("churn ratio", fam.churn_ratio()),
                ("wram ratio", report.predicted_wram_ratio),
                ("modeled frag ratio", report.predicted_frag_ratio),
                ("bypass", report.bypass_requests as f64),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::TRACE_DEFAULT_SEED;

    #[test]
    fn synthesized_geometry_beats_paper_on_most_families() {
        let fams = tune_families(true, TRACE_DEFAULT_SEED);
        assert_eq!(fams.len(), 5);
        let modeled_wins = fams
            .iter()
            .filter(|f| f.synthesis.report.predicted_frag_ratio < 1.0)
            .count();
        assert!(
            modeled_wins >= 3,
            "synthesized geometry must beat paper modeled fragmentation on >= 3 of 5 families, won {modeled_wins}"
        );
        for f in &fams {
            assert!(
                f.frag_ratio() <= 1.0,
                "{}: measured frag regressed ({} vs {})",
                f.name,
                f.tuned.frag_peak_ratio,
                f.paper.frag_peak_ratio
            );
            assert!(
                f.churn_ratio() >= 0.95,
                "{}: churn throughput fell by more than 5% (ratio {})",
                f.name,
                f.churn_ratio()
            );
            let wram_ratio = f.synthesis.report.predicted_wram_ratio;
            assert!(
                wram_ratio <= 1.0,
                "{}: bitmap WRAM grew (ratio {wram_ratio})",
                f.name
            );
            assert_eq!(f.paper.oom + f.tuned.oom, 0, "{}: replay hit OOM", f.name);
        }
    }

    #[test]
    fn experiment_rows_cover_every_family_and_the_loop_checks() {
        let e = geometry_tune(true, TRACE_DEFAULT_SEED);
        for family in scenario_families(true, TRACE_DEFAULT_SEED) {
            let name = family.scenario_name();
            for suffix in ["paper", "tuned"] {
                let label = format!("{name} @ {suffix}");
                let row = e.row(&label).unwrap_or_else(|| panic!("missing {label}"));
                assert!(row.value("frag A/U").unwrap() >= 1.0, "{label}");
                assert!(row.value("churn Mops/s").unwrap() > 0.0, "{label}");
            }
            assert!(e.row(&format!("{name} delta")).is_some());
        }
    }

    #[test]
    fn tune_is_deterministic() {
        let a = geometry_tune(true, TRACE_DEFAULT_SEED).to_json();
        let b = geometry_tune(true, TRACE_DEFAULT_SEED).to_json();
        assert_eq!(a, b);
    }
}
