//! The allocation-trace experiment (extension beyond the paper).
//!
//! Sweeps the synthetic scenario matrix — size laws × temporal shapes
//! from [`pim_trace::synth`] — across the headline allocator designs.
//! Every DPU of the modeled fleet runs the same trace on its own bank
//! (SPMD), so each (trace, allocator) pair replays once on a fresh DPU
//! and the host's distribution of the trace to the fleet is priced on
//! its own. A final row verifies the record/replay contract end to
//! end: a trace recorded from the micro-benchmark replays against a
//! fresh allocator of the same kind to byte-identical latency results.

use pim_sim::{CostModel, DpuConfig, DpuSim, SimContext, TransferDirection, TransferPlan};
use pim_trace::{
    replay, synthesize, AllocTrace, ReplayResult, SizeLaw, SynthConfig, TemporalShape,
};
use pim_workloads::micro::{run_micro_recorded, MicroConfig};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

/// Default seed of the `trace` experiment (overridable via
/// `repro --seed`).
pub const TRACE_DEFAULT_SEED: u64 = 0xA110C;

/// The allocator designs the sweep replays every scenario against.
const KINDS: [AllocatorKind; 3] = [
    AllocatorKind::StrawMan,
    AllocatorKind::Sw,
    AllocatorKind::HwSw,
];

/// The synthetic scenario families of the sweep: one per generator
/// shape, each paired with a different size law.
pub fn scenario_families(quick: bool, seed: u64) -> Vec<SynthConfig> {
    let base = SynthConfig {
        n_tasklets: 16,
        mallocs_per_tasklet: if quick { 96 } else { 384 },
        live_window: 32,
        heap_size: 32 << 20,
        seed,
        ..SynthConfig::default()
    };
    vec![
        SynthConfig {
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 200 },
            ..base
        },
        SynthConfig {
            size_law: SizeLaw::Uniform { min: 16, max: 4096 },
            shape: TemporalShape::Bursty {
                burst: 16,
                gap: 20_000,
            },
            ..base
        },
        SynthConfig {
            size_law: SizeLaw::Zipf {
                min: 16,
                max: 4096,
                exponent: 1.1,
            },
            shape: TemporalShape::Ramp { start_gap: 10_000 },
            ..base
        },
        SynthConfig {
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
            ..base
        },
        SynthConfig {
            size_law: SizeLaw::Fixed(512),
            shape: TemporalShape::ProducerConsumer { compute: 500 },
            ..base
        },
    ]
}

/// Replays `trace` once on a fresh DPU with a fresh `kind` allocator.
fn replay_once(trace: &AllocTrace, kind: AllocatorKind) -> ReplayResult {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut alloc = kind.build(&mut dpu, trace.n_tasklets, trace.heap_size);
    replay(&mut dpu, alloc.as_mut(), trace)
}

/// The `trace` experiment: generators × allocators, plus the
/// record/replay fidelity check.
pub fn trace_replay(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "trace",
        "trace replay: synthetic scenario families x allocators",
        "extension; workload-diversity motivation per PrIM (Gomez-Luna et al.)",
    );
    let mhz = CostModel::default().clock_mhz;
    // The fleet the host pushes every trace to.
    let n_dpus = if quick { 4 } else { 16 };
    for family in scenario_families(quick, seed) {
        let trace = synthesize(&family);
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, n_dpus, trace.wire_bytes());
        let distribution = SimContext::default().planner().estimate(&plan);
        for kind in KINDS {
            let r = replay_once(&trace, kind);
            e.push(Row::new(
                format!("{} @ {}", trace.name, kind.label()),
                vec![
                    ("mean us", r.malloc_latencies.mean().as_micros(mhz)),
                    ("p95 us", r.malloc_latencies.percentile(0.95).as_micros(mhz)),
                    ("finish ms", r.finish.as_millis(mhz)),
                    ("oom", r.oom_count as f64),
                    ("dropped frees", r.dropped_frees as f64),
                    ("dist ms", distribution.secs * 1e3),
                    ("dist calls", distribution.calls as f64),
                ],
            ));
        }
    }

    // Record/replay fidelity: a micro-benchmark run captured as a
    // trace must replay byte-identically on a fresh allocator.
    let micro_cfg = MicroConfig {
        n_tasklets: 16,
        allocs_per_tasklet: if quick { 32 } else { 128 },
        ..MicroConfig::default()
    };
    for kind in [AllocatorKind::StrawMan, AllocatorKind::Sw] {
        let (direct, recorded) = run_micro_recorded(kind, &micro_cfg);
        let replayed = replay_once(&recorded, kind);
        let replay_timeline: Vec<(f64, f64)> = replayed
            .timeline
            .iter()
            .map(|&(t, l)| (t.as_micros(mhz), l.as_micros(mhz)))
            .collect();
        let identical = direct.timeline_us == replay_timeline;
        e.push(Row::new(
            format!("recorded {} @ {}", recorded.name, kind.label()),
            vec![
                ("mean us", replayed.malloc_latencies.mean().as_micros(mhz)),
                ("direct mean us", direct.avg_latency_us),
                ("replay==direct", if identical { 1.0 } else { 0.0 }),
            ],
        ));
    }
    e
}

/// Serialized trace artifacts accompanying the `trace` experiment: one
/// JSON file per synthetic family plus a recorded micro trace, for
/// `repro trace --json DIR` to write next to the experiment report.
pub fn trace_artifact_files(quick: bool, seed: u64) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = scenario_families(quick, seed)
        .iter()
        .map(|family| {
            let trace = synthesize(family);
            let file = format!("trace-{}.trace.json", trace.name.replace('/', "-"));
            (file, trace.to_json())
        })
        .collect();
    let micro_cfg = MicroConfig {
        n_tasklets: 16,
        allocs_per_tasklet: if quick { 32 } else { 128 },
        ..MicroConfig::default()
    };
    let (_, recorded) = run_micro_recorded(AllocatorKind::Sw, &micro_cfg);
    files.push((
        "trace-recorded-micro.trace.json".to_owned(),
        recorded.to_json(),
    ));
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_families_and_allocators() {
        let e = trace_replay(true, TRACE_DEFAULT_SEED);
        let families = scenario_families(true, TRACE_DEFAULT_SEED);
        assert!(families.len() >= 4, "matrix needs >= 4 scenario families");
        for family in &families {
            for kind in KINDS {
                let label = format!("{} @ {}", family.scenario_name(), kind.label());
                let row = e.row(&label).unwrap_or_else(|| panic!("missing {label}"));
                assert!(row.value("mean us").unwrap() > 0.0, "{label}");
                assert_eq!(row.value("oom").unwrap(), 0.0, "{label}");
                assert_eq!(row.value("dropped frees").unwrap(), 0.0, "{label}");
            }
        }
    }

    #[test]
    fn straw_man_loses_to_pim_malloc_on_every_family() {
        let e = trace_replay(true, TRACE_DEFAULT_SEED);
        for family in scenario_families(true, TRACE_DEFAULT_SEED) {
            let name = family.scenario_name();
            let straw = e
                .row(&format!("{name} @ Straw-man"))
                .unwrap()
                .value("mean us")
                .unwrap();
            let sw = e
                .row(&format!("{name} @ PIM-malloc-SW"))
                .unwrap()
                .value("mean us")
                .unwrap();
            assert!(straw > sw, "{name}: straw {straw} vs SW {sw}");
        }
    }

    #[test]
    fn recorded_micro_replays_byte_identically() {
        let e = trace_replay(true, TRACE_DEFAULT_SEED);
        for kind in ["Straw-man", "PIM-malloc-SW"] {
            let row = e
                .row(&format!("recorded micro/alloc-only @ {kind}"))
                .unwrap();
            assert_eq!(row.value("replay==direct").unwrap(), 1.0, "{kind}");
        }
    }

    #[test]
    fn seed_changes_the_stochastic_rows() {
        let a = trace_replay(true, 1);
        let b = trace_replay(true, 2);
        let label = "uniform/bursty @ PIM-malloc-SW";
        let ma = a.row(label).unwrap().value("mean us").unwrap();
        let mb = b.row(label).unwrap().value("mean us").unwrap();
        assert_ne!(ma, mb, "different seeds must draw different sizes");
        // Same seed reproduces exactly.
        let c = trace_replay(true, 1);
        assert_eq!(ma, c.row(label).unwrap().value("mean us").unwrap());
    }

    #[test]
    fn artifacts_parse_back() {
        let files = trace_artifact_files(true, TRACE_DEFAULT_SEED);
        assert!(files.len() >= 5);
        for (name, json) in files {
            let t =
                pim_trace::AllocTrace::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(t.malloc_count() > 0, "{name}");
        }
    }
}
