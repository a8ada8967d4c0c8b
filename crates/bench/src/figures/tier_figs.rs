//! The free-path tiering experiment (extension beyond the paper).
//!
//! Replays the producer-consumer trace family — the one scenario whose
//! `RemoteFree` edges exercise cross-tasklet deallocation — on the
//! default three-tier allocator (remote frees priced in batches of
//! eight from one remote mark per thread-cache slot) and on the
//! config-reachable two-tier design where every remote free
//! serializes through the global backend lock. One row per (family variant, tier), plus a
//! speedup row per variant, all fully modeled and deterministic for a
//! fixed seed.

use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc, TierPolicy};
use pim_sim::{CostModel, DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, SizeLaw, SynthConfig, TemporalShape};

use crate::report::{Experiment, Row};

/// The producer-consumer variants the comparison sweeps: tighter
/// compute gaps put more pressure on the remote-free path.
fn pc_variants(quick: bool, seed: u64) -> Vec<(String, SynthConfig)> {
    let computes: &[u64] = if quick {
        &[200, 2000]
    } else {
        &[100, 500, 2000]
    };
    computes
        .iter()
        .map(|&compute| {
            (
                format!("pc compute={compute}"),
                SynthConfig {
                    n_tasklets: 16,
                    mallocs_per_tasklet: if quick { 128 } else { 256 },
                    live_window: 32,
                    size_law: SizeLaw::Fixed(512),
                    shape: TemporalShape::ProducerConsumer { compute },
                    heap_size: 32 << 20,
                    seed,
                },
            )
        })
        .collect()
}

struct TierRun {
    finish_ms: f64,
    mean_us: f64,
    remote_transfer: u64,
    remote_global: u64,
}

fn run_tier(cfg: &SynthConfig, policy: TierPolicy, mhz: u64) -> TierRun {
    let trace = synthesize(cfg);
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let mut geom = AllocGeometry::sw(trace.n_tasklets).with_heap_size(trace.heap_size);
    if policy == TierPolicy::TwoTier {
        geom = geom.two_tier();
    }
    let mut alloc: Box<dyn PimAllocator> =
        Box::new(PimMalloc::init(&mut dpu, geom.build()).expect("init"));
    let result = replay(&mut dpu, alloc.as_mut(), &trace);
    assert_eq!(result.oom_count, 0, "heap sized for the trace");
    let pm = alloc
        .as_any()
        .downcast_ref::<PimMalloc>()
        .expect("built a PimMalloc");
    TierRun {
        finish_ms: result.finish.as_millis(mhz),
        mean_us: result.malloc_latencies.mean().as_micros(mhz),
        remote_transfer: pm.alloc_stats().frees_remote_transfer,
        remote_global: pm.alloc_stats().frees_remote_global,
    }
}

/// The `tiers` experiment: two-tier vs three-tier on the
/// producer-consumer family.
pub fn tier_comparison(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "tiers",
        "free-path tiering: transfer cache + central lists vs global lock on producer-consumer",
        "extension; middle-tier design after TCMalloc's transfer cache",
    );
    let mhz = CostModel::default().clock_mhz;
    for (label, cfg) in pc_variants(quick, seed) {
        let three = run_tier(&cfg, TierPolicy::ThreeTier, mhz);
        let two = run_tier(&cfg, TierPolicy::TwoTier, mhz);
        assert_eq!(
            three.remote_transfer, two.remote_global,
            "{label}: both tiers must see the same remote frees"
        );
        e.push(Row::new(
            format!("{label} @ three-tier"),
            vec![
                ("finish ms", three.finish_ms),
                ("mean us", three.mean_us),
                ("remote transfer", three.remote_transfer as f64),
                ("remote global", three.remote_global as f64),
            ],
        ));
        e.push(Row::new(
            format!("{label} @ two-tier"),
            vec![
                ("finish ms", two.finish_ms),
                ("mean us", two.mean_us),
                ("remote transfer", two.remote_transfer as f64),
                ("remote global", two.remote_global as f64),
            ],
        ));
        e.push(Row::new(
            format!("{label} speedup"),
            vec![("finish speedup", two.finish_ms / three.finish_ms)],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::super::TRACE_DEFAULT_SEED;
    use super::*;

    #[test]
    fn three_tier_wins_on_every_variant() {
        let e = tier_comparison(true, TRACE_DEFAULT_SEED);
        for (label, _) in pc_variants(true, TRACE_DEFAULT_SEED) {
            let speedup = e
                .row(&format!("{label} speedup"))
                .unwrap_or_else(|| panic!("missing {label}"))
                .value("finish speedup")
                .unwrap();
            assert!(speedup >= 1.0, "{label}: speedup {speedup}");
        }
    }

    #[test]
    fn remote_frees_route_by_tier() {
        let e = tier_comparison(true, TRACE_DEFAULT_SEED);
        for (label, _) in pc_variants(true, TRACE_DEFAULT_SEED) {
            let three = e.row(&format!("{label} @ three-tier")).unwrap();
            let two = e.row(&format!("{label} @ two-tier")).unwrap();
            assert!(three.value("remote transfer").unwrap() > 0.0, "{label}");
            assert_eq!(three.value("remote global").unwrap(), 0.0, "{label}");
            assert_eq!(two.value("remote transfer").unwrap(), 0.0, "{label}");
            assert!(two.value("remote global").unwrap() > 0.0, "{label}");
        }
    }

    #[test]
    fn fixed_seed_reproduces_exactly() {
        let a = tier_comparison(true, 7);
        let b = tier_comparison(true, 7);
        assert_eq!(a.to_json(), b.to_json());
    }
}
