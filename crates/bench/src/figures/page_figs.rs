//! The page-frontend experiment (extension beyond the paper).
//!
//! Replays three trace families — allocator-bound churn (no compute
//! gap, 100% hit rate), steady small-object churn, and the
//! producer-consumer remote-free pattern — on the thread caches under
//! each of their two price lists: the page/queue list (`.page_local()`)
//! and the paper's bitmap scan. The structure is the same under both,
//! so under a fixed op order they serve the same addresses, and on the
//! interleave-invariant local-churn families every difference in the
//! modeled numbers is hot-path pricing: one constant-cost queue pop
//! instead of the bitmap walk's block-scan/word-scan/bit-op sequence.
//! The producer-consumer family replays under a virtual-time
//! interleave, where the faster producer can outrun the consumer's
//! remote frees and pay extra backend refills — the rows keep that
//! visible rather than hiding it. One row per (family, price list),
//! plus a speedup row per family, all fully modeled and deterministic
//! for a fixed seed.

use pim_malloc::{AllocGeometry, FrontendKind, PimAllocator, PimMalloc};
use pim_sim::{CostModel, DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, SizeLaw, SynthConfig, TemporalShape};

use crate::report::{Experiment, Row};

/// The trace families the comparison sweeps: pure local churn (every
/// request on the frontend fast path) and producer-consumer (remote
/// frees handing slots back to the owner's blocks). The
/// third tuple field marks families whose routing is purely
/// per-tasklet: for those, refill counts and hit rates must match
/// across the price lists bit for bit, while cross-tasklet families
/// replay under a virtual-time interleave that the page list's cheaper
/// pricing legitimately shifts.
fn families(quick: bool, seed: u64) -> Vec<(String, SynthConfig, bool)> {
    let mallocs = if quick { 128 } else { 512 };
    vec![
        (
            "allocator-bound churn".to_string(),
            SynthConfig {
                n_tasklets: 16,
                mallocs_per_tasklet: mallocs,
                live_window: 32,
                size_law: SizeLaw::Fixed(64),
                shape: TemporalShape::Steady { compute: 0 },
                heap_size: 32 << 20,
                seed,
            },
            true,
        ),
        (
            "steady small-object churn".to_string(),
            SynthConfig {
                n_tasklets: 16,
                mallocs_per_tasklet: mallocs,
                live_window: 32,
                size_law: SizeLaw::Uniform { min: 16, max: 2048 },
                shape: TemporalShape::Steady { compute: 200 },
                heap_size: 32 << 20,
                seed,
            },
            true,
        ),
        (
            "producer-consumer".to_string(),
            SynthConfig {
                n_tasklets: 16,
                mallocs_per_tasklet: mallocs,
                live_window: 32,
                size_law: SizeLaw::Fixed(512),
                shape: TemporalShape::ProducerConsumer { compute: 500 },
                heap_size: 32 << 20,
                seed,
            },
            false,
        ),
    ]
}

struct FrontendRun {
    finish_ms: f64,
    mean_us: f64,
    hit_rate: f64,
    mallocs: u64,
    refills: u64,
}

fn run_frontend(cfg: &SynthConfig, frontend: FrontendKind, mhz: u64) -> FrontendRun {
    let trace = synthesize(cfg);
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(trace.n_tasklets));
    let geom = AllocGeometry::sw(trace.n_tasklets)
        .with_heap_size(trace.heap_size)
        .with_frontend(frontend);
    let mut alloc: Box<dyn PimAllocator> =
        Box::new(PimMalloc::init(&mut dpu, geom.build()).expect("init"));
    let result = replay(&mut dpu, alloc.as_mut(), &trace);
    assert_eq!(result.oom_count, 0, "heap sized for the trace");
    let pm = alloc
        .as_any()
        .downcast_ref::<PimMalloc>()
        .expect("built a PimMalloc");
    FrontendRun {
        finish_ms: result.finish.as_millis(mhz),
        mean_us: result.malloc_latencies.mean().as_micros(mhz),
        hit_rate: pm.alloc_stats().class_hit_rate(),
        mallocs: pm.alloc_stats().total_mallocs(),
        refills: pm.alloc_stats().frontend_refills,
    }
}

/// The `pages` experiment: the thread caches priced as page queues vs
/// as the paper's bitmap scan.
pub fn page_frontend(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "pages",
        "page/queue frontend vs legacy bitmap scan: modeled finish, latency, hit rate",
        "extension; page + sharded page-queue design after mimalloc's free-list pages",
    );
    let mhz = CostModel::default().clock_mhz;
    for (label, cfg, local_only) in families(quick, seed) {
        let pages = run_frontend(&cfg, FrontendKind::PageLocal, mhz);
        let bitmap = run_frontend(&cfg, FrontendKind::BitmapClasses, mhz);
        assert_eq!(pages.mallocs, bitmap.mallocs, "{label}: same trace");
        if local_only {
            // Per-tasklet routing is interleave-invariant, so the
            // price lists may only differ in cycles.
            assert_eq!(
                (pages.refills, pages.hit_rate.to_bits()),
                (bitmap.refills, bitmap.hit_rate.to_bits()),
                "{label}: price lists must route requests identically"
            );
        }
        e.push(Row::new(
            format!("{label} @ pages"),
            vec![
                ("finish ms", pages.finish_ms),
                ("mean us", pages.mean_us),
                ("hit rate", pages.hit_rate),
                ("refills", pages.refills as f64),
            ],
        ));
        e.push(Row::new(
            format!("{label} @ bitmap"),
            vec![
                ("finish ms", bitmap.finish_ms),
                ("mean us", bitmap.mean_us),
                ("hit rate", bitmap.hit_rate),
                ("refills", bitmap.refills as f64),
            ],
        ));
        e.push(Row::new(
            format!("{label} speedup"),
            vec![("finish speedup", bitmap.finish_ms / pages.finish_ms)],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::super::TRACE_DEFAULT_SEED;
    use super::*;

    #[test]
    fn page_frontend_wins_where_routing_is_invariant() {
        // On interleave-invariant families the two price lists hit the
        // backend identically, so the page list's cheaper hot path
        // must show up as a modeled-finish win (or a tie). The
        // producer-consumer family is exempt: its faster producer can
        // legitimately outrun the consumer's remote frees and pay
        // extra refills.
        let e = page_frontend(true, TRACE_DEFAULT_SEED);
        for (label, _, local_only) in families(true, TRACE_DEFAULT_SEED) {
            let speedup = e
                .row(&format!("{label} speedup"))
                .unwrap_or_else(|| panic!("missing {label}"))
                .value("finish speedup")
                .unwrap();
            assert!(speedup.is_finite() && speedup > 0.0, "{label}: {speedup}");
            if local_only {
                assert!(
                    speedup >= 1.0,
                    "{label}: page path must not regress modeled finish, got {speedup}"
                );
            }
        }
    }

    #[test]
    fn allocator_bound_hot_path_is_much_cheaper() {
        // With no compute gap and a 100% hit rate, mean malloc latency
        // is pure frontend: the constant-cost queue pop must beat the
        // bitmap scan by a wide margin.
        let e = page_frontend(true, TRACE_DEFAULT_SEED);
        let pages = e.row("allocator-bound churn @ pages").unwrap();
        let bitmap = e.row("allocator-bound churn @ bitmap").unwrap();
        assert_eq!(pages.value("hit rate").unwrap(), 1.0);
        let ratio = bitmap.value("mean us").unwrap() / pages.value("mean us").unwrap();
        assert!(ratio >= 2.0, "expected >=2x hot-path win, got {ratio:.2}x");
    }

    #[test]
    fn hit_rates_agree_and_stay_high() {
        let e = page_frontend(true, TRACE_DEFAULT_SEED);
        for (label, _, local_only) in families(true, TRACE_DEFAULT_SEED) {
            let pages = e.row(&format!("{label} @ pages")).unwrap();
            let bitmap = e.row(&format!("{label} @ bitmap")).unwrap();
            let rate = pages.value("hit rate").unwrap();
            if local_only {
                assert_eq!(rate, bitmap.value("hit rate").unwrap(), "{label}");
            }
            assert!(rate > 0.5, "{label}: hit rate {rate}");
        }
    }

    #[test]
    fn fixed_seed_reproduces_exactly() {
        let a = page_frontend(true, 7);
        let b = page_frontend(true, 7);
        assert_eq!(a.to_json(), b.to_json());
    }
}
