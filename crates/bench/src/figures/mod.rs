//! One generator per reproduced table/figure of the paper.
//!
//! Every function takes `quick: bool`; quick mode trims sweep sizes so
//! `repro all --quick` completes in well under a minute, while the
//! default scales match the paper's parameters where feasible.
//! Stochastic experiments additionally take a `seed`, plumbed from
//! `repro --seed` (defaulting to the fixed seeds the figures have
//! always used, so unseeded runs stay byte-identical).

mod batching_figs;
mod chaos_figs;
mod discussion_figs;
mod dse_figs;
mod graph_figs;
mod llm_figs;
mod micro_figs;
mod overhead_figs;
mod serve_figs;
mod trace_figs;
mod tune_figs;

pub use batching_figs::host_batching;
pub use chaos_figs::chaos_resilience;
pub use discussion_figs::{discussion_cache_granularity, discussion_future_pim};
pub use dse_figs::{fig6a, fig6b};
pub use graph_figs::{fig11, fig17, fig3c};
pub use llm_figs::{fig18, fig4b};
pub use micro_figs::{ablation_descent, ablation_swlru, fig15, fig16, fig7, fig8};
pub use overhead_figs::{hw_overhead, metadata_overhead, table3};
pub use serve_figs::serve_frontend;
pub use trace_figs::{scenario_families, trace_artifact_files, trace_replay, TRACE_DEFAULT_SEED};
pub use tune_figs::geometry_tune;

use crate::report::Experiment;

/// Fixed seed of the ShareGPT-shaped LLM trace (Figure 4(b)).
const LLM_DEFAULT_SEED: u64 = 11;
/// Fixed seed of the graph-update workload generator.
const GRAPH_DEFAULT_SEED: u64 = 42;
/// Fixed seed of the serving frontend's request stream.
const SERVE_DEFAULT_SEED: u64 = 0x5E21;
/// Fixed seed of the chaos experiment's fault plan + request stream.
const CHAOS_DEFAULT_SEED: u64 = 0xC4A05;

/// One catalogue entry: an experiment id, its one-line description,
/// and the generator that runs it. Keeping the runner *inside* the
/// entry means listing and dispatch cannot drift apart — adding an
/// experiment is one new entry, not an entry plus a match arm.
pub struct CatalogEntry {
    /// Short id used on the command line (`fig15`, `tune`, …).
    pub id: &'static str,
    /// One-line description `repro list` prints.
    pub description: &'static str,
    /// Runs the experiment: `(quick, seed override)` → experiments.
    runner: fn(bool, Option<u64>) -> Vec<Experiment>,
}

/// Every experiment, in paper order (extensions last). `repro list`
/// prints this catalogue; [`run`] dispatches through it.
pub const CATALOG: [CatalogEntry; 21] = [
    CatalogEntry {
        id: "fig3c",
        description: "graph-update slowdown vs pre-update graph size, static vs dynamic",
        runner: |quick, seed| vec![fig3c(quick, seed.unwrap_or(GRAPH_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "fig4b",
        description: "maximum LLM batch size under static vs dynamic KV allocation",
        runner: |quick, seed| vec![fig4b(quick, seed.unwrap_or(LLM_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "fig6a",
        description: "DSE: allocation latency vs PIM-core count, four strategies",
        runner: |quick, _| vec![fig6a(quick)],
    },
    CatalogEntry {
        id: "fig6b",
        description: "DSE: latency breakdown at 512 PIM cores",
        runner: |quick, _| vec![fig6b(quick)],
    },
    CatalogEntry {
        id: "fig7",
        description: "straw-man slowdown over heap size x (de)allocation size",
        runner: |quick, _| vec![fig7(quick)],
    },
    CatalogEntry {
        id: "fig8",
        description: "straw-man latency over a request sequence + cycle breakdown",
        runner: |quick, _| vec![fig8(quick)],
    },
    CatalogEntry {
        id: "fig11",
        description: "frontend service fraction and backend latency share",
        runner: |quick, seed| vec![fig11(quick, seed.unwrap_or(GRAPH_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "fig15",
        description: "average pim_malloc latency across the three allocator designs",
        runner: |quick, _| vec![fig15(quick)],
    },
    CatalogEntry {
        id: "fig16",
        description: "buddy-cache size sensitivity (speedup and hit rate)",
        runner: |quick, _| vec![fig16(quick)],
    },
    CatalogEntry {
        id: "fig17",
        description: "graph update: throughput, breakdown, alloc time, metadata traffic",
        runner: |quick, seed| vec![fig17(quick, seed.unwrap_or(GRAPH_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "fig18",
        description: "LLM serving throughput and TPOT percentiles across schemes",
        runner: |quick, _| vec![fig18(quick)],
    },
    CatalogEntry {
        id: "table3",
        description: "memory fragmentation A/U, eager vs lazy",
        runner: |quick, _| vec![table3(quick)],
    },
    CatalogEntry {
        id: "metadata-overhead",
        description: "allocator metadata footprint per DPU",
        runner: |_, _| vec![metadata_overhead()],
    },
    CatalogEntry {
        id: "hw-overhead",
        description: "buddy-cache area / power / latency on a DRAM process",
        runner: |_, _| vec![hw_overhead()],
    },
    CatalogEntry {
        id: "ablations",
        description: "fine-grained SW LRU and descent-policy ablations",
        runner: |quick, _| vec![ablation_swlru(quick), ablation_descent(quick)],
    },
    CatalogEntry {
        id: "discussion",
        description: "future-PIM projection and cache-granularity comparison",
        runner: |quick, _| {
            vec![
                discussion_future_pim(quick),
                discussion_cache_granularity(quick),
            ]
        },
    },
    CatalogEntry {
        id: "host-batching",
        description: "per-DPU vs rank-sharded host<->PIM transfer scheduling",
        runner: |quick, _| vec![host_batching(quick)],
    },
    CatalogEntry {
        id: "trace",
        description: "allocation-trace subsystem: synthetic scenario families x allocators, record/replay fidelity",
        runner: |quick, seed| vec![trace_replay(quick, seed.unwrap_or(TRACE_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "serve",
        description: "open-loop serving frontend: SLO tail latencies per arrival shape, drops, saturation knee",
        runner: |quick, seed| vec![serve_frontend(quick, seed.unwrap_or(SERVE_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "chaos",
        description: "resilience: self-healing serving under a fault plan + allocator fault injection",
        runner: |quick, seed| vec![chaos_resilience(quick, seed.unwrap_or(CHAOS_DEFAULT_SEED))],
    },
    CatalogEntry {
        id: "tune",
        description: "profile-guided geometry: profile -> synthesize -> replay, synthesized vs paper size classes",
        runner: |quick, seed| vec![geometry_tune(quick, seed.unwrap_or(TRACE_DEFAULT_SEED))],
    },
];

/// Every experiment id, in catalogue order.
pub fn all_ids() -> impl Iterator<Item = &'static str> {
    CATALOG.iter().map(|e| e.id)
}

/// True if `id` names a known experiment.
pub fn is_known(id: &str) -> bool {
    all_ids().any(|known| known == id)
}

/// Runs one experiment by id, dispatching through [`CATALOG`].
/// `ablations` bundles the §IV-B fine-LRU ablation and the
/// descent-policy ablation. `seed` overrides the stochastic
/// experiments' workload seeds (LLM trace, graph generator, synthetic
/// traces); `None` keeps each experiment's fixed default.
///
/// # Panics
///
/// Panics on an unknown id; [`CATALOG`] lists the valid ones.
pub fn run(id: &str, quick: bool, seed: Option<u64>) -> Vec<Experiment> {
    match CATALOG.iter().find(|e| e.id == id) {
        Some(entry) => (entry.runner)(quick, seed),
        None => {
            let ids: Vec<&str> = all_ids().collect();
            panic!("unknown experiment id `{id}`; valid ids: {ids:?}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Committed `repro all --json` outputs, one `<id>.json` per
    /// experiment: quick mode at the top, full scale under `full/`.
    const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

    /// Runs the whole catalogue at the `quick` scale and diffs every
    /// experiment's JSON against its golden file in `dir` byte for
    /// byte. `PIM_BLESS=1` rewrites the goldens instead, so a
    /// deliberate output change shows up as a reviewable diff.
    fn check_goldens(quick: bool, dir: &str) {
        let bless = std::env::var("PIM_BLESS").is_ok_and(|v| v == "1");
        let mut mismatched = Vec::new();
        for entry in &CATALOG {
            assert!(
                !entry.description.is_empty(),
                "{} needs a description",
                entry.id
            );
            let out = run(entry.id, quick, None);
            assert!(!out.is_empty(), "{} produced no experiments", entry.id);
            for e in out {
                assert!(!e.rows.is_empty(), "{} produced an empty table", entry.id);
                let path = std::path::Path::new(dir).join(format!("{}.json", e.id));
                let json = e.to_json();
                if bless {
                    std::fs::create_dir_all(dir).expect("create golden dir");
                    std::fs::write(&path, &json).expect("write golden");
                } else if std::fs::read_to_string(&path).ok().as_deref() != Some(json.as_str()) {
                    mismatched.push(e.id);
                }
            }
        }
        assert!(
            mismatched.is_empty(),
            "outputs differ from {dir} for {mismatched:?}; \
             rerun with PIM_BLESS=1 to rewrite the goldens"
        );
    }

    #[test]
    fn every_listed_id_runs_in_quick_mode() {
        check_goldens(true, GOLDEN_DIR);
    }

    /// The paper-scale sweeps: seconds in release, minutes in debug, so
    /// CI runs this one with `--release -- --ignored`.
    #[test]
    #[ignore = "full scale; run in release with --ignored"]
    fn every_listed_id_matches_full_scale_golden() {
        check_goldens(
            false,
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/full"),
        );
    }

    #[test]
    fn catalog_is_consistent() {
        // Ids are unique and non-empty; lookup through `run` reaches
        // every entry (the fn-pointer design makes a desync between
        // the listing and the dispatcher impossible by construction,
        // but unique ids still matter: a duplicate would shadow the
        // later entry).
        let ids: Vec<&str> = all_ids().collect();
        assert_eq!(ids.len(), CATALOG.len());
        for (i, id) in ids.iter().enumerate() {
            assert!(!id.is_empty());
            assert!(
                !ids[..i].contains(id),
                "duplicate experiment id `{id}` in CATALOG"
            );
            assert!(is_known(id));
        }
        // The extension experiments landed across PRs stay listed.
        for required in ["trace", "serve", "chaos", "tune"] {
            assert!(is_known(required), "{required} missing from CATALOG");
        }
    }

    #[test]
    fn seeds_default_when_unset() {
        // An explicit seed equal to the default reproduces the
        // unseeded run exactly.
        let a = run("fig4b", true, None);
        let b = run("fig4b", true, Some(LLM_DEFAULT_SEED));
        assert_eq!(a[0].to_json(), b[0].to_json());
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run("fig99", true, None);
    }
}
