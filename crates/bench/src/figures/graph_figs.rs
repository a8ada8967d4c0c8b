//! Dynamic-graph figures: 3(c), 11, and 17.
//!
//! Each `run_graph_update` call is an independent multi-DPU simulation
//! (itself parallel over DPUs); the figure-level sweeps fan the calls
//! out with [`pim_sim::parallel_indexed`] and assemble rows from the
//! index-ordered results.

use pim_sim::parallel_indexed;
use pim_workloads::graph::{run_graph_update, GraphRepr, GraphUpdateConfig};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

fn scaled(quick: bool, seed: u64) -> GraphUpdateConfig {
    let ctx = pim_sim::SimContext::default().with_seed(seed);
    if quick {
        GraphUpdateConfig {
            n_dpus: 4,
            n_nodes: 2048,
            base_edges: 6400,
            new_edges: 3200,
            ctx,
            ..GraphUpdateConfig::default()
        }
    } else {
        GraphUpdateConfig {
            ctx,
            ..GraphUpdateConfig::default()
        }
    }
}

/// Figure 3(c): graph-update slowdown as the pre-update graph grows
/// (small → large) with a fixed number of new edges, static vs dynamic.
pub fn fig3c(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "fig3c",
        "update slowdown vs pre-update graph size (fixed new edges)",
        "static grows with graph size; dynamic stays flat",
    );
    let base = scaled(quick, seed);
    let sizes: [(&str, usize); 3] = [
        ("small", base.base_edges / 4),
        ("medium", base.base_edges),
        ("large", base.base_edges * 4),
    ];
    let reprs = [GraphRepr::StaticCsr, GraphRepr::LinkedList];
    // Node count stays fixed; "size" is the pre-update edge count, as
    // in the paper's small/medium/large sweep.
    let per_edge_us = parallel_indexed(reprs.len() * sizes.len(), |i| {
        let cfg = GraphUpdateConfig {
            repr: reprs[i / sizes.len()],
            base_edges: sizes[i % sizes.len()].1,
            allocator: AllocatorKind::Sw,
            ..base
        };
        run_graph_update(&cfg).update_secs * 1e6 / cfg.new_edges as f64
    });
    // Normalize to the (static, small) point, as the paper does.
    let static_small = per_edge_us[0];
    for (ri, repr) in reprs.into_iter().enumerate() {
        e.push(Row {
            label: repr.label().to_owned(),
            values: sizes
                .iter()
                .enumerate()
                .map(|(si, &(name, _))| {
                    (
                        name.to_owned(),
                        per_edge_us[ri * sizes.len() + si] / static_small,
                    )
                })
                .collect(),
        });
    }
    e
}

/// Figure 11: fraction of `pim_malloc` requests serviced at the
/// frontend (a) and the backend's share of aggregate allocation
/// latency (b), across the evaluation workloads.
pub fn fig11(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "fig11",
        "frontend service fraction and backend latency share",
        "~93% of requests frontend-serviced; backend still ~68% of latency",
    );
    let base = scaled(quick, seed);
    let reprs = [GraphRepr::LinkedList, GraphRepr::VarArray];
    let runs = parallel_indexed(reprs.len(), |i| {
        run_graph_update(&GraphUpdateConfig {
            repr: reprs[i],
            allocator: AllocatorKind::Sw,
            ..base
        })
    });
    for (repr, r) in reprs.into_iter().zip(runs) {
        e.push(Row::new(
            repr.label(),
            vec![
                ("frontend frac", r.frontend_fraction),
                ("backend latency frac", r.backend_latency_fraction),
            ],
        ));
    }
    // Attention / KV-cache growth: 512 B blocks through PIM-malloc-SW.
    {
        use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
        use pim_sim::{DpuConfig, DpuSim};
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
        let mut pm = PimMalloc::init(&mut dpu, AllocGeometry::sw(16).build()).expect("init");
        let blocks = if quick { 512 } else { 4096 };
        for i in 0..blocks {
            let mut ctx = dpu.ctx(i % 16);
            pm.pim_malloc(&mut ctx, 512).expect("heap sized");
        }
        let s = pm.alloc_stats();
        e.push(Row::new(
            "Attention (LLM decode)",
            vec![
                ("frontend frac", s.frontend_service_fraction()),
                ("backend latency frac", s.backend_latency_fraction()),
            ],
        ));
    }
    e
}

/// Figure 17: the full dynamic-graph-update comparison — throughput,
/// cycle breakdown, per-tasklet allocation time, and metadata DRAM
/// traffic, for the static baseline and both dynamic representations
/// under the three allocators.
pub fn fig17(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "fig17",
        "graph update: throughput, breakdown, alloc time, metadata traffic",
        "HW/SW: 7.1x (linked list) and 32x (var array) over static; \
         straw-man loses to static; HW/SW moves ~30% less DRAM than SW",
    );
    let base = scaled(quick, seed);
    // One static run plus every (representation, allocator) pair, all
    // independent simulations: fan out, then assemble in paper order.
    let grid: Vec<(GraphRepr, AllocatorKind)> =
        std::iter::once((GraphRepr::StaticCsr, base.allocator))
            .chain(
                [GraphRepr::LinkedList, GraphRepr::VarArray]
                    .into_iter()
                    .flat_map(|repr| AllocatorKind::HEADLINE.into_iter().map(move |k| (repr, k))),
            )
            .collect();
    let runs = parallel_indexed(grid.len(), |i| {
        let (repr, allocator) = grid[i];
        run_graph_update(&GraphUpdateConfig {
            repr,
            allocator,
            ..base
        })
    });
    let static_r = &runs[0];
    let (s_run, s_busy, s_mem, s_etc) = static_r.breakdown.fractions();
    e.push(Row::new(
        "Static (CSR)",
        vec![
            ("Meps", static_r.throughput_meps),
            ("ms", static_r.update_secs * 1e3),
            ("run", s_run),
            ("busy-wait", s_busy),
            ("idle(mem)", s_mem),
            ("idle(etc)", s_etc),
        ],
    ));
    // Every row's DRAM traffic against its own representation's SW run.
    let sw_dram = |repr: GraphRepr| {
        let i = grid
            .iter()
            .position(|&g| g == (repr, AllocatorKind::Sw))
            .expect("the grid runs SW on every dynamic representation");
        runs[i].dram_bytes.max(1) as f64
    };
    for (&(repr, kind), r) in grid[1..].iter().zip(&runs[1..]) {
        let (run, busy, mem, etc) = r.breakdown.fractions();
        let malloc_p50 = {
            let mut v = r.per_tasklet_malloc_us.clone();
            v.sort_by(f64::total_cmp);
            v.get(v.len() / 2).copied().unwrap_or(0.0)
        };
        e.push(Row::new(
            format!("{} + {}", repr.label(), kind.label()),
            vec![
                ("Meps", r.throughput_meps),
                ("ms", r.update_secs * 1e3),
                ("run", run),
                ("busy-wait", busy),
                ("idle(mem)", mem),
                ("idle(etc)", etc),
                ("vs static", r.throughput_meps / static_r.throughput_meps),
                ("tasklet malloc p50 us", malloc_p50),
                ("DRAM vs SW", r.dram_bytes as f64 / sw_dram(repr)),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3c_static_degrades_dynamic_flat() {
        let e = fig3c(true, 42);
        let s = e.row("Static (CSR)").unwrap();
        assert!(s.value("large").unwrap() > s.value("small").unwrap() * 1.5);
        let d = e.row("Dynamic (Array of linked list)").unwrap();
        assert!(
            d.value("large").unwrap() < d.value("small").unwrap() * 2.0,
            "dynamic must be nearly flat"
        );
        // Dynamic beats static at every size.
        for col in ["small", "medium", "large"] {
            assert!(d.value(col).unwrap() < s.value(col).unwrap());
        }
    }

    #[test]
    fn fig11_frontend_dominates_service_backend_dominates_latency() {
        let e = fig11(true, 42);
        for row in &e.rows {
            let f = row.value("frontend frac").unwrap();
            assert!(f > 0.75, "{}: frontend fraction {f}", row.label);
        }
        let llm = e.row("Attention (LLM decode)").unwrap();
        assert!(llm.value("backend latency frac").unwrap() > 0.3);
    }

    #[test]
    fn fig17_orderings() {
        let e = fig17(true, 42);
        let straw = e
            .row("Dynamic (Array of linked list) + Straw-man")
            .unwrap()
            .value("vs static")
            .unwrap();
        assert!(
            straw < 1.0,
            "straw-man dynamic must lose to static: {straw}"
        );
        let hw = e
            .row("Dynamic (Array of linked list) + PIM-malloc-HW/SW")
            .unwrap()
            .value("vs static")
            .unwrap();
        assert!(hw > 2.0, "HW/SW must be well above static: {hw}");
        let va = e
            .row("Dynamic (Variable sized array) + PIM-malloc-HW/SW")
            .unwrap()
            .value("vs static")
            .unwrap();
        assert!(va >= hw, "var array {va} must beat linked list {hw}");
        let dram = e
            .row("Dynamic (Array of linked list) + PIM-malloc-HW/SW")
            .unwrap()
            .value("DRAM vs SW")
            .unwrap();
        assert!(dram < 1.0, "HW/SW must cut DRAM traffic: {dram}");
        for repr in ["Array of linked list", "Variable sized array"] {
            let straw_dram = e
                .row(&format!("Dynamic ({repr}) + Straw-man"))
                .unwrap()
                .value("DRAM vs SW")
                .unwrap();
            assert!(
                straw_dram > 1.0,
                "{repr}: straw-man must move more DRAM than SW: {straw_dram}"
            );
        }
    }
}
