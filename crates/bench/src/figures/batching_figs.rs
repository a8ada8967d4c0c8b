//! Host transfer batching sweep: what rank-sharded `dpu_push_xfer`
//! scheduling buys over naive per-DPU calls, across the three call
//! sites that emit transfer plans (extension beyond the paper; the
//! batched-transfer motivation follows Gómez-Luna et al.'s UPMEM
//! benchmarking).

use pim_dse::{run_strategy, DseConfig, Strategy};
use pim_sim::{parallel_indexed, HostBatching};
use pim_workloads::graph::{run_graph_update, GraphRepr, GraphUpdateConfig};
use pim_workloads::llm::{fixed_trace, run_serving, KvScheme, ServingConfig};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

const POLICIES: [HostBatching; 2] = [HostBatching::PerDpu, HostBatching::Sharded];

/// The batching sweep: host-executed DSE latency vs DPU count, LLM
/// serving TPOT, and graph edge-staging cost, each under per-DPU and
/// per-rank-sharded transfer scheduling.
pub fn host_batching(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "host-batching",
        "per-DPU vs per-rank-sharded host<->PIM transfer scheduling",
        "rank-level dpu_push_xfer amortizes per-call overhead (Gomez-Luna et al.)",
    );
    let counts: &[usize] = if quick {
        &[64, 256]
    } else {
        &[16, 64, 256, 512]
    };

    // Host-executed DSE: the curve the paper's Figure 6 shows, bent by
    // the transfer schedule. Grid points are independent sims.
    let grid: Vec<(HostBatching, usize)> = POLICIES
        .iter()
        .flat_map(|&p| counts.iter().map(move |&n| (p, n)))
        .collect();
    let dse = parallel_indexed(grid.len(), |i| {
        let (batching, n) = grid[i];
        let base = DseConfig::default().with_dpus(n);
        run_strategy(
            Strategy::HostMetaHostExec,
            &DseConfig {
                ctx: base.ctx.with_batching(batching),
                ..base
            },
        )
    });
    for (&(policy, n), r) in grid.iter().zip(&dse) {
        e.push(Row::new(
            format!("DSE Host-Executed, {} @ {n} DPUs", policy.label()),
            vec![
                ("total s", r.total_secs),
                ("transfer s", r.transfer_secs),
                ("xfer calls", r.transfer_calls as f64),
            ],
        ));
    }

    // LLM serving: the per-step KV push either hides behind FC compute
    // (sharded) or stalls every decode step (per-DPU).
    let trace = fixed_trace(if quick { 40 } else { 100 }, 10.0);
    let serving = parallel_indexed(POLICIES.len(), |i| {
        let base = ServingConfig::default();
        run_serving(
            KvScheme::Dynamic(AllocatorKind::Sw),
            &ServingConfig {
                ctx: base.ctx.with_batching(POLICIES[i]),
                ..base
            },
            &trace,
        )
    });
    for (&policy, r) in POLICIES.iter().zip(&serving) {
        e.push(Row::new(
            format!("LLM serving, {}", policy.label()),
            vec![
                ("TPOT p50 ms", r.tpot_p50_ms),
                ("KV push stall s", r.kv_push_stall_secs),
                ("xfer calls", r.kv_push_calls as f64),
            ],
        ));
    }

    // Graph update: staging the new-edge streams into MRAM.
    let graph_cfg = GraphUpdateConfig {
        repr: GraphRepr::LinkedList,
        allocator: AllocatorKind::Sw,
        n_dpus: if quick { 4 } else { 16 },
        n_nodes: if quick { 2048 } else { 8192 },
        base_edges: if quick { 6400 } else { 26_000 },
        new_edges: if quick { 3200 } else { 13_000 },
        ..GraphUpdateConfig::default()
    };
    let graph = parallel_indexed(POLICIES.len(), |i| {
        run_graph_update(&GraphUpdateConfig {
            ctx: graph_cfg.ctx.with_batching(POLICIES[i]),
            ..graph_cfg
        })
    });
    for (&policy, r) in POLICIES.iter().zip(&graph) {
        e.push(Row::new(
            format!("Graph edge staging, {}", policy.label()),
            vec![
                ("host push s", r.host_push_secs),
                ("xfer calls", r.host_xfer_calls as f64),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_beats_per_dpu_everywhere_it_matters() {
        let e = host_batching(true);
        // DSE at 256 DPUs: strictly fewer transfer-call overheads
        // (shards = ranks, not DPUs) and less transfer time.
        let per = e
            .row("DSE Host-Executed, per-DPU calls @ 256 DPUs")
            .unwrap();
        let sh = e
            .row("DSE Host-Executed, per-rank shards @ 256 DPUs")
            .unwrap();
        assert_eq!(sh.value("xfer calls").unwrap(), (128 * 4) as f64);
        assert!(sh.value("xfer calls").unwrap() < per.value("xfer calls").unwrap());
        assert!(sh.value("transfer s").unwrap() < per.value("transfer s").unwrap());
        assert!(sh.value("total s").unwrap() < per.value("total s").unwrap());
        // Serving: sharded pushes stall (far) less.
        let per = e.row("LLM serving, per-DPU calls").unwrap();
        let sh = e.row("LLM serving, per-rank shards").unwrap();
        assert!(sh.value("KV push stall s").unwrap() < per.value("KV push stall s").unwrap());
        assert!(sh.value("TPOT p50 ms").unwrap() <= per.value("TPOT p50 ms").unwrap());
        // Graph staging: never worse.
        let per = e.row("Graph edge staging, per-DPU calls").unwrap();
        let sh = e.row("Graph edge staging, per-rank shards").unwrap();
        assert!(sh.value("host push s").unwrap() <= per.value("host push s").unwrap());
    }
}
