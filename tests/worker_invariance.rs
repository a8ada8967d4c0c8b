//! Worker-count invariance of the engines that have no serial entry
//! point: the 512-DPU graph update and the serving saturation sweep
//! must give identical results at `PIM_EXEC_WORKERS=1` and `=7`.
//!
//! The test sets the process environment, so it is the only test in
//! this binary: no other test can read the variable while it is set.

use pim_malloc::PimAllocator;
use pim_serving::{saturation_sweep, ArrivalProcess, ServeConfig};
use pim_sim::exec::WORKERS_ENV;
use pim_sim::DpuSim;
use pim_workloads::graph::{run_graph_update, GraphUpdateConfig};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

#[test]
fn graph_update_and_saturation_sweep_ignore_the_worker_count() {
    let graph = GraphUpdateConfig {
        n_dpus: 512,
        n_nodes: 4096,
        base_edges: 16_000,
        new_edges: 16_000,
        ..GraphUpdateConfig::default()
    };
    let serve = ServeConfig {
        n_dpus: 128,
        n_requests: 10_000,
        arrival: ArrivalProcess::Bursty {
            rps: 1.0,
            burst: 16,
        },
        queue_cap: 16,
        ..ServeConfig::default()
    };
    let classes = standard_mix();
    let run = |workers: &str| {
        std::env::set_var(WORKERS_ENV, workers);
        (
            // Debug prints every f64 in shortest round-trip form, so
            // equal strings mean bit-equal results, field for field.
            format!("{:?}", run_graph_update(&graph)),
            saturation_sweep(&serve, &classes, &build, &[0.5, 1.0, 2.0]),
        )
    };
    let pinned = std::env::var(WORKERS_ENV).ok();
    let (one, seven) = (run("1"), run("7"));
    match pinned {
        Some(w) => std::env::set_var(WORKERS_ENV, w),
        None => std::env::remove_var(WORKERS_ENV),
    }
    assert_eq!(one.0, seven.0, "graph update depends on the worker count");
    assert_eq!(
        one.1, seven.1,
        "saturation sweep depends on the worker count"
    );
}
