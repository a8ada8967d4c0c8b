//! End-to-end fault-injection contract: a fixed [`FaultPlan`] seed
//! must produce *byte-identical* serving reports run after run (and,
//! via the CI matrix, for every `PIM_EXEC_WORKERS` setting) — fault
//! draws are pure functions of the plan, never of scheduling. A
//! different fault seed must produce a different fault trace, and
//! kills that land after the stream drains must leave the report
//! byte-identical to a fault-free run.

use pim_malloc::PimAllocator;
use pim_serving::{estimated_capacity_rps, serve, ArrivalProcess, ServeConfig, ServeReport};
use pim_sim::{DpuSim, FaultPlan, SimContext, TransferDirection, TransferPlan};
use pim_workloads::requests::standard_mix;
use pim_workloads::AllocatorKind;

fn build(dpu: &mut DpuSim, tasklets: usize, heap: u32) -> Box<dyn PimAllocator> {
    AllocatorKind::Sw.build(dpu, tasklets, heap)
}

fn base(faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        n_dpus: 128,
        n_requests: 10_000,
        arrival: ArrivalProcess::Poisson { rps: 250_000.0 },
        faults,
        ..ServeConfig::default()
    }
}

fn chaotic_serve(fault_seed: u64) -> ServeReport {
    serve(&base(FaultPlan::chaos(fault_seed)), &standard_mix(), &build)
}

#[test]
fn fault_plan_is_seed_deterministic() {
    // The whole point of the pure-function fault model: one seed, one
    // fault trace, however often the run is repeated.
    // (ServeReport derives PartialEq — f64 equality, not tolerance.)
    let reference = chaotic_serve(0xFA11);
    assert!(
        reference.faults.doa_dpus > 0,
        "chaos on 128 DPUs must kill some at birth"
    );
    assert_eq!(chaotic_serve(0xFA11), reference, "same seed diverged");
}

#[test]
fn fault_seed_changes_the_fault_trace() {
    let a = chaotic_serve(1);
    let b = chaotic_serve(2);
    assert_ne!(
        (a.faults.doa_dpus, a.faults.healthy_final, a.latency.p99),
        (b.faults.doa_dpus, b.faults.healthy_final, b.latency.p99),
        "different fault seeds must reshape the run"
    );
}

#[test]
fn fault_accounting_closes_under_chaos() {
    let r = chaotic_serve(0xFA11);
    assert_eq!(
        r.admitted + r.dropped,
        10_000,
        "every request completes or is attributed a drop"
    );
    assert_eq!(
        r.dropped,
        r.faults.drops_queue_full + r.faults.fault_drops(),
        "drop attribution must sum to the total"
    );
    assert_eq!(r.latency.count, r.admitted);
    assert_eq!(
        r.faults.healthy_timeline.len() as u64,
        1 + r.faults.killed_dpus,
        "one timeline point at t=0 plus one per kill"
    );
}

#[test]
fn kills_after_the_last_request_change_nothing() {
    // 200 requests at half capacity all finish within ~72 ms, while a
    // quarter of the fleet dies over a 10 s horizon. Kills that land
    // after the stream has drained have nothing left to disturb, so
    // the report must equal the fault-free one, makespan included.
    let classes = standard_mix();
    let rps = 0.5 * estimated_capacity_rps(&classes, &build, 16);
    let clean = ServeConfig {
        n_dpus: 16,
        n_requests: 200,
        arrival: ArrivalProcess::Poisson { rps },
        ctx: SimContext::default().with_seed(1),
        ..ServeConfig::default()
    };
    let late_kills = ServeConfig {
        faults: FaultPlan {
            seed: 3,
            kill_frac: 0.25,
            kill_horizon_ns: 10_000_000_000,
            ..FaultPlan::none()
        },
        ..clean
    };
    let reference = serve(&clean, &classes, &build);
    assert!(reference.makespan_secs < 0.1, "{}", reference.makespan_secs);
    assert_eq!(serve(&late_kills, &classes, &build), reference);
}

#[test]
fn transfer_faults_are_nonce_deterministic() {
    // The sharded transfer model prices the same plan identically for
    // the same (fault plan, nonce) and differently across nonces that
    // actually change a draw.
    let faults = FaultPlan {
        seed: 9,
        xfer_fail_prob: 0.3,
        ..FaultPlan::none()
    };
    let planner = SimContext::default().planner();
    let mut plan = TransferPlan::new(TransferDirection::HostToPim);
    for dpu in 0..256 {
        plan.push(dpu, 4096);
    }
    let a = planner.estimate_with_faults(&plan, &faults, 0);
    let b = planner.estimate_with_faults(&plan, &faults, 0);
    assert_eq!(a, b, "same nonce, same faults");
    let faulted = (0..64u64)
        .map(|nonce| planner.estimate_with_faults(&plan, &faults, nonce))
        .filter(|f| f.failed_shards > 0)
        .count();
    assert!(faulted > 0, "a 30% shard-fail prob must fire somewhere");
}
