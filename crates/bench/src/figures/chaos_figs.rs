//! Chaos/resilience experiment: the serving fleet under a scheduled
//! [`FaultPlan`] versus the same fleet fault-free (an extension beyond
//! the paper's figures, motivated by PrIM's faulty-part observation —
//! real UPMEM boards ship with dead DPUs, e.g. 2524 of 2560 usable).
//!
//! One experiment, three stories:
//!
//! * **Serving under chaos** — the open-loop frontend at 60% of
//!   calibrated capacity, once fault-free and once under
//!   [`FaultPlan::chaos`] (5% dead-on-arrival DPUs, mid-run kills,
//!   failing/straggling transfer shards). The `degradation` row gates
//!   graceful degradation: goodput stays ≥ 90% of fault-free because
//!   the self-healing frontend routes around dead DPUs, retries failed
//!   shards, and re-dispatches stranded requests.
//! * **Corrupted frees** — a quarantine-armed allocator absorbing the
//!   plan's corrupted-free stream: every hostile free comes back as an
//!   `Err`, and past the budget the allocator seals itself instead of
//!   trusting poisoned metadata.
//! * **Heap-exhaustion pressure** — an allocator whose heap is shrunk
//!   by [`OOM_PRESSURE_FRAC`]: exhaustion surfaces as graceful
//!   `OutOfMemory` errors, never a panic.
//!
//! Both serve runs are seeded and single-threaded, and every fault
//! draw is a pure function of the plan — the experiment is
//! byte-identical for any `PIM_EXEC_WORKERS`.

use pim_malloc::{AllocError, AllocGeometry, PimAllocator, PimMalloc};
use pim_serving::{estimated_capacity_rps, serve, ArrivalProcess, ServeConfig, ServeReport};
use pim_sim::{parallel_indexed, DpuConfig, DpuSim, FaultPlan};
use pim_workloads::requests::standard_mix;

use crate::figures::serve_figs::{build, scaled};
use crate::report::{Experiment, Row};

/// Fraction of calibrated capacity the chaos comparison offers.
const CHAOS_LOAD: f64 = 0.6;
/// Invalid frees tolerated before the demo allocator quarantines.
const QUARANTINE_BUDGET: u32 = 16;
/// Allocator ops driven through the corrupted-free storm.
const STORM_OPS: u64 = 1024;
/// Fraction of the heap stolen before the exhaustion run.
const OOM_PRESSURE_FRAC: f64 = 0.5;

fn serve_row(label: &str, r: &ServeReport) -> Row {
    Row::new(
        label.to_string(),
        vec![
            ("offered krps", r.offered_rps / 1e3),
            ("achieved krps", r.achieved_rps / 1e3),
            ("goodput", r.goodput()),
            ("p99 ms", r.p99_ms()),
            ("drop frac", r.drop_frac()),
            ("healthy final", r.faults.healthy_final as f64),
        ],
    )
}

/// The corrupted-free storm: `STORM_OPS` valid allocations interleaved
/// with the plan's corrupted-free stream against a quarantine-armed
/// allocator. Returns (frees fired, caught as errors, quarantined,
/// live allocations preserved).
fn corrupted_free_storm(plan: &FaultPlan) -> (u64, u64, bool, u64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let cfg = AllocGeometry::sw(1)
        .with_heap_size(1 << 20)
        .with_quarantine(QUARANTINE_BUDGET)
        .build();
    let mut pm = PimMalloc::init(&mut dpu, cfg).expect("init");
    let mut ctx = dpu.ctx(0);
    let mut live: Vec<u32> = Vec::new();
    let mut fired = 0u64;
    let mut caught = 0u64;
    for nonce in 0..STORM_OPS {
        if !pm.is_quarantined() {
            // Keep a small working set of real allocations alive so
            // the storm rages against genuine heap state.
            if live.len() < 8 {
                if let Ok(addr) = pm.pim_malloc(&mut ctx, 64) {
                    live.push(addr);
                }
            } else if let Some(addr) = live.pop() {
                pm.pim_free(&mut ctx, addr).expect("valid free");
            }
        }
        if let Some(addr) = plan.corrupt_free_addr(nonce) {
            if live.contains(&addr) {
                continue; // astronomically unlikely collision
            }
            fired += 1;
            match pm.pim_free(&mut ctx, addr) {
                Err(AllocError::InvalidFree { .. }) | Err(AllocError::Quarantined { .. }) => {
                    caught += 1
                }
                other => panic!("corrupted free must error, got {other:?}"),
            }
        }
    }
    (fired, caught, pm.is_quarantined(), live.len() as u64)
}

/// Heap-exhaustion pressure: [`OOM_PRESSURE_FRAC`] of the heap is
/// stolen up front; allocation then runs to exhaustion. Returns
/// (successful allocations, graceful OOM errors observed).
fn oom_pressure_run() -> (u64, u64) {
    let full: u32 = 1 << 18;
    let usable = ((full as f64) * (1.0 - OOM_PRESSURE_FRAC)).max(4096.0) as u32;
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let cfg = AllocGeometry::sw(1).with_heap_size(usable).build();
    let mut pm = PimMalloc::init(&mut dpu, cfg).expect("init");
    let mut ctx = dpu.ctx(0);
    let mut ok = 0u64;
    let mut oom = 0u64;
    // Twice the unpressured capacity guarantees exhaustion.
    for _ in 0..(2 * full / 2048) {
        match pm.pim_malloc(&mut ctx, 2048) {
            Ok(_) => ok += 1,
            Err(AllocError::OutOfMemory { .. }) => oom += 1,
            Err(e) => panic!("exhaustion must surface as OutOfMemory, got {e}"),
        }
    }
    (ok, oom)
}

/// The `chaos` experiment (see the module docs).
pub fn chaos_resilience(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "chaos",
        "resilience under a scheduled fault plan: faulty fleet serving + allocator fault injection",
        "goodput within 10% of fault-free despite 5% dead DPUs, kills, and shard faults; \
         corrupted frees caught and quarantined; heap exhaustion degrades gracefully",
    );
    let base = scaled(quick, seed);
    let classes = standard_mix();
    let capacity = estimated_capacity_rps(&classes, &build, base.n_dpus);
    let arrival = ArrivalProcess::Poisson {
        rps: CHAOS_LOAD * capacity,
    };
    let plan = FaultPlan::chaos(seed);
    let cfgs = [
        base.with_arrival(arrival),
        ServeConfig {
            faults: plan,
            ..base.with_arrival(arrival)
        },
    ];
    let runs = parallel_indexed(cfgs.len(), |i| serve(&cfgs[i], &classes, &build));
    let (clean, chaos) = (&runs[0], &runs[1]);
    e.push(serve_row("fault-free", clean));
    e.push(serve_row("chaos", chaos));
    let f = &chaos.faults;
    e.push(Row::new(
        "self-healing",
        vec![
            ("doa dpus", f.doa_dpus as f64),
            ("killed dpus", f.killed_dpus as f64),
            ("retries", f.retries as f64),
            ("redispatched", f.redispatched as f64),
            ("failed shards", f.xfer_failed_shards as f64),
            ("straggled shards", f.xfer_straggled_shards as f64),
            ("fault drops", f.fault_drops() as f64),
        ],
    ));
    let clean_goodput = clean.goodput();
    e.push(Row::new(
        "degradation",
        vec![
            (
                "goodput ratio",
                if clean_goodput > 0.0 {
                    chaos.goodput() / clean_goodput
                } else {
                    0.0
                },
            ),
            (
                "p99 inflation",
                if clean.p99_ms() > 0.0 {
                    chaos.p99_ms() / clean.p99_ms()
                } else {
                    0.0
                },
            ),
            ("healthy frac", f.healthy_final as f64 / base.n_dpus as f64),
        ],
    ));

    // Allocator-level fault injection, from the same plan.
    let (fired, caught, quarantined, live) = corrupted_free_storm(&plan);
    e.push(Row::new(
        "alloc-quarantine",
        vec![
            ("corrupt frees", fired as f64),
            ("caught as err", caught as f64),
            ("quarantined", if quarantined { 1.0 } else { 0.0 }),
            ("live preserved", live as f64),
        ],
    ));
    let (ok, oom) = oom_pressure_run();
    e.push(Row::new(
        "alloc-oom-pressure",
        vec![
            ("pressure frac", OOM_PRESSURE_FRAC),
            ("allocs ok", ok as f64),
            ("graceful oom", oom as f64),
        ],
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_degrades_gracefully() {
        let e = chaos_resilience(true, 0xC4A05);
        let deg = e.row("degradation").unwrap();
        assert!(
            deg.value("goodput ratio").unwrap() >= 0.90,
            "self-healing must hold goodput within 10% of fault-free"
        );
        assert!(deg.value("healthy frac").unwrap() < 1.0, "chaos must bite");
        let heal = e.row("self-healing").unwrap();
        assert!(heal.value("doa dpus").unwrap() > 0.0);
    }

    #[test]
    fn corrupted_frees_are_contained() {
        let e = chaos_resilience(true, 0xC4A05);
        let q = e.row("alloc-quarantine").unwrap();
        let fired = q.value("corrupt frees").unwrap();
        assert!(fired > QUARANTINE_BUDGET as f64, "storm must exceed budget");
        assert_eq!(q.value("caught as err").unwrap(), fired, "all caught");
        assert_eq!(q.value("quarantined").unwrap(), 1.0, "budget exceeded");
    }

    #[test]
    fn oom_pressure_is_graceful() {
        let e = chaos_resilience(true, 0xC4A05);
        let r = e.row("alloc-oom-pressure").unwrap();
        assert!(r.value("allocs ok").unwrap() > 0.0);
        assert!(r.value("graceful oom").unwrap() > 0.0);
    }

    #[test]
    fn experiment_is_seed_deterministic() {
        let a = chaos_resilience(true, 7);
        let b = chaos_resilience(true, 7);
        assert_eq!(a.to_json(), b.to_json());
        let c = chaos_resilience(true, 8);
        assert_ne!(a.to_json(), c.to_json(), "fault seed must matter");
    }
}
