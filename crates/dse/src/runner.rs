//! Executes one design strategy and reports the latency split.

use pim_malloc::{PimAllocator, StrawManAllocator, StrawManConfig};
use pim_sim::{DpuConfig, DpuSim, HostConfig, SimContext};
use serde::{Deserialize, Serialize};

use crate::strategy::Strategy;

/// Configuration of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Number of PIM cores issuing allocation requests (1–512 in the
    /// paper's sweep).
    pub n_dpus: usize,
    /// Allocations requested per PIM core (paper: 128).
    pub allocs_per_dpu: usize,
    /// Size of each allocation in bytes (paper: 32 B).
    pub alloc_size: u32,
    /// Straw-man allocator geometry (32 MB heap, 32 B min block).
    pub straw_man: StrawManConfig,
    /// Host CPU model (Xeon Gold 5222-like: 8 hardware threads).
    pub host: HostConfig,
    /// Shared execution context: `ctx.batching` schedules host↔PIM
    /// traffic (per-DPU calls vs per-rank shards — what separates a
    /// naive host loop from a batched `dpu_push_xfer` data path).
    pub ctx: SimContext,
    /// Fixed cost of one `pimLaunch` kernel dispatch, microseconds.
    pub launch_us: f64,
    /// Host last-level cache capacity, bytes — determines how much of
    /// the per-DPU metadata stays cache-resident for host execution.
    pub host_llc_bytes: u64,
}

impl DseConfig {
    /// Returns the config with a different DPU count.
    pub fn with_dpus(mut self, n: usize) -> Self {
        self.n_dpus = n;
        self
    }
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            n_dpus: 512,
            allocs_per_dpu: 128,
            alloc_size: 32,
            straw_man: StrawManConfig::default(),
            host: HostConfig::default(),
            ctx: SimContext::default(),
            launch_us: 60.0,
            host_llc_bytes: 16 << 20,
        }
    }
}

/// Outcome of running one strategy: end-to-end seconds for all
/// `allocs_per_dpu` rounds, split into transfer and compute
/// (Figure 6(a) and 6(b)).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DseResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// Number of DPUs.
    pub n_dpus: usize,
    /// End-to-end latency in seconds.
    pub total_secs: f64,
    /// Seconds spent in host↔PIM data transfers.
    pub transfer_secs: f64,
    /// Seconds spent computing (host or PIM) plus launch overhead.
    pub compute_secs: f64,
    /// Host↔PIM transfer calls issued across all rounds — the fixed
    /// software overheads paid. Per-rank sharding pays one per
    /// occupied rank per plan; per-DPU scheduling pays one per DPU.
    pub transfer_calls: u64,
}

impl DseResult {
    /// Fraction of total time spent in DRAM↔PIM transfer (Fig 6(b)).
    pub fn transfer_fraction(&self) -> f64 {
        if self.total_secs == 0.0 {
            0.0
        } else {
            self.transfer_secs / self.total_secs
        }
    }
}

/// Measures the straw-man allocator on a real simulated DPU:
/// `(seconds per allocation, seconds for the whole batch)`.
fn pim_side_alloc_secs(config: &DseConfig) -> (f64, f64) {
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
    let mut alloc = StrawManAllocator::init(&mut dpu, config.straw_man).expect("straw-man init");
    let start = dpu.clock(0);
    for _ in 0..config.allocs_per_dpu {
        let mut ctx = dpu.ctx(0);
        alloc
            .pim_malloc(&mut ctx, config.alloc_size)
            .expect("heap large enough for the microbenchmark");
    }
    let cycles = dpu.clock(0) - start;
    let clock_mhz = dpu.config().cost.clock_mhz;
    let batch = cycles.as_secs(clock_mhz);
    (batch / config.allocs_per_dpu as f64, batch)
}

/// Host metadata accesses per allocation: one read and one write per
/// tree level on the descent, plus fixed overhead.
fn host_accesses_per_alloc(config: &DseConfig) -> u64 {
    let depth = u64::from(
        pim_malloc::BuddyGeometry::new(
            config.straw_man.heap_base,
            config.straw_man.heap_size,
            config.straw_man.min_block,
        )
        .depth(),
    );
    2 * (depth + 1) + 8
}

/// Fraction of host metadata accesses that miss to DRAM: grows as the
/// aggregate per-DPU metadata working set overflows the LLC.
fn host_miss_fraction(config: &DseConfig) -> f64 {
    let meta_bytes = u64::from(
        pim_malloc::BuddyGeometry::new(
            config.straw_man.heap_base,
            config.straw_man.heap_size,
            config.straw_man.min_block,
        )
        .metadata_bytes(),
    );
    let working = meta_bytes * config.n_dpus as u64;
    if working == 0 {
        return 0.05;
    }
    (1.0 - config.host_llc_bytes as f64 / working as f64).clamp(0.05, 0.95)
}

/// Runs one strategy of Table I and returns its latency split.
///
/// The modelled control flow follows Figure 5 of the paper: each of
/// the `allocs_per_dpu` rounds performs the strategy's per-round
/// compute plus the transfer plans [`Strategy::round_plans`] emits,
/// scheduled under the config context's batching policy.
/// `PimMetaPimExec` launches
/// once and the PIM cores run the entire batch locally, issuing no
/// host↔PIM traffic at all.
pub fn run_strategy(strategy: Strategy, config: &DseConfig) -> DseResult {
    let rounds = config.allocs_per_dpu;
    let meta_bytes = u64::from(
        pim_malloc::BuddyGeometry::new(
            config.straw_man.heap_base,
            config.straw_man.heap_size,
            config.straw_man.min_block,
        )
        .metadata_bytes(),
    );
    let (pim_alloc_secs, pim_batch_secs) = match strategy {
        Strategy::HostMetaPimExec | Strategy::PimMetaPimExec => pim_side_alloc_secs(config),
        _ => (0.0, 0.0),
    };
    let mut compute_secs = 0.0;

    match strategy {
        // Fig 5(a)/(c): parallel-for pimMalloc on the host every round
        // (plus, for P-M/H-E, the metadata pull the plans describe).
        Strategy::HostMetaHostExec | Strategy::PimMetaHostExec => {
            let accesses = host_accesses_per_alloc(config);
            let miss = host_miss_fraction(config);
            for _ in 0..rounds {
                compute_secs += config.host.parallel_for_secs(config.n_dpus, accesses, miss);
            }
        }
        // Fig 5(b): launch each round; PIM cores allocate.
        Strategy::HostMetaPimExec => {
            for _ in 0..rounds {
                compute_secs += config.launch_us * 1e-6 + pim_alloc_secs;
            }
        }
        // Fig 5(d): one launch; everything stays PIM-local.
        Strategy::PimMetaPimExec => {
            compute_secs += config.launch_us * 1e-6 + pim_batch_secs;
        }
    }

    // The strategy's per-round traffic, scheduled by the policy.
    let plans = strategy.round_plans(config.n_dpus, meta_bytes);
    let planner = config.ctx.planner();
    let (mut transfer_secs, mut transfer_calls) = (0.0, 0);
    for _ in 0..rounds {
        for plan in &plans {
            let estimate = planner.estimate(plan);
            transfer_secs += estimate.secs;
            transfer_calls += estimate.calls;
        }
    }

    DseResult {
        strategy,
        n_dpus: config.n_dpus,
        total_secs: transfer_secs + compute_secs,
        transfer_secs,
        compute_secs,
        transfer_calls,
    }
}

/// Runs every strategy over a list of DPU counts (the Figure 6(a)
/// sweep). Results are ordered strategy-major, in [`Strategy::ALL`]
/// order.
///
/// Each grid point is an independent simulation (its own `DpuSim` and
/// host model), so the sweep fans out over the machine's cores via
/// [`pim_sim::parallel_indexed`] and merges results back in grid order —
/// the output is identical to the serial double loop it replaced, for
/// any worker count.
pub fn sweep(config: &DseConfig, dpu_counts: &[usize]) -> Vec<DseResult> {
    let grid: Vec<(Strategy, usize)> = Strategy::ALL
        .iter()
        .flat_map(|&s| dpu_counts.iter().map(move |&n| (s, n)))
        .collect();
    pim_sim::parallel_indexed(grid.len(), |i| {
        let (strategy, n) = grid[i];
        run_strategy(strategy, &config.clone().with_dpus(n))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::HostBatching;

    fn cfg(n: usize) -> DseConfig {
        DseConfig::default().with_dpus(n)
    }

    #[test]
    fn pim_meta_pim_exec_is_flat_in_dpu_count() {
        let one = run_strategy(Strategy::PimMetaPimExec, &cfg(1));
        let many = run_strategy(Strategy::PimMetaPimExec, &cfg(512));
        assert!(
            (many.total_secs / one.total_secs) < 1.01,
            "local execution must not scale with DPU count: {} vs {}",
            one.total_secs,
            many.total_secs
        );
    }

    #[test]
    fn metadata_moving_strategies_scale_worst() {
        // Figure 6(a): at 512 cores, the two metadata-moving designs
        // are the slowest, and everything is slower than P-M/P-E.
        let results: Vec<DseResult> = Strategy::ALL
            .iter()
            .map(|&s| run_strategy(s, &cfg(512)))
            .collect();
        let by = |s: Strategy| results.iter().find(|r| r.strategy == s).unwrap().total_secs;
        let best = by(Strategy::PimMetaPimExec);
        let gray = by(Strategy::HostMetaHostExec);
        let black = by(Strategy::HostMetaPimExec);
        let yellow = by(Strategy::PimMetaHostExec);
        assert!(best < gray && best < black && best < yellow);
        assert!(black > gray, "metadata push must dominate host compute");
        assert!(yellow > gray);
        // Seconds-scale at 512 cores for the worst designs, as in Fig 6.
        assert!(black > 1.0, "expected seconds-scale latency, got {black}");
    }

    #[test]
    fn host_executed_latency_grows_with_dpus() {
        let small = run_strategy(Strategy::HostMetaHostExec, &cfg(8));
        let large = run_strategy(Strategy::HostMetaHostExec, &cfg(512));
        assert!(large.total_secs > small.total_secs * 10.0);
    }

    #[test]
    fn transfer_dominates_metadata_moving_strategies() {
        // Figure 6(b): >75% of H-M/P-E and P-M/H-E latency is transfer.
        for s in [Strategy::HostMetaPimExec, Strategy::PimMetaHostExec] {
            let r = run_strategy(s, &cfg(512));
            assert!(
                r.transfer_fraction() > 0.75,
                "{s}: transfer fraction {}",
                r.transfer_fraction()
            );
        }
        // And compute dominates H-M/H-E.
        let r = run_strategy(Strategy::HostMetaHostExec, &cfg(512));
        assert!(r.transfer_fraction() < 0.5);
        // P-M/P-E performs no host↔PIM transfers at all.
        let r = run_strategy(Strategy::PimMetaPimExec, &cfg(512));
        assert_eq!(r.transfer_secs, 0.0);
    }

    #[test]
    fn sweep_covers_all_strategy_count_pairs() {
        let rows = sweep(&DseConfig::default(), &[1, 16, 512]);
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.total_secs > 0.0));
        assert!(
            (rows[0].transfer_fraction() - rows[0].transfer_secs / rows[0].total_secs).abs()
                < 1e-12
        );
    }

    #[test]
    fn sharded_batching_models_rank_not_dpu_call_overheads() {
        // The PR 3 acceptance sweep: at 256 DPUs a host-executed
        // strategy pays per-*rank* call overheads under sharded
        // batching (4 ranks × 128 rounds) and per-*DPU* overheads
        // without it (256 × 128) — strictly fewer calls, lower
        // transfer time, identical compute.
        let base = cfg(256);
        let per_dpu = run_strategy(
            Strategy::HostMetaHostExec,
            &DseConfig {
                ctx: base.ctx.with_batching(HostBatching::PerDpu),
                ..base.clone()
            },
        );
        let sharded = run_strategy(
            Strategy::HostMetaHostExec,
            &DseConfig {
                ctx: base.ctx.with_batching(HostBatching::Sharded),
                ..base
            },
        );
        let rounds = 128u64;
        assert_eq!(per_dpu.transfer_calls, rounds * 256);
        assert_eq!(sharded.transfer_calls, rounds * (256 / 64));
        assert!(sharded.transfer_calls < per_dpu.transfer_calls);
        assert!(
            sharded.transfer_secs < per_dpu.transfer_secs / 10.0,
            "batched {} vs per-DPU {}",
            sharded.transfer_secs,
            per_dpu.transfer_secs
        );
        assert_eq!(sharded.compute_secs, per_dpu.compute_secs);
        // The on-DPU design point is untouched by the policy.
        for batching in [HostBatching::PerDpu, HostBatching::Sharded] {
            let base = cfg(256);
            let r = run_strategy(
                Strategy::PimMetaPimExec,
                &DseConfig {
                    ctx: base.ctx.with_batching(batching),
                    ..base
                },
            );
            assert_eq!(r.transfer_calls, 0);
            assert_eq!(r.transfer_secs, 0.0);
        }
    }

    #[test]
    fn totals_are_consistent() {
        for s in Strategy::ALL {
            let r = run_strategy(s, &cfg(64));
            assert!(
                (r.total_secs - r.transfer_secs - r.compute_secs).abs() < 1e-12,
                "{s}"
            );
        }
    }
}
