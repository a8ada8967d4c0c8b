//! Analytic model of the host CPU and the host↔PIM data path.
//!
//! The design-space exploration of the paper (Table I / Figure 6) pits
//! *where metadata lives* against *which processor runs the allocator*.
//! Reproducing it needs three host-side cost terms:
//!
//! 1. **Parallel-for dispatch** — UPMEM's reference flow parallelizes
//!    per-DPU allocator work with `pthreads`; spawning and joining one
//!    worker per DPU costs microseconds *per worker, serially in the
//!    parent*, which is what makes "Host-Executed" strategies scale
//!    poorly beyond a few dozen DPUs.
//! 2. **Host compute** — the buddy traversal itself, dominated on the
//!    host by last-level-cache misses over thousands of distinct
//!    per-DPU metadata sets.
//! 3. **Host↔PIM transfers** — `dpu_push_xfer`-style batched copies.
//!    Ranks move data in parallel, but the shared memory channel caps
//!    aggregate bandwidth, so broadcasting distinct per-DPU buffers
//!    scales linearly in total bytes beyond a couple of ranks.
//!
//! All results are in **seconds** (host-side wall clock), unlike the
//! DPU model which works in cycles.

use serde::{Deserialize, Serialize};

/// Direction of a host↔PIM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferDirection {
    /// Host DRAM → PIM MRAM (`dpu_push_xfer(..., DPU_XFER_TO_DPU)`).
    HostToPim,
    /// PIM MRAM → host DRAM (`dpu_push_xfer(..., DPU_XFER_FROM_DPU)`).
    PimToHost,
}

/// Bandwidth/latency model of the host↔PIM data path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// Fixed software overhead per transfer call, in microseconds
    /// (runtime entry, rank programming, cache maintenance).
    pub base_us_per_call: f64,
    /// Sustained bandwidth of one rank's data path, GB/s.
    pub rank_bw_gbps: f64,
    /// Aggregate bandwidth cap of the shared memory channel, GB/s.
    pub channel_bw_gbps: f64,
    /// DPUs per rank (64 on UPMEM DIMMs).
    pub dpus_per_rank: usize,
    /// Channel-arbitration overhead per *additional* concurrent rank
    /// shard, microseconds: every shard beyond the first interleaves
    /// its bursts with the others on the shared channel and pays
    /// re-arbitration for the privilege.
    pub channel_arb_us: f64,
}

impl TransferModel {
    /// Seconds for a [`TransferPlan`](crate::TransferPlan) issued as **one call per DPU
    /// buffer**: each non-empty buffer pays the fixed per-call
    /// overhead, calls issue serially in the host thread, and only one
    /// rank data path is ever active (so the shared channel never
    /// binds — a single rank cannot saturate it).
    pub fn per_dpu_transfer_secs(&self, plan: &crate::xfer::TransferPlan) -> f64 {
        let mut secs = 0.0;
        for &(_, bytes) in plan.entries() {
            if bytes > 0 {
                secs += self.base_us_per_call * 1e-6 + bytes as f64 / (self.rank_bw_gbps * 1e9);
            }
        }
        secs
    }

    /// Number of distinct ranks a plan's non-empty buffers land on —
    /// the calls a rank-sharded schedule issues.
    pub fn shard_count(&self, plan: &crate::xfer::TransferPlan) -> usize {
        self.rank_loads(plan).len()
    }

    /// Seconds for a [`TransferPlan`](crate::TransferPlan) issued as **one batched call per
    /// occupied rank** (`dpu_push_xfer` style): the fixed per-call
    /// overhead is paid once per shard (serially, in the dispatching
    /// host thread), the rank data paths then proceed in parallel
    /// capped by the shared channel, and every shard beyond the first
    /// pays [`TransferModel::channel_arb_us`] of channel arbitration.
    ///
    /// This is the *raw* sharded price; [`crate::ShardedXfer`] compares
    /// it against [`TransferModel::per_dpu_transfer_secs`] and falls
    /// back when sharding cannot win.
    pub fn batched_transfer_secs(&self, plan: &crate::xfer::TransferPlan) -> f64 {
        self.batched_secs_from_loads(&self.rank_loads(plan))
    }

    /// [`TransferModel::batched_transfer_secs`] over already-grouped
    /// rank loads, so planners that need the loads anyway don't group
    /// twice.
    pub(crate) fn batched_secs_from_loads(&self, loads: &[(usize, u64)]) -> f64 {
        if loads.is_empty() {
            return 0.0;
        }
        let shards = loads.len() as f64;
        let fullest: u64 = loads.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let total: u64 = loads.iter().map(|&(_, b)| b).sum();
        let rank_secs = fullest as f64 / (self.rank_bw_gbps * 1e9);
        let channel_secs = total as f64 / (self.channel_bw_gbps * 1e9);
        let overhead =
            (shards * self.base_us_per_call + (shards - 1.0) * self.channel_arb_us) * 1e-6;
        overhead + rank_secs.max(channel_secs)
    }

    /// `(rank, bytes)` for every rank with a non-empty buffer, rank
    /// order.
    pub(crate) fn rank_loads(&self, plan: &crate::xfer::TransferPlan) -> Vec<(usize, u64)> {
        assert!(self.dpus_per_rank > 0, "a rank holds at least one DPU");
        let mut loads: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
        for &(dpu, bytes) in plan.entries() {
            if bytes > 0 {
                *loads.entry(dpu / self.dpus_per_rank).or_insert(0) += bytes;
            }
        }
        loads.into_iter().collect()
    }
}

impl Default for TransferModel {
    /// Calibrated against UPMEM transfer measurements (Lee et al., CAL
    /// 2024): ~0.8 GB/s per rank, ~2.5 GB/s channel cap, tens of
    /// microseconds of fixed overhead per batched call.
    fn default() -> Self {
        TransferModel {
            base_us_per_call: 25.0,
            rank_bw_gbps: 0.8,
            channel_bw_gbps: 2.5,
            dpus_per_rank: 64,
            channel_arb_us: 3.0,
        }
    }
}

/// Configuration of the host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Hardware threads usable by a parallel-for (Xeon Gold 5222:
    /// 4 cores / 8 threads).
    pub threads: usize,
    /// Cost to spawn-and-join one pthread worker, microseconds,
    /// paid serially in the dispatching thread.
    pub thread_spawn_us: f64,
    /// Cost of one metadata access that misses to DRAM, nanoseconds.
    pub dram_access_ns: f64,
    /// Cost of one metadata access that hits in cache, nanoseconds.
    pub cached_access_ns: f64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            threads: 8,
            thread_spawn_us: 12.0,
            dram_access_ns: 90.0,
            cached_access_ns: 2.0,
        }
    }
}

/// The host CPU: executes allocator work on behalf of DPUs and issues
/// host↔PIM transfers, accumulating seconds of wall-clock time split
/// into compute and transfer.
#[derive(Debug, Clone)]
pub struct HostSim {
    config: HostConfig,
    transfer_model: TransferModel,
    compute_secs: f64,
    transfer_secs: f64,
    bytes_moved: u64,
    transfer_calls: u64,
}

impl HostSim {
    /// Creates a host with the given CPU and transfer models.
    pub fn new(config: HostConfig, transfer_model: TransferModel) -> Self {
        HostSim {
            config,
            transfer_model,
            compute_secs: 0.0,
            transfer_secs: 0.0,
            bytes_moved: 0,
            transfer_calls: 0,
        }
    }

    /// The host CPU configuration.
    pub fn config(&self) -> HostConfig {
        self.config
    }

    /// The transfer model in use.
    pub fn transfer_model(&self) -> TransferModel {
        self.transfer_model
    }

    /// Runs a parallel-for of `n_workers` independent tasks, each
    /// performing `accesses_per_worker` metadata accesses of which
    /// `miss_fraction` go to DRAM. Returns the elapsed seconds (also
    /// accumulated into [`HostSim::compute_secs`]).
    ///
    /// Model: spawning is serial in the parent
    /// (`n_workers × thread_spawn_us`); the work itself runs with
    /// `min(threads, n_workers)`-way parallelism.
    pub fn parallel_for(
        &mut self,
        n_workers: usize,
        accesses_per_worker: u64,
        miss_fraction: f64,
    ) -> f64 {
        assert!(
            (0.0..=1.0).contains(&miss_fraction),
            "miss fraction must be in [0, 1]"
        );
        if n_workers == 0 {
            return 0.0;
        }
        let spawn = n_workers as f64 * self.config.thread_spawn_us * 1e-6;
        let per_access_ns = miss_fraction * self.config.dram_access_ns
            + (1.0 - miss_fraction) * self.config.cached_access_ns;
        let per_worker = accesses_per_worker as f64 * per_access_ns * 1e-9;
        let lanes = self.config.threads.min(n_workers) as f64;
        let work = per_worker * (n_workers as f64 / lanes).ceil();
        let elapsed = spawn + work;
        self.compute_secs += elapsed;
        elapsed
    }

    /// Executes a [`crate::TransferPlan`] under `policy`, accumulating
    /// the modeled seconds, bytes, and the *actual* number of transfer
    /// calls the chosen schedule issues (one per non-empty buffer for
    /// per-DPU, one per occupied rank for sharded). Returns the
    /// planner's estimate.
    pub fn transfer_plan(
        &mut self,
        plan: &crate::xfer::TransferPlan,
        policy: crate::xfer::HostBatching,
    ) -> crate::xfer::XferEstimate {
        let estimate = crate::xfer::ShardedXfer::new(self.transfer_model, policy).estimate(plan);
        self.transfer_secs += estimate.secs;
        self.bytes_moved += estimate.bytes;
        self.transfer_calls += estimate.calls;
        estimate
    }

    /// Seconds spent in host compute so far.
    pub fn compute_secs(&self) -> f64 {
        self.compute_secs
    }

    /// Seconds spent in host↔PIM transfers so far.
    pub fn transfer_secs(&self) -> f64 {
        self.transfer_secs
    }

    /// Total host-side wall clock (compute + transfer).
    pub fn total_secs(&self) -> f64 {
        self.compute_secs + self.transfer_secs
    }

    /// Total bytes moved across the host↔PIM boundary.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfer calls issued.
    pub fn transfer_calls(&self) -> u64 {
        self.transfer_calls
    }

    /// Resets all accumulated time and traffic.
    pub fn reset(&mut self) {
        self.compute_secs = 0.0;
        self.transfer_secs = 0.0;
        self.bytes_moved = 0;
        self.transfer_calls = 0;
    }
}

impl Default for HostSim {
    fn default() -> Self {
        HostSim::new(HostConfig::default(), TransferModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_spawn_cost_is_serial() {
        let mut h = HostSim::default();
        let one = h.parallel_for(1, 0, 0.0);
        h.reset();
        let many = h.parallel_for(512, 0, 0.0);
        assert!((many / one - 512.0).abs() < 1.0, "ratio {}", many / one);
    }

    #[test]
    fn parallel_for_work_parallelizes_up_to_thread_count() {
        let cfg = HostConfig {
            thread_spawn_us: 0.0,
            ..HostConfig::default()
        };
        let mut h = HostSim::new(cfg, TransferModel::default());
        let t8 = h.parallel_for(8, 1_000_000, 1.0);
        h.reset();
        let t16 = h.parallel_for(16, 1_000_000, 1.0);
        // 16 workers on 8 threads take twice as long as 8 workers.
        assert!((t16 / t8 - 2.0).abs() < 0.01, "ratio {}", t16 / t8);
    }

    #[test]
    fn miss_fraction_interpolates_access_cost() {
        let cfg = HostConfig {
            thread_spawn_us: 0.0,
            ..HostConfig::default()
        };
        let mut h = HostSim::new(cfg, TransferModel::default());
        let hot = h.parallel_for(1, 1_000_000, 0.0);
        h.reset();
        let cold = h.parallel_for(1, 1_000_000, 1.0);
        assert!(
            cold > hot * 10.0,
            "DRAM misses must dominate: {cold} vs {hot}"
        );
    }

    #[test]
    #[should_panic(expected = "miss fraction")]
    fn bad_miss_fraction_panics() {
        HostSim::default().parallel_for(1, 1, 1.5);
    }

    #[test]
    fn transfer_plan_accounts_calls_by_schedule() {
        use crate::xfer::{HostBatching, TransferPlan};
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 128, 64);
        let mut h = HostSim::default();
        let e = h.transfer_plan(&plan, HostBatching::PerDpu);
        assert_eq!(e.calls, 128);
        assert_eq!(h.transfer_calls(), 128);
        assert_eq!(h.bytes_moved(), 128 * 64);
        h.reset();
        let e = h.transfer_plan(&plan, HostBatching::Sharded);
        assert_eq!(e.calls, 2, "128 DPUs = 2 ranks");
        assert_eq!(h.transfer_calls(), 2);
        assert!((h.transfer_secs() - e.secs).abs() < 1e-15);
    }

    #[test]
    fn accounting_accumulates_and_resets() {
        use crate::xfer::{HostBatching, TransferPlan};
        let mut h = HostSim::default();
        h.parallel_for(4, 100, 0.5);
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 4, 1024);
        h.transfer_plan(&plan, HostBatching::Sharded);
        assert!(h.compute_secs() > 0.0);
        assert!(h.transfer_secs() > 0.0);
        assert_eq!(h.bytes_moved(), 4096);
        assert_eq!(h.transfer_calls(), 1);
        assert!((h.total_secs() - h.compute_secs() - h.transfer_secs()).abs() < 1e-15);
        h.reset();
        assert_eq!(h.total_secs(), 0.0);
        assert_eq!(h.bytes_moved(), 0);
    }
}
