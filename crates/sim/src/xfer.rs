//! Sharded host↔PIM transfer batching.
//!
//! Real UPMEM deployments live or die by how host↔PIM traffic is
//! *scheduled*: a naive host issues one `dpu_copy_to`-style call per
//! DPU and pays the fixed software overhead (runtime entry, rank
//! programming, cache maintenance) serially for every DPU, while a
//! batched `dpu_push_xfer` programs each **rank** once and lets the
//! ranks' data paths proceed in parallel under the shared memory
//! channel's bandwidth cap. This module models both schedules over one
//! description of the traffic:
//!
//! * [`TransferPlan`] — the per-DPU buffers of one logical transfer
//!   (possibly non-uniform: each DPU may move a different byte count).
//! * [`HostBatching`] — the scheduling policy: per-DPU calls or
//!   per-rank shards.
//! * [`ShardedXfer`] — the planner: groups a plan's buffers into
//!   per-rank shards (via [`TransferModel::dpus_per_rank`]), charges
//!   one `base_us_per_call` per shard instead of per DPU, overlaps the
//!   rank data paths, and models channel arbitration between
//!   concurrent shards. When sharding cannot win (e.g. a handful of
//!   tiny buffers spread one-per-rank, where arbitration eats the
//!   amortization), the planner falls back to the per-DPU schedule —
//!   so a batched plan never costs more than the per-DPU calls it
//!   replaces.
//!
//! The split keeps *what moves* (the plan, emitted by workloads)
//! separate from *how it moves* (the policy), which is what lets the
//! DSE and overhead figures sweep batched vs. unbatched without
//! touching workload code.

use serde::{Deserialize, Serialize};

use crate::fault::{FaultPlan, ShardFault};
use crate::host::{TransferDirection, TransferModel};

/// How the host schedules the per-DPU buffers of a [`TransferPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostBatching {
    /// One transfer call per DPU buffer (`dpu_copy_to` in a loop):
    /// every buffer pays the fixed per-call overhead, calls issue
    /// serially, and only one rank's data path is active at a time.
    PerDpu,
    /// One transfer call per occupied rank (`dpu_push_xfer`): the
    /// per-call overhead is paid once per shard, rank data paths
    /// overlap, and concurrent shards arbitrate for the shared
    /// channel. Falls back to per-DPU calls when that is cheaper.
    Sharded,
}

impl HostBatching {
    /// Label used in result tables and sweep rows.
    pub fn label(self) -> &'static str {
        match self {
            HostBatching::PerDpu => "per-DPU calls",
            HostBatching::Sharded => "per-rank shards",
        }
    }
}

impl Default for HostBatching {
    /// Rank-sharded batching — what a tuned UPMEM host program does.
    fn default() -> Self {
        HostBatching::Sharded
    }
}

/// One logical host↔PIM transfer: a direction plus the per-DPU buffers
/// it moves. Buffers may be non-uniform; zero-byte entries are legal
/// and cost nothing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferPlan {
    direction: TransferDirection,
    entries: Vec<(usize, u64)>,
}

impl TransferPlan {
    /// An empty plan in the given direction.
    pub fn new(direction: TransferDirection) -> Self {
        TransferPlan {
            direction,
            entries: Vec::new(),
        }
    }

    /// The common case: `bytes_per_dpu` to or from each of DPUs
    /// `0..n_dpus`.
    pub fn uniform(direction: TransferDirection, n_dpus: usize, bytes_per_dpu: u64) -> Self {
        TransferPlan {
            direction,
            entries: (0..n_dpus).map(|d| (d, bytes_per_dpu)).collect(),
        }
    }

    /// Appends one DPU's buffer.
    pub fn push(&mut self, dpu: usize, bytes: u64) {
        self.entries.push((dpu, bytes));
    }

    /// Removes every buffer, keeping the direction and the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Transfer direction.
    pub fn direction(&self) -> TransferDirection {
        self.direction
    }

    /// The `(dpu index, bytes)` buffers, in insertion order.
    pub fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }

    /// Number of non-empty buffers — the calls a per-DPU schedule
    /// would issue.
    pub fn buffer_count(&self) -> usize {
        self.entries.iter().filter(|&&(_, b)| b > 0).count()
    }

    /// Total bytes the plan moves.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|&(_, b)| b).sum()
    }

    /// True if the plan moves no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.total_bytes() == 0
    }
}

/// The planner's verdict on one [`TransferPlan`] under one policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XferEstimate {
    /// Modeled host wall-clock seconds for the whole plan.
    pub secs: f64,
    /// Transfer calls the chosen schedule issues (per-DPU: one per
    /// non-empty buffer; sharded: one per occupied rank).
    pub calls: u64,
    /// Occupied ranks — what the sharded schedule's call count would
    /// be, regardless of the policy chosen.
    pub shards: usize,
    /// Total bytes moved.
    pub bytes: u64,
    /// True when the sharded policy fell back to per-DPU calls because
    /// sharding could not beat them (tiny buffers spread across ranks).
    pub fell_back: bool,
}

impl XferEstimate {
    fn zero() -> Self {
        XferEstimate {
            secs: 0.0,
            calls: 0,
            shards: 0,
            bytes: 0,
            fell_back: false,
        }
    }
}

/// A [`ShardedXfer`] estimate priced under a [`FaultPlan`]: the base
/// estimate plus which rank shards failed or straggled and what the
/// stragglers cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultyXferEstimate {
    /// The schedule's estimate with straggle inflation already folded
    /// into `est.secs` (failed shards still pay their call + data time:
    /// the host only learns of the failure after issuing the call).
    pub est: XferEstimate,
    /// DPUs whose payload never landed because their rank shard failed
    /// (ascending, deduplicated). The sender must retry or drop them.
    pub failed_dpus: Vec<usize>,
    /// Rank shards that failed outright.
    pub failed_shards: u64,
    /// Rank shards that completed but straggled.
    pub straggled_shards: u64,
    /// Extra seconds the slowest straggler added to the plan.
    pub straggle_secs: f64,
}

impl FaultyXferEstimate {
    /// A fault-free wrapper around a plain estimate.
    fn clean(est: XferEstimate) -> Self {
        FaultyXferEstimate {
            est,
            failed_dpus: Vec::new(),
            failed_shards: 0,
            straggled_shards: 0,
            straggle_secs: 0.0,
        }
    }
}

/// Groups a plan's per-DPU buffers into per-rank shards and prices
/// both schedules; see the module docs for the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardedXfer {
    model: TransferModel,
    policy: HostBatching,
}

impl ShardedXfer {
    /// A planner over `model` using `policy`.
    pub fn new(model: TransferModel, policy: HostBatching) -> Self {
        ShardedXfer { model, policy }
    }

    /// The transfer model in use.
    pub fn model(&self) -> TransferModel {
        self.model
    }

    /// The scheduling policy in use.
    pub fn policy(&self) -> HostBatching {
        self.policy
    }

    /// Prices `plan` under the planner's policy.
    ///
    /// Under [`HostBatching::Sharded`] the estimate never exceeds the
    /// per-DPU schedule's cost: if per-rank batching cannot win, the
    /// planner issues per-DPU calls instead (`fell_back` is set).
    ///
    /// ```
    /// use pim_sim::{HostBatching, ShardedXfer, TransferDirection, TransferModel, TransferPlan};
    /// let plan = TransferPlan::uniform(TransferDirection::HostToPim, 256, 4096);
    /// let model = TransferModel::default();
    /// let per_dpu = ShardedXfer::new(model, HostBatching::PerDpu).estimate(&plan);
    /// let sharded = ShardedXfer::new(model, HostBatching::Sharded).estimate(&plan);
    /// assert_eq!(per_dpu.calls, 256);
    /// assert_eq!(sharded.calls, 4, "256 DPUs / 64 per rank = 4 shards");
    /// assert!(sharded.secs < per_dpu.secs);
    /// ```
    pub fn estimate(&self, plan: &TransferPlan) -> XferEstimate {
        self.estimate_loads(plan, &self.model.rank_loads(plan))
    }

    /// [`estimate`](Self::estimate) given `plan`'s rank loads. Both
    /// schedule prices, the byte total and the shard count derive from
    /// them, so a plan is grouped once per estimate (this runs per
    /// dispatch window in the serving loop).
    fn estimate_loads(&self, plan: &TransferPlan, loads: &[(usize, u64)]) -> XferEstimate {
        if loads.is_empty() {
            return XferEstimate::zero();
        }
        let per_dpu_secs = self.model.per_dpu_transfer_secs(plan);
        let shards = loads.len();
        let bytes = loads.iter().map(|&(_, b)| b).sum();
        match self.policy {
            HostBatching::PerDpu => XferEstimate {
                secs: per_dpu_secs,
                calls: plan.buffer_count() as u64,
                shards,
                bytes,
                fell_back: false,
            },
            HostBatching::Sharded => {
                let batched_secs = self.model.batched_secs_from_loads(loads);
                if batched_secs <= per_dpu_secs {
                    XferEstimate {
                        secs: batched_secs,
                        calls: shards as u64,
                        shards,
                        bytes,
                        fell_back: false,
                    }
                } else {
                    XferEstimate {
                        secs: per_dpu_secs,
                        calls: plan.buffer_count() as u64,
                        shards,
                        bytes,
                        fell_back: true,
                    }
                }
            }
        }
    }

    /// Prices `plan` under `faults`, attributing per-rank shard
    /// outcomes drawn for transfer identity `nonce` (callers pass a
    /// deterministic transfer ordinal, e.g. the serving loop's flush
    /// counter).
    ///
    /// Failed shards still pay their call and data time — the host
    /// only learns a shard failed after issuing it — but their DPUs'
    /// payloads never land (`failed_dpus`). Straggling shards inflate
    /// the plan by `straggle_factor`× the slowest straggler's rank
    /// data time. With transfer faults off this is exactly
    /// [`ShardedXfer::estimate`], with no shard failed or straggled.
    pub fn estimate_with_faults(
        &self,
        plan: &TransferPlan,
        faults: &FaultPlan,
        nonce: u64,
    ) -> FaultyXferEstimate {
        let loads = self.model.rank_loads(plan);
        let est = self.estimate_loads(plan, &loads);
        if !faults.xfer_enabled() || est.bytes == 0 {
            return FaultyXferEstimate::clean(est);
        }
        // Ascending, as `loads` is in rank order.
        let mut failed_ranks: Vec<usize> = Vec::new();
        let mut failed_shards = 0u64;
        let mut straggled_shards = 0u64;
        let mut straggle_secs: f64 = 0.0;
        for &(rank, bytes) in &loads {
            match faults.shard_fault(nonce, rank as u64) {
                ShardFault::Fail => {
                    failed_shards += 1;
                    failed_ranks.push(rank);
                }
                ShardFault::Straggle => {
                    straggled_shards += 1;
                    let data_secs = bytes as f64 / (self.model.rank_bw_gbps * 1e9);
                    straggle_secs = straggle_secs.max(faults.straggle_factor * data_secs);
                }
                ShardFault::None => {}
            }
        }
        let mut failed_dpus: Vec<usize> = plan
            .entries()
            .iter()
            .filter(|&&(dpu, bytes)| {
                bytes > 0
                    && failed_ranks
                        .binary_search(&(dpu / self.model.dpus_per_rank))
                        .is_ok()
            })
            .map(|&(dpu, _)| dpu)
            .collect();
        failed_dpus.sort_unstable();
        failed_dpus.dedup();
        FaultyXferEstimate {
            est: XferEstimate {
                secs: est.secs + straggle_secs,
                ..est
            },
            failed_dpus,
            failed_shards,
            straggled_shards,
            straggle_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransferModel {
        TransferModel::default()
    }

    #[test]
    fn empty_and_zero_byte_plans_are_free() {
        for policy in [HostBatching::PerDpu, HostBatching::Sharded] {
            let planner = ShardedXfer::new(model(), policy);
            let empty = TransferPlan::new(TransferDirection::HostToPim);
            let zeros = TransferPlan::uniform(TransferDirection::PimToHost, 128, 0);
            for plan in [empty, zeros] {
                let e = planner.estimate(&plan);
                assert_eq!(e.secs, 0.0);
                assert_eq!(e.calls, 0);
                assert_eq!(e.bytes, 0);
            }
        }
    }

    #[test]
    fn zero_byte_entries_do_not_become_calls() {
        let mut plan = TransferPlan::new(TransferDirection::HostToPim);
        plan.push(0, 4096);
        plan.push(1, 0);
        plan.push(200, 4096); // rank 3 with default 64 DPUs/rank
        let per_dpu = ShardedXfer::new(model(), HostBatching::PerDpu).estimate(&plan);
        assert_eq!(per_dpu.calls, 2);
        let sharded = ShardedXfer::new(model(), HostBatching::Sharded).estimate(&plan);
        assert_eq!(sharded.shards, 2);
    }

    #[test]
    fn partially_filled_last_rank_counts_as_a_shard() {
        // 65 DPUs = one full rank + one DPU in the next: two shards.
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 65, 1024);
        let e = ShardedXfer::new(model(), HostBatching::Sharded).estimate(&plan);
        assert_eq!(e.shards, 2);
        assert_eq!(e.calls, 2);
        // The fullest rank (64 DPUs) sets the rank-serial data time.
        let expected_data = (64.0 * 1024.0) / (model().rank_bw_gbps * 1e9);
        assert!(e.secs >= expected_data);
    }

    #[test]
    fn single_dpu_sharded_equals_per_dpu() {
        // One DPU is one shard: same base overhead, same data path, no
        // arbitration — the schedules are indistinguishable.
        let plan = TransferPlan::uniform(TransferDirection::PimToHost, 1, 1 << 20);
        let per_dpu = ShardedXfer::new(model(), HostBatching::PerDpu).estimate(&plan);
        let sharded = ShardedXfer::new(model(), HostBatching::Sharded).estimate(&plan);
        assert!((per_dpu.secs - sharded.secs).abs() < 1e-15);
        assert_eq!(per_dpu.calls, 1);
        assert_eq!(sharded.calls, 1);
    }

    #[test]
    fn channel_capped_regime_bounds_the_batching_win() {
        // Data-dominated transfers: per-DPU serializes every buffer on
        // one rank path, sharding runs into the channel cap, so the
        // speedup approaches channel_bw / rank_bw and no more.
        let m = model();
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 512, 8 << 20);
        let per_dpu = ShardedXfer::new(m, HostBatching::PerDpu).estimate(&plan);
        let sharded = ShardedXfer::new(m, HostBatching::Sharded).estimate(&plan);
        let speedup = per_dpu.secs / sharded.secs;
        let cap = m.channel_bw_gbps / m.rank_bw_gbps;
        // Per-DPU also pays 512 base overheads, so the observed ratio
        // may exceed the pure bandwidth ratio by that sliver at most.
        assert!(speedup <= cap * 1.01, "speedup {speedup} beyond cap {cap}");
        assert!(
            speedup > cap * 0.9,
            "data-dominated run should sit near the cap"
        );
        // Batching can never beat the channel's aggregate bandwidth.
        assert!(sharded.secs >= plan.total_bytes() as f64 / (m.channel_bw_gbps * 1e9));
    }

    #[test]
    fn sharded_falls_back_when_batching_cannot_help() {
        // One tiny buffer per rank: sharding saves nothing on call
        // overhead (shards == buffers) and would add arbitration, so
        // the planner issues per-DPU calls.
        let mut plan = TransferPlan::new(TransferDirection::HostToPim);
        for rank in 0..8 {
            plan.push(rank * model().dpus_per_rank, 8);
        }
        let per_dpu = ShardedXfer::new(model(), HostBatching::PerDpu).estimate(&plan);
        let sharded = ShardedXfer::new(model(), HostBatching::Sharded).estimate(&plan);
        assert!(sharded.fell_back);
        assert!((sharded.secs - per_dpu.secs).abs() < 1e-15);
        assert_eq!(sharded.calls, 8);
    }

    #[test]
    fn sharding_amortizes_call_overhead_for_small_buffers() {
        // The headline effect: 256 DPUs × 8 B pointers cost 256 base
        // overheads per-DPU but only 4 when sharded by rank.
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 256, 8);
        let per_dpu = ShardedXfer::new(model(), HostBatching::PerDpu).estimate(&plan);
        let sharded = ShardedXfer::new(model(), HostBatching::Sharded).estimate(&plan);
        assert_eq!(per_dpu.calls, 256);
        assert_eq!(sharded.calls, 4);
        assert!(
            per_dpu.secs / sharded.secs > 10.0,
            "call-overhead-bound plan must see a large win: {} vs {}",
            per_dpu.secs,
            sharded.secs
        );
    }

    #[test]
    fn labels_and_default_policy() {
        assert_eq!(HostBatching::default(), HostBatching::Sharded);
        assert_eq!(HostBatching::PerDpu.label(), "per-DPU calls");
        assert_eq!(HostBatching::Sharded.label(), "per-rank shards");
    }

    #[test]
    fn faultless_plan_prices_identically() {
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 256, 4096);
        let planner = ShardedXfer::new(model(), HostBatching::Sharded);
        let clean = planner.estimate(&plan);
        let faulty = planner.estimate_with_faults(&plan, &FaultPlan::none(), 7);
        assert_eq!(faulty, FaultyXferEstimate::clean(clean));
        assert_eq!(faulty.est, clean);
    }

    #[test]
    fn failed_shards_name_their_dpus() {
        // Force every shard to fail: all DPUs with payload are listed.
        let faults = FaultPlan {
            xfer_fail_prob: 1.0,
            ..FaultPlan::none()
        };
        let mut plan = TransferPlan::new(TransferDirection::HostToPim);
        plan.push(3, 512);
        plan.push(70, 0); // zero-byte entry never "fails"
        plan.push(130, 512);
        let planner = ShardedXfer::new(model(), HostBatching::Sharded);
        let f = planner.estimate_with_faults(&plan, &faults, 0);
        assert_eq!(f.failed_dpus, vec![3, 130]);
        assert_eq!(f.failed_shards, 2, "two occupied ranks, both failed");
        assert_eq!(f.straggled_shards, 0);
        // Failure does not refund the call: time matches the clean run.
        assert_eq!(f.est.secs, planner.estimate(&plan).secs);
    }

    #[test]
    fn stragglers_inflate_time_but_land_payloads() {
        let faults = FaultPlan {
            xfer_straggle_prob: 1.0,
            straggle_factor: 3.0,
            ..FaultPlan::none()
        };
        let plan = TransferPlan::uniform(TransferDirection::HostToPim, 128, 1 << 16);
        let planner = ShardedXfer::new(model(), HostBatching::Sharded);
        let clean = planner.estimate(&plan);
        let f = planner.estimate_with_faults(&plan, &faults, 1);
        assert!(f.failed_dpus.is_empty());
        assert_eq!(f.straggled_shards, 2, "128 DPUs = 2 ranks");
        assert!(f.straggle_secs > 0.0);
        assert!((f.est.secs - (clean.secs + f.straggle_secs)).abs() < 1e-15);
        // Straggle adds the slowest shard's factor x data time.
        let rank_data = (64.0 * (1 << 16) as f64) / (model().rank_bw_gbps * 1e9);
        assert!((f.straggle_secs - 3.0 * rank_data).abs() / f.straggle_secs < 1e-12);
    }

    /// `estimate_with_faults` as it was before it grouped the plan once
    /// and looked failed ranks up by binary search.
    fn two_pass_estimate_with_faults(
        planner: &ShardedXfer,
        plan: &TransferPlan,
        faults: &FaultPlan,
        nonce: u64,
    ) -> FaultyXferEstimate {
        let est = planner.estimate(plan);
        if !faults.xfer_enabled() || est.bytes == 0 {
            return FaultyXferEstimate::clean(est);
        }
        let loads = planner.model.rank_loads(plan);
        let mut failed_ranks: Vec<usize> = Vec::new();
        let mut failed_shards = 0u64;
        let mut straggled_shards = 0u64;
        let mut straggle_secs: f64 = 0.0;
        for &(rank, bytes) in &loads {
            match faults.shard_fault(nonce, rank as u64) {
                ShardFault::Fail => {
                    failed_shards += 1;
                    failed_ranks.push(rank);
                }
                ShardFault::Straggle => {
                    straggled_shards += 1;
                    let data_secs = bytes as f64 / (planner.model.rank_bw_gbps * 1e9);
                    straggle_secs = straggle_secs.max(faults.straggle_factor * data_secs);
                }
                ShardFault::None => {}
            }
        }
        let mut failed_dpus: Vec<usize> = plan
            .entries()
            .iter()
            .filter(|&&(dpu, bytes)| {
                bytes > 0 && failed_ranks.contains(&(dpu / planner.model.dpus_per_rank))
            })
            .map(|&(dpu, _)| dpu)
            .collect();
        failed_dpus.sort_unstable();
        failed_dpus.dedup();
        FaultyXferEstimate {
            est: XferEstimate {
                secs: est.secs + straggle_secs,
                ..est
            },
            failed_dpus,
            failed_shards,
            straggled_shards,
            straggle_secs,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// One grouping and a binary search give what two groupings and
        /// a scan gave, on plans in any DPU order with empty and
        /// repeated buffers, under either policy.
        #[test]
        fn faulty_estimate_matches_the_two_pass_one(
            seed in proptest::prelude::any::<u64>(),
            nonce in 0u64..1_000,
            xfer_fail_prob in 0.01f64..0.99,
            xfer_straggle_prob in 0.01f64..0.99,
            dpus_per_rank in 1usize..80,
            sharded in proptest::prelude::any::<bool>(),
            entries in proptest::collection::vec((0usize..640, 0u64..4), 0..96),
        ) {
            let model = TransferModel { dpus_per_rank, ..TransferModel::default() };
            let policy = if sharded { HostBatching::Sharded } else { HostBatching::PerDpu };
            let planner = ShardedXfer::new(model, policy);
            let faults = FaultPlan {
                seed,
                xfer_fail_prob,
                xfer_straggle_prob,
                straggle_factor: 3.0,
                ..FaultPlan::none()
            };
            let mut plan = TransferPlan::new(TransferDirection::HostToPim);
            for (dpu, bytes) in entries {
                // Half the buffers are empty.
                plan.push(dpu, bytes.saturating_sub(1) * 1000);
            }
            proptest::prop_assert_eq!(
                planner.estimate_with_faults(&plan, &faults, nonce),
                two_pass_estimate_with_faults(&planner, &plan, &faults, nonce)
            );
        }
    }

    #[test]
    fn shard_outcomes_are_deterministic_per_nonce() {
        let faults = FaultPlan {
            seed: 11,
            xfer_fail_prob: 0.3,
            xfer_straggle_prob: 0.3,
            straggle_factor: 2.0,
            ..FaultPlan::none()
        };
        let plan = TransferPlan::uniform(TransferDirection::PimToHost, 512, 2048);
        let planner = ShardedXfer::new(model(), HostBatching::Sharded);
        for nonce in 0..16 {
            assert_eq!(
                planner.estimate_with_faults(&plan, &faults, nonce),
                planner.estimate_with_faults(&plan, &faults, nonce)
            );
        }
        // Across many nonces the outcomes vary (not a constant draw).
        let distinct: std::collections::BTreeSet<u64> = (0..64)
            .map(|n| {
                let f = planner.estimate_with_faults(&plan, &faults, n);
                f.failed_shards * 100 + f.straggled_shards
            })
            .collect();
        assert!(distinct.len() > 1);
    }
}
