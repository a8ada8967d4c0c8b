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

    /// Seconds for a plan issued as **one batched call per occupied
    /// rank** (`dpu_push_xfer` style), given the plan's
    /// [`rank_loads`](Self::rank_loads): the fixed per-call overhead is
    /// paid once per shard (serially, in the dispatching host thread),
    /// the rank data paths then proceed in parallel capped by the
    /// shared channel, and every shard beyond the first pays
    /// [`TransferModel::channel_arb_us`] of channel arbitration.
    ///
    /// This is the *raw* sharded price; [`crate::ShardedXfer`] compares
    /// it against [`TransferModel::per_dpu_transfer_secs`] and falls
    /// back when sharding cannot win.
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
    /// order. Consecutive buffers of one rank merge as they are read,
    /// so a plan in DPU order needs no sort.
    pub(crate) fn rank_loads(&self, plan: &crate::xfer::TransferPlan) -> Vec<(usize, u64)> {
        assert!(self.dpus_per_rank > 0, "a rank holds at least one DPU");
        let mut loads: Vec<(usize, u64)> = Vec::new();
        let mut sorted = true;
        for &(dpu, bytes) in plan.entries() {
            if bytes == 0 {
                continue;
            }
            let rank = dpu / self.dpus_per_rank;
            match loads.last_mut() {
                Some((last, sum)) if *last == rank => *sum += bytes,
                Some(&mut (last, _)) => {
                    sorted &= last < rank;
                    loads.push((rank, bytes));
                }
                None => loads.push((rank, bytes)),
            }
        }
        if !sorted {
            loads.sort_unstable_by_key(|&(rank, _)| rank);
            loads.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    kept.1 += next.1;
                }
                same
            });
        }
        loads
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

impl HostConfig {
    /// Seconds a parallel-for of `n_workers` independent tasks takes,
    /// each performing `accesses_per_worker` metadata accesses of which
    /// `miss_fraction` go to DRAM.
    ///
    /// Model: spawning is serial in the parent
    /// (`n_workers × thread_spawn_us`); the work itself runs with
    /// `min(threads, n_workers)`-way parallelism.
    ///
    /// # Panics
    ///
    /// Panics unless `miss_fraction` is in `[0, 1]`.
    pub fn parallel_for_secs(
        &self,
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
        let spawn = n_workers as f64 * self.thread_spawn_us * 1e-6;
        let per_access_ns =
            miss_fraction * self.dram_access_ns + (1.0 - miss_fraction) * self.cached_access_ns;
        let per_worker = accesses_per_worker as f64 * per_access_ns * 1e-9;
        let lanes = self.threads.min(n_workers) as f64;
        let work = per_worker * (n_workers as f64 / lanes).ceil();
        spawn + work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_spawn_cost_is_serial() {
        let h = HostConfig::default();
        let one = h.parallel_for_secs(1, 0, 0.0);
        let many = h.parallel_for_secs(512, 0, 0.0);
        assert!((many / one - 512.0).abs() < 1.0, "ratio {}", many / one);
    }

    #[test]
    fn parallel_for_work_parallelizes_up_to_thread_count() {
        let h = HostConfig {
            thread_spawn_us: 0.0,
            ..HostConfig::default()
        };
        let t8 = h.parallel_for_secs(8, 1_000_000, 1.0);
        let t16 = h.parallel_for_secs(16, 1_000_000, 1.0);
        // 16 workers on 8 threads take twice as long as 8 workers.
        assert!((t16 / t8 - 2.0).abs() < 0.01, "ratio {}", t16 / t8);
    }

    #[test]
    fn miss_fraction_interpolates_access_cost() {
        let h = HostConfig {
            thread_spawn_us: 0.0,
            ..HostConfig::default()
        };
        let hot = h.parallel_for_secs(1, 1_000_000, 0.0);
        let cold = h.parallel_for_secs(1, 1_000_000, 1.0);
        assert!(
            cold > hot * 10.0,
            "DRAM misses must dominate: {cold} vs {hot}"
        );
    }

    #[test]
    #[should_panic(expected = "miss fraction")]
    fn bad_miss_fraction_panics() {
        HostConfig::default().parallel_for_secs(1, 1, 1.5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The merge gives what summing per rank in a `BTreeMap` gives,
        /// on plans in any DPU order with empty and repeated buffers.
        #[test]
        fn rank_loads_match_a_btree_map(
            dpus_per_rank in 1usize..80,
            entries in proptest::collection::vec((0usize..640, 0u64..4), 0..96),
            ascending in proptest::prelude::any::<bool>(),
        ) {
            use crate::xfer::TransferPlan;
            let model = TransferModel { dpus_per_rank, ..TransferModel::default() };
            let mut entries = entries;
            if ascending {
                entries.sort_unstable();
            }
            let mut plan = TransferPlan::new(TransferDirection::HostToPim);
            let mut reference = std::collections::BTreeMap::new();
            for (dpu, bytes) in entries {
                // Half the buffers are empty.
                let bytes = bytes.saturating_sub(1) * 1000;
                plan.push(dpu, bytes);
                if bytes > 0 {
                    *reference.entry(dpu / dpus_per_rank).or_insert(0) += bytes;
                }
            }
            let want: Vec<(usize, u64)> = reference.into_iter().collect();
            proptest::prop_assert_eq!(model.rank_loads(&plan), want);
        }
    }
}
