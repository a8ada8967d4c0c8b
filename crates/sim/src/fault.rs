//! Deterministic, seeded fault injection for the simulated fleet.
//!
//! Real PIM deployments do not ship perfect hardware: the PrIM
//! benchmarking effort reports UPMEM systems with faulty or disabled
//! DPUs straight from the factory (e.g. 2,524 usable of 2,560), ranks
//! that drop transfers, and long-tail stragglers. [`FaultPlan`] is the
//! fault model the serving loop (`pim_serving::serve`, through
//! `ServeConfig::faults`) and the `chaos` experiment run under.
//!
//! The plan is *declarative and stateless*: a handful of plain scalars
//! (probabilities, a seed, a horizon) from which every fault decision
//! is derived by hashing the fault's identity — a DPU index, a
//! transfer-window ordinal, a shard index. Two consequences fall out:
//!
//! 1. **Determinism by construction.** A decision is a pure function
//!    of `(plan, identity)`, never of wall clock, thread schedule, or
//!    iteration order. The same plan produces byte-identical fault
//!    traces for any worker count, which is the workspace's standing
//!    contract.
//! 2. **Zero-cost opt-out.** [`FaultPlan::none`] (the default) has
//!    every probability at zero; the serving loop checks
//!    [`FaultPlan::enabled`] once and skips the fault paths entirely,
//!    so fault-free runs stay byte-identical to a build without the
//!    subsystem.
//!
//! Fault classes modeled:
//!
//! * **Dead on arrival** ([`FaultPlan::dead_frac`]) — the faulty-part
//!   model: a seeded subset of DPUs never worked.
//! * **Mid-run kills** ([`FaultPlan::kill_frac`]) — a DPU dies at a
//!   seeded simulated timestamp inside
//!   [`FaultPlan::kill_horizon_ns`]; in-flight work must be
//!   re-dispatched by whoever routed it there.
//! * **Transfer faults** ([`FaultPlan::xfer_fail_prob`],
//!   [`FaultPlan::xfer_straggle_prob`]) — an individual rank shard of
//!   a [`crate::TransferPlan`] fails outright (its payload never
//!   lands) or straggles by [`FaultPlan::straggle_factor`]× its data
//!   time, priced through [`crate::ShardedXfer::estimate_with_faults`].
//! * **Allocator faults** ([`FaultPlan::corrupt_free_prob`]) —
//!   corrupted-free attempts that the allocator's frame-table
//!   validation must catch and quarantine (never panic).
//!
//! ```
//! use pim_sim::FaultPlan;
//!
//! let plan = FaultPlan::chaos(7);
//! let dead: Vec<usize> = (0..2560).filter(|&d| plan.dead_on_arrival(d)).collect();
//! // Seeded and deterministic: the same plan names the same DPUs.
//! assert_eq!(dead, (0..2560).filter(|&d| plan.dead_on_arrival(d)).collect::<Vec<_>>());
//! // ~5% of the fleet, like the PrIM-reported faulty parts.
//! assert!(dead.len() > 2560 / 40 && dead.len() < 2560 / 10);
//! // The default plan is a no-op.
//! assert!(!FaultPlan::none().enabled());
//! assert!((0..2560).all(|d| !FaultPlan::none().dead_on_arrival(d)));
//! ```

// The fault layer exists so failure handling never panics; hold it to
// that standard at compile time (tests may still unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use serde::{Deserialize, Serialize};

/// Stream salt separating dead-on-arrival decisions.
const STREAM_DOA: u64 = 0xFA11_0001_D0A0_0001;
/// Stream salt separating which-DPU-gets-killed decisions.
const STREAM_KILL: u64 = 0xFA11_0002_0000_0002;
/// Stream salt separating when-a-DPU-dies decisions.
const STREAM_KILL_AT: u64 = 0xFA11_0003_0000_0003;
/// Stream salt separating transfer-shard outcomes.
const STREAM_XFER: u64 = 0xFA11_0004_0000_0004;
/// Stream salt separating corrupted-free injection.
const STREAM_CORRUPT: u64 = 0xFA11_0005_0000_0005;

/// Finalizer of splitmix64: a stateless 64-bit mixer with full
/// avalanche, the workhorse behind every seeded fault decision.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Outcome of one rank shard of a transfer under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardFault {
    /// The shard transfers normally.
    None,
    /// The shard fails outright: its payload never lands and the
    /// sender must retry or drop.
    Fail,
    /// The shard completes but straggles by
    /// [`FaultPlan::straggle_factor`]× its data time.
    Straggle,
}

/// A declarative, seeded fault schedule — plain `Copy` data, carried
/// by value in `ServeConfig::faults`.
///
/// All probabilities are in `[0, 1]`; [`FaultPlan::none`] (the
/// `Default`) disables everything.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault streams (independent of the workload seed, so
    /// the same traffic can be replayed under different fault draws).
    pub seed: u64,
    /// Fraction of DPUs dead on arrival (faulty-part model).
    pub dead_frac: f64,
    /// Fraction of (initially healthy) DPUs killed mid-run.
    pub kill_frac: f64,
    /// Kill timestamps draw uniformly from `[0, kill_horizon_ns)`;
    /// zero disables kills even when [`FaultPlan::kill_frac`] is set.
    pub kill_horizon_ns: u64,
    /// Probability an individual rank shard of a transfer fails.
    pub xfer_fail_prob: f64,
    /// Probability an individual rank shard straggles.
    pub xfer_straggle_prob: f64,
    /// Straggling shards take `(1 + straggle_factor)`× their data time.
    pub straggle_factor: f64,
    /// Probability per opportunity that a corrupted free is injected
    /// against the allocator (caught by frame-table validation).
    pub corrupt_free_prob: f64,
}

impl FaultPlan {
    /// The no-fault plan: every probability zero. Engines treat it as
    /// "subsystem off" and skip the fault paths entirely.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            dead_frac: 0.0,
            kill_frac: 0.0,
            kill_horizon_ns: 0,
            xfer_fail_prob: 0.0,
            xfer_straggle_prob: 0.0,
            straggle_factor: 0.0,
            corrupt_free_prob: 0.0,
        }
    }

    /// The standard chaos preset used by the `repro chaos` experiment
    /// and the resilience CI gates: 5% dead DPUs (the PrIM-reported
    /// faulty-part rate), 2% mid-run kills over a 50 ms horizon, 1% of
    /// shards failing, 2% straggling at 4× — a fleet that is unhealthy
    /// enough to matter and healthy enough that a self-healing
    /// frontend should still clear 90% goodput.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            dead_frac: 0.05,
            kill_frac: 0.02,
            kill_horizon_ns: 50_000_000,
            xfer_fail_prob: 0.01,
            xfer_straggle_prob: 0.02,
            straggle_factor: 4.0,
            corrupt_free_prob: 0.05,
        }
    }

    /// True if any fault class can fire. The serving loop uses this
    /// as the single opt-out check guarding its fault paths.
    pub fn enabled(&self) -> bool {
        self.dead_frac > 0.0
            || (self.kill_frac > 0.0 && self.kill_horizon_ns > 0)
            || self.xfer_enabled()
            || self.corrupt_free_prob > 0.0
    }

    /// True if transfer-shard faults can fire.
    pub fn xfer_enabled(&self) -> bool {
        self.xfer_fail_prob > 0.0 || self.xfer_straggle_prob > 0.0
    }

    /// A uniform draw in `[0, 1)` for fault identity `(stream, a, b)` —
    /// the pure function behind every decision.
    fn unit(&self, stream: u64, a: u64, b: u64) -> f64 {
        let h = mix64(
            mix64(self.seed ^ stream)
                ^ mix64(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                ^ mix64(b.wrapping_add(0x6a09_e667_f3bc_c909)),
        );
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True if `dpu` is dead on arrival under this plan.
    pub fn dead_on_arrival(&self, dpu: usize) -> bool {
        self.dead_frac > 0.0 && self.unit(STREAM_DOA, dpu as u64, 0) < self.dead_frac
    }

    /// Simulated nanosecond at which `dpu` dies mid-run, if it does.
    /// Dead-on-arrival DPUs never also draw a kill (they are already
    /// gone), and a zero horizon disables kills.
    pub fn kill_time_ns(&self, dpu: usize) -> Option<u64> {
        if self.kill_frac <= 0.0 || self.kill_horizon_ns == 0 || self.dead_on_arrival(dpu) {
            return None;
        }
        if self.unit(STREAM_KILL, dpu as u64, 0) < self.kill_frac {
            let at = self.unit(STREAM_KILL_AT, dpu as u64, 1) * self.kill_horizon_ns as f64;
            Some(at as u64)
        } else {
            None
        }
    }

    /// Outcome of rank shard `shard` of the transfer identified by
    /// `nonce` (callers use a per-engine transfer ordinal, which is
    /// deterministic in single-threaded event loops).
    pub fn shard_fault(&self, nonce: u64, shard: u64) -> ShardFault {
        if !self.xfer_enabled() {
            return ShardFault::None;
        }
        let u = self.unit(STREAM_XFER, nonce, shard);
        if u < self.xfer_fail_prob {
            ShardFault::Fail
        } else if u < self.xfer_fail_prob + self.xfer_straggle_prob {
            ShardFault::Straggle
        } else {
            ShardFault::None
        }
    }

    /// A corrupted address to free against the allocator at injection
    /// opportunity `nonce`, if the plan fires one. The address is an
    /// arbitrary seeded 32-bit value — misaligned, interior,
    /// out-of-heap — exactly the garbage a latent bug would feed
    /// `pim_free`; frame-table validation must reject it.
    pub fn corrupt_free_addr(&self, nonce: u64) -> Option<u32> {
        if self.corrupt_free_prob <= 0.0 {
            return None;
        }
        if self.unit(STREAM_CORRUPT, nonce, 0) < self.corrupt_free_prob {
            Some(
                mix64(self.seed ^ STREAM_CORRUPT ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                    as u32,
            )
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::none();
        assert!(!p.enabled());
        for d in 0..512 {
            assert!(!p.dead_on_arrival(d));
            assert_eq!(p.kill_time_ns(d), None);
        }
        for n in 0..256 {
            assert_eq!(p.shard_fault(n, n), ShardFault::None);
            assert_eq!(p.corrupt_free_addr(n), None);
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let p = FaultPlan::chaos(42);
        for d in 0..512 {
            assert_eq!(p.dead_on_arrival(d), p.dead_on_arrival(d));
            assert_eq!(p.kill_time_ns(d), p.kill_time_ns(d));
        }
        for nonce in 0..64 {
            for shard in 0..8 {
                assert_eq!(p.shard_fault(nonce, shard), p.shard_fault(nonce, shard));
            }
            assert_eq!(p.corrupt_free_addr(nonce), p.corrupt_free_addr(nonce));
        }
    }

    #[test]
    fn different_seeds_draw_different_fleets() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let dead = |p: &FaultPlan| (0..2560).filter(|&d| p.dead_on_arrival(d)).count();
        // Both near 5%, but not the same set.
        assert!(dead(&a) > 64 && dead(&a) < 256);
        assert!(dead(&b) > 64 && dead(&b) < 256);
        assert!(
            (0..2560).any(|d| a.dead_on_arrival(d) != b.dead_on_arrival(d)),
            "seeds must select different DPUs"
        );
    }

    #[test]
    fn fractions_track_probabilities_at_scale() {
        let p = FaultPlan {
            dead_frac: 0.10,
            kill_frac: 0.10,
            kill_horizon_ns: 1_000_000,
            ..FaultPlan::none()
        };
        let n = 20_000;
        let dead = (0..n).filter(|&d| p.dead_on_arrival(d)).count() as f64 / n as f64;
        assert!((dead - 0.10).abs() < 0.01, "dead fraction {dead}");
        let killed = (0..n).filter(|&d| p.kill_time_ns(d).is_some()).count() as f64 / n as f64;
        // Kills only draw among non-DoA DPUs: ~0.9 * 0.1.
        assert!((killed - 0.09).abs() < 0.01, "killed fraction {killed}");
    }

    #[test]
    fn kill_times_live_inside_the_horizon_and_flip_health() {
        let p = FaultPlan {
            kill_frac: 0.5,
            kill_horizon_ns: 1_000_000,
            ..FaultPlan::none()
        };
        let mut saw_kill = false;
        for d in 0..256 {
            if let Some(at) = p.kill_time_ns(d) {
                saw_kill = true;
                assert!(at < 1_000_000);
            }
        }
        assert!(saw_kill, "half the fleet draws a kill");
    }

    #[test]
    fn doa_dpus_never_draw_a_kill() {
        let p = FaultPlan {
            dead_frac: 0.5,
            kill_frac: 1.0,
            kill_horizon_ns: 1_000_000,
            ..FaultPlan::none()
        };
        for d in 0..512 {
            if p.dead_on_arrival(d) {
                assert_eq!(p.kill_time_ns(d), None);
            }
        }
    }

    #[test]
    fn shard_faults_split_between_fail_and_straggle() {
        let p = FaultPlan {
            xfer_fail_prob: 0.2,
            xfer_straggle_prob: 0.3,
            straggle_factor: 2.0,
            ..FaultPlan::none()
        };
        let mut fails = 0;
        let mut straggles = 0;
        let n = 20_000u64;
        for nonce in 0..n {
            match p.shard_fault(nonce, nonce % 8) {
                ShardFault::Fail => fails += 1,
                ShardFault::Straggle => straggles += 1,
                ShardFault::None => {}
            }
        }
        let (f, s) = (fails as f64 / n as f64, straggles as f64 / n as f64);
        assert!((f - 0.2).abs() < 0.02, "fail fraction {f}");
        assert!((s - 0.3).abs() < 0.02, "straggle fraction {s}");
    }

    #[test]
    fn corrupt_frees_fire_at_the_configured_rate() {
        let p = FaultPlan {
            corrupt_free_prob: 0.25,
            ..FaultPlan::none()
        };
        let n = 20_000u64;
        let fired = (0..n).filter(|&i| p.corrupt_free_addr(i).is_some()).count() as f64 / n as f64;
        assert!((fired - 0.25).abs() < 0.02, "corrupt-free rate {fired}");
        // Injected addresses vary (they are garbage, not a fixed value).
        let addrs: std::collections::BTreeSet<u32> =
            (0..n).filter_map(|i| p.corrupt_free_addr(i)).collect();
        assert!(addrs.len() > 100);
    }

    #[test]
    fn chaos_preset_is_enabled_and_reseedable() {
        let p = FaultPlan::chaos(9);
        assert!(p.enabled());
        assert!(p.xfer_enabled());
    }
}
