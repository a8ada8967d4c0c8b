//! The shared execution context: one bundle of the knobs every
//! multi-DPU engine in the workspace needs — transfer pricing, host
//! batching policy, the workload seed, and the fault schedule.
//!
//! `ServingConfig`, `GraphUpdateConfig`, `DseConfig`, and `FleetConfig`
//! each embed one `ctx: SimContext` instead of their own copy of the
//! field cluster, so the knobs and their defaults live in one place.
//!
//! ```
//! use pim_sim::{HostBatching, SimContext};
//!
//! let ctx = SimContext::default()
//!     .with_batching(HostBatching::PerDpu)
//!     .with_seed(7);
//! assert_eq!(ctx.batching, HostBatching::PerDpu);
//! assert_eq!(ctx.seed, 7);
//! ```

use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::host::TransferModel;
use crate::xfer::{HostBatching, ShardedXfer};

/// The execution context shared by every multi-DPU engine: how
/// host↔PIM traffic is priced ([`TransferModel`]) and scheduled
/// ([`HostBatching`]), which seed drives the workload's stochastic
/// choices, and which faults the fleet suffers.
///
/// All fields are plain data (`Copy`), so configs embed the context by
/// value and struct-update syntax keeps working:
/// `GraphUpdateConfig { ctx: SimContext { seed: 7, ..Default::default() }, .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimContext {
    /// Bandwidth/latency model of the host↔PIM data path.
    pub transfer: TransferModel,
    /// How the host schedules a transfer plan's per-DPU buffers.
    pub batching: HostBatching,
    /// Seed for the workload's stochastic generators.
    pub seed: u64,
    /// Seeded fault schedule for the fleet; [`FaultPlan::none`] (the
    /// default) disables the fault paths entirely.
    pub faults: FaultPlan,
}

impl Default for SimContext {
    /// Production defaults: the default transfer model, rank-sharded
    /// batching, seed 42, and no faults.
    fn default() -> Self {
        SimContext {
            transfer: TransferModel::default(),
            batching: HostBatching::default(),
            seed: 42,
            faults: FaultPlan::none(),
        }
    }
}

impl SimContext {
    /// This context with a different seed (sweep ergonomics).
    pub fn with_seed(self, seed: u64) -> Self {
        SimContext { seed, ..self }
    }

    /// This context with a different batching policy.
    pub fn with_batching(self, batching: HostBatching) -> Self {
        SimContext { batching, ..self }
    }

    /// This context with a fault schedule (chaos ergonomics).
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        SimContext { faults, ..self }
    }

    /// A transfer planner over this context's model and batching
    /// policy — the `ShardedXfer::new(cfg.transfer, cfg.batching)`
    /// call every engine used to spell out.
    pub fn planner(&self) -> ShardedXfer {
        ShardedXfer::new(self.transfer, self.batching)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_component_defaults() {
        let ctx = SimContext::default();
        assert_eq!(ctx.transfer, TransferModel::default());
        assert_eq!(ctx.batching, HostBatching::Sharded);
        assert_eq!(ctx.seed, 42);
        assert_eq!(ctx.faults, FaultPlan::none());
        assert!(!ctx.faults.enabled());
    }

    #[test]
    fn with_helpers_change_one_field() {
        let base = SimContext::default();
        assert_eq!(base.with_seed(5).seed, 5);
        assert_eq!(
            base.with_batching(HostBatching::PerDpu).batching,
            HostBatching::PerDpu
        );
        assert_eq!(base.with_seed(5).transfer, base.transfer);
        let chaotic = base.with_faults(FaultPlan::chaos(3));
        assert_eq!(chaotic.faults, FaultPlan::chaos(3));
        assert_eq!(chaotic.seed, base.seed, "faults leave the workload seed");
    }

    #[test]
    fn planner_uses_context_policy() {
        let ctx = SimContext::default().with_batching(HostBatching::PerDpu);
        assert_eq!(ctx.planner().policy(), HostBatching::PerDpu);
        assert_eq!(ctx.planner().model(), ctx.transfer);
    }

    #[test]
    fn context_is_plain_copyable_data() {
        let ctx = SimContext::default();
        let copy = ctx; // Copy, not move
        assert_eq!(ctx, copy);
    }
}
