//! The shared execution context: the two knobs every multi-DPU engine
//! in the workspace reads — the host batching policy and the workload
//! seed.
//!
//! `ServeConfig`, `GraphUpdateConfig`, the LLM `ServingConfig` and
//! `DseConfig` each embed one `ctx: SimContext` instead of their own
//! copy of the field pair, so the knobs and their defaults live in one
//! place. Transfers are priced by
//! [`TransferModel::default`]; the fault plan, which only the serving
//! loop reads, lives in `ServeConfig::faults`.
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

use crate::host::TransferModel;
use crate::xfer::{HostBatching, ShardedXfer};

/// The execution context shared by every multi-DPU engine: how
/// host↔PIM traffic is scheduled ([`HostBatching`]) and which seed
/// drives the workload's stochastic choices.
///
/// All fields are plain data (`Copy`), so configs embed the context by
/// value and struct-update syntax keeps working:
/// `GraphUpdateConfig { ctx: SimContext { seed: 7, ..Default::default() }, .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimContext {
    /// How the host schedules a transfer plan's per-DPU buffers.
    pub batching: HostBatching,
    /// Seed for the workload's stochastic generators.
    pub seed: u64,
}

impl Default for SimContext {
    /// Production defaults: rank-sharded batching and seed 42.
    fn default() -> Self {
        SimContext {
            batching: HostBatching::default(),
            seed: 42,
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

    /// A transfer planner over the default transfer model and this
    /// context's batching policy.
    pub fn planner(&self) -> ShardedXfer {
        ShardedXfer::new(TransferModel::default(), self.batching)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_component_defaults() {
        let ctx = SimContext::default();
        assert_eq!(ctx.batching, HostBatching::Sharded);
        assert_eq!(ctx.seed, 42);
    }

    #[test]
    fn with_helpers_change_one_field() {
        let base = SimContext::default();
        assert_eq!(base.with_seed(5).seed, 5);
        assert_eq!(base.with_seed(5).batching, base.batching);
        assert_eq!(
            base.with_batching(HostBatching::PerDpu).batching,
            HostBatching::PerDpu
        );
    }

    #[test]
    fn planner_uses_context_policy() {
        let ctx = SimContext::default().with_batching(HostBatching::PerDpu);
        assert_eq!(ctx.planner().policy(), HostBatching::PerDpu);
        assert_eq!(ctx.planner().model(), TransferModel::default());
    }

    #[test]
    fn context_is_plain_copyable_data() {
        let ctx = SimContext::default();
        let copy = ctx; // Copy, not move
        assert_eq!(ctx, copy);
    }
}
