//! # pim-dse — design-space exploration of PIM memory allocators
//!
//! Reproduces §III-B of the PIM-malloc paper (Table I, Figure 6): the
//! four combinations of *where allocator metadata lives* (host DRAM vs
//! PIM banks) and *which processor executes the buddy algorithm* (host
//! CPU vs PIM cores), evaluated on the straw-man
//! `buddy_alloc_PIM_DRAM` workload — every PIM core issuing 128
//! identical 32 B allocations.
//!
//! PIM-side compute times come from running the *actual* straw-man
//! allocator on the [`pim_sim`] DPU model. Host-side compute uses the
//! analytic [`pim_sim::HostConfig::parallel_for_secs`] model, and every
//! host↔PIM transfer is priced by the context's
//! [`pim_sim::SimContext::planner`].
//!
//! ```
//! use pim_dse::{DseConfig, Strategy};
//!
//! let config = DseConfig::default().with_dpus(64);
//! let result = pim_dse::run_strategy(Strategy::PimMetaPimExec, &config);
//! assert!(result.total_secs > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod runner;
mod strategy;

pub use runner::{run_strategy, sweep, DseConfig, DseResult};
pub use strategy::Strategy;
