//! Workspace-level integration-test and example host for the PIM-malloc reproduction.
//!
//! The facade re-exports the workspace's primary entry points so
//! downstream consumers can depend on one crate:
//!
//! * [`SimContext`] — the execution context (host batching and seed)
//!   every multi-DPU simulation config embeds.
//! * The serving frontend: [`serve`] / [`saturation_sweep`] with
//!   [`ServeConfig`], [`ArrivalProcess`], [`RequestClass`] and their
//!   reports — including the self-healing knobs ([`RetryPolicy`]) and
//!   the degraded-capacity report section ([`FaultSummary`]).
//! * The execution knobs those APIs take: [`HostBatching`], and the
//!   seeded [`FaultPlan`] fault schedule that [`ServeConfig::faults`]
//!   carries. Multi-DPU sweeps fan out over [`parallel_indexed`],
//!   whose worker count `PIM_EXEC_WORKERS` sets.
//! * The allocator core: [`PimMalloc`] behind the [`AllocGeometry`]
//!   builder (size classes via [`SizeClassTable`]), plus the
//!   [`PimAllocator`] object-safe trait.
//! * Profile-guided geometry: [`AllocProfile::from_trace`] takes a
//!   workload trace's request-size histogram, and [`synthesize_table`]
//!   turns it into a custom [`SizeClassTable`] under one fixed cost
//!   (see `examples/tune_geometry.rs` for the full profile →
//!   synthesize → replay loop).

pub use pim_malloc::{
    AllocGeometry, AllocStats, BackendKind, PimAllocator, PimMalloc, PimMallocConfig,
    SizeClassTable,
};
pub use pim_profile::{synthesize_table, AllocProfile, Synthesis, SynthesisReport};
pub use pim_serving::{
    estimated_capacity_rps, saturation_sweep, serve, ArrivalProcess, FaultSummary, LoadPoint,
    RequestClass, RetryPolicy, SaturationReport, ServeConfig, ServeReport,
};
pub use pim_sim::{parallel_indexed, FaultPlan, HostBatching, ShardFault, SimContext};
