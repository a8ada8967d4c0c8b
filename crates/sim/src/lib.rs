//! # pim-sim — a cycle-cost simulator substrate for bank-level PIM systems
//!
//! This crate models an UPMEM-like general-purpose Processing-In-Memory
//! system at the fidelity needed to reproduce the PIM-malloc paper
//! (HPCA 2026): per-bank DPU cores with fine-grained multithreading,
//! a scratchpad (WRAM) / DRAM-bank (MRAM) memory hierarchy joined by a
//! DMA engine, DPU-local mutexes with busy-wait accounting, the paper's
//! proposed per-core hardware *buddy cache* (a small CAM with LRU
//! replacement), and an analytic host-CPU / host↔PIM transfer model.
//!
//! ## Simulation model
//!
//! Rather than interpreting DPU machine code, the simulator uses
//! *virtual time with resource reservation*: every tasklet (hardware
//! thread) owns a logical clock in DPU cycles, and shared resources
//! (mutexes, the DMA engine) are timelines that grant access at
//! `max(request_time, free_at)`. Workload drivers execute the request of
//! the tasklet with the smallest clock first (see [`VirtualTimeQueue`]),
//! which keeps cross-tasklet interactions causally ordered.
//!
//! Compute is charged in *instructions*; a tasklet retires one
//! instruction every `max(pipeline_depth, active_tasklets)` cycles,
//! matching the UPMEM "revolver" pipeline in which a single tasklet can
//! dispatch at most one instruction per 11 cycles and tasklets beyond 11
//! share issue slots.
//!
//! ## Quick example
//!
//! ```
//! use pim_sim::{DpuConfig, DpuSim};
//!
//! let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(2));
//! let mutex = dpu.alloc_mutex();
//! for tid in 0..2 {
//!     let mut ctx = dpu.ctx(tid);
//!     ctx.instrs(100);
//!     ctx.mutex_lock(mutex);
//!     ctx.instrs(10);
//!     ctx.mutex_unlock(mutex);
//! }
//! // The second tasklet had to wait for the first one's critical section.
//! assert!(dpu.tasklet_stats(1).busy_wait.0 > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod buddy_cache;
pub mod cam_overhead;
pub mod context;
pub mod cost;
pub mod dpu;
pub mod exec;
pub mod fault;
pub mod host;
pub mod mram;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod wram;
pub mod xfer;

pub use buddy_cache::{BuddyCache, BuddyCacheConfig, BuddyCacheStats, Eviction, LookupResult};
pub use cam_overhead::{CamOverhead, CamOverheadModel};
pub use context::SimContext;
pub use cost::{CostModel, Cycles};
pub use dpu::{DpuConfig, DpuSim, MutexId, TaskletCtx, MAX_TASKLETS};
pub use exec::parallel_indexed;
pub use fault::{FaultPlan, ShardFault};
pub use host::{HostConfig, HostSim, TransferDirection, TransferModel};
pub use mram::Mram;
pub use runtime::DpuSet;
pub use sched::{EventQueue, VirtualTimeQueue};
pub use stats::{DramTraffic, LatencyRecorder, LatencySummary, TaskletStats};
pub use wram::Wram;
pub use xfer::{FaultyXferEstimate, HostBatching, ShardedXfer, TransferPlan, XferEstimate};
