//! # pim-serving — an open-loop serving frontend for the PIM-malloc fleet
//!
//! The paper's workloads measure *kernel* time; production PIM
//! deployments are driven by request streams. This crate closes that
//! gap with a deterministic discrete-event serving frontend over the
//! simulated DPU fleet:
//!
//! * [`ArrivalProcess`] — seeded open-loop arrival generators
//!   (Poisson, bursty, diurnal), the serving-side analogue of
//!   `pim_trace::synthesize`.
//! * [`RequestClass`] — what one request does: an [`pim_trace::AllocTrace`]
//!   fragment replayed once per class on a [`pim_sim::DpuSim`] to
//!   *calibrate* its service time, plus the payload bytes it ships
//!   through the dispatch window.
//! * [`serve`] — bounded-queue admission, windowed host→PIM dispatch
//!   priced by the shared [`pim_sim::SimContext`] planner, FIFO
//!   per-DPU service; reports p50/p95/p99/p99.9 *simulated* latency,
//!   a queue-depth timeline, and drop counts in a [`ServeReport`].
//! * [`saturation_sweep`] — a knee-finding ladder of offered loads,
//!   fanned over [`pim_sim::parallel_indexed`], yielding the fleet's
//!   saturation throughput.
//!
//! Everything is seeded and single-threaded per run: reports are
//! byte-identical across `PIM_EXEC_WORKERS` settings — including runs
//! under a [`pim_sim::FaultPlan`] (set in [`ServeConfig::faults`]),
//! whose fault draws are pure functions of the plan and stable
//! identities. With faults scheduled the frontend
//! *self-heals*: health-aware routing skips dead DPUs, failed transfer
//! shards retry with bounded exponential backoff, and requests
//! stranded on a DPU that dies mid-run are re-dispatched; the
//! [`FaultSummary`] section of each report accounts for every drop.
//!
//! ## Quick example
//!
//! ```
//! use pim_serving::{serve, ArrivalProcess, RequestClass, ServeConfig};
//! use pim_trace::{synthesize, SynthConfig};
//!
//! let classes = [RequestClass::new(
//!     "micro",
//!     synthesize(&SynthConfig { n_tasklets: 4, mallocs_per_tasklet: 8, ..SynthConfig::default() }),
//!     2048,
//!     1.0,
//! )];
//! let cfg = ServeConfig {
//!     n_dpus: 8,
//!     n_requests: 500,
//!     arrival: ArrivalProcess::Poisson { rps: 10_000.0 },
//!     ..ServeConfig::default()
//! };
//! let report = serve(&cfg, &classes, &|dpu, tasklets, heap| {
//!     let cfg = pim_malloc::AllocGeometry::sw(tasklets).with_heap_size(heap).build();
//!     Box::new(pim_malloc::PimMalloc::init(dpu, cfg).expect("init"))
//! });
//! assert_eq!(report.admitted + report.dropped, 500);
//! assert!(report.p50_ms() <= report.p99_ms());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod arrival;
pub mod frontend;
pub mod request;
mod ring;
pub mod sweep;

pub use arrival::ArrivalProcess;
pub use frontend::{serve, FaultSummary, RetryPolicy, ServeConfig, ServeReport};
pub use request::{BuildAllocator, RequestClass};
pub use sweep::{estimated_capacity_rps, saturation_sweep, LoadPoint, SaturationReport};
