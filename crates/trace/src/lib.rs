//! # pim-trace — the allocation-trace subsystem
//!
//! The fourth pillar next to `pim-malloc` (core), `pim-sim`, and
//! `pim-workloads`: workload scenarios as **data** instead of code.
//!
//! * [`format`](mod@format) — the canonical [`AllocTrace`]: versioned, JSON
//!   round-trippable per-tasklet event streams of
//!   `Malloc`/`Free`/`Compute`, plus cross-tasklet `RemoteFree` edges
//!   for producer–consumer patterns.
//! * [`record`] — [`TraceRecorder`], a transparent
//!   [`PimAllocator`](pim_malloc::PimAllocator) wrapper that captures
//!   any live workload (micro, graph update, LLM serving) as a trace
//!   without perturbing it.
//! * [`synth`] — [`synthesize`]: scenario families as generator
//!   configs, crossing size laws (fixed / uniform / zipf / lognormal)
//!   with temporal shapes (steady / bursty / phase-shift / ramp /
//!   producer–consumer).
//! * [`replay`](mod@replay) — the deterministic virtual-time replay engine
//!   ([`replay()`], and [`replay_streams`] that the microbenchmark
//!   runs on), plus [`replay_fleet`] for multi-DPU replay on the
//!   parallel engine with host-batched trace distribution.
//!
//! Capture once, replay everywhere: the same trace file drives every
//! [`PimAllocator`](pim_malloc::PimAllocator) design and both
//! execution engines with byte-identical latency timelines.
//!
//! ```
//! use pim_trace::{replay_fleet, synthesize, FleetConfig, SynthConfig};
//!
//! let trace = synthesize(&SynthConfig {
//!     n_tasklets: 4,
//!     mallocs_per_tasklet: 16,
//!     ..SynthConfig::default()
//! });
//! let round = trace.to_json();
//! assert_eq!(pim_trace::AllocTrace::from_json(&round).unwrap(), trace);
//! let fleet = replay_fleet(
//!     &trace,
//!     &FleetConfig { n_dpus: 2, ..FleetConfig::default() },
//!     |dpu| {
//!         let cfg = pim_malloc::AllocGeometry::sw(4).build();
//!         Box::new(pim_malloc::PimMalloc::init(dpu, cfg).unwrap())
//!     },
//! );
//! assert_eq!(fleet.per_dpu.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod format;
pub mod record;
pub mod replay;
pub mod synth;

pub use format::{AllocTrace, TraceError, TraceOp, TRACE_SCHEMA_VERSION};
pub use record::TraceRecorder;
pub use replay::{replay, replay_fleet, replay_streams, FleetConfig, FleetResult, ReplayResult};
pub use synth::{synthesize, SizeLaw, SynthConfig, TemporalShape};
