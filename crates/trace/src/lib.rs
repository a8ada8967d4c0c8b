//! # pim-trace — the allocation-trace subsystem
//!
//! The fourth pillar next to `pim-malloc` (core), `pim-sim`, and
//! `pim-workloads`: workload scenarios as **data** instead of code.
//!
//! * [`format`](mod@format) — the canonical [`AllocTrace`]: versioned, JSON
//!   round-trippable per-tasklet event streams of
//!   `Malloc`/`Free`/`Compute`, plus cross-tasklet `RemoteFree` edges
//!   for producer–consumer patterns.
//! * [`synth`] — [`synthesize`]: scenario families as generator
//!   configs, crossing size laws (fixed / uniform / zipf / lognormal)
//!   with temporal shapes (steady / bursty / phase-shift / ramp /
//!   producer–consumer).
//! * [`replay`](mod@replay) — the deterministic virtual-time replay engine
//!   ([`replay()`], and [`replay_streams`] that the microbenchmark
//!   runs on). A DPU is deterministic, so one replay stands for every
//!   DPU of an SPMD fleet running the same trace.
//!
//! A trace comes from [`synthesize`], from the microbenchmark's
//! request streams (`pim_workloads::micro::run_micro_recorded`), or
//! from JSON ([`AllocTrace::from_json`]). The same trace drives every
//! [`PimAllocator`](pim_malloc::PimAllocator) design with
//! byte-identical latency timelines.
//!
//! ```
//! use pim_sim::{DpuConfig, DpuSim};
//! use pim_trace::{replay, synthesize, SynthConfig};
//!
//! let trace = synthesize(&SynthConfig {
//!     n_tasklets: 4,
//!     mallocs_per_tasklet: 16,
//!     ..SynthConfig::default()
//! });
//! let round = trace.to_json();
//! assert_eq!(pim_trace::AllocTrace::from_json(&round).unwrap(), trace);
//! let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
//! let cfg = pim_malloc::AllocGeometry::sw(4).build();
//! let mut alloc = pim_malloc::PimMalloc::init(&mut dpu, cfg).unwrap();
//! let result = replay(&mut dpu, &mut alloc, &trace);
//! assert_eq!(result.malloc_latencies.len(), trace.malloc_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod format;
pub mod replay;
pub mod synth;

pub use format::{AllocTrace, TraceError, TraceOp, TRACE_SCHEMA_VERSION};
pub use replay::{replay, replay_streams, ReplayResult};
pub use synth::{synthesize, SizeLaw, SynthConfig, TemporalShape};
