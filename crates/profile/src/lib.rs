//! # pim-profile — allocation profiling and profile-guided geometry
//!
//! The paper's PIM-malloc ships one fixed power-of-two size-class
//! table. This crate closes the loop that tunes it per workload:
//!
//! 1. **Record** — [`ProfileRecorder`] wraps any
//!    [`PimAllocator`](pim_malloc::PimAllocator) and observes a live
//!    run into an [`AllocProfile`] without perturbing it (mirroring
//!    `pim_trace::TraceRecorder`), or [`AllocProfile::from_trace`]
//!    derives the same profile purely from a recorded
//!    [`AllocTrace`](pim_trace::AllocTrace). Profiles are versioned
//!    and round-trip losslessly through JSON.
//! 2. **Synthesize** — [`synthesize_table`] runs an exact dynamic
//!    program over candidate class boundaries, minimizing modeled
//!    internal fragmentation (rounding waste plus the eager
//!    prepopulation floor) against WRAM bitmap footprint under a
//!    [`SynthesisObjective`], and reports predicted deltas versus
//!    [`SizeClassTable::paper_default`](pim_malloc::SizeClassTable::paper_default)
//!    in a [`SynthesisReport`].
//! 3. **Replay** — feed the synthesized table back through
//!    `AllocGeometry::with_size_classes` and replay the same trace to
//!    measure the deltas the report predicted (the `repro tune`
//!    experiment in `pim-bench`; `examples/tune_geometry.rs` shows
//!    the loop end to end).
//!
//! Everything here is deterministic: the same trace and objective
//! produce a byte-identical profile, table, and report for any worker
//! count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod profile;
pub mod recorder;
pub mod synthesize;

pub use profile::{
    AllocProfile, LifetimeStats, ProfileError, SizeHistogram, LIFETIME_BUCKETS,
    PROFILE_SCHEMA_VERSION, TIMELINE_SAMPLES,
};
pub use recorder::ProfileRecorder;
pub use synthesize::{
    modeled_frag_bytes, synthesize_table, wram_bitmap_bytes, Synthesis, SynthesisError,
    SynthesisObjective, SynthesisReport, MAX_CLASS_BYTES,
};
