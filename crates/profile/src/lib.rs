//! # pim-profile — allocation profiling and profile-guided geometry
//!
//! The paper's PIM-malloc ships one fixed power-of-two size-class
//! table. This crate closes the loop that tunes it per workload:
//!
//! 1. **Profile** — [`AllocProfile::from_trace`] derives an
//!    [`AllocProfile`] from an [`AllocTrace`](pim_trace::AllocTrace),
//!    synthesized or recorded from a live run by
//!    `pim_trace::TraceRecorder`, without running a simulation.
//!    Profiles are versioned and round-trip losslessly through JSON.
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
pub mod synthesize;

pub use profile::{
    AllocProfile, LifetimeStats, ProfileError, SizeHistogram, LIFETIME_BUCKETS,
    PROFILE_SCHEMA_VERSION, TIMELINE_SAMPLES,
};
pub use synthesize::{
    modeled_frag_bytes, synthesize_table, wram_bitmap_bytes, Synthesis, SynthesisError,
    SynthesisObjective, SynthesisReport, MAX_CLASS_BYTES,
};
