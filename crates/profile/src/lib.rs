//! # pim-profile — allocation profiling and profile-guided geometry
//!
//! The paper's PIM-malloc ships one fixed power-of-two size-class
//! table. This crate closes the loop that tunes it per workload:
//!
//! 1. **Profile** — [`AllocProfile::from_trace`] derives an
//!    [`AllocProfile`] from an [`AllocTrace`](pim_trace::AllocTrace)
//!    (synthesized, taken from the microbenchmark's streams, or read
//!    from JSON) without running a simulation. A profile is the
//!    trace's request-size histogram and tasklet count; it is
//!    recomputed from the trace, never stored.
//! 2. **Synthesize** — [`synthesize_table`] runs an exact dynamic
//!    program over candidate class boundaries, minimizing modeled
//!    internal fragmentation (rounding waste plus the eager
//!    prepopulation floor) plus 16 times the WRAM bitmap footprint,
//!    over at most [`MAX_CLASSES`] classes, and reports predicted
//!    deltas versus
//!    [`SizeClassTable::paper_default`](pim_malloc::SizeClassTable::paper_default)
//!    in a [`SynthesisReport`].
//! 3. **Replay** — feed the synthesized table back through
//!    `AllocGeometry::with_size_classes` and replay the same trace to
//!    measure the deltas the report predicted (the `repro tune`
//!    experiment in `pim-bench`; `examples/tune_geometry.rs` shows
//!    the loop end to end).
//!
//! Everything here is deterministic: the same trace produces a
//! byte-identical profile, table, and report for any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod profile;
pub mod synthesize;

pub use profile::{AllocProfile, SizeHistogram};
pub use synthesize::{
    modeled_frag_bytes, synthesize_table, wram_bitmap_bytes, Synthesis, SynthesisError,
    SynthesisReport, MAX_CLASSES, MAX_CLASS_BYTES,
};
