//! # pim-bench — reproduction harness for every PIM-malloc table and figure
//!
//! Each experiment of the paper's evaluation has a generator function
//! returning an [`Experiment`] (a labelled table of rows) that the
//! `repro` binary prints; `repro all` regenerates the whole evaluation.
//! The catalogue tests diff every report against the committed goldens
//! in `tests/golden/`. Host speed is measured by `perfbench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;

pub use report::{Experiment, Row};
