//! Dynamic graph update — case study #1 of the paper (§III-A, §VI-B).
//!
//! A synthetic power-law graph stands in for loc-gowalla (see
//! [`generator`]); the update workload samples 1/3 of its edges as
//! "new" and inserts them under three representations:
//!
//! * [`csr::CsrGraph`] — the static baseline, which must shift its
//!   arrays on every insert;
//! * [`linked::LinkedListGraph`] — fixed 256 B chunks allocated with
//!   `pim_malloc`;
//! * [`vararray::VarArrayGraph`] — power-of-two edge arrays grown by
//!   doubling.
//!
//! [`update::run_graph_update`] drives the experiment across DPUs and
//! tasklets and reports the Figure 17 metrics.

pub mod csr;
pub mod generator;
pub mod linked;
pub mod update;
pub mod vararray;

pub use generator::{generate_power_law, split_for_update_count, Graph, UpdateWorkload};
pub use update::{run_graph_update, GraphRepr, GraphUpdateConfig, GraphUpdateResult};
