//! # pim-workloads — evaluation workloads for the PIM-malloc reproduction
//!
//! The three workload families the paper evaluates:
//!
//! * [`micro`] — the standalone allocation microbenchmark behind
//!   Figures 7, 8, 15 and 16: N tasklets each issuing a stream of
//!   `pim_malloc`/`pim_free` requests of configurable size.
//! * [`graph`] — dynamic graph update (case study #1, Figures 3 and
//!   17): a synthetic power-law graph is updated with a fixed set of
//!   new edges under three representations — static CSR, an array of
//!   linked lists, and variable-sized arrays (Hornet-style).
//! * [`llm`] — the attention layer of LLM inference (case study #2,
//!   Figures 4 and 18): KV-cache growth under static vs dynamic
//!   allocation, plus a discrete-event serving simulator reporting
//!   throughput and TPOT percentiles.
//!
//! All workloads are generic over the allocator via
//! [`AllocatorKind`], mirroring how the paper runs the straw-man,
//! PIM-malloc-SW and PIM-malloc-HW/SW on the same request streams.
//!
//! [`requests`] additionally packages each family's allocation shape
//! as a `pim_serving` request class, so the open-loop serving frontend
//! can drive the fleet with a micro/graph/LLM mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod alloc_kind;
pub mod graph;
pub mod llm;
pub mod micro;
pub mod requests;

pub use alloc_kind::AllocatorKind;
