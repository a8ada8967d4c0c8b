//! # pim-malloc — fast and scalable dynamic memory allocation for PIM
//!
//! A faithful Rust reproduction of the allocators from *"PIM-malloc: A
//! Fast and Scalable Dynamic Memory Allocator for Processing-In-Memory
//! (PIM) Architectures"* (HPCA 2026), running on the [`pim_sim`]
//! UPMEM-like simulator substrate:
//!
//! * [`StrawManAllocator`] — the paper's `buddy_alloc_PIM_DRAM`
//!   straw-man: one deep (20-level) mutex-protected buddy tree over the
//!   whole 32 MB bank heap.
//! * [`PimMalloc`] with [`BackendKind::Coarse`] — **PIM-malloc-SW**:
//!   per-tasklet thread caches in front of a truncated (13-level) buddy
//!   backend whose metadata sits behind a coarse software-managed
//!   WRAM buffer.
//! * [`PimMalloc`] with [`BackendKind::HwCache`] —
//!   **PIM-malloc-HW/SW**: the same hierarchy with the backend's
//!   metadata served by a per-core hardware buddy cache (a 16-entry
//!   CAM with LRU replacement and 1-cycle access).
//!
//! [`BackendKind`] is the one description of where a buddy tree's
//! metadata lives: WRAM, a coarse software window, a fine software LRU,
//! or a hardware CAM. Both allocators take one
//! ([`StrawManConfig::metadata`], [`AllocGeometry::with_backend`]), and
//! [`MetadataBackend::new`] builds its store: one node array, with the
//! placement deciding what each access costs. The software LRU is the
//! CAM's LRU at software prices, and §VII's general-purpose line cache
//! is a CAM with wide entries; see [`metadata`].
//!
//! ## Frontend and remote frees
//!
//! Size-class requests are served by the per-tasklet [`ThreadCache`]s:
//! 4 KB blocks with one free bitmap each, the paper's design, priced
//! by the block-by-block, word-by-word scan. A cross-tasklet free
//! marks its slot remote in the owner's cache, and two counters per
//! size class charge one simulated MRAM round-trip per eight remote
//! frees and per eight reuses of remote slots. No remote free takes
//! the global backend lock. `tests/frontend_charges.rs` pins every
//! op's charge against recorded digests.
//!
//! ## Error paths and quarantine
//!
//! Every hostile operation — zero/oversized sizes, frees of addresses
//! the [`RegionMap`] never issued, double frees — returns an
//! [`AllocError`] instead of panicking or corrupting the frame table
//! (property-tested in `tests/alloc_error_paths.rs`). An
//! [`AllocGeometry::with_quarantine`] budget hardens this further:
//! past `n` invalid frees the allocator *seals itself* and refuses
//! all subsequent operations with [`AllocError::Quarantined`], on the
//! theory that a caller issuing garbage frees can no longer be
//! trusted not to have corrupted its own heap view.
//!
//! ## Quick example
//!
//! Allocator geometry is described with the [`AllocGeometry`] builder
//! (`sw`/`hw_sw` presets plus `with_*` refinements):
//!
//! ```
//! use pim_malloc::{AllocGeometry, PimAllocator, PimMalloc};
//! use pim_sim::{DpuConfig, DpuSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
//! let mut alloc = PimMalloc::init(&mut dpu, AllocGeometry::sw(16).build())?;
//! let mut ctx = dpu.ctx(0);
//! let ptr = alloc.pim_malloc(&mut ctx, 256)?;
//! alloc.pim_free(&mut ctx, ptr)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod api;
pub mod buddy;
pub mod error;
pub mod frag;
pub mod geometry;
pub mod metadata;
pub mod pim_malloc;
pub mod region_map;
pub mod stats;
pub mod straw_man;
pub mod thread_cache;

pub use api::PimAllocator;
pub use buddy::{BuddyAllocator, BuddyGeometry, DescentPolicy};
pub use error::{AllocError, InitError};
pub use frag::FragTracker;
pub use geometry::{AllocGeometry, PimMallocConfig, SizeClassTable, SIZE_CLASS_ALIGN};
pub use metadata::{BackendKind, MetaStats, MetadataBackend, NodeState};
pub use pim_malloc::PimMalloc;
pub use region_map::{FreeRoute, RegionMap};
pub use stats::{AllocStats, ServiceSite};
pub use straw_man::{StrawManAllocator, StrawManConfig};
pub use thread_cache::{FreeOutcome, Slot, ThreadCache, CACHE_BLOCK_BYTES, DEFAULT_SIZE_CLASSES};
