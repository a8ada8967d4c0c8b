//! Allocator construction: the shared size-class table and the
//! [`AllocGeometry`] builder.
//!
//! Historically every call site built a [`PimMallocConfig`] by struct
//! literal (`PimMallocConfig { heap_size, ..PimMallocConfig::sw(n) }`)
//! and poked fields afterwards, and every layer — thread caches,
//! routing, tests — carried its own `&[u32]` copy of the size-class
//! geometry. This module replaces both:
//!
//! * [`SizeClassTable`] is the single validated owner of the
//!   size-class list. `class_for`/`class_bytes` live here; the thread
//!   caches and the allocator's per-class remote-free counters consume
//!   one shared table instead of private slices.
//! * [`AllocGeometry`] is a fluent builder: start from a paper preset
//!   ([`AllocGeometry::sw`] / [`AllocGeometry::hw_sw`]), chain
//!   `with_*` overrides, and [`AllocGeometry::build`] the immutable
//!   [`PimMallocConfig`] that [`crate::PimMalloc::init`] consumes.
//!
//! ```
//! use pim_malloc::{AllocGeometry, SizeClassTable};
//!
//! let cfg = AllocGeometry::sw(16)
//!     .with_heap_size(1 << 20)
//!     .with_size_classes(SizeClassTable::new([32, 64, 256, 1024]))
//!     .with_quarantine(8)
//!     .build();
//! assert_eq!(cfg.heap_size(), 1 << 20);
//! assert_eq!(cfg.size_classes().max_bytes(), 1024);
//! ```

use crate::metadata::BackendKind;
use crate::thread_cache::{CACHE_BLOCK_BYTES, DEFAULT_SIZE_CLASSES};

/// Required alignment of every size class: sub-block addresses are
/// `base + slot * class_bytes`, and the DPU's MRAM interface moves
/// 8-byte-aligned words, so classes must be multiples of 8.
pub const SIZE_CLASS_ALIGN: u32 = 8;

/// The validated, shared size-class geometry of one allocator: a
/// strictly increasing list of 8-byte-aligned sub-block sizes, each at
/// most half a [`CACHE_BLOCK_BYTES`] block. The paper's default is
/// powers of two ([`SizeClassTable::paper_default`]); synthesized
/// tables (`pim-profile`) may use any aligned boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeClassTable {
    classes: Vec<u32>,
}

impl SizeClassTable {
    /// Builds a table from `classes`.
    ///
    /// # Panics
    ///
    /// Panics on an empty list, and on the first class that is zero,
    /// not a multiple of [`SIZE_CLASS_ALIGN`], larger than half a
    /// [`CACHE_BLOCK_BYTES`] block, or not above the class before it.
    pub fn new(classes: impl Into<Vec<u32>>) -> Self {
        let classes = classes.into();
        assert!(!classes.is_empty(), "need at least one size class");
        let mut prev = 0;
        for &c in &classes {
            assert!(c != 0, "size class of zero bytes");
            assert!(
                c % SIZE_CLASS_ALIGN == 0,
                "size class {c} not aligned to {SIZE_CLASS_ALIGN} B"
            );
            assert!(
                c <= CACHE_BLOCK_BYTES / 2,
                "size class {c} too large for a {CACHE_BLOCK_BYTES} B block"
            );
            assert!(c != prev, "duplicate size class {c}");
            assert!(
                c > prev,
                "size classes must be strictly increasing ({c} after {prev})"
            );
            prev = c;
        }
        SizeClassTable { classes }
    }

    /// The paper's default geometry: powers of two from 16 B to 2 KB.
    pub fn paper_default() -> Self {
        SizeClassTable::new(DEFAULT_SIZE_CLASSES)
    }

    /// The class sizes, smallest first.
    pub fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// Number of size classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Always false — the constructor rejects empty tables; provided
    /// for clippy's `len_without_is_empty` contract.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Index of the smallest class that fits `size`, or `None` if the
    /// request must bypass the caches.
    pub fn class_for(&self, size: u32) -> Option<usize> {
        if size == 0 {
            return None;
        }
        self.classes.iter().position(|&c| c >= size)
    }

    /// Sub-block size of class `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn class_bytes(&self, idx: usize) -> u32 {
        self.classes[idx]
    }

    /// Largest size the caches can serve; bigger requests bypass.
    pub fn max_bytes(&self) -> u32 {
        *self.classes.last().expect("nonempty")
    }
}

/// Immutable configuration of a [`crate::PimMalloc`] instance (one per
/// DPU). Built by [`AllocGeometry`]; read through getters.
#[derive(Debug, Clone, PartialEq)]
pub struct PimMallocConfig {
    pub(crate) heap_base: u32,
    pub(crate) heap_size: u32,
    pub(crate) meta_base: u32,
    pub(crate) size_classes: SizeClassTable,
    pub(crate) n_tasklets: usize,
    pub(crate) backend: BackendKind,
    pub(crate) prepopulate: bool,
    pub(crate) quarantine_after: Option<u32>,
}

impl PimMallocConfig {
    /// First address of the heap region in MRAM.
    pub fn heap_base(&self) -> u32 {
        self.heap_base
    }

    /// Heap capacity in bytes.
    pub fn heap_size(&self) -> u32 {
        self.heap_size
    }

    /// MRAM address of the backend's metadata array.
    pub fn meta_base(&self) -> u32 {
        self.meta_base
    }

    /// The shared size-class geometry.
    pub fn size_classes(&self) -> &SizeClassTable {
        &self.size_classes
    }

    /// Number of tasklets (thread caches) provisioned.
    pub fn n_tasklets(&self) -> usize {
        self.n_tasklets
    }

    /// Metadata store of the backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Whether init pre-populates every thread-cache pool.
    pub fn prepopulate(&self) -> bool {
        self.prepopulate
    }

    /// Invalid frees tolerated before self-quarantine.
    pub fn quarantine_after(&self) -> Option<u32> {
        self.quarantine_after
    }
}

/// Fluent builder for [`PimMallocConfig`]: preset entry points,
/// `with_*` overrides, terminal [`AllocGeometry::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct AllocGeometry {
    cfg: PimMallocConfig,
}

impl AllocGeometry {
    /// The paper's PIM-malloc-SW preset for `n_tasklets`: 32 MB heap,
    /// coarse 2 KB software metadata window, eager pre-population.
    pub fn sw(n_tasklets: usize) -> Self {
        AllocGeometry {
            cfg: PimMallocConfig {
                heap_base: 0x0200_0000,
                heap_size: 32 << 20,
                meta_base: 0x0100_0000,
                size_classes: SizeClassTable::paper_default(),
                n_tasklets,
                backend: BackendKind::Coarse { buffer_bytes: 2048 },
                prepopulate: true,
                quarantine_after: None,
            },
        }
    }

    /// The paper's PIM-malloc-HW/SW preset: as [`AllocGeometry::sw`]
    /// with the backend metadata served by the hardware buddy cache.
    pub fn hw_sw(n_tasklets: usize) -> Self {
        AllocGeometry::sw(n_tasklets).with_backend(BackendKind::HwCache {
            cache: pim_sim::BuddyCacheConfig::default(),
        })
    }

    /// Overrides the heap size.
    pub fn with_heap_size(mut self, bytes: u32) -> Self {
        self.cfg.heap_size = bytes;
        self
    }

    /// Replaces the size-class table shared by the thread caches and
    /// the allocator's per-class remote-free counters.
    pub fn with_size_classes(mut self, table: SizeClassTable) -> Self {
        self.cfg.size_classes = table;
        self
    }

    /// Selects the backend metadata store.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Disables thread-cache pre-population (PIM-malloc-lazy,
    /// Table III).
    pub fn lazy(mut self) -> Self {
        self.cfg.prepopulate = false;
        self
    }

    /// Quarantines the allocator after `n` invalid frees (fault
    /// hardening for hostile or corrupted callers).
    pub fn with_quarantine(mut self, n: u32) -> Self {
        self.cfg.quarantine_after = Some(n);
        self
    }

    /// Validates and returns the finished configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero or non-power-of-two heap size.
    pub fn build(self) -> PimMallocConfig {
        let cfg = self.cfg;
        assert!(
            cfg.heap_size.is_power_of_two(),
            "heap size {} not a power of two",
            cfg.heap_size
        );
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_rounds_up() {
        let t = SizeClassTable::paper_default();
        assert_eq!(t.class_for(1), Some(0)); // 16 B
        assert_eq!(t.class_for(16), Some(0));
        assert_eq!(t.class_for(17), Some(1)); // 32 B
        assert_eq!(t.class_for(2048), Some(7));
        assert_eq!(t.class_for(2049), None); // bypass
        assert_eq!(t.class_for(0), None);
        assert_eq!(t.max_bytes(), 2048);
        assert_eq!(t.len(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_classes_rejected() {
        SizeClassTable::new([32, 16]);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn class_larger_than_half_block_rejected() {
        SizeClassTable::new([4096]);
    }

    #[test]
    #[should_panic(expected = "need at least one size class")]
    fn empty_class_list_rejected() {
        SizeClassTable::new(Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "size class of zero bytes")]
    fn zero_byte_class_rejected() {
        SizeClassTable::new([16, 0, 64]);
    }

    #[test]
    #[should_panic(expected = "size class 28 not aligned to 8 B")]
    fn misaligned_class_rejected() {
        SizeClassTable::new([16, 28, 64]);
    }

    #[test]
    #[should_panic(expected = "duplicate size class 64")]
    fn duplicate_class_rejected() {
        SizeClassTable::new([16, 64, 64]);
    }

    #[test]
    fn aligned_non_power_of_two_classes_are_valid() {
        // Synthesized geometry: arbitrary 8-byte-aligned boundaries.
        let t = SizeClassTable::new([24, 72, 520, 2040]);
        assert_eq!(t.class_for(25), Some(1)); // 72 B
        assert_eq!(t.class_for(2040), Some(3));
        assert_eq!(t.class_for(2041), None); // bypass
        assert_eq!(t.max_bytes(), 2040);
    }

    #[test]
    fn presets_match_the_paper() {
        let sw = AllocGeometry::sw(16).build();
        assert_eq!(sw.heap_size(), 32 << 20);
        assert_eq!(sw.n_tasklets(), 16);
        assert_eq!(sw.size_classes().classes(), DEFAULT_SIZE_CLASSES);
        assert!(sw.prepopulate());
        assert!(matches!(sw.backend(), BackendKind::Coarse { .. }));
        let hw = AllocGeometry::hw_sw(16).build();
        assert!(matches!(hw.backend(), BackendKind::HwCache { .. }));
    }

    #[test]
    fn builder_overrides_compose() {
        let cfg = AllocGeometry::sw(4)
            .with_heap_size(1 << 20)
            .with_size_classes(SizeClassTable::new([64, 512]))
            .with_quarantine(3)
            .lazy()
            .build();
        assert_eq!(cfg.heap_size(), 1 << 20);
        assert_eq!(cfg.size_classes().classes(), [64, 512]);
        assert_eq!(cfg.quarantine_after(), Some(3));
        assert!(!cfg.prepopulate());
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_heap_rejected() {
        AllocGeometry::sw(1)
            .with_heap_size((1 << 20) + 4096)
            .build();
    }
}
