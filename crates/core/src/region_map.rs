//! The host-side frame table: O(1) ownership routing for `pim_free`.
//!
//! The paper's `pim_free` resolves an address to its owner — a
//! tasklet's size-class pool or the backend buddy allocator — with a
//! constant-time block-header lookup. [`RegionMap`] is the simulator's
//! bookkeeping equivalent: a flat `Vec` indexed by frame number
//! `(addr - heap_base) / frame_bytes` whose entries record each frame's
//! owner, replacing the `BTreeMap` free oracle the reproduction used to
//! carry (O(log n) per op, memory unbounded in live allocations).
//!
//! Both allocators share the type, differing only in granularity:
//! [`crate::PimMalloc`] maps 4 KB frames (its backend's minimum block),
//! while [`crate::StrawManAllocator`] maps `min_block`-sized frames
//! (32 B in the paper's configuration) so that every buddy allocation
//! starts on a frame boundary. Frame entries also carry the requested
//! byte count of each live allocation, which is what
//! [`crate::FragTracker`]'s `U` accounting consumes on free.
//!
//! The map is *host-side* state standing in for the on-DPU block
//! header; it charges no simulated cycles itself. The simulated cost of
//! the lookup is charged by the caller (one MRAM header read in
//! [`crate::PimMalloc::pim_free`]).

use crate::error::AllocError;

/// A thread-cache-owned frame: one 4 KB block subdivided into
/// fixed-size sub-blocks of one size class.
#[derive(Debug, Clone)]
struct CacheFrame {
    /// Owning tasklet.
    tid: u32,
    /// Size-class index within the owner's pools.
    class_idx: u32,
    /// Sub-block size in bytes.
    class_bytes: u32,
    /// Requested bytes per sub-block slot; 0 = slot free.
    requested: Box<[u32]>,
}

/// Who owns one frame of the heap.
#[derive(Debug, Clone, Default)]
enum FrameEntry {
    /// Not handed out by the backend (or returned to it).
    #[default]
    Free,
    /// Owned by a thread cache's size-class pool.
    Cache(Box<CacheFrame>),
    /// First frame of a block handed out directly by the backend.
    BackendHead {
        /// Bytes the program asked for.
        requested: u32,
        /// Frames the (buddy-rounded) block spans, including this one.
        frames: u32,
    },
    /// Interior frame of a multi-frame backend block; frees here are
    /// interior-pointer errors.
    BackendBody,
}

/// Where a freed address routes, derived in O(1) from the frame table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeRoute {
    /// A sub-block owned by tasklet `tid`'s pool for class `class_idx`.
    Cache {
        /// Tasklet whose cache owns the containing frame.
        tid: usize,
        /// Size-class index within that cache.
        class_idx: usize,
        /// Bytes the program originally requested.
        requested: u32,
    },
    /// A block handed out directly by the backend buddy allocator.
    Backend {
        /// Bytes the program originally requested.
        requested: u32,
    },
}

/// Flat frame-ownership table over one DPU heap.
#[derive(Debug)]
pub struct RegionMap {
    heap_base: u32,
    frame_bytes: u32,
    /// `frame_bytes.trailing_zeros()`: frame arithmetic runs on every
    /// malloc and free, so divisions become shifts.
    frame_shift: u32,
    frames: Vec<FrameEntry>,
    live: usize,
}

impl RegionMap {
    /// Creates a table of `heap_size / frame_bytes` free frames.
    ///
    /// # Panics
    ///
    /// Panics unless `frame_bytes` is a power of two that divides both
    /// `heap_size` and `heap_base`.
    pub fn new(heap_base: u32, heap_size: u32, frame_bytes: u32) -> Self {
        assert!(
            frame_bytes.is_power_of_two(),
            "frame size must be a power of two"
        );
        assert_eq!(heap_size % frame_bytes, 0, "frames must tile the heap");
        assert_eq!(
            heap_base % frame_bytes,
            0,
            "heap base must be frame-aligned"
        );
        RegionMap {
            heap_base,
            frame_bytes,
            frame_shift: frame_bytes.trailing_zeros(),
            frames: vec![FrameEntry::Free; (heap_size / frame_bytes) as usize],
            live: 0,
        }
    }

    /// Number of live user allocations recorded in the table.
    pub fn live_allocations(&self) -> usize {
        self.live
    }

    /// Frame granularity in bytes.
    pub fn frame_bytes(&self) -> u32 {
        self.frame_bytes
    }

    /// Frame index of `addr`, or `None` outside the heap.
    #[inline]
    fn frame_index(&self, addr: u32) -> Option<usize> {
        let offset = addr.checked_sub(self.heap_base)?;
        let idx = (offset >> self.frame_shift) as usize;
        (idx < self.frames.len()).then_some(idx)
    }

    /// Base address of frame `idx`.
    #[inline]
    fn frame_base(&self, idx: usize) -> u32 {
        self.heap_base + ((idx as u32) << self.frame_shift)
    }

    /// Records that the thread cache of tasklet `tid` fetched the frame
    /// at `base` from the backend for size class `class_idx`
    /// (`class_bytes`-byte sub-blocks).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a free, frame-aligned heap address —
    /// those would be allocator bugs, not program errors.
    pub fn note_cache_block(&mut self, base: u32, tid: usize, class_idx: usize, class_bytes: u32) {
        let idx = self.frame_index(base).expect("cache block inside heap");
        assert_eq!(base, self.frame_base(idx), "cache block frame-aligned");
        assert!(
            matches!(self.frames[idx], FrameEntry::Free),
            "cache block {base:#x} lands on an occupied frame"
        );
        let slots = (self.frame_bytes / class_bytes) as usize;
        self.frames[idx] = FrameEntry::Cache(Box::new(CacheFrame {
            tid: tid as u32,
            class_idx: class_idx as u32,
            class_bytes,
            requested: vec![0; slots].into_boxed_slice(),
        }));
    }

    /// Records a sub-block allocation of `requested` bytes at `addr`
    /// inside a previously noted cache frame.
    ///
    /// # Panics
    ///
    /// Panics if `addr` does not name an empty, aligned slot of a cache
    /// frame (allocator bug).
    pub fn note_cache_alloc(&mut self, addr: u32, requested: u32) {
        assert!(requested > 0, "zero-size allocations are rejected earlier");
        let idx = self.frame_index(addr).expect("cache alloc inside heap");
        let base = self.frame_base(idx);
        let FrameEntry::Cache(frame) = &mut self.frames[idx] else {
            panic!("cache alloc {addr:#x} outside a cache frame");
        };
        let offset = addr - base;
        assert_eq!(offset % frame.class_bytes, 0, "sub-block aligned");
        let slot = (offset / frame.class_bytes) as usize;
        assert_eq!(frame.requested[slot], 0, "slot {addr:#x} double-filled");
        frame.requested[slot] = requested;
        self.live += 1;
    }

    /// Records a backend (bypass) allocation: `reserved` buddy-rounded
    /// bytes at `base`, of which the program asked for `requested`.
    ///
    /// # Panics
    ///
    /// Panics if the spanned frames are not free and aligned
    /// (allocator bug).
    pub fn note_backend_alloc(&mut self, base: u32, reserved: u32, requested: u32) {
        let idx = self.frame_index(base).expect("backend block inside heap");
        assert_eq!(base, self.frame_base(idx), "backend block frame-aligned");
        let span = (reserved / self.frame_bytes).max(1) as usize;
        for body in &self.frames[idx..idx + span] {
            assert!(
                matches!(body, FrameEntry::Free),
                "backend block {base:#x} overlaps an occupied frame"
            );
        }
        self.frames[idx] = FrameEntry::BackendHead {
            requested,
            frames: span as u32,
        };
        for body in &mut self.frames[idx + 1..idx + span] {
            *body = FrameEntry::BackendBody;
        }
        self.live += 1;
    }

    /// Resolves `addr` to its owner and removes the allocation record —
    /// the O(1) routing step of `pim_free`.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidFree`] if `addr` is outside the heap, not
    /// the base of a live allocation (interior or misaligned pointer),
    /// or already free (double free).
    pub fn take_route(&mut self, addr: u32) -> Result<FreeRoute, AllocError> {
        let invalid = AllocError::InvalidFree { addr };
        let idx = self.frame_index(addr).ok_or(invalid)?;
        let base = self.frame_base(idx);
        match &mut self.frames[idx] {
            FrameEntry::Free | FrameEntry::BackendBody => Err(invalid),
            FrameEntry::Cache(frame) => {
                let offset = addr - base;
                if !offset.is_multiple_of(frame.class_bytes) {
                    return Err(invalid);
                }
                // A class that does not divide the frame leaves a tail
                // past the last slot.
                let slot = (offset / frame.class_bytes) as usize;
                let requested = match frame.requested.get_mut(slot) {
                    Some(r) if *r != 0 => std::mem::take(r),
                    _ => return Err(invalid),
                };
                self.live -= 1;
                Ok(FreeRoute::Cache {
                    tid: frame.tid as usize,
                    class_idx: frame.class_idx as usize,
                    requested,
                })
            }
            &mut FrameEntry::BackendHead { requested, frames } => {
                if addr != base {
                    return Err(invalid);
                }
                for entry in &mut self.frames[idx..idx + frames as usize] {
                    *entry = FrameEntry::Free;
                }
                self.live -= 1;
                Ok(FreeRoute::Backend { requested })
            }
        }
    }

    /// Marks a drained cache frame free again (the thread cache
    /// released the block at `base` back to the backend).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not a cache frame with every slot free
    /// (allocator bug).
    pub fn release_cache_block(&mut self, base: u32) {
        let idx = self.frame_index(base).expect("released block inside heap");
        let FrameEntry::Cache(frame) = &self.frames[idx] else {
            panic!("released block {base:#x} is not a cache frame");
        };
        assert!(
            frame.requested.iter().all(|&r| r == 0),
            "released block {base:#x} still has live sub-blocks"
        );
        self.frames[idx] = FrameEntry::Free;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> RegionMap {
        RegionMap::new(0x1000, 64 << 10, 4096)
    }

    #[test]
    fn cache_slots_route_back_to_their_pool() {
        let mut m = map();
        m.note_cache_block(0x1000, 3, 2, 256);
        m.note_cache_alloc(0x1000 + 512, 100);
        assert_eq!(m.live_allocations(), 1);
        assert_eq!(
            m.take_route(0x1000 + 512),
            Ok(FreeRoute::Cache {
                tid: 3,
                class_idx: 2,
                requested: 100
            })
        );
        assert_eq!(m.live_allocations(), 0);
        // Double free of the now-empty slot.
        assert_eq!(
            m.take_route(0x1000 + 512),
            Err(AllocError::InvalidFree { addr: 0x1000 + 512 })
        );
    }

    #[test]
    fn backend_blocks_span_frames_and_reject_interior_frees() {
        let mut m = map();
        m.note_backend_alloc(0x2000, 8192, 5000);
        // Interior frame and interior byte are both invalid.
        assert!(m.take_route(0x3000).is_err());
        assert!(m.take_route(0x2008).is_err());
        assert_eq!(
            m.take_route(0x2000),
            Ok(FreeRoute::Backend { requested: 5000 })
        );
        // Both frames are free again.
        m.note_backend_alloc(0x3000, 4096, 4096);
        assert_eq!(m.live_allocations(), 1);
    }

    #[test]
    fn out_of_heap_addresses_are_invalid() {
        let mut m = map();
        assert!(m.take_route(0).is_err()); // below heap_base
        assert!(m.take_route(0x1000 + (64 << 10)).is_err()); // past end
        assert!(m.take_route(u32::MAX).is_err());
    }

    #[test]
    fn misaligned_cache_frees_are_invalid() {
        let mut m = map();
        m.note_cache_block(0x1000, 0, 0, 256);
        m.note_cache_alloc(0x1000, 200);
        assert!(m.take_route(0x1000 + 3).is_err());
        assert!(m.take_route(0x1000).is_ok());
    }

    #[test]
    fn frees_in_the_tail_past_the_last_slot_are_invalid() {
        let mut m = map();
        // 48 B does not divide 4 KB: 85 slots, then a 16 B tail whose
        // first byte is still class-aligned.
        m.note_cache_block(0x1000, 0, 0, 48);
        m.note_cache_alloc(0x1000 + 84 * 48, 40);
        let tail = 0x1000 + 85 * 48;
        assert_eq!(
            m.take_route(tail),
            Err(AllocError::InvalidFree { addr: tail })
        );
        assert_eq!(m.live_allocations(), 1);
        assert!(m.take_route(0x1000 + 84 * 48).is_ok());
    }

    #[test]
    fn release_requires_a_drained_frame() {
        let mut m = map();
        m.note_cache_block(0x1000, 0, 0, 2048);
        m.note_cache_alloc(0x1000, 2000);
        m.note_cache_alloc(0x1800, 1500);
        assert!(m.take_route(0x1000).is_ok());
        assert!(m.take_route(0x1800).is_ok());
        m.release_cache_block(0x1000);
        // The frame can be handed out by the backend again.
        m.note_backend_alloc(0x1000, 4096, 4096);
    }

    #[test]
    #[should_panic(expected = "still has live sub-blocks")]
    fn releasing_a_live_frame_panics() {
        let mut m = map();
        m.note_cache_block(0x1000, 0, 0, 2048);
        m.note_cache_alloc(0x1000, 1);
        m.release_cache_block(0x1000);
    }

    #[test]
    #[should_panic(expected = "occupied frame")]
    fn overlapping_backend_blocks_panic() {
        let mut m = map();
        m.note_backend_alloc(0x2000, 8192, 8192);
        m.note_backend_alloc(0x3000, 4096, 4096);
    }

    #[test]
    fn straw_man_granularity_works_at_min_block() {
        // The straw-man shares the type at 32 B frames.
        let mut m = RegionMap::new(0, 1 << 10, 32);
        m.note_backend_alloc(64, 128, 100);
        assert!(m.take_route(96).is_err(), "interior frame");
        assert_eq!(m.take_route(64), Ok(FreeRoute::Backend { requested: 100 }));
    }
}
