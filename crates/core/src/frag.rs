//! Memory-fragmentation accounting (Table III of the paper).
//!
//! Fragmentation is measured as **A/U** following Hoard (Berger et al.,
//! ASPLOS 2000): `A` is the memory the allocator has reserved from the
//! heap (4 KB thread-cache blocks — used or not — plus buddy-rounded
//! bypass blocks), and `U` is the memory the program actually
//! requested. A ratio above 1.0 means reserved-but-unused memory:
//! internal fragmentation from size-class rounding plus idle
//! pre-populated thread-cache blocks.

use serde::{Deserialize, Serialize};

/// Tracks live reserved (A) and requested (U) bytes, with peaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragTracker {
    reserved_live: u64,
    requested_live: u64,
    peak_reserved: u64,
    peak_requested: u64,
}

impl FragTracker {
    /// Creates a tracker with nothing reserved or requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// The allocator reserved `bytes` from the heap (a thread-cache
    /// block fetch or a bypass allocation).
    pub fn on_reserve(&mut self, bytes: u64) {
        self.reserved_live += bytes;
        self.peak_reserved = self.peak_reserved.max(self.reserved_live);
    }

    /// The allocator returned `bytes` to the heap.
    pub fn on_release(&mut self, bytes: u64) {
        debug_assert!(self.reserved_live >= bytes, "release exceeds reserve");
        self.reserved_live -= bytes;
    }

    /// The program requested `bytes` via `pim_malloc`.
    pub fn on_user_alloc(&mut self, bytes: u64) {
        self.requested_live += bytes;
        self.peak_requested = self.peak_requested.max(self.requested_live);
    }

    /// The program freed an allocation of `bytes` via `pim_free`.
    pub fn on_user_free(&mut self, bytes: u64) {
        debug_assert!(self.requested_live >= bytes, "free exceeds live");
        self.requested_live -= bytes;
    }

    /// Live reserved bytes (A).
    pub fn reserved_live(&self) -> u64 {
        self.reserved_live
    }

    /// Live requested bytes (U).
    pub fn requested_live(&self) -> u64 {
        self.requested_live
    }

    /// Current fragmentation A/U. Returns `f64::INFINITY` if memory is
    /// reserved while nothing is requested, and 1.0 if both are zero.
    pub fn ratio(&self) -> f64 {
        match (self.reserved_live, self.requested_live) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (a, u) => a as f64 / u as f64,
        }
    }

    /// Peak reserved bytes over peak requested bytes (peak A over
    /// peak U). The two peaks need not fall at the same moment, so this
    /// is not the A/U of any one instant.
    pub fn peak_ratio(&self) -> f64 {
        match (self.peak_reserved, self.peak_requested) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (a, u) => a as f64 / u as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_reflects_reserved_over_requested() {
        let mut f = FragTracker::new();
        f.on_reserve(4096);
        f.on_user_alloc(2048);
        assert!((f.ratio() - 2.0).abs() < 1e-12);
        f.on_user_alloc(2048);
        assert!((f.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peaks_survive_frees() {
        let mut f = FragTracker::new();
        f.on_reserve(8192);
        f.on_user_alloc(1024);
        f.on_user_free(1024);
        f.on_release(8192);
        assert_eq!(f.reserved_live(), 0);
        assert_eq!(f.requested_live(), 0);
        assert!((f.peak_ratio() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_ratio_one() {
        assert_eq!(FragTracker::new().ratio(), 1.0);
        assert_eq!(FragTracker::new().peak_ratio(), 1.0);
    }

    #[test]
    fn reserved_without_requests_is_infinite() {
        let mut f = FragTracker::new();
        f.on_reserve(4096);
        assert!(f.ratio().is_infinite());
    }
}
