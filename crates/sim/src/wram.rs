//! Scratchpad (WRAM) capacity budgeting.
//!
//! UPMEM DPUs have 64 KB of WRAM shared by all tasklets. WRAM loads and
//! stores are ordinary pipeline instructions (no extra latency), so the
//! simulator does not model WRAM *timing* separately — what matters for
//! allocator design is the *capacity budget*: the software-managed
//! metadata buffer, the per-tasklet thread-cache bitmaps, and tasklet
//! stacks must all fit. [`Wram`] is a capacity ledger that makes
//! running out of scratchpad an explicit, testable error naming the
//! region that did not fit.

use std::error::Error;
use std::fmt;

/// Error returned when a WRAM reservation exceeds the remaining budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WramOverflow {
    /// Name of the region that failed to fit.
    pub region: String,
    /// Bytes requested by the failing reservation.
    pub requested: u32,
    /// Bytes still available when the reservation was attempted.
    pub available: u32,
}

impl fmt::Display for WramOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WRAM overflow: region `{}` needs {} B but only {} B remain",
            self.region, self.requested, self.available
        )
    }
}

impl Error for WramOverflow {}

/// A 64 KB scratchpad capacity ledger.
///
/// ```
/// use pim_sim::Wram;
/// let mut w = Wram::new(64 * 1024);
/// w.reserve("metadata buffer", 2048)?;
/// assert_eq!(w.available_bytes(), 62 * 1024);
/// # Ok::<(), pim_sim::wram::WramOverflow>(())
/// ```
#[derive(Debug, Clone)]
pub struct Wram {
    available_bytes: u32,
}

impl Wram {
    /// Creates a scratchpad with `size_bytes` capacity (64 KB on UPMEM).
    pub fn new(size_bytes: u32) -> Self {
        Wram {
            available_bytes: size_bytes,
        }
    }

    /// Bytes still available.
    pub fn available_bytes(&self) -> u32 {
        self.available_bytes
    }

    /// Reserves `bytes` for the region `name`.
    ///
    /// # Errors
    ///
    /// Returns [`WramOverflow`] naming the region if the reservation
    /// does not fit; the ledger is left unchanged in that case.
    pub fn reserve(&mut self, name: &str, bytes: u32) -> Result<(), WramOverflow> {
        if bytes > self.available_bytes {
            return Err(WramOverflow {
                region: name.to_owned(),
                requested: bytes,
                available: self.available_bytes,
            });
        }
        self.available_bytes -= bytes;
        Ok(())
    }
}

impl Default for Wram {
    /// A 64 KB scratchpad, the UPMEM WRAM size.
    fn default() -> Self {
        Wram::new(64 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_bump_sequentially() {
        let mut w = Wram::new(1024);
        w.reserve("a", 100).unwrap();
        assert_eq!(w.available_bytes(), 924);
        w.reserve("b", 200).unwrap();
        assert_eq!(w.available_bytes(), 724);
    }

    #[test]
    fn overflow_is_reported_and_leaves_state_unchanged() {
        let mut w = Wram::new(128);
        w.reserve("a", 100).unwrap();
        let err = w.reserve("big", 64).unwrap_err();
        assert_eq!(err.requested, 64);
        assert_eq!(err.available, 28);
        assert_eq!(err.region, "big");
        assert_eq!(w.available_bytes(), 28, "failed reserve must not consume");
        let msg = err.to_string();
        assert!(msg.contains("big") && msg.contains("64"), "message: {msg}");
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut w = Wram::new(64);
        w.reserve("all", 64).unwrap();
        assert_eq!(w.available_bytes(), 0);
        assert!(w.reserve("one more byte", 1).is_err());
    }

    #[test]
    fn default_is_upmem_sized() {
        assert_eq!(Wram::default().available_bytes(), 65536);
    }
}
