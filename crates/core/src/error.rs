//! Error types of the PIM-malloc core library.

use std::error::Error;
use std::fmt;

/// Errors returned by allocator operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of the requested size exists in the heap (either
    /// genuinely exhausted or too fragmented to satisfy the request).
    OutOfMemory {
        /// The rejected request size in bytes.
        requested: u32,
    },
    /// The requested size is zero or exceeds the heap's largest block.
    InvalidSize {
        /// The rejected request size in bytes.
        requested: u32,
    },
    /// A `pim_free` was issued for an address that does not correspond
    /// to a live allocation.
    InvalidFree {
        /// The offending address.
        addr: u32,
    },
    /// The allocator quarantined itself after observing too many
    /// invalid frees (`PimMallocConfig::quarantine_after`): heap
    /// metadata can no longer be trusted, so every subsequent
    /// operation is refused instead of risking silent corruption.
    Quarantined {
        /// Invalid frees observed before the allocator sealed itself.
        invalid_frees: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested } => {
                write!(f, "out of memory allocating {requested} bytes")
            }
            AllocError::InvalidSize { requested } => {
                write!(f, "invalid allocation size {requested}")
            }
            AllocError::InvalidFree { addr } => {
                write!(f, "invalid free of address {addr:#x}")
            }
            AllocError::Quarantined { invalid_frees } => {
                write!(
                    f,
                    "allocator quarantined after {invalid_frees} invalid frees"
                )
            }
        }
    }
}

impl Error for AllocError {}

/// Errors returned by allocator initialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitError {
    /// The tasklet count is outside the DPU's 1..=24 hardware threads.
    Tasklets {
        /// The rejected tasklet count.
        n: usize,
    },
    /// A WRAM reservation (metadata buffer, bitmaps) did not fit.
    Wram(pim_sim::wram::WramOverflow),
    /// Pre-population exhausted the heap.
    Alloc(AllocError),
}

impl fmt::Display for InitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InitError::Tasklets { n } => {
                write!(
                    f,
                    "allocator init failed: tasklet count {n} outside 1..={}",
                    pim_sim::MAX_TASKLETS
                )
            }
            InitError::Wram(e) => write!(f, "allocator init failed: {e}"),
            InitError::Alloc(e) => write!(f, "allocator init failed: {e}"),
        }
    }
}

impl Error for InitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InitError::Tasklets { .. } => None,
            InitError::Wram(e) => Some(e),
            InitError::Alloc(e) => Some(e),
        }
    }
}

impl From<pim_sim::wram::WramOverflow> for InitError {
    fn from(e: pim_sim::wram::WramOverflow) -> Self {
        InitError::Wram(e)
    }
}

impl From<AllocError> for InitError {
    fn from(e: AllocError) -> Self {
        InitError::Alloc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(AllocError::OutOfMemory { requested: 64 }
            .to_string()
            .contains("64"));
        assert!(AllocError::InvalidSize { requested: 0 }
            .to_string()
            .contains("invalid"));
        assert!(AllocError::InvalidFree { addr: 0x100 }
            .to_string()
            .contains("0x100"));
        let q = AllocError::Quarantined { invalid_frees: 8 };
        assert!(q.to_string().contains("quarantined"));
        assert!(q.to_string().contains('8'));
    }

    #[test]
    fn quarantine_propagates_through_question_mark() {
        // The ergonomic contract: callers `?`-propagate instead of
        // matching or unwrapping, including the quarantine variant.
        fn free_like() -> Result<(), AllocError> {
            Err(AllocError::Quarantined { invalid_frees: 3 })?;
            Ok(())
        }
        fn boxed() -> Result<(), Box<dyn Error>> {
            free_like()?;
            Ok(())
        }
        let err = boxed().unwrap_err();
        assert!(err.to_string().contains("quarantined"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: Error>(_: E) {}
        takes_err(AllocError::OutOfMemory { requested: 1 });
    }
}
