//! The buddy allocator: tree traversal over a pluggable metadata store.

mod allocator;
mod geometry;

pub use allocator::{BuddyAllocator, DescentPolicy};
pub use geometry::BuddyGeometry;
