//! A general-purpose, cache-line-granular metadata cache — the §VII
//! counterfactual.
//!
//! The paper's Discussion argues that even a cache-enabled future PIM
//! core would still want the dedicated buddy cache, because a
//! general-purpose data cache "operates on coarse-grained cache lines
//! (e.g., 64 bytes), which is inefficient for managing the fine-grained
//! metadata used by a buddy allocator". This store models exactly that
//! design point: a fully-associative LRU cache of `line_bytes`-sized
//! lines over the MRAM-resident buddy tree, with hardware (1-cycle)
//! lookups like the buddy cache but line-sized fills and write-backs.
//!
//! At equal *capacity*, wider lines mean fewer entries: a 64-byte-line
//! cache holding 1 KB has 16 entries covering 16 tree regions, where
//! the 8-byte-granule buddy cache holds 128 independent regions — and
//! buddy traversal touches many small, scattered regions.

use pim_sim::{BuddyCache, BuddyCacheConfig, BuddyCacheStats, LookupResult, TaskletCtx};

use super::{BitArray, MetaStats, MetadataStore, NodeState};

/// Instructions of miss-path bookkeeping besides the DMA and cache ops.
const MISS_INSTRS: u64 = 40;

/// A line-granular hardware metadata cache (general-purpose-cache
/// stand-in).
#[derive(Debug, Clone)]
pub struct LineCacheStore {
    bits: BitArray,
    meta_base: u32,
    line_bytes: u32,
    cache: BuddyCache,
    stats: MetaStats,
}

impl LineCacheStore {
    /// Creates a store whose cache holds `capacity_bytes / line_bytes`
    /// lines of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two ≥ 8 and
    /// `capacity_bytes` is a positive multiple of `line_bytes`.
    pub fn new(nodes: u32, meta_base: u32, capacity_bytes: u32, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two() && line_bytes >= 8,
            "line size must be a power of two of at least 8 bytes"
        );
        assert!(
            capacity_bytes >= line_bytes && capacity_bytes.is_multiple_of(line_bytes),
            "capacity must be a positive multiple of the line size"
        );
        LineCacheStore {
            bits: BitArray::new(nodes),
            meta_base,
            line_bytes,
            cache: BuddyCache::new(BuddyCacheConfig {
                entries: (capacity_bytes / line_bytes) as usize,
                bytes_per_entry: line_bytes,
            }),
            stats: MetaStats::default(),
        }
    }

    /// The line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Statistics of the underlying cache.
    pub fn cache_stats(&self) -> BuddyCacheStats {
        self.cache.stats()
    }

    fn line_addr(&self, idx: u32) -> u32 {
        self.meta_base + (BitArray::byte_of(idx) & !(self.line_bytes - 1))
    }

    /// Ensures node `idx`'s line is cached; returns its slot.
    fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> usize {
        let addr = self.line_addr(idx);
        ctx.instrs(15); // call + index math + tag lookup
        match self.cache.lookup(addr) {
            LookupResult::Hit(slot) => {
                self.stats.hits += 1;
                slot
            }
            LookupResult::Miss => {
                self.stats.misses += 1;
                ctx.instrs(MISS_INSTRS);
                ctx.mram_read(addr, self.line_bytes);
                self.stats.bytes_read += u64::from(self.line_bytes);
                // The authoritative 2-bit states live in `bits`; the CAM
                // entry only tracks tag/dirty state for the whole line.
                ctx.instrs(1);
                let (slot, victim) = self.cache.fill(addr, 0);
                if let Some(victim) = victim.filter(|v| v.dirty) {
                    ctx.mram_write(victim.addr, self.line_bytes);
                    self.stats.bytes_written += u64::from(self.line_bytes);
                }
                slot
            }
        }
    }
}

impl MetadataStore for LineCacheStore {
    fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        let _slot = self.ensure(ctx, idx);
        ctx.instrs(10); // read + 2-bit extract
        self.bits.get(idx)
    }

    fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        let slot = self.ensure(ctx, idx);
        ctx.instrs(10); // read-modify-write of the cached word
        self.bits.set(idx, state);
        self.cache.update(slot, 0); // mark the line dirty
    }

    fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        let len = self.bits.len_bytes();
        let mut off = 0;
        while off < len {
            let chunk = 2048.min(len - off);
            ctx.mram_write(self.meta_base + off, chunk);
            off += chunk;
        }
        ctx.instrs(1);
        self.bits.clear();
        self.cache.init();
        self.stats = MetaStats::default();
    }

    fn stats(&self) -> MetaStats {
        self.stats
    }

    fn peek(&self, idx: u32) -> NodeState {
        self.bits.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, DpuSim};

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    #[test]
    fn one_line_covers_its_nodes() {
        let mut d = dpu();
        // 64 B lines: 256 nodes per line.
        let mut s = LineCacheStore::new(1 << 12, 0, 1024, 64);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1);
        for idx in 2..256 {
            let _ = s.get(&mut ctx, idx);
        }
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().bytes_read, 64, "one line fill");
    }

    #[test]
    fn set_roundtrips_and_dirty_lines_write_back_whole_lines() {
        let mut d = dpu();
        // One-entry cache of 64 B lines.
        let mut s = LineCacheStore::new(1 << 16, 0, 64, 64);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split);
        assert_eq!(s.get(&mut ctx, 1), NodeState::Split);
        // Touch a far line: the dirty 64 B line is written back whole.
        let far = 64 * 4 * 8;
        let _ = s.get(&mut ctx, far);
        assert_eq!(s.stats().bytes_written, 64);
        assert_eq!(s.peek(1), NodeState::Split);
    }

    #[test]
    fn equal_capacity_wider_lines_hit_less_on_scattered_paths() {
        // The §VII granularity-mismatch argument: walk root-to-leaf
        // paths (scattered across levels) with equal-capacity caches.
        let nodes = 1 << 20;
        let run = |line: u32| {
            let mut d = dpu();
            let mut s = LineCacheStore::new(nodes, 0, 512, line);
            let mut ctx = d.ctx(0);
            for start in 0..64u32 {
                let mut idx = 1 + start;
                while idx < nodes {
                    let _ = s.get(&mut ctx, idx);
                    idx *= 2;
                }
            }
            (s.stats().hit_rate(), s.stats().total_bytes())
        };
        let (fine_hits, fine_bytes) = run(8);
        let (coarse_hits, coarse_bytes) = run(64);
        assert!(
            fine_hits >= coarse_hits,
            "fine granularity must hit at least as often: {fine_hits} vs {coarse_hits}"
        );
        assert!(
            fine_bytes < coarse_bytes,
            "fine granularity must move fewer bytes: {fine_bytes} vs {coarse_bytes}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of the line size")]
    fn bad_capacity_rejected() {
        LineCacheStore::new(16, 0, 96, 64);
    }
}
