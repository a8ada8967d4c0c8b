//! The all-software fine-grained LRU metadata buffer (§IV-B ablation).
//!
//! Before adding hardware, the paper tried managing the WRAM metadata
//! buffer at a fine granularity with a software LRU policy. It *does*
//! cut DRAM transfers, but tag search and LRU maintenance are ordinary
//! DPU instructions, and that per-access software overhead swamps the
//! savings — a 29% regression on the 16-thread 4 KB microbenchmark.
//! This store reproduces that trade-off.

use pim_sim::TaskletCtx;

use super::{BitArray, MetaStats, NodeState};

/// Instructions per tag-compare step of the software lookup loop.
const SCAN_INSTRS_PER_ENTRY: u64 = 4;
/// Instructions to maintain the software LRU list on every access: a
/// doubly-linked list splice in WRAM (six pointer loads/stores plus
/// head/tail updates and branches) on an ISA with no indexed
/// addressing modes.
const LRU_UPDATE_INSTRS: u64 = 80;
/// Instructions of miss handling besides the DMA itself.
const MISS_INSTRS: u64 = 30;

/// Fine-grained software-LRU metadata buffer: `entries` granules of
/// `granule_bytes` each, fully associative, true LRU.
#[derive(Debug, Clone)]
pub struct FineLruStore {
    bits: BitArray,
    meta_base: u32,
    granule_bytes: u32,
    /// Cached granule base byte offsets, most-recently-used first.
    resident: Vec<(u32, bool)>, // (granule start byte, dirty)
    capacity: usize,
    stats: MetaStats,
}

impl FineLruStore {
    /// Creates a store with `entries` granules of `granule_bytes`,
    /// backed by MRAM at `meta_base`.
    ///
    /// # Panics
    ///
    /// Panics if `granule_bytes` is not a power of two ≥ 8, or
    /// `entries` is zero.
    pub fn new(nodes: u32, meta_base: u32, entries: usize, granule_bytes: u32) -> Self {
        assert!(entries > 0, "need at least one entry");
        assert!(
            granule_bytes.is_power_of_two() && granule_bytes >= 8,
            "granule must be a power of two of at least 8 bytes"
        );
        FineLruStore {
            bits: BitArray::new(nodes),
            meta_base,
            granule_bytes,
            resident: Vec::with_capacity(entries),
            capacity: entries,
            stats: MetaStats::default(),
        }
    }

    fn ensure(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, write: bool) {
        let granule = BitArray::byte_of(idx) & !(self.granule_bytes - 1);
        // Software tag scan: cost grows with the position searched.
        let pos = self.resident.iter().position(|&(g, _)| g == granule);
        let scanned = pos.map(|p| p + 1).unwrap_or(self.resident.len()).max(1);
        ctx.instrs(scanned as u64 * SCAN_INSTRS_PER_ENTRY + LRU_UPDATE_INSTRS);
        match pos {
            Some(p) => {
                self.stats.hits += 1;
                let mut entry = self.resident.remove(p);
                entry.1 |= write;
                self.resident.insert(0, entry);
            }
            None => {
                self.stats.misses += 1;
                ctx.instrs(MISS_INSTRS);
                // At capacity, the LRU entry is written back if dirty;
                // a zero-capacity store simply has nothing to evict.
                if self.resident.len() == self.capacity {
                    if let Some((victim, dirty)) = self.resident.pop() {
                        if dirty {
                            ctx.mram_write(self.meta_base + victim, self.granule_bytes);
                            self.stats.bytes_written += u64::from(self.granule_bytes);
                        }
                    }
                }
                ctx.mram_read(self.meta_base + granule, self.granule_bytes);
                self.stats.bytes_read += u64::from(self.granule_bytes);
                self.resident.insert(0, (granule, write));
            }
        }
    }

    pub(crate) fn get(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32) -> NodeState {
        self.ensure(ctx, idx, false);
        self.bits.get(idx)
    }

    pub(crate) fn set(&mut self, ctx: &mut TaskletCtx<'_>, idx: u32, state: NodeState) {
        self.ensure(ctx, idx, true);
        self.bits.set(idx, state);
    }

    pub(crate) fn reset(&mut self, ctx: &mut TaskletCtx<'_>) {
        let len = self.bits.len_bytes();
        let mut off = 0;
        while off < len {
            let chunk = 2048.min(len - off);
            ctx.mram_write(self.meta_base + off, chunk);
            off += chunk;
        }
        self.bits.clear();
        self.resident.clear();
        self.stats = MetaStats::default();
    }

    pub(crate) fn stats(&self) -> MetaStats {
        self.stats
    }

    pub(crate) fn peek(&self, idx: u32) -> NodeState {
        self.bits.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Cycles, DpuConfig, DpuSim};

    fn dpu() -> DpuSim {
        DpuSim::new(DpuConfig::default().with_tasklets(1))
    }

    #[test]
    fn hits_avoid_dram_but_cost_instructions() {
        let mut d = dpu();
        let mut s = FineLruStore::new(1 << 16, 0, 8, 8);
        let mut ctx = d.ctx(0);
        let _ = s.get(&mut ctx, 1); // cold miss
        let read_after_miss = s.stats().bytes_read;
        let t0 = ctx.now();
        let _ = s.get(&mut ctx, 1); // hit
        let hit_cost = ctx.now() - t0;
        assert_eq!(s.stats().bytes_read, read_after_miss);
        assert!(hit_cost > Cycles::ZERO, "software lookup is never free");
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty() {
        let mut d = dpu();
        // 2 entries of 8 bytes: granule k covers bytes [8k, 8k+8).
        let mut s = FineLruStore::new(1 << 16, 0, 2, 8);
        let mut ctx = d.ctx(0);
        s.set(&mut ctx, 1, NodeState::Split); // granule 0, dirty
        let _ = s.get(&mut ctx, 8 * 4); // granule 1
        let _ = s.get(&mut ctx, 16 * 4); // granule 2 → evicts granule 0 (dirty)
        assert_eq!(s.stats().bytes_written, 8);
        // Value is preserved in the authoritative array.
        assert_eq!(s.peek(1), NodeState::Split);
    }

    #[test]
    fn transfers_fewer_bytes_than_coarse_on_scattered_access() {
        use super::super::CoarseBufferStore;
        let nodes = 1 << 20;
        let mut d1 = dpu();
        let mut fine = FineLruStore::new(nodes, 0, 64, 8);
        let mut d2 = dpu();
        let mut coarse = CoarseBufferStore::new(nodes, 0, 2048);
        // Ping-pong between two far-apart regions: coarse thrashes its
        // single window, fine keeps both resident.
        for round in 0..50u32 {
            for &base in &[1u32, 1 << 18] {
                let idx = base + (round % 4);
                let mut c1 = d1.ctx(0);
                let _ = fine.get(&mut c1, idx);
                let mut c2 = d2.ctx(0);
                let _ = coarse.get(&mut c2, idx);
            }
        }
        assert!(
            fine.stats().total_bytes() < coarse.stats().total_bytes() / 10,
            "fine {} vs coarse {}",
            fine.stats().total_bytes(),
            coarse.stats().total_bytes()
        );
    }

    #[test]
    fn per_access_instruction_overhead_exceeds_coarse_hit() {
        // A realistic traversal touches many granules; the software tag
        // scan then pays for its position in the LRU list, while a
        // coarse-window hit is a constant-cost range check.
        use super::super::CoarseBufferStore;
        let nodes = 1 << 16;
        let mut d1 = dpu();
        let mut fine = FineLruStore::new(nodes, 0, 64, 8);
        let granule_nodes = 8 * 4; // one 8 B granule covers 32 nodes
        let working_set: Vec<u32> = (0..32u32).map(|g| 1 + g * granule_nodes).collect();
        // Warm all granules.
        let mut c1 = d1.ctx(0);
        for &idx in &working_set {
            let _ = fine.get(&mut c1, idx);
        }
        let t0 = c1.now();
        for &idx in &working_set {
            let _ = fine.get(&mut c1, idx);
        }
        let fine_hit = Cycles((c1.now() - t0).0 / working_set.len() as u64);

        let mut d2 = dpu();
        let mut coarse = CoarseBufferStore::new(nodes, 0, 2048);
        let mut c2 = d2.ctx(0);
        let _ = coarse.get(&mut c2, 1);
        let t0 = c2.now();
        let _ = coarse.get(&mut c2, 2);
        let coarse_hit = c2.now() - t0;
        assert!(
            fine_hit.0 > coarse_hit.0 * 2,
            "software LRU access ({fine_hit}) must be much costlier than a window hit ({coarse_hit})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        FineLruStore::new(16, 0, 0, 8);
    }
}
