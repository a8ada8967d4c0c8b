//! Variable-sized-array dynamic graph representation (Hornet-style).
//!
//! Each local node's adjacency is one power-of-two-sized edge array.
//! Appending is a single MRAM write; when the array fills, a new array
//! of twice the size is allocated, the old edges are copied over with
//! streaming DMA, and the old array is freed. Arrays start at 64 B;
//! the paper reports 64 B – 32 KB on gowalla. At the default graph
//! input no array grows past 2 KB, so every allocation is a
//! thread-cache size class (fig11's var-array frontend fraction is
//! 1.00 in quick and full mode). Only a node of degree above 512
//! reaches the bypass path (`large_nodes_reach_bypass_sizes`).

use pim_malloc::{AllocError, PimAllocator};
use pim_sim::{Mram, TaskletCtx};

/// Smallest edge array (16 edges).
pub const MIN_ARRAY_BYTES: u32 = 64;
/// Streaming chunk for grow-copies.
const COPY_CHUNK: u32 = 2048;
/// Instructions of insert bookkeeping besides DMA.
const INSERT_INSTRS: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct NodeArray {
    addr: u32,
    cap_bytes: u32,
    count: u32,
}

/// A variable-sized-array graph over `n` local nodes.
#[derive(Debug, Clone)]
pub struct VarArrayGraph {
    nodes: Vec<Option<NodeArray>>,
    total_edges: u64,
    grows: u64,
}

impl VarArrayGraph {
    /// Creates an empty graph of `n_nodes` local nodes.
    pub fn new(n_nodes: u32) -> Self {
        VarArrayGraph {
            nodes: vec![None; n_nodes as usize],
            total_edges: 0,
            grows: 0,
        }
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> u64 {
        self.total_edges
    }

    /// Number of grow-reallocate events so far.
    pub fn grow_count(&self) -> u64 {
        self.grows
    }

    /// Largest allocation this graph has requested so far, in bytes.
    pub fn max_array_bytes(&self) -> u32 {
        self.nodes
            .iter()
            .flatten()
            .map(|a| a.cap_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Inserts edge `(u, v)`, growing `u`'s array if needed.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from array (re)allocation.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn insert(
        &mut self,
        ctx: &mut TaskletCtx<'_>,
        alloc: &mut dyn PimAllocator,
        u: u32,
        v: u32,
    ) -> Result<(), AllocError> {
        let ui = u as usize;
        ctx.instrs(INSERT_INSTRS);
        // Read the node-table entry.
        ctx.mram_read(0, 8);
        let entry = match self.nodes[ui] {
            None => {
                let addr = alloc.pim_malloc(ctx, MIN_ARRAY_BYTES)?;
                let e = NodeArray {
                    addr,
                    cap_bytes: MIN_ARRAY_BYTES,
                    count: 0,
                };
                self.nodes[ui] = Some(e);
                ctx.mram_write(0, 8); // node-table writeback
                e
            }
            Some(e) if e.count * 4 == e.cap_bytes => {
                // Grow: allocate 2×, stream-copy, free the old array.
                let new_cap = e.cap_bytes * 2;
                let new_addr = alloc.pim_malloc(ctx, new_cap)?;
                let mut copied = 0u32;
                while copied < e.count * 4 {
                    let chunk = (e.count * 4 - copied).min(COPY_CHUNK);
                    // Latency-only transfer plus the real byte move.
                    let mut buf = vec![0u8; chunk as usize];
                    ctx.mram_read_bytes(e.addr + copied, &mut buf);
                    ctx.mram_write_bytes(new_addr + copied, &buf);
                    copied += chunk;
                }
                alloc.pim_free(ctx, e.addr)?;
                self.grows += 1;
                let grown = NodeArray {
                    addr: new_addr,
                    cap_bytes: new_cap,
                    count: e.count,
                };
                self.nodes[ui] = Some(grown);
                ctx.mram_write(0, 8);
                grown
            }
            Some(e) => e,
        };
        // Append the edge (one 8 B DMA beat). The per-node count lives
        // in the WRAM-cached node table and is written back lazily at
        // kernel end — unlike the linked list, whose chunk headers must
        // stay self-describing in MRAM, this makes the steady-state
        // append a single MRAM write (why the paper's variable-sized
        // array reaches 32× over static vs the linked list's 7.1×).
        ctx.mram_write_bytes(entry.addr + entry.count * 4, &v.to_le_bytes());
        self.nodes[ui].as_mut().expect("just ensured").count += 1;
        self.total_edges += 1;
        Ok(())
    }

    /// Reads every `(node, dst)` edge back out of the MRAM image.
    pub fn read_back(&self, mram: &Mram) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (node, entry) in self.nodes.iter().enumerate() {
            if let Some(e) = entry {
                for slot in 0..e.count {
                    out.push((node as u32, mram.read_u32(e.addr + slot * 4)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocatorKind;
    use pim_sim::{DpuConfig, DpuSim};

    fn setup() -> (DpuSim, Box<dyn PimAllocator>) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
        let alloc = AllocatorKind::Sw.build(&mut dpu, 1, 4 << 20);
        (dpu, alloc)
    }

    #[test]
    fn arrays_double_on_overflow() {
        let (mut dpu, mut alloc) = setup();
        let mut g = VarArrayGraph::new(1);
        for v in 0..100u32 {
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), 0, v).unwrap();
        }
        // 16 → 32 → 64 → 128 slots: 3 grows for 100 edges.
        assert_eq!(g.grow_count(), 3);
        assert_eq!(g.max_array_bytes(), 512);
        assert_eq!(g.edge_count(), 100);
    }

    #[test]
    fn read_back_preserves_order_and_content() {
        let (mut dpu, mut alloc) = setup();
        let mut g = VarArrayGraph::new(4);
        let mut expect = Vec::new();
        for i in 0..300u32 {
            let (u, v) = (i % 4, i.wrapping_mul(2654435761) % 1000);
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), u, v).unwrap();
            expect.push((u, v));
        }
        let mut got = g.read_back(dpu.mram());
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect, "grow-copies must preserve every edge");
    }

    #[test]
    fn grow_copy_frees_the_old_array() {
        let (mut dpu, mut alloc) = setup();
        let mut g = VarArrayGraph::new(1);
        for v in 0..17u32 {
            // 17th insert grows 16 → 32 slots.
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), 0, v).unwrap();
        }
        assert_eq!(g.grow_count(), 1);
        // allocs: initial + grow = 2; frees: 1 (the old array).
        let stats = alloc.alloc_stats();
        assert_eq!(stats.total_mallocs(), 2);
        assert_eq!(stats.frees_frontend + stats.frees_backend, 1);
    }

    #[test]
    fn large_nodes_reach_bypass_sizes() {
        let (mut dpu, mut alloc) = setup();
        let mut g = VarArrayGraph::new(1);
        for v in 0..2000u32 {
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), 0, v).unwrap();
        }
        // 2000 edges → 8192 B array: beyond the 2 KB size class.
        assert!(g.max_array_bytes() >= 8192);
        assert!(
            alloc.alloc_stats().bypass > 0,
            "big arrays must bypass the cache"
        );
    }

    #[test]
    fn append_is_cheaper_than_linked_list_insert() {
        // Why the paper's variable-sized array beats the linked list
        // (32× vs 7.1× over static): steady-state append is one write.
        let (mut dpu1, mut a1) = setup();
        let mut va = VarArrayGraph::new(1);
        // Warm up so appends are steady-state.
        for v in 0..20u32 {
            let mut ctx = dpu1.ctx(0);
            va.insert(&mut ctx, a1.as_mut(), 0, v).unwrap();
        }
        let mut ctx = dpu1.ctx(0);
        let t0 = ctx.now();
        va.insert(&mut ctx, a1.as_mut(), 0, 99).unwrap();
        let va_cost = (ctx.now() - t0).0;

        let (mut dpu2, mut a2) = setup();
        let mut ll = super::super::linked::LinkedListGraph::new(1);
        for v in 0..20u32 {
            let mut ctx = dpu2.ctx(0);
            ll.insert(&mut ctx, a2.as_mut(), 0, v).unwrap();
        }
        let mut ctx = dpu2.ctx(0);
        let t0 = ctx.now();
        ll.insert(&mut ctx, a2.as_mut(), 0, 99).unwrap();
        let ll_cost = (ctx.now() - t0).0;
        assert!(
            va_cost < ll_cost,
            "vararray {va_cost} vs linked list {ll_cost}"
        );
    }
}
