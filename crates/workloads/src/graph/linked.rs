//! Array-of-linked-lists dynamic graph representation.
//!
//! Each local node's adjacency is a linked list of fixed-size 256 B
//! chunks (the paper's "array of linked lists", after faimGraph):
//! `[next: u32][count: u32][edges: u32 × 62]`. Inserting an edge reads
//! the head chunk's header, appends into it, or allocates a fresh
//! chunk via `pim_malloc` when the head is full — allocation cost is
//! the allocator's problem, which is exactly what Figure 17 measures.
//!
//! Edges are **really stored in simulated MRAM**, so tests can walk
//! the pointer structure back out of the memory image and verify no
//! edge was lost.

use pim_malloc::{AllocError, PimAllocator};
use pim_sim::{Mram, TaskletCtx};

/// Chunk size in bytes (the paper's constant allocation size).
pub const CHUNK_BYTES: u32 = 256;
/// Header: next pointer (4 B) + in-chunk edge count (4 B).
const HEADER_BYTES: u32 = 8;
/// Edges per chunk.
pub const EDGES_PER_CHUNK: u32 = (CHUNK_BYTES - HEADER_BYTES) / 4;
/// Sentinel for "no next chunk".
const NIL: u32 = u32::MAX;

/// Instructions of insert bookkeeping besides DMA.
const INSERT_INSTRS: u64 = 10;

/// An array-of-linked-lists graph over `n` local nodes.
#[derive(Debug, Clone)]
pub struct LinkedListGraph {
    /// Per-node head chunk address (NIL when empty) — the node table
    /// itself would live in MRAM; we keep the shadow and charge DMA.
    heads: Vec<u32>,
    /// Cached count of the head chunk, mirroring the header in MRAM.
    head_counts: Vec<u32>,
    total_edges: u64,
}

impl LinkedListGraph {
    /// Creates an empty graph of `n_nodes` local nodes.
    pub fn new(n_nodes: u32) -> Self {
        LinkedListGraph {
            heads: vec![NIL; n_nodes as usize],
            head_counts: vec![0; n_nodes as usize],
            total_edges: 0,
        }
    }

    /// Total number of stored edges.
    pub fn edge_count(&self) -> u64 {
        self.total_edges
    }

    /// Inserts edge `(u, v)`: appends into `u`'s head chunk or
    /// allocates a new one via `alloc`.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from chunk allocation.
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
        // Read the node-table entry (head pointer + cached count).
        ctx.mram_read(0, 8);
        let need_chunk = self.heads[ui] == NIL || self.head_counts[ui] == EDGES_PER_CHUNK;
        if need_chunk {
            let chunk = alloc.pim_malloc(ctx, CHUNK_BYTES)?;
            // Initialize the header: next = old head, count = 0.
            let mut header = [0u8; HEADER_BYTES as usize];
            header[..4].copy_from_slice(&self.heads[ui].to_le_bytes());
            ctx.mram_write_bytes(chunk, &header);
            self.heads[ui] = chunk;
            self.head_counts[ui] = 0;
            // Write back the node-table entry.
            ctx.mram_write(0, 8);
        }
        let head = self.heads[ui];
        let slot = self.head_counts[ui];
        // Append the edge and bump the header count (one 8 B write
        // each — the DMA minimum).
        ctx.mram_write_bytes(head + HEADER_BYTES + slot * 4, &v.to_le_bytes());
        self.head_counts[ui] += 1;
        ctx.mram_write_bytes(head + 4, &self.head_counts[ui].to_le_bytes());
        self.total_edges += 1;
        Ok(())
    }

    /// Walks the chunk lists in the MRAM image and returns every
    /// stored `(node, dst)` edge — the integrity check used by tests.
    pub fn read_back(&self, mram: &Mram) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (node, &head) in self.heads.iter().enumerate() {
            let mut chunk = head;
            while chunk != NIL {
                let next = mram.read_u32(chunk);
                let count = mram.read_u32(chunk + 4);
                for slot in 0..count {
                    out.push((node as u32, mram.read_u32(chunk + HEADER_BYTES + slot * 4)));
                }
                chunk = next;
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
        let alloc = AllocatorKind::Sw.build(&mut dpu, 1, 1 << 20);
        (dpu, alloc)
    }

    #[test]
    fn chunk_geometry_matches_paper() {
        assert_eq!(CHUNK_BYTES, 256);
        assert_eq!(EDGES_PER_CHUNK, 62);
    }

    #[test]
    fn first_insert_allocates_a_chunk() {
        let (mut dpu, mut alloc) = setup();
        let mut g = LinkedListGraph::new(4);
        let before = alloc.alloc_stats().total_mallocs();
        let mut ctx = dpu.ctx(0);
        g.insert(&mut ctx, alloc.as_mut(), 0, 3).unwrap();
        assert_eq!(alloc.alloc_stats().total_mallocs(), before + 1);
        // Second insert into the same node reuses the chunk.
        let mut ctx = dpu.ctx(0);
        g.insert(&mut ctx, alloc.as_mut(), 0, 2).unwrap();
        assert_eq!(alloc.alloc_stats().total_mallocs(), before + 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn overflow_links_a_new_chunk() {
        let (mut dpu, mut alloc) = setup();
        let mut g = LinkedListGraph::new(1);
        for v in 0..(EDGES_PER_CHUNK + 5) {
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), 0, v).unwrap();
        }
        assert_eq!(
            alloc.alloc_stats().total_mallocs(),
            2,
            "62+5 edges need 2 chunks"
        );
        let edges = g.read_back(dpu.mram());
        assert_eq!(edges.len(), (EDGES_PER_CHUNK + 5) as usize);
    }

    #[test]
    fn read_back_recovers_every_edge_exactly() {
        let (mut dpu, mut alloc) = setup();
        let mut g = LinkedListGraph::new(16);
        let mut expect = Vec::new();
        for i in 0..200u32 {
            let (u, v) = (i % 16, i * 7 % 100);
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), u, v).unwrap();
            expect.push((u, v));
        }
        let mut got = g.read_back(dpu.mram());
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(
            got, expect,
            "MRAM image must contain exactly the inserted edges"
        );
    }

    #[test]
    fn insert_cost_is_independent_of_graph_size() {
        // The dynamic representation's selling point (Figure 3(c)):
        // inserting into a graph with 10k edges costs the same as into
        // an empty one (amortized, chunk allocs aside).
        let (mut dpu, mut alloc) = setup();
        let mut g = LinkedListGraph::new(64);
        let mut ctx = dpu.ctx(0);
        let t0 = ctx.now();
        g.insert(&mut ctx, alloc.as_mut(), 0, 1).unwrap();
        let first = (ctx.now() - t0).0;
        for i in 0..5000u32 {
            let mut ctx = dpu.ctx(0);
            g.insert(&mut ctx, alloc.as_mut(), i % 64, i).unwrap();
        }
        let mut ctx = dpu.ctx(0);
        let t0 = ctx.now();
        g.insert(&mut ctx, alloc.as_mut(), 0, 2).unwrap();
        let late = (ctx.now() - t0).0;
        assert!(
            late <= first * 2,
            "insert cost must not grow with graph size: {first} vs {late}"
        );
    }
}
