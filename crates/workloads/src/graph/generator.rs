//! Synthetic dynamic-graph workload generation.
//!
//! The paper uses loc-gowalla (197 k nodes, 950 k edges) and, following
//! prior dynamic-graph work, randomly samples edges of the static graph
//! to act as the *newly added* set, at a 1:2 new:existing ratio. We
//! cannot ship the SNAP dataset, so [`generate_power_law`] produces a
//! preferential-attachment graph with the same skewed degree shape at a
//! configurable scale, and [`split_for_update_count`] samples the new
//! edges at random.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected edge list over nodes `0..n_nodes` (stored directed,
/// one direction per edge, as the update workloads insert them).
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of nodes.
    pub n_nodes: u32,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(u32, u32)>,
}

/// Iterations [`generate_power_law`] draws ahead of committing them.
const BLOCK: usize = 128;

/// The destination one iteration drew.
#[derive(Clone, Copy)]
enum Dst {
    /// Copy the destination of the edge at this index.
    Copy(usize),
    /// This node.
    Node(u32),
}

/// Generates a preferential-attachment graph: `n_edges` edges over
/// `n_nodes` nodes where destination endpoints are drawn from existing
/// edges with high probability, producing a power-law-like in-degree
/// distribution (the gowalla shape).
///
/// Each iteration draws a source node, then with p = 0.85 copies the
/// destination of a uniformly drawn existing edge (probability ∝
/// in-degree), else draws a uniform destination, and keeps the edge
/// unless it is a self-loop. Iterating one at a time, each copy is a
/// cache miss into an edge list far larger than the cache, and so much
/// draw arithmetic sits between two copies that the CPU keeps only a
/// few misses in flight. Each copy's range is also the list's length,
/// which depends on whether the edge before was a self-loop. So
/// iterations run in fixed-size blocks, on a clone of the RNG:
///
/// 1. Draw the block assuming every earlier iteration in it is kept:
///    iteration `k` copies from `0..len + k`, where `len` is the
///    list's length at the block's start. Keep the RNG's state after
///    each iteration.
/// 2. Gather every copy below `len` (an edge committed before the
///    block). These loads are independent and back to back, so the
///    CPU overlaps their misses.
/// 3. Commit in order; a copy at or past `len` reads an edge this
///    block just pushed. At the first self-loop, the iterations after
///    it drew from a range one too long, so drop them and resume from
///    the RNG state after the self-loop.
///
/// Every committed iteration drew from the true length with the RNG in
/// the state the one-at-a-time loop would have had, so the output is
/// that loop's, edge for edge. The argument uses nothing about the RNG
/// but that a clone replays its stream.
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `n_nodes < 2` or `n_edges == 0`.
pub fn generate_power_law(n_nodes: u32, n_edges: usize, seed: u64) -> Graph {
    assert!(n_nodes >= 2, "need at least two nodes");
    assert!(n_edges > 0, "need at least one edge");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n_edges);
    edges.push((0, 1));
    let mut draws: Vec<(u32, Dst)> = Vec::with_capacity(BLOCK);
    let mut after: Vec<StdRng> = Vec::with_capacity(BLOCK);
    while edges.len() < n_edges {
        let len = edges.len();
        let mut ahead = rng.clone();
        draws.clear();
        after.clear();
        for k in 0..BLOCK.min(n_edges - len) {
            let src = ahead.gen_range(0..n_nodes);
            let dst = if ahead.gen_bool(0.85) {
                Dst::Copy(ahead.gen_range(0..len + k))
            } else {
                Dst::Node(ahead.gen_range(0..n_nodes))
            };
            draws.push((src, dst));
            after.push(ahead.clone());
        }
        for (_, dst) in &mut draws {
            if let Dst::Copy(i) = *dst {
                if i < len {
                    *dst = Dst::Node(edges[i].1);
                }
            }
        }
        let mut last = draws.len() - 1;
        for (k, &(src, dst)) in draws.iter().enumerate() {
            let dst = match dst {
                Dst::Copy(i) => edges[i].1,
                Dst::Node(v) => v,
            };
            if src == dst {
                last = k;
                break;
            }
            edges.push((src, dst));
        }
        rng = after[last].clone();
    }
    Graph { n_nodes, edges }
}

/// A dynamic-update workload: an existing (pre-update) graph plus the
/// edges to insert during the timed phase.
#[derive(Debug, Clone)]
pub struct UpdateWorkload {
    /// The pre-update graph.
    pub base: Graph,
    /// Edges inserted during the timed update phase.
    pub new_edges: Vec<(u32, u32)>,
}

/// Randomly samples exactly `n_new` of the graph's edges as the "newly
/// added" set, deterministic for a given `seed`. The paper samples a
/// third (new:existing = 1:2); Figure 3(c) fixes the new-edge count
/// while varying the pre-update size.
///
/// Runs only the first `n_new` steps of a Fisher–Yates shuffle. Step
/// `i` fixes position `i`, so the new set is the one a full shuffle
/// draws, in the same order; only the base's order differs from it.
///
/// # Panics
///
/// Panics unless `0 < n_new < graph.edges.len()`.
pub fn split_for_update_count(graph: Graph, n_new: usize, seed: u64) -> UpdateWorkload {
    assert!(
        n_new > 0 && n_new < graph.edges.len(),
        "n_new must leave a nonempty base"
    );
    let mut edges = graph.edges;
    shuffle_tail(&mut edges, n_new, seed);
    let new_edges = edges.split_off(edges.len() - n_new);
    UpdateWorkload {
        base: Graph {
            n_nodes: graph.n_nodes,
            edges,
        },
        new_edges,
    }
}

/// Moves the new set [`split_for_update_count`] samples to the last
/// `n_new` positions of `edges`, in place. `n_new` may be 0 or the
/// whole list.
pub(crate) fn shuffle_tail(edges: &mut [(u32, u32)], n_new: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (edges.len() - n_new..edges.len()).rev() {
        let j = rng.gen_range(0..=i);
        edges.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_split_is_exact() {
        let g = generate_power_law(100, 600, 5);
        let w = split_for_update_count(g, 123, 9);
        assert_eq!(w.new_edges.len(), 123);
        assert_eq!(w.base.edges.len(), 477);
    }

    /// The one-at-a-time loop `generate_power_law` draws in blocks.
    fn reference_power_law(n_nodes: u32, n_edges: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = vec![(0, 1)];
        while edges.len() < n_edges {
            let src = rng.gen_range(0..n_nodes);
            let dst = if rng.gen_bool(0.85) {
                edges[rng.gen_range(0..edges.len())].1
            } else {
                rng.gen_range(0..n_nodes)
            };
            if src != dst {
                edges.push((src, dst));
            }
        }
        edges
    }

    #[test]
    fn block_generator_matches_the_one_at_a_time_loop() {
        // At 2 and 3 nodes self-loops are frequent, so blocks restart
        // often; 127–129 edges end at or just before the end of the
        // first full block.
        for n_nodes in [2, 3, 5, 17, 1000, 100_000] {
            for n_edges in [1, 2, 127, 128, 129, 1000, 20_011] {
                for seed in 0..8 {
                    assert_eq!(
                        generate_power_law(n_nodes, n_edges, seed).edges,
                        reference_power_law(n_nodes, n_edges, seed),
                        "{n_nodes} nodes, {n_edges} edges, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_power_law(1000, 5000, 7);
        let b = generate_power_law(1000, 5000, 7);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.edges.len(), 5000);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_power_law(1000, 5000, 7);
        let b = generate_power_law(1000, 5000, 8);
        assert_ne!(a.edges, b.edges);
    }

    #[test]
    fn no_self_loops_and_in_range() {
        let g = generate_power_law(500, 3000, 42);
        for &(s, d) in &g.edges {
            assert_ne!(s, d);
            assert!(s < 500 && d < 500);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Power-law shape: destinations are preferential, so the top
        // 10% of nodes by in-degree hold far more than 10% of edges.
        let g = generate_power_law(2000, 20000, 3);
        let mut indeg = vec![0u32; 2000];
        for &(_, t) in &g.edges {
            indeg[t as usize] += 1;
        }
        indeg.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = indeg[..200].iter().map(|&x| u64::from(x)).sum();
        let total: u64 = indeg.iter().map(|&x| u64::from(x)).sum();
        assert!(
            top as f64 / total as f64 > 0.3,
            "top-10% in-degree share {} too uniform",
            top as f64 / total as f64
        );
    }

    #[test]
    fn split_is_a_partition_of_the_original() {
        let g = generate_power_law(100, 600, 5);
        let mut original = g.edges.clone();
        original.sort_unstable();
        let w = split_for_update_count(g, 123, 11);
        let mut recombined = w.base.edges.clone();
        recombined.extend_from_slice(&w.new_edges);
        recombined.sort_unstable();
        assert_eq!(original, recombined);
    }

    /// The whole Fisher–Yates shuffle that `split_for_update_count`
    /// runs the first `n_new` steps of.
    fn full_shuffle(mut edges: Vec<(u32, u32)>, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..edges.len()).rev() {
            let j = rng.gen_range(0..=i);
            edges.swap(i, j);
        }
        edges
    }

    #[test]
    fn count_split_draws_the_tail_of_a_full_shuffle() {
        for (len, n_new, seed) in [
            (2, 1, 3),
            (600, 1, 9),
            (600, 123, 9),
            (600, 599, 4),
            (5000, 1667, 0x5eed),
        ] {
            let g = generate_power_law(100, len, seed);
            let shuffled = full_shuffle(g.edges.clone(), seed ^ 1);
            let w = split_for_update_count(g, n_new, seed ^ 1);
            assert_eq!(
                w.new_edges,
                shuffled[len - n_new..],
                "len {len} n_new {n_new}"
            );
        }
        // The in-place sampler also takes no edge or every edge.
        let g = generate_power_law(100, 600, 9);
        let mut none = g.edges.clone();
        shuffle_tail(&mut none, 0, 9);
        assert_eq!(none, g.edges);
        let mut all = g.edges.clone();
        shuffle_tail(&mut all, 600, 9);
        assert_eq!(all, full_shuffle(g.edges, 9));
    }
}
