//! Synthetic dynamic-graph workload generation.
//!
//! The paper uses loc-gowalla (197 k nodes, 950 k edges) and, following
//! prior dynamic-graph work, randomly samples edges of the static graph
//! to act as the *newly added* set, at a 1:2 new:existing ratio. We
//! cannot ship the SNAP dataset, so [`generate_power_law`] produces a
//! preferential-attachment graph with the same skewed degree shape at a
//! configurable scale, and [`split_for_update`] performs the paper's
//! random 1/3 sampling.

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

impl Graph {
    /// Out-degree of every node.
    pub fn degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.n_nodes as usize];
        for &(s, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }
}

/// Generates a preferential-attachment graph: `n_edges` edges over
/// `n_nodes` nodes where destination endpoints are drawn from existing
/// edges with high probability, producing a power-law-like in-degree
/// distribution (the gowalla shape).
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
    while edges.len() < n_edges {
        let src = rng.gen_range(0..n_nodes);
        // Preferential attachment: with p=0.85 copy the destination of
        // an existing edge (probability ∝ in-degree), else uniform.
        let dst = if rng.gen_bool(0.85) {
            edges[rng.gen_range(0..edges.len())].1
        } else {
            rng.gen_range(0..n_nodes)
        };
        if src != dst {
            edges.push((src, dst));
        }
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

/// Randomly samples `new_fraction` of the graph's edges as the "newly
/// added" set (paper: 1/3, i.e. new:existing = 1:2), deterministic for
/// a given `seed`.
///
/// # Panics
///
/// Panics unless `0 < new_fraction < 1`.
pub fn split_for_update(graph: Graph, new_fraction: f64, seed: u64) -> UpdateWorkload {
    assert!(
        new_fraction > 0.0 && new_fraction < 1.0,
        "fraction must be in (0, 1)"
    );
    let n_new = ((graph.edges.len() as f64) * new_fraction).round() as usize;
    let n_new = n_new.clamp(1, graph.edges.len() - 1);
    split_for_update_count(graph, n_new, seed)
}

/// Like [`split_for_update`], but samples exactly `n_new` edges as the
/// new set (used when the experiment fixes the new-edge count while
/// varying the pre-update size, as Figure 3(c) does).
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = graph.edges;
    let n_base = edges.len() - n_new;
    for i in (n_base..edges.len()).rev() {
        let j = rng.gen_range(0..=i);
        edges.swap(i, j);
    }
    let new_edges = edges.split_off(n_base);
    UpdateWorkload {
        base: Graph {
            n_nodes: graph.n_nodes,
            edges,
        },
        new_edges,
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
    fn split_respects_one_to_two_ratio() {
        let g = generate_power_law(1000, 9000, 5);
        let w = split_for_update(g, 1.0 / 3.0, 11);
        assert_eq!(w.new_edges.len(), 3000);
        assert_eq!(w.base.edges.len(), 6000);
        // Ratio new:existing = 1:2.
        assert_eq!(w.base.edges.len(), 2 * w.new_edges.len());
    }

    #[test]
    fn split_is_a_partition_of_the_original() {
        let g = generate_power_law(100, 600, 5);
        let mut original = g.edges.clone();
        original.sort_unstable();
        for w in [
            split_for_update(g.clone(), 1.0 / 3.0, 11),
            split_for_update_count(g, 123, 11),
        ] {
            let mut recombined = w.base.edges.clone();
            recombined.extend_from_slice(&w.new_edges);
            recombined.sort_unstable();
            assert_eq!(original, recombined);
        }
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
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let g = generate_power_law(10, 20, 1);
        split_for_update(g, 1.5, 0);
    }
}
