//! The multi-DPU dynamic graph update experiment (Figures 3(c), 11,
//! and 17 of the paper).
//!
//! Edges are partitioned across DPUs by source node (`u % n_dpus`) and,
//! within a DPU, across tasklets (`local_u % n_tasklets`), so all
//! updates of one node stay on one tasklet — the standard UPMEM
//! data-partitioning discipline. The host buckets each phase's edges
//! into every DPU's per-tasklet streams, as a UPMEM host program splits
//! its input before pushing each DPU its slice.
//!
//! Only the static CSR materializes the pre-update graph (an untimed
//! bulk build), since its insert cost grows with it. The dynamic
//! representations keep the pre-update graph in its static form and
//! insert into an initially empty delta, so they never read it. The new
//! edges are then inserted in a timed phase whose duration, cycle
//! breakdown, allocation latencies and metadata traffic are reported.

use pim_malloc::PimAllocator;
use pim_sim::{
    parallel_indexed, Cycles, DpuConfig, DpuSim, SimContext, TaskletStats, TransferDirection,
    TransferPlan, VirtualTimeQueue,
};
use serde::{Deserialize, Serialize};

use super::csr::CsrGraph;
use super::generator::{generate_power_law, shuffle_tail};
use super::linked::LinkedListGraph;
use super::vararray::VarArrayGraph;
use crate::alloc_kind::allocator_meta;
use crate::AllocatorKind;

/// Graph representation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphRepr {
    /// Static CSR arrays, shifted in place on every insert.
    StaticCsr,
    /// Array of linked lists of fixed 256 B chunks.
    LinkedList,
    /// Variable-sized (power-of-two) edge arrays.
    VarArray,
}

impl GraphRepr {
    /// Label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            GraphRepr::StaticCsr => "Static (CSR)",
            GraphRepr::LinkedList => "Dynamic (Array of linked list)",
            GraphRepr::VarArray => "Dynamic (Variable sized array)",
        }
    }
}

/// Configuration of the graph update experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphUpdateConfig {
    /// Representation under test.
    pub repr: GraphRepr,
    /// Allocator for the dynamic representations (ignored for CSR).
    pub allocator: AllocatorKind,
    /// Number of DPUs the graph is partitioned over.
    pub n_dpus: usize,
    /// Tasklets per DPU.
    pub n_tasklets: usize,
    /// Global node count.
    pub n_nodes: u32,
    /// Pre-update (existing) edge count.
    pub base_edges: usize,
    /// Edges inserted in the timed phase.
    pub new_edges: usize,
    /// Per-DPU heap size for the dynamic representations.
    pub heap_size: u32,
    /// Shared execution context: `ctx.seed` drives the workload RNG and
    /// `ctx.batching` schedules the edge-staging push.
    pub ctx: SimContext,
}

impl Default for GraphUpdateConfig {
    /// A gowalla-shaped workload scaled to simulator-friendly size:
    /// average degree ≈ 4.8 (gowalla's), 1:2 new:existing split.
    fn default() -> Self {
        GraphUpdateConfig {
            repr: GraphRepr::LinkedList,
            allocator: AllocatorKind::Sw,
            n_dpus: 16,
            n_tasklets: 16,
            n_nodes: 8192,
            base_edges: 26_000,
            new_edges: 13_000,
            heap_size: 32 << 20,
            ctx: SimContext::default(),
        }
    }
}

/// Results of one graph update run.
#[derive(Debug, Clone)]
pub struct GraphUpdateResult {
    /// Representation evaluated.
    pub repr: GraphRepr,
    /// Allocator evaluated (meaningless for CSR).
    pub allocator: AllocatorKind,
    /// Timed update phase duration (slowest DPU), seconds.
    pub update_secs: f64,
    /// Update throughput in million edges per second (Figure 17(a)).
    pub throughput_meps: f64,
    /// Cycle breakdown of the update phase, summed over DPUs
    /// (Figure 17(a) left axis).
    pub breakdown: TaskletStats,
    /// `(completion ms, latency µs)` of every `pim_malloc` on DPU 0
    /// during the update phase (Figure 17(c)).
    pub alloc_timeline: Vec<(f64, f64)>,
    /// Total `pim_malloc` time per tasklet on DPU 0, µs (Figure 17(b)).
    pub per_tasklet_malloc_us: Vec<f64>,
    /// Metadata bytes moved between MRAM and WRAM by the allocator
    /// across all DPUs.
    pub meta_bytes: u64,
    /// Aggregate MRAM<->WRAM traffic across all DPUs, bytes — data and
    /// metadata together (Figure 17(d)'s DRAM transfer comparison).
    pub dram_bytes: u64,
    /// Fraction of `pim_malloc` calls serviced by the frontend
    /// (Figure 11(a)).
    pub frontend_fraction: f64,
    /// Fraction of aggregate allocation latency spent on
    /// backend-involved requests (Figure 11(b)).
    pub backend_latency_fraction: f64,
    /// Total `pim_malloc` calls across DPUs (build + update).
    pub total_mallocs: u64,
    /// Fragmentation A/U at end of run, averaged over the DPUs that
    /// received new edges (PIM-malloc only; 0 otherwise).
    pub frag_ratio: f64,
    /// Modeled host time to stage the new-edge streams into the DPUs'
    /// MRAM before the timed phase (one 8 B buffer entry per edge,
    /// partitioned like the edges themselves). Reported separately
    /// from [`GraphUpdateResult::update_secs`] so kernel throughput
    /// stays comparable with Figure 17; the host can stage the next
    /// batch while the DPUs process the current one.
    pub host_push_secs: f64,
    /// Host↔PIM transfer calls the staging push issued (per-DPU calls
    /// or per-rank shards, per the config context's batching policy).
    pub host_xfer_calls: u64,
}

/// Partitions a global edge `(u, v)` to `(dpu, tasklet, local_u)`.
fn place(u: u32, n_dpus: usize, n_tasklets: usize) -> (usize, usize, u32) {
    let dpu = (u as usize) % n_dpus;
    let local = u / n_dpus as u32;
    let tasklet = (local as usize) % n_tasklets;
    (dpu, tasklet, local)
}

/// Every DPU's edge streams for one phase:
/// `parts[dpu][tasklet] = [(local_u, v)]`, in input order.
type Parts = Vec<Vec<Vec<(u32, u32)>>>;

/// Buckets one phase's edges into every DPU's streams: one pass counts
/// each stream's edges, so the second allocates it at its exact size.
fn partition(edges: &[(u32, u32)], n_dpus: usize, n_tasklets: usize) -> Parts {
    let mut counts = vec![vec![0usize; n_tasklets]; n_dpus];
    for &(u, _) in edges {
        let (dpu, tasklet, _) = place(u, n_dpus, n_tasklets);
        counts[dpu][tasklet] += 1;
    }
    let mut parts: Parts = counts
        .iter()
        .map(|dpu| dpu.iter().map(|&n| Vec::with_capacity(n)).collect())
        .collect();
    for &(u, v) in edges {
        let (dpu, tasklet, local) = place(u, n_dpus, n_tasklets);
        parts[dpu][tasklet].push((local, v));
    }
    parts
}

/// Generates the graph, samples its new edges to the tail of the edge
/// list in place, and buckets both phases: `(new, base)`, where only
/// the static CSR, which materializes the pre-update graph, gets base
/// streams. The edge list is dropped once bucketed.
fn phase_streams(cfg: &GraphUpdateConfig) -> (Parts, Option<Parts>) {
    let total = cfg.base_edges + cfg.new_edges;
    let mut edges = if total == 0 {
        Vec::new()
    } else {
        generate_power_law(cfg.n_nodes, total, cfg.ctx.seed).edges
    };
    shuffle_tail(&mut edges, cfg.new_edges, cfg.ctx.seed ^ 0x5eed);
    let (base, new) = edges.split_at(cfg.base_edges);
    let base = matches!(cfg.repr, GraphRepr::StaticCsr)
        .then(|| partition(base, cfg.n_dpus, cfg.n_tasklets));
    (partition(new, cfg.n_dpus, cfg.n_tasklets), base)
}

/// Inserts the streams in virtual-time order. `insert` performs one
/// edge insertion and appends the latencies of any `pim_malloc` calls
/// it triggered to the (cleared) buffer it is passed. Returns the
/// malloc event series `(completion, latency)` and the per-tasklet
/// total malloc time.
fn run_phase<F>(
    dpu: &mut DpuSim,
    streams: &[Vec<(u32, u32)>],
    mut insert: F,
) -> (Vec<(Cycles, Cycles)>, Vec<Cycles>)
where
    F: FnMut(&mut DpuSim, usize, u32, u32, &mut Vec<Cycles>),
{
    let n = streams.len();
    let mut next = vec![0usize; n];
    let mut events = Vec::new();
    let mut per_tasklet = vec![Cycles::ZERO; n];
    let mut latencies = Vec::new();
    let mut queue = VirtualTimeQueue::new((0..n).filter(|&t| !streams[t].is_empty()));
    while let Some(tid) = queue.pop(dpu) {
        let (u, v) = streams[tid][next[tid]];
        next[tid] += 1;
        latencies.clear();
        insert(dpu, tid, u, v, &mut latencies);
        for &latency in &latencies {
            events.push((dpu.clock(tid), latency));
            per_tasklet[tid] += latency;
        }
        if next[tid] < streams[tid].len() {
            queue.push(tid);
        }
    }
    (events, per_tasklet)
}

/// Runs the graph update experiment.
pub fn run_graph_update(cfg: &GraphUpdateConfig) -> GraphUpdateResult {
    let (new_parts, base_parts) = phase_streams(cfg);
    let local_nodes = cfg.n_nodes.div_ceil(cfg.n_dpus as u32);
    let mhz = pim_sim::CostModel::default().clock_mhz;

    // Host staging: each new edge is an 8 B (u, v) record pushed to
    // the DPU that owns its source node — a naturally non-uniform
    // per-DPU plan (power-law graphs skew edges across partitions).
    let staging = {
        let mut plan = TransferPlan::new(TransferDirection::HostToPim);
        for (dpu, streams) in new_parts.iter().enumerate() {
            let edges: usize = streams.iter().map(Vec::len).sum();
            plan.push(dpu, edges as u64 * 8);
        }
        cfg.ctx.planner().estimate(&plan)
    };

    #[derive(Debug)]
    struct DpuOutcome {
        update: Cycles,
        breakdown: TaskletStats,
        meta: u64,
        dram: u64,
        events: Vec<(Cycles, Cycles)>,
        per_tasklet: Vec<Cycles>,
        frontend_hits: u64,
        total_mallocs: u64,
        cycles_frontend: Cycles,
        cycles_backend: Cycles,
        frag: Option<f64>,
    }

    let run_one_dpu = |dpu_idx: usize| -> DpuOutcome {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(cfg.n_tasklets));
        // A DPU that owns no new edge runs an empty timed phase.
        let new = &new_parts[dpu_idx];
        let idle = new.iter().all(Vec::is_empty);

        match &base_parts {
            Some(base) => {
                // Bulk-build the CSR (untimed), then timed locked inserts.
                let local_edges: Vec<(u32, u32)> =
                    base[dpu_idx].iter().flatten().copied().collect();
                let mut csr = CsrGraph::build(local_nodes, &local_edges);
                let mutex = dpu.alloc_mutex();
                let t0 = dpu.max_clock();
                for t in 0..cfg.n_tasklets {
                    dpu.ctx(t).wait_until(t0);
                }
                let stats0 = dpu.total_stats();
                run_phase(&mut dpu, new, |dpu, tid, u, v, _| {
                    let mut ctx = dpu.ctx(tid);
                    ctx.mutex_lock(mutex);
                    csr.insert(&mut ctx, u, v);
                    ctx.mutex_unlock(mutex);
                });
                DpuOutcome {
                    update: dpu.max_clock() - t0,
                    breakdown: dpu.total_stats().since(&stats0),
                    meta: 0,
                    dram: dpu.traffic().total_bytes(),
                    events: Vec::new(),
                    per_tasklet: vec![Cycles::ZERO; cfg.n_tasklets],
                    frontend_hits: 0,
                    total_mallocs: 0,
                    cycles_frontend: Cycles::ZERO,
                    cycles_backend: Cycles::ZERO,
                    frag: None,
                }
            }
            None => {
                // The pre-update graph stays in its bulk-loaded static
                // form (standard streaming-graph design: CSR base +
                // dynamic delta), which the update never reads, so it
                // is not built here. The *new* edges go into an
                // initially empty dynamic structure, so each first
                // touch of a node during the timed phase allocates —
                // the allocation rate the paper's Figure 17 exhibits.
                let mut alloc = cfg.allocator.build(&mut dpu, cfg.n_tasklets, cfg.heap_size);
                enum Repr {
                    Ll(LinkedListGraph),
                    Va(VarArrayGraph),
                }
                let mut graph = match cfg.repr {
                    GraphRepr::LinkedList => Repr::Ll(LinkedListGraph::new(local_nodes)),
                    _ => Repr::Va(VarArrayGraph::new(local_nodes)),
                };
                // Barrier, then timed update phase on the empty delta.
                let t0 = dpu.max_clock();
                for t in 0..cfg.n_tasklets {
                    dpu.ctx(t).wait_until(t0);
                }
                let stats0 = dpu.total_stats();
                let (events, per_tasklet) =
                    run_phase(&mut dpu, new, |dpu, tid, u, v, latencies| {
                        let alloc = alloc.as_mut();
                        let before = alloc.alloc_stats().malloc_latencies.len();
                        let mut ctx = dpu.ctx(tid);
                        match &mut graph {
                            Repr::Ll(g) => g.insert(&mut ctx, alloc, u, v).expect("heap sized"),
                            Repr::Va(g) => g.insert(&mut ctx, alloc, u, v).expect("heap sized"),
                        }
                        latencies.extend_from_slice(
                            &alloc.alloc_stats().malloc_latencies.samples()[before..],
                        );
                    });
                let s = alloc.alloc_stats();
                let (frontend_hits, total_mallocs, cycles_frontend, cycles_backend) = (
                    s.frontend_hits,
                    s.total_mallocs(),
                    s.cycles_frontend,
                    s.cycles_backend,
                );
                DpuOutcome {
                    update: dpu.max_clock() - t0,
                    breakdown: dpu.total_stats().since(&stats0),
                    // Whole-run metadata traffic (build + update),
                    // matching Figure 17(d)'s aggregate comparison.
                    meta: allocator_meta(alloc.as_ref()).0.total_bytes(),
                    dram: dpu.traffic().total_bytes(),
                    // Re-base event times onto the update phase origin.
                    events: events
                        .into_iter()
                        .map(|(t, l)| (t.saturating_sub(t0), l))
                        .collect(),
                    per_tasklet,
                    frontend_hits,
                    total_mallocs,
                    cycles_frontend,
                    cycles_backend,
                    // An idle DPU requested nothing, so it has no A/U.
                    frag: alloc
                        .as_any()
                        .downcast_ref::<pim_malloc::PimMalloc>()
                        .filter(|_| !idle)
                        .map(|pm| pm.frag().ratio()),
                }
            }
        }
    };

    // Per-DPU simulations are share-nothing; fan them out and reduce in
    // DPU-index order for determinism.
    let outcomes: Vec<DpuOutcome> = parallel_indexed(cfg.n_dpus, run_one_dpu);

    let mut slowest = Cycles::ZERO;
    let mut breakdown = TaskletStats::default();
    let mut meta_bytes = 0u64;
    let mut dram_bytes = 0u64;
    let mut frontend_hits = 0u64;
    let mut total_mallocs = 0u64;
    let mut cycles_frontend = Cycles::ZERO;
    let mut cycles_backend = Cycles::ZERO;
    let mut frag_sum = 0.0;
    let mut frag_n = 0u32;
    for o in &outcomes {
        slowest = slowest.max(o.update);
        breakdown = breakdown.merged(&o.breakdown);
        meta_bytes += o.meta;
        dram_bytes += o.dram;
        frontend_hits += o.frontend_hits;
        total_mallocs += o.total_mallocs;
        cycles_frontend += o.cycles_frontend;
        cycles_backend += o.cycles_backend;
        if let Some(f) = o.frag {
            frag_sum += f;
            frag_n += 1;
        }
    }
    let alloc_timeline: Vec<(f64, f64)> = outcomes[0]
        .events
        .iter()
        .map(|&(t, l)| (t.as_millis(mhz), l.as_micros(mhz)))
        .collect();
    let per_tasklet_malloc_us: Vec<f64> = outcomes[0]
        .per_tasklet
        .iter()
        .map(|c| c.as_micros(mhz))
        .collect();

    let update_secs = slowest.as_secs(mhz);
    let total_latency = (cycles_frontend + cycles_backend).0 as f64;
    GraphUpdateResult {
        repr: cfg.repr,
        allocator: cfg.allocator,
        update_secs,
        // With no new edge every DPU's phase is empty, and 0/0 is NaN.
        throughput_meps: if cfg.new_edges == 0 {
            0.0
        } else {
            cfg.new_edges as f64 / update_secs / 1e6
        },
        breakdown,
        alloc_timeline,
        per_tasklet_malloc_us,
        meta_bytes,
        dram_bytes,
        frontend_fraction: if total_mallocs == 0 {
            0.0
        } else {
            frontend_hits as f64 / total_mallocs as f64
        },
        backend_latency_fraction: if total_latency == 0.0 {
            0.0
        } else {
            cycles_backend.0 as f64 / total_latency
        },
        total_mallocs,
        frag_ratio: if frag_n == 0 {
            0.0
        } else {
            frag_sum / f64::from(frag_n)
        },
        host_push_secs: staging.secs,
        host_xfer_calls: staging.calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::split_for_update_count;

    fn small(repr: GraphRepr, allocator: AllocatorKind) -> GraphUpdateConfig {
        // Gowalla-shaped sparsity (avg degree ~4.7) so the timed phase
        // first-touches many nodes and actually allocates.
        GraphUpdateConfig {
            repr,
            allocator,
            n_dpus: 4,
            n_tasklets: 16,
            n_nodes: 2048,
            base_edges: 6400,
            new_edges: 3200,
            heap_size: 32 << 20,
            ctx: SimContext::default().with_seed(7),
        }
    }

    #[test]
    fn dynamic_sw_beats_static_csr() {
        let stat = run_graph_update(&small(GraphRepr::StaticCsr, AllocatorKind::Sw));
        let dyn_ll = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::Sw));
        assert!(
            dyn_ll.throughput_meps > stat.throughput_meps,
            "LL+SW {} must beat static {}",
            dyn_ll.throughput_meps,
            stat.throughput_meps
        );
    }

    #[test]
    fn straw_man_dynamic_loses_to_static() {
        // Figure 17(a): the straw-man allocator makes the dynamic
        // structure slower than the static baseline.
        let stat = run_graph_update(&small(GraphRepr::StaticCsr, AllocatorKind::Sw));
        let dyn_straw = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::StrawMan));
        assert!(
            dyn_straw.throughput_meps < stat.throughput_meps,
            "straw-man {} must lose to static {}",
            dyn_straw.throughput_meps,
            stat.throughput_meps
        );
    }

    #[test]
    fn vararray_outpaces_linked_list() {
        let ll = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::HwSw));
        let va = run_graph_update(&small(GraphRepr::VarArray, AllocatorKind::HwSw));
        assert!(
            va.throughput_meps > ll.throughput_meps,
            "vararray {} vs LL {}",
            va.throughput_meps,
            ll.throughput_meps
        );
    }

    #[test]
    fn hwsw_moves_less_metadata_than_sw() {
        // Figure 17(d): the buddy cache cuts metadata DRAM traffic.
        let sw = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::Sw));
        let hw = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::HwSw));
        assert!(
            hw.meta_bytes < sw.meta_bytes,
            "HW/SW {} must move less than SW {}",
            hw.meta_bytes,
            sw.meta_bytes
        );
    }

    #[test]
    fn frontend_services_most_requests() {
        // Figure 11(a): ~90+% of graph-update mallocs hit the frontend.
        let r = run_graph_update(&small(GraphRepr::LinkedList, AllocatorKind::Sw));
        assert!(
            r.frontend_fraction > 0.8,
            "frontend fraction {}",
            r.frontend_fraction
        );
        assert!(r.total_mallocs > 0);
    }

    #[test]
    fn edge_staging_is_cheaper_sharded_than_per_dpu() {
        // Every new edge is staged exactly once (8 B per edge), and
        // per-rank sharding beats per-DPU calls on call overhead while
        // moving the same bytes.
        let sharded = small(GraphRepr::LinkedList, AllocatorKind::Sw);
        let per_dpu = GraphUpdateConfig {
            ctx: sharded.ctx.with_batching(pim_sim::HostBatching::PerDpu),
            ..sharded
        };
        let s = run_graph_update(&sharded);
        let p = run_graph_update(&per_dpu);
        assert!(s.host_push_secs > 0.0);
        assert!(s.host_push_secs <= p.host_push_secs);
        assert!(s.host_xfer_calls <= p.host_xfer_calls);
        assert_eq!(p.host_xfer_calls, 4, "4 DPUs, one call each");
        // The kernel-side result is untouched by the host schedule.
        assert_eq!(s.update_secs, p.update_secs);
        assert_eq!(s.total_mallocs, p.total_mallocs);
    }

    #[test]
    fn dpus_without_new_edges_run_an_empty_phase() {
        // 10 new edges over 16 DPUs leave at least 6 DPUs idle.
        for repr in [
            GraphRepr::StaticCsr,
            GraphRepr::LinkedList,
            GraphRepr::VarArray,
        ] {
            let r = run_graph_update(&GraphUpdateConfig {
                repr,
                n_dpus: 16,
                n_nodes: 256,
                base_edges: 400,
                new_edges: 10,
                ..GraphUpdateConfig::default()
            });
            assert!(r.frag_ratio.is_finite(), "{repr:?}: A/U {}", r.frag_ratio);
            assert!(r.update_secs > 0.0, "{repr:?}");
        }
    }

    #[test]
    fn empty_base_or_empty_update_runs() {
        for repr in [
            GraphRepr::StaticCsr,
            GraphRepr::LinkedList,
            GraphRepr::VarArray,
        ] {
            for (base_edges, new_edges) in [(0, 2000), (2000, 0), (0, 0)] {
                let r = run_graph_update(&GraphUpdateConfig {
                    repr,
                    n_dpus: 4,
                    n_nodes: 512,
                    base_edges,
                    new_edges,
                    ..GraphUpdateConfig::default()
                });
                let what = format!("{repr:?}, {base_edges} + {new_edges} edges");
                if new_edges == 0 {
                    assert_eq!(r.throughput_meps, 0.0, "{what}");
                    assert_eq!(r.update_secs, 0.0, "{what}");
                } else {
                    assert!(r.throughput_meps > 0.0, "{what}: {}", r.throughput_meps);
                    assert!(r.throughput_meps.is_finite(), "{what}");
                }
            }
        }
    }

    #[test]
    fn in_place_split_builds_the_copying_splits_streams() {
        for repr in [GraphRepr::StaticCsr, GraphRepr::LinkedList] {
            let cfg = small(repr, AllocatorKind::Sw);
            let (new, base) = phase_streams(&cfg);
            let g = generate_power_law(cfg.n_nodes, cfg.base_edges + cfg.new_edges, cfg.ctx.seed);
            let w = split_for_update_count(g, cfg.new_edges, cfg.ctx.seed ^ 0x5eed);
            assert_eq!(new, partition(&w.new_edges, cfg.n_dpus, cfg.n_tasklets));
            let want = matches!(repr, GraphRepr::StaticCsr)
                .then(|| partition(&w.base.edges, cfg.n_dpus, cfg.n_tasklets));
            assert_eq!(base, want, "{repr:?}");
        }
    }

    /// The per-DPU scan the one-pass partition replaced: DPU `dpu`'s
    /// streams, kept from a filter over every edge.
    fn filtered_streams(
        edges: &[(u32, u32)],
        dpu: usize,
        n_dpus: usize,
        n_tasklets: usize,
    ) -> Vec<Vec<(u32, u32)>> {
        let mut streams = vec![Vec::new(); n_tasklets];
        for &(u, v) in edges {
            let (d, t, local) = place(u, n_dpus, n_tasklets);
            if d == dpu {
                streams[t].push((local, v));
            }
        }
        streams
    }

    #[test]
    fn one_pass_partition_matches_per_dpu_filter() {
        let g = generate_power_law(5000, 30_000, 3);
        let parts = partition(&g.edges, 7, 16);
        assert_eq!(parts.len(), 7);
        for (dpu, streams) in parts.iter().enumerate() {
            assert_eq!(
                streams,
                &filtered_streams(&g.edges, dpu, 7, 16),
                "DPU {dpu}"
            );
        }
    }

    #[test]
    fn static_breakdown_is_memory_and_wait_bound() {
        let r = run_graph_update(&small(GraphRepr::StaticCsr, AllocatorKind::Sw));
        let (_run, busy, idle_mem, _etc) = r.breakdown.fractions();
        assert!(
            busy + idle_mem > 0.5,
            "CSR shifts serialize on the mutex and DMA: busy={busy} mem={idle_mem}"
        );
    }

    #[test]
    fn update_cost_independent_of_base_size_for_dynamic() {
        // Figure 3(c): dynamic update throughput is flat in pre-update
        // size; static degrades.
        let mut cfg = small(GraphRepr::LinkedList, AllocatorKind::Sw);
        cfg.base_edges = 2000;
        let small_g = run_graph_update(&cfg);
        cfg.base_edges = 16_000;
        let large_g = run_graph_update(&cfg);
        let dyn_ratio = small_g.throughput_meps / large_g.throughput_meps;
        assert!(
            dyn_ratio < 2.0,
            "dynamic must be nearly flat, ratio {dyn_ratio}"
        );

        let mut cfg = small(GraphRepr::StaticCsr, AllocatorKind::Sw);
        cfg.base_edges = 2000;
        let small_s = run_graph_update(&cfg);
        cfg.base_edges = 48_000;
        let large_s = run_graph_update(&cfg);
        let stat_ratio = small_s.throughput_meps / large_s.throughput_meps;
        assert!(
            stat_ratio > 2.0,
            "static must degrade with size, ratio {stat_ratio}"
        );
    }
}
