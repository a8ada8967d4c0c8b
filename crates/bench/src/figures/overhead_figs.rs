//! Table III (fragmentation) and the §VI-E/§VI-F overhead analyses.

use pim_malloc::BuddyGeometry;
use pim_sim::parallel_indexed;
use pim_sim::{BuddyCacheConfig, CamOverheadModel};
use pim_workloads::graph::{run_graph_update, GraphRepr, GraphUpdateConfig};
use pim_workloads::llm::{kv_fragmentation, LlmConfig};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

/// Table III: fragmentation A/U of PIM-malloc as-is (eager
/// pre-population) vs PIM-malloc-lazy, per workload.
pub fn table3(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "table3",
        "memory fragmentation A/U: eager pre-population vs lazy",
        "paper: LL 1.95->1.21, var array 1.72->1.49, LLM 1.66->1.00",
    );
    let base = if quick {
        GraphUpdateConfig {
            n_dpus: 2,
            n_nodes: 1024,
            base_edges: 3200,
            new_edges: 1600,
            ..GraphUpdateConfig::default()
        }
    } else {
        GraphUpdateConfig::default()
    };
    let reprs = [GraphRepr::LinkedList, GraphRepr::VarArray];
    let kinds = [AllocatorKind::Sw, AllocatorKind::SwLazy];
    let ratios = parallel_indexed(reprs.len() * kinds.len(), |i| {
        run_graph_update(&GraphUpdateConfig {
            repr: reprs[i / kinds.len()],
            allocator: kinds[i % kinds.len()],
            ..base
        })
        .frag_ratio
    });
    for (ri, repr) in reprs.into_iter().enumerate() {
        e.push(Row::new(
            format!("Dynamic graph update ({})", repr.label()),
            vec![
                ("as-is", ratios[ri * kinds.len()]),
                ("lazy", ratios[ri * kinds.len() + 1]),
            ],
        ));
    }
    let cfg = LlmConfig::default();
    let (requests, tokens) = if quick { (8, 24) } else { (16, 64) };
    e.push(Row::new(
        "LLM attention",
        vec![
            ("as-is", kv_fragmentation(false, &cfg, requests, tokens)),
            ("lazy", kv_fragmentation(true, &cfg, requests, tokens)),
        ],
    ));
    e
}

/// §VI-E: metadata storage overhead of the straw-man vs PIM-malloc.
pub fn metadata_overhead() -> Experiment {
    let mut e = Experiment::new(
        "metadata-overhead",
        "allocator metadata footprint per DPU (KB)",
        "straw-man 512 KB/bank; PIM-malloc ~4 KB tree + negligible bitmaps",
    );
    let straw = BuddyGeometry::new(0, 32 << 20, 32);
    let backend = BuddyGeometry::new(0, 32 << 20, 4096);
    let bitmaps_per_cache =
        pim_malloc::ThreadCache::new(&pim_malloc::SizeClassTable::paper_default())
            .bitmap_wram_bytes();
    e.push(Row::new(
        "straw-man (20-level tree)",
        vec![("KB", f64::from(straw.metadata_bytes()) / 1024.0)],
    ));
    e.push(Row::new(
        "PIM-malloc backend (13-level tree)",
        vec![("KB", f64::from(backend.metadata_bytes()) / 1024.0)],
    ));
    e.push(Row::new(
        "thread-cache bitmaps (16 tasklets)",
        vec![("KB", f64::from(bitmaps_per_cache * 16) / 1024.0)],
    ));
    e.push(Row::new(
        "PIM-malloc total",
        vec![(
            "KB",
            f64::from(backend.metadata_bytes() + bitmaps_per_cache * 16) / 1024.0,
        )],
    ));
    e
}

/// §VI-F: buddy-cache implementation overhead (CACTI stand-in,
/// derated to a DRAM process).
pub fn hw_overhead() -> Experiment {
    let mut e = Experiment::new(
        "hw-overhead",
        "buddy cache area / power / latency on a DRAM process",
        "paper (CACTI 7.0, 32nm, derated): 0.019 mm2, 5 mW, <1 cycle",
    );
    let model = CamOverheadModel::default();
    for bytes in [16u32, 64, 256] {
        let o = model.evaluate(&BuddyCacheConfig::with_capacity_bytes(bytes), 350, 1.0);
        e.push(Row::new(
            format!("{bytes} B cache"),
            vec![
                ("area mm2", o.area_mm2),
                ("power mW", o.power_mw),
                ("access cycles", o.access_cycles),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_lazy_always_improves() {
        let e = table3(true);
        for row in &e.rows {
            let eager = row.value("as-is").unwrap();
            let lazy = row.value("lazy").unwrap();
            assert!(
                eager >= lazy && lazy >= 0.99,
                "{}: eager {eager} lazy {lazy}",
                row.label
            );
        }
        // LLM attention reaches ~1.0 under lazy (512 B packs 4 KB
        // blocks exactly).
        let llm = e.row("LLM attention").unwrap();
        assert!((llm.value("lazy").unwrap() - 1.0).abs() < 0.05);
    }

    #[test]
    fn metadata_overhead_matches_paper_magnitudes() {
        let e = metadata_overhead();
        assert_eq!(
            e.row("straw-man (20-level tree)").unwrap().value("KB"),
            Some(512.0)
        );
        let total = e.row("PIM-malloc total").unwrap().value("KB").unwrap();
        assert!(total < 8.0, "PIM-malloc metadata must be a few KB: {total}");
    }

    #[test]
    fn hw_overhead_is_negligible() {
        let e = hw_overhead();
        let r = e.row("64 B cache").unwrap();
        assert!(r.value("area mm2").unwrap() < 0.05);
        assert!(r.value("access cycles").unwrap() < 1.0);
    }
}
