//! KV-cache memory management: static reservation vs dynamic
//! allocation (Figure 4(b) and Table III of the paper).
//!
//! Under *static* allocation (PAISE-style) every admitted request
//! reserves worst-case KV space (`max_seq_len` tokens) up front; under
//! *dynamic* allocation (`pim_malloc`) each request grows its cache
//! one 512 B block at a time as tokens are generated. The maximum
//! batch experiment admits requests from a trace until the per-DPU
//! heap is exhausted.

use pim_malloc::{AllocError, PimAllocator};
use pim_sim::{DpuConfig, DpuSim};
use serde::{Deserialize, Serialize};

use super::config::LlmConfig;
use super::trace::RequestSpec;
use crate::AllocatorKind;

/// KV-cache management scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvScheme {
    /// Static worst-case reservation per request.
    Static,
    /// Dynamic per-block allocation through the given allocator.
    Dynamic(AllocatorKind),
}

impl KvScheme {
    /// Label used in result tables.
    pub fn label(self) -> String {
        match self {
            KvScheme::Static => "Static".to_owned(),
            KvScheme::Dynamic(kind) => kind.label().to_owned(),
        }
    }
}

/// Result of the maximum-batch-size experiment (Figure 4(b)).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MaxBatchResult {
    /// The scheme evaluated.
    pub scheme: KvScheme,
    /// Largest number of concurrent requests whose KV fits one DPU.
    pub max_batch: usize,
}

/// Finds the maximum batch: admits requests from `trace` (their full
/// eventual KV footprint) until the per-DPU heap cannot take another.
///
/// Static admission is pure arithmetic (`heap / worst-case bytes`);
/// dynamic admission drives the real allocator so internal
/// fragmentation and metadata overheads are captured.
pub fn max_batch_size(scheme: KvScheme, cfg: &LlmConfig, trace: &[RequestSpec]) -> MaxBatchResult {
    let max_batch = match scheme {
        KvScheme::Static => (u64::from(cfg.heap_bytes) / cfg.static_bytes_per_request()) as usize,
        KvScheme::Dynamic(kind) => {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
            let mut alloc = kind.build(&mut dpu, 16, cfg.heap_bytes.next_power_of_two());
            let mut admitted = 0usize;
            'admit: for (i, req) in trace.iter().enumerate() {
                let blocks = cfg.blocks_per_request(req.total_tokens());
                for _ in 0..blocks {
                    let mut ctx = dpu.ctx(i % 16);
                    match alloc.pim_malloc(&mut ctx, cfg.kv_block_bytes) {
                        Ok(_) => {}
                        Err(AllocError::OutOfMemory { .. }) => break 'admit,
                        Err(e) => panic!("unexpected allocator error: {e}"),
                    }
                }
                admitted += 1;
            }
            admitted
        }
    };
    MaxBatchResult { scheme, max_batch }
}

/// Runs the KV-allocation pattern on PIM-malloc and reports the
/// fragmentation ratio A/U (Table III's "LLM attention" row).
///
/// `tokens` tokens are appended across `requests` concurrent requests
/// (each allocating 512 B blocks as it grows).
pub fn kv_fragmentation(lazy: bool, cfg: &LlmConfig, requests: usize, tokens: u32) -> f64 {
    let kind = if lazy {
        AllocatorKind::SwLazy
    } else {
        AllocatorKind::Sw
    };
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(16));
    let mut alloc = kind.build(&mut dpu, 16, cfg.heap_bytes.next_power_of_two());
    // Token-major interleaving: every decode step grows each request's
    // cache by however many fresh blocks that token needs.
    for t in 0..tokens {
        for r in 0..requests {
            let delta = cfg.blocks_per_request(t + 1) - cfg.blocks_per_request(t);
            for _ in 0..delta {
                let mut ctx = dpu.ctx(r % 16);
                alloc
                    .pim_malloc(&mut ctx, cfg.kv_block_bytes)
                    .expect("heap sized for the experiment");
            }
        }
    }
    let pm = alloc
        .as_any()
        .downcast_ref::<pim_malloc::PimMalloc>()
        .expect("PIM-malloc variant");
    pm.frag().ratio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::trace::sharegpt_like_trace;

    #[test]
    fn dynamic_admits_far_more_than_static() {
        // Figure 4(b): dynamic allocation roughly doubles the batch.
        let cfg = LlmConfig::default();
        let trace = sharegpt_like_trace(400, 10.0, cfg.max_seq_len, 11);
        let st = max_batch_size(KvScheme::Static, &cfg, &trace);
        let dy = max_batch_size(KvScheme::Dynamic(AllocatorKind::Sw), &cfg, &trace);
        assert!(
            dy.max_batch as f64 >= 1.5 * st.max_batch as f64,
            "dynamic {} vs static {}",
            dy.max_batch,
            st.max_batch
        );
        // Magnitudes in the paper's 0–200 range.
        assert!(
            (40..=120).contains(&st.max_batch),
            "static {}",
            st.max_batch
        );
        assert!(
            (80..=250).contains(&dy.max_batch),
            "dynamic {}",
            dy.max_batch
        );
    }

    #[test]
    fn scheme_choice_does_not_change_feasible_tokens() {
        // The allocator kind only changes latency, not capacity.
        let cfg = LlmConfig::default();
        let trace = sharegpt_like_trace(400, 10.0, cfg.max_seq_len, 11);
        let sw = max_batch_size(KvScheme::Dynamic(AllocatorKind::Sw), &cfg, &trace);
        let hw = max_batch_size(KvScheme::Dynamic(AllocatorKind::HwSw), &cfg, &trace);
        assert_eq!(sw.max_batch, hw.max_batch);
    }

    #[test]
    fn lazy_eliminates_prepopulation_waste() {
        // Table III: LLM attention — eager 1.66 vs lazy 1.0.
        let cfg = LlmConfig::default();
        let eager = kv_fragmentation(false, &cfg, 8, 24);
        let lazy = kv_fragmentation(true, &cfg, 8, 24);
        assert!(eager > lazy, "eager {eager} must exceed lazy {lazy}");
        assert!(
            (lazy - 1.0).abs() < 0.05,
            "512 B blocks fill 4 KB blocks exactly: lazy ratio {lazy}"
        );
        assert!(eager > 1.2, "pre-population waste expected: {eager}");
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(KvScheme::Static.label(), "Static");
        assert!(KvScheme::Dynamic(AllocatorKind::HwSw)
            .label()
            .contains("HW/SW"));
    }
}
