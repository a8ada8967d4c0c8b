//! LLM model configuration and KV-cache arithmetic.
//!
//! The paper offloads attention to PIM with the Llama-2-7B
//! configuration: the KV cache of each token is sharded across all
//! DPUs, and each DPU grows its shard by allocating a fresh **512 B
//! block per token** when the current space is exhausted (§V).

use serde::{Deserialize, Serialize};

/// Model and system parameters of the attention-on-PIM case study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LlmConfig {
    /// Transformer layers (Llama-2-7B: 32).
    pub n_layers: u32,
    /// Hidden dimension (Llama-2-7B: 4096).
    pub hidden_dim: u32,
    /// Bytes per element (fp16: 2).
    pub dtype_bytes: u32,
    /// DPUs the KV cache is sharded across (paper: 512).
    pub n_dpus: usize,
    /// Per-token KV growth on one DPU — the paper's kernel allocates
    /// one block of this size per generated token (512 B).
    pub kv_block_bytes: u32,
    /// Model context limit in tokens; a *static* scheme must reserve
    /// this many tokens of KV per request up front.
    pub max_seq_len: u32,
    /// Per-DPU heap bytes available for KV storage.
    pub heap_bytes: u32,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            n_layers: 32,
            hidden_dim: 4096,
            dtype_bytes: 2,
            n_dpus: 512,
            kv_block_bytes: 512,
            max_seq_len: 768,
            heap_bytes: 31 << 20, // 32 MB heap minus allocator metadata
        }
    }
}

impl LlmConfig {
    /// Total KV bytes per token across the whole model
    /// (K and V, all layers): `2 × layers × hidden × dtype`.
    pub fn kv_bytes_per_token_total(&self) -> u64 {
        2 * u64::from(self.n_layers) * u64::from(self.hidden_dim) * u64::from(self.dtype_bytes)
    }

    /// KV bytes per token landing on one DPU.
    pub fn kv_bytes_per_token_per_dpu(&self) -> u64 {
        self.kv_bytes_per_token_total() / self.n_dpus as u64
    }

    /// Per-DPU KV bytes a request holding `tokens` tokens occupies
    /// under *dynamic* allocation (rounded up to whole blocks).
    pub fn dynamic_bytes_per_request(&self, tokens: u32) -> u64 {
        let raw = u64::from(tokens) * self.kv_bytes_per_token_per_dpu();
        raw.div_ceil(u64::from(self.kv_block_bytes)) * u64::from(self.kv_block_bytes)
    }

    /// Per-DPU KV bytes a request reserves under *static* allocation:
    /// the worst case, `max_seq_len` tokens.
    pub fn static_bytes_per_request(&self) -> u64 {
        self.dynamic_bytes_per_request(self.max_seq_len)
    }

    /// Number of `kv_block_bytes` blocks a request of `tokens` tokens
    /// needs on one DPU.
    pub fn blocks_per_request(&self, tokens: u32) -> u64 {
        self.dynamic_bytes_per_request(tokens) / u64::from(self.kv_block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_7b_kv_arithmetic() {
        let c = LlmConfig::default();
        // 2 × 32 × 4096 × 2 B = 512 KB of KV per token model-wide.
        assert_eq!(c.kv_bytes_per_token_total(), 512 << 10);
        // Across 512 DPUs: 1 KB per token per DPU... the paper's kernel
        // allocates 512 B blocks, i.e. two blocks per token.
        assert_eq!(c.kv_bytes_per_token_per_dpu(), 1024);
        assert_eq!(c.blocks_per_request(1), 2);
    }

    #[test]
    fn dynamic_rounds_to_blocks() {
        let c = LlmConfig::default();
        // 3 tokens = 3 KB = 6 blocks exactly.
        assert_eq!(c.dynamic_bytes_per_request(3), 3072);
        // A request with 0 tokens occupies nothing.
        assert_eq!(c.dynamic_bytes_per_request(0), 0);
    }

    #[test]
    fn static_reserves_worst_case() {
        let c = LlmConfig::default();
        assert_eq!(
            c.static_bytes_per_request(),
            u64::from(c.max_seq_len) * 1024
        );
        // Static reservation doubles a typical 384-token request.
        assert!(c.static_bytes_per_request() >= 2 * c.dynamic_bytes_per_request(384));
    }
}
