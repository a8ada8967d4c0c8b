//! The attention-layer / KV-cache case study — case study #2 of the
//! paper (§III-A, §VI-C).
//!
//! * [`config`] — Llama-2-7B KV arithmetic and the per-DPU 512 B block
//!   growth the paper's PIM kernel performs.
//! * [`trace`] — synthetic ShareGPT-shaped request traces and the
//!   fixed 128-in/256-out Figure 18 trace.
//! * [`kv_cache`] — static vs dynamic KV management: the maximum batch
//!   experiment (Figure 4(b)) and KV fragmentation (Table III).
//! * [`serving`] — the discrete-event serving simulator reporting
//!   throughput and TPOT percentiles (Figure 18).

pub mod config;
pub mod kv_cache;
pub mod serving;
pub mod trace;

pub use config::LlmConfig;
pub use kv_cache::{kv_fragmentation, max_batch_size, KvScheme, MaxBatchResult};
pub use serving::{run_serving, run_serving_many, ServingConfig, ServingResult};
pub use trace::{fixed_trace, sharegpt_like_trace, RequestSpec};
