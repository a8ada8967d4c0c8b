//! Discrete-event LLM serving simulator (Figure 18 of the paper).
//!
//! The xPU+PIM serving loop: fully-connected layers run on the host
//! accelerator while attention reads every active request's KV cache
//! on the PIM side. Each decode step appends one token per request,
//! and under dynamic allocation each DPU allocates fresh 512 B blocks
//! on the critical path. Throughput rises with the achievable batch
//! (memory-bound admission) and falls with per-step latency; TPOT *is*
//! the per-step latency a request experiences.
//!
//! Each step also moves data host→PIM: the xPU's FC stack produces the
//! new token's K/V vectors, which must land in every DPU's KV shard
//! before the next attention launch. That traffic is described as a
//! [`TransferPlan`] (one buffer per DPU, `batch ×` the per-token
//! per-DPU KV bytes) and scheduled under the config context's
//! batching policy;
//! the push double-buffers behind the next step's FC compute, so only
//! the part that *exceeds* the FC time stalls the decode loop. With
//! rank-sharded batching the push hides almost entirely at realistic
//! batch sizes; a per-DPU call schedule pays 512 fixed overheads per
//! step and stalls every token.

use pim_sim::{LatencyRecorder, SimContext, TransferDirection, TransferPlan};
use serde::{Deserialize, Serialize};

use super::config::LlmConfig;
use super::kv_cache::KvScheme;
use super::trace::RequestSpec;
use crate::micro::{run_micro, MicroConfig, Pattern};

/// Serving-simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Model / PIM configuration.
    pub llm: LlmConfig,
    /// Host (xPU) time per decode step — the FC layers, roughly
    /// constant in the batch for memory-bound decode. Seconds.
    pub fc_step_secs: f64,
    /// Fixed PIM kernel-launch overhead per decode step, seconds.
    pub launch_secs: f64,
    /// Effective per-DPU MRAM streaming bandwidth for attention reads,
    /// bytes/second (PrIM-measured ≈ 0.6–0.7 GB/s).
    pub mram_bw_bytes_per_s: f64,
    /// Host-side prefill time per admitted request, seconds.
    pub prefill_secs: f64,
    /// Shared execution context: `ctx.batching` schedules the
    /// per-step KV push.
    pub ctx: SimContext,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            llm: LlmConfig::default(),
            fc_step_secs: 0.020,
            launch_secs: 0.0005,
            mram_bw_bytes_per_s: 0.65e9,
            prefill_secs: 0.015,
            ctx: SimContext::default(),
        }
    }
}

/// Serving-simulation results (one Figure 18 bar group).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingResult {
    /// The KV scheme evaluated.
    pub scheme: KvScheme,
    /// Output tokens generated per second.
    pub throughput_tokens_per_s: f64,
    /// Median time-per-output-token, milliseconds.
    pub tpot_p50_ms: f64,
    /// 95th-percentile TPOT, milliseconds.
    pub tpot_p95_ms: f64,
    /// 99th-percentile TPOT, milliseconds.
    pub tpot_p99_ms: f64,
    /// Largest batch formed during the run.
    pub peak_batch: usize,
    /// Wall-clock time to drain the trace, seconds.
    pub makespan_s: f64,
    /// Total modeled host→PIM KV push time across all steps, seconds
    /// (overlapped or not).
    pub kv_push_secs: f64,
    /// KV push time that could *not* hide behind FC compute and
    /// stalled the decode loop, seconds (included in the makespan).
    pub kv_push_stall_secs: f64,
    /// Host↔PIM transfer calls the KV pushes issued.
    pub kv_push_calls: u64,
}

/// Measures the per-allocation wall-clock cost of a scheme's allocator
/// under concurrent (16-tasklet) 512 B allocation — the per-block cost
/// the decode loop pays. Returns seconds per block (0 for static).
fn alloc_secs_per_block(scheme: KvScheme, cfg: &LlmConfig) -> f64 {
    match scheme {
        KvScheme::Static => 0.0,
        KvScheme::Dynamic(kind) => {
            let micro = MicroConfig {
                n_tasklets: 16,
                allocs_per_tasklet: 64,
                alloc_size: cfg.kv_block_bytes,
                heap_size: 32 << 20,
                pattern: Pattern::AllocOnly,
            };
            let r = run_micro(kind, &micro);
            // Wall time for all blocks, spread across the tasklets.
            r.finish_us * 1e-6 / (16.0 * 64.0)
        }
    }
}

/// Runs the serving simulation for several schemes concurrently, one
/// share-nothing simulation per scheme, returning results in input
/// order.
///
/// Each scheme's run is independent (its own allocator calibration DPU
/// and event loop), so this is a deterministic parallel map over
/// [`run_serving`] — the Figure 18 comparison at the wall-clock cost of
/// its slowest scheme instead of their sum.
pub fn run_serving_many(
    schemes: &[KvScheme],
    cfg: &ServingConfig,
    trace: &[RequestSpec],
) -> Vec<ServingResult> {
    pim_sim::parallel_indexed(schemes.len(), |i| run_serving(schemes[i], cfg, trace))
}

/// Runs the serving simulation over `trace`.
pub fn run_serving(scheme: KvScheme, cfg: &ServingConfig, trace: &[RequestSpec]) -> ServingResult {
    let alloc_block_secs = alloc_secs_per_block(scheme, &cfg.llm);
    let heap = u64::from(cfg.llm.heap_bytes);
    let per_req_static = cfg.llm.static_bytes_per_request();
    let planner = cfg.ctx.planner();

    #[derive(Debug, Clone, Copy)]
    struct Active {
        generated: u32,
        target: u32,
        context: u32, // prompt + generated
    }

    let mut now = 0.0f64;
    let mut next_arrival = 0usize;
    let mut waiting: Vec<RequestSpec> = Vec::new();
    let mut active: Vec<Active> = Vec::new();
    let mut kv_bytes_used = 0u64;
    let mut tpot = LatencyRecorder::new(); // stored in microseconds
    let mut total_output_tokens = 0u64;
    let mut peak_batch = 0usize;
    let mut kv_push_secs = 0.0f64;
    let mut kv_push_stall_secs = 0.0f64;
    let mut kv_push_calls = 0u64;
    let start = trace.first().map(|r| r.arrival_s).unwrap_or(0.0);

    while active.len() + waiting.len() > 0 || next_arrival < trace.len() {
        // Pull arrivals up to `now`.
        while next_arrival < trace.len() && trace[next_arrival].arrival_s <= now {
            waiting.push(trace[next_arrival]);
            next_arrival += 1;
        }
        // Admit while memory allows.
        let mut admitted = 0usize;
        while let Some(req) = waiting.first().copied() {
            let needed = match scheme {
                KvScheme::Static => per_req_static,
                KvScheme::Dynamic(_) => cfg.llm.dynamic_bytes_per_request(req.prompt_tokens),
            };
            let fits = kv_bytes_used + needed <= heap;
            if !fits {
                break;
            }
            waiting.remove(0);
            kv_bytes_used += needed;
            active.push(Active {
                generated: 0,
                target: req.output_tokens,
                context: req.prompt_tokens,
            });
            admitted += 1;
        }
        if active.is_empty() {
            // Idle until the next arrival.
            match trace.get(next_arrival) {
                Some(r) => now = now.max(r.arrival_s),
                None => break,
            }
            continue;
        }
        peak_batch = peak_batch.max(active.len());

        // One decode step for the whole batch.
        let kv_read_bytes: u64 = active
            .iter()
            .map(|a| u64::from(a.context) * cfg.llm.kv_bytes_per_token_per_dpu())
            .sum();
        let attn_secs = cfg.launch_secs + kv_read_bytes as f64 / cfg.mram_bw_bytes_per_s;
        // Dynamic: each request adds one token; charge fresh blocks.
        let mut alloc_secs = 0.0;
        if let KvScheme::Dynamic(_) = scheme {
            for a in &active {
                let before = cfg.llm.blocks_per_request(a.context);
                let after = cfg.llm.blocks_per_request(a.context + 1);
                alloc_secs += (after - before) as f64 * alloc_block_secs;
                kv_bytes_used += (after - before) * u64::from(cfg.llm.kv_block_bytes);
            }
        }
        // Push each request's freshly generated K/V to every DPU's KV
        // shard; the push overlaps the next step's FC compute, so only
        // the excess over the FC time reaches the critical path.
        let push_plan = TransferPlan::uniform(
            TransferDirection::HostToPim,
            cfg.llm.n_dpus,
            active.len() as u64 * cfg.llm.kv_bytes_per_token_per_dpu(),
        );
        let push = planner.estimate(&push_plan);
        let push_stall = (push.secs - cfg.fc_step_secs).max(0.0);
        kv_push_secs += push.secs;
        kv_push_stall_secs += push_stall;
        kv_push_calls += push.calls;
        let step = cfg.fc_step_secs
            + attn_secs
            + alloc_secs
            + admitted as f64 * cfg.prefill_secs
            + push_stall;
        now += step;

        // Every active request emitted one token with this step's TPOT.
        for _ in 0..active.len() {
            tpot.record(pim_sim::Cycles((step * 1e6) as u64));
        }
        total_output_tokens += active.len() as u64;
        for a in &mut active {
            a.generated += 1;
            a.context += 1;
        }
        // Retire finished requests and release their memory.
        active.retain(|a| {
            if a.generated >= a.target {
                let held = match scheme {
                    KvScheme::Static => per_req_static,
                    KvScheme::Dynamic(_) => cfg.llm.dynamic_bytes_per_request(a.context),
                };
                kv_bytes_used = kv_bytes_used.saturating_sub(held);
                false
            } else {
                true
            }
        });
    }

    let makespan = (now - start).max(1e-9);
    // TPOT percentiles: recorder stores µs.
    let p = |q: f64| tpot.percentile(q).0 as f64 / 1e3;
    ServingResult {
        scheme,
        throughput_tokens_per_s: total_output_tokens as f64 / makespan,
        tpot_p50_ms: p(0.50),
        tpot_p95_ms: p(0.95),
        tpot_p99_ms: p(0.99),
        peak_batch,
        makespan_s: makespan,
        kv_push_secs,
        kv_push_stall_secs,
        kv_push_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::trace::fixed_trace;
    use crate::AllocatorKind;

    fn quick_cfg() -> ServingConfig {
        ServingConfig::default()
    }

    fn schemes() -> [KvScheme; 4] {
        [
            KvScheme::Static,
            KvScheme::Dynamic(AllocatorKind::StrawMan),
            KvScheme::Dynamic(AllocatorKind::Sw),
            KvScheme::Dynamic(AllocatorKind::HwSw),
        ]
    }

    #[test]
    fn dynamic_schemes_outperform_static_throughput() {
        // Figure 18: HW/SW reaches ~1.7× static throughput; every
        // dynamic scheme beats static (bigger batches).
        let cfg = quick_cfg();
        let trace = fixed_trace(100, 10.0);
        let st = run_serving(KvScheme::Static, &cfg, &trace);
        let sw = run_serving(KvScheme::Dynamic(AllocatorKind::Sw), &cfg, &trace);
        let hw = run_serving(KvScheme::Dynamic(AllocatorKind::HwSw), &cfg, &trace);
        assert!(
            hw.throughput_tokens_per_s > 1.2 * st.throughput_tokens_per_s,
            "HW/SW {} vs static {}",
            hw.throughput_tokens_per_s,
            st.throughput_tokens_per_s
        );
        assert!(sw.throughput_tokens_per_s > st.throughput_tokens_per_s);
        assert!(hw.throughput_tokens_per_s >= sw.throughput_tokens_per_s);
        assert!(hw.peak_batch > st.peak_batch);
    }

    #[test]
    fn tpot_ordering_matches_figure18() {
        // Static has the lowest TPOT (no allocation overhead);
        // straw-man the highest; HW/SW improves on SW.
        let cfg = quick_cfg();
        let trace = fixed_trace(40, 10.0);
        let results = run_serving_many(&schemes(), &cfg, &trace);
        let (st, straw, sw, hw) = (&results[0], &results[1], &results[2], &results[3]);
        assert!(st.tpot_p50_ms <= sw.tpot_p50_ms);
        assert!(
            straw.tpot_p50_ms > sw.tpot_p50_ms,
            "straw-man TPOT must be worst"
        );
        assert!(hw.tpot_p99_ms <= sw.tpot_p99_ms);
        // TPOT in a plausible LLM-serving range (paper: 16–80 ms).
        assert!(st.tpot_p50_ms > 5.0 && st.tpot_p50_ms < 200.0);
    }

    #[test]
    fn straw_man_throughput_suffers_from_alloc_latency() {
        let cfg = quick_cfg();
        let trace = fixed_trace(40, 10.0);
        let straw = run_serving(KvScheme::Dynamic(AllocatorKind::StrawMan), &cfg, &trace);
        let sw = run_serving(KvScheme::Dynamic(AllocatorKind::Sw), &cfg, &trace);
        assert!(
            sw.throughput_tokens_per_s > straw.throughput_tokens_per_s,
            "SW {} must beat straw-man {}",
            sw.throughput_tokens_per_s,
            straw.throughput_tokens_per_s
        );
    }

    #[test]
    fn all_requests_complete_and_memory_is_released() {
        let cfg = quick_cfg();
        let trace = fixed_trace(30, 20.0);
        for s in schemes() {
            let r = run_serving(s, &cfg, &trace);
            // 30 requests × 256 output tokens each.
            let expected = 30.0 * 256.0;
            let produced = r.throughput_tokens_per_s * r.makespan_s;
            assert!(
                (produced - expected).abs() < 1.0,
                "{:?}: produced {produced} of {expected}",
                s
            );
        }
    }

    #[test]
    fn empty_trace_is_handled() {
        let cfg = quick_cfg();
        let r = run_serving(KvScheme::Static, &cfg, &[]);
        assert_eq!(r.peak_batch, 0);
        assert_eq!(r.throughput_tokens_per_s, 0.0);
        assert_eq!(r.kv_push_calls, 0);
    }

    #[test]
    fn sharded_kv_push_mostly_hides_behind_fc_compute() {
        // The rank-sharded push is cheaper than one FC step except at
        // the very largest batches, so almost all of it overlaps; the
        // residual stall is a vanishing fraction of the makespan.
        let cfg = quick_cfg();
        let trace = fixed_trace(100, 10.0);
        let r = run_serving(KvScheme::Dynamic(AllocatorKind::Sw), &cfg, &trace);
        assert!(r.kv_push_secs > 0.0);
        assert!(r.kv_push_calls > 0);
        assert!(
            r.kv_push_stall_secs < 0.01 * r.makespan_s,
            "sharded push must (almost) hide: stalled {} of {}",
            r.kv_push_stall_secs,
            r.makespan_s
        );
        assert!(r.kv_push_stall_secs < 0.1 * r.kv_push_secs);
    }

    #[test]
    fn per_dpu_kv_push_stalls_the_decode_loop() {
        // 512 per-DPU calls per step cost 12.8 ms of fixed overhead
        // alone plus rank-serialized data: the push no longer hides
        // behind the 20 ms FC step, TPOT and throughput suffer.
        let sharded = quick_cfg();
        let per_dpu = ServingConfig {
            ctx: sharded.ctx.with_batching(pim_sim::HostBatching::PerDpu),
            ..sharded
        };
        let trace = fixed_trace(100, 10.0);
        let fast = run_serving(KvScheme::Dynamic(AllocatorKind::Sw), &sharded, &trace);
        let slow = run_serving(KvScheme::Dynamic(AllocatorKind::Sw), &per_dpu, &trace);
        assert!(slow.kv_push_stall_secs > 0.0);
        assert!(slow.kv_push_calls > fast.kv_push_calls);
        assert!(
            slow.throughput_tokens_per_s < fast.throughput_tokens_per_s,
            "per-DPU pushes {} must lose to sharded {}",
            slow.throughput_tokens_per_s,
            fast.throughput_tokens_per_s
        );
        assert!(slow.tpot_p50_ms > fast.tpot_p50_ms);
    }

    #[test]
    fn step_time_grows_with_the_context_read() {
        // A decode step streams the request's whole KV shard out of
        // MRAM, so 448 more prompt tokens add their per-DPU bytes at
        // the MRAM bandwidth to every step.
        let cfg = quick_cfg();
        let tpot_p50_ms = |prompt_tokens| {
            let trace = [RequestSpec {
                prompt_tokens,
                output_tokens: 8,
                arrival_s: 0.0,
            }];
            let r = run_serving(KvScheme::Static, &cfg, &trace);
            assert_eq!(r.kv_push_stall_secs, 0.0);
            r.tpot_p50_ms
        };
        let gap = tpot_p50_ms(512) - tpot_p50_ms(64);
        let read_ms =
            448.0 * cfg.llm.kv_bytes_per_token_per_dpu() as f64 / cfg.mram_bw_bytes_per_s * 1e3;
        // TPOT is recorded in whole microseconds.
        assert!(
            (gap - read_ms).abs() < 0.002,
            "TPOT grew {gap} ms, the context read {read_ms} ms"
        );
    }
}
