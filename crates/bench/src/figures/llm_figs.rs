//! LLM-serving figures: 4(b) and 18.
//!
//! Each allocation scheme is an independent serving simulation, so both
//! figures evaluate their schemes concurrently (via
//! [`pim_workloads::llm::run_serving_many`] and
//! [`pim_sim::parallel_indexed`]) and report in paper order.

use pim_sim::parallel_indexed;
use pim_workloads::llm::{
    fixed_trace, max_batch_size, run_serving_many, sharegpt_like_trace, KvScheme, LlmConfig,
    ServingConfig,
};
use pim_workloads::AllocatorKind;

use crate::report::{Experiment, Row};

/// Figure 4(b): maximum batch size under static vs dynamic KV-cache
/// allocation (512 PIM cores, ShareGPT-shaped lengths, Llama-2-7B).
/// `seed` drives the ShareGPT-shaped length sampler (paper runs use
/// 11).
pub fn fig4b(quick: bool, seed: u64) -> Experiment {
    let mut e = Experiment::new(
        "fig4b",
        "maximum batch size, static vs dynamic KV allocation",
        "dynamic roughly doubles the achievable batch (~75 vs ~150)",
    );
    let cfg = LlmConfig::default();
    let trace = sharegpt_like_trace(if quick { 250 } else { 500 }, 10.0, cfg.max_seq_len, seed);
    let schemes = [KvScheme::Static, KvScheme::Dynamic(AllocatorKind::Sw)];
    let runs = parallel_indexed(schemes.len(), |i| max_batch_size(schemes[i], &cfg, &trace));
    for (scheme, r) in schemes.into_iter().zip(runs) {
        e.push(Row::new(
            scheme.label(),
            vec![("max batch", r.max_batch as f64)],
        ));
    }
    e
}

/// Figure 18: serving throughput and TPOT percentiles across the four
/// allocation schemes.
pub fn fig18(quick: bool) -> Experiment {
    let mut e = Experiment::new(
        "fig18",
        "LLM serving: throughput and TPOT across allocation schemes",
        "HW/SW 1.7x static throughput; TPOT static < HW/SW < SW < straw-man",
    );
    // The batch-formation effect needs the paper's full 100-request
    // trace; the serving simulator itself is cheap, so quick mode only
    // trims the allocator calibration run inside `run_serving`.
    let cfg = ServingConfig::default();
    let trace = fixed_trace(100, 10.0);
    let _ = quick;
    let schemes = [
        KvScheme::Static,
        KvScheme::Dynamic(AllocatorKind::StrawMan),
        KvScheme::Dynamic(AllocatorKind::Sw),
        KvScheme::Dynamic(AllocatorKind::HwSw),
    ];
    let results = run_serving_many(&schemes, &cfg, &trace);
    for (scheme, r) in schemes.into_iter().zip(results) {
        e.push(Row::new(
            scheme.label(),
            vec![
                ("tokens/s", r.throughput_tokens_per_s),
                ("TPOT p50 ms", r.tpot_p50_ms),
                ("TPOT p95 ms", r.tpot_p95_ms),
                ("TPOT p99 ms", r.tpot_p99_ms),
                ("peak batch", r.peak_batch as f64),
            ],
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_dynamic_doubles_batch() {
        let e = fig4b(true, 11);
        let st = e.row("Static").unwrap().value("max batch").unwrap();
        let dy = e.row("PIM-malloc-SW").unwrap().value("max batch").unwrap();
        assert!(dy >= 1.5 * st, "dynamic {dy} vs static {st}");
    }

    #[test]
    fn fig18_throughput_and_tpot_orderings() {
        let e = fig18(true);
        let tput = |label: &str| e.row(label).unwrap().value("tokens/s").unwrap();
        let tpot = |label: &str| e.row(label).unwrap().value("TPOT p50 ms").unwrap();
        assert!(tput("PIM-malloc-HW/SW") > tput("Static") * 1.2);
        assert!(tput("PIM-malloc-SW") > tput("Straw-man"));
        assert!(tpot("Straw-man") > tpot("PIM-malloc-SW"));
        assert!(tpot("Static") <= tpot("PIM-malloc-SW"));
    }
}
