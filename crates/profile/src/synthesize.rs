//! Profile-guided size-class synthesis.
//!
//! [`synthesize_table`] turns an [`AllocProfile`] into a custom
//! [`SizeClassTable`] minimizing a modeled cost: internal
//! fragmentation (per-request rounding waste *plus* the eager
//! prepopulation floor — PIM-malloc reserves one
//! [`CACHE_BLOCK_BYTES`]-byte block per class per tasklet at init, so
//! every class a table carries costs reserved heap whether or not it
//! is ever hit) traded against per-tasklet WRAM metadata footprint
//! (each class needs a slot bitmap in scarce scratchpad).
//!
//! Optimal class boundaries always sit at (aligned-up) observed
//! request sizes, so the synthesizer runs an exact dynamic program
//! over those candidates: `dp[k][i]` is the cheapest table of `k`
//! classes whose largest is candidate `i`, built left to right with
//! prefix sums making each segment cost O(1). The largest class is
//! pinned to the largest cacheable candidate so a synthesized table
//! never caches *less* of the profile than the observed workload
//! needs. The whole pipeline is integer/fixed-order arithmetic over
//! `BTreeMap`-sorted inputs: the same profile and objective always
//! synthesize a byte-identical table.

use std::fmt;

use pim_malloc::{SizeClassTable, CACHE_BLOCK_BYTES, SIZE_CLASS_ALIGN};
use serde::{Deserialize, Serialize};

use crate::profile::AllocProfile;

/// Largest request a thread-cache size class may serve; bigger
/// requests bypass to the buddy backend regardless of geometry.
pub const MAX_CLASS_BYTES: u32 = CACHE_BLOCK_BYTES / 2;

/// What the synthesizer optimizes and under which constraints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthesisObjective {
    /// Weight on modeled fragmentation bytes (rounding waste plus the
    /// prepopulation floor).
    pub frag_weight: f64,
    /// Weight on WRAM bitmap bytes (summed over tasklets). WRAM is
    /// ~1000x scarcer than MRAM on UPMEM-like parts, so the default
    /// prices one WRAM byte as 16 fragmentation bytes.
    pub wram_weight: f64,
    /// Fewest classes the table may have (clamped to the number of
    /// distinct candidates when the profile is narrower).
    pub min_classes: usize,
    /// Most classes the table may have.
    pub max_classes: usize,
    /// Class-size alignment; must be a multiple of
    /// [`SIZE_CLASS_ALIGN`] and divide [`MAX_CLASS_BYTES`].
    pub alignment: u32,
    /// Optional per-tasklet WRAM bitmap budget in bytes: class counts
    /// whose optimum exceeds it are discarded.
    pub wram_budget_bytes: Option<u32>,
}

impl Default for SynthesisObjective {
    fn default() -> Self {
        SynthesisObjective {
            frag_weight: 1.0,
            wram_weight: 16.0,
            min_classes: 1,
            max_classes: 16,
            alignment: SIZE_CLASS_ALIGN,
            wram_budget_bytes: None,
        }
    }
}

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The profile recorded no request a size class could serve
    /// (empty, or every request bypasses the thread cache).
    NoCacheableSizes,
    /// The objective itself is contradictory.
    BadObjective(String),
    /// No class count within `[min_classes, max_classes]` fits the
    /// WRAM budget.
    WramBudget {
        /// Cheapest per-tasklet bitmap footprint among the optima.
        needed: u32,
        /// The budget that excluded it.
        budget: u32,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::NoCacheableSizes => {
                write!(
                    f,
                    "profile has no cacheable request sizes to synthesize from"
                )
            }
            SynthesisError::BadObjective(msg) => write!(f, "bad synthesis objective: {msg}"),
            SynthesisError::WramBudget { needed, budget } => write!(
                f,
                "no feasible table fits the WRAM budget ({needed} B needed, {budget} B allowed)"
            ),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesized geometry plus the report predicting its effect.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesis {
    /// The synthesized size-class table.
    pub table: SizeClassTable,
    /// Predicted deltas versus [`SizeClassTable::paper_default`].
    pub report: SynthesisReport,
}

/// Modeled comparison of a synthesized table against the paper's
/// fixed power-of-two geometry, for the same profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthesisReport {
    /// Synthesized classes, ascending.
    pub classes: Vec<u32>,
    /// `classes.len()`.
    pub class_count: usize,
    /// Modeled fragmentation of the synthesized table, bytes.
    pub modeled_frag_bytes: u64,
    /// Modeled fragmentation of the paper table, bytes.
    pub modeled_frag_bytes_paper: u64,
    /// Per-tasklet WRAM bitmap footprint of the synthesized table.
    pub wram_bytes_per_tasklet: u32,
    /// Per-tasklet WRAM bitmap footprint of the paper table.
    pub wram_bytes_per_tasklet_paper: u32,
    /// `modeled_frag_bytes / modeled_frag_bytes_paper` (1.0 when the
    /// paper model is zero).
    pub predicted_frag_ratio: f64,
    /// `wram_bytes_per_tasklet / wram_bytes_per_tasklet_paper`.
    pub predicted_wram_ratio: f64,
    /// Requests too large for any class under either table.
    pub bypass_requests: u64,
}

/// Modeled internal fragmentation of `profile` under `table`, bytes:
/// per-request rounding waste (requested size up to its class size)
/// plus the eager-prepopulation floor of one
/// [`CACHE_BLOCK_BYTES`]-byte block per class per tasklet. Bypass
/// requests contribute nothing (their cost is geometry-independent).
pub fn modeled_frag_bytes(profile: &AllocProfile, table: &SizeClassTable) -> u64 {
    let mut waste = 0u64;
    for (size, count) in profile.histogram.entries() {
        if let Some(idx) = table.class_for(size) {
            waste += count * u64::from(table.class_bytes(idx) - size);
        }
    }
    let floor = table.len() as u64 * profile.n_tasklets as u64 * u64::from(CACHE_BLOCK_BYTES);
    waste + floor
}

/// Per-tasklet WRAM slot-bitmap footprint of `table`, bytes — the
/// same model as `ThreadCache::bitmap_wram_bytes`.
pub fn wram_bitmap_bytes(table: &SizeClassTable) -> u32 {
    table
        .classes()
        .iter()
        .map(|&c| (CACHE_BLOCK_BYTES / c).div_ceil(8))
        .sum()
}

/// Synthesizes the cost-minimal size-class table for `profile` under
/// `objective`, with a report of the predicted deltas versus the
/// paper geometry.
///
/// # Errors
///
/// [`SynthesisError::BadObjective`] for contradictory constraints,
/// [`SynthesisError::NoCacheableSizes`] when nothing in the profile
/// can be cached, [`SynthesisError::WramBudget`] when no feasible
/// class count fits the budget.
pub fn synthesize_table(
    profile: &AllocProfile,
    objective: &SynthesisObjective,
) -> Result<Synthesis, SynthesisError> {
    validate_objective(objective)?;
    let n_tasklets = profile.n_tasklets as u64;

    // Cacheable (size, count) pairs ascending, and the bypass tail.
    let mut cacheable: Vec<(u32, u64)> = Vec::new();
    let mut bypass_requests = 0u64;
    for (size, count) in profile.histogram.entries() {
        if size <= MAX_CLASS_BYTES {
            cacheable.push((size, count));
        } else {
            bypass_requests += count;
        }
    }
    if cacheable.is_empty() {
        return Err(SynthesisError::NoCacheableSizes);
    }

    // Candidate boundaries: observed sizes aligned up, deduplicated.
    // align | MAX_CLASS_BYTES (validated), so candidates stay legal.
    let align = objective.alignment;
    let mut candidates: Vec<u32> = cacheable
        .iter()
        .map(|&(s, _)| s.div_ceil(align) * align)
        .collect();
    candidates.dedup();
    let m = candidates.len();

    // Prefix sums over the cacheable pairs for O(1) segment waste:
    // requests in (candidates[j], candidates[i]] round up to
    // candidates[i], wasting candidates[i]*count - bytes.
    let mut prefix_count = vec![0u64; cacheable.len() + 1];
    let mut prefix_bytes = vec![0u64; cacheable.len() + 1];
    for (i, &(s, c)) in cacheable.iter().enumerate() {
        prefix_count[i + 1] = prefix_count[i] + c;
        prefix_bytes[i + 1] = prefix_bytes[i] + u64::from(s) * c;
    }
    // sizes_upto[i]: how many cacheable pairs have size <= candidates[i].
    let sizes_upto: Vec<usize> = candidates
        .iter()
        .map(|&cand| cacheable.partition_point(|&(s, _)| s <= cand))
        .collect();
    // Cost of one class candidates[i] covering sizes in
    // (candidates[j], candidates[i]] (j = None for the first class).
    let class_cost = |j: Option<usize>, i: usize| -> f64 {
        let lo = j.map_or(0, |j| sizes_upto[j]);
        let hi = sizes_upto[i];
        let count = prefix_count[hi] - prefix_count[lo];
        let bytes = prefix_bytes[hi] - prefix_bytes[lo];
        let waste = u64::from(candidates[i]) * count - bytes;
        let floor = n_tasklets * u64::from(CACHE_BLOCK_BYTES);
        let wram = n_tasklets * u64::from((CACHE_BLOCK_BYTES / candidates[i]).div_ceil(8));
        objective.frag_weight * (waste + floor) as f64 + objective.wram_weight * wram as f64
    };

    // dp[k-1][i]: cheapest k-class table whose largest class is
    // candidates[i] (covering everything <= candidates[i]).
    let k_max = objective.max_classes.min(m);
    let k_min = objective.min_classes.min(m);
    let mut dp = vec![vec![f64::INFINITY; m]; k_max];
    let mut parent = vec![vec![usize::MAX; m]; k_max];
    for (i, cell) in dp[0].iter_mut().enumerate() {
        *cell = class_cost(None, i);
    }
    for k in 1..k_max {
        for i in k..m {
            for j in (k - 1)..i {
                let cost = dp[k - 1][j] + class_cost(Some(j), i);
                // Strict `<` keeps the smallest j on ties: a fixed,
                // deterministic tie-break.
                if cost < dp[k][i] {
                    dp[k][i] = cost;
                    parent[k][i] = j;
                }
            }
        }
    }

    // Finalists: the optimum for each class count k, largest class
    // pinned to the last candidate; then the WRAM budget filters
    // them. Ties on cost keep the smaller k (fewer classes).
    let mut best: Option<(f64, Vec<u32>, u32)> = None;
    let mut cheapest_wram: Option<u32> = None;
    for k in k_min..=k_max {
        let cost = dp[k - 1][m - 1];
        if !cost.is_finite() {
            continue;
        }
        let mut classes = Vec::with_capacity(k);
        let mut i = m - 1;
        for level in (0..k).rev() {
            classes.push(candidates[i]);
            if level > 0 {
                i = parent[level][i];
            }
        }
        classes.reverse();
        let wram: u32 = classes
            .iter()
            .map(|&c| (CACHE_BLOCK_BYTES / c).div_ceil(8))
            .sum();
        cheapest_wram = Some(cheapest_wram.map_or(wram, |w| w.min(wram)));
        if objective.wram_budget_bytes.is_some_and(|b| wram > b) {
            continue;
        }
        if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
            best = Some((cost, classes, wram));
        }
    }
    let Some((_, classes, wram)) = best else {
        return Err(SynthesisError::WramBudget {
            needed: cheapest_wram.unwrap_or(0),
            budget: objective.wram_budget_bytes.unwrap_or(0),
        });
    };

    let table = SizeClassTable::try_new(classes.clone())
        .map_err(|e| SynthesisError::BadObjective(format!("synthesized table invalid: {e}")))?;
    let paper = SizeClassTable::paper_default();
    let frag = modeled_frag_bytes(profile, &table);
    let frag_paper = modeled_frag_bytes(profile, &paper);
    let wram_paper = wram_bitmap_bytes(&paper);
    let report = SynthesisReport {
        class_count: classes.len(),
        classes,
        modeled_frag_bytes: frag,
        modeled_frag_bytes_paper: frag_paper,
        wram_bytes_per_tasklet: wram,
        wram_bytes_per_tasklet_paper: wram_paper,
        predicted_frag_ratio: if frag_paper == 0 {
            1.0
        } else {
            frag as f64 / frag_paper as f64
        },
        predicted_wram_ratio: f64::from(wram) / f64::from(wram_paper),
        bypass_requests,
    };
    Ok(Synthesis { table, report })
}

fn validate_objective(o: &SynthesisObjective) -> Result<(), SynthesisError> {
    let bad = |msg: String| Err(SynthesisError::BadObjective(msg));
    if !o.frag_weight.is_finite() || o.frag_weight < 0.0 {
        return bad(format!(
            "frag_weight {} not finite and non-negative",
            o.frag_weight
        ));
    }
    if !o.wram_weight.is_finite() || o.wram_weight < 0.0 {
        return bad(format!(
            "wram_weight {} not finite and non-negative",
            o.wram_weight
        ));
    }
    if o.min_classes == 0 {
        return bad("min_classes must be at least 1".to_owned());
    }
    if o.min_classes > o.max_classes {
        return bad(format!(
            "min_classes {} exceeds max_classes {}",
            o.min_classes, o.max_classes
        ));
    }
    if o.alignment == 0 || !o.alignment.is_multiple_of(SIZE_CLASS_ALIGN) {
        return bad(format!(
            "alignment {} is not a multiple of {SIZE_CLASS_ALIGN}",
            o.alignment
        ));
    }
    if !MAX_CLASS_BYTES.is_multiple_of(o.alignment) {
        return bad(format!(
            "alignment {} does not divide the {MAX_CLASS_BYTES} B class ceiling",
            o.alignment
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total objective cost of a table — the quantity the DP
    /// minimizes, recomputed from first principles.
    fn objective_cost(
        profile: &AllocProfile,
        table: &SizeClassTable,
        o: &SynthesisObjective,
    ) -> f64 {
        o.frag_weight * modeled_frag_bytes(profile, table) as f64
            + o.wram_weight * profile.n_tasklets as f64 * f64::from(wram_bitmap_bytes(table))
    }

    fn profile_of(n_tasklets: usize, sizes: &[(u32, u64)]) -> AllocProfile {
        let mut p = AllocProfile::new("test", n_tasklets);
        for &(size, count) in sizes {
            for _ in 0..count {
                p.histogram.record(size);
            }
            p.mallocs += count;
        }
        p
    }

    #[test]
    fn single_size_profile_synthesizes_a_single_class() {
        let p = profile_of(16, &[(64, 1000)]);
        let s = synthesize_table(&p, &SynthesisObjective::default()).unwrap();
        assert_eq!(s.table.classes(), &[64]);
        assert_eq!(s.report.class_count, 1);
        assert!(
            s.report.predicted_frag_ratio < 1.0,
            "drops 7 prepop classes"
        );
        assert!(s.report.predicted_wram_ratio < 1.0);
        assert_eq!(s.report.bypass_requests, 0);
    }

    #[test]
    fn unaligned_sizes_round_up_to_aligned_classes() {
        // Counts high enough that rounding waste outweighs the extra
        // class's prepopulation floor, so both classes survive.
        let p = profile_of(4, &[(20, 500), (300, 500)]);
        let s = synthesize_table(&p, &SynthesisObjective::default()).unwrap();
        assert_eq!(s.table.classes(), &[24, 304]);
        for &c in s.table.classes() {
            assert_eq!(c % SIZE_CLASS_ALIGN, 0);
        }
    }

    #[test]
    fn oversized_requests_bypass_and_do_not_form_classes() {
        let p = profile_of(4, &[(128, 10), (4000, 5)]);
        let s = synthesize_table(&p, &SynthesisObjective::default()).unwrap();
        assert_eq!(s.table.classes(), &[128]);
        assert_eq!(s.report.bypass_requests, 5);
    }

    #[test]
    fn empty_and_bypass_only_profiles_are_rejected() {
        let empty = profile_of(4, &[]);
        assert_eq!(
            synthesize_table(&empty, &SynthesisObjective::default()).unwrap_err(),
            SynthesisError::NoCacheableSizes
        );
        let bypass_only = profile_of(4, &[(4000, 10)]);
        assert_eq!(
            synthesize_table(&bypass_only, &SynthesisObjective::default()).unwrap_err(),
            SynthesisError::NoCacheableSizes
        );
    }

    #[test]
    fn contradictory_objectives_are_rejected() {
        let p = profile_of(4, &[(64, 10)]);
        let cases = [
            SynthesisObjective {
                min_classes: 0,
                ..SynthesisObjective::default()
            },
            SynthesisObjective {
                min_classes: 5,
                max_classes: 2,
                ..SynthesisObjective::default()
            },
            SynthesisObjective {
                alignment: 12,
                ..SynthesisObjective::default()
            },
            SynthesisObjective {
                alignment: 0,
                ..SynthesisObjective::default()
            },
            SynthesisObjective {
                frag_weight: f64::NAN,
                ..SynthesisObjective::default()
            },
            SynthesisObjective {
                wram_weight: -1.0,
                ..SynthesisObjective::default()
            },
        ];
        for o in cases {
            assert!(matches!(
                synthesize_table(&p, &o),
                Err(SynthesisError::BadObjective(_))
            ));
        }
    }

    #[test]
    fn max_classes_caps_the_table() {
        let sizes: Vec<(u32, u64)> = (1..=20).map(|i| (i * 96, 10)).collect();
        let p = profile_of(4, &sizes);
        let o = SynthesisObjective {
            max_classes: 3,
            ..SynthesisObjective::default()
        };
        let s = synthesize_table(&p, &o).unwrap();
        assert!(s.table.len() <= 3);
        // The largest class still covers the largest cacheable size.
        assert_eq!(*s.table.classes().last().unwrap(), 1920);
    }

    #[test]
    fn min_classes_forces_a_wider_table() {
        let p = profile_of(4, &[(16, 10), (500, 10), (2000, 10)]);
        let o = SynthesisObjective {
            min_classes: 3,
            ..SynthesisObjective::default()
        };
        let s = synthesize_table(&p, &o).unwrap();
        assert_eq!(s.table.len(), 3);
    }

    #[test]
    fn wram_budget_filters_class_counts() {
        let p = profile_of(4, &[(16, 1000), (64, 1000), (2048, 1000)]);
        // A 16 B class alone costs (4096/16)/8 = 32 B of bitmap; force
        // a budget that only wide classes can meet.
        let o = SynthesisObjective {
            wram_budget_bytes: Some(2),
            ..SynthesisObjective::default()
        };
        match synthesize_table(&p, &o) {
            Ok(s) => assert!(wram_bitmap_bytes(&s.table) <= 2),
            Err(SynthesisError::WramBudget { needed, budget }) => {
                assert!(needed > budget);
                assert_eq!(budget, 2);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let sizes: Vec<(u32, u64)> = (1..=50u32)
            .map(|i| (i * 40, u64::from(i % 7) + 1))
            .collect();
        let p = profile_of(16, &sizes);
        let o = SynthesisObjective::default();
        let a = synthesize_table(&p, &o).unwrap();
        let b = synthesize_table(&p, &o).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    #[test]
    fn dp_matches_brute_force_on_small_profiles() {
        // Exhaustively enumerate every subset of candidates that
        // includes the last one, and check the DP finds the cheapest.
        let p = profile_of(4, &[(16, 30), (48, 5), (100, 20), (512, 1), (900, 40)]);
        let o = SynthesisObjective {
            max_classes: 5,
            ..SynthesisObjective::default()
        };
        let candidates = [16u32, 48, 104, 512, 904];
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << candidates.len()) {
            if mask & (1 << (candidates.len() - 1)) == 0 {
                continue; // must include the last candidate
            }
            let classes: Vec<u32> = candidates
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &c)| c)
                .collect();
            let table = SizeClassTable::try_new(classes).unwrap();
            best = best.min(objective_cost(&p, &table, &o));
        }
        let s = synthesize_table(&p, &o).unwrap();
        let got = objective_cost(&p, &s.table, &o);
        assert!(
            (got - best).abs() < 1e-6,
            "DP cost {got} != brute-force optimum {best}"
        );
    }

    #[test]
    fn wram_weight_trades_classes_for_fragmentation() {
        let sizes: Vec<(u32, u64)> = (1..=30).map(|i| (i * 64, 20)).collect();
        let p = profile_of(16, &sizes);
        let cheap_wram = SynthesisObjective {
            wram_weight: 0.0,
            ..SynthesisObjective::default()
        };
        let dear_wram = SynthesisObjective {
            wram_weight: 10_000.0,
            ..SynthesisObjective::default()
        };
        let a = synthesize_table(&p, &cheap_wram).unwrap();
        let b = synthesize_table(&p, &dear_wram).unwrap();
        assert!(
            a.table.len() >= b.table.len(),
            "pricier WRAM must not buy more classes ({} vs {})",
            a.table.len(),
            b.table.len()
        );
        assert!(wram_bitmap_bytes(&b.table) <= wram_bitmap_bytes(&a.table));
    }

    #[test]
    fn ladder_trades_wram_for_fragmentation() {
        let p = profile_of(16, &[(24, 400), (136, 300), (700, 200), (2000, 100)]);
        let reports: Vec<SynthesisReport> = [0.0, 1.0, 4.0, 16.0, 64.0, 256.0]
            .into_iter()
            .map(|wram_weight| {
                let objective = SynthesisObjective {
                    wram_weight,
                    ..SynthesisObjective::default()
                };
                synthesize_table(&p, &objective).unwrap().report
            })
            .collect();
        // Monotone along the ladder: pricier WRAM never buys more
        // bitmap bytes, cheaper WRAM never models worse fragmentation.
        for w in reports.windows(2) {
            assert!(w[1].wram_bytes_per_tasklet <= w[0].wram_bytes_per_tasklet);
            assert!(w[1].modeled_frag_bytes >= w[0].modeled_frag_bytes);
        }
    }

    #[test]
    fn synthesized_beats_paper_on_a_skewed_profile() {
        // A profile the fixed power-of-two table serves poorly:
        // mid-range sizes just past each power of two.
        let p = profile_of(16, &[(136, 500), (520, 500), (1040, 500)]);
        let s = synthesize_table(&p, &SynthesisObjective::default()).unwrap();
        assert!(
            s.report.modeled_frag_bytes < s.report.modeled_frag_bytes_paper,
            "synthesized {} >= paper {}",
            s.report.modeled_frag_bytes,
            s.report.modeled_frag_bytes_paper
        );
        assert!(s.report.predicted_frag_ratio < 1.0);
    }
}
