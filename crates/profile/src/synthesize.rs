//! Profile-guided size-class synthesis.
//!
//! [`synthesize_table`] turns an [`AllocProfile`] into a custom
//! [`SizeClassTable`] minimizing one fixed modeled cost: internal
//! fragmentation (per-request rounding waste *plus* the eager
//! prepopulation floor — PIM-malloc reserves one
//! [`CACHE_BLOCK_BYTES`]-byte block per class per tasklet at init, so
//! every class a table carries costs reserved heap whether or not it
//! is ever hit) plus 16 times the WRAM metadata footprint summed over
//! tasklets (each class needs a slot bitmap in scarce scratchpad),
//! over at most [`MAX_CLASSES`] classes aligned to
//! [`SIZE_CLASS_ALIGN`].
//!
//! Optimal class boundaries always sit at (aligned-up) observed
//! request sizes, so the synthesizer runs an exact dynamic program
//! over those candidates: `dp[k][i]` is the cheapest table of `k`
//! classes whose largest is candidate `i`, built left to right with
//! prefix sums making each segment cost O(1). The largest class is
//! pinned to the largest cacheable candidate so a synthesized table
//! never caches *less* of the profile than the observed workload
//! needs. The whole pipeline is integer/fixed-order arithmetic over
//! `BTreeMap`-sorted inputs: the same profile always synthesizes a
//! byte-identical table.

use std::fmt;

use pim_malloc::{SizeClassTable, CACHE_BLOCK_BYTES, SIZE_CLASS_ALIGN};

use crate::profile::AllocProfile;

/// Largest request a thread-cache size class may serve; bigger
/// requests bypass to the buddy backend regardless of geometry.
pub const MAX_CLASS_BYTES: u32 = CACHE_BLOCK_BYTES / 2;

/// Most classes a synthesized table may have.
pub const MAX_CLASSES: usize = 16;

/// Price of one WRAM bitmap byte in fragmentation bytes. WRAM is
/// ~1000x scarcer than MRAM on UPMEM-like parts, so one WRAM byte
/// weighs as much as 16 bytes of reserved heap.
const WRAM_WEIGHT: f64 = 16.0;

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthesisError {
    /// The profile recorded no request a size class could serve
    /// (empty, or every request bypasses the thread cache).
    NoCacheableSizes,
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
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// Synthesized classes, ascending.
    pub classes: Vec<u32>,
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

/// Synthesizes the cost-minimal size-class table for `profile`, with
/// a report of the predicted deltas versus the paper geometry.
///
/// # Errors
///
/// [`SynthesisError::NoCacheableSizes`] when nothing in the profile
/// can be cached.
pub fn synthesize_table(profile: &AllocProfile) -> Result<Synthesis, SynthesisError> {
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
    // SIZE_CLASS_ALIGN divides MAX_CLASS_BYTES, so candidates stay
    // legal classes.
    let mut candidates: Vec<u32> = cacheable
        .iter()
        .map(|&(s, _)| s.div_ceil(SIZE_CLASS_ALIGN) * SIZE_CLASS_ALIGN)
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
        (waste + floor) as f64 + WRAM_WEIGHT * wram as f64
    };

    // dp[k-1][i]: cheapest k-class table whose largest class is
    // candidates[i] (covering everything <= candidates[i]).
    let k_max = MAX_CLASSES.min(m);
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

    // The optimum over class counts, largest class pinned to the last
    // candidate. Ties on cost keep the smaller count (fewer classes).
    let mut k_best = 1;
    for k in 2..=k_max {
        if dp[k - 1][m - 1] < dp[k_best - 1][m - 1] {
            k_best = k;
        }
    }
    let mut classes = vec![0; k_best];
    let mut i = m - 1;
    for level in (0..k_best).rev() {
        classes[level] = candidates[i];
        if level > 0 {
            i = parent[level][i];
        }
    }

    let table = SizeClassTable::new(classes.clone());
    let paper = SizeClassTable::paper_default();
    let frag = modeled_frag_bytes(profile, &table);
    let frag_paper = modeled_frag_bytes(profile, &paper);
    let wram = wram_bitmap_bytes(&table);
    let wram_paper = wram_bitmap_bytes(&paper);
    let report = SynthesisReport {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Total cost of a table — the quantity the DP minimizes,
    /// recomputed from first principles.
    fn cost(profile: &AllocProfile, table: &SizeClassTable) -> f64 {
        modeled_frag_bytes(profile, table) as f64
            + WRAM_WEIGHT * profile.n_tasklets as f64 * f64::from(wram_bitmap_bytes(table))
    }

    fn profile_of(n_tasklets: usize, sizes: &[(u32, u64)]) -> AllocProfile {
        let mut p = AllocProfile::new("test", n_tasklets);
        for &(size, count) in sizes {
            for _ in 0..count {
                p.histogram.record(size);
            }
        }
        p
    }

    #[test]
    fn single_size_profile_synthesizes_a_single_class() {
        let p = profile_of(16, &[(64, 1000)]);
        let s = synthesize_table(&p).unwrap();
        assert_eq!(s.table.classes(), &[64]);
        assert_eq!(s.report.classes, [64]);
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
        let s = synthesize_table(&p).unwrap();
        assert_eq!(s.table.classes(), &[24, 304]);
        for &c in s.table.classes() {
            assert_eq!(c % SIZE_CLASS_ALIGN, 0);
        }
    }

    #[test]
    fn oversized_requests_bypass_and_do_not_form_classes() {
        let p = profile_of(4, &[(128, 10), (4000, 5)]);
        let s = synthesize_table(&p).unwrap();
        assert_eq!(s.table.classes(), &[128]);
        assert_eq!(s.report.bypass_requests, 5);
    }

    #[test]
    fn empty_and_bypass_only_profiles_are_rejected() {
        let empty = profile_of(4, &[]);
        assert_eq!(
            synthesize_table(&empty).unwrap_err(),
            SynthesisError::NoCacheableSizes
        );
        let bypass_only = profile_of(4, &[(4000, 10)]);
        assert_eq!(
            synthesize_table(&bypass_only).unwrap_err(),
            SynthesisError::NoCacheableSizes
        );
    }

    #[test]
    fn max_classes_caps_the_table() {
        // 32 sizes 64 B apart, each requested often enough that
        // merging two of them wastes more than a class costs: the
        // unconstrained optimum keeps all 32.
        let sizes: Vec<(u32, u64)> = (1..=32).map(|i| (i * 64, 1000)).collect();
        let p = profile_of(1, &sizes);
        let s = synthesize_table(&p).unwrap();
        assert_eq!(s.table.len(), MAX_CLASSES);
        // The largest class still covers the largest cacheable size.
        assert_eq!(*s.table.classes().last().unwrap(), 2048);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let sizes: Vec<(u32, u64)> = (1..=50u32)
            .map(|i| (i * 40, u64::from(i % 7) + 1))
            .collect();
        let p = profile_of(16, &sizes);
        let a = synthesize_table(&p).unwrap();
        let b = synthesize_table(&p).unwrap();
        assert_eq!(a, b);
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    }

    #[test]
    fn synthesized_beats_paper_on_a_skewed_profile() {
        // A profile the fixed power-of-two table serves poorly:
        // mid-range sizes just past each power of two.
        let p = profile_of(16, &[(136, 500), (520, 500), (1040, 500)]);
        let s = synthesize_table(&p).unwrap();
        assert!(
            s.report.modeled_frag_bytes < s.report.modeled_frag_bytes_paper,
            "synthesized {} >= paper {}",
            s.report.modeled_frag_bytes,
            s.report.modeled_frag_bytes_paper
        );
        assert!(s.report.predicted_frag_ratio < 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Enumerates every subset of the candidates that keeps the
        /// last one, and checks that the DP's table costs exactly the
        /// brute-force minimum. Every cost is an integer below 2^53,
        /// so `f64` holds it exactly.
        #[test]
        fn dp_matches_brute_force_on_small_profiles(
            sizes in vec((1u32..=MAX_CLASS_BYTES, 1u64..500), 1..=8),
            n_tasklets in 1usize..=24,
        ) {
            let p = profile_of(n_tasklets, &sizes);
            let mut candidates: Vec<u32> = p
                .histogram
                .entries()
                .map(|(s, _)| s.div_ceil(SIZE_CLASS_ALIGN) * SIZE_CLASS_ALIGN)
                .collect();
            candidates.dedup();
            let last = candidates.len() - 1;
            let best = (0u32..1 << last)
                .map(|mask| {
                    let classes: Vec<u32> = candidates
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i == last || mask & (1 << i) != 0)
                        .map(|(_, &c)| c)
                        .collect();
                    cost(&p, &SizeClassTable::new(classes))
                })
                .fold(f64::INFINITY, f64::min);
            let s = synthesize_table(&p).unwrap();
            prop_assert_eq!(cost(&p, &s.table), best);
        }
    }
}
