//! Synthetic trace generation.
//!
//! New scenario families are a generator config away: a [`SynthConfig`]
//! crosses a **size law** (how big requests are) with a **temporal
//! shape** (when they arrive and who frees them) and expands, via a
//! seeded [`StdRng`], into a deterministic [`AllocTrace`]. The laws
//! follow the workload-diversity arguments of the PrIM benchmarking
//! line of work: PIM behaviour is highly shape-dependent, so allocator
//! evaluation needs fixed/uniform/zipf/lognormal mixes and steady /
//! bursty / phase-shifted / ramping / producer–consumer timing, not a
//! handful of hard-coded patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::format::{AllocTrace, TraceOp};

/// Distribution of request sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizeLaw {
    /// Every request is `size` bytes.
    Fixed(u32),
    /// Uniform over `[min, max]`.
    Uniform {
        /// Smallest request, bytes.
        min: u32,
        /// Largest request, bytes.
        max: u32,
    },
    /// Zipf over power-of-two buckets from `min` to `max`: bucket `k`
    /// (0-based, smallest first) has probability ∝ `(k + 1)^-exponent`
    /// — many small requests, few large ones.
    Zipf {
        /// Smallest bucket, bytes (rounded up to a power of two).
        min: u32,
        /// Largest bucket, bytes.
        max: u32,
        /// Skew exponent (1.0 ≈ classic Zipf).
        exponent: f64,
    },
    /// Log-normal with parameters `mu`/`sigma` (of the underlying
    /// normal), clipped to `[min, max]` — right-skewed with a long
    /// tail, like the ShareGPT length model in `llm/trace.rs`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
        /// Clip floor, bytes.
        min: u32,
        /// Clip ceiling, bytes.
        max: u32,
    },
}

impl SizeLaw {
    /// Short label used in scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            SizeLaw::Fixed(_) => "fixed",
            SizeLaw::Uniform { .. } => "uniform",
            SizeLaw::Zipf { .. } => "zipf",
            SizeLaw::LogNormal { .. } => "lognormal",
        }
    }
}

/// A [`SizeLaw`] ready to draw from. A Zipf law's buckets, weights and
/// weight total are built here once per trace, not once per draw.
struct SizeSampler {
    law: SizeLaw,
    /// Zipf's power-of-two buckets, smallest first; empty for the
    /// other laws and for a Zipf range that holds no power of two.
    buckets: Vec<u32>,
    /// Bucket `k`'s weight, `(k + 1)^-exponent`.
    weights: Vec<f64>,
    /// Sum of `weights`.
    total: f64,
}

impl SizeSampler {
    fn new(law: SizeLaw) -> Self {
        let mut buckets = Vec::new();
        let mut weights = Vec::new();
        if let SizeLaw::Zipf { min, max, exponent } = law {
            // Powers of two from `min` up to `max`; none past 2^31.
            let mut b = min.max(1).checked_next_power_of_two();
            while let Some(size) = b.filter(|&size| size <= max.max(1)) {
                buckets.push(size);
                b = size.checked_mul(2);
            }
            weights = (0..buckets.len())
                .map(|k| ((k + 1) as f64).powf(-exponent))
                .collect();
        }
        let total = weights.iter().sum();
        SizeSampler {
            law,
            buckets,
            weights,
            total,
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        match self.law {
            SizeLaw::Fixed(size) => size.max(1),
            SizeLaw::Uniform { min, max } => rng.gen_range(min.max(1)..=max.max(min.max(1))),
            SizeLaw::Zipf { min, .. } => {
                let Some(last) = self.buckets.len().checked_sub(1) else {
                    return min.max(1);
                };
                let mut u = rng.gen_range(0.0..1.0) * self.total;
                for (k, &w) in self.weights[..last].iter().enumerate() {
                    if u < w {
                        return self.buckets[k];
                    }
                    u -= w;
                }
                self.buckets[last]
            }
            SizeLaw::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                // Box–Muller from two uniforms, as in llm/trace.rs.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = (mu + sigma * z).exp();
                (v.round() as u32).clamp(min.max(1), max.max(min.max(1)))
            }
        }
    }
}

/// When requests arrive and who frees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TemporalShape {
    /// A constant compute gap between consecutive requests.
    Steady {
        /// Compute cycles between requests.
        compute: u64,
    },
    /// Back-to-back bursts of requests separated by long pauses.
    Bursty {
        /// Requests per burst (no compute inside a burst).
        burst: usize,
        /// Compute cycles between bursts.
        gap: u64,
    },
    /// Alternating phases every `period` requests: an alloc-heavy
    /// phase that grows the live set, then a free-heavy phase that
    /// drains it — the allocator sees its occupancy swing.
    PhaseShift {
        /// Requests per phase.
        period: usize,
        /// Compute cycles between requests.
        compute: u64,
    },
    /// The inter-request compute gap ramps down linearly from
    /// `start_gap` to zero across the stream (request rate ramps up).
    Ramp {
        /// Initial compute gap, cycles.
        start_gap: u64,
    },
    /// Tasklet pairs: even tasklets allocate (producers), odd tasklets
    /// free their partner's allocations via cross-tasklet
    /// [`TraceOp::RemoteFree`] edges (consumers).
    ProducerConsumer {
        /// Compute cycles between a producer's requests; consumers
        /// pace at the same gap.
        compute: u64,
    },
}

impl TemporalShape {
    /// Short label used in scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            TemporalShape::Steady { .. } => "steady",
            TemporalShape::Bursty { .. } => "bursty",
            TemporalShape::PhaseShift { .. } => "phase-shift",
            TemporalShape::Ramp { .. } => "ramp",
            TemporalShape::ProducerConsumer { .. } => "producer-consumer",
        }
    }
}

/// One synthetic scenario: a size law crossed with a temporal shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Tasklets issuing requests.
    pub n_tasklets: usize,
    /// `Malloc` events per tasklet (producer tasklets under
    /// [`TemporalShape::ProducerConsumer`]).
    pub mallocs_per_tasklet: usize,
    /// Live allocations a tasklet holds before freeing its oldest
    /// (ignored by shapes that manage frees themselves).
    pub live_window: usize,
    /// Request-size distribution.
    pub size_law: SizeLaw,
    /// Temporal shape.
    pub shape: TemporalShape,
    /// Heap the trace targets, bytes.
    pub heap_size: u32,
    /// RNG seed; equal configs generate equal traces.
    pub seed: u64,
}

impl Default for SynthConfig {
    /// 16 tasklets, 128 mallocs each, steady 64 B requests on a 32 MB
    /// heap — the shape of the paper's Figure 15 microbenchmark.
    fn default() -> Self {
        SynthConfig {
            n_tasklets: 16,
            mallocs_per_tasklet: 128,
            live_window: 32,
            size_law: SizeLaw::Fixed(64),
            shape: TemporalShape::Steady { compute: 200 },
            heap_size: 32 << 20,
            seed: 0xA110C,
        }
    }
}

impl SynthConfig {
    /// The scenario's name: `<size law>/<shape>`.
    pub fn scenario_name(&self) -> String {
        format!("{}/{}", self.size_law.label(), self.shape.label())
    }
}

/// Expands `cfg` into a deterministic trace.
///
/// Per-tasklet streams draw from independent RNG substreams derived
/// from `cfg.seed`, so a trace is stable under changes to the tasklet
/// count of *other* scenarios and equal seeds give equal traces.
pub fn synthesize(cfg: &SynthConfig) -> AllocTrace {
    assert!(cfg.n_tasklets >= 1, "trace needs at least one tasklet");
    assert!(cfg.mallocs_per_tasklet >= 1, "trace needs requests");
    let mut trace = AllocTrace::new(cfg.scenario_name(), cfg.heap_size, cfg.n_tasklets);
    let sizes = SizeSampler::new(cfg.size_law);
    for tid in 0..cfg.n_tasklets {
        // SplitMix-style substream derivation per tasklet.
        let sub = cfg
            .seed
            .wrapping_add((tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(sub);
        trace.streams[tid] = match cfg.shape {
            TemporalShape::Steady { compute } => {
                windowed_stream(cfg, &sizes, &mut rng, |_| Some(compute))
            }
            TemporalShape::Bursty { burst, gap } => windowed_stream(cfg, &sizes, &mut rng, |i| {
                if i % burst.max(1) == 0 {
                    Some(gap)
                } else {
                    None
                }
            }),
            TemporalShape::Ramp { start_gap } => {
                let n = cfg.mallocs_per_tasklet as u64;
                windowed_stream(cfg, &sizes, &mut rng, |i| {
                    Some(start_gap.saturating_sub(start_gap * i as u64 / n.max(1)))
                })
            }
            TemporalShape::PhaseShift { period, compute } => {
                phase_shift_stream(cfg, &sizes, &mut rng, period.max(1), compute)
            }
            TemporalShape::ProducerConsumer { compute } => {
                producer_consumer_stream(cfg, &sizes, &mut rng, tid, compute)
            }
        };
    }
    trace.validate().expect("generator emits valid traces");
    trace
}

/// Allocation stream with a sliding live window: malloc into fresh
/// slots, freeing the oldest once more than `live_window` are live.
/// `gap(i)` is the compute inserted before request `i` (None for
/// back-to-back).
fn windowed_stream(
    cfg: &SynthConfig,
    sizes: &SizeSampler,
    rng: &mut StdRng,
    gap: impl Fn(usize) -> Option<u64>,
) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    let mut oldest = 0u32;
    for i in 0..cfg.mallocs_per_tasklet {
        if let Some(cycles) = gap(i) {
            if cycles > 0 {
                ops.push(TraceOp::Compute { cycles });
            }
        }
        ops.push(TraceOp::Malloc {
            size: sizes.sample(rng),
            slot: i as u32,
        });
        if i as u32 - oldest >= cfg.live_window.max(1) as u32 {
            ops.push(TraceOp::Free { slot: oldest });
            oldest += 1;
        }
    }
    ops
}

/// Alternating grow/drain phases: odd phases free everything the
/// previous grow phase allocated (newest first) between its mallocs.
fn phase_shift_stream(
    cfg: &SynthConfig,
    sizes: &SizeSampler,
    rng: &mut StdRng,
    period: usize,
    compute: u64,
) -> Vec<TraceOp> {
    let mut ops = Vec::new();
    let mut live: Vec<u32> = Vec::new();
    for i in 0..cfg.mallocs_per_tasklet {
        if compute > 0 {
            ops.push(TraceOp::Compute { cycles: compute });
        }
        let draining = (i / period) % 2 == 1;
        if draining {
            if let Some(slot) = live.pop() {
                ops.push(TraceOp::Free { slot });
            }
        }
        ops.push(TraceOp::Malloc {
            size: sizes.sample(rng),
            slot: i as u32,
        });
        live.push(i as u32);
        if draining {
            if let Some(slot) = live.pop() {
                ops.push(TraceOp::Free { slot });
            }
        }
    }
    ops
}

/// Producer–consumer pairing: even tasklets allocate, their odd
/// partners remote-free the same slots in order. An unpaired last
/// tasklet falls back to a steady windowed stream.
fn producer_consumer_stream(
    cfg: &SynthConfig,
    sizes: &SizeSampler,
    rng: &mut StdRng,
    tid: usize,
    compute: u64,
) -> Vec<TraceOp> {
    let is_producer = tid.is_multiple_of(2);
    let unpaired = is_producer && tid + 1 >= cfg.n_tasklets;
    if unpaired {
        return windowed_stream(cfg, sizes, rng, |_| Some(compute));
    }
    let mut ops = Vec::new();
    for i in 0..cfg.mallocs_per_tasklet {
        if compute > 0 {
            ops.push(TraceOp::Compute { cycles: compute });
        }
        if is_producer {
            ops.push(TraceOp::Malloc {
                size: sizes.sample(rng),
                slot: i as u32,
            });
        } else {
            ops.push(TraceOp::RemoteFree {
                tasklet: (tid - 1) as u32,
                slot: i as u32,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One Zipf draw that builds its buckets and weights on the spot:
    /// the reference for `SizeSampler`, which builds them once per
    /// trace.
    fn zipf_per_draw(min: u32, max: u32, exponent: f64, rng: &mut StdRng) -> u32 {
        let mut buckets = Vec::new();
        let mut b = min.max(1).next_power_of_two();
        while b <= max.max(1) {
            buckets.push(b);
            b = b.saturating_mul(2);
        }
        if buckets.is_empty() {
            return min.max(1);
        }
        let weights: Vec<f64> = (0..buckets.len())
            .map(|k| ((k + 1) as f64).powf(-exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.gen_range(0.0..1.0) * total;
        for (k, w) in weights.iter().enumerate() {
            if u < *w || k + 1 == buckets.len() {
                return buckets[k];
            }
            u -= w;
        }
        buckets[0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn zipf_table_draws_match_per_draw_tables(
            min in 0u32..=8192,
            max in 0u32..=1 << 20,
            exponent in 0.0f64..4.0,
            seed in any::<u64>(),
        ) {
            let sampler = SizeSampler::new(SizeLaw::Zipf { min, max, exponent });
            let mut table_rng = StdRng::seed_from_u64(seed);
            let mut reference_rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                prop_assert_eq!(
                    sampler.sample(&mut table_rng),
                    zipf_per_draw(min, max, exponent, &mut reference_rng)
                );
            }
        }
    }

    #[test]
    fn zipf_buckets_stop_at_the_top_power_of_two() {
        let zipf = |min, max| {
            SizeSampler::new(SizeLaw::Zipf {
                min,
                max,
                exponent: 1.0,
            })
        };
        let widest = zipf(0, u32::MAX);
        assert_eq!(
            widest.buckets,
            (0..32).map(|k| 1u32 << k).collect::<Vec<_>>()
        );
        let top = zipf(1 << 31, u32::MAX);
        assert_eq!(top.buckets, vec![1 << 31]);
        // No power of two reaches a minimum above 2^31, so every draw
        // is the minimum.
        let min = (1 << 31) + 1;
        let empty = zipf(min, u32::MAX);
        assert!(empty.buckets.is_empty());
        let mut rng = StdRng::seed_from_u64(3);
        assert!((0..8).all(|_| empty.sample(&mut rng) == min));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig {
            size_law: SizeLaw::Zipf {
                min: 16,
                max: 4096,
                exponent: 1.1,
            },
            shape: TemporalShape::Bursty {
                burst: 8,
                gap: 5000,
            },
            ..SynthConfig::default()
        };
        assert_eq!(synthesize(&cfg), synthesize(&cfg));
        let other = SynthConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        assert_ne!(synthesize(&cfg), synthesize(&other));
    }

    #[test]
    fn every_family_emits_expected_mallocs() {
        let laws = [
            SizeLaw::Fixed(64),
            SizeLaw::Uniform { min: 16, max: 512 },
            SizeLaw::Zipf {
                min: 16,
                max: 4096,
                exponent: 1.0,
            },
            SizeLaw::LogNormal {
                mu: 5.0,
                sigma: 1.0,
                min: 8,
                max: 8192,
            },
        ];
        let shapes = [
            TemporalShape::Steady { compute: 100 },
            TemporalShape::Bursty {
                burst: 4,
                gap: 1000,
            },
            TemporalShape::PhaseShift {
                period: 16,
                compute: 50,
            },
            TemporalShape::Ramp { start_gap: 2000 },
        ];
        for law in laws {
            for shape in shapes {
                let cfg = SynthConfig {
                    n_tasklets: 4,
                    mallocs_per_tasklet: 64,
                    size_law: law,
                    shape,
                    ..SynthConfig::default()
                };
                let t = synthesize(&cfg);
                t.validate().unwrap();
                assert_eq!(t.malloc_count(), 4 * 64, "{}", cfg.scenario_name());
            }
        }
    }

    #[test]
    fn zipf_skews_small_and_uniform_spans_range() {
        let cfg = SynthConfig {
            n_tasklets: 1,
            mallocs_per_tasklet: 2000,
            size_law: SizeLaw::Zipf {
                min: 16,
                max: 4096,
                exponent: 1.2,
            },
            shape: TemporalShape::Steady { compute: 0 },
            ..SynthConfig::default()
        };
        let sizes: Vec<u32> = synthesize(&cfg).streams[0]
            .iter()
            .filter_map(|op| match op {
                TraceOp::Malloc { size, .. } => Some(*size),
                _ => None,
            })
            .collect();
        let small = sizes.iter().filter(|&&s| s <= 64).count();
        assert!(
            small * 2 > sizes.len(),
            "zipf must skew small: {small}/{}",
            sizes.len()
        );
        let uni = SynthConfig {
            size_law: SizeLaw::Uniform { min: 16, max: 4096 },
            ..cfg
        };
        let sizes: Vec<u32> = synthesize(&uni).streams[0]
            .iter()
            .filter_map(|op| match op {
                TraceOp::Malloc { size, .. } => Some(*size),
                _ => None,
            })
            .collect();
        assert!(sizes.iter().any(|&s| s < 256));
        assert!(sizes.iter().any(|&s| s > 2048));
        assert!(sizes.iter().all(|&s| (16..=4096).contains(&s)));
    }

    #[test]
    fn producer_consumer_has_remote_edges() {
        let cfg = SynthConfig {
            n_tasklets: 4,
            mallocs_per_tasklet: 16,
            shape: TemporalShape::ProducerConsumer { compute: 100 },
            ..SynthConfig::default()
        };
        let t = synthesize(&cfg);
        // Producers malloc, consumers only remote-free.
        assert!(t.streams[0]
            .iter()
            .any(|op| matches!(op, TraceOp::Malloc { .. })));
        let remote = t.streams[1]
            .iter()
            .filter(|op| matches!(op, TraceOp::RemoteFree { tasklet: 0, .. }))
            .count();
        assert_eq!(remote, 16);
        assert_eq!(t.malloc_count(), 2 * 16, "two producers");
    }

    #[test]
    fn odd_tasklet_count_keeps_last_producer_self_contained() {
        let cfg = SynthConfig {
            n_tasklets: 3,
            mallocs_per_tasklet: 8,
            shape: TemporalShape::ProducerConsumer { compute: 10 },
            ..SynthConfig::default()
        };
        let t = synthesize(&cfg);
        t.validate().unwrap();
        // Tasklet 2 has no partner: it frees its own slots.
        assert!(t.streams[2]
            .iter()
            .all(|op| !matches!(op, TraceOp::RemoteFree { .. })));
    }

    #[test]
    fn phase_shift_drains_and_grows() {
        let cfg = SynthConfig {
            n_tasklets: 1,
            mallocs_per_tasklet: 64,
            shape: TemporalShape::PhaseShift {
                period: 8,
                compute: 10,
            },
            ..SynthConfig::default()
        };
        let t = synthesize(&cfg);
        // Walk the live set: grow phases must build a peak, drain
        // phases must empty it again.
        let mut live = 0i64;
        let mut peak = 0i64;
        let mut emptied_after_peak = false;
        for op in &t.streams[0] {
            match op {
                TraceOp::Malloc { .. } => live += 1,
                TraceOp::Free { .. } => live -= 1,
                _ => {}
            }
            peak = peak.max(live);
            if peak >= 8 && live == 0 {
                emptied_after_peak = true;
            }
        }
        assert!(peak >= 8, "grow phase must build {peak}");
        assert!(emptied_after_peak, "drain phase must empty the live set");
    }
}
