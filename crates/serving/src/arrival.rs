//! Seeded open-loop arrival processes.
//!
//! An [`ArrivalProcess`] expands, via the same seeded-generator
//! discipline as `pim_trace::synthesize`, into a deterministic stream
//! of arrival timestamps (virtual nanoseconds) in ascending order,
//! generated as they are consumed. Open-loop means
//! arrivals do not react to the system: a saturated frontend keeps
//! receiving requests, which is what makes tail latency and drop
//! counts meaningful.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Spacing between requests inside one burst of
/// [`ArrivalProcess::Bursty`], seconds (2 µs — back-to-back RPC
/// deserialisation on the host).
const INTRA_BURST_GAP_SECS: f64 = 2e-6;

/// Shape of the open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean offered load, requests per second.
        rps: f64,
    },
    /// Bursts of `burst` back-to-back requests whose *epochs* form a
    /// Poisson process at `rps / burst` — same mean rate as
    /// [`ArrivalProcess::Poisson`], far worse instantaneous load.
    Bursty {
        /// Mean offered load, requests per second.
        rps: f64,
        /// Requests per burst.
        burst: usize,
    },
    /// Sinusoidally modulated rate `rps * (1 + depth * sin(2πt/period))`
    /// — a compressed day/night load curve, sampled by thinning.
    Diurnal {
        /// Mean offered load, requests per second.
        rps: f64,
        /// Period of the modulation, seconds.
        period_secs: f64,
        /// Modulation depth in `[0, 1)`: peak load is `(1 + depth)·rps`.
        depth: f64,
    },
}

impl ArrivalProcess {
    /// Short label used in report rows.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }

    /// Mean offered load, requests per second.
    pub fn mean_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rps }
            | ArrivalProcess::Bursty { rps, .. }
            | ArrivalProcess::Diurnal { rps, .. } => rps,
        }
    }

    /// The same shape at a different mean rate — how the saturation
    /// sweep scales offered load without changing burstiness.
    pub fn with_rps(self, rps: f64) -> Self {
        match self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rps },
            ArrivalProcess::Bursty { burst, .. } => ArrivalProcess::Bursty { rps, burst },
            ArrivalProcess::Diurnal {
                period_secs, depth, ..
            } => ArrivalProcess::Diurnal {
                rps,
                period_secs,
                depth,
            },
        }
    }

    /// The first `n` arrival times in virtual nanoseconds, generated
    /// one at a time in ascending order. Deterministic per `(self,
    /// seed, n)`, and growing `n` only appends later arrivals.
    ///
    /// Poisson and diurnal times come out in the order they are drawn.
    /// Bursts can overlap when an epoch gap is shorter than the burst
    /// span, so a bursty stream holds the times of the bursts drawn so
    /// far in a small heap and yields one only once the next epoch
    /// cannot precede it.
    ///
    /// # Panics
    ///
    /// Panics if the mean rate is not strictly positive.
    pub(crate) fn stream(&self, seed: u64, n: usize) -> Arrivals {
        assert!(
            self.mean_rps() > 0.0,
            "arrival process needs a positive rate"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = match *self {
            ArrivalProcess::Poisson { rps } => Shape::Poisson { rps, t: 0.0 },
            ArrivalProcess::Bursty { rps, burst } => {
                let burst = burst.max(1);
                let epoch_rate = rps / burst as f64;
                let mut epoch = 0.0f64;
                if n > 0 {
                    epoch += exp_sample(&mut rng, epoch_rate);
                }
                Shape::Bursty(Bursts {
                    burst,
                    epoch_rate,
                    epoch,
                    unexpanded: n,
                    pending: BinaryHeap::new(),
                })
            }
            ArrivalProcess::Diurnal {
                rps,
                period_secs,
                depth,
            } => {
                let depth = depth.clamp(0.0, 0.99);
                Shape::Diurnal {
                    rps,
                    period: period_secs.max(1e-9),
                    depth,
                    peak: rps * (1.0 + depth),
                    t: 0.0,
                }
            }
        };
        Arrivals {
            rng,
            left: n,
            shape,
        }
    }

    /// The first `n` arrival times in virtual nanoseconds, sorted
    /// ascending: the stream `serve` consumes, collected.
    ///
    /// # Panics
    ///
    /// Panics if the mean rate is not strictly positive.
    pub fn arrival_times_ns(&self, seed: u64, n: usize) -> Vec<u64> {
        let mut times = Vec::with_capacity(n);
        self.stream(seed, n).for_each(|t| times.push(t));
        times
    }
}

/// The arrival times of one [`ArrivalProcess`], in ascending order;
/// see [`ArrivalProcess::stream`].
#[derive(Debug)]
pub(crate) struct Arrivals {
    rng: StdRng,
    /// Times still to yield.
    left: usize,
    shape: Shape,
}

/// Generator state of one arrival shape.
#[derive(Debug)]
enum Shape {
    Poisson {
        rps: f64,
        /// Latest arrival, seconds.
        t: f64,
    },
    Bursty(Bursts),
    Diurnal {
        rps: f64,
        period: f64,
        depth: f64,
        /// Peak rate, the thinning envelope.
        peak: f64,
        /// Latest candidate arrival, seconds.
        t: f64,
    },
}

/// Generator state of [`ArrivalProcess::Bursty`].
#[derive(Debug)]
struct Bursts {
    burst: usize,
    epoch_rate: f64,
    /// Epoch of the first burst not yet in `pending`, seconds.
    epoch: f64,
    /// Requests of the bursts not yet in `pending`.
    unexpanded: usize,
    /// Times of the expanded bursts not yet yielded.
    pending: BinaryHeap<Reverse<u64>>,
}

impl Bursts {
    /// The smallest time not yet yielded; there must be one.
    fn next(&mut self, rng: &mut StdRng) -> u64 {
        loop {
            // Every later time is at or after the unexpanded epoch.
            let next_start = if self.unexpanded > 0 {
                to_ns(self.epoch)
            } else {
                u64::MAX
            };
            if let Some(&Reverse(t)) = self.pending.peek() {
                if t <= next_start {
                    self.pending.pop();
                    return t;
                }
            }
            let expand = self.burst.min(self.unexpanded);
            for k in 0..expand {
                let t = to_ns(self.epoch + k as f64 * INTRA_BURST_GAP_SECS);
                self.pending.push(Reverse(t));
            }
            self.unexpanded -= expand;
            if self.unexpanded > 0 {
                self.epoch += exp_sample(rng, self.epoch_rate);
            }
        }
    }
}

impl Iterator for Arrivals {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let rng = &mut self.rng;
        Some(match &mut self.shape {
            Shape::Poisson { rps, t } => {
                *t += exp_sample(rng, *rps);
                to_ns(*t)
            }
            Shape::Bursty(bursts) => bursts.next(rng),
            Shape::Diurnal {
                rps,
                period,
                depth,
                peak,
                t,
            } => loop {
                // Lewis–Shedler thinning against the peak rate.
                *t += exp_sample(rng, *peak);
                let lambda =
                    *rps * (1.0 + *depth * (2.0 * std::f64::consts::PI * *t / *period).sin());
                if rng.gen_range(0.0..1.0) * *peak < lambda {
                    break to_ns(*t);
                }
            },
        })
    }

    /// [`next`](Self::next) in a loop. `arrival_times_ns` collects
    /// through here, and a Poisson stream keeps its state in locals,
    /// which makes that as fast as drawing every time up front was.
    fn fold<B, F: FnMut(B, u64) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        if let Shape::Poisson { rps, mut t } = self.shape {
            for _ in 0..self.left {
                t += exp_sample(&mut self.rng, rps);
                acc = f(acc, to_ns(t));
            }
            return acc;
        }
        for t in self {
            acc = f(acc, t);
        }
        acc
    }
}

/// One exponential inter-arrival gap at `rate` per second.
fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

fn to_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const N: usize = 20_000;

    /// The generator [`ArrivalProcess::stream`] replaced: every time
    /// drawn up front, in draw order, which overlapping bursts leave
    /// unsorted. Sorted, it is the reference for the stream.
    fn drawn_times(p: ArrivalProcess, seed: u64, n: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut times = Vec::with_capacity(n);
        match p {
            ArrivalProcess::Poisson { rps } => {
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += exp_sample(&mut rng, rps);
                    times.push(to_ns(t));
                }
            }
            ArrivalProcess::Bursty { rps, burst } => {
                let burst = burst.max(1);
                let epoch_rate = rps / burst as f64;
                let mut epoch = 0.0f64;
                while times.len() < n {
                    epoch += exp_sample(&mut rng, epoch_rate);
                    for k in 0..burst.min(n - times.len()) {
                        times.push(to_ns(epoch + k as f64 * INTRA_BURST_GAP_SECS));
                    }
                }
            }
            ArrivalProcess::Diurnal {
                rps,
                period_secs,
                depth,
            } => {
                let depth = depth.clamp(0.0, 0.99);
                let period = period_secs.max(1e-9);
                let peak = rps * (1.0 + depth);
                let mut t = 0.0f64;
                while times.len() < n {
                    t += exp_sample(&mut rng, peak);
                    let lambda =
                        rps * (1.0 + depth * (2.0 * std::f64::consts::PI * t / period).sin());
                    if rng.gen_range(0.0..1.0) * peak < lambda {
                        times.push(to_ns(t));
                    }
                }
            }
        }
        times
    }

    fn shape_strategy() -> impl Strategy<Value = ArrivalProcess> {
        // Rates log-uniform over 10^2..10^8 req/s. Past about 10^6 a
        // burst, 2 µs per request, spans several mean epoch gaps, so
        // bursts overlap.
        let rps = (2.0f64..8.0).prop_map(|e| 10f64.powf(e));
        prop_oneof![
            rps.clone().prop_map(|rps| ArrivalProcess::Poisson { rps }),
            (rps.clone(), 0usize..48)
                .prop_map(|(rps, burst)| ArrivalProcess::Bursty { rps, burst }),
            (rps, 1e-6f64..1.0, -0.5f64..1.5).prop_map(|(rps, period_secs, depth)| {
                ArrivalProcess::Diurnal {
                    rps,
                    period_secs,
                    depth,
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stream yields exactly the sorted times of the
        /// draw-everything generator, for every shape, rate and seed.
        #[test]
        fn stream_equals_the_sorted_up_front_draw(
            p in shape_strategy(),
            seed in any::<u64>(),
            n in 0usize..600,
        ) {
            let mut want = drawn_times(p, seed, n);
            want.sort_unstable();
            prop_assert_eq!(p.stream(seed, n).collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(p.arrival_times_ns(seed, n), want);
        }
    }

    #[test]
    fn overlapping_bursts_come_out_sorted() {
        // At 4M req/s a 16-request burst (30 µs) spans about eight mean
        // epoch gaps (4 µs), so the draw order is far from sorted.
        let p = ArrivalProcess::Bursty {
            rps: 4e6,
            burst: 16,
        };
        let mut drawn = drawn_times(p, 5, N);
        assert!(drawn.windows(2).any(|w| w[0] > w[1]), "bursts overlap");
        drawn.sort_unstable();
        assert_eq!(p.stream(5, N).collect::<Vec<_>>(), drawn);
    }

    fn all() -> [ArrivalProcess; 3] {
        [
            ArrivalProcess::Poisson { rps: 1e5 },
            ArrivalProcess::Bursty {
                rps: 1e5,
                burst: 16,
            },
            ArrivalProcess::Diurnal {
                rps: 1e5,
                period_secs: 0.05,
                depth: 0.8,
            },
        ]
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        for p in all() {
            let a = p.arrival_times_ns(7, N);
            let b = p.arrival_times_ns(7, N);
            assert_eq!(a, b, "{}", p.label());
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{}", p.label());
            assert_ne!(a, p.arrival_times_ns(8, N), "{}", p.label());
        }
    }

    #[test]
    fn mean_rate_is_respected() {
        // Span of N arrivals ≈ N / rps for every shape (±15%).
        for p in all() {
            let t = p.arrival_times_ns(42, N);
            let span_secs = *t.last().unwrap() as f64 * 1e-9;
            let expected = N as f64 / p.mean_rps();
            assert!(
                (span_secs - expected).abs() < expected * 0.15,
                "{}: span {span_secs} vs expected {expected}",
                p.label()
            );
        }
    }

    #[test]
    fn bursty_clusters_harder_than_poisson() {
        // Fraction of inter-arrival gaps under 3 µs: bursty packs
        // 15/16 of its arrivals back-to-back, Poisson at 100 krps
        // almost never gets that close.
        let tight = |p: ArrivalProcess| {
            let t = p.arrival_times_ns(1, N);
            t.windows(2).filter(|w| w[1] - w[0] < 3_000).count() as f64 / (N - 1) as f64
        };
        let poisson = tight(ArrivalProcess::Poisson { rps: 1e5 });
        let bursty = tight(ArrivalProcess::Bursty {
            rps: 1e5,
            burst: 16,
        });
        assert!(
            bursty > poisson + 0.3,
            "bursty {bursty} vs poisson {poisson}"
        );
    }

    #[test]
    fn with_rps_scales_rate_and_keeps_shape() {
        let p = ArrivalProcess::Bursty { rps: 1e4, burst: 8 };
        let fast = p.with_rps(2e4);
        assert_eq!(fast.mean_rps(), 2e4);
        assert_eq!(fast.label(), "bursty");
        let slow_span = *p.arrival_times_ns(3, N).last().unwrap();
        let fast_span = *fast.arrival_times_ns(3, N).last().unwrap();
        assert!(fast_span < slow_span, "doubling the rate halves the span");
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_rate_rejected() {
        ArrivalProcess::Poisson { rps: 0.0 }.arrival_times_ns(1, 10);
    }
}
