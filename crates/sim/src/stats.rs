//! Execution statistics: per-tasklet time breakdown, DRAM traffic
//! counters, and latency sample recording with percentile queries.
//!
//! The four time classes mirror Figure 8(b) / Figure 17(a) of the
//! PIM-malloc paper:
//!
//! * **Run** — cycles spent retiring instructions (including the
//!   pipeline-depth spacing a lone tasklet experiences),
//! * **Busy-wait** — cycles spinning on a mutex,
//! * **Idle (memory)** — cycles stalled on the DMA engine (queueing for
//!   it plus the transfer itself),
//! * **Idle (etc)** — cycles lost to issue-slot sharing beyond the
//!   pipeline depth and to explicit waits.

use serde::{Deserialize, Serialize};

use crate::cost::Cycles;

/// Per-tasklet cycle breakdown and instruction count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskletStats {
    /// Cycles retiring instructions.
    pub run: Cycles,
    /// Cycles spinning on mutexes.
    pub busy_wait: Cycles,
    /// Cycles stalled on MRAM↔WRAM DMA.
    pub idle_mem: Cycles,
    /// Cycles lost to issue-slot sharing or explicit waits.
    pub idle_etc: Cycles,
    /// Instructions retired.
    pub instrs: u64,
}

impl TaskletStats {
    /// Total accounted cycles across all classes.
    pub fn total(&self) -> Cycles {
        self.run + self.busy_wait + self.idle_mem + self.idle_etc
    }

    /// Fraction of accounted time in each class:
    /// `(run, busy_wait, idle_mem, idle_etc)`. Returns all zeros when no
    /// time has been accounted.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total().0 as f64;
        if t == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.run.0 as f64 / t,
            self.busy_wait.0 as f64 / t,
            self.idle_mem.0 as f64 / t,
            self.idle_etc.0 as f64 / t,
        )
    }

    /// Element-wise difference `self − earlier`: the activity that
    /// happened after an `earlier` snapshot was taken.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not component-wise ≤
    /// `self` (snapshots must come from the same monotone counter).
    pub fn since(&self, earlier: &TaskletStats) -> TaskletStats {
        TaskletStats {
            run: self.run - earlier.run,
            busy_wait: self.busy_wait - earlier.busy_wait,
            idle_mem: self.idle_mem - earlier.idle_mem,
            idle_etc: self.idle_etc - earlier.idle_etc,
            instrs: self.instrs - earlier.instrs,
        }
    }

    /// Element-wise sum of two stats records.
    pub fn merged(&self, other: &TaskletStats) -> TaskletStats {
        TaskletStats {
            run: self.run + other.run,
            busy_wait: self.busy_wait + other.busy_wait,
            idle_mem: self.idle_mem + other.idle_mem,
            idle_etc: self.idle_etc + other.idle_etc,
            instrs: self.instrs + other.instrs,
        }
    }
}

/// Bytes moved between MRAM and WRAM, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramTraffic {
    /// Bytes read from MRAM into WRAM.
    pub bytes_read: u64,
    /// Bytes written from WRAM back to MRAM.
    pub bytes_written: u64,
    /// Number of discrete DMA transfers issued.
    pub transfers: u64,
}

impl DramTraffic {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Collects latency samples (e.g. one per `pim_malloc` call) and
/// answers average / percentile queries, as needed for the paper's
/// latency-over-time plots and TPOT percentiles.
///
/// ```
/// use pim_sim::{Cycles, LatencyRecorder};
/// let mut r = LatencyRecorder::new();
/// for v in [10u64, 20, 30, 40] { r.record(Cycles(v)); }
/// assert_eq!(r.len(), 4);
/// assert_eq!(r.mean(), Cycles(25));
/// assert_eq!(r.percentile(0.5), Cycles(20));
/// assert_eq!(r.max(), Cycles(40));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    samples: Vec<Cycles>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(n),
        }
    }

    /// Appends one latency sample.
    pub fn record(&mut self, latency: Cycles) {
        self.samples.push(latency);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[Cycles] {
        &self.samples
    }

    /// Arithmetic mean of the samples (zero if empty).
    pub fn mean(&self) -> Cycles {
        if self.samples.is_empty() {
            return Cycles::ZERO;
        }
        let sum: u64 = self.samples.iter().map(|c| c.0).sum();
        Cycles(sum / self.samples.len() as u64)
    }

    /// Largest sample (zero if empty).
    pub fn max(&self) -> Cycles {
        self.samples.iter().copied().max().unwrap_or(Cycles::ZERO)
    }

    /// The `q`-quantile (0.0 ≤ `q` ≤ 1.0) using the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Cycles {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return Cycles::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[nearest_rank_index(q, sorted.len())]
    }

    /// Merges another recorder's samples into this one.
    pub fn extend_from(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// The SLO percentile summary (p50/p95/p99/p99.9 plus mean, max,
    /// and count) over the recorded samples. Each value is the one
    /// [`percentile`](Self::percentile) gives, found by selection on
    /// one copy of the samples instead of a full sort: the ranks are
    /// ascending, and a selection leaves nothing larger before its
    /// index, so each next one searches only the rest.
    pub fn summary(&self) -> LatencySummary {
        self.clone().into_summary()
    }

    /// [`summary`](Self::summary), selecting in the recorder's own
    /// samples instead of a copy.
    pub fn into_summary(self) -> LatencySummary {
        let mut v = self.samples;
        if v.is_empty() {
            return LatencySummary::default();
        }
        let n = v.len();
        let sum: u128 = v.iter().map(|c| u128::from(c.0)).sum();
        let mut from = 0;
        let mut select = |idx: usize| {
            let (_, &mut value, _) = v[from..].select_nth_unstable(idx - from);
            from = idx;
            value
        };
        let p50 = select(nearest_rank_index(0.50, n));
        let p95 = select(nearest_rank_index(0.95, n));
        let p99 = select(nearest_rank_index(0.99, n));
        let p999 = select(nearest_rank_index(0.999, n));
        let max = select(n - 1);
        LatencySummary {
            count: n as u64,
            mean: Cycles((sum / n as u128) as u64),
            p50,
            p95,
            p99,
            p999,
            max,
        }
    }
}

/// Index of the nearest-rank `q`-quantile in `n > 0` sorted samples:
/// rank ⌈q·n⌉ clamped to `1..=n`, minus one.
fn nearest_rank_index(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The SLO tail-latency summary of one [`LatencyRecorder`]: the
/// nearest-rank percentiles serving reports are built from. All fields
/// are zero when the recorder was empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Cycles,
    /// Median (nearest-rank p50).
    pub p50: Cycles,
    /// 95th percentile.
    pub p95: Cycles,
    /// 99th percentile.
    pub p99: Cycles,
    /// 99.9th percentile — the SLO tail serving gates on.
    pub p999: Cycles,
    /// Largest sample.
    pub max: Cycles,
}

impl LatencySummary {
    /// True when no samples were summarized.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one_when_nonempty() {
        let s = TaskletStats {
            run: Cycles(10),
            busy_wait: Cycles(20),
            idle_mem: Cycles(30),
            idle_etc: Cycles(40),
            instrs: 5,
        };
        let (r, b, m, e) = s.fractions();
        assert!((r + b + m + e - 1.0).abs() < 1e-12);
        assert!((r - 0.1).abs() < 1e-12);
        assert!((e - 0.4).abs() < 1e-12);
    }

    #[test]
    fn fractions_of_empty_stats_are_zero() {
        assert_eq!(TaskletStats::default().fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn merged_adds_fieldwise() {
        let a = TaskletStats {
            run: Cycles(1),
            busy_wait: Cycles(2),
            idle_mem: Cycles(3),
            idle_etc: Cycles(4),
            instrs: 5,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.run, Cycles(2));
        assert_eq!(m.instrs, 10);
        assert_eq!(m.total(), Cycles(20));
    }

    #[test]
    fn traffic_totals() {
        let t = DramTraffic {
            bytes_read: 10,
            bytes_written: 5,
            transfers: 3,
        };
        assert_eq!(t.total_bytes(), 15);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in 1..=100u64 {
            r.record(Cycles(v));
        }
        assert_eq!(r.percentile(0.5), Cycles(50));
        assert_eq!(r.percentile(0.99), Cycles(99));
        assert_eq!(r.percentile(1.0), Cycles(100));
        assert_eq!(r.percentile(0.0), Cycles(1));
    }

    #[test]
    fn empty_recorder_is_all_zeroes() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), Cycles::ZERO);
        assert_eq!(r.max(), Cycles::ZERO);
        assert_eq!(r.percentile(0.5), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn out_of_range_quantile_panics() {
        LatencyRecorder::new().percentile(1.5);
    }

    #[test]
    fn extend_from_merges_samples() {
        let mut a = LatencyRecorder::new();
        a.record(Cycles(1));
        let mut b = LatencyRecorder::new();
        b.record(Cycles(3));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), Cycles(2));
    }

    /// The serving frontend records latencies at completion time, so
    /// under fault re-dispatch the same sample set can arrive in a
    /// different order than under fault-free routing. The byte-identity
    /// contract therefore requires summaries to be a pure function of
    /// the multiset of samples, independent of insertion order.
    #[test]
    fn summary_is_insertion_order_invariant() {
        let samples: Vec<u64> = (0..257u64).map(|i| (i * 7919) % 1013).collect();
        let mut fwd = LatencyRecorder::new();
        for &v in &samples {
            fwd.record(Cycles(v));
        }
        let mut rev = LatencyRecorder::new();
        for &v in samples.iter().rev() {
            rev.record(Cycles(v));
        }
        // Interleaved from both ends, as if two DPUs completed in turn.
        let mut shuffled = LatencyRecorder::new();
        let (mut lo, mut hi) = (0, samples.len() - 1);
        while lo < hi {
            shuffled.record(Cycles(samples[lo]));
            shuffled.record(Cycles(samples[hi]));
            lo += 1;
            hi -= 1;
        }
        if lo == hi {
            shuffled.record(Cycles(samples[lo]));
        }
        let reference = fwd.summary();
        assert_eq!(reference, rev.summary());
        assert_eq!(reference, shuffled.summary());
        assert_eq!(fwd.mean(), rev.mean());
        assert_eq!(fwd.percentile(0.99), shuffled.percentile(0.99));
    }
}
