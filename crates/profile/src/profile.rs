//! The allocation profile: what a workload *asked* the allocator for,
//! independent of any size-class geometry.
//!
//! An [`AllocProfile`] is the input of the size-class synthesizer: the
//! per-request-size histogram of a trace's mallocs and the tasklet
//! count that prices each class's prepopulation floor.
//! [`AllocProfile::from_trace`] builds one as a pure function of an
//! [`AllocTrace`]: no simulation runs. A profile is never stored; the
//! trace is the persisted, validated workload artifact, and its
//! profile is recomputed from it.

use std::collections::BTreeMap;

use pim_trace::{AllocTrace, TraceOp};

/// Exact per-request-size histogram: how many times each distinct size
/// was requested. Ordered by size (BTreeMap), so iteration — and every
/// derived artifact — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: BTreeMap<u32, u64>,
}

impl SizeHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        SizeHistogram::default()
    }

    /// Records one request of `size` bytes (zero-byte requests are
    /// not observable allocator calls and are ignored).
    pub fn record(&mut self, size: u32) {
        if size > 0 {
            *self.counts.entry(size).or_insert(0) += 1;
        }
    }

    /// `(size, count)` entries, smallest size first.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// Number of distinct request sizes.
    pub fn distinct_sizes(&self) -> usize {
        self.counts.len()
    }

    /// Total requests recorded.
    pub fn total_requests(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// The allocation profile of one workload (one DPU's tasklets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocProfile {
    /// Profile name (the trace it was built from).
    pub name: String,
    /// Tasklets of the profiled run.
    pub n_tasklets: usize,
    /// Per-request-size histogram.
    pub histogram: SizeHistogram,
}

impl AllocProfile {
    /// An empty profile.
    pub fn new(name: impl Into<String>, n_tasklets: usize) -> Self {
        AllocProfile {
            name: name.into(),
            n_tasklets,
            histogram: SizeHistogram::new(),
        }
    }

    /// Builds a profile from a trace without running any simulation:
    /// the size of every `Malloc` op, on every tasklet, lands in the
    /// histogram. A malloc into an occupied slot is a request like any
    /// other, so it counts too.
    pub fn from_trace(trace: &AllocTrace) -> Self {
        let mut profile = AllocProfile::new(trace.name.clone(), trace.n_tasklets);
        for op in trace.streams.iter().flatten() {
            if let TraceOp::Malloc { size, .. } = *op {
                profile.histogram.record(size);
            }
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AllocTrace {
        let mut t = AllocTrace::new("sample", 1 << 20, 2);
        t.streams[0] = vec![
            TraceOp::Malloc { size: 64, slot: 0 },
            TraceOp::Compute { cycles: 100 },
            TraceOp::Malloc { size: 100, slot: 1 },
            TraceOp::Free { slot: 0 },
        ];
        t.streams[1] = vec![
            TraceOp::Malloc { size: 64, slot: 0 },
            TraceOp::RemoteFree {
                tasklet: 0,
                slot: 1,
            },
        ];
        t
    }

    #[test]
    fn histogram_counts_sizes() {
        let h = AllocProfile::from_trace(&sample_trace()).histogram;
        assert_eq!(h.entries().collect::<Vec<_>>(), vec![(64, 2), (100, 1)]);
        assert_eq!(h.total_requests(), 3);
        assert_eq!(h.distinct_sizes(), 2);
    }

    #[test]
    fn shadowed_slots_count_as_frees() {
        // The second malloc frees the allocation it shadows in slot 0
        // on replay; both are still requests the profile records.
        let mut t = AllocTrace::new("shadow", 1 << 20, 1);
        t.streams[0] = vec![
            TraceOp::Malloc { size: 32, slot: 0 },
            TraceOp::Malloc { size: 48, slot: 0 },
        ];
        let h = AllocProfile::from_trace(&t).histogram;
        assert_eq!(h.entries().collect::<Vec<_>>(), vec![(32, 1), (48, 1)]);
    }

    #[test]
    fn from_trace_is_deterministic() {
        let t = sample_trace();
        assert_eq!(AllocProfile::from_trace(&t), AllocProfile::from_trace(&t));
    }
}
