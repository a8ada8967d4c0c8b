//! The versioned allocation profile: what a workload *asked* the
//! allocator for, independent of any size-class geometry.
//!
//! An [`AllocProfile`] is the input of the size-class synthesizer: a
//! per-request-size histogram, live-object lifetime statistics, the
//! remote-free fraction, and a peak-bytes timeline.
//! [`AllocProfile::from_trace`] builds one as a pure function of an
//! [`AllocTrace`]: no simulation runs, and lifetimes and the timeline
//! are measured in *op ticks* of a deterministic round-robin walk.
//!
//! Profiles are versioned and round-trip losslessly through JSON, so a
//! profile captured once can be re-tuned under different objectives
//! without re-running the workload.

use std::collections::BTreeMap;
use std::fmt;

use pim_sim::MAX_TASKLETS;
use pim_trace::{AllocTrace, TraceOp};
use serde_json::Value;

/// Version stamp written into every serialized profile and required on
/// parse; bump when the format changes incompatibly.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

/// The serialized `kind` tag distinguishing profile files from other
/// JSON artifacts.
const PROFILE_KIND: &str = "alloc-profile";

/// Log2 lifetime buckets kept by [`LifetimeStats`] (bucket `i` holds
/// lifetimes in `[2^i, 2^(i+1))`; bucket 0 also holds zero).
pub const LIFETIME_BUCKETS: usize = 48;

/// Maximum samples kept in the peak-bytes timeline; longer runs are
/// downsampled with a deterministic stride.
pub const TIMELINE_SAMPLES: usize = 64;

/// Most bytes a parsed histogram may request in total: 2^48, the bound
/// the trace format puts on a stream's `Compute` cycles. Every count is
/// at least 1 and every size class at most 2 KB, so every sum the
/// histogram getters and the synthesizer take over a histogram within
/// it fits in `u64`.
const MAX_REQUESTED_BYTES: u64 = 1 << 48;

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

    /// Total requested bytes.
    pub fn total_requested_bytes(&self) -> u64 {
        self.counts.iter().map(|(&s, &c)| u64::from(s) * c).sum()
    }

    /// Largest request size seen, or `None` for an empty histogram.
    pub fn max_size(&self) -> Option<u32> {
        self.counts.keys().next_back().copied()
    }
}

/// Live-object lifetime statistics: count, sum, max, and a log2 bucket
/// histogram. Lifetimes are in op ticks of the round-robin walk of
/// [`AllocProfile::from_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeStats {
    /// Completed (malloc, free) pairs observed.
    pub observed: u64,
    /// Sum of all lifetimes.
    pub total: u64,
    /// Longest lifetime.
    pub max: u64,
    /// Log2 buckets: `buckets[i]` counts lifetimes in
    /// `[2^i, 2^(i+1))`; the last bucket absorbs the tail.
    pub buckets: Vec<u64>,
}

impl Default for LifetimeStats {
    fn default() -> Self {
        LifetimeStats {
            observed: 0,
            total: 0,
            max: 0,
            buckets: vec![0; LIFETIME_BUCKETS],
        }
    }
}

impl LifetimeStats {
    /// Records one completed lifetime.
    pub fn record(&mut self, lifetime: u64) {
        self.observed += 1;
        self.total += lifetime;
        self.max = self.max.max(lifetime);
        let bucket = if lifetime == 0 {
            0
        } else {
            (63 - lifetime.leading_zeros() as usize).min(LIFETIME_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Mean lifetime, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.total as f64 / self.observed as f64
        }
    }
}

/// A complete allocation profile of one workload (one DPU's tasklets).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocProfile {
    /// Profile name (trace or workload it was recorded from).
    pub name: String,
    /// Tasklets of the profiled run.
    pub n_tasklets: usize,
    /// Per-request-size histogram.
    pub histogram: SizeHistogram,
    /// Live-object lifetime statistics.
    pub lifetimes: LifetimeStats,
    /// `Malloc` ops in the trace.
    pub mallocs: u64,
    /// Frees of live allocations: local and remote frees, and the
    /// free of the allocation a `Malloc` shadows in its slot.
    pub frees: u64,
    /// Frees issued by a tasklet other than the allocation's owner.
    pub remote_frees: u64,
    /// Peak live requested bytes.
    pub peak_live_bytes: u64,
    /// `(tick, live requested bytes)` samples in tick order, at most
    /// [`TIMELINE_SAMPLES`] long (deterministically downsampled).
    pub timeline: Vec<(u64, u64)>,
}

impl AllocProfile {
    /// An empty profile.
    pub fn new(name: impl Into<String>, n_tasklets: usize) -> Self {
        AllocProfile {
            name: name.into(),
            n_tasklets,
            histogram: SizeHistogram::new(),
            lifetimes: LifetimeStats::default(),
            mallocs: 0,
            frees: 0,
            remote_frees: 0,
            peak_live_bytes: 0,
            timeline: Vec::new(),
        }
    }

    /// Fraction of observed frees issued cross-tasklet.
    pub fn remote_free_fraction(&self) -> f64 {
        if self.frees == 0 {
            0.0
        } else {
            self.remote_frees as f64 / self.frees as f64
        }
    }

    /// Builds a profile from a trace without running any simulation: a
    /// pure function of the trace bytes, so the same trace always
    /// yields a byte-identical profile.
    ///
    /// The trace's streams are walked in a deterministic round-robin
    /// (op `r` of tasklet 0, op `r` of tasklet 1, …); each processed
    /// op advances a global *tick* that stands in for time. Lifetimes
    /// and the timeline are measured in ticks. Slot semantics match
    /// the replayer: allocating into an occupied slot frees the
    /// shadowed allocation first, local frees of empty slots are
    /// no-ops, and a remote free that arrives before its allocation
    /// waits for it (the replayer parks such frees on a virtual-time
    /// queue; here they apply the moment the `Malloc` lands).
    pub fn from_trace(trace: &AllocTrace) -> Self {
        let mut walk = TraceWalk::new(trace);
        let rounds = trace.streams.iter().map(Vec::len).max().unwrap_or(0);
        for round in 0..rounds {
            for (tid, stream) in trace.streams.iter().enumerate() {
                if let Some(&op) = stream.get(round) {
                    walk.step(tid, op);
                }
            }
        }
        walk.finish()
    }

    /// Encodes the profile as a JSON value.
    pub fn to_json_value(&self) -> Value {
        let histogram: Vec<Value> = self
            .histogram
            .entries()
            .map(|(s, c)| Value::Array(vec![Value::from(u64::from(s)), Value::from(c)]))
            .collect();
        let timeline: Vec<Value> = self
            .timeline
            .iter()
            .map(|&(t, b)| Value::Array(vec![Value::from(t), Value::from(b)]))
            .collect();
        let mut lifetimes = BTreeMap::new();
        lifetimes.insert("observed".to_owned(), Value::from(self.lifetimes.observed));
        lifetimes.insert("total".to_owned(), Value::from(self.lifetimes.total));
        lifetimes.insert("max".to_owned(), Value::from(self.lifetimes.max));
        lifetimes.insert(
            "buckets".to_owned(),
            Value::Array(
                self.lifetimes
                    .buckets
                    .iter()
                    .map(|&b| Value::from(b))
                    .collect(),
            ),
        );
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema_version".to_owned(),
            Value::from(PROFILE_SCHEMA_VERSION),
        );
        obj.insert("kind".to_owned(), Value::from(PROFILE_KIND));
        obj.insert("name".to_owned(), Value::from(self.name.as_str()));
        obj.insert("n_tasklets".to_owned(), Value::from(self.n_tasklets as u64));
        obj.insert("histogram".to_owned(), Value::Array(histogram));
        obj.insert("lifetimes".to_owned(), Value::Object(lifetimes));
        obj.insert("mallocs".to_owned(), Value::from(self.mallocs));
        obj.insert("frees".to_owned(), Value::from(self.frees));
        obj.insert("remote_frees".to_owned(), Value::from(self.remote_frees));
        obj.insert(
            "peak_live_bytes".to_owned(),
            Value::from(self.peak_live_bytes),
        );
        obj.insert("timeline".to_owned(), Value::Array(timeline));
        Value::Object(obj)
    }

    /// Renders the profile as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a profile from a JSON value, checking version and
    /// structure.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Version`] on a version mismatch,
    /// [`ProfileError::Schema`] on structural problems, on a tasklet
    /// count outside the DPU's 1..=24 and on a histogram that requests
    /// more than 2^48 bytes in total.
    pub fn from_json_value(v: &Value) -> Result<Self, ProfileError> {
        let version = v
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or(ProfileError::Schema("missing schema_version".to_owned()))?;
        if version != PROFILE_SCHEMA_VERSION {
            return Err(ProfileError::Version { found: version });
        }
        match v.get("kind").and_then(Value::as_str) {
            Some(PROFILE_KIND) => {}
            other => {
                return Err(ProfileError::Schema(format!(
                    "kind {other:?} is not {PROFILE_KIND:?}"
                )))
            }
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or(ProfileError::Schema("missing name".to_owned()))?
            .to_owned();
        let n_tasklets = v
            .get("n_tasklets")
            .and_then(Value::as_u64)
            .ok_or(ProfileError::Schema("missing n_tasklets".to_owned()))?;
        if !(1..=MAX_TASKLETS as u64).contains(&n_tasklets) {
            return Err(ProfileError::Schema(format!(
                "{n_tasklets} tasklets outside 1..={MAX_TASKLETS}"
            )));
        }
        let int = |key: &str| -> Result<u64, ProfileError> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or(ProfileError::Schema(format!("missing {key}")))
        };
        let pairs = |key: &str| -> Result<Vec<(u64, u64)>, ProfileError> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(ProfileError::Schema(format!("missing {key}")))?
                .iter()
                .map(|pair| {
                    let parts = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or(ProfileError::Schema(format!("{key} entry is not a pair")))?;
                    let a = parts[0]
                        .as_u64()
                        .ok_or(ProfileError::Schema(format!("{key} entry not numeric")))?;
                    let b = parts[1]
                        .as_u64()
                        .ok_or(ProfileError::Schema(format!("{key} entry not numeric")))?;
                    Ok((a, b))
                })
                .collect()
        };
        let mut histogram = SizeHistogram::new();
        let mut requested = 0u64;
        for (size, count) in pairs("histogram")? {
            let size = u32::try_from(size)
                .map_err(|_| ProfileError::Schema("histogram size overflows u32".to_owned()))?;
            if size == 0 || count == 0 {
                return Err(ProfileError::Schema(
                    "histogram entries must be non-zero".to_owned(),
                ));
            }
            requested = u64::from(size)
                .checked_mul(count)
                .and_then(|bytes| requested.checked_add(bytes))
                .filter(|&total| total <= MAX_REQUESTED_BYTES)
                .ok_or(ProfileError::Schema(
                    "histogram requests more than 2^48 bytes".to_owned(),
                ))?;
            histogram.counts.insert(size, count);
        }
        let lt = v
            .get("lifetimes")
            .ok_or(ProfileError::Schema("missing lifetimes".to_owned()))?;
        let lt_int = |key: &str| -> Result<u64, ProfileError> {
            lt.get(key)
                .and_then(Value::as_u64)
                .ok_or(ProfileError::Schema(format!("missing lifetimes.{key}")))
        };
        let buckets: Vec<u64> = lt
            .get("buckets")
            .and_then(Value::as_array)
            .ok_or(ProfileError::Schema("missing lifetimes.buckets".to_owned()))?
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or(ProfileError::Schema("bucket not numeric".to_owned()))
            })
            .collect::<Result<_, _>>()?;
        if buckets.len() != LIFETIME_BUCKETS {
            return Err(ProfileError::Schema(format!(
                "{} lifetime buckets (expected {LIFETIME_BUCKETS})",
                buckets.len()
            )));
        }
        let lifetimes = LifetimeStats {
            observed: lt_int("observed")?,
            total: lt_int("total")?,
            max: lt_int("max")?,
            buckets,
        };
        let profile = AllocProfile {
            name,
            n_tasklets: n_tasklets as usize,
            histogram,
            lifetimes,
            mallocs: int("mallocs")?,
            frees: int("frees")?,
            remote_frees: int("remote_frees")?,
            peak_live_bytes: int("peak_live_bytes")?,
            timeline: pairs("timeline")?,
        };
        Ok(profile)
    }

    /// Parses a profile from a JSON string.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Json`] on malformed JSON, otherwise as
    /// [`AllocProfile::from_json_value`].
    pub fn from_json(s: &str) -> Result<Self, ProfileError> {
        Self::from_json_value(&serde_json::from_str(s)?)
    }
}

/// State of the deterministic trace walk behind
/// [`AllocProfile::from_trace`].
struct TraceWalk {
    p: AllocProfile,
    /// Per-tasklet slot tables: slot -> (size, birth tick).
    slots: Vec<BTreeMap<u32, (u32, u64)>>,
    /// Remote frees that arrived before their allocation, keyed by
    /// (owner, slot) -> issuing tasklet; applied when the `Malloc`
    /// lands, mirroring the replayer's parked remote frees.
    pending_remote: BTreeMap<(usize, u32), usize>,
    live_bytes: u64,
    tick: u64,
    raw_timeline: Vec<(u64, u64)>,
}

impl TraceWalk {
    fn new(trace: &AllocTrace) -> Self {
        TraceWalk {
            p: AllocProfile::new(trace.name.clone(), trace.n_tasklets),
            slots: vec![BTreeMap::new(); trace.n_tasklets],
            pending_remote: BTreeMap::new(),
            live_bytes: 0,
            tick: 0,
            raw_timeline: Vec::new(),
        }
    }

    /// Frees `(owner, slot)` if live; no-op otherwise.
    fn free_slot(&mut self, owner: usize, slot: u32, remote: bool) {
        if let Some((size, birth)) = self.slots[owner].remove(&slot) {
            self.p.frees += 1;
            if remote {
                self.p.remote_frees += 1;
            }
            self.p.lifetimes.record(self.tick - birth);
            self.live_bytes -= u64::from(size);
        }
    }

    fn step(&mut self, tid: usize, op: TraceOp) {
        self.tick += 1;
        match op {
            TraceOp::Malloc { size, slot } => {
                // As in replay, slot reuse frees the shadowed
                // allocation.
                self.free_slot(tid, slot, false);
                self.p.histogram.record(size);
                self.p.mallocs += 1;
                self.slots[tid].insert(slot, (size, self.tick));
                self.live_bytes += u64::from(size);
                self.p.peak_live_bytes = self.p.peak_live_bytes.max(self.live_bytes);
                if let Some(issuer) = self.pending_remote.remove(&(tid, slot)) {
                    // A parked remote free was waiting on this slot.
                    self.free_slot(tid, slot, issuer != tid);
                }
                self.raw_timeline.push((self.tick, self.live_bytes));
            }
            TraceOp::Free { slot } => {
                self.free_slot(tid, slot, false);
                self.raw_timeline.push((self.tick, self.live_bytes));
            }
            TraceOp::RemoteFree { tasklet, slot } => {
                let owner = tasklet as usize;
                if self.slots[owner].contains_key(&slot) {
                    self.free_slot(owner, slot, owner != tid);
                } else {
                    self.pending_remote.insert((owner, slot), tid);
                }
                self.raw_timeline.push((self.tick, self.live_bytes));
            }
            TraceOp::Compute { .. } => {}
        }
    }

    fn finish(self) -> AllocProfile {
        let mut p = self.p;
        p.timeline = downsample_timeline(self.raw_timeline);
        p
    }
}

/// Downsamples a timeline to at most [`TIMELINE_SAMPLES`] points with
/// a deterministic stride, always keeping the final sample.
fn downsample_timeline(raw: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    if raw.len() <= TIMELINE_SAMPLES {
        return raw;
    }
    let stride = raw.len().div_ceil(TIMELINE_SAMPLES);
    let last = *raw.last().expect("nonempty");
    let mut out: Vec<(u64, u64)> = raw.into_iter().step_by(stride).collect();
    if out.last() != Some(&last) {
        out.push(last);
    }
    out
}

/// Why a serialized profile failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The bytes are not valid JSON.
    Json(serde_json::ParseError),
    /// The JSON is valid but not a well-formed profile.
    Schema(String),
    /// The profile was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u64,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Json(e) => write!(f, "{e}"),
            ProfileError::Schema(msg) => write!(f, "malformed profile: {msg}"),
            ProfileError::Version { found } => write!(
                f,
                "profile schema version {found} unsupported (expected {PROFILE_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<serde_json::ParseError> for ProfileError {
    fn from(e: serde_json::ParseError) -> Self {
        ProfileError::Json(e)
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
        assert_eq!(h.total_requested_bytes(), 228);
        assert_eq!(h.max_size(), Some(100));
        assert_eq!(h.distinct_sizes(), 2);
    }

    #[test]
    fn from_trace_observes_counts_lifetimes_and_remote_edges() {
        let p = AllocProfile::from_trace(&sample_trace());
        assert_eq!(p.mallocs, 3);
        assert_eq!(p.frees, 2);
        assert_eq!(p.remote_frees, 1);
        assert_eq!(p.remote_free_fraction(), 0.5);
        assert_eq!(p.lifetimes.observed, 2);
        assert!(p.lifetimes.max > 0);
        // Peak: both 64 B allocs plus the 100 B alloc live at once.
        assert_eq!(p.peak_live_bytes, 228);
        assert!(!p.timeline.is_empty());
        // Live bytes return to zero after the frees... except slot 0
        // of tasklet 1 is never freed (64 B leak by construction).
        assert_eq!(p.timeline.last().unwrap().1, 64);
    }

    #[test]
    fn shadowed_slots_count_as_frees() {
        let mut t = AllocTrace::new("shadow", 1 << 20, 1);
        t.streams[0] = vec![
            TraceOp::Malloc { size: 32, slot: 0 },
            TraceOp::Malloc { size: 48, slot: 0 },
        ];
        let p = AllocProfile::from_trace(&t);
        assert_eq!(p.mallocs, 2);
        assert_eq!(p.frees, 1, "slot reuse frees the shadowed allocation");
        assert_eq!(p.peak_live_bytes, 48);
    }

    #[test]
    fn from_trace_is_deterministic() {
        let t = sample_trace();
        let a = AllocProfile::from_trace(&t);
        let b = AllocProfile::from_trace(&t);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = AllocProfile::from_trace(&sample_trace());
        let json = p.to_json();
        assert_eq!(AllocProfile::from_json(&json).unwrap(), p);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = AllocProfile::from_trace(&sample_trace()).to_json().replace(
            &format!("\"schema_version\":{PROFILE_SCHEMA_VERSION}"),
            "\"schema_version\":99",
        );
        assert_eq!(
            AllocProfile::from_json(&json).unwrap_err(),
            ProfileError::Version { found: 99 }
        );
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        assert!(matches!(
            AllocProfile::from_json("not json"),
            Err(ProfileError::Json(_))
        ));
        assert!(matches!(
            AllocProfile::from_json("{}"),
            Err(ProfileError::Schema(_))
        ));
        let wrong_kind = AllocProfile::from_trace(&sample_trace())
            .to_json()
            .replace(PROFILE_KIND, "other");
        assert!(matches!(
            AllocProfile::from_json(&wrong_kind),
            Err(ProfileError::Schema(_))
        ));
    }

    #[test]
    fn tasklet_counts_outside_a_dpu_are_rejected() {
        let mut p = AllocProfile::from_trace(&sample_trace());
        for n in [0, MAX_TASKLETS as u64 + 1, u64::MAX] {
            p.n_tasklets = n as usize;
            assert!(
                matches!(AllocProfile::from_json(&p.to_json()),
                         Err(ProfileError::Schema(m)) if m.contains("1..=24")),
                "{n} tasklets parsed"
            );
        }
        for n in [1, MAX_TASKLETS] {
            p.n_tasklets = n;
            assert_eq!(AllocProfile::from_json(&p.to_json()).unwrap(), p);
        }
    }

    #[test]
    fn histograms_whose_bytes_overflow_are_rejected() {
        let mut p = AllocProfile::from_trace(&sample_trace());
        let with_histogram = |p: &mut AllocProfile, counts: &[(u32, u64)]| {
            p.histogram.counts = counts.iter().copied().collect();
            AllocProfile::from_json(&p.to_json())
        };
        for counts in [
            &[
                (16, 1_000_000_000_000_000_000),
                (48, 1_000_000_000_000_000_000),
            ][..],
            &[(16, u64::MAX)],
            &[(1, 1), (16, 1 << 43), (2048, 1 << 36)],
        ] {
            assert!(
                matches!(with_histogram(&mut p, counts),
                         Err(ProfileError::Schema(m)) if m.contains("2^48")),
                "{counts:?} parsed"
            );
        }
        // 2^47 bytes of 16 B requests and 2^47 of 2 KB ones.
        let at_bound = with_histogram(&mut p, &[(16, 1 << 43), (2048, 1 << 36)]).unwrap();
        assert_eq!(
            at_bound.histogram.total_requested_bytes(),
            MAX_REQUESTED_BYTES
        );
        assert_eq!(at_bound.histogram.total_requests(), (1 << 43) + (1 << 36));
        let synthesis = crate::synthesize_table(&at_bound, &crate::SynthesisObjective::default())
            .expect("both sizes are cacheable");
        assert_eq!(synthesis.report.bypass_requests, 0);
    }

    #[test]
    fn lifetime_buckets_are_log2() {
        let mut lt = LifetimeStats::default();
        lt.record(0);
        lt.record(1);
        lt.record(7);
        lt.record(1024);
        assert_eq!(lt.observed, 4);
        assert_eq!(lt.buckets[0], 2); // 0 and 1
        assert_eq!(lt.buckets[2], 1); // 7 in [4, 8)
        assert_eq!(lt.buckets[10], 1); // 1024 in [1024, 2048)
        assert_eq!(lt.max, 1024);
        assert!(lt.mean() > 0.0);
    }

    #[test]
    fn long_timelines_downsample_deterministically() {
        let raw: Vec<(u64, u64)> = (0..1000).map(|i| (i, i * 2)).collect();
        let down = downsample_timeline(raw.clone());
        assert!(down.len() <= TIMELINE_SAMPLES + 1);
        assert_eq!(down.first(), Some(&(0, 0)));
        assert_eq!(down.last(), Some(&(999, 1998)));
        assert_eq!(down, downsample_timeline(raw));
    }
}
