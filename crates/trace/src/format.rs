//! The canonical allocation-trace format.
//!
//! An [`AllocTrace`] is *data describing a workload's allocator
//! behaviour*: one event stream per tasklet, where each event either
//! allocates into a named slot, frees a slot (its own or another
//! tasklet's — the cross-tasklet free edges of producer–consumer
//! patterns), or burns a span of compute cycles between allocator
//! calls. Traces are versioned and round-trip losslessly through JSON,
//! so a workload captured once can be replayed deterministically
//! against every allocator design, shared as a file, and diffed.

use std::fmt;

use pim_sim::MAX_TASKLETS;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Version stamp written into every serialized trace and required on
/// parse; bump when the format changes incompatibly.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// The serialized `kind` tag distinguishing trace files from other
/// JSON artifacts.
const TRACE_KIND: &str = "alloc-trace";

/// Smallest heap a trace may name: one 4 KB thread-cache block.
const MIN_HEAP_SIZE: u32 = pim_malloc::CACHE_BLOCK_BYTES;
/// Largest heap a trace may name: the allocator presets' heap region,
/// which starts 32 MB into the 64 MB bank.
const MAX_HEAP_SIZE: u32 = 32 << 20;
/// Most `Compute` cycles one stream may hold in total: 2^48 cycles,
/// about 9 days at 350 MHz, far above any synthesized or recorded
/// trace. The replayer adds a whole run of `Compute` ops to a clock in
/// one step, so this keeps every clock far from `u64` overflow.
const MAX_STREAM_COMPUTE_CYCLES: u64 = 1 << 48;

/// One event in a tasklet's stream.
///
/// `slot` names an allocation within a tasklet's slot table so later
/// events can free it without knowing addresses up front — the same
/// indirection the workloads driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Allocate `size` bytes and remember the address in this
    /// tasklet's `slot`. Allocating into an occupied slot frees the
    /// shadowed address first (driver semantics).
    Malloc {
        /// Request size in bytes.
        size: u32,
        /// Slot index in the issuing tasklet's table.
        slot: u32,
    },
    /// Free the address in this tasklet's `slot` (no-op if empty).
    Free {
        /// Slot index to free.
        slot: u32,
    },
    /// Free the address in *another* tasklet's slot — a cross-tasklet
    /// free edge (producer–consumer). The replayer makes the issuing
    /// tasklet wait until the owner has filled the slot.
    RemoteFree {
        /// Tasklet owning the slot.
        tasklet: u32,
        /// Slot index in the owner's table.
        slot: u32,
    },
    /// Advance this tasklet's clock by `cycles` of non-allocator work.
    Compute {
        /// Cycles of compute between allocator calls.
        cycles: u64,
    },
}

/// A complete allocation trace: per-tasklet event streams plus the
/// heap the workload ran against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocTrace {
    /// Human-readable trace name (workload or generator family).
    pub name: String,
    /// Number of tasklets; `streams.len()` always equals this.
    pub n_tasklets: usize,
    /// Heap capacity the trace was recorded/generated against, bytes.
    pub heap_size: u32,
    /// One event stream per tasklet, indexed by tasklet id.
    pub streams: Vec<Vec<TraceOp>>,
}

/// Why a serialized trace failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The bytes are not valid JSON.
    Json(serde_json::ParseError),
    /// The JSON is valid but not a well-formed trace.
    Schema(String),
    /// The trace was written by an incompatible format version.
    Version {
        /// Version found in the file.
        found: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "{e}"),
            TraceError::Schema(msg) => write!(f, "malformed trace: {msg}"),
            TraceError::Version { found } => write!(
                f,
                "trace schema version {found} unsupported (expected {TRACE_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<serde_json::ParseError> for TraceError {
    fn from(e: serde_json::ParseError) -> Self {
        TraceError::Json(e)
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, TraceError> {
    Err(TraceError::Schema(msg.into()))
}

impl AllocTrace {
    /// An empty trace with `n_tasklets` empty streams.
    pub fn new(name: impl Into<String>, heap_size: u32, n_tasklets: usize) -> Self {
        AllocTrace {
            name: name.into(),
            n_tasklets,
            heap_size,
            streams: vec![Vec::new(); n_tasklets],
        }
    }

    /// Total events across all streams.
    pub fn op_count(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Total `Malloc` events across all streams.
    pub fn malloc_count(&self) -> usize {
        self.streams
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Malloc { .. }))
            .count()
    }

    /// Bytes a compact binary encoding of the trace would occupy —
    /// what the host moves when distributing the trace to DPUs (8 B
    /// per event plus a 64 B header), independent of the JSON text.
    pub fn wire_bytes(&self) -> u64 {
        64 + 8 * self.op_count() as u64
    }

    /// Checks structural invariants: stream count matches
    /// `n_tasklets`, which a DPU supports (1..=24), the heap is a power
    /// of two in 4 KB..=32 MB (the buddy backend tiles nothing else),
    /// sizes are non-zero,
    /// every cross-tasklet free edge points at a real tasklet,
    /// every slot index is below its owning stream's op count (a slot
    /// names one of the owner's mallocs, so a larger index can never
    /// be filled), and no stream's `Compute` cycles sum past 2^48.
    ///
    /// # Errors
    ///
    /// [`TraceError::Schema`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.streams.len() != self.n_tasklets {
            return schema_err(format!(
                "{} streams for {} tasklets",
                self.streams.len(),
                self.n_tasklets
            ));
        }
        if !(1..=MAX_TASKLETS).contains(&self.n_tasklets) {
            return schema_err(format!(
                "{} tasklets outside 1..={MAX_TASKLETS}",
                self.n_tasklets
            ));
        }
        if !self.heap_size.is_power_of_two()
            || !(MIN_HEAP_SIZE..=MAX_HEAP_SIZE).contains(&self.heap_size)
        {
            return schema_err(format!(
                "heap size {} is not a power of two in {MIN_HEAP_SIZE}..={MAX_HEAP_SIZE}",
                self.heap_size
            ));
        }
        for (tid, stream) in self.streams.iter().enumerate() {
            let mut compute = 0u64;
            for op in stream {
                let (owner, slot) = match *op {
                    TraceOp::Malloc { size: 0, .. } => {
                        return schema_err(format!("tasklet {tid} allocates 0 bytes"));
                    }
                    TraceOp::RemoteFree { tasklet, .. } if tasklet as usize >= self.n_tasklets => {
                        return schema_err(format!(
                            "tasklet {tid} frees slot of nonexistent tasklet {tasklet}"
                        ));
                    }
                    TraceOp::Malloc { slot, .. } | TraceOp::Free { slot } => (tid, slot),
                    TraceOp::RemoteFree { tasklet, slot } => (tasklet as usize, slot),
                    TraceOp::Compute { cycles } => {
                        compute = compute.saturating_add(cycles);
                        if compute > MAX_STREAM_COMPUTE_CYCLES {
                            return schema_err(format!(
                                "tasklet {tid} computes more than {MAX_STREAM_COMPUTE_CYCLES} cycles"
                            ));
                        }
                        continue;
                    }
                };
                let ops = self.streams[owner].len();
                if slot as usize >= ops {
                    return schema_err(format!(
                        "tasklet {tid} names slot {slot} of tasklet {owner}, which has {ops} ops"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Encodes the trace as a JSON value. Ops use compact array forms:
    /// `["m", size, slot]`, `["f", slot]`, `["r", tasklet, slot]`,
    /// `["c", cycles]`.
    pub fn to_json_value(&self) -> Value {
        use std::collections::BTreeMap;
        let streams: Vec<Value> = self
            .streams
            .iter()
            .map(|stream| Value::Array(stream.iter().map(op_to_json).collect()))
            .collect();
        let mut obj = BTreeMap::new();
        obj.insert(
            "schema_version".to_owned(),
            Value::from(TRACE_SCHEMA_VERSION),
        );
        obj.insert("kind".to_owned(), Value::from(TRACE_KIND));
        obj.insert("name".to_owned(), Value::from(self.name.as_str()));
        obj.insert("n_tasklets".to_owned(), Value::from(self.n_tasklets as u64));
        obj.insert(
            "heap_size".to_owned(),
            Value::from(u64::from(self.heap_size)),
        );
        obj.insert("streams".to_owned(), Value::Array(streams));
        Value::Object(obj)
    }

    /// Renders the trace as a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a trace from a JSON value, checking version and
    /// structure.
    ///
    /// # Errors
    ///
    /// [`TraceError::Version`] on a version mismatch,
    /// [`TraceError::Schema`] on structural problems.
    pub fn from_json_value(v: &Value) -> Result<Self, TraceError> {
        let version = v
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or(TraceError::Schema("missing schema_version".to_owned()))?;
        if version != TRACE_SCHEMA_VERSION {
            return Err(TraceError::Version { found: version });
        }
        match v.get("kind").and_then(Value::as_str) {
            Some(TRACE_KIND) => {}
            other => return schema_err(format!("kind {other:?} is not {TRACE_KIND:?}")),
        }
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or(TraceError::Schema("missing name".to_owned()))?
            .to_owned();
        let n_tasklets =
            v.get("n_tasklets")
                .and_then(Value::as_u64)
                .ok_or(TraceError::Schema("missing n_tasklets".to_owned()))? as usize;
        let heap_size = v
            .get("heap_size")
            .and_then(Value::as_u64)
            .and_then(|b| u32::try_from(b).ok())
            .ok_or(TraceError::Schema(
                "missing or oversized heap_size".to_owned(),
            ))?;
        let streams = v
            .get("streams")
            .and_then(Value::as_array)
            .ok_or(TraceError::Schema("missing streams".to_owned()))?
            .iter()
            .map(|stream| {
                stream
                    .as_array()
                    .ok_or(TraceError::Schema("stream is not an array".to_owned()))?
                    .iter()
                    .map(op_from_json)
                    .collect::<Result<Vec<TraceOp>, TraceError>>()
            })
            .collect::<Result<Vec<Vec<TraceOp>>, TraceError>>()?;
        let trace = AllocTrace {
            name,
            n_tasklets,
            heap_size,
            streams,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Parses a trace from a JSON string.
    ///
    /// # Errors
    ///
    /// [`TraceError::Json`] on malformed JSON, otherwise as
    /// [`AllocTrace::from_json_value`].
    pub fn from_json(s: &str) -> Result<Self, TraceError> {
        Self::from_json_value(&serde_json::from_str(s)?)
    }
}

fn op_to_json(op: &TraceOp) -> Value {
    match *op {
        TraceOp::Malloc { size, slot } => Value::Array(vec![
            Value::from("m"),
            Value::from(u64::from(size)),
            Value::from(u64::from(slot)),
        ]),
        TraceOp::Free { slot } => {
            Value::Array(vec![Value::from("f"), Value::from(u64::from(slot))])
        }
        TraceOp::RemoteFree { tasklet, slot } => Value::Array(vec![
            Value::from("r"),
            Value::from(u64::from(tasklet)),
            Value::from(u64::from(slot)),
        ]),
        TraceOp::Compute { cycles } => Value::Array(vec![Value::from("c"), Value::from(cycles)]),
    }
}

fn op_from_json(v: &Value) -> Result<TraceOp, TraceError> {
    let parts = v
        .as_array()
        .ok_or(TraceError::Schema("op is not an array".to_owned()))?;
    let tag = parts
        .first()
        .and_then(Value::as_str)
        .ok_or(TraceError::Schema("op missing tag".to_owned()))?;
    let int = |idx: usize| -> Result<u64, TraceError> {
        parts
            .get(idx)
            .and_then(Value::as_u64)
            .ok_or(TraceError::Schema(format!("op `{tag}` operand {idx} bad")))
    };
    let u32_at = |idx: usize| -> Result<u32, TraceError> {
        u32::try_from(int(idx)?)
            .map_err(|_| TraceError::Schema(format!("op `{tag}` operand {idx} overflows u32")))
    };
    match (tag, parts.len()) {
        ("m", 3) => Ok(TraceOp::Malloc {
            size: u32_at(1)?,
            slot: u32_at(2)?,
        }),
        ("f", 2) => Ok(TraceOp::Free { slot: u32_at(1)? }),
        ("r", 3) => Ok(TraceOp::RemoteFree {
            tasklet: u32_at(1)?,
            slot: u32_at(2)?,
        }),
        ("c", 2) => Ok(TraceOp::Compute { cycles: int(1)? }),
        _ => schema_err(format!("unknown op tag `{tag}` with {} parts", parts.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AllocTrace {
        let mut t = AllocTrace::new("sample", 1 << 20, 2);
        t.streams[0] = vec![
            TraceOp::Compute { cycles: 100 },
            TraceOp::Malloc { size: 64, slot: 0 },
            TraceOp::Malloc { size: 128, slot: 1 },
            TraceOp::Free { slot: 0 },
        ];
        t.streams[1] = vec![
            TraceOp::Compute { cycles: 50 },
            TraceOp::RemoteFree {
                tasklet: 0,
                slot: 1,
            },
        ];
        t
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = sample();
        let json = t.to_json();
        assert_eq!(AllocTrace::from_json(&json).unwrap(), t);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = sample().to_json().replace(
            &format!("\"schema_version\":{TRACE_SCHEMA_VERSION}"),
            "\"schema_version\":99",
        );
        assert_eq!(
            AllocTrace::from_json(&json).unwrap_err(),
            TraceError::Version { found: 99 }
        );
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(matches!(
            AllocTrace::from_json("not json"),
            Err(TraceError::Json(_))
        ));
        assert!(matches!(
            AllocTrace::from_json("{}"),
            Err(TraceError::Schema(_))
        ));
        let wrong_kind = sample().to_json().replace(TRACE_KIND, "other");
        assert!(matches!(
            AllocTrace::from_json(&wrong_kind),
            Err(TraceError::Schema(_))
        ));
    }

    #[test]
    fn validate_catches_bad_edges() {
        let mut t = sample();
        t.streams[1].push(TraceOp::RemoteFree {
            tasklet: 9,
            slot: 0,
        });
        assert!(matches!(t.validate(), Err(TraceError::Schema(_))));
        let mut t = sample();
        t.streams.pop();
        assert!(t.validate().is_err());
        let mut t = sample();
        t.streams[0].push(TraceOp::Malloc { size: 0, slot: 3 });
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_tasklet_counts_a_dpu_cannot_run() {
        for n in [0, MAX_TASKLETS + 1] {
            let t = AllocTrace::new("t", 1 << 20, n);
            assert!(matches!(t.validate(), Err(TraceError::Schema(m)) if m.contains("1..=24")));
        }
        assert!(AllocTrace::new("t", 1 << 20, MAX_TASKLETS)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_heaps_the_allocator_cannot_tile() {
        for heap in [0, 3, 2 << 10, 64 << 20] {
            let t = AllocTrace::new("t", heap, 2);
            assert!(
                matches!(t.validate(), Err(TraceError::Schema(m)) if m.contains("heap size")),
                "{heap}"
            );
            let json = t.to_json();
            assert!(AllocTrace::from_json(&json).is_err(), "{heap}");
        }
        for heap in [4 << 10, 32 << 20] {
            assert!(AllocTrace::new("t", heap, 2).validate().is_ok(), "{heap}");
        }
    }

    #[test]
    fn validate_rejects_slots_beyond_the_owning_stream() {
        for op in [
            TraceOp::Malloc {
                size: 8,
                slot: u32::MAX,
            },
            TraceOp::Free { slot: 5 },
            TraceOp::RemoteFree {
                tasklet: 1,
                slot: 2,
            },
        ] {
            let mut t = sample();
            t.streams[0].push(op);
            assert!(
                matches!(t.validate(), Err(TraceError::Schema(m)) if m.contains("slot")),
                "{op:?}"
            );
        }
        // The owner's op count bounds its slots: tasklet 0 has 4 ops.
        let mut t = sample();
        t.streams[1].push(TraceOp::RemoteFree {
            tasklet: 0,
            slot: 3,
        });
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_compute_that_overflows_the_clock() {
        let trace = |ops: &str| {
            format!(
                r#"{{"schema_version":{TRACE_SCHEMA_VERSION},"kind":"{TRACE_KIND}","name":"t","n_tasklets":1,"heap_size":1048576,"streams":[[{ops}]]}}"#
            )
        };
        let max = r#"["c",18446744073709551615]"#;
        let i64_max = r#"["c",9223372036854775807]"#;
        for ops in [max.to_owned(), [i64_max; 3].join(",")] {
            assert!(
                matches!(
                    AllocTrace::from_json(&trace(&ops)),
                    Err(TraceError::Schema(m)) if m.contains("computes more than")
                ),
                "{ops}"
            );
        }
        let bound = MAX_STREAM_COMPUTE_CYCLES;
        let at_bound = format!(r#"["c",{}],["m",8,0],["c",1]"#, bound - 1);
        assert!(AllocTrace::from_json(&trace(&at_bound)).is_ok());
        let past_bound = format!(r#"["c",{bound}],["c",1]"#);
        assert!(AllocTrace::from_json(&trace(&past_bound)).is_err());
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_an_abort() {
        let deep = "[".repeat(1 << 20);
        assert!(matches!(
            AllocTrace::from_json(&deep),
            Err(TraceError::Json(_))
        ));
    }

    #[test]
    fn counters_count() {
        let t = sample();
        assert_eq!(t.op_count(), 6);
        assert_eq!(t.malloc_count(), 2);
        assert_eq!(t.wire_bytes(), 64 + 8 * 6);
    }
}
