//! Hostile-input guard: arbitrary bytes and mutated trace JSON come
//! back from the parser as typed errors or as values the engines
//! downstream accept, never as a panic.
//!
//! Every document that parses as a trace reaches both engines:
//! `replay` on the SW, HW/SW and straw-man allocators, and
//! `AllocProfile::from_trace` → `synthesize_table`. Mutations flip,
//! insert, delete and duplicate bytes of a valid document; half the
//! bytes they write are JSON punctuation, digits or literal letters,
//! so that more mutants still parse and reach the engines.

use pim_malloc::{AllocGeometry, PimMalloc, StrawManAllocator, StrawManConfig};
use pim_profile::{synthesize_table, AllocProfile};
use pim_sim::{DpuConfig, DpuSim};
use pim_trace::{replay, synthesize, AllocTrace, SizeLaw, SynthConfig, TemporalShape};
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes a mutation writes half the time.
const JSON_BYTES: &[u8] = b"0123456789-+.eE,:[]{}\" \\truefalsn";

/// A small valid trace with remote frees and bypass-sized mallocs.
fn seed_trace() -> AllocTrace {
    synthesize(&SynthConfig {
        n_tasklets: 4,
        mallocs_per_tasklet: 8,
        size_law: SizeLaw::Uniform { min: 16, max: 4096 },
        shape: TemporalShape::ProducerConsumer { compute: 100 },
        heap_size: 1 << 20,
        ..SynthConfig::default()
    })
}

/// Applies one edit, drawn as `(kind, a, b)`, to `doc`: kind 0 flips
/// a byte, 1 inserts one, 2 deletes up to 16, and 3 copies a span of
/// up to 64 elsewhere. Positions and lengths wrap to the document as
/// it stands.
fn mutate(doc: &mut Vec<u8>, (kind, a, b): (u8, u64, u64)) {
    let at = (a % (doc.len() as u64 + 1)) as usize;
    let byte = if b & 1 == 0 {
        JSON_BYTES[(b >> 1) as usize % JSON_BYTES.len()]
    } else {
        (b >> 1) as u8
    };
    match kind {
        0 => {
            if let Some(slot) = doc.get_mut(at) {
                *slot = byte;
            }
        }
        1 => doc.insert(at, byte),
        2 => {
            let end = (at + 1 + (b % 16) as usize).min(doc.len());
            doc.drain(at..end);
        }
        _ => {
            let from = (b % (doc.len() as u64 + 1)) as usize;
            let end = (from + 1 + ((b >> 32) % 64) as usize).min(doc.len());
            let span = doc[from..end].to_vec();
            doc.splice(at..at, span);
        }
    }
}

/// Replays `trace` on a fresh DPU under each headline allocator whose
/// init accepts the trace's geometry.
fn replay_on_every_allocator(trace: &AllocTrace) {
    let (n, heap) = (trace.n_tasklets, trace.heap_size);
    for geometry in [AllocGeometry::sw(n), AllocGeometry::hw_sw(n)] {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n));
        if let Ok(mut alloc) = PimMalloc::init(&mut dpu, geometry.with_heap_size(heap).build()) {
            replay(&mut dpu, &mut alloc, trace);
        }
    }
    let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(n));
    let straw_man = StrawManConfig {
        heap_size: heap,
        ..StrawManConfig::default()
    };
    if let Ok(mut alloc) = StrawManAllocator::init(&mut dpu, straw_man) {
        replay(&mut dpu, &mut alloc, trace);
    }
}

/// Feeds `bytes` to the trace parser and runs a trace that parses
/// through both engines. Returns whether the parser accepted the
/// document.
fn feed(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let Ok(trace) = AllocTrace::from_json(&text) else {
        return false;
    };
    replay_on_every_allocator(&trace);
    // A typed synthesis error is an accepted outcome.
    let _ = synthesize_table(&AllocProfile::from_trace(&trace));
    true
}

#[test]
fn seed_documents_reach_both_engines() {
    let trace = seed_trace();
    assert!(feed(trace.to_json().as_bytes()));
    // The seed's sizes reach the DP, not only its typed error.
    assert!(synthesize_table(&AllocProfile::from_trace(&trace)).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..512)) {
        feed(&bytes);
    }

    #[test]
    fn mutated_trace_json_never_panics(
        edits in vec((0u8..4, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let mut doc = seed_trace().to_json().into_bytes();
        for edit in edits {
            mutate(&mut doc, edit);
        }
        feed(&doc);
    }
}
