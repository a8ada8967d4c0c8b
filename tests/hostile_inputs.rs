//! Hostile-input guard: arbitrary bytes and mutated trace and profile
//! JSON come back from the parsers as typed errors or as values the
//! engines downstream accept, never as a panic.
//!
//! Every document goes through both paths: `AllocTrace::from_json` →
//! `replay` on the SW, HW/SW and straw-man allocators, and
//! `AllocProfile::from_json` → `synthesize_table`. Mutations flip,
//! insert, delete and duplicate bytes of a valid document; half the
//! bytes they write are JSON punctuation, digits or literal letters,
//! so that more mutants still parse and reach the engines.

use pim_malloc::{AllocGeometry, PimMalloc, StrawManAllocator, StrawManConfig};
use pim_profile::{synthesize_table, AllocProfile, SynthesisObjective};
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

/// Feeds `bytes` to both parsers and runs whatever parses through its
/// engine. Returns whether the trace and the profile parser accepted
/// the document.
fn feed(bytes: &[u8]) -> (bool, bool) {
    let text = String::from_utf8_lossy(bytes);
    let trace = AllocTrace::from_json(&text);
    if let Ok(trace) = &trace {
        replay_on_every_allocator(trace);
    }
    let profile = AllocProfile::from_json(&text);
    if let Ok(profile) = &profile {
        // A typed synthesis error is an accepted outcome.
        let _ = synthesize_table(profile, &SynthesisObjective::default());
    }
    (trace.is_ok(), profile.is_ok())
}

#[test]
fn seed_documents_reach_both_engines() {
    let trace = seed_trace();
    assert_eq!(feed(trace.to_json().as_bytes()), (true, false));
    let profile = AllocProfile::from_trace(&trace).to_json();
    assert_eq!(feed(profile.as_bytes()), (false, true));
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

    #[test]
    fn mutated_profile_json_never_panics(
        edits in vec((0u8..4, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let mut doc = AllocProfile::from_trace(&seed_trace()).to_json().into_bytes();
        for edit in edits {
            mutate(&mut doc, edit);
        }
        feed(&doc);
    }
}
