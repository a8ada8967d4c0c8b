//! Determinism of the public executor: for every `PIM_EXEC_WORKERS`
//! setting (inline, small crews, the machine, and the invalid values
//! that fall back to it), `parallel_indexed` returns the serial map,
//! runs each index exactly once, and leaves per-index `DpuSim` results
//! untouched.
//!
//! The tests set the process environment, so they serialise on one
//! lock and restore the variable before releasing it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use pim_sim::exec::WORKERS_ENV;
use pim_sim::{parallel_indexed, Cycles, DpuConfig, DpuSim};
use proptest::prelude::*;

static ENV: Mutex<()> = Mutex::new(());

/// Holds `PIM_EXEC_WORKERS` at one setting; dropping restores the old value.
struct Pinned {
    saved: Option<String>,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        match self.saved.take() {
            Some(w) => std::env::set_var(WORKERS_ENV, w),
            None => std::env::remove_var(WORKERS_ENV),
        }
    }
}

fn at_workers<T>(setting: &str, f: impl FnOnce() -> T) -> T {
    // A failed case poisons the lock; the guard still restored the variable.
    let lock = ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let _pinned = Pinned {
        saved: std::env::var(WORKERS_ENV).ok(),
        _lock: lock,
    };
    std::env::set_var(WORKERS_ENV, setting);
    f()
}

/// Forced-inline, tiny, an odd count that never divides a sweep evenly,
/// the machine itself, and two invalid values that fall back to it.
fn settings() -> Vec<String> {
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    ["1", "2", "7", &cpus.to_string(), "0", "many"]
        .map(String::from)
        .to_vec()
}

/// A cheap but index-sensitive pure function: any reordering or lost
/// index changes the output vector.
fn mix(i: usize, salt: u64) -> u64 {
    let mut x = i as u64 ^ salt.rotate_left(17);
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    x.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The worker count is the executor's only policy: every setting
    /// gives the serial reference.
    #[test]
    fn output_is_identical_for_all_policies_and_worker_counts(
        n in 0usize..80,
        salt in any::<u64>(),
    ) {
        let reference: Vec<u64> = (0..n).map(|i| mix(i, salt)).collect();
        for setting in settings() {
            let out = at_workers(&setting, || parallel_indexed(n, |i| mix(i, salt)));
            prop_assert_eq!(&out, &reference, "PIM_EXEC_WORKERS={}", setting);
        }
    }
}

#[test]
fn dpu_simulation_is_identical_across_engines() {
    // The pattern every workload uses: one private DpuSim per index,
    // built and consumed inside the worker, whether the sweep runs
    // inline or on the crew.
    let cell = |i: usize| -> (Cycles, u64) {
        let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(4));
        for t in 0..4 {
            let mut ctx = dpu.ctx(t);
            ctx.instrs(17 * (i as u64 + 1) + t as u64);
            ctx.mram_read(0, 64 * (i as u32 % 7 + 1));
        }
        (dpu.max_clock(), dpu.traffic().total_bytes())
    };
    let reference: Vec<(Cycles, u64)> = (0..96).map(cell).collect();
    for setting in settings() {
        let out = at_workers(&setting, || parallel_indexed(96, cell));
        assert_eq!(out, reference, "PIM_EXEC_WORKERS={setting}");
    }
}

#[test]
fn every_index_runs_exactly_once_even_with_stealing() {
    // Seven workers race for 257 indices on one counter: whichever
    // worker claims an index, it runs once and lands in its own slot.
    let n = 257;
    let runs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let out = at_workers("7", || {
        parallel_indexed(n, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        })
    });
    assert_eq!(out, (0..n).collect::<Vec<_>>());
    assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
}
