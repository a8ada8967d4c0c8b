//! Deterministic parallel map for share-nothing DPU sweeps: a scoped
//! crew pulls indices from one atomic counter and results merge by
//! index, so every sweep is byte-identical for any worker count.

use std::iter::from_fn;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sets the worker count (`PIM_EXEC_WORKERS=1` runs sweeps inline).
/// Read on every call; unset or invalid means the hardware threads.
pub const WORKERS_ENV: &str = "PIM_EXEC_WORKERS";

/// Runs `f(0), …, f(n - 1)` and returns the results in index order.
/// `f` must be pure with respect to shared state. One worker, or
/// `n <= 1`, runs inline. The first worker panic is re-raised once
/// every worker has joined.
pub fn parallel_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let var = std::env::var(WORKERS_ENV).ok();
    let workers = var.and_then(|s| s.trim().parse().ok());
    let workers = workers.or_else(|| std::thread::available_parallelism().ok());
    run(n, workers.map_or(1, NonZeroUsize::get), &f)
}

fn run<T: Send>(n: usize, workers: usize, f: &(impl Fn(usize) -> T + Sync)) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Relaxed suffices: the counter only hands out unique indices, and
    // results travel back through `join`, which synchronises.
    let next = AtomicUsize::new(0);
    let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
    let work = || from_fn(claim).map(|i| (i, f(i))).collect::<Vec<_>>();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut panic = None;
    std::thread::scope(|scope| {
        let crew: Vec<_> = (0..workers.min(n)).map(|_| scope.spawn(work)).collect();
        for worker in crew {
            match worker.join() {
                Ok(out) => out.into_iter().for_each(|(i, v)| slots[i] = Some(v)),
                Err(payload) => panic = panic.take().or(Some(payload)),
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_counts() -> [usize; 4] {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        [1, 2, 7, cpus]
    }

    /// The runner's policies are inline (one worker) and a crew of 2, 7
    /// or n_cpus workers; each merges by index and runs every index once.
    #[test]
    fn results_merge_in_index_order_for_every_policy() {
        for workers in worker_counts() {
            for n in [1, 2, 257] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = run(n, workers, &|i| runs[i].fetch_add(1, Ordering::Relaxed) + i);
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "{workers} workers");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        for workers in worker_counts() {
            let out = run(0, workers, &|i| -> usize { unreachable!("index {i} of 0") });
            assert!(out.is_empty(), "{workers} workers");
        }
        assert!(parallel_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn facade_matches_a_serial_map() {
        assert_eq!(parallel_indexed(23, |i| 3 * i), run(23, 1, &|i| 3 * i));
    }

    #[test]
    fn panic_payload_propagates_after_the_crew_drains() {
        for workers in worker_counts() {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run(32, workers, &|i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(i, 13, "boom");
                })
            }));
            let payload = caught.expect_err("the worker panic must propagate");
            let msg: Option<&String> = payload.downcast_ref();
            assert!(msg.is_some_and(|m| m.contains("boom")), "{workers} workers");
            let drained = if workers == 1 { 14 } else { 32 };
            assert_eq!(ran.load(Ordering::Relaxed), drained, "{workers} workers");
        }
    }
}
