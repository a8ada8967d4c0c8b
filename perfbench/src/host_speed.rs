//! How fast the host runs at the moment, measured with a fixed loop that
//! uses no repository code.
//!
//! The benchmark shares a few cores of a host with other tenants, who
//! slow it by up to half for minutes at a time: they take CPU time, share
//! the core's caches and lower its clock. The best repetition of a run
//! cannot hide a slowdown that lasts the whole run. Timing this loop
//! between repetitions samples the conditions the repetitions ran under,
//! so host figures are scaled by how much slower than nominal it ran. A
//! change to the program cannot speed the loop up.
//!
//! The loop is a small first-fit bitmap allocator with a FIFO window of
//! live blocks: branchy bit manipulation over a 256 KiB bitmap, like the
//! simulated allocator's hot path. Of the loops tried (a register-only
//! hash chain, independent hash chains, pointer chases through 1 MiB to
//! 64 MiB, a streaming pass), its slowdown tracked the workloads' best:
//! run to run on an idle-looking host, and under a CPU-bound neighbour.
//! A workload that runs on several threads waits for the slowest, so the
//! loop runs in rounds on as many threads, each round timed until the
//! last thread finishes.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one unit of reference work takes on an idle host of the kind
/// the benchmark was defined on (one vCPU of a shared Intel Xeon VM).
const NOMINAL_UNIT_S: f64 = 0.6e-3;
/// Units each thread runs per round.
const ROUND_UNITS: u64 = 8;
/// Words of the bitmap (256 KiB).
const WORDS: usize = 1 << 15;
/// Blocks live at once; each allocation beyond it frees the oldest.
const WINDOW: usize = 1024;
/// Allocations per unit of reference work.
const ALLOCS: usize = 100_000;

pub struct HostSpeed {
    lanes: Vec<Lane>,
    units: u64,
    secs: f64,
}

impl HostSpeed {
    /// A sampler that runs the loop on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
            units: 0,
            secs: 0.0,
        }
    }

    /// Runs rounds of reference work for at least `secs` seconds.
    pub fn sample(&mut self, secs: f64) {
        let t0 = Instant::now();
        loop {
            let (first, rest) = self.lanes.split_at_mut(1);
            std::thread::scope(|s| {
                for lane in rest {
                    s.spawn(|| lane.run(ROUND_UNITS));
                }
                first[0].run(ROUND_UNITS);
            });
            self.units += ROUND_UNITS;
            if t0.elapsed().as_secs_f64() >= secs {
                break;
            }
        }
        self.secs += t0.elapsed().as_secs_f64();
    }

    /// How many times slower than nominal the host ran while sampled.
    pub fn slowdown(&self) -> f64 {
        self.secs / self.units as f64 / NOMINAL_UNIT_S
    }
}

/// One thread's copy of the loop's state. Lanes sit side by side and
/// write their generator and window ends every step, so each gets cache
/// lines of its own: shared lines made two lanes run five times slower.
#[repr(align(128))]
struct Lane {
    bits: Vec<u64>,
    live: VecDeque<(usize, u64)>,
    rng: u64,
}

impl Lane {
    fn new() -> Self {
        Lane {
            bits: vec![0; WORDS],
            live: VecDeque::with_capacity(WINDOW),
            rng: 0x1234_5678,
        }
    }

    /// `units` units of `ALLOCS` first-fit allocations of one bit from a
    /// pseudo-random starting word, each freeing the oldest live block
    /// once the window is full.
    fn run(&mut self, units: u64) {
        for _ in 0..units as usize * ALLOCS {
            // Xorshift64.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let mut w = self.rng as usize % WORDS;
            while self.bits[w] == u64::MAX {
                w = (w + 1) % WORDS;
            }
            let mask = 1 << (!self.bits[w]).trailing_zeros();
            self.bits[w] |= mask;
            self.live.push_back((w, mask));
            if self.live.len() == WINDOW {
                if let Some((w, mask)) = self.live.pop_front() {
                    self.bits[w] &= !mask;
                }
            }
        }
        black_box(&self.bits);
    }
}
