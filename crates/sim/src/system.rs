//! A multi-DPU PIM system: N independent DPU banks plus a host.
//!
//! Bank-level PIM has no inter-DPU communication — each DPU owns its
//! bank and its own address space — so a [`PimSystem`] is simply a
//! collection of [`DpuSim`]s that run the same program on partitioned
//! data, plus a [`HostSim`] for orchestration and transfers. The
//! system-level finish time of a PIM kernel is the **max** over DPUs,
//! which is how all multi-DPU results in the paper are aggregated.
//!
//! ## Parallel execution
//!
//! Because DPUs share nothing, the host can simulate them on as many
//! OS threads as the machine offers without changing any result:
//! [`PimSystem::run_per_dpu_parallel`] fans the DPU vector out through
//! [`crate::exec::parallel_indexed`] and merges per-DPU outputs back in
//! DPU-index order, so runs are deterministic for any worker count.
//! Call sites that construct their own per-index simulation state
//! (e.g. one `DpuSim` plus allocator per graph partition) call
//! `parallel_indexed` directly instead of borrowing the system's DPUs.

use std::sync::Mutex;

use crate::cost::Cycles;
use crate::dpu::{DpuConfig, DpuSim};
use crate::exec::parallel_indexed;
use crate::host::HostSim;
use crate::stats::{DramTraffic, TaskletStats};

/// DPUs one worker claims at a time in
/// [`PimSystem::run_per_dpu_parallel`]: one UPMEM chip's worth. The
/// system's DPUs are allocated together, and on the 64-DPU fig15 cell
/// with 2 workers, claiming them one at a time measured a 1.52x
/// speedup over the serial loop against 1.81x for chip-sized claims.
const DPUS_PER_CLAIM: usize = 8;

/// A host plus `n` identical DPUs.
#[derive(Debug)]
pub struct PimSystem {
    dpus: Vec<DpuSim>,
    host: HostSim,
}

impl PimSystem {
    /// Creates a system of `n_dpus` DPUs with identical configuration
    /// and a default host.
    ///
    /// # Panics
    ///
    /// Panics if `n_dpus` is zero.
    pub fn new(n_dpus: usize, config: DpuConfig) -> Self {
        assert!(n_dpus > 0, "a PIM system needs at least one DPU");
        PimSystem {
            dpus: (0..n_dpus).map(|_| DpuSim::new(config.clone())).collect(),
            host: HostSim::default(),
        }
    }

    /// Number of DPUs in the system.
    pub fn n_dpus(&self) -> usize {
        self.dpus.len()
    }

    /// Access one DPU.
    pub fn dpu(&self, idx: usize) -> &DpuSim {
        &self.dpus[idx]
    }

    /// Mutable access to one DPU.
    pub fn dpu_mut(&mut self, idx: usize) -> &mut DpuSim {
        &mut self.dpus[idx]
    }

    /// Iterates over the DPUs.
    pub fn dpus(&self) -> impl Iterator<Item = &DpuSim> {
        self.dpus.iter()
    }

    /// The host model.
    pub fn host(&self) -> &HostSim {
        &self.host
    }

    /// Mutable access to the host model.
    pub fn host_mut(&mut self) -> &mut HostSim {
        &mut self.host
    }

    /// Runs `f` once per DPU (the SPMD launch pattern). DPUs execute
    /// the same program on their private state; time advances
    /// independently per DPU.
    pub fn run_per_dpu(&mut self, mut f: impl FnMut(usize, &mut DpuSim)) {
        for (idx, dpu) in self.dpus.iter_mut().enumerate() {
            f(idx, dpu);
        }
    }

    /// Runs `f` once per DPU on [`parallel_indexed`], returning each
    /// DPU's output in DPU-index order.
    ///
    /// Each DPU is fully independent (`Send`) state, so the kernel may
    /// execute on any worker without affecting simulated results: the
    /// per-DPU clocks, stats, and traffic after this call are identical
    /// to a serial [`PimSystem::run_per_dpu`] of the same kernel, and
    /// the returned `Vec` is merged deterministically by DPU index.
    /// Host wall-clock drops by roughly the hardware thread count; the
    /// UPMEM-class systems the paper benchmarks run 2,000+ DPUs, which
    /// a serial loop cannot keep up with.
    ///
    /// Each block of [`DPUS_PER_CLAIM`] DPUs is wrapped in a [`Mutex`]
    /// only to hand its `&mut` across the worker crew — every block
    /// executes exactly once, so the locks are never contended and
    /// never poisoned outside a propagating `f` panic.
    pub fn run_per_dpu_parallel<T, F>(&mut self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut DpuSim) -> T + Sync,
    {
        let blocks: Vec<Mutex<&mut [DpuSim]>> = self
            .dpus
            .chunks_mut(DPUS_PER_CLAIM)
            .map(Mutex::new)
            .collect();
        let per_block = parallel_indexed(blocks.len(), |b| {
            let mut block = blocks[b]
                .lock()
                .expect("each DPU block is locked exactly once");
            let first = b * DPUS_PER_CLAIM;
            let outs = block
                .iter_mut()
                .enumerate()
                .map(|(j, dpu)| f(first + j, dpu));
            outs.collect::<Vec<T>>()
        });
        per_block.into_iter().flatten().collect()
    }

    /// System finish time of the PIM kernel: the slowest DPU's clock.
    pub fn kernel_finish(&self) -> Cycles {
        self.dpus
            .iter()
            .map(|d| d.max_clock())
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Sum of all tasklet stats across all DPUs.
    pub fn total_stats(&self) -> TaskletStats {
        self.dpus.iter().fold(TaskletStats::default(), |acc, d| {
            acc.merged(&d.total_stats())
        })
    }

    /// Aggregate MRAM↔WRAM traffic across all DPUs.
    pub fn total_traffic(&self) -> DramTraffic {
        self.dpus.iter().fold(DramTraffic::default(), |acc, d| {
            let t = d.traffic();
            DramTraffic {
                bytes_read: acc.bytes_read + t.bytes_read,
                bytes_written: acc.bytes_written + t.bytes_written,
                transfers: acc.transfers + t.transfers,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_dpu_execution_is_independent() {
        let mut sys = PimSystem::new(4, DpuConfig::default().with_tasklets(1));
        sys.run_per_dpu(|idx, dpu| {
            dpu.ctx(0).instrs(10 * (idx as u64 + 1));
        });
        assert_eq!(sys.dpu(0).max_clock(), Cycles(110));
        assert_eq!(sys.dpu(3).max_clock(), Cycles(440));
        assert_eq!(sys.kernel_finish(), Cycles(440));
    }

    #[test]
    fn totals_aggregate_over_dpus() {
        let mut sys = PimSystem::new(2, DpuConfig::default().with_tasklets(1));
        sys.run_per_dpu(|_, dpu| {
            let mut c = dpu.ctx(0);
            c.instrs(5);
            c.mram_read(0, 64);
        });
        assert_eq!(sys.total_stats().instrs, 10);
        assert_eq!(sys.total_traffic().bytes_read, 128);
        assert_eq!(sys.total_traffic().transfers, 2);
    }

    #[test]
    #[should_panic(expected = "at least one DPU")]
    fn zero_dpus_rejected() {
        PimSystem::new(0, DpuConfig::default());
    }

    #[test]
    fn parallel_execution_matches_serial() {
        // The same kernel run serially and in parallel must leave every
        // DPU in an identical simulated state.
        let kernel = |idx: usize, dpu: &mut DpuSim| {
            let mut c = dpu.ctx(0);
            c.instrs(7 * (idx as u64 + 1));
            c.mram_read(0, 64 * (idx as u32 + 1));
            dpu.clock(0)
        };
        // 17 DPUs: two full claim blocks plus a partial one.
        let mut serial = PimSystem::new(17, DpuConfig::default().with_tasklets(2));
        let mut serial_out = Vec::new();
        serial.run_per_dpu(|idx, dpu| serial_out.push(kernel(idx, dpu)));
        let mut parallel = PimSystem::new(17, DpuConfig::default().with_tasklets(2));
        let parallel_out = parallel.run_per_dpu_parallel(kernel);
        assert_eq!(serial_out, parallel_out, "outputs merge in DPU order");
        for idx in 0..17 {
            assert_eq!(serial.dpu(idx).max_clock(), parallel.dpu(idx).max_clock());
            assert_eq!(
                serial.dpu(idx).traffic().total_bytes(),
                parallel.dpu(idx).traffic().total_bytes()
            );
        }
        assert_eq!(serial.kernel_finish(), parallel.kernel_finish());
        assert_eq!(serial.total_stats().instrs, parallel.total_stats().instrs);
    }

    #[test]
    fn every_placement_policy_simulates_identically() {
        // However the DPUs fall into claim blocks (a lone DPU, one full
        // block, a full block plus a partial one), the parallel run
        // matches the serial loop.
        let kernel = |idx: usize, dpu: &mut DpuSim| {
            dpu.ctx(0).instrs(3 * (idx as u64 + 1));
            dpu.clock(0)
        };
        for n in [1, DPUS_PER_CLAIM, DPUS_PER_CLAIM + 5] {
            let mut reference = PimSystem::new(n, DpuConfig::default().with_tasklets(1));
            let mut reference_out = Vec::new();
            reference.run_per_dpu(|idx, dpu| reference_out.push(kernel(idx, dpu)));
            let mut sys = PimSystem::new(n, DpuConfig::default().with_tasklets(1));
            assert_eq!(sys.run_per_dpu_parallel(kernel), reference_out, "{n} DPUs");
            assert_eq!(sys.kernel_finish(), reference.kernel_finish(), "{n} DPUs");
        }
    }

    #[test]
    fn parallel_indexed_preserves_index_order() {
        let out = parallel_indexed(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert!(parallel_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn parallel_indexed_runs_independent_dpu_sims() {
        // The pattern used by multi-DPU workloads: one private DpuSim
        // per index, built and consumed inside the worker.
        let finishes = parallel_indexed(5, |idx| {
            let mut dpu = DpuSim::new(DpuConfig::default().with_tasklets(1));
            dpu.ctx(0).instrs(idx as u64 + 1);
            dpu.max_clock()
        });
        for (idx, finish) in finishes.iter().enumerate() {
            assert_eq!(*finish, Cycles((idx as u64 + 1) * 11));
        }
    }

    #[test]
    fn host_is_reachable() {
        let mut sys = PimSystem::new(1, DpuConfig::default());
        sys.host_mut()
            .transfer(crate::host::TransferDirection::HostToPim, 1, 1024);
        assert_eq!(sys.host().bytes_moved(), 1024);
    }
}
