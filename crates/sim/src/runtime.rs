//! The host-side co-processor programming model (Figure 5 of the
//! paper): allocate a set of DPUs, push data, launch SPMD kernels,
//! pull results — `dpu_alloc` / `pimMemcpy` / `pimLaunch` in UPMEM
//! terms, with every step's cost accounted on a host wall clock.
//!
//! ```
//! use pim_sim::{DpuConfig, DpuSet};
//!
//! let mut set = DpuSet::allocate(4, DpuConfig::default().with_tasklets(2));
//! set.push(64, |dpu_idx, mram| mram.write_u32(0, dpu_idx as u32));
//! set.launch(|_, dpu| {
//!     let mut ctx = dpu.ctx(0);
//!     ctx.instrs(100);
//! });
//! let mut results = vec![0u32; 4];
//! set.pull(4, |idx, mram| results[idx] = mram.read_u32(0));
//! assert_eq!(results, vec![0, 1, 2, 3]);
//! assert!(set.elapsed_secs() > 0.0);
//! ```

use crate::cost::Cycles;
use crate::dpu::{DpuConfig, DpuSim};
use crate::host::{HostConfig, HostSim, TransferDirection};
use crate::xfer::{HostBatching, TransferPlan};

/// Fixed host-side overhead of one kernel launch, microseconds
/// (runtime entry + boot signal fan-out; UPMEM launches cost tens of
/// microseconds per rank).
const LAUNCH_US: f64 = 60.0;

/// A host-managed set of DPUs — the granularity at which UPMEM
/// programs transfer data and launch kernels.
#[derive(Debug)]
pub struct DpuSet {
    dpus: Vec<DpuSim>,
    host: HostSim,
    elapsed_secs: f64,
    launches: u64,
}

impl DpuSet {
    /// Allocates `n` DPUs with identical configuration (`dpu_alloc`).
    /// Transfers use rank-sharded batching ([`HostBatching::Sharded`])
    /// — UPMEM's `dpu_push_xfer` path.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn allocate(n: usize, config: DpuConfig) -> Self {
        assert!(n > 0, "a DPU set needs at least one DPU");
        DpuSet {
            dpus: (0..n).map(|_| DpuSim::new(config.clone())).collect(),
            host: HostSim::new(HostConfig::default()),
            elapsed_secs: 0.0,
            launches: 0,
        }
    }

    /// Number of DPUs in the set.
    pub fn len(&self) -> usize {
        self.dpus.len()
    }

    /// True if the set is empty (never — `allocate` requires one).
    pub fn is_empty(&self) -> bool {
        self.dpus.is_empty()
    }

    /// Access one DPU (assertions, read-back).
    pub fn dpu(&self, idx: usize) -> &DpuSim {
        &self.dpus[idx]
    }

    /// Mutable access to one DPU.
    pub fn dpu_mut(&mut self, idx: usize) -> &mut DpuSim {
        &mut self.dpus[idx]
    }

    /// `pimMemcpy(HOST2PIM)`: writes `bytes_per_dpu` to every DPU's
    /// MRAM through `writer`, in per-rank shards.
    pub fn push(&mut self, bytes_per_dpu: u64, mut writer: impl FnMut(usize, &mut crate::Mram)) {
        self.transfer(TransferDirection::HostToPim, bytes_per_dpu);
        for (idx, dpu) in self.dpus.iter_mut().enumerate() {
            writer(idx, dpu.mram_mut());
        }
    }

    /// `pimMemcpy(PIM2HOST)`: reads `bytes_per_dpu` from every DPU's
    /// MRAM through `reader`, in per-rank shards.
    pub fn pull(&mut self, bytes_per_dpu: u64, mut reader: impl FnMut(usize, &crate::Mram)) {
        self.transfer(TransferDirection::PimToHost, bytes_per_dpu);
        for (idx, dpu) in self.dpus.iter().enumerate() {
            reader(idx, dpu.mram());
        }
    }

    /// Prices `bytes_per_dpu` to or from every DPU on the host clock.
    fn transfer(&mut self, direction: TransferDirection, bytes_per_dpu: u64) {
        let plan = TransferPlan::uniform(direction, self.dpus.len(), bytes_per_dpu);
        self.elapsed_secs += self.host.transfer_plan(&plan, HostBatching::Sharded).secs;
    }

    /// `pimLaunch`: runs `kernel` on every DPU (SPMD) and waits for the
    /// slowest one. The host clock advances by the launch overhead
    /// plus the slowest DPU's virtual-time delta.
    pub fn launch(&mut self, mut kernel: impl FnMut(usize, &mut DpuSim)) {
        let mut slowest = Cycles::ZERO;
        for (idx, dpu) in self.dpus.iter_mut().enumerate() {
            let before = dpu.max_clock();
            kernel(idx, dpu);
            slowest = slowest.max(dpu.max_clock() - before);
        }
        let mhz = self.dpus[0].config().cost.clock_mhz;
        self.elapsed_secs += LAUNCH_US * 1e-6 + slowest.as_secs(mhz);
        self.launches += 1;
    }

    /// Host wall-clock seconds accumulated across pushes, pulls, and
    /// launches.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_secs
    }

    /// Number of kernel launches so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Total bytes moved across the host↔PIM boundary.
    pub fn bytes_moved(&self) -> u64 {
        self.host.bytes_moved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_launch_pull_roundtrip() {
        let mut set = DpuSet::allocate(8, DpuConfig::default().with_tasklets(2));
        set.push(8, |idx, mram| mram.write_u64(0, idx as u64 * 10));
        set.launch(|_, dpu| {
            let v = dpu.mram().read_u64(0);
            dpu.mram_mut().write_u64(8, v + 1);
            let mut ctx = dpu.ctx(0);
            ctx.instrs(50);
        });
        let mut out = vec![0u64; 8];
        set.pull(8, |idx, mram| out[idx] = mram.read_u64(8));
        assert_eq!(out, vec![1, 11, 21, 31, 41, 51, 61, 71]);
        assert_eq!(set.launches(), 1);
        assert_eq!(set.bytes_moved(), 2 * 8 * 8);
    }

    #[test]
    fn launch_waits_for_the_slowest_dpu() {
        let mut set = DpuSet::allocate(4, DpuConfig::default().with_tasklets(1));
        set.launch(|idx, dpu| {
            let mut ctx = dpu.ctx(0);
            ctx.instrs(100 * (idx as u64 + 1));
        });
        // 400 instructions at 11 cycles / 350 MHz dominates, plus the
        // launch overhead.
        let expected = 60.0e-6 + (400.0 * 11.0) / 350.0e6;
        assert!((set.elapsed_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn transfers_scale_with_set_size() {
        let mut small = DpuSet::allocate(1, DpuConfig::default());
        small.push(1 << 20, |_, _| {});
        let mut large = DpuSet::allocate(512, DpuConfig::default());
        large.push(1 << 20, |_, _| {});
        assert!(large.elapsed_secs() > small.elapsed_secs() * 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one DPU")]
    fn empty_set_rejected() {
        DpuSet::allocate(0, DpuConfig::default());
    }
}
