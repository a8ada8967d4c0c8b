//! Cycle accounting primitives and the DPU cost model.
//!
//! All on-DPU time in this crate is expressed in [`Cycles`] of the DPU
//! clock (350 MHz on UPMEM hardware). The [`CostModel`] collects the
//! handful of constants that drive every latency the simulator reports:
//! the pipeline depth, the DMA transfer cost, and the clock frequency
//! used to convert cycles to wall-clock time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or point in virtual time, measured in DPU clock cycles.
///
/// `Cycles` is an ordinary additive quantity; subtracting a later time
/// from an earlier one panics in debug builds (it would wrap), so always
/// subtract in `later - earlier` order.
///
/// ```
/// use pim_sim::Cycles;
/// let a = Cycles(100) + Cycles(20);
/// assert_eq!(a, Cycles(120));
/// assert_eq!(a - Cycles(100), Cycles(20));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Converts this cycle count to microseconds at the given clock.
    ///
    /// ```
    /// use pim_sim::Cycles;
    /// assert!((Cycles(350).as_micros(350) - 1.0).abs() < 1e-9);
    /// ```
    pub fn as_micros(self, clock_mhz: u64) -> f64 {
        self.0 as f64 / clock_mhz as f64
    }

    /// Converts this cycle count to milliseconds at the given clock.
    pub fn as_millis(self, clock_mhz: u64) -> f64 {
        self.as_micros(clock_mhz) / 1_000.0
    }

    /// Converts this cycle count to seconds at the given clock.
    pub fn as_secs(self, clock_mhz: u64) -> f64 {
        self.as_micros(clock_mhz) / 1_000_000.0
    }

    /// Saturating subtraction, useful when comparing unordered timestamps.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two cycle counts.
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Returns the smaller of two cycle counts.
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction would underflow");
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction would underflow");
        self.0 -= rhs.0;
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// The constants that drive every DPU-side latency in the simulator.
///
/// Defaults follow published UPMEM numbers: a 350 MHz clock, an
/// 11-stage "revolver" pipeline (a single tasklet retires at most one
/// instruction per 11 cycles), and a DMA engine whose MRAM↔WRAM
/// transfer latency is `setup + per_8b × ceil(bytes / 8)` cycles —
/// calibrated so that a 2 KB block transfer costs roughly 1 µs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// DPU clock frequency in MHz. UPMEM DPUs run at 350 MHz.
    pub clock_mhz: u64,
    /// Depth of the fine-grained multithreading pipeline. A tasklet can
    /// issue at most one instruction every `pipeline_depth` cycles.
    pub pipeline_depth: u64,
    /// Fixed setup cost of a DMA transfer between MRAM and WRAM.
    pub dma_setup_cycles: u64,
    /// Incremental cost per 8-byte beat of a DMA transfer.
    pub dma_cycles_per_8b: u64,
}

impl CostModel {
    /// Cycles to move `bytes` between MRAM and WRAM in one DMA transfer.
    ///
    /// Transfers are rounded up to 8-byte beats, matching the UPMEM DMA
    /// engine's minimum granularity.
    ///
    /// ```
    /// use pim_sim::CostModel;
    /// let c = CostModel::default();
    /// assert_eq!(c.dma_cycles(0), 0);
    /// assert!(c.dma_cycles(2048) > c.dma_cycles(8));
    /// ```
    pub fn dma_cycles(&self, bytes: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let beats = u64::from(bytes).div_ceil(8);
        self.dma_setup_cycles + beats * self.dma_cycles_per_8b
    }

    /// The interval, in cycles, between two retired instructions of one
    /// tasklet when `active_tasklets` tasklets are running.
    ///
    /// With fewer tasklets than pipeline stages the pipeline cannot be
    /// filled by a single tasklet, so the interval is the pipeline depth;
    /// beyond that, issue slots are shared round-robin.
    #[inline]
    pub fn issue_interval(&self, active_tasklets: usize) -> u64 {
        self.pipeline_depth.max(active_tasklets as u64)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            clock_mhz: 350,
            pipeline_depth: 11,
            dma_setup_cycles: 250,
            dma_cycles_per_8b: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic_behaves_like_u64() {
        let a = Cycles(5);
        let b = Cycles(7);
        assert_eq!(a + b, Cycles(12));
        assert_eq!(b - a, Cycles(2));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: Cycles = [a, b].into_iter().sum();
        assert_eq!(total, Cycles(12));
    }

    #[test]
    fn cycles_to_wallclock_conversion() {
        // 350 cycles at 350 MHz is exactly one microsecond.
        assert!((Cycles(350).as_micros(350) - 1.0).abs() < 1e-12);
        assert!((Cycles(350_000).as_millis(350) - 1.0).abs() < 1e-12);
        assert!((Cycles(350_000_000).as_secs(350) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        assert_eq!(Cycles(3).saturating_sub(Cycles(10)), Cycles::ZERO);
        assert_eq!(Cycles(10).saturating_sub(Cycles(3)), Cycles(7));
    }

    #[test]
    fn dma_cost_is_monotone_in_size() {
        let c = CostModel::default();
        let mut last = 0;
        for bytes in [1u32, 8, 9, 64, 512, 2048, 65536] {
            let cost = c.dma_cycles(bytes);
            assert!(cost >= last, "DMA cost must not decrease with size");
            last = cost;
        }
    }

    #[test]
    fn dma_2kb_is_about_one_microsecond() {
        // Calibration target from UPMEM measurements: a 2 KB MRAM read
        // costs on the order of 1 µs at 350 MHz.
        let c = CostModel::default();
        let us = Cycles(c.dma_cycles(2048)).as_micros(c.clock_mhz);
        assert!(us > 1.0 && us < 3.0, "2KB DMA was {us} us");
    }

    #[test]
    fn issue_interval_saturates_at_pipeline_depth() {
        let c = CostModel::default();
        assert_eq!(c.issue_interval(1), 11);
        assert_eq!(c.issue_interval(11), 11);
        assert_eq!(c.issue_interval(16), 16);
        assert_eq!(c.issue_interval(24), 24);
    }

    #[test]
    fn zero_byte_dma_is_free() {
        assert_eq!(CostModel::default().dma_cycles(0), 0);
    }
}
