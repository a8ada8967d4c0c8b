//! Analytic area/power/timing model of the buddy cache CAM.
//!
//! The paper evaluates the buddy cache's implementation overhead with
//! CACTI 7.0 at a 32 nm logic node, then derates to a DRAM process
//! (≈10× less dense, ≈3× slower, per Devaux HotChips'19). CACTI itself
//! is a large C++ tool we cannot link; this module substitutes a
//! first-order analytic model with the standard technology-scaling
//! terms CACTI uses, calibrated to land in the same regime the paper
//! reports: ~0.02 mm², ~5 mW, sub-cycle access.

use serde::{Deserialize, Serialize};

use crate::buddy_cache::BuddyCacheConfig;

/// Technology and derating parameters for the CAM overhead model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CamOverheadModel {
    /// Area of one CAM bit cell in square microns at the paper's 32 nm
    /// logic node.
    /// A CAM cell is roughly 2× a 6T SRAM cell (search transistors).
    pub cam_cell_um2: f64,
    /// Multiplier for peripheral circuitry (match lines, priority
    /// encoder, LRU state) over the raw bit-cell array.
    pub periphery_factor: f64,
    /// Density penalty of implementing logic on a DRAM process.
    pub dram_density_derate: f64,
    /// Speed penalty of implementing logic on a DRAM process.
    pub dram_speed_derate: f64,
    /// Dynamic energy per search, picojoules per bit at the logic node.
    pub search_pj_per_bit: f64,
    /// Static leakage per bit, microwatts.
    pub leakage_uw_per_bit: f64,
    /// Search latency of a small CAM at the logic node, nanoseconds.
    pub logic_search_ns: f64,
}

impl Default for CamOverheadModel {
    fn default() -> Self {
        CamOverheadModel {
            cam_cell_um2: 0.75,
            periphery_factor: 2.4,
            dram_density_derate: 10.0,
            dram_speed_derate: 3.0,
            search_pj_per_bit: 0.015,
            leakage_uw_per_bit: 0.035,
            logic_search_ns: 0.25,
        }
    }
}

/// Computed overheads of one per-DPU buddy cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CamOverhead {
    /// Total storage bits (valid + tag + data per entry).
    pub bits: u64,
    /// Silicon area in mm², after DRAM-process derating.
    pub area_mm2: f64,
    /// Power at the given access rate, in milliwatts.
    pub power_mw: f64,
    /// Search access latency in nanoseconds, after derating.
    pub access_ns: f64,
    /// Access latency in DPU cycles at the given clock.
    pub access_cycles: f64,
}

impl CamOverheadModel {
    /// Bits stored per entry: 1 valid + 32 tag + 8·`bytes_per_entry` data,
    /// plus ⌈log₂ entries⌉ LRU state.
    fn bits_per_entry(&self, config: &BuddyCacheConfig) -> u64 {
        let lru_bits = (config.entries as f64).log2().ceil() as u64;
        1 + 32 + 8 * u64::from(config.bytes_per_entry) + lru_bits
    }

    /// Evaluates the model for a buddy cache configuration.
    ///
    /// `clock_mhz` is the DPU clock (350 MHz), `searches_per_cycle` the
    /// average activity factor used for dynamic power (1.0 = a search
    /// every cycle, the pessimistic bound).
    pub fn evaluate(
        &self,
        config: &BuddyCacheConfig,
        clock_mhz: u64,
        searches_per_cycle: f64,
    ) -> CamOverhead {
        let bits = config.entries as u64 * self.bits_per_entry(config);
        // Area: bit cells × periphery, scaled from the logic node to the
        // DRAM process.
        let cell_area_um2 = bits as f64 * self.cam_cell_um2 * self.periphery_factor;
        let area_mm2 = cell_area_um2 * 1e-6 * self.dram_density_derate;
        // Power: dynamic (search energy × rate) + leakage.
        let searches_per_sec = clock_mhz as f64 * 1e6 * searches_per_cycle;
        let dynamic_mw = bits as f64 * self.search_pj_per_bit * 1e-12 * searches_per_sec * 1e3;
        let leakage_mw = bits as f64 * self.leakage_uw_per_bit * 1e-3;
        // Latency: logic-node search latency × DRAM speed derate.
        let access_ns = self.logic_search_ns * self.dram_speed_derate;
        let cycle_ns = 1e3 / clock_mhz as f64;
        CamOverhead {
            bits,
            area_mm2,
            power_mw: dynamic_mw + leakage_mw,
            access_ns,
            access_cycles: access_ns / cycle_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_negligible_overhead() {
        // Paper (§VI-F): 0.019 mm², 5 mW, < 1 DPU cycle at 350 MHz.
        let o = CamOverheadModel::default().evaluate(&BuddyCacheConfig::default(), 350, 1.0);
        assert!(
            o.area_mm2 > 0.001 && o.area_mm2 < 0.05,
            "area {} mm2 out of the paper's regime",
            o.area_mm2
        );
        assert!(
            o.power_mw > 0.5 && o.power_mw < 20.0,
            "power {} mW out of the paper's regime",
            o.power_mw
        );
        assert!(
            o.access_cycles < 1.0,
            "access must fit in one 350 MHz cycle, got {} cycles",
            o.access_cycles
        );
    }

    #[test]
    fn area_scales_linearly_with_entries() {
        let m = CamOverheadModel::default();
        let small = m.evaluate(&BuddyCacheConfig::with_capacity_bytes(16), 350, 1.0);
        let large = m.evaluate(&BuddyCacheConfig::with_capacity_bytes(256), 350, 1.0);
        let ratio = large.area_mm2 / small.area_mm2;
        assert!(ratio > 10.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn bits_include_tag_valid_and_lru() {
        let m = CamOverheadModel::default();
        let o = m.evaluate(&BuddyCacheConfig::default(), 350, 1.0);
        // 16 entries × (1 + 32 + 32 + 4) = 16 × 69 = 1104 bits.
        assert_eq!(o.bits, 1104);
    }

    #[test]
    fn idle_cache_still_leaks() {
        let o = CamOverheadModel::default().evaluate(&BuddyCacheConfig::default(), 350, 0.0);
        assert!(o.power_mw > 0.0, "leakage must be nonzero");
    }

    #[test]
    fn dram_derates_apply() {
        let logic = CamOverheadModel {
            dram_density_derate: 1.0,
            dram_speed_derate: 1.0,
            ..CamOverheadModel::default()
        };
        let dram = CamOverheadModel::default();
        let c = BuddyCacheConfig::default();
        let lo = logic.evaluate(&c, 350, 1.0);
        let hi = dram.evaluate(&c, 350, 1.0);
        assert!((hi.area_mm2 / lo.area_mm2 - 10.0).abs() < 1e-9);
        assert!((hi.access_ns / lo.access_ns - 3.0).abs() < 1e-9);
    }
}
