//! Area accounting for the protocol structures (§5.3: "less than 4 %").

use serde::{Deserialize, Serialize};

/// Rough area model (in mm² at 22 nm) for one tile of the manycore and for
/// the structures added by the proposed coherence protocol.
///
/// The absolute numbers are CACTI-class ballpark figures; the quantity the
/// paper reports — the *relative* overhead of the SPMDirs, filters and the
/// filterDir over the whole chip — is what the model reproduces.
///
/// # Example
///
/// ```
/// use energy::AreaModel;
///
/// let area = AreaModel::isca2015();
/// let overhead = area.protocol_overhead_fraction();
/// assert!(overhead > 0.0 && overhead < 0.04, "paper quotes < 4 %, got {overhead}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Area of one core (pipeline, register files, predictors), mm².
    pub core_mm2: f64,
    /// Area of one core's L1 I + D caches, mm².
    pub l1_mm2: f64,
    /// Area of one 256 KB L2 slice plus its directory slice, mm².
    pub l2_slice_mm2: f64,
    /// Area of one NoC router plus links, mm².
    pub router_mm2: f64,
    /// Area of one 32 KB SPM plus its DMAC, mm².
    pub spm_mm2: f64,
    /// Area of one SPMDir (32-entry CAM), mm².
    pub spmdir_mm2: f64,
    /// Area of one filter (48-entry CAM), mm².
    pub filter_mm2: f64,
    /// Area of one filterDir slice (4K entries / 64 tiles), mm².
    pub filterdir_slice_mm2: f64,
    /// Number of tiles.
    pub tiles: usize,
}

impl AreaModel {
    /// The 64-core configuration of Table 1.
    pub fn isca2015() -> Self {
        AreaModel {
            core_mm2: 1.90,
            l1_mm2: 0.55,
            l2_slice_mm2: 1.35,
            router_mm2: 0.20,
            spm_mm2: 0.28,
            spmdir_mm2: 0.008,
            filter_mm2: 0.012,
            filterdir_slice_mm2: 0.020,
            tiles: 64,
        }
    }

    /// Area of one tile *without* the hybrid-memory additions, mm².
    pub fn baseline_tile_mm2(&self) -> f64 {
        self.core_mm2 + self.l1_mm2 + self.l2_slice_mm2 + self.router_mm2
    }

    /// Area added per tile by the SPM and its DMAC, mm².
    pub fn spm_addition_per_tile_mm2(&self) -> f64 {
        self.spm_mm2
    }

    /// Area added per tile by the protocol structures, mm².
    pub fn protocol_addition_per_tile_mm2(&self) -> f64 {
        self.spmdir_mm2 + self.filter_mm2 + self.filterdir_slice_mm2
    }

    /// Area of the hybrid chip with the proposed protocol, mm².
    pub fn hybrid_chip_mm2(&self) -> f64 {
        (self.baseline_tile_mm2()
            + self.spm_addition_per_tile_mm2()
            + self.protocol_addition_per_tile_mm2())
            * self.tiles as f64
    }

    /// Fraction of the hybrid chip occupied by the protocol structures
    /// (the paper's "< 4 %" claim).
    pub fn protocol_overhead_fraction(&self) -> f64 {
        self.protocol_addition_per_tile_mm2() * self.tiles as f64 / self.hybrid_chip_mm2()
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::isca2015()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_overhead_below_four_percent() {
        let a = AreaModel::isca2015();
        let f = a.protocol_overhead_fraction();
        assert!(f > 0.0);
        assert!(
            f < 0.04,
            "protocol area fraction {f} exceeds the paper's 4 %"
        );
    }

    #[test]
    fn hybrid_chip_is_larger_than_baseline() {
        let a = AreaModel::isca2015();
        let baseline_chip = a.baseline_tile_mm2() * a.tiles as f64;
        assert!(baseline_chip > 0.0);
        assert!(a.hybrid_chip_mm2() > baseline_chip);
    }

    #[test]
    fn additions_are_small_relative_to_tile() {
        let a = AreaModel::isca2015();
        assert!(a.protocol_addition_per_tile_mm2() < 0.1 * a.baseline_tile_mm2());
        assert!(a.spm_addition_per_tile_mm2() < a.l1_mm2);
    }
}
