//! DRAM energy accounting.
//!
//! Energy coefficients follow the fine-grained DRAM activation/access breakdown of
//! O'Connor et al. (MICRO'17), which the paper also cites for its HBM activation and
//! read energy. The model distinguishes row activation energy, the internal column
//! access energy (paid by both normal accesses and PIM `COMP` operations) and the
//! external IO energy (paid only when data crosses the channel to the host).

use crate::controller::ChannelStats;
use crate::geometry::DramGeometry;

/// Per-operation energy coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one row activation + precharge pair, in picojoules.
    pub activation_pj: f64,
    /// Internal column access (sense amp to peripheral) energy per bit, in picojoules.
    pub column_pj_per_bit: f64,
    /// External IO (channel) energy per bit, in picojoules.
    pub io_pj_per_bit: f64,
    /// PIM compute energy per processed byte, in picojoules (SPE datapath; the
    /// register-file and control overheads are folded in).
    pub pim_compute_pj_per_byte: f64,
}

impl EnergyModel {
    /// HBM2E coefficients (O'Connor et al., scaled to a 1 KiB row).
    pub fn hbm2e() -> Self {
        Self {
            activation_pj: 909.0,
            column_pj_per_bit: 1.51,
            io_pj_per_bit: 0.80,
            pim_compute_pj_per_byte: 0.9,
        }
    }

    /// Computes the energy consumed by the command stream summarized in `stats`.
    pub fn energy(&self, stats: &ChannelStats, geometry: &DramGeometry) -> EnergyCounters {
        let col_bits = (geometry.column_bytes * 8) as f64;
        let activation_pj = stats.activations as f64 * self.activation_pj;
        // Normal reads/writes pay both the internal column access and the IO transfer;
        // COMP columns stay internal; REG_WRITE / RESULT_READ move one burst over IO.
        let internal_cols = (stats.reads + stats.writes + stats.comp_columns) as f64;
        let column_pj = internal_cols * col_bits * self.column_pj_per_bit;
        let io_transfers =
            (stats.reads + stats.writes + stats.reg_writes + stats.result_reads) as f64;
        let io_pj = io_transfers * col_bits * self.io_pj_per_bit;
        let pim_pj =
            stats.comp_columns as f64 * geometry.column_bytes as f64 * self.pim_compute_pj_per_byte;
        EnergyCounters {
            activation_pj,
            column_pj,
            io_pj,
            pim_compute_pj: pim_pj,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::hbm2e()
    }
}

/// Energy consumed, broken down by component (all picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounters {
    /// Row activation + precharge energy.
    pub activation_pj: f64,
    /// Internal column access energy.
    pub column_pj: f64,
    /// External IO (channel) energy.
    pub io_pj: f64,
    /// PIM compute energy.
    pub pim_compute_pj: f64,
}

impl EnergyCounters {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.activation_pj + self.column_pj + self.io_pj + self.pim_compute_pj
    }

    /// Element-wise sum.
    pub fn add(&self, other: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            activation_pj: self.activation_pj + other.activation_pj,
            column_pj: self.column_pj + other.column_pj,
            io_pj: self.io_pj + other.io_pj,
            pim_compute_pj: self.pim_compute_pj + other.pim_compute_pj,
        }
    }

    /// Scaled by a constant factor (e.g. number of pseudo-channels doing the same work).
    pub fn scaled(&self, factor: f64) -> EnergyCounters {
        EnergyCounters {
            activation_pj: self.activation_pj * factor,
            column_pj: self.column_pj * factor,
            io_pj: self.io_pj * factor,
            pim_compute_pj: self.pim_compute_pj * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64, comps: u64, acts: u64) -> ChannelStats {
        ChannelStats {
            activations: acts,
            reads,
            writes,
            comp_columns: comps,
            reg_writes: 0,
            result_reads: 0,
            refreshes: 0,
        }
    }

    #[test]
    fn zero_stats_zero_energy() {
        let m = EnergyModel::hbm2e();
        let e = m.energy(&ChannelStats::default(), &DramGeometry::hbm2e());
        assert_eq!(e.total_pj(), 0.0);
    }

    #[test]
    fn pim_comp_avoids_io_energy() {
        let m = EnergyModel::hbm2e();
        let g = DramGeometry::hbm2e();
        let external = m.energy(&stats(100, 100, 0, 10), &g);
        let pim = m.energy(&stats(0, 0, 200, 10), &g);
        assert!(pim.io_pj < external.io_pj, "PIM must save IO energy");
        assert!(pim.total_pj() < external.total_pj());
        assert!(pim.pim_compute_pj > 0.0);
        assert_eq!(external.pim_compute_pj, 0.0);
    }

    #[test]
    fn energy_scales_linearly_with_work() {
        let m = EnergyModel::hbm2e();
        let g = DramGeometry::hbm2e();
        let one = m.energy(&stats(10, 10, 10, 1), &g);
        let ten = m.energy(&stats(100, 100, 100, 10), &g);
        assert!((ten.total_pj() - 10.0 * one.total_pj()).abs() < 1e-6);
    }

    #[test]
    fn counters_add_and_scale() {
        let a = EnergyCounters {
            activation_pj: 1.0,
            column_pj: 2.0,
            io_pj: 3.0,
            pim_compute_pj: 4.0,
        };
        let b = a.scaled(2.0);
        assert_eq!(b.total_pj(), 20.0);
        let c = a.add(&b);
        assert_eq!(c.total_pj(), 30.0);
    }
}
