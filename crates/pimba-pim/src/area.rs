//! Analytic area and power model of the PIM processing units.
//!
//! The paper synthesizes its RTL with a 45 nm PDK and scales to 10 nm with
//! DeepScaleTool; this reproduction replaces synthesis with a component-level analytic
//! model calibrated so that the Pimba SPU and the HBM-PIM unit land on the Table 3
//! values (0.053 / 0.042 mm² of compute logic, 0.039 mm² of buffers, 13.4% / 11.8%
//! area overhead). Everything else — the per-format lane costs behind Figure 6 and the
//! per-design overheads behind Figure 5(b) — follows from relative gate counts:
//!
//! * an MX8 lane is a 6-bit multiplier, a 6-bit adder and a small alignment shifter;
//! * an int8 lane additionally needs dequantize/requantize logic (scale multipliers and
//!   a running-max comparator tree), making it the most expensive 8-bit option;
//! * an fp8 lane needs per-element exponent alignment but a tiny multiplier;
//! * an fp16 lane is a full half-precision multiply-add pipeline, several times an MX8
//!   lane, and only covers half as many elements per 256-bit group;
//! * stochastic rounding adds one LFSR plus a carry adder per lane — nearly free.

use crate::designs::PimDesignKind;
use pimba_num::{QuantFormat, Rounding};

/// Area/power breakdown of one processing unit (per two banks, the paper's reporting
/// granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeAreaBreakdown {
    /// Compute (datapath) area in mm².
    pub compute_mm2: f64,
    /// Operand/accumulator buffer area in mm².
    pub buffer_mm2: f64,
    /// Total area in mm².
    pub total_mm2: f64,
    /// Area overhead relative to the DRAM peripheral-logic budget, in percent.
    pub overhead_percent: f64,
    /// Compute power dissipation in mW.
    pub power_mw: f64,
}

/// The analytic area model with its calibration constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area of one MX8 lane (6-bit multiply + add + shift) in mm² at 10 nm.
    pub(crate) mx8_lane_mm2: f64,
    /// Relative cost of an int8 lane (dequant/requant logic included).
    pub(crate) int8_lane_factor: f64,
    /// Relative cost of an fp8 (e4m3/e5m2) lane.
    pub(crate) fp8_lane_factor: f64,
    /// Relative cost of an fp16 multiply-add lane.
    pub(crate) fp16_lane_factor: f64,
    /// Relative cost of adding stochastic rounding to a lane.
    pub(crate) stochastic_rounding_factor: f64,
    /// Group-level logic (shared-exponent handling, dot-product reduction tree) as a
    /// fraction of the lane array.
    pub(crate) group_logic_fraction: f64,
    /// Buffer area of a two-bank shared unit in mm².
    pub(crate) shared_buffer_mm2: f64,
    /// Buffer area of a per-bank unit in mm².
    pub(crate) per_bank_buffer_mm2: f64,
    /// DRAM peripheral-logic budget that overheads are reported against, in mm².
    pub(crate) die_reference_mm2: f64,
    /// Power density of active compute logic in mW per mm².
    pub(crate) power_mw_per_mm2: f64,
}

/// Elements per 256-bit operand group for 8-bit formats.
const LANES_8BIT: usize = 32;
/// Elements per 256-bit operand group for fp16.
const LANES_FP16: usize = 16;
/// Fraction of the lane array a time-multiplexed unit instantiates (it reuses a narrow
/// datapath over multiple passes).
const TIME_MUX_LANE_FRACTION: f64 = 0.25;

impl AreaModel {
    /// Area of one lane in mm² for the given format and rounding.
    pub(crate) fn lane_mm2(&self, format: QuantFormat, rounding: Rounding) -> f64 {
        let base = match format {
            QuantFormat::Mx8 => self.mx8_lane_mm2,
            QuantFormat::Int8 => self.mx8_lane_mm2 * self.int8_lane_factor,
            QuantFormat::E4m3 | QuantFormat::E5m2 => self.mx8_lane_mm2 * self.fp8_lane_factor,
            QuantFormat::Fp16 | QuantFormat::Fp32 => self.mx8_lane_mm2 * self.fp16_lane_factor,
        };
        match rounding {
            Rounding::Nearest => base,
            Rounding::Stochastic => base + self.mx8_lane_mm2 * self.stochastic_rounding_factor,
        }
    }

    /// Number of lanes a fully-pipelined unit needs to process one 256-bit group per
    /// cycle in the given format.
    pub(crate) fn lanes(&self, format: QuantFormat) -> usize {
        match format {
            QuantFormat::Fp16 | QuantFormat::Fp32 => LANES_FP16,
            _ => LANES_8BIT,
        }
    }

    /// Compute-logic area of one processing unit in mm².
    pub(crate) fn compute_area_mm2(
        &self,
        format: QuantFormat,
        rounding: Rounding,
        time_multiplexed: bool,
    ) -> f64 {
        let lanes = self.lanes(format) as f64
            * if time_multiplexed {
                TIME_MUX_LANE_FRACTION
            } else {
                1.0
            };
        let lane_array = lanes * self.lane_mm2(format, rounding);
        lane_array * (1.0 + self.group_logic_fraction)
    }

    /// Area breakdown of a full design point (reported per two banks, like Table 3).
    pub fn design_breakdown(&self, kind: PimDesignKind) -> SpeAreaBreakdown {
        let (compute, buffer) = match kind {
            // One MX8 SPU with stochastic rounding shared between two banks.
            PimDesignKind::Pimba => (
                self.compute_area_mm2(QuantFormat::Mx8, Rounding::Stochastic, false),
                self.shared_buffer_mm2,
            ),
            // One fully pipelined fp16 SPE per bank: two units per two banks.
            PimDesignKind::PipelinedPerBank => (
                2.0 * self.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, false),
                2.0 * self.per_bank_buffer_mm2,
            ),
            // One time-multiplexed fp16 unit per bank.
            PimDesignKind::TimeMultiplexedPerBank => (
                2.0 * self.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, true),
                2.0 * self.per_bank_buffer_mm2,
            ),
            // One time-multiplexed fp16 unit spanning two banks (HBM-PIM baseline).
            PimDesignKind::HbmPimTwoBank => (
                self.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, true),
                self.shared_buffer_mm2,
            ),
            // Per-bank GEMV engines with dual row buffers (NeuPIMs-like): half-width
            // fp16 MAC arrays per bank plus enlarged buffering.
            PimDesignKind::NeuPimsLike => (
                2.0 * 0.5 * self.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, false),
                2.0 * 1.5 * self.per_bank_buffer_mm2,
            ),
        };
        self.breakdown_from(compute, buffer)
    }

    /// Area breakdown of a per-bank *pipelined* design built around an arbitrary
    /// storage format — the design space of Figure 6.
    pub fn format_breakdown(&self, format: QuantFormat, rounding: Rounding) -> SpeAreaBreakdown {
        let compute = 2.0 * self.compute_area_mm2(format, rounding, false);
        let buffer = 2.0 * self.per_bank_buffer_mm2;
        self.breakdown_from(compute, buffer)
    }

    /// Overhead (in percent) of a design point.
    pub fn design_overhead_percent(&self, kind: PimDesignKind) -> f64 {
        self.design_breakdown(kind).overhead_percent
    }

    fn breakdown_from(&self, compute_mm2: f64, buffer_mm2: f64) -> SpeAreaBreakdown {
        let total = compute_mm2 + buffer_mm2;
        SpeAreaBreakdown {
            compute_mm2,
            buffer_mm2,
            total_mm2: total,
            overhead_percent: 100.0 * total / self.die_reference_mm2,
            power_mw: compute_mm2 * self.power_mw_per_mm2,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            // Calibrated so that the Pimba SPU (32 MX8+SR lanes + group logic) lands on
            // 0.053 mm² of compute and the HBM-PIM unit on ~0.042 mm² (Table 3).
            mx8_lane_mm2: 0.001_36,
            int8_lane_factor: 1.75,
            fp8_lane_factor: 1.22,
            fp16_lane_factor: 7.6,
            stochastic_rounding_factor: 0.06,
            group_logic_fraction: 0.15,
            shared_buffer_mm2: 0.039,
            per_bank_buffer_mm2: 0.022,
            die_reference_mm2: 0.687,
            power_mw_per_mm2: 156.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AreaModel {
        AreaModel::default()
    }

    #[test]
    fn pimba_breakdown_matches_table3() {
        let b = model().design_breakdown(PimDesignKind::Pimba);
        assert!(
            (b.compute_mm2 - 0.053).abs() < 0.005,
            "compute {:.4}",
            b.compute_mm2
        );
        assert!((b.buffer_mm2 - 0.039).abs() < 0.001);
        assert!((b.total_mm2 - 0.092).abs() < 0.006);
        assert!(
            (b.overhead_percent - 13.4).abs() < 1.0,
            "overhead {:.1}",
            b.overhead_percent
        );
        assert!((b.power_mw - 8.29).abs() < 1.0, "power {:.2}", b.power_mw);
    }

    #[test]
    fn hbm_pim_breakdown_matches_table3() {
        let b = model().design_breakdown(PimDesignKind::HbmPimTwoBank);
        assert!(
            (b.compute_mm2 - 0.042).abs() < 0.006,
            "compute {:.4}",
            b.compute_mm2
        );
        assert!(
            (b.overhead_percent - 11.8).abs() < 1.5,
            "overhead {:.1}",
            b.overhead_percent
        );
        assert!(b.power_mw < model().design_breakdown(PimDesignKind::Pimba).power_mw + 3.0);
    }

    #[test]
    fn pimba_stays_below_the_25_percent_budget_pipelined_per_bank_does_not() {
        let m = model();
        assert!(m.design_overhead_percent(PimDesignKind::Pimba) < 25.0);
        assert!(m.design_overhead_percent(PimDesignKind::TimeMultiplexedPerBank) < 25.0);
        assert!(
            m.design_overhead_percent(PimDesignKind::PipelinedPerBank) > 25.0,
            "the per-bank pipelined fp16 design must blow the area budget"
        );
    }

    #[test]
    fn pimba_is_slightly_larger_than_hbm_pim() {
        // Table 3: ~1.5 percentage points more overhead, justified by 2.1x throughput.
        let m = model();
        let delta = m.design_overhead_percent(PimDesignKind::Pimba)
            - m.design_overhead_percent(PimDesignKind::HbmPimTwoBank);
        assert!((0.5..4.0).contains(&delta), "delta {delta}");
    }

    #[test]
    fn format_area_ordering_matches_figure6() {
        // mx8 < fp8 < int8 << fp16 for a per-bank pipelined design.
        let m = model();
        let area = |f, r| m.format_breakdown(f, r).overhead_percent;
        let mx8 = area(QuantFormat::Mx8, Rounding::Nearest);
        let e4m3 = area(QuantFormat::E4m3, Rounding::Nearest);
        let e5m2 = area(QuantFormat::E5m2, Rounding::Nearest);
        let int8 = area(QuantFormat::Int8, Rounding::Nearest);
        let fp16 = area(QuantFormat::Fp16, Rounding::Nearest);
        assert!(mx8 < e4m3);
        assert!((e4m3 - e5m2).abs() < 1e-9);
        assert!(e4m3 < int8);
        assert!(int8 < fp16);
        assert!(fp16 > 2.5 * mx8, "fp16 must dwarf the 8-bit formats");
    }

    #[test]
    fn stochastic_rounding_is_nearly_free() {
        let m = model();
        for fmt in [QuantFormat::Mx8, QuantFormat::Int8, QuantFormat::E5m2] {
            let plain = m.format_breakdown(fmt, Rounding::Nearest).overhead_percent;
            let sr = m
                .format_breakdown(fmt, Rounding::Stochastic)
                .overhead_percent;
            assert!(sr > plain);
            assert!(sr - plain < 1.5, "{fmt:?}: SR adds {} points", sr - plain);
        }
    }

    #[test]
    fn mx8_is_much_cheaper_than_int8_for_elementwise_addition() {
        // The core of Principle 2: int8 needs dequantize/requantize logic, MX does not.
        let m = model();
        let ratio = m.lane_mm2(QuantFormat::Int8, Rounding::Nearest)
            / m.lane_mm2(QuantFormat::Mx8, Rounding::Nearest);
        assert!(ratio > 1.5);
    }

    #[test]
    fn time_multiplexing_saves_area() {
        let m = model();
        let full = m.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, false);
        let mux = m.compute_area_mm2(QuantFormat::Fp16, Rounding::Nearest, true);
        assert!(mux < 0.5 * full);
    }
}
