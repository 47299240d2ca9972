//! The PIM design space evaluated in the paper.
//!
//! | design | units | feed | arithmetic | storage |
//! |---|---|---|---|---|
//! | `Pimba` | 1 SPU / 2 banks | access interleaving (1 column per `tCCD_L`) | MX8 SPE | MX8 |
//! | `PipelinedPerBank` | 1 SPE / bank | read/write alternation (1 column per 2 slots) | fp16 pipeline | fp16 |
//! | `TimeMultiplexedPerBank` | 1 unit / bank | multiple passes per column | fp16 MAC | fp16 |
//! | `HbmPimTwoBank` | 1 unit / 2 banks | multiple passes, no interleaving | fp16 MAC | fp16 |
//! | `NeuPimsLike` | 1 unit / bank | GEMV only (attention); state update stays on the GPU | fp16 MAC | fp16 |
//!
//! `Pimba`, `PipelinedPerBank` and `TimeMultiplexedPerBank` correspond to Figure 5;
//! `HbmPimTwoBank` is the "GPU+PIM" baseline of Figures 12–14 (a time-multiplexed unit
//! spanning two banks, area-matched to Pimba); `NeuPimsLike` is the comparator of
//! Figure 15.

use crate::kernels::{self, DeviceMode, PimLatency};
use pimba_dram::geometry::DramGeometry;
use pimba_dram::timing::TimingParams;
use pimba_models::ops::OpShape;
use pimba_num::QuantFormat;

/// Which PIM design is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimDesignKind {
    /// The proposed design: shared SPU with access interleaving and MX8 arithmetic.
    Pimba,
    /// One fully pipelined SPE per bank (fp16), no sharing.
    PipelinedPerBank,
    /// One time-multiplexed multiply/add unit per bank (fp16), HBM-PIM style.
    TimeMultiplexedPerBank,
    /// One time-multiplexed fp16 unit spanning two banks without access interleaving —
    /// the paper's "GPU+PIM" baseline, area-matched to Pimba.
    HbmPimTwoBank,
    /// A per-bank GEMV PIM tailored to attention (NeuPIMs-like); it cannot execute
    /// state updates, which therefore stay on the GPU.
    NeuPimsLike,
}

impl PimDesignKind {
    /// All design points.
    pub const ALL: [PimDesignKind; 5] = [
        PimDesignKind::Pimba,
        PimDesignKind::PipelinedPerBank,
        PimDesignKind::TimeMultiplexedPerBank,
        PimDesignKind::HbmPimTwoBank,
        PimDesignKind::NeuPimsLike,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            PimDesignKind::Pimba => "Pimba",
            PimDesignKind::PipelinedPerBank => "Pipelined PIM",
            PimDesignKind::TimeMultiplexedPerBank => "Time-multiplexed PIM",
            PimDesignKind::HbmPimTwoBank => "GPU+PIM (HBM-PIM)",
            PimDesignKind::NeuPimsLike => "NeuPIMs",
        }
    }
}

impl std::fmt::Display for PimDesignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A concrete PIM configuration (design point + memory technology).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimDesign {
    /// Design point.
    pub kind: PimDesignKind,
    /// DRAM timing parameters (HBM2E by default, HBM3 for the H100 study).
    pub timing: TimingParams,
    /// DRAM organization.
    pub geometry: DramGeometry,
}

impl PimDesign {
    /// Creates a design with the default HBM2E memory.
    pub fn new(kind: PimDesignKind) -> Self {
        Self {
            kind,
            timing: TimingParams::hbm2e(),
            geometry: DramGeometry::hbm2e(),
        }
    }

    /// Creates a design with HBM3 memory (H100-class system, Figure 16).
    pub fn with_hbm3(kind: PimDesignKind) -> Self {
        Self {
            kind,
            timing: TimingParams::hbm3(),
            geometry: DramGeometry::hbm3(),
        }
    }

    /// Storage format of the state / KV cache on this design.
    pub(crate) fn storage_format(&self) -> QuantFormat {
        match self.kind {
            PimDesignKind::Pimba => QuantFormat::Mx8,
            _ => QuantFormat::Fp16,
        }
    }

    /// Number of processing units per pseudo-channel.
    pub fn units_per_pseudo_channel(&self) -> usize {
        let banks = self.geometry.banks_per_pseudo_channel();
        match self.kind {
            PimDesignKind::Pimba | PimDesignKind::HbmPimTwoBank => banks / 2,
            PimDesignKind::PipelinedPerBank
            | PimDesignKind::TimeMultiplexedPerBank
            | PimDesignKind::NeuPimsLike => banks,
        }
    }

    /// `tCCD_L` slots a unit needs per state-update column (read + compute + write).
    pub fn state_update_slots_per_column(&self) -> u64 {
        match self.kind {
            // Access interleaving: a fresh column every slot.
            PimDesignKind::Pimba => 1,
            // Per-bank pipeline: the row buffer alternates read and write slots.
            PimDesignKind::PipelinedPerBank => 2,
            // Time-multiplexed unit: separate multiply, add and output passes on top of
            // the read/write alternation.
            PimDesignKind::TimeMultiplexedPerBank => 4,
            PimDesignKind::HbmPimTwoBank => 4,
            // Not supported (GEMV-only engine).
            PimDesignKind::NeuPimsLike => u64::MAX,
        }
    }

    /// `tCCD_L` slots a unit needs per attention column (read only — scores and the
    /// attend accumulation never write the KV cache back).
    pub(crate) fn attention_slots_per_column(&self) -> u64 {
        match self.kind {
            PimDesignKind::Pimba => 1,
            PimDesignKind::PipelinedPerBank | PimDesignKind::NeuPimsLike => 1,
            PimDesignKind::TimeMultiplexedPerBank => 2,
            PimDesignKind::HbmPimTwoBank => 2,
        }
    }

    /// Whether the design can execute the state update operation at all.
    pub fn supports_state_update(&self) -> bool {
        !matches!(self.kind, PimDesignKind::NeuPimsLike)
    }

    /// State elements stored per DRAM column burst.
    pub fn elements_per_column(&self) -> usize {
        (self.geometry.column_bytes as f64 / self.storage_format().bytes_per_value()).floor()
            as usize
    }

    /// Latency (and energy) of executing a full state-update operator on the PIM of a
    /// single device.
    ///
    /// # Errors
    ///
    /// Returns `None` if the design cannot execute state updates (NeuPIMs-like) or the
    /// shape is not a state-update shape.
    pub fn state_update_latency(&self, shape: &OpShape) -> Option<PimLatency> {
        if !self.supports_state_update() {
            return None;
        }
        match shape {
            OpShape::StateUpdate { .. } => Some(kernels::state_update_latency(self, shape)),
            _ => None,
        }
    }

    /// Latency of a full state-update operator in nanoseconds (convenience wrapper).
    pub fn state_update_latency_ns(&self, shape: &OpShape) -> Option<f64> {
        self.state_update_latency(shape).map(|l| l.latency_ns)
    }

    /// The seq-invariant factors of this design's attention latency (see
    /// [`DeviceMode`]).
    pub fn attention_mode(&self) -> DeviceMode {
        DeviceMode::new(self, false, self.attention_slots_per_column())
    }

    /// Latency (and energy) of executing a full attention operator (score + attend) on
    /// the PIM of a single device.
    ///
    /// Returns `None` if the shape is not an attention shape.
    pub fn attention_latency(&self, shape: &OpShape) -> Option<PimLatency> {
        match shape {
            OpShape::Attention { .. } => Some(kernels::attention_latency(self, shape)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn su_shape() -> OpShape {
        OpShape::StateUpdate {
            batch: 64,
            layers: 64,
            heads: 80,
            dim_head: 64,
            dim_state: 128,
        }
    }

    fn attn_shape() -> OpShape {
        OpShape::Attention {
            batch: 64,
            layers: 32,
            heads: 32,
            dim_head: 128,
            seq_len: 2048,
        }
    }

    #[test]
    fn pimba_matches_pipelined_per_bank_throughput_with_half_the_units() {
        let pimba = PimDesign::new(PimDesignKind::Pimba);
        let pipelined = PimDesign::new(PimDesignKind::PipelinedPerBank);
        assert_eq!(
            pimba.units_per_pseudo_channel() * 2,
            pipelined.units_per_pseudo_channel()
        );
        // Per-column processing rate (columns per slot per pseudo-channel) is the same:
        let rate = |d: &PimDesign| {
            d.units_per_pseudo_channel() as f64 / d.state_update_slots_per_column() as f64
        };
        assert_eq!(rate(&pimba), rate(&pipelined));
    }

    #[test]
    fn pimba_is_fastest_on_state_update() {
        let shape = su_shape();
        let lat = |k| PimDesign::new(k).state_update_latency_ns(&shape).unwrap();
        let pimba = lat(PimDesignKind::Pimba);
        let pipelined = lat(PimDesignKind::PipelinedPerBank);
        let timemux = lat(PimDesignKind::TimeMultiplexedPerBank);
        let hbmpim = lat(PimDesignKind::HbmPimTwoBank);
        assert!(
            pimba < pipelined,
            "MX8 storage must beat fp16 at equal column rate"
        );
        assert!(pipelined < timemux);
        assert!(timemux < hbmpim);
    }

    #[test]
    fn neupims_cannot_run_state_updates_but_runs_attention() {
        let d = PimDesign::new(PimDesignKind::NeuPimsLike);
        assert!(d.state_update_latency_ns(&su_shape()).is_none());
        assert!(d.attention_latency(&attn_shape()).is_some());
    }

    #[test]
    fn shape_mismatch_returns_none() {
        let d = PimDesign::new(PimDesignKind::Pimba);
        assert!(d.state_update_latency(&attn_shape()).is_none());
        assert!(d.attention_latency(&su_shape()).is_none());
    }

    #[test]
    fn mx8_packs_twice_the_elements_per_column() {
        let pimba = PimDesign::new(PimDesignKind::Pimba);
        let hbmpim = PimDesign::new(PimDesignKind::HbmPimTwoBank);
        assert_eq!(
            pimba.elements_per_column(),
            2 * hbmpim.elements_per_column()
        );
    }

    #[test]
    fn hbm3_is_faster_than_hbm2e() {
        let shape = su_shape();
        let a = PimDesign::new(PimDesignKind::Pimba)
            .state_update_latency_ns(&shape)
            .unwrap();
        let b = PimDesign::with_hbm3(PimDesignKind::Pimba)
            .state_update_latency_ns(&shape)
            .unwrap();
        assert!(b < a);
    }

    #[test]
    fn attention_latency_scales_with_sequence_length() {
        let d = PimDesign::new(PimDesignKind::Pimba);
        let short = OpShape::Attention {
            batch: 64,
            layers: 32,
            heads: 32,
            dim_head: 128,
            seq_len: 512,
        };
        let long = OpShape::Attention {
            batch: 64,
            layers: 32,
            heads: 32,
            dim_head: 128,
            seq_len: 4096,
        };
        let a = d.attention_latency(&short).unwrap().latency_ns;
        let b = d.attention_latency(&long).unwrap().latency_ns;
        assert!(
            b > 4.0 * a,
            "attention latency must scale with the KV length"
        );
    }

    #[test]
    fn design_names_are_unique() {
        let mut names: Vec<&str> = PimDesignKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PimDesignKind::ALL.len());
    }
}
