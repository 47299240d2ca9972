//! System design points of the evaluation.

use pimba_gpu::cluster::GpuCluster;
use pimba_gpu::device::GpuDevice;
use pimba_models::workload::StorageFormats;
use pimba_num::QuantFormat;
use pimba_pim::designs::{PimDesign, PimDesignKind};

/// The serving systems compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Plain GPU serving with fp16 state / KV cache.
    Gpu,
    /// GPU serving with the state and KV cache quantized to 8 bits (int8 group
    /// scaling, matching Pimba's bit width) — "GPU+Q".
    GpuQuant,
    /// GPU plus an HBM-PIM-style time-multiplexed PIM (fp16) — "GPU+PIM".
    GpuPim,
    /// The proposed system: GPU plus the Pimba PIM (MX8, access interleaving).
    Pimba,
    /// GPU plus a NeuPIMs-like attention-only PIM (Figure 15).
    NeuPims,
}

impl SystemKind {
    /// The four systems of Figures 12–14, in plotting order.
    pub const MAIN_COMPARISON: [SystemKind; 4] = [
        SystemKind::Gpu,
        SystemKind::GpuQuant,
        SystemKind::GpuPim,
        SystemKind::Pimba,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Gpu => "GPU",
            SystemKind::GpuQuant => "GPU+Q",
            SystemKind::GpuPim => "GPU+PIM",
            SystemKind::Pimba => "Pimba",
            SystemKind::NeuPims => "NeuPIMs",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// GPU generation the system is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// NVIDIA A100 with HBM2E-based PIM modules (the primary evaluation platform).
    A100,
    /// NVIDIA H100 with HBM3-based PIM modules (Figure 16).
    H100,
}

/// A fully-specified serving system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Which design point this is.
    pub kind: SystemKind,
    /// GPU generation.
    pub(crate) generation: GpuGeneration,
    /// The GPU cluster (device type + tensor-parallel width).
    pub cluster: GpuCluster,
    /// The PIM attached to every GPU's memory, if any.
    pub pim: Option<PimDesign>,
    /// Storage formats for weights / state / KV cache / activations.
    pub formats: StorageFormats,
}

impl SystemConfig {
    /// Builds a system of the given kind with an explicit GPU generation and
    /// tensor-parallel width.
    pub fn new(kind: SystemKind, generation: GpuGeneration, tensor_parallel: usize) -> Self {
        let device = match generation {
            GpuGeneration::A100 => GpuDevice::a100(),
            GpuGeneration::H100 => GpuDevice::h100(),
        };
        let mk_pim = |k: PimDesignKind| match generation {
            GpuGeneration::A100 => PimDesign::new(k),
            GpuGeneration::H100 => PimDesign::with_hbm3(k),
        };
        let (pim, formats) = match kind {
            SystemKind::Gpu => (None, StorageFormats::fp16()),
            SystemKind::GpuQuant => (None, StorageFormats::quantized_state(QuantFormat::Int8)),
            SystemKind::GpuPim => (
                Some(mk_pim(PimDesignKind::HbmPimTwoBank)),
                StorageFormats::fp16(),
            ),
            SystemKind::Pimba => (
                Some(mk_pim(PimDesignKind::Pimba)),
                StorageFormats::quantized_state(QuantFormat::Mx8),
            ),
            SystemKind::NeuPims => (
                Some(mk_pim(PimDesignKind::NeuPimsLike)),
                StorageFormats::fp16(),
            ),
        };
        Self {
            kind,
            generation,
            cluster: GpuCluster::new(device, tensor_parallel),
            pim,
            formats,
        }
    }

    /// Single-GPU A100 system (small-scale models, Figure 12 left half).
    pub fn small_scale(kind: SystemKind) -> Self {
        Self::new(kind, GpuGeneration::A100, 1)
    }

    /// Eight-GPU A100 system with tensor parallelism (large-scale models).
    pub fn large_scale(kind: SystemKind) -> Self {
        Self::new(kind, GpuGeneration::A100, 8)
    }

    /// Eight-GPU H100 system (Figure 16).
    pub fn h100_large_scale(kind: SystemKind) -> Self {
        Self::new(kind, GpuGeneration::H100, 8)
    }

    /// Whether state updates run on the PIM in this system.
    pub fn offloads_state_update(&self) -> bool {
        self.pim.map(|p| p.supports_state_update()).unwrap_or(false)
    }

    /// Whether attention runs on the PIM in this system.
    pub fn offloads_attention(&self) -> bool {
        self.pim.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offloading_matrix_matches_the_paper() {
        assert!(!SystemConfig::small_scale(SystemKind::Gpu).offloads_state_update());
        assert!(!SystemConfig::small_scale(SystemKind::GpuQuant).offloads_attention());
        assert!(SystemConfig::small_scale(SystemKind::GpuPim).offloads_state_update());
        assert!(SystemConfig::small_scale(SystemKind::Pimba).offloads_state_update());
        assert!(SystemConfig::small_scale(SystemKind::Pimba).offloads_attention());
        // NeuPIMs accelerates attention only; the state update stays on the GPU.
        let neupims = SystemConfig::large_scale(SystemKind::NeuPims);
        assert!(neupims.offloads_attention());
        assert!(!neupims.offloads_state_update());
    }

    #[test]
    fn formats_follow_the_system() {
        assert_eq!(
            SystemConfig::small_scale(SystemKind::Gpu).formats.state,
            QuantFormat::Fp16
        );
        assert_eq!(
            SystemConfig::small_scale(SystemKind::GpuQuant)
                .formats
                .state,
            QuantFormat::Int8
        );
        assert_eq!(
            SystemConfig::small_scale(SystemKind::Pimba).formats.state,
            QuantFormat::Mx8
        );
        assert_eq!(
            SystemConfig::small_scale(SystemKind::GpuPim).formats.state,
            QuantFormat::Fp16
        );
    }

    #[test]
    fn scale_presets() {
        assert_eq!(
            SystemConfig::small_scale(SystemKind::Pimba)
                .cluster
                .tensor_parallel,
            1
        );
        assert_eq!(
            SystemConfig::large_scale(SystemKind::Pimba)
                .cluster
                .tensor_parallel,
            8
        );
        let h100 = SystemConfig::h100_large_scale(SystemKind::Pimba);
        assert_eq!(h100.generation, GpuGeneration::H100);
        assert!(h100.cluster.device.mem_bw_gbps > 3000.0);
    }

    #[test]
    fn names() {
        assert_eq!(SystemKind::GpuQuant.name(), "GPU+Q");
        assert_eq!(format!("{}", SystemKind::Pimba), "Pimba");
        assert_eq!(SystemKind::MAIN_COMPARISON.len(), 4);
    }
}
