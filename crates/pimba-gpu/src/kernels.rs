//! Per-operator GPU kernel latency model.
//!
//! Each operator's latency is the maximum of its compute time and its memory time,
//! with per-operator efficiency factors reflecting how well real kernels use the
//! hardware (generation-phase attention and state-update kernels are strided,
//! batch-looped and far less efficient than dense GEMMs), plus a fixed launch
//! overhead.

use crate::device::GpuDevice;
use pimba_models::ops::{OpCost, OpKind};

/// Per-operator efficiency factors (fraction of peak actually achieved).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KernelEfficiency {
    /// Fraction of peak compute achieved.
    pub(crate) compute: f64,
    /// Fraction of peak memory bandwidth achieved.
    pub(crate) memory: f64,
}

/// The roofline denominators of one operator kind on one device: peak
/// rates scaled by the kind's efficiency.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KernelRates {
    /// Achieved FLOP/s.
    flops_per_s: f64,
    /// Achieved bytes/s.
    bytes_per_s: f64,
}

/// Analytic latency model for GPU kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuKernelModel {
    device: GpuDevice,
    /// Per operator kind, indexed by `OpKind as usize`: derived once here
    /// rather than per kernel.
    rates: [KernelRates; OpKind::ALL.len()],
}

impl GpuKernelModel {
    /// Builds the model for `device`.
    pub fn new(device: GpuDevice) -> Self {
        let rates = OpKind::ALL.map(|kind| {
            let eff = Self::efficiency(kind);
            KernelRates {
                flops_per_s: device.fp16_tflops * 1e12 * eff.compute,
                bytes_per_s: device.mem_bw_gbps * 1e9 * eff.memory,
            }
        });
        Self { device, rates }
    }

    /// The underlying device.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Efficiency factors for one operator kind.
    pub(crate) fn efficiency(kind: OpKind) -> KernelEfficiency {
        match kind {
            // Dense projections hit the tensor cores hard and stream weights well.
            OpKind::Gemm => KernelEfficiency {
                compute: 0.70,
                memory: 0.85,
            },
            // Generation-phase attention (one query per request) is a batched GEMV
            // with poor locality across heads.
            OpKind::Attention => KernelEfficiency {
                compute: 0.30,
                memory: 0.75,
            },
            // State updates are element-wise over a large resident state.
            OpKind::StateUpdate => KernelEfficiency {
                compute: 0.30,
                memory: 0.80,
            },
            // Small element-wise kernels.
            OpKind::CausalConv | OpKind::Discretization | OpKind::Others => KernelEfficiency {
                compute: 0.20,
                memory: 0.60,
            },
            // Communication latency is handled by the cluster model.
            OpKind::Communication => KernelEfficiency {
                compute: 1.0,
                memory: 1.0,
            },
        }
    }

    /// Latency of one operator on a single GPU, in nanoseconds.
    pub fn kernel_latency_ns(&self, kind: OpKind, cost: &OpCost) -> f64 {
        if cost.flops == 0.0 && cost.total_bytes() == 0.0 {
            return 0.0;
        }
        let rates = self.rates[kind as usize];
        let compute_ns = cost.flops / rates.flops_per_s * 1e9;
        let memory_ns = cost.total_bytes() / rates.bytes_per_s * 1e9;
        compute_ns.max(memory_ns) + self.device.kernel_overhead_ns
    }

    /// Latency of one operator when its state/KV traffic is stored in an 8-bit format
    /// (the GPU+Q baseline): identical compute, reduced bytes (already reflected in the
    /// cost), plus a small dequantization overhead on the compute side.
    pub fn quantized_kernel_latency_ns(&self, kind: OpKind, cost: &OpCost) -> f64 {
        let rates = self.rates[kind as usize];
        let compute_ns = cost.flops * 1.1 / rates.flops_per_s * 1e9;
        let memory_ns = cost.total_bytes() / rates.bytes_per_s * 1e9;
        compute_ns.max(memory_ns) + self.device.kernel_overhead_ns
    }

    /// Energy of one operator on the GPU in picojoules: a simple per-byte HBM cost plus
    /// a per-FLOP core cost (calibrated to an A100 drawing ~300 W at full tilt).
    pub fn kernel_energy_pj(&self, kind: OpKind, cost: &OpCost) -> f64 {
        let _ = kind;
        let dram_pj_per_byte = 28.0; // ~3.5 pJ/bit: HBM access incl. IO and on-chip movement
        let core_pj_per_flop = 0.55;
        cost.total_bytes() * dram_pj_per_byte + cost.flops * core_pj_per_flop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuKernelModel {
        GpuKernelModel::new(GpuDevice::a100())
    }

    #[test]
    fn rates_are_indexed_by_kind() {
        let m = model();
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
            let eff = GpuKernelModel::efficiency(kind);
            assert_eq!(
                m.rates[i].flops_per_s,
                m.device.fp16_tflops * 1e12 * eff.compute
            );
            assert_eq!(
                m.rates[i].bytes_per_s,
                m.device.mem_bw_gbps * 1e9 * eff.memory
            );
        }
    }

    #[test]
    fn zero_cost_is_free() {
        assert_eq!(
            model().kernel_latency_ns(OpKind::Gemm, &OpCost::default()),
            0.0
        );
    }

    #[test]
    fn memory_bound_kernels_follow_bandwidth() {
        // 10 GB at ~2 TB/s and 80% efficiency is ~6 ms.
        let ns = model().kernel_latency_ns(OpKind::StateUpdate, &OpCost::new(1e9, 5e9, 5e9));
        let ms = ns / 1e6;
        assert!((5.0..8.0).contains(&ms), "latency {ms} ms");
    }

    #[test]
    fn compute_bound_kernels_follow_flops() {
        // 100 TFLOP of GEMM at 312 TFLOPS x 0.7 is ~0.46 s.
        let ns = model().kernel_latency_ns(OpKind::Gemm, &OpCost::new(1e14, 1e9, 1e9));
        let s = ns / 1e9;
        assert!((0.3..0.7).contains(&s), "latency {s} s");
    }

    #[test]
    fn quantized_halves_memory_time() {
        let m = model();
        let fp16 = m.kernel_latency_ns(OpKind::StateUpdate, &OpCost::new(1e9, 8e9, 8e9));
        let q = m.quantized_kernel_latency_ns(OpKind::StateUpdate, &OpCost::new(1e9, 4e9, 4e9));
        let ratio = fp16 / q;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn h100_is_faster_for_memory_bound_work() {
        let cost = OpCost::new(1e9, 5e9, 5e9);
        let a = GpuKernelModel::new(GpuDevice::a100()).kernel_latency_ns(OpKind::Attention, &cost);
        let h = GpuKernelModel::new(GpuDevice::h100()).kernel_latency_ns(OpKind::Attention, &cost);
        assert!(h < a);
        let ratio = a / h;
        assert!((1.4..1.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let ns = model().kernel_latency_ns(OpKind::Others, &OpCost::new(1e3, 1e3, 1e3));
        assert!((3900.0..6000.0).contains(&ns));
    }

    #[test]
    fn energy_scales_with_traffic() {
        let m = model();
        let small = m.kernel_energy_pj(OpKind::StateUpdate, &OpCost::new(1e6, 1e6, 1e6));
        let large = m.kernel_energy_pj(OpKind::StateUpdate, &OpCost::new(1e6, 1e9, 1e9));
        assert!(large > 100.0 * small);
    }
}
