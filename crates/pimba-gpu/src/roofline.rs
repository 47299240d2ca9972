//! Roofline analysis (Figure 1b).

use crate::device::GpuDevice;

/// A roofline for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    device: GpuDevice,
}

/// Classification of an operator under the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// Attainable performance is limited by memory bandwidth.
    MemoryBound,
    /// Attainable performance is limited by peak compute.
    ComputeBound,
}

impl Roofline {
    /// Builds the roofline of `device`.
    pub fn new(device: GpuDevice) -> Self {
        Self { device }
    }

    /// The device this roofline describes.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Attainable performance in TFLOPS at the given arithmetic intensity
    /// (FLOPs per byte).
    pub fn attainable_tflops(&self, arithmetic_intensity: f64) -> f64 {
        let memory_roof = self.device.mem_bw_gbps * 1e9 * arithmetic_intensity / 1e12;
        memory_roof.min(self.device.fp16_tflops)
    }

    /// Whether an operator of the given intensity is memory- or compute-bound.
    pub fn boundedness(&self, arithmetic_intensity: f64) -> Boundedness {
        if arithmetic_intensity < self.device.ridge_point() {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roofline() -> Roofline {
        Roofline::new(GpuDevice::a100())
    }

    #[test]
    fn attention_and_state_update_are_memory_bound() {
        // Figure 1(b): attention sits around 0.25-1 FLOP/byte, state update around
        // 1-2 FLOPs/byte; both are far below the ridge point.
        let r = roofline();
        assert_eq!(r.boundedness(0.25), Boundedness::MemoryBound);
        assert_eq!(r.boundedness(1.25), Boundedness::MemoryBound);
        assert!(r.attainable_tflops(1.25) < 5.0);
    }

    #[test]
    fn large_batch_gemm_is_compute_bound() {
        let r = roofline();
        assert_eq!(r.boundedness(400.0), Boundedness::ComputeBound);
        assert_eq!(r.attainable_tflops(400.0), GpuDevice::a100().fp16_tflops);
    }

    #[test]
    fn attainable_performance_is_monotone_in_intensity() {
        let r = roofline();
        let mut last = 0.0;
        for ai in [0.1, 0.5, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0] {
            let t = r.attainable_tflops(ai);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn state_update_intensity_is_about_4x_attention() {
        // The motivating observation of Figure 1(b), expressed in roofline terms: the
        // state update achieves ~4x the attainable TFLOPS of attention, yet both stay
        // an order of magnitude below the ridge.
        let r = roofline();
        let attention = r.attainable_tflops(0.25);
        let state_update = r.attainable_tflops(1.0);
        assert!((state_update / attention - 4.0).abs() < 0.1);
        assert!(state_update < 0.1 * GpuDevice::a100().fp16_tflops);
    }

    #[test]
    fn efficiency_is_bounded() {
        let r = roofline();
        for ai in [0.1, 1.0, 100.0, 10_000.0] {
            let e = r.attainable_tflops(ai) / GpuDevice::a100().fp16_tflops;
            assert!(e > 0.0 && e <= 1.0);
        }
    }
}
