//! GPU device descriptors.

/// Datasheet-level description of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuDevice {
    /// Marketing name.
    pub name: String,
    /// Peak HBM bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// HBM capacity in GiB.
    pub(crate) mem_capacity_gib: f64,
    /// Peak dense fp16/bf16 tensor throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Peak dense int8 tensor throughput in TOPS.
    pub(crate) int8_tops: f64,
    /// NVLink bandwidth per GPU in GB/s (bidirectional aggregate).
    pub nvlink_gbps: f64,
    /// Kernel launch + synchronization overhead per kernel, in nanoseconds.
    pub kernel_overhead_ns: f64,
}

impl GpuDevice {
    /// NVIDIA A100 80GB (SXM): ~2.0 TB/s HBM2E, 312 TFLOPS fp16, NVLink3 600 GB/s.
    pub fn a100() -> Self {
        Self {
            name: "A100-80GB".into(),
            mem_bw_gbps: 2039.0,
            mem_capacity_gib: 80.0,
            fp16_tflops: 312.0,
            int8_tops: 624.0,
            nvlink_gbps: 600.0,
            kernel_overhead_ns: 4000.0,
        }
    }

    /// NVIDIA H100 (SXM): ~3.35 TB/s HBM3, 989 TFLOPS fp16, NVLink4 900 GB/s.
    pub fn h100() -> Self {
        Self {
            name: "H100-SXM".into(),
            mem_bw_gbps: 3352.0,
            mem_capacity_gib: 80.0,
            fp16_tflops: 989.0,
            int8_tops: 1979.0,
            nvlink_gbps: 900.0,
            kernel_overhead_ns: 4000.0,
        }
    }

    /// Roofline ridge point in FLOPs/byte for fp16 compute.
    pub fn ridge_point(&self) -> f64 {
        self.fp16_tflops * 1e12 / (self.mem_bw_gbps * 1e9)
    }

    /// Memory capacity in bytes.
    pub fn capacity_bytes(&self) -> f64 {
        self.mem_capacity_gib * 1024.0 * 1024.0 * 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_ridge_point_matches_figure1b() {
        // Figure 1(b) places the memory/compute boundary around 140-160 FLOPs/byte.
        let ridge = GpuDevice::a100().ridge_point();
        assert!((130.0..180.0).contains(&ridge), "ridge {ridge}");
    }

    #[test]
    fn h100_is_faster_everywhere() {
        let a = GpuDevice::a100();
        let h = GpuDevice::h100();
        assert!(h.mem_bw_gbps > a.mem_bw_gbps);
        assert!(h.fp16_tflops > a.fp16_tflops);
        assert!(h.nvlink_gbps > a.nvlink_gbps);
    }

    #[test]
    fn capacity_in_bytes() {
        assert!((GpuDevice::a100().capacity_bytes() - 80.0 * (1u64 << 30) as f64).abs() < 1.0);
    }
}
