//! Multi-GPU cluster model: tensor parallelism and its collective-communication cost.
//!
//! Large-scale (70B) models are served on eight GPUs connected by NVLink, partitioned
//! with tensor parallelism (Section 5.6 / 6.1): each device holds a shard of every
//! projection, runs the state-update/attention heads that correspond to its shard, and
//! the block output is combined with an all-reduce after the output projection and
//! after the FFN.

use crate::device::GpuDevice;

/// A homogeneous group of GPUs (with attached PIM, in the Pimba configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCluster {
    /// Device type of every member.
    pub device: GpuDevice,
    /// Number of GPUs in the tensor-parallel group.
    pub tensor_parallel: usize,
}

impl GpuCluster {
    /// Builds a cluster of `tensor_parallel` copies of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `tensor_parallel` is zero.
    pub fn new(device: GpuDevice, tensor_parallel: usize) -> Self {
        assert!(tensor_parallel > 0, "tensor_parallel must be at least 1");
        Self {
            device,
            tensor_parallel,
        }
    }

    /// Aggregate memory capacity in bytes.
    pub fn total_capacity_bytes(&self) -> f64 {
        self.device.capacity_bytes() * self.tensor_parallel as f64
    }

    /// Latency of one ring all-reduce of `bytes` (per GPU contribution) in
    /// nanoseconds. With `n` ranks a ring moves `2 (n-1)/n` times the payload over
    /// each link.
    pub(crate) fn all_reduce_latency_ns(&self, bytes: f64) -> f64 {
        if self.tensor_parallel == 1 {
            return 0.0;
        }
        let n = self.tensor_parallel as f64;
        let traffic = 2.0 * (n - 1.0) / n * bytes;
        let link_bw = self.device.nvlink_gbps * 1e9;
        // Latency term per step of the ring (software + link latency).
        let per_step_ns = 3000.0;
        traffic / link_bw * 1e9 + 2.0 * (n - 1.0) * per_step_ns
    }

    /// Communication time of one generation step: two all-reduces per transformer /
    /// SU block over activations of `batch x d_model` (Section 5.6).
    pub fn step_communication_ns(&self, batch: usize, d_model: usize, layers: usize) -> f64 {
        if self.tensor_parallel == 1 {
            return 0.0;
        }
        let bytes = (batch * d_model * 2) as f64; // fp16 activations
        2.0 * layers as f64 * self.all_reduce_latency_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_gpu_has_no_communication() {
        let c = GpuCluster::new(GpuDevice::a100(), 1);
        assert_eq!(c.all_reduce_latency_ns(1e9), 0.0);
        assert_eq!(c.step_communication_ns(128, 8192, 80), 0.0);
    }

    #[test]
    fn all_reduce_scales_with_payload() {
        let c = GpuCluster::new(GpuDevice::a100(), 8);
        let small = c.all_reduce_latency_ns(1e6);
        let large = c.all_reduce_latency_ns(1e9);
        assert!(large > 100.0 * small / 2.0);
        assert!(small > 0.0);
    }

    #[test]
    fn more_ranks_move_more_traffic_per_byte() {
        let two = GpuCluster::new(GpuDevice::a100(), 2).all_reduce_latency_ns(1e9);
        let eight = GpuCluster::new(GpuDevice::a100(), 8).all_reduce_latency_ns(1e9);
        assert!(eight > two);
    }

    #[test]
    fn nvlink4_reduces_communication_time() {
        let a = GpuCluster::new(GpuDevice::a100(), 8).step_communication_ns(128, 8192, 80);
        let h = GpuCluster::new(GpuDevice::h100(), 8).step_communication_ns(128, 8192, 80);
        assert!(h < a);
    }

    #[test]
    fn capacity_and_bandwidth_aggregate() {
        let c = GpuCluster::new(GpuDevice::a100(), 8);
        assert!((c.total_capacity_bytes() - 8.0 * GpuDevice::a100().capacity_bytes()).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ranks_panics() {
        let _ = GpuCluster::new(GpuDevice::a100(), 0);
    }
}
