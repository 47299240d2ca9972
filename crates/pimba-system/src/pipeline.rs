//! Pipeline parallelism (Section 5.6).
//!
//! Besides tensor parallelism (the configuration used in the paper's evaluation),
//! Pimba devices can be composed with *pipeline parallelism*: the model's blocks are
//! partitioned into sequential stages, each stage is assigned to one device (GPU +
//! PIM), and activations are forwarded over NVLink at stage boundaries. During batched
//! generation the pipeline processes micro-batches back to back; the steady-state
//! throughput is set by the slowest stage plus the inter-stage transfer, while a
//! single token's latency is the sum over stages (plus pipeline fill/drain bubbles).

use crate::config::SystemConfig;
use crate::serving::ServingSimulator;
use pimba_models::config::ModelConfig;

/// A pipeline-parallel deployment of one model over several identical devices.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineDeployment {
    /// Number of pipeline stages (devices).
    pub stages: usize,
    /// Number of micro-batches the batch is split into.
    pub micro_batches: usize,
}

/// Steady-state performance of a pipeline-parallel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelinePerformance {
    /// Latency of one token step through the whole pipeline (fill included), in ns.
    pub token_latency_ns: f64,
    /// Steady-state throughput in tokens per second.
    pub throughput_tokens_per_s: f64,
    /// Fraction of time the critical stage is busy (1.0 = no bubbles).
    pub stage_utilization: f64,
}

impl PipelineDeployment {
    /// Creates a deployment.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `micro_batches` is zero.
    pub fn new(stages: usize, micro_batches: usize) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        assert!(micro_batches > 0, "at least one micro-batch is required");
        Self {
            stages,
            micro_batches,
        }
    }

    /// Evaluates the deployment for `model` served by per-stage systems configured as
    /// `config` (each stage holds `n_layers / stages` blocks), at the given batch size
    /// and sequence length.
    ///
    /// The per-stage step time is obtained from the single-device serving simulator by
    /// scaling the per-step workload to the stage's share of layers and the
    /// micro-batch share of requests; the inter-stage transfer moves one micro-batch of
    /// activations per boundary.
    pub fn evaluate(
        &self,
        config: &SystemConfig,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> PipelinePerformance {
        assert!(
            self.stages <= model.n_layers,
            "cannot split {} layers over {} stages",
            model.n_layers,
            self.stages
        );
        // Per-stage model: the same architecture with 1/stages of the blocks. Layer
        // counts are kept at least one per kind to avoid degenerate configs.
        let mut stage_model = model.clone();
        stage_model.n_layers = (model.n_layers / self.stages).max(1);
        stage_model.n_attention_layers = if model.n_attention_layers == 0 {
            0
        } else {
            (model.n_attention_layers / self.stages)
                .max(1)
                .min(stage_model.n_layers)
        };

        let micro_batch = (batch / self.micro_batches).max(1);
        let single_device = SystemConfig {
            cluster: pimba_gpu::cluster::GpuCluster::single(config.cluster.device.clone()),
            ..config.clone()
        };
        let sim = ServingSimulator::new(single_device);
        let stage_step_ns = sim
            .generation_step(&stage_model, micro_batch, seq_len)
            .total_ns;

        // Activation transfer between stages for one micro-batch (fp16 activations).
        let bytes = (micro_batch * model.d_model * 2) as f64;
        let transfer_ns = if self.stages > 1 {
            bytes / (config.cluster.device.nvlink_gbps * 1e9) * 1e9 + 2000.0
        } else {
            0.0
        };

        let stage_time = stage_step_ns + transfer_ns;
        // One token step: every micro-batch flows through every stage; the pipeline is
        // full after `stages` slots and drains afterwards.
        let slots = (self.stages + self.micro_batches - 1) as f64;
        let token_latency_ns = slots * stage_time;
        let throughput = batch as f64 / (self.micro_batches as f64 * stage_time * 1e-9)
            * (self.micro_batches as f64 / slots);
        let utilization = self.micro_batches as f64 / slots;
        PipelinePerformance {
            token_latency_ns,
            throughput_tokens_per_s: throughput,
            stage_utilization: utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use pimba_models::config::{ModelFamily, ModelScale};

    fn model() -> ModelConfig {
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Large)
    }

    #[test]
    fn more_micro_batches_improve_utilization() {
        let cfg = SystemConfig::large_scale(SystemKind::Pimba);
        let m = model();
        let few = PipelineDeployment::new(8, 2).evaluate(&cfg, &m, 128, 2048);
        let many = PipelineDeployment::new(8, 16).evaluate(&cfg, &m, 128, 2048);
        // More micro-batches always shrink the fill/drain bubbles. (Net throughput is a
        // trade-off: during memory-bound generation each micro-batch re-reads the stage
        // weights, so the utilization gain does not automatically translate into more
        // tokens per second.)
        assert!(many.stage_utilization > few.stage_utilization);
        assert!(many.throughput_tokens_per_s > 0.3 * few.throughput_tokens_per_s);
    }

    #[test]
    fn single_stage_has_no_bubbles() {
        let cfg = SystemConfig::small_scale(SystemKind::Pimba);
        let m = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let perf = PipelineDeployment::new(1, 1).evaluate(&cfg, &m, 64, 2048);
        assert!((perf.stage_utilization - 1.0).abs() < 1e-9);
        assert!(perf.throughput_tokens_per_s > 0.0);
    }

    #[test]
    fn pipeline_latency_grows_with_stage_count() {
        let cfg = SystemConfig::large_scale(SystemKind::Pimba);
        let m = model();
        let two = PipelineDeployment::new(2, 8).evaluate(&cfg, &m, 128, 2048);
        let eight = PipelineDeployment::new(8, 8).evaluate(&cfg, &m, 128, 2048);
        assert!(
            eight.token_latency_ns < two.token_latency_ns * 4.5,
            "per-stage work shrinks as stages grow"
        );
        assert!(eight.stage_utilization < two.stage_utilization);
    }

    #[test]
    fn pimba_pipeline_beats_gpu_pipeline() {
        let m = model();
        let gpu = PipelineDeployment::new(8, 8).evaluate(
            &SystemConfig::large_scale(SystemKind::Gpu),
            &m,
            128,
            2048,
        );
        let pimba = PipelineDeployment::new(8, 8).evaluate(
            &SystemConfig::large_scale(SystemKind::Pimba),
            &m,
            128,
            2048,
        );
        assert!(pimba.throughput_tokens_per_s > gpu.throughput_tokens_per_s);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let _ = PipelineDeployment::new(0, 4);
    }
}
