//! Device-memory footprint accounting (Figure 1a, Figure 15).

use crate::config::SystemConfig;
use pimba_models::config::ModelConfig;
use pimba_models::workload::GenerationWorkload;

/// Memory footprint of a serving configuration, broken down by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBreakdown {
    /// Model parameters (replicated per tensor-parallel shard only once in aggregate).
    pub params_bytes: f64,
    /// SU-LLM state across the whole batch.
    pub state_bytes: f64,
    /// Attention KV cache across the whole batch at the current sequence length.
    pub kv_bytes: f64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total_bytes(&self) -> f64 {
        self.params_bytes + self.state_bytes + self.kv_bytes
    }
}

/// Closed-form memory accounting for one `(system, model)` pair: the
/// admission-control fast path of the `pimba-serve` engine and the memory
/// column of [`StepFunction`](crate::serving::StepFunction).
///
/// `memory_usage_bytes` builds a whole [`GenerationWorkload`]
/// only to read three footprint numbers off it; an admission probe asks that
/// question once per queued candidate per scheduling decision, which makes the
/// workload round trip the hot-path cost. This model precomputes the
/// batch/seq-invariant factors once and answers with a handful of
/// multiply-adds — performed in exactly the same order as the workload
/// accessors ([`GenerationWorkload::param_bytes`]/`state_bytes`/`kv_bytes` and
/// [`MemoryBreakdown::total_bytes`]), so the result is bit-identical and an
/// admission decision can never differ between the two paths.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel<'a> {
    model: &'a ModelConfig,
    params_bytes: f64,
    state_elems_per_request: f64,
    state_bytes_per_value: f64,
    kv_bytes_per_value: f64,
}

impl<'a> MemoryModel<'a> {
    /// Builds the model for `model` stored with `config`'s formats.
    pub fn new(config: &SystemConfig, model: &'a ModelConfig) -> Self {
        Self {
            model,
            params_bytes: model.param_count() * config.formats.weights.bytes_per_value(),
            state_elems_per_request: model.state_elements_per_request(),
            state_bytes_per_value: config.formats.state.bytes_per_value(),
            kv_bytes_per_value: config.formats.kv_cache.bytes_per_value(),
        }
    }

    /// Total device memory in bytes at the given batch and sequence length —
    /// bit-identical to [`memory_usage_bytes`] (the sum associates exactly as
    /// [`MemoryBreakdown::total_bytes`] does).
    pub fn usage_bytes(&self, batch: usize, seq_len: usize) -> f64 {
        let state_bytes = batch as f64 * self.state_elems_per_request * self.state_bytes_per_value;
        let kv_bytes =
            batch as f64 * self.model.kv_elements_per_request(seq_len) * self.kv_bytes_per_value;
        self.params_bytes + state_bytes + kv_bytes
    }

    /// The per-batch dynamic term of the footprint — recurrent state plus KV
    /// cache, excluding the (never-shipped) parameters. This is what a
    /// disaggregated prefill→decode handoff moves between replicas (see
    /// [`crate::transfer`]); bit-identical to summing the corresponding
    /// [`MemoryBreakdown`] components.
    pub fn dynamic_bytes(&self, batch: usize, seq_len: usize) -> f64 {
        let state_bytes = batch as f64 * self.state_elems_per_request * self.state_bytes_per_value;
        let kv_bytes =
            batch as f64 * self.model.kv_elements_per_request(seq_len) * self.kv_bytes_per_value;
        state_bytes + kv_bytes
    }

    /// How many of `candidate_seqs`, taken in order, fit on top of `occupied`
    /// resident requests: the walk behind every admission and restore clamp.
    /// A candidate fits while the batch stays within `max_batch` and the
    /// footprint at the running maximum sequence length — seeded with the
    /// occupants' `anchor_seq`, each candidate folded in before its check —
    /// stays within `bound_bytes`. The walk stops at the first misfit.
    pub fn fitting_prefix(
        &self,
        occupied: usize,
        anchor_seq: usize,
        max_batch: usize,
        bound_bytes: f64,
        candidate_seqs: impl IntoIterator<Item = usize>,
    ) -> usize {
        let mut count = 0;
        let mut max_seq = anchor_seq;
        for seq in candidate_seqs {
            let batch = occupied + count + 1;
            if batch > max_batch {
                break;
            }
            max_seq = max_seq.max(seq);
            if self.usage_bytes(batch, max_seq) > bound_bytes {
                break;
            }
            count += 1;
        }
        count
    }
}

/// Memory footprint of serving `model` on `config` with the given batch and sequence
/// length (aggregate across the tensor-parallel group).
pub fn memory_breakdown(
    config: &SystemConfig,
    model: &ModelConfig,
    batch: usize,
    seq_len: usize,
) -> MemoryBreakdown {
    let wl = GenerationWorkload::single_step_with_formats(model, batch, seq_len, config.formats);
    MemoryBreakdown {
        params_bytes: wl.param_bytes(),
        state_bytes: wl.state_bytes(),
        kv_bytes: wl.kv_bytes(),
    }
}

/// Total memory usage in bytes (convenience wrapper).
pub fn memory_usage_bytes(
    config: &SystemConfig,
    model: &ModelConfig,
    batch: usize,
    seq_len: usize,
) -> f64 {
    memory_breakdown(config, model, batch, seq_len).total_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, SystemKind};
    use pimba_models::config::{ModelFamily, ModelScale};

    /// Whether the configuration fits in the cluster's aggregate HBM capacity.
    fn fits_in_memory(
        config: &SystemConfig,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> bool {
        memory_usage_bytes(config, model, batch, seq_len) <= config.cluster.total_capacity_bytes()
    }

    #[test]
    fn transformer_memory_dwarfs_mamba2_at_long_context() {
        // Figure 1(a): the 2.7B-class transformer needs ~2.3x the memory of Mamba-2.
        let cfg = SystemConfig::small_scale(SystemKind::Gpu);
        let mamba = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        let m = memory_usage_bytes(&cfg, &mamba, 64, 4096);
        let t = memory_usage_bytes(&cfg, &opt, 64, 4096);
        // OPT-6.7B has ~2.5x the parameters of Mamba-2 2.7B, so compare the growth with
        // batch/sequence (state vs KV cache) instead of absolute totals.
        let mamba_dyn = memory_breakdown(&cfg, &mamba, 64, 4096).state_bytes;
        let opt_dyn = memory_breakdown(&cfg, &opt, 64, 4096).kv_bytes;
        assert!(
            opt_dyn > 2.0 * mamba_dyn,
            "KV cache {opt_dyn} vs state {mamba_dyn}"
        );
        assert!(t > m);
    }

    #[test]
    fn pimba_reduces_memory_versus_fp16_systems() {
        // Figure 15: MX8 state + KV cache roughly halves the dynamic memory.
        let model = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Large);
        let fp16 = SystemConfig::large_scale(SystemKind::NeuPims);
        let pimba = SystemConfig::large_scale(SystemKind::Pimba);
        let a = memory_breakdown(&fp16, &model, 128, 1024);
        let b = memory_breakdown(&pimba, &model, 128, 1024);
        assert!(b.kv_bytes < 0.6 * a.kv_bytes);
        assert!(b.state_bytes < 0.6 * a.state_bytes);
        assert_eq!(a.params_bytes, b.params_bytes, "weights stay fp16 in both");
        assert!(b.total_bytes() < a.total_bytes());
    }

    #[test]
    fn memory_grows_with_output_tokens_for_hybrids() {
        let model = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Large);
        let cfg = SystemConfig::large_scale(SystemKind::Pimba);
        let short = memory_usage_bytes(&cfg, &model, 128, 1024);
        let long = memory_usage_bytes(&cfg, &model, 128, 2048);
        assert!(long > short);
    }

    #[test]
    fn memory_model_is_bit_identical_to_the_workload_path() {
        for kind in [SystemKind::Gpu, SystemKind::GpuQuant, SystemKind::Pimba] {
            let cfg = SystemConfig::small_scale(kind);
            for family in [ModelFamily::Mamba2, ModelFamily::Opt, ModelFamily::Zamba2] {
                let model = ModelConfig::preset(family, ModelScale::Small);
                let fast = MemoryModel::new(&cfg, &model);
                for batch in [1usize, 7, 64, 311] {
                    for seq in [1usize, 129, 2048, 8191] {
                        assert_eq!(
                            fast.usage_bytes(batch, seq),
                            memory_usage_bytes(&cfg, &model, batch, seq),
                            "{kind:?}/{family:?} b={batch} s={seq}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_models_fit_on_one_gpu() {
        let cfg = SystemConfig::small_scale(SystemKind::Gpu);
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        assert!(fits_in_memory(&cfg, &model, 64, 2048));
    }

    #[test]
    fn large_models_need_the_cluster() {
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Large);
        let single = SystemConfig::small_scale(SystemKind::Gpu);
        let cluster = SystemConfig::large_scale(SystemKind::Gpu);
        assert!(!fits_in_memory(&single, &model, 128, 2048));
        assert!(fits_in_memory(&cluster, &model, 128, 2048));
    }
}
