//! Per-step workload generation: how many FLOPs and bytes each operator of a model
//! costs during batched generation (and prefill), and how much memory the model's
//! parameters, states and KV caches occupy.
//!
//! These numbers drive every performance experiment: the GPU backend turns them into
//! kernel latencies via its roofline model, the PIM backend maps the state-update and
//! attention shapes onto banks, and the memory accounting behind Figure 1(a) and
//! Figure 15 comes straight from the footprint functions.

use crate::config::ModelConfig;
use crate::ops::{OpCost, OpInstance, OpKind, OpShape};
use pimba_num::QuantFormat;

/// Storage formats used by a serving configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageFormats {
    /// Format of model weights.
    pub weights: QuantFormat,
    /// Format of the SU-LLM state.
    pub state: QuantFormat,
    /// Format of the attention KV cache.
    pub kv_cache: QuantFormat,
    /// Format of activations moving between operators.
    pub activations: QuantFormat,
}

impl StorageFormats {
    /// The fp16 baseline used by the plain GPU system.
    pub fn fp16() -> Self {
        Self {
            weights: QuantFormat::Fp16,
            state: QuantFormat::Fp16,
            kv_cache: QuantFormat::Fp16,
            activations: QuantFormat::Fp16,
        }
    }

    /// Quantized state / KV cache (GPU+Q and Pimba keep weights and activations fp16).
    pub fn quantized_state(format: QuantFormat) -> Self {
        Self {
            weights: QuantFormat::Fp16,
            state: format,
            kv_cache: format,
            activations: QuantFormat::Fp16,
        }
    }
}

impl Default for StorageFormats {
    fn default() -> Self {
        Self::fp16()
    }
}

/// The operator workload of one generation step (one new token for every request in
/// the batch) for a given model.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationWorkload {
    /// Model configuration the workload was generated from.
    pub config: ModelConfig,
    /// Number of concurrent requests.
    pub batch: usize,
    /// Current sequence length (governs attention cost).
    pub seq_len: usize,
    /// Storage formats assumed when counting bytes.
    pub formats: StorageFormats,
    /// Operator instances of the step.
    pub ops: Vec<OpInstance>,
}

impl GenerationWorkload {
    /// Builds the workload of a single generation step with fp16 storage everywhere.
    pub fn single_step(config: &ModelConfig, batch: usize, seq_len: usize) -> Self {
        Self::single_step_with_formats(config, batch, seq_len, StorageFormats::fp16())
    }

    /// Builds the workload of a single generation step with explicit storage formats.
    pub fn single_step_with_formats(
        config: &ModelConfig,
        batch: usize,
        seq_len: usize,
        formats: StorageFormats,
    ) -> Self {
        assert!(batch > 0, "batch must be positive");
        let mut ops = Vec::new();
        let b = batch as f64;
        let d = config.d_model as f64;
        let weight_bytes = formats.weights.bytes_per_value();
        let act_bytes = formats.activations.bytes_per_value();

        // ---- GEMM: every dense projection reads its weights once per step (they are
        // shared across the batch) and performs 2*B*params FLOPs.
        let embed_params = config.vocab_size as f64 * d;
        let block_params = (config.param_count() - embed_params).max(0.0);
        let lm_head_params = embed_params;
        let gemm_params = block_params + lm_head_params;
        let gemm_cost = OpCost::new(
            2.0 * b * gemm_params,
            gemm_params * weight_bytes + b * d * config.n_layers as f64 * 2.0 * act_bytes,
            b * d * config.n_layers as f64 * act_bytes,
        );
        ops.push(OpInstance::new(
            OpKind::Gemm,
            gemm_cost,
            OpShape::Dense {
                m: batch,
                n: config.d_model,
                k: config.d_model,
            },
        ));

        // ---- State update.
        let su_layers = config.n_state_update_layers();
        if su_layers > 0 {
            let state_bytes = formats.state.bytes_per_value();
            let elems =
                (config.n_heads * config.dim_head * config.dim_state) as f64 * su_layers as f64;
            let vec_elems = (config.n_heads * (2 * config.dim_head + 2 * config.dim_state)) as f64
                * su_layers as f64;
            let cost = OpCost::new(
                5.0 * b * elems,
                b * (elems * state_bytes + vec_elems * act_bytes),
                b * (elems * state_bytes
                    + (config.n_heads * config.dim_state * su_layers) as f64 * act_bytes),
            );
            ops.push(OpInstance::new(
                OpKind::StateUpdate,
                cost,
                OpShape::StateUpdate {
                    batch,
                    layers: su_layers,
                    heads: config.n_heads,
                    dim_head: config.dim_head,
                    dim_state: config.dim_state,
                },
            ));
        }

        // ---- Attention over the KV cache (the only seq-len-dependent operator;
        // shared with the seq-invariant fast path via `attention_op`).
        ops.extend(Self::attention_op(config, batch, seq_len, formats));

        // ---- Causal convolution (Mamba-2 style blocks only).
        if config.conv_width > 0 && su_layers > 0 {
            let d_inner = (config.n_heads * config.dim_head) as f64;
            let w = config.conv_width as f64;
            let layers = su_layers as f64;
            let cost = OpCost::new(
                2.0 * b * layers * d_inner * w,
                b * layers * d_inner * (w + 1.0) * act_bytes,
                b * layers * d_inner * act_bytes,
            );
            ops.push(OpInstance::new(OpKind::CausalConv, cost, OpShape::None));
        }

        // ---- Discretization (Mamba-2 style selective SSM parameters).
        if config.conv_width > 0 && su_layers > 0 {
            let layers = su_layers as f64;
            let per_req = (config.n_heads * 8 + config.dim_state * 2) as f64;
            let cost = OpCost::new(
                b * layers * per_req * 4.0,
                b * layers * per_req * act_bytes * 2.0,
                b * layers * per_req * act_bytes,
            );
            ops.push(OpInstance::new(OpKind::Discretization, cost, OpShape::None));
        }

        // ---- Others: norms, activations, residuals, embedding lookups.
        let others_elems = b * d * config.n_layers as f64 * 6.0;
        ops.push(OpInstance::new(
            OpKind::Others,
            OpCost::new(
                others_elems * 4.0,
                others_elems * act_bytes * 2.0,
                others_elems * act_bytes,
            ),
            OpShape::None,
        ));

        Self {
            config: config.clone(),
            batch,
            seq_len,
            formats,
            ops,
        }
    }

    /// Whether a generation step of `config` costs the same at every sequence
    /// length: true exactly when [`GenerationWorkload::attention_op`] returns
    /// `None`, i.e. for attention-free models, whose state update replaces the
    /// KV cache. Dense latency tables use it to keep one entry per batch size.
    pub fn step_is_seq_invariant(config: &ModelConfig) -> bool {
        config.n_attention_layers == 0
    }

    /// The attention operator of one generation step at `seq_len`, or `None` for
    /// attention-free models.
    ///
    /// This is the *only* operator of [`GenerationWorkload::single_step_with_formats`]
    /// whose cost or shape depends on the sequence length — every other operator is a
    /// function of `(config, batch, formats)` alone. Seq-invariant fast paths (the
    /// sweep-row evaluator of `pimba-system`) exploit this by evaluating the rest of
    /// the step once and costing [`AttentionRow::op`] per sequence length; because
    /// this function builds its operator the same way, the two can never disagree
    /// on a single bit of the attention cost.
    pub fn attention_op(
        config: &ModelConfig,
        batch: usize,
        seq_len: usize,
        formats: StorageFormats,
    ) -> Option<OpInstance> {
        AttentionRow::new(config, batch, formats).map(|row| row.op(seq_len))
    }

    /// Builds the workload of a whole prefill over `prompt_len` tokens. Prefill is
    /// GEMM-dominated: every operator processes `batch * prompt_len` tokens at once and
    /// the state update can be restructured into matrix form (Section 5.1), so it is
    /// modelled as additional dense compute.
    pub fn prefill(config: &ModelConfig, batch: usize, prompt_len: usize) -> Self {
        let mut wl = Self::single_step(config, batch, prompt_len);
        let tokens = prompt_len as f64;
        for op in &mut wl.ops {
            match op.kind {
                // Weights are read once but FLOPs scale with the token count.
                OpKind::Gemm => {
                    op.cost.flops *= tokens;
                    op.cost.bytes_written *= tokens;
                }
                // Attention during prefill is quadratic in the prompt length; the
                // per-step cost above already covers one full pass over `prompt_len`
                // keys, so multiply by ~half the token count.
                OpKind::Attention => {
                    op.cost = op.cost.scaled(tokens / 2.0);
                }
                // Chunked state-update prefill touches each state once per chunk and
                // computes `tokens` outer products.
                OpKind::StateUpdate => {
                    op.cost.flops *= tokens;
                }
                _ => {
                    op.cost = op.cost.scaled(tokens);
                }
            }
        }
        wl
    }

    /// Total FLOPs of the step.
    pub fn total_flops(&self) -> f64 {
        self.ops.iter().map(|o| o.cost.flops).sum()
    }

    /// Total bytes moved by the step.
    pub fn total_bytes(&self) -> f64 {
        self.ops.iter().map(|o| o.cost.total_bytes()).sum()
    }

    /// The cost of a particular operator kind (zero cost if absent).
    pub fn cost_of(&self, kind: OpKind) -> OpCost {
        self.ops
            .iter()
            .filter(|o| o.kind == kind)
            .fold(OpCost::default(), |acc, o| acc.add(&o.cost))
    }

    /// Model parameter footprint in bytes.
    pub fn param_bytes(&self) -> f64 {
        self.config.param_count() * self.formats.weights.bytes_per_value()
    }

    /// Total per-batch state footprint in bytes.
    pub fn state_bytes(&self) -> f64 {
        self.batch as f64
            * self.config.state_elements_per_request()
            * self.formats.state.bytes_per_value()
    }

    /// Total per-batch KV-cache footprint in bytes at the current sequence length.
    pub fn kv_bytes(&self) -> f64 {
        self.batch as f64
            * self.config.kv_elements_per_request(self.seq_len)
            * self.formats.kv_cache.bytes_per_value()
    }

    /// Total device memory footprint (parameters + states + KV caches) in bytes.
    pub fn total_memory_bytes(&self) -> f64 {
        self.param_bytes() + self.state_bytes() + self.kv_bytes()
    }
}

/// The attention operator of one `(config, batch, formats)` row with its
/// seq-invariant factors derived once: [`AttentionRow::op`] builds the
/// operator at any sequence length with the same multiplications, in the
/// same left-to-right order, as building it anew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionRow {
    batch: usize,
    layers: usize,
    heads: usize,
    dim_head: usize,
    /// `4·b·L·H`: the FLOP count before the sequence length and head
    /// width multiply in.
    flops_prefix: f64,
    /// `b·L·H`: the batch-wide head count both byte terms scale by.
    batch_heads: f64,
    dim_head_f: f64,
    kv_bytes: f64,
    /// `2·dh·act`: the query and output activations read per head.
    activation_read: f64,
    /// The whole write term: one new key/value and one output per head.
    bytes_written: f64,
}

impl AttentionRow {
    /// The row of `config` at `batch`, or `None` for attention-free models
    /// ([`GenerationWorkload::step_is_seq_invariant`]).
    pub fn new(config: &ModelConfig, batch: usize, formats: StorageFormats) -> Option<Self> {
        if GenerationWorkload::step_is_seq_invariant(config) {
            return None;
        }
        let b = batch as f64;
        let act_bytes = formats.activations.bytes_per_value();
        let kv_bytes = formats.kv_cache.bytes_per_value();
        let layers = config.n_attention_layers as f64;
        let heads = config.n_heads as f64;
        let dh = config.dim_head as f64;
        let batch_heads = b * layers * heads;
        Some(Self {
            batch,
            layers: config.n_attention_layers,
            heads: config.n_heads,
            dim_head: config.dim_head,
            flops_prefix: 4.0 * b * layers * heads,
            batch_heads,
            dim_head_f: dh,
            kv_bytes,
            activation_read: 2.0 * dh * act_bytes,
            bytes_written: batch_heads * (2.0 * dh * kv_bytes + dh * act_bytes),
        })
    }

    /// The operator's cost at `seq_len` cached tokens.
    pub fn cost(&self, seq_len: usize) -> OpCost {
        let s = seq_len as f64;
        let dh = self.dim_head_f;
        OpCost::new(
            self.flops_prefix * s * dh,
            self.batch_heads * (2.0 * s * dh * self.kv_bytes + self.activation_read),
            self.bytes_written,
        )
    }

    /// The operator at `seq_len` cached tokens.
    pub fn op(&self, seq_len: usize) -> OpInstance {
        OpInstance::new(
            OpKind::Attention,
            self.cost(seq_len),
            OpShape::Attention {
                batch: self.batch,
                layers: self.layers,
                heads: self.heads,
                dim_head: self.dim_head,
                seq_len,
            },
        )
    }

    /// `(batch, layers, heads, dim_head)` of the operator's shape.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.batch, self.layers, self.heads, self.dim_head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelFamily, ModelScale};

    fn cfg(family: ModelFamily) -> ModelConfig {
        ModelConfig::preset(family, ModelScale::Small)
    }

    #[test]
    fn state_update_dominates_bytes_for_retnet_at_large_batch() {
        let wl = GenerationWorkload::single_step(&cfg(ModelFamily::RetNet), 128, 2048);
        let su = wl.cost_of(OpKind::StateUpdate).total_bytes();
        let total = wl.total_bytes();
        assert!(
            su / total > 0.6,
            "state update byte share {} too small",
            su / total
        );
    }

    #[test]
    fn state_update_share_grows_with_batch() {
        let small = GenerationWorkload::single_step(&cfg(ModelFamily::RetNet), 32, 2048);
        let large = GenerationWorkload::single_step(&cfg(ModelFamily::RetNet), 128, 2048);
        let share = |wl: &GenerationWorkload| {
            wl.cost_of(OpKind::StateUpdate).total_bytes() / wl.total_bytes()
        };
        assert!(share(&large) > share(&small));
    }

    #[test]
    fn transformer_has_attention_but_no_state_update() {
        let wl = GenerationWorkload::single_step(&cfg(ModelFamily::Opt), 64, 2048);
        assert_eq!(wl.cost_of(OpKind::StateUpdate).flops, 0.0);
        assert!(wl.cost_of(OpKind::Attention).flops > 0.0);
    }

    #[test]
    fn hybrid_has_both() {
        let wl = GenerationWorkload::single_step(&cfg(ModelFamily::Zamba2), 64, 2048);
        assert!(wl.cost_of(OpKind::StateUpdate).flops > 0.0);
        assert!(wl.cost_of(OpKind::Attention).flops > 0.0);
        assert!(wl.cost_of(OpKind::CausalConv).flops > 0.0);
        assert!(wl.cost_of(OpKind::Discretization).flops > 0.0);
    }

    #[test]
    fn attention_cost_scales_with_sequence_length() {
        let short = GenerationWorkload::single_step(&cfg(ModelFamily::Opt), 64, 512);
        let long = GenerationWorkload::single_step(&cfg(ModelFamily::Opt), 64, 4096);
        let ratio = long.cost_of(OpKind::Attention).total_bytes()
            / short.cost_of(OpKind::Attention).total_bytes();
        assert!((6.0..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn state_update_cost_is_independent_of_sequence_length() {
        let short = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 64, 512);
        let long = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 64, 4096);
        assert_eq!(
            short.cost_of(OpKind::StateUpdate).total_bytes(),
            long.cost_of(OpKind::StateUpdate).total_bytes()
        );
    }

    #[test]
    fn quantized_state_halves_state_bytes() {
        let fp16 = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 64, 2048);
        let q = GenerationWorkload::single_step_with_formats(
            &cfg(ModelFamily::Mamba2),
            64,
            2048,
            StorageFormats::quantized_state(QuantFormat::Mx8),
        );
        let ratio = q.cost_of(OpKind::StateUpdate).total_bytes()
            / fp16.cost_of(OpKind::StateUpdate).total_bytes();
        assert!((0.45..0.6).contains(&ratio), "ratio {ratio}");
        assert!(q.state_bytes() < fp16.state_bytes());
    }

    #[test]
    fn state_update_arithmetic_intensity_exceeds_attention() {
        // Figure 1(b): state update has ~4x the arithmetic intensity of attention but
        // both stay memory-bound.
        let su = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 64, 2048)
            .cost_of(OpKind::StateUpdate);
        let attn = GenerationWorkload::single_step(&cfg(ModelFamily::Opt), 64, 2048)
            .cost_of(OpKind::Attention);
        assert!(su.arithmetic_intensity() > attn.arithmetic_intensity());
        assert!(
            su.arithmetic_intensity() < 10.0,
            "state update must remain memory-bound"
        );
    }

    #[test]
    fn gemm_intensity_grows_with_batch() {
        let b32 = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 32, 2048)
            .cost_of(OpKind::Gemm)
            .arithmetic_intensity();
        let b128 = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 128, 2048)
            .cost_of(OpKind::Gemm)
            .arithmetic_intensity();
        assert!(b128 > 2.0 * b32);
    }

    #[test]
    fn memory_footprint_components() {
        let wl = GenerationWorkload::single_step(&cfg(ModelFamily::Zamba2), 64, 2048);
        assert!(wl.param_bytes() > 1e9);
        assert!(wl.state_bytes() > 0.0);
        assert!(wl.kv_bytes() > 0.0);
        let total = wl.total_memory_bytes();
        assert!((total - (wl.param_bytes() + wl.state_bytes() + wl.kv_bytes())).abs() < 1.0);
    }

    #[test]
    fn prefill_is_compute_dominated() {
        let prefill = GenerationWorkload::prefill(&cfg(ModelFamily::Mamba2), 16, 2048);
        let step = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 16, 2048);
        assert!(prefill.total_flops() > 100.0 * step.total_flops());
        let gemm = prefill.cost_of(OpKind::Gemm);
        assert!(
            gemm.arithmetic_intensity() > 100.0,
            "prefill GEMMs must be compute-bound"
        );
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let _ = GenerationWorkload::single_step(&cfg(ModelFamily::Mamba2), 0, 2048);
    }
}
