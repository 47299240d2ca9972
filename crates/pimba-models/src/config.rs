//! Architectural configurations of the evaluated models.
//!
//! The paper evaluates "small scale" models (2.7B for the SU-LLMs, 7B for Zamba2 and
//! OPT) and "large scale" models obtained by proportionally scaling layers and hidden
//! dimensions to roughly 70B parameters while keeping the number of state-update heads
//! fixed (Section 6.1, following Kaplan et al. scaling practice). The configurations
//! below follow the publicly documented shapes of each family; they drive parameter
//! counts, state/KV footprints and per-operator workload generation.

/// The model families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Retentive network — linear attention with a per-head scalar decay.
    RetNet,
    /// Gated Linear Attention — linear attention with an input-dependent gating vector.
    Gla,
    /// Gated linear RNN with two-dimensional (outer-product) state expansion.
    Hgrn2,
    /// Mamba-2 state space model with selective state update.
    Mamba2,
    /// Hybrid model interleaving Mamba-2 blocks with full attention layers (1:6).
    Zamba2,
    /// OPT — a conventional softmax-attention transformer.
    Opt,
    /// LLaMA — a conventional transformer, used only in the quantization study.
    Llama,
}

impl ModelFamily {
    /// Families evaluated in the performance experiments (Figures 12–14).
    pub const PERFORMANCE_SET: [ModelFamily; 6] = [
        ModelFamily::RetNet,
        ModelFamily::Gla,
        ModelFamily::Hgrn2,
        ModelFamily::Mamba2,
        ModelFamily::Zamba2,
        ModelFamily::Opt,
    ];

    /// Returns `true` if the family uses the state update operation in any layer.
    pub fn has_state_update(self) -> bool {
        !matches!(self, ModelFamily::Opt | ModelFamily::Llama)
    }

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::RetNet => "RetNet",
            ModelFamily::Gla => "GLA",
            ModelFamily::Hgrn2 => "HGRN2",
            ModelFamily::Mamba2 => "Mamba-2",
            ModelFamily::Zamba2 => "Zamba2",
            ModelFamily::Opt => "OPT",
            ModelFamily::Llama => "LLaMA",
        }
    }

    /// The kind of decay applied to the state before the outer-product update.
    pub fn decay_kind(self) -> DecayKind {
        match self {
            ModelFamily::RetNet | ModelFamily::Mamba2 => DecayKind::Scalar,
            ModelFamily::Gla | ModelFamily::Hgrn2 => DecayKind::GatingVector,
            ModelFamily::Zamba2 => DecayKind::Scalar,
            ModelFamily::Opt | ModelFamily::Llama => DecayKind::None,
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Shape of the decay operand of the state update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecayKind {
    /// Per-head scalar decay (RetNet, Mamba-2).
    Scalar,
    /// Per-head gating vector broadcast over the state (GLA, HGRN2).
    GatingVector,
    /// No state update (pure attention models).
    None,
}

/// Evaluation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// The largest publicly available pretrained checkpoint (2.7B for SU-LLMs, 7B for
    /// Zamba2/OPT/LLaMA).
    Small,
    /// Scaled to roughly 70B parameters following the paper's scaling rule.
    Large,
}

impl ModelScale {
    /// Both scales, small first.
    pub const ALL: [ModelScale; 2] = [ModelScale::Small, ModelScale::Large];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            ModelScale::Small => "small",
            ModelScale::Large => "large",
        }
    }
}

/// Full architectural configuration of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Which family the model belongs to.
    pub family: ModelFamily,
    /// Evaluation scale this configuration was built for.
    pub scale: ModelScale,
    /// Total number of blocks (state-update blocks + attention blocks).
    pub n_layers: usize,
    /// Number of attention blocks among `n_layers` (0 for pure SU-LLMs,
    /// `n_layers` for pure transformers, `n_layers / 7` for Zamba2-style hybrids).
    pub n_attention_layers: usize,
    /// Model (residual stream) width.
    pub d_model: usize,
    /// Number of state-update or attention heads per block.
    pub n_heads: usize,
    /// Per-head "query/key" dimension (`dim_head` in the paper's Equation 2).
    pub dim_head: usize,
    /// Per-head state/value dimension (`dim_state` in the paper's Equation 2). For
    /// attention layers this is the per-head value dimension.
    pub dim_state: usize,
    /// FFN expansion factor (OPT uses 4x; the SU-LLM blocks fold their expansion into
    /// the block projections, modelled as an equivalent factor).
    pub ffn_mult: f64,
    /// Causal convolution width (Mamba-2 style blocks), 0 if absent.
    pub conv_width: usize,
    /// Vocabulary size (for embedding/projection parameter accounting).
    pub vocab_size: usize,
}

impl ModelConfig {
    /// Returns the configuration the paper uses for `family` at `scale`.
    pub fn preset(family: ModelFamily, scale: ModelScale) -> Self {
        let small = Self::small_preset(family);
        match scale {
            ModelScale::Small => small,
            ModelScale::Large => small.scaled_to(70e9),
        }
    }

    /// Small-scale (largest public checkpoint) configuration for `family`.
    fn small_preset(family: ModelFamily) -> Self {
        match family {
            // RetNet-2.7B: 32 blocks, width 2560, 10 retention heads with 256-d keys
            // and 512-d values => the largest per-request state of the SU-LLM set.
            ModelFamily::RetNet => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 32,
                n_attention_layers: 0,
                d_model: 2560,
                n_heads: 10,
                dim_head: 256,
                dim_state: 512,
                ffn_mult: 2.0,
                conv_width: 0,
                vocab_size: 50_432,
            },
            // GLA-2.7B: 32 blocks, width 2560, 4 heads, key dim d_model/2, value dim
            // d_model => per-head 320 x 640 state.
            ModelFamily::Gla => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 32,
                n_attention_layers: 0,
                d_model: 2560,
                n_heads: 4,
                dim_head: 320,
                dim_state: 640,
                ffn_mult: 2.0,
                conv_width: 0,
                vocab_size: 50_432,
            },
            // HGRN2-2.7B: 32 blocks, width 2560, state expansion 128.
            ModelFamily::Hgrn2 => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 32,
                n_attention_layers: 0,
                d_model: 2560,
                n_heads: 20,
                dim_head: 128,
                dim_state: 128,
                ffn_mult: 2.0,
                conv_width: 0,
                vocab_size: 50_432,
            },
            // Mamba-2 2.7B: 64 blocks, width 2560, inner width 5120 split into 80 heads
            // of 64, SSM state dimension 128, short causal conv of width 4.
            ModelFamily::Mamba2 => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 64,
                n_attention_layers: 0,
                d_model: 2560,
                n_heads: 80,
                dim_head: 64,
                dim_state: 128,
                ffn_mult: 0.0,
                conv_width: 4,
                vocab_size: 50_288,
            },
            // Zamba2-7B: Mamba-2 backbone with one attention block per six Mamba-2
            // blocks; width 3584.
            ModelFamily::Zamba2 => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 56,
                n_attention_layers: 8,
                d_model: 3584,
                n_heads: 56,
                dim_head: 64,
                dim_state: 128,
                ffn_mult: 2.5,
                conv_width: 4,
                vocab_size: 32_000,
            },
            // OPT-6.7B: 32 transformer blocks, width 4096, 32 attention heads.
            ModelFamily::Opt => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 32,
                n_attention_layers: 32,
                d_model: 4096,
                n_heads: 32,
                dim_head: 128,
                dim_state: 128,
                ffn_mult: 4.0,
                conv_width: 0,
                vocab_size: 50_272,
            },
            // LLaMA-7B (quantization study only).
            ModelFamily::Llama => Self {
                family,
                scale: ModelScale::Small,
                n_layers: 32,
                n_attention_layers: 32,
                d_model: 4096,
                n_heads: 32,
                dim_head: 128,
                dim_state: 128,
                ffn_mult: 8.0 / 3.0,
                conv_width: 0,
                vocab_size: 32_000,
            },
        }
    }

    /// Scales the configuration to approximately `target_params` parameters by
    /// multiplying layer count and hidden width by the same factor (params grow as
    /// `layers * d_model^2`, so the factor is the cube root of the ratio).
    ///
    /// Following the paper, the number of state-update heads is kept constant and the
    /// per-head dimensions grow with the hidden width.
    pub fn scaled_to(&self, target_params: f64) -> Self {
        let current = self.param_count();
        let ratio = target_params / current;
        let factor = ratio.cbrt();
        let width_mult = factor;
        let layer_mult = factor;

        let round_to = |value: f64, multiple: usize| -> usize {
            let m = multiple as f64;
            ((value / m).round().max(1.0) * m) as usize
        };

        let d_model = round_to(self.d_model as f64 * width_mult, 128);
        let dim_head = round_to(self.dim_head as f64 * width_mult, 16);
        let dim_state = round_to(self.dim_state as f64 * width_mult, 16);
        let n_layers = round_to(self.n_layers as f64 * layer_mult, 1);
        let n_attention_layers = if self.n_attention_layers == 0 {
            0
        } else if self.n_attention_layers == self.n_layers {
            n_layers
        } else {
            // Preserve the hybrid interleave ratio.
            (n_layers * self.n_attention_layers).div_ceil(self.n_layers)
        };

        Self {
            family: self.family,
            scale: ModelScale::Large,
            n_layers,
            n_attention_layers,
            d_model,
            n_heads: self.n_heads,
            dim_head,
            dim_state,
            ffn_mult: self.ffn_mult,
            conv_width: self.conv_width,
            vocab_size: self.vocab_size,
        }
    }

    /// Number of state-update (non-attention) blocks.
    pub fn n_state_update_layers(&self) -> usize {
        if self.family.has_state_update() {
            self.n_layers - self.n_attention_layers
        } else {
            0
        }
    }

    /// Approximate total parameter count.
    ///
    /// Each block carries its QKV(+decay/gate) projections, output projection and FFN;
    /// the embedding and LM head are tied.
    pub fn param_count(&self) -> f64 {
        let d = self.d_model as f64;
        let su_layers = self.n_state_update_layers() as f64;
        let attn_layers = self.n_attention_layers as f64;

        let su_block = if self.conv_width > 0 {
            // Mamba-2-style block: x/z projections of width d_inner = n_heads*dim_head,
            // shared B/C projections of width dim_state, per-head dt projection,
            // output projection, plus an optional block MLP (Zamba2).
            let d_inner = (self.n_heads * self.dim_head) as f64;
            3.0 * d * d_inner
                + 2.0 * d * self.dim_state as f64
                + d * self.n_heads as f64
                + 2.0 * self.ffn_mult * d * d
        } else {
            // Linear-attention-style block: q, k projections of width n_heads*dim_head,
            // v and output projections of width n_heads*dim_state, a gate/decay
            // projection, plus the block FFN.
            let qk_width = (self.n_heads * self.dim_head) as f64;
            let v_width = (self.n_heads * self.dim_state) as f64;
            d * qk_width * 2.0 + d * v_width * 2.0 + d * qk_width + 2.0 * self.ffn_mult * d * d
        };

        // Attention block: QKVO of width d plus FFN.
        let attn_block = 4.0 * d * d + 2.0 * 4.0f64.max(self.ffn_mult) * d * d;

        let embed = self.vocab_size as f64 * d;
        su_layers * su_block + attn_layers * attn_block + embed
    }

    /// Per-request state footprint in *elements* (all state-update layers).
    pub fn state_elements_per_request(&self) -> f64 {
        self.n_state_update_layers() as f64
            * self.n_heads as f64
            * self.dim_head as f64
            * self.dim_state as f64
    }

    /// Per-request KV-cache footprint in *elements* at sequence length `seq_len`
    /// (attention layers only; keys and values both counted).
    pub fn kv_elements_per_request(&self, seq_len: usize) -> f64 {
        2.0 * self.n_attention_layers as f64
            * self.n_heads as f64
            * self.dim_head as f64
            * seq_len as f64
    }

    /// Human-readable label, e.g. `"Mamba-2 (2.7B)"`.
    pub fn label(&self) -> String {
        let params = self.param_count();
        let billions = params / 1e9;
        format!("{} ({billions:.1}B)", self.family.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SU-LLM families (models whose core operation is the state update).
    const SU_LLMS: [ModelFamily; 4] = [
        ModelFamily::RetNet,
        ModelFamily::Gla,
        ModelFamily::Hgrn2,
        ModelFamily::Mamba2,
    ];

    #[test]
    fn small_presets_have_plausible_param_counts() {
        for family in SU_LLMS {
            let cfg = ModelConfig::preset(family, ModelScale::Small);
            let params = cfg.param_count();
            assert!(
                (1.5e9..5.0e9).contains(&params),
                "{family}: {params:.2e} params out of the 2.7B-class range"
            );
        }
        let zamba = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small);
        assert!((5e9..10e9).contains(&zamba.param_count()));
        let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        assert!((5e9..9e9).contains(&opt.param_count()));
    }

    #[test]
    fn large_presets_are_roughly_70b() {
        for family in ModelFamily::PERFORMANCE_SET {
            let cfg = ModelConfig::preset(family, ModelScale::Large);
            let params = cfg.param_count();
            assert!(
                (45e9..100e9).contains(&params),
                "{family}: {params:.2e} params out of the 70B-class range"
            );
        }
    }

    #[test]
    fn scaling_keeps_head_count() {
        let small = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let large = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Large);
        assert_eq!(small.n_heads, large.n_heads);
        assert!(large.dim_head > small.dim_head);
        assert!(large.n_layers > small.n_layers);
    }

    #[test]
    fn hybrid_ratio_is_preserved() {
        let small = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small);
        let large = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Large);
        let ratio_small = small.n_layers as f64 / small.n_attention_layers as f64;
        let ratio_large = large.n_layers as f64 / large.n_attention_layers as f64;
        assert!((ratio_small - ratio_large).abs() < 2.0);
        assert!(large.n_attention_layers > 0);
        assert!(large.n_state_update_layers() > large.n_attention_layers);
    }

    #[test]
    fn transformers_have_no_state_update_layers() {
        let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        assert_eq!(opt.n_state_update_layers(), 0);
        assert_eq!(opt.state_elements_per_request(), 0.0);
        assert!(opt.kv_elements_per_request(2048) > 0.0);
    }

    #[test]
    fn su_llms_have_no_kv_cache() {
        for family in SU_LLMS {
            let cfg = ModelConfig::preset(family, ModelScale::Small);
            assert_eq!(cfg.kv_elements_per_request(2048), 0.0);
            assert!(cfg.state_elements_per_request() > 0.0);
        }
    }

    #[test]
    fn retnet_state_is_the_largest_of_the_sullm_set() {
        let sizes: Vec<(ModelFamily, f64)> = SU_LLMS
            .iter()
            .map(|&f| {
                (
                    f,
                    ModelConfig::preset(f, ModelScale::Small).state_elements_per_request(),
                )
            })
            .collect();
        let retnet = sizes
            .iter()
            .find(|(f, _)| *f == ModelFamily::RetNet)
            .unwrap()
            .1;
        for (f, s) in &sizes {
            if *f != ModelFamily::RetNet {
                assert!(
                    retnet >= *s,
                    "RetNet state must be the largest ({f} has {s})"
                );
            }
        }
        let hgrn2 = sizes
            .iter()
            .find(|(f, _)| *f == ModelFamily::Hgrn2)
            .unwrap()
            .1;
        for (f, s) in &sizes {
            if *f != ModelFamily::Hgrn2 {
                assert!(
                    hgrn2 <= *s,
                    "HGRN2 state must be the smallest ({f} has {s})"
                );
            }
        }
    }

    #[test]
    fn mamba2_memory_advantage_over_transformer_is_large() {
        // Figure 1(a): the transformer's KV cache at long context dwarfs Mamba-2's
        // constant state.
        let mamba = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        let seq = 4096;
        let mamba_bytes = mamba.state_elements_per_request() * 2.0;
        let kv_bytes = opt.kv_elements_per_request(seq) * 2.0;
        assert!(kv_bytes > 1.5 * mamba_bytes);
    }

    #[test]
    fn decay_kinds() {
        assert_eq!(ModelFamily::RetNet.decay_kind(), DecayKind::Scalar);
        assert_eq!(ModelFamily::Gla.decay_kind(), DecayKind::GatingVector);
        assert_eq!(ModelFamily::Hgrn2.decay_kind(), DecayKind::GatingVector);
        assert_eq!(ModelFamily::Mamba2.decay_kind(), DecayKind::Scalar);
        assert_eq!(ModelFamily::Opt.decay_kind(), DecayKind::None);
    }

    #[test]
    fn labels_and_names() {
        let cfg = ModelConfig::preset(ModelFamily::Gla, ModelScale::Small);
        assert!(cfg.label().starts_with("GLA"));
        assert_eq!(format!("{}", ModelFamily::Mamba2), "Mamba-2");
        assert_eq!(ModelScale::Large.name(), "large");
    }
}
