//! Operator taxonomy and cost descriptors.
//!
//! The latency breakdowns of the paper (Figure 3, Figure 13) classify generation-phase
//! work into: state update, attention, discretization, causal convolution, GEMM,
//! communication and "others". Each operator instance carries its aggregate FLOP and
//! byte counts plus the structural shape the PIM mapping needs.

/// Operator categories used in the latency/energy breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// The generalized state update (Equation 2), all SU layers of the model.
    StateUpdate,
    /// Softmax attention over the KV cache (score + attend), all attention layers.
    Attention,
    /// Mamba-2 style discretization of the continuous-time parameters.
    Discretization,
    /// Short causal convolution over the token dimension.
    CausalConv,
    /// All dense projections (QKV/gate/output projections, FFNs, LM head).
    Gemm,
    /// Inter-device communication (all-reduce / pipeline transfers).
    Communication,
    /// Element-wise glue: norms, activations, residual additions, embedding lookups.
    Others,
}

impl OpKind {
    /// Every category, in the order the figures stack them.
    pub const ALL: [OpKind; 7] = [
        OpKind::StateUpdate,
        OpKind::Attention,
        OpKind::Discretization,
        OpKind::CausalConv,
        OpKind::Gemm,
        OpKind::Communication,
        OpKind::Others,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::StateUpdate => "State Update",
            OpKind::Attention => "Attention",
            OpKind::Discretization => "Discretization",
            OpKind::CausalConv => "Causal Conv",
            OpKind::Gemm => "GEMM",
            OpKind::Communication => "Communication",
            OpKind::Others => "Others",
        }
    }

    /// Returns `true` for the two operator classes Pimba offloads to the PIM.
    pub fn is_pim_offloadable(self) -> bool {
        matches!(self, OpKind::StateUpdate | OpKind::Attention)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Aggregate FLOP / byte cost of one operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    /// Floating point operations (multiply and add counted separately).
    pub flops: f64,
    /// Bytes read from device memory.
    pub(crate) bytes_read: f64,
    /// Bytes written to device memory.
    pub bytes_written: f64,
}

impl OpCost {
    /// Creates a cost descriptor.
    pub fn new(flops: f64, bytes_read: f64, bytes_written: f64) -> Self {
        Self {
            flops,
            bytes_read,
            bytes_written,
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in FLOPs per byte (0 if no bytes are moved).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0.0 {
            0.0
        } else {
            self.flops / bytes
        }
    }

    /// Element-wise sum of two costs.
    pub fn add(&self, other: &OpCost) -> OpCost {
        OpCost {
            flops: self.flops + other.flops,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }

    /// Cost scaled by a constant factor (e.g. number of layers or requests).
    pub fn scaled(&self, factor: f64) -> OpCost {
        OpCost {
            flops: self.flops * factor,
            bytes_read: self.bytes_read * factor,
            bytes_written: self.bytes_written * factor,
        }
    }
}

/// Structural shape attached to operators that the PIM maps onto banks.
///
/// Shapes are plain integers, so they are `Eq + Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpShape {
    /// State update shape: `batch` independent requests, `layers * heads` total heads,
    /// each with a `dim_head x dim_state` state.
    StateUpdate {
        /// Number of requests in the batch.
        batch: usize,
        /// Number of state-update layers.
        layers: usize,
        /// Heads per layer.
        heads: usize,
        /// Rows of the per-head state.
        dim_head: usize,
        /// Columns of the per-head state.
        dim_state: usize,
    },
    /// Attention shape over a KV cache of `seq_len` cached tokens.
    Attention {
        /// Number of requests in the batch.
        batch: usize,
        /// Number of attention layers.
        layers: usize,
        /// Heads per layer.
        heads: usize,
        /// Per-head dimension.
        dim_head: usize,
        /// Number of cached tokens attended over.
        seq_len: usize,
    },
    /// Dense matrix multiply (activations `m x k` by weights `k x n`).
    Dense {
        /// Rows of the activation matrix (usually the batch size).
        m: usize,
        /// Output width.
        n: usize,
        /// Reduction dimension.
        k: usize,
    },
    /// No structural information.
    None,
}

/// One operator instance of a generation step (aggregated over layers and batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpInstance {
    /// Operator category.
    pub kind: OpKind,
    /// Aggregate cost.
    pub cost: OpCost,
    /// Structural shape (for PIM mapping).
    pub shape: OpShape,
}

impl OpInstance {
    /// Creates an instance.
    pub fn new(kind: OpKind, cost: OpCost, shape: OpShape) -> Self {
        Self { kind, cost, shape }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_intensity() {
        let c = OpCost::new(100.0, 40.0, 10.0);
        assert_eq!(c.total_bytes(), 50.0);
        assert_eq!(c.arithmetic_intensity(), 2.0);
        assert_eq!(OpCost::default().arithmetic_intensity(), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = OpCost::new(1.0, 2.0, 3.0);
        let b = OpCost::new(10.0, 20.0, 30.0);
        let s = a.add(&b);
        assert_eq!(s.flops, 11.0);
        assert_eq!(s.bytes_written, 33.0);
        let d = a.scaled(4.0);
        assert_eq!(d.bytes_read, 8.0);
    }

    #[test]
    fn offloadable_kinds() {
        assert!(OpKind::StateUpdate.is_pim_offloadable());
        assert!(OpKind::Attention.is_pim_offloadable());
        assert!(!OpKind::Gemm.is_pim_offloadable());
        assert!(!OpKind::Communication.is_pim_offloadable());
    }

    #[test]
    fn names_are_nonempty_and_unique() {
        let names: Vec<&str> = OpKind::ALL.iter().map(|k| k.name()).collect();
        for n in &names {
            assert!(!n.is_empty());
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(format!("{}", OpKind::StateUpdate), "State Update");
    }
}
