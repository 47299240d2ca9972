//! Generation-phase serving simulation: per-operator latency breakdowns, token
//! throughput, request latency and energy.

use crate::cache::{LatencyCache, WorkloadKey};
use crate::config::{SystemConfig, SystemKind};
use crate::memory::{MemoryBreakdown, MemoryModel};
use pimba_dram::energy::EnergyCounters;
use pimba_gpu::kernels::GpuKernelModel;
use pimba_models::config::ModelConfig;
use pimba_models::ops::{OpCost, OpInstance, OpKind, OpShape};
use pimba_models::workload::{AttentionRow, GenerationWorkload};
use pimba_pim::kernels::{attention_elements_per_token, DeviceMode};
use std::sync::Arc;

/// Where an operator executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSide {
    /// Executed by GPU kernels.
    Gpu,
    /// Offloaded to the PIM.
    Pim,
}

/// Latency contribution of one operator kind within a generation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatency {
    /// Operator kind.
    pub kind: OpKind,
    /// Which side executed it.
    pub side: ExecutionSide,
    /// Latency in nanoseconds (per token step, whole batch).
    pub latency_ns: f64,
}

/// The latency breakdown of one generation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepBreakdown {
    /// Per-operator latencies.
    pub ops: Vec<OpLatency>,
    /// Total step latency in nanoseconds (blocked GPU/PIM execution: contributions
    /// serialize).
    pub total_ns: f64,
}

impl StepBreakdown {
    /// Latency of one operator kind (0 if absent).
    pub fn latency_of(&self, kind: OpKind) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.kind == kind)
            .map(|o| o.latency_ns)
            .sum()
    }

    /// Fraction of the step spent in one operator kind.
    pub fn fraction_of(&self, kind: OpKind) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.latency_of(kind) / self.total_ns
        }
    }
}

/// Energy breakdown of one generation step (all values in picojoules).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy of state-update data movement between GPU and HBM (zero when offloaded).
    pub state_update_io_pj: f64,
    /// Energy of state-update computation (GPU cores or PIM SPEs).
    pub state_update_compute_pj: f64,
    /// Energy of attention data movement between GPU and HBM (zero when offloaded).
    pub attention_io_pj: f64,
    /// Energy of attention computation.
    pub attention_compute_pj: f64,
    /// Energy of the dense GEMMs.
    pub gemm_pj: f64,
    /// Everything else (conv, discretization, element-wise, communication).
    pub others_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.state_update_io_pj
            + self.state_update_compute_pj
            + self.attention_io_pj
            + self.attention_compute_pj
            + self.gemm_pj
            + self.others_pj
    }
}

/// Latency of serving one batch of requests end to end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestLatency {
    /// Prefill latency in milliseconds.
    pub prefill_ms: f64,
    /// Total generation latency in milliseconds.
    pub generation_ms: f64,
}

impl RequestLatency {
    /// End-to-end latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.prefill_ms + self.generation_ms
    }
}

/// The serving simulator for one system configuration.
///
/// A generation step is a sum of per-operator GPU/PIM latencies. Two
/// evaluators compute it: [`ServingSimulator::generation_step`], the reference,
/// builds the step's workload and evaluates every operator, and
/// [`ServingSimulator::step_function`] evaluates the seq-invariant operators of
/// one `(model, batch)` row once and then only attention per sequence length,
/// summing in the same order so totals are bit-identical.
///
/// By default every simulator carries a [`LatencyCache`] of whole-prefill
/// latencies (shared by clones), so the traffic and fleet grids compute each
/// `(batch, prompt)` prefill once. Cached results are bit-identical to the
/// uncached path by construction (the cache stores the exact `f64` the
/// computation produced, keyed by every input of that computation);
/// [`ServingSimulator::uncached`] builds a cache-free simulator for validation
/// and baseline timing.
#[derive(Debug, Clone)]
pub struct ServingSimulator {
    config: SystemConfig,
    gpu: GpuKernelModel,
    /// The seq-invariant factors of the PIM attention latency when this
    /// system offloads attention.
    attention_mode: Option<DeviceMode>,
    cache: Option<Arc<LatencyCache>>,
}

impl ServingSimulator {
    /// Builds a simulator for `config` with a fresh latency cache.
    pub fn new(config: SystemConfig) -> Self {
        Self::build(config, Some(Arc::new(LatencyCache::new())))
    }

    /// Builds a simulator that recomputes every prefill latency from scratch
    /// (the baseline the cached path is validated and benchmarked against).
    pub fn uncached(config: SystemConfig) -> Self {
        Self::build(config, None)
    }

    /// Builds a simulator sharing an existing cache (the cache must only ever be
    /// shared between simulators of the same `config`, since the cache keys do not
    /// cover the system configuration).
    pub fn with_cache(config: SystemConfig, cache: Arc<LatencyCache>) -> Self {
        Self::build(config, Some(cache))
    }

    fn build(config: SystemConfig, cache: Option<Arc<LatencyCache>>) -> Self {
        let gpu = GpuKernelModel::new(config.cluster.device.clone());
        let attention_mode = config
            .pim
            .as_ref()
            .filter(|_| config.offloads_attention())
            .map(|pim| pim.attention_mode());
        Self {
            config,
            gpu,
            attention_mode,
            cache,
        }
    }

    /// The system configuration being simulated.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The latency cache, if this simulator uses one.
    pub fn cache(&self) -> Option<&Arc<LatencyCache>> {
        self.cache.as_ref()
    }

    /// The generation-step workload with this system's storage formats.
    fn step_workload(
        &self,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> GenerationWorkload {
        GenerationWorkload::single_step_with_formats(model, batch, seq_len, self.config.formats)
    }

    fn shard_cost(&self, cost: &OpCost) -> OpCost {
        cost.scaled(1.0 / self.config.cluster.tensor_parallel as f64)
    }

    fn gpu_latency(&self, kind: OpKind, cost: &OpCost) -> f64 {
        let cost = self.shard_cost(cost);
        if self.config.kind == SystemKind::GpuQuant && kind.is_pim_offloadable() {
            self.gpu.quantized_kernel_latency_ns(kind, &cost)
        } else {
            self.gpu.kernel_latency_ns(kind, &cost)
        }
    }

    /// Latency of the attention operator of `attention`'s row at `seq_len`
    /// on the side [`ServingSimulator::evaluate_op`] picks for it, with the
    /// same bits, but without building the operator's shape or the PIM's
    /// energy counters.
    fn attention_ns(&self, attention: &AttentionFill, seq_len: usize) -> f64 {
        match &self.attention_mode {
            Some(mode) => {
                let elements = attention.elements_per_token * seq_len as f64;
                mode.latency_ns(elements) / self.config.cluster.tensor_parallel as f64
            }
            None => self.gpu_latency(OpKind::Attention, &attention.row.cost(seq_len)),
        }
    }

    fn pim_latency(&self, op: &OpInstance) -> Option<(f64, EnergyCounters)> {
        let pim = self.config.pim.as_ref()?;
        let tp = self.config.cluster.tensor_parallel as f64;
        let result = match op.kind {
            OpKind::StateUpdate if self.config.offloads_state_update() => {
                pim.state_update_latency(&op.shape)
            }
            OpKind::Attention if self.config.offloads_attention() => {
                pim.attention_latency(&op.shape)
            }
            _ => None,
        }?;
        // Heads (and therefore state/KV shards) are distributed across the tensor-
        // parallel group, so each device's PIM handles 1/tp of the columns.
        Some((result.latency_ns / tp, result.energy.scaled(1.0 / tp)))
    }

    /// Evaluates one operator: on the PIM if this system offloads it, on the
    /// GPU otherwise. Both step evaluators compute with it.
    fn evaluate_op(&self, op: &OpInstance) -> OpLatency {
        // Blocked execution: the GPU waits for the PIM result, then continues.
        // Operand transfer / result readback is part of the PIM schedule.
        let (side, latency_ns) = match self.pim_latency(op) {
            Some((pim_ns, _)) => (ExecutionSide::Pim, pim_ns),
            None => (ExecutionSide::Gpu, self.gpu_latency(op.kind, &op.cost)),
        };
        OpLatency {
            kind: op.kind,
            side,
            latency_ns,
        }
    }

    /// Tensor-parallel communication of one step as an operator entry, if any.
    fn communication_op(&self, model: &ModelConfig, batch: usize) -> Option<OpLatency> {
        // Two all-reduces per block.
        let comm = self
            .config
            .cluster
            .step_communication_ns(batch, model.d_model, model.n_layers);
        (comm > 0.0).then_some(OpLatency {
            kind: OpKind::Communication,
            side: ExecutionSide::Gpu,
            latency_ns: comm,
        })
    }

    /// Builds the seq-invariant [`StepFunction`] of one `(model, batch)` pair:
    /// every operator except attention is evaluated once up front, after which
    /// [`StepFunction::breakdown`] and [`StepFunction::memory_bytes`] answer any
    /// sequence length with a single attention evaluation and a handful of
    /// floating-point additions — no workload construction. Results are
    /// bit-identical to [`ServingSimulator::generation_step`]
    /// and [`ServingSimulator::memory_usage_bytes`] (asserted by
    /// `tests/sweep_regression.rs`).
    pub fn step_function<'a>(&'a self, model: &'a ModelConfig, batch: usize) -> StepFunction<'a> {
        // The probe sequence length is irrelevant: the attention operator is
        // skipped and every other operator ignores it (the single invariant
        // `GenerationWorkload::attention_op` exists to encode).
        let workload = self.step_workload(model, batch, 1);
        let attention = AttentionRow::new(model, batch, self.config.formats).map(|row| {
            let (batch, layers, heads, dim_head) = row.shape();
            Box::new(AttentionFill {
                row,
                elements_per_token: attention_elements_per_token(batch, layers, heads, dim_head),
            })
        });
        let communication = self.communication_op(model, batch);
        // Exact capacity, so boxing the operators does not reallocate.
        let mut ops = Vec::with_capacity(
            workload.ops.len() - usize::from(attention.is_some())
                + usize::from(communication.is_some()),
        );
        let mut pre_len = None;
        for op in &workload.ops {
            if op.kind == OpKind::Attention {
                pre_len = Some(ops.len());
            } else {
                ops.push(self.evaluate_op(op));
            }
        }
        let pre_len = pre_len.unwrap_or(ops.len());
        ops.extend(communication);
        let ops = ops.into_boxed_slice();
        let pre_ns = ops[..pre_len]
            .iter()
            .fold(0.0, |total, op| total + op.latency_ns);
        StepFunction {
            sim: self,
            batch,
            ops,
            pre_len,
            pre_ns,
            attention,
            memory: MemoryModel::new(&self.config, model),
        }
    }

    /// Simulates one generation step and returns its latency breakdown.
    pub fn generation_step(
        &self,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> StepBreakdown {
        let workload = self.step_workload(model, batch, seq_len);
        let mut ops: Vec<OpLatency> = workload.ops.iter().map(|op| self.evaluate_op(op)).collect();
        ops.extend(self.communication_op(model, batch));
        let total_ns = ops.iter().map(|o| o.latency_ns).sum();
        StepBreakdown { ops, total_ns }
    }

    /// Token-generation throughput in tokens per second (whole batch, steady state at
    /// `seq_len`).
    pub fn generation_throughput(&self, model: &ModelConfig, batch: usize, seq_len: usize) -> f64 {
        let step = self.generation_step(model, batch, seq_len);
        batch as f64 / (step.total_ns * 1e-9)
    }

    /// Latency in nanoseconds of prefilling `prompt_len` tokens for a batch of
    /// requests. Prefill runs on the GPU in every system (the state update can be
    /// restructured into compute-dense matrix form, Section 5.1), so this is a pure
    /// GPU-kernel sum — also the prefill building block of the event-driven
    /// traffic simulator (`pimba-serve`). Memoized per (model, batch, prompt_len)
    /// in the attached [`LatencyCache`], if any.
    pub fn prefill_latency_ns(&self, model: &ModelConfig, batch: usize, prompt_len: usize) -> f64 {
        let compute = || {
            let prefill_wl = GenerationWorkload::prefill(model, batch, prompt_len);
            let mut prefill_ns = 0.0;
            for op in &prefill_wl.ops {
                prefill_ns += self
                    .gpu
                    .kernel_latency_ns(op.kind, &self.shard_cost(&op.cost));
            }
            prefill_ns
        };
        match &self.cache {
            Some(cache) => cache.prefill_latency(
                WorkloadKey::new(model, batch, prompt_len, self.config.formats),
                compute,
            ),
            None => compute(),
        }
    }

    /// Latency of serving a batch end to end: a prefill over `prompt_len` tokens
    /// followed by `output_len` generation steps (attention cost grows as the sequence
    /// extends; sampled at a handful of points and integrated).
    pub fn request_latency(
        &self,
        model: &ModelConfig,
        batch: usize,
        prompt_len: usize,
        output_len: usize,
    ) -> RequestLatency {
        let prefill_ns = self.prefill_latency_ns(model, batch, prompt_len);

        // Generation: integrate the per-step latency over the growing sequence.
        let samples = 8usize.min(output_len.max(1));
        let mut generation_ns = 0.0;
        for s in 0..samples {
            let frac = (s as f64 + 0.5) / samples as f64;
            let seq = prompt_len + (frac * output_len as f64) as usize;
            let step = self.generation_step(model, batch, seq.max(1));
            generation_ns += step.total_ns * output_len as f64 / samples as f64;
        }
        RequestLatency {
            prefill_ms: prefill_ns / 1e6,
            generation_ms: generation_ns / 1e6,
        }
    }

    /// Energy of one generation step.
    pub fn step_energy(
        &self,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> EnergyBreakdown {
        let workload = self.step_workload(model, batch, seq_len);
        let mut out = EnergyBreakdown::default();
        for op in &workload.ops {
            let cost = self.shard_cost(&op.cost);
            let tp = self.config.cluster.tensor_parallel as f64;
            match (op.kind, self.pim_latency(op)) {
                (OpKind::StateUpdate, Some((_, pim_energy))) => {
                    out.state_update_io_pj += pim_energy.io_pj * tp;
                    out.state_update_compute_pj += (pim_energy.activation_pj
                        + pim_energy.column_pj
                        + pim_energy.pim_compute_pj)
                        * tp;
                }
                (OpKind::Attention, Some((_, pim_energy))) => {
                    out.attention_io_pj += pim_energy.io_pj * tp;
                    out.attention_compute_pj += (pim_energy.activation_pj
                        + pim_energy.column_pj
                        + pim_energy.pim_compute_pj)
                        * tp;
                }
                (OpKind::StateUpdate, None) => {
                    // On the GPU the whole state crosses the HBM interface.
                    out.state_update_io_pj += cost.total_bytes() * 28.0 * tp;
                    out.state_update_compute_pj += cost.flops * 0.55 * tp;
                }
                (OpKind::Attention, None) => {
                    out.attention_io_pj += cost.total_bytes() * 28.0 * tp;
                    out.attention_compute_pj += cost.flops * 0.55 * tp;
                }
                (OpKind::Gemm, _) => {
                    out.gemm_pj += self.gpu.kernel_energy_pj(op.kind, &cost) * tp;
                }
                _ => {
                    out.others_pj += self.gpu.kernel_energy_pj(op.kind, &cost) * tp;
                }
            }
        }
        out
    }

    /// Memory footprint of serving `model` at the given batch and sequence length,
    /// broken down by component.
    pub fn memory_breakdown(
        &self,
        model: &ModelConfig,
        batch: usize,
        seq_len: usize,
    ) -> MemoryBreakdown {
        crate::memory::memory_breakdown(&self.config, model, batch, seq_len)
    }

    /// Total device memory in use across the cluster, in bytes.
    pub fn memory_usage_bytes(&self, model: &ModelConfig, batch: usize, seq_len: usize) -> f64 {
        self.memory_breakdown(model, batch, seq_len).total_bytes()
    }
}

/// The generation step of one `(system, model, batch)` as a function of the
/// sequence length alone.
///
/// Built by [`ServingSimulator::step_function`]. Everything that does not
/// depend on the sequence length — all operators except attention, the
/// tensor-parallel communication, the memory model, the sum of the operators
/// preceding attention and the seq-invariant factors of attention itself — is
/// evaluated exactly once at construction; per sequence length only the
/// attention latency is evaluated, from those factors. Sum order matches
/// [`ServingSimulator::generation_step`] term for term, so totals are
/// bit-identical, not merely close. One is built per batch row of a
/// [`StepLatencyTable`](crate::table::StepLatencyTable), so the attention
/// factors sit behind a box and the struct stays small.
#[derive(Debug, Clone)]
pub struct StepFunction<'a> {
    sim: &'a ServingSimulator,
    batch: usize,
    /// Evaluated operators in workload order without attention
    /// (communication last).
    ops: Box<[OpLatency]>,
    /// How many of `ops` precede attention.
    pre_len: usize,
    /// The latencies of `ops[..pre_len]` added in order from `0.0`.
    pre_ns: f64,
    /// The attention operator, `None` for attention-free models.
    attention: Option<Box<AttentionFill>>,
    /// Closed-form memory accounting of this `(system, model)`.
    memory: MemoryModel<'a>,
}

/// The seq-invariant part of one step-function row's attention operator.
#[derive(Debug, Clone)]
struct AttentionFill {
    row: AttentionRow,
    /// KV elements the PIM streams per cached token.
    elements_per_token: f64,
}

impl StepFunction<'_> {
    /// The batch size this function was built for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The full latency breakdown of one generation step at `seq_len` —
    /// bit-identical to `generation_step(model, batch, seq_len)`.
    pub fn breakdown(&self, seq_len: usize) -> StepBreakdown {
        let (pre, post) = self.ops.split_at(self.pre_len);
        let mut ops = Vec::with_capacity(self.ops.len() + 1);
        ops.extend_from_slice(pre);
        if let Some(attention) = &self.attention {
            ops.push(self.sim.evaluate_op(&attention.row.op(seq_len)));
        }
        ops.extend_from_slice(post);
        let total_ns = ops.iter().map(|o| o.latency_ns).sum();
        StepBreakdown { ops, total_ns }
    }

    /// The total step latency at `seq_len` without materializing the
    /// breakdown — the same additions in the same order as
    /// [`StepFunction::breakdown`]'s `total_ns` (and therefore as
    /// `generation_step`), starting from the cached pre-attention sum, with
    /// no per-call allocation and no energy accounting. This is the fill
    /// path of the dense [`StepLatencyTable`](crate::table::StepLatencyTable).
    pub fn total_ns(&self, seq_len: usize) -> f64 {
        let mut total = self.pre_ns;
        if let Some(attention) = &self.attention {
            total += self.sim.attention_ns(attention, seq_len);
        }
        for op in &self.ops[self.pre_len..] {
            total += op.latency_ns;
        }
        total
    }

    /// Aggregate device memory at `seq_len` — bit-identical to
    /// `memory_usage_bytes(model, batch, seq_len)`.
    pub fn memory_bytes(&self, seq_len: usize) -> f64 {
        self.memory.usage_bytes(self.batch, seq_len)
    }
}

/// Convenience: the `OpShape` of the state-update operator for a model/batch, used by
/// design-space studies that bypass the full serving simulator.
pub fn state_update_shape(model: &ModelConfig, batch: usize) -> OpShape {
    OpShape::StateUpdate {
        batch,
        layers: model.n_state_update_layers(),
        heads: model.n_heads,
        dim_head: model.dim_head,
        dim_state: model.dim_state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimba_models::config::{ModelFamily, ModelScale};

    fn model(family: ModelFamily) -> ModelConfig {
        ModelConfig::preset(family, ModelScale::Small)
    }

    fn sim(kind: SystemKind) -> ServingSimulator {
        ServingSimulator::new(SystemConfig::small_scale(kind))
    }

    #[test]
    fn pimba_beats_all_baselines_on_su_llms() {
        let m = model(ModelFamily::RetNet);
        let mut throughputs = Vec::new();
        for kind in SystemKind::MAIN_COMPARISON {
            throughputs.push((kind, sim(kind).generation_throughput(&m, 128, 2048)));
        }
        let get = |k: SystemKind| throughputs.iter().find(|(kind, _)| *kind == k).unwrap().1;
        assert!(get(SystemKind::Pimba) > get(SystemKind::GpuPim));
        assert!(get(SystemKind::Pimba) > get(SystemKind::GpuQuant));
        assert!(get(SystemKind::GpuQuant) > get(SystemKind::Gpu));
        assert!(get(SystemKind::GpuPim) > get(SystemKind::Gpu));
    }

    #[test]
    fn pimba_speedup_over_gpu_is_in_the_papers_range() {
        // Figure 12: average 1.9x, up to 4.1x for state-update-dominated workloads.
        let m = model(ModelFamily::RetNet);
        let gpu = sim(SystemKind::Gpu).generation_throughput(&m, 128, 2048);
        let pimba = sim(SystemKind::Pimba).generation_throughput(&m, 128, 2048);
        let speedup = pimba / gpu;
        assert!((1.5..5.0).contains(&speedup), "speedup {speedup:.2}");
    }

    #[test]
    fn state_update_fraction_grows_with_batch_on_gpu() {
        // Figure 3: RetNet state updates grow from ~42% at batch 32 to ~74% at 128.
        let m = model(ModelFamily::RetNet);
        let s = sim(SystemKind::Gpu);
        let small = s
            .generation_step(&m, 32, 2048)
            .fraction_of(OpKind::StateUpdate);
        let large = s
            .generation_step(&m, 128, 2048)
            .fraction_of(OpKind::StateUpdate);
        assert!(large > small);
        assert!(large > 0.5, "state update share at batch 128 is {large:.2}");
    }

    #[test]
    fn pimba_reduces_state_update_latency_by_an_order_of_magnitude() {
        let m = model(ModelFamily::Mamba2);
        let gpu = sim(SystemKind::Gpu).generation_step(&m, 128, 2048);
        let pimba = sim(SystemKind::Pimba).generation_step(&m, 128, 2048);
        let ratio = gpu.latency_of(OpKind::StateUpdate) / pimba.latency_of(OpKind::StateUpdate);
        assert!(
            (8.0..25.0).contains(&ratio),
            "state-update latency ratio {ratio:.1}"
        );
    }

    #[test]
    fn attention_is_offloaded_for_hybrids_and_transformers() {
        let m = model(ModelFamily::Zamba2);
        let pimba = sim(SystemKind::Pimba).generation_step(&m, 64, 2048);
        let attn = pimba
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Attention)
            .unwrap();
        assert_eq!(attn.side, ExecutionSide::Pim);
        let gpu = sim(SystemKind::Gpu).generation_step(&m, 64, 2048);
        let gpu_attn = gpu
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Attention)
            .unwrap();
        assert_eq!(gpu_attn.side, ExecutionSide::Gpu);
        assert!(attn.latency_ns < gpu_attn.latency_ns);
    }

    #[test]
    fn neupims_helps_attention_but_not_state_update() {
        let m = model(ModelFamily::Zamba2);
        let neupims = ServingSimulator::new(SystemConfig::small_scale(SystemKind::NeuPims));
        let step = neupims.generation_step(&m, 64, 2048);
        let su = step
            .ops
            .iter()
            .find(|o| o.kind == OpKind::StateUpdate)
            .unwrap();
        let attn = step
            .ops
            .iter()
            .find(|o| o.kind == OpKind::Attention)
            .unwrap();
        assert_eq!(su.side, ExecutionSide::Gpu);
        assert_eq!(attn.side, ExecutionSide::Pim);
        let pimba = sim(SystemKind::Pimba).generation_step(&m, 64, 2048);
        assert!(
            pimba.total_ns < step.total_ns,
            "Pimba must beat the attention-only PIM"
        );
    }

    #[test]
    fn large_scale_adds_communication() {
        let m = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Large);
        let s = ServingSimulator::new(SystemConfig::large_scale(SystemKind::Pimba));
        let step = s.generation_step(&m, 128, 2048);
        assert!(step.latency_of(OpKind::Communication) > 0.0);
        let small = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let small_step = small.generation_step(&model(ModelFamily::Mamba2), 128, 2048);
        assert_eq!(small_step.latency_of(OpKind::Communication), 0.0);
    }

    #[test]
    fn energy_pimba_saves_state_update_io() {
        let m = model(ModelFamily::Mamba2);
        let gpu = sim(SystemKind::Gpu).step_energy(&m, 128, 2048);
        let pimba = sim(SystemKind::Pimba).step_energy(&m, 128, 2048);
        assert!(pimba.state_update_io_pj < 0.3 * gpu.state_update_io_pj);
        assert!(pimba.total_pj() < gpu.total_pj());
    }

    #[test]
    fn request_latency_composes_prefill_and_generation() {
        let m = model(ModelFamily::Mamba2);
        let s = sim(SystemKind::Pimba);
        let lat = s.request_latency(&m, 16, 512, 128);
        assert!(lat.prefill_ms > 0.0);
        assert!(
            lat.generation_ms > lat.prefill_ms,
            "128 decode steps outweigh one prefill"
        );
        assert!((lat.total_ms() - (lat.prefill_ms + lat.generation_ms)).abs() < 1e-9);
    }

    #[test]
    fn throughput_larger_batches_amortize_weights() {
        let m = model(ModelFamily::Mamba2);
        let s = sim(SystemKind::Pimba);
        let t32 = s.generation_throughput(&m, 32, 2048);
        let t128 = s.generation_throughput(&m, 128, 2048);
        assert!(t128 > 1.5 * t32, "batching must amortize weight reads");
    }

    #[test]
    fn h100_systems_are_faster() {
        let m = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Large);
        let a100 = ServingSimulator::new(SystemConfig::large_scale(SystemKind::Pimba));
        let h100 = ServingSimulator::new(SystemConfig::h100_large_scale(SystemKind::Pimba));
        assert!(
            h100.generation_throughput(&m, 128, 2048) > a100.generation_throughput(&m, 128, 2048)
        );
    }

    #[test]
    fn step_functions_stay_small() {
        // Step tables hold one per batch row; the attention factors sit
        // behind a box so that caching them does not grow the row.
        assert!(std::mem::size_of::<StepFunction<'_>>() <= 112);
    }

    #[test]
    fn state_update_shape_helper() {
        let m = model(ModelFamily::Mamba2);
        match state_update_shape(&m, 64) {
            OpShape::StateUpdate {
                batch,
                layers,
                heads,
                ..
            } => {
                assert_eq!(batch, 64);
                assert_eq!(layers, m.n_state_update_layers());
                assert_eq!(heads, m.n_heads);
            }
            _ => panic!("wrong shape"),
        }
    }
}
