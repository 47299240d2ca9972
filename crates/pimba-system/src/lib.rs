//! # pimba-system
//!
//! End-to-end serving-system model: the Pimba GPU+PIM system and the baselines it is
//! compared against (GPU, GPU with a quantized state, GPU with an HBM-PIM, and a
//! NeuPIMs-like attention-only PIM system).
//!
//! The system executes user requests in two phases (Section 5.1): *prefill* runs
//! entirely on the GPU (the state update can be restructured into compute-dense
//! matrix form), while during *generation* the state-update and attention operators
//! are offloaded to the PIM and everything else stays on the GPU, with the two sides
//! alternating in a blocked fashion because of data dependencies (Section 5.6).
//!
//! * [`config`] — the system design points of the evaluation (Figure 12 onward),
//! * [`serving`] — per-token-step latency breakdowns, throughput, request latency and
//!   energy accounting,
//! * [`memory`] — device memory footprints (parameters, state, KV cache),
//! * [`memo`] — content-addressed result memoization (fingerprints + a
//!   concurrent store): the incremental-grid layer of the fleet runners,
//! * [`cache`] — the sharded shape-keyed latency cache that makes repeated
//!   evaluations of identical operator shapes free (and bit-identical to the
//!   uncached path),
//! * [`table`] — dense per-run `(batch, seq-bucket)` latency tables: the
//!   lock-free O(1) lookup layer of the `pimba-serve` event loop,
//! * [`sweep`] — the parallel grid-sweep engine and SLO-capacity search powering the
//!   figure benches (and the shared [`sweep::parallel_map`] fan-out), built on the
//!   seq-invariant [`serving::StepFunction`] row evaluator,
//! * [`stats`] — exact order-statistic percentiles shared by the sweep engine, the
//!   `pimba-serve` traffic metrics and the benches,
//! * [`obs`] — deterministic observability: trace recording (Perfetto/JSONL
//!   exporters), the labeled metrics registry, and simulator self-profiling —
//!   all guaranteed never to perturb simulation output,
//! * [`transfer`] — the inter-replica state-handoff latency model of
//!   disaggregated prefill/decode serving (`pimba-fleet`).
//!
//! # Example
//!
//! ```rust
//! use pimba_system::config::{SystemConfig, SystemKind};
//! use pimba_system::serving::ServingSimulator;
//! use pimba_models::{ModelConfig, ModelFamily, ModelScale};
//!
//! let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
//! let gpu = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
//! let pimba = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
//! let t_gpu = gpu.generation_throughput(&model, 128, 2048);
//! let t_pimba = pimba.generation_throughput(&model, 128, 2048);
//! assert!(t_pimba > t_gpu);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod config;
pub mod memo;
pub mod memory;
pub mod obs;
pub mod persist;
pub mod pipeline;
pub mod serving;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod transfer;

pub use cache::{CacheStats, LatencyCache};
pub use config::{SystemConfig, SystemKind};
pub use memo::{Fingerprint, FingerprintBuilder, MemoStats, MemoStore};
pub use memory::MemoryModel;
pub use pipeline::PipelineDeployment;
pub use serving::{EnergyBreakdown, ServingSimulator, StepBreakdown, StepFunction};
pub use stats::{exact_percentile, median, percentile_of_sorted};
pub use sweep::{max_batch_within_slo, parallel_map, SweepGrid, SweepRecord, SweepRunner};
pub use table::{PrefillLatencyTable, StepLatencyTable};
pub use transfer::{handoff_bytes, StateTransferModel};
