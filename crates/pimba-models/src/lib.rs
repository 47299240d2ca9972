//! # pimba-models
//!
//! Post-transformer ("SU-LLM") and transformer model descriptions, reference
//! implementations of their core operations, workload generation and the quantization
//! accuracy study used throughout the Pimba reproduction.
//!
//! The Pimba paper evaluates six model families — RetNet, GLA, HGRN2, Mamba-2 (the
//! state-update models), Zamba2 (a hybrid Mamba-2 + attention model) and OPT (a
//! traditional transformer) — at 2.7B/7B ("small scale") and ~70B ("large scale")
//! parameters. This crate captures:
//!
//! * [`config`] — architectural configurations of each family and the scaling rule
//!   used to build the 70B variants,
//! * [`state_update`] — the generalized state update operation (Equation 2 of the
//!   paper) in reference, quantized-storage and SPE-arithmetic variants,
//! * [`attention`] — reference single-step attention with a KV cache,
//! * [`ops`] / [`workload`] — the operator taxonomy and per-generation-step workload
//!   (FLOPs, bytes, shapes) that the GPU and PIM backends consume,
//! * [`synth`] — deterministic synthetic input generators (the repository substitutes
//!   synthetic token streams for the paper's proprietary datasets; see DESIGN.md),
//! * [`accuracy`] — the long-horizon state quantization study behind Figure 4,
//!   Figure 6 and Table 2.
//!
//! # Example
//!
//! ```rust
//! use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
//! use pimba_models::workload::GenerationWorkload;
//!
//! let cfg = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
//! let wl = GenerationWorkload::single_step(&cfg, 64, 2048);
//! assert!(wl.total_flops() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod attention;
pub mod config;
pub mod ops;
pub mod state_update;
pub mod synth;
pub mod workload;

pub use config::{ModelConfig, ModelFamily, ModelScale};
pub use ops::{OpCost, OpInstance, OpKind};
pub use state_update::{DecayInput, StateUpdateEngine, StateUpdateHead};
pub use workload::GenerationWorkload;
