//! # pimba-num
//!
//! Numerical formats and quantized arithmetic for the Pimba reproduction.
//!
//! The Pimba paper (MICRO 2025) studies how the *state* of post-transformer LLMs
//! (state space models, linear attention, RNNs) behaves when stored and updated in
//! low-precision formats, and builds the processing-in-memory State-update Processing
//! Engine (SPE) around Microsoft's MX block-floating-point format with stochastic
//! rounding. This crate provides everything numerical that the rest of the workspace
//! relies on:
//!
//! * software [`fp16`] (IEEE binary16) conversion,
//! * [`fp8`] e4m3 / e5m2 encode/decode,
//! * per-group scaled [`int8`] quantization,
//! * the [`mx`] MX8 block floating point format (16-element groups sharing an 8-bit
//!   exponent, element pairs sharing a 1-bit microexponent, 6-bit mantissas),
//! * round-to-nearest-even and LFSR-driven stochastic [`rounding`],
//! * bit-level models of the MX multiplier, MX adder and dot-product unit used by the
//!   SPE ([`spe`]),
//! * a format-dispatch layer ([`format`](mod@format)) used by the model/accuracy studies to store
//!   tensors "as if" they lived in a given format.
//!
//! # Example
//!
//! ```rust
//! use pimba_num::{QuantFormat, Rounding, StochasticSource};
//!
//! let mut state = vec![1.0_f32, -0.5, 3.25, 1e-3];
//! let mut src = StochasticSource::from_seed(7);
//! // Store the tensor as MX8 with stochastic rounding and read it back.
//! let err = QuantFormat::Mx8.store_roundtrip(&mut state, Rounding::Stochastic, &mut src);
//! assert!(err.max_abs_error < 0.2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod format;
pub mod fp16;
pub mod fp8;
pub mod int8;
pub mod mx;
pub mod rounding;
pub mod spe;

pub use format::{QuantFormat, StoreError};
pub use mx::{MxGroup, MX_GROUP_SIZE, MX_PAIR_SIZE};
pub use rounding::{Rounding, StochasticSource};
pub use spe::{MxAdder, MxDotProductUnit, MxMultiplier};

/// Number of bits a value occupies on average when stored in `format`,
/// including shared metadata (scales, shared exponents, microexponents).
///
/// These figures drive the memory-traffic model of the serving system: the paper's
/// GPU+Q and Pimba configurations move half the bytes of the fp16 baseline.
///
/// ```rust
/// assert_eq!(pimba_num::bits_per_value(pimba_num::QuantFormat::Fp16), 16.0);
/// assert_eq!(pimba_num::bits_per_value(pimba_num::QuantFormat::Mx8), 8.0);
/// ```
pub fn bits_per_value(format: QuantFormat) -> f64 {
    format.bits_per_value()
}
