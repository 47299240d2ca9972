//! Format dispatch: a single enum covering every storage format evaluated in the
//! paper, with a uniform "store a tensor through this format" operation.
//!
//! The accuracy study (Figure 4, Figure 6, Table 2) compares `fp16`, `int8`, `e4m3`,
//! `e5m2` and `mx8`, each with round-to-nearest and stochastic rounding. The serving
//! model additionally needs the storage cost per value to compute memory traffic.

use crate::fp16::f16_roundtrip;
use crate::fp8::Fp8Kind;
use crate::int8::{int8_bits_per_value, int8_store_roundtrip};
use crate::mx::{mx8_bits_per_value, mx8_store_roundtrip};
use crate::rounding::{Rounding, StochasticSource};

/// Storage formats for the state / KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// IEEE binary32 (lossless reference; not evaluated in the paper but useful as a
    /// golden model).
    Fp32,
    /// IEEE binary16, the GPU baseline storage format.
    Fp16,
    /// 8-bit integer with a scale shared by every 32 elements.
    Int8,
    /// 8-bit float with 4 exponent / 3 mantissa bits.
    E4m3,
    /// 8-bit float with 5 exponent / 2 mantissa bits.
    E5m2,
    /// MX8 block floating point (16-wide groups, paired microexponents).
    Mx8,
}

/// Error statistics produced by a store round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreError {
    /// Largest absolute difference between the original and stored values.
    pub max_abs_error: f32,
    /// Root-mean-square error across the tensor.
    pub(crate) rms_error: f32,
}

impl QuantFormat {
    /// All formats in the order the paper's figures present them.
    pub const ALL: [QuantFormat; 6] = [
        QuantFormat::Fp32,
        QuantFormat::Fp16,
        QuantFormat::Int8,
        QuantFormat::E4m3,
        QuantFormat::E5m2,
        QuantFormat::Mx8,
    ];

    /// The 8-bit formats studied in Figure 4 / Figure 6.
    pub const EIGHT_BIT: [QuantFormat; 4] = [
        QuantFormat::Int8,
        QuantFormat::E4m3,
        QuantFormat::E5m2,
        QuantFormat::Mx8,
    ];

    /// Average storage bits per value including shared metadata.
    pub fn bits_per_value(self) -> f64 {
        match self {
            QuantFormat::Fp32 => 32.0,
            QuantFormat::Fp16 => 16.0,
            QuantFormat::Int8 => int8_bits_per_value(),
            QuantFormat::E4m3 | QuantFormat::E5m2 => 8.0,
            QuantFormat::Mx8 => mx8_bits_per_value(),
        }
    }

    /// Bytes per value (bits / 8), convenient for traffic accounting.
    pub fn bytes_per_value(self) -> f64 {
        self.bits_per_value() / 8.0
    }

    /// Mantissa precision in bits (including the implicit bit where applicable); the
    /// quantity that governs susceptibility to swamping.
    pub fn mantissa_bits(self) -> u32 {
        match self {
            QuantFormat::Fp32 => 24,
            QuantFormat::Fp16 => 11,
            QuantFormat::Int8 => 7,
            QuantFormat::E4m3 => 4,
            QuantFormat::E5m2 => 3,
            QuantFormat::Mx8 => 6,
        }
    }

    /// Label used in the figures, e.g. `"mx8"` or `"e4m3SR"` when combined with a
    /// rounding mode.
    pub fn label(self, rounding: Rounding) -> String {
        let base = match self {
            QuantFormat::Fp32 => "fp32",
            QuantFormat::Fp16 => "fp16",
            QuantFormat::Int8 => "int8",
            QuantFormat::E4m3 => "e4m3",
            QuantFormat::E5m2 => "e5m2",
            QuantFormat::Mx8 => "mx8",
        };
        format!("{base}{}", rounding.label_suffix())
    }

    /// Stores every value of `values` through the format (in place) and returns the
    /// introduced error statistics.
    ///
    /// This emulates what happens when a tensor (the SU-LLM state or a KV-cache block)
    /// is written to memory in the format and later read back: computation upstream is
    /// assumed to happen in higher precision.
    pub fn store_roundtrip(
        self,
        values: &mut [f32],
        rounding: Rounding,
        src: &mut StochasticSource,
    ) -> StoreError {
        if values.is_empty() {
            return StoreError::default();
        }
        let original: Vec<f32> = values.to_vec();
        match self {
            QuantFormat::Fp32 => {}
            QuantFormat::Fp16 => {
                for v in values.iter_mut() {
                    *v = f16_roundtrip(*v, rounding, src);
                }
            }
            QuantFormat::Int8 => {
                let _ = int8_store_roundtrip(values, rounding, src);
            }
            QuantFormat::E4m3 => {
                for v in values.iter_mut() {
                    *v = Fp8Kind::E4M3.roundtrip(*v, rounding, src);
                }
            }
            QuantFormat::E5m2 => {
                for v in values.iter_mut() {
                    *v = Fp8Kind::E5M2.roundtrip(*v, rounding, src);
                }
            }
            QuantFormat::Mx8 => {
                let _ = mx8_store_roundtrip(values, rounding, src);
            }
        }
        let mut max_abs = 0.0f32;
        let mut sq_sum = 0.0f64;
        for (o, n) in original.iter().zip(values.iter()) {
            let d = o - n;
            max_abs = max_abs.max(d.abs());
            sq_sum += f64::from(d) * f64::from(d);
        }
        StoreError {
            max_abs_error: max_abs,
            rms_error: (sq_sum / original.len() as f64).sqrt() as f32,
        }
    }
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label(Rounding::Nearest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_value_table() {
        assert_eq!(QuantFormat::Fp32.bits_per_value(), 32.0);
        assert_eq!(QuantFormat::Fp16.bits_per_value(), 16.0);
        assert_eq!(QuantFormat::Mx8.bits_per_value(), 8.0);
        assert_eq!(QuantFormat::E4m3.bits_per_value(), 8.0);
        assert!((QuantFormat::Int8.bits_per_value() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(QuantFormat::Mx8.label(Rounding::Stochastic), "mx8SR");
        assert_eq!(QuantFormat::E4m3.label(Rounding::Nearest), "e4m3");
        assert_eq!(QuantFormat::Int8.label(Rounding::Stochastic), "int8SR");
        assert_eq!(format!("{}", QuantFormat::Fp16), "fp16");
    }

    #[test]
    fn fp32_store_is_lossless() {
        let mut src = StochasticSource::from_seed(1);
        let mut vals = vec![1.234567f32, -9.87e-5, 4096.125];
        let err = QuantFormat::Fp32.store_roundtrip(&mut vals, Rounding::Nearest, &mut src);
        assert_eq!(err.max_abs_error, 0.0);
        assert_eq!(err.rms_error, 0.0);
    }

    #[test]
    fn empty_slice_is_ok() {
        let mut src = StochasticSource::from_seed(1);
        let mut vals: Vec<f32> = vec![];
        let err = QuantFormat::Mx8.store_roundtrip(&mut vals, Rounding::Nearest, &mut src);
        assert_eq!(err.max_abs_error, 0.0);
    }

    #[test]
    fn error_ordering_follows_mantissa_width() {
        // On a smooth tensor, wider mantissas must give smaller RMS error.
        let mut src = StochasticSource::from_seed(2);
        let base: Vec<f32> = (0..256)
            .map(|i| ((i as f32) * 0.13).sin() * 3.0 + 3.5)
            .collect();
        let mut errs = Vec::new();
        for fmt in [
            QuantFormat::Fp16,
            QuantFormat::Int8,
            QuantFormat::Mx8,
            QuantFormat::E4m3,
            QuantFormat::E5m2,
        ] {
            let mut v = base.clone();
            let e = fmt.store_roundtrip(&mut v, Rounding::Nearest, &mut src);
            errs.push((fmt, e.rms_error));
        }
        let fp16 = errs[0].1;
        let e5m2 = errs[4].1;
        assert!(fp16 < errs[2].1, "fp16 must beat mx8");
        assert!(errs[2].1 < e5m2, "mx8 must beat e5m2");
        assert!(errs[1].1 < e5m2, "int8 must beat e5m2");
    }

    #[test]
    fn mantissa_bits_ordering() {
        assert!(QuantFormat::Int8.mantissa_bits() > QuantFormat::Mx8.mantissa_bits());
        assert!(QuantFormat::Mx8.mantissa_bits() > QuantFormat::E4m3.mantissa_bits());
        assert!(QuantFormat::E4m3.mantissa_bits() > QuantFormat::E5m2.mantissa_bits());
    }
}
