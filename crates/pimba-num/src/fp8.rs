//! 8-bit floating point formats: `e4m3` and `e5m2`.
//!
//! These are the "fp8" variants evaluated in Section 3.2 / Figure 4 of the paper.
//! Their 3-bit / 2-bit mantissas are too short to protect the continuously-updated
//! state of SU-LLMs against swamping, which is exactly the behaviour the accuracy
//! study in `pimba-models` reproduces.

use crate::fp16::{decode_small_float, encode_small_float};
use crate::rounding::{Rounding, StochasticSource};

/// An 8-bit floating point layout (exponent/mantissa split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fp8Kind {
    /// 4 exponent bits, 3 mantissa bits, bias 7 (max finite 448 in the OCP spec;
    /// here the generic saturating encoder gives 480 = (2 - 2^-3) * 2^8 / 2... ).
    E4M3,
    /// 5 exponent bits, 2 mantissa bits, bias 15.
    E5M2,
}

impl Fp8Kind {
    /// Number of exponent bits.
    pub(crate) fn exp_bits(self) -> u32 {
        match self {
            Fp8Kind::E4M3 => 4,
            Fp8Kind::E5M2 => 5,
        }
    }

    /// Number of mantissa bits.
    pub fn mant_bits(self) -> u32 {
        match self {
            Fp8Kind::E4M3 => 3,
            Fp8Kind::E5M2 => 2,
        }
    }

    /// Exponent bias.
    pub(crate) fn bias(self) -> i32 {
        match self {
            Fp8Kind::E4M3 => 7,
            Fp8Kind::E5M2 => 15,
        }
    }

    /// Largest finite value representable by the saturating encoder.
    pub fn max_finite(self) -> f32 {
        let exp_max = (1u32 << self.exp_bits()) - 1;
        ((2.0 - 2f64.powi(-(self.mant_bits() as i32)))
            * 2f64.powi((exp_max as i32 - 1) - self.bias())) as f32
    }

    /// Encodes `value` into 8 bits.
    pub(crate) fn encode(self, value: f32, mode: Rounding, src: &mut StochasticSource) -> u8 {
        encode_small_float(
            value,
            self.exp_bits(),
            self.mant_bits(),
            self.bias(),
            mode,
            src,
        ) as u8
    }

    /// Decodes 8 bits into an `f32`.
    pub(crate) fn decode(self, bits: u8) -> f32 {
        decode_small_float(
            u32::from(bits),
            self.exp_bits(),
            self.mant_bits(),
            self.bias(),
        )
    }

    /// Stores `value` in the format and reads it back.
    pub fn roundtrip(self, value: f32, mode: Rounding, src: &mut StochasticSource) -> f32 {
        self.decode(self.encode(value, mode, src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(kind: Fp8Kind, v: f32) -> f32 {
        let mut src = StochasticSource::from_seed(1);
        kind.roundtrip(v, Rounding::Nearest, &mut src)
    }

    #[test]
    fn e4m3_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, -3.5, 0.125, 16.0, 240.0] {
            assert_eq!(rt(Fp8Kind::E4M3, v), v, "e4m3 should represent {v} exactly");
        }
    }

    #[test]
    fn e5m2_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1.5, -3.0, 0.25, 49152.0] {
            assert_eq!(rt(Fp8Kind::E5M2, v), v, "e5m2 should represent {v} exactly");
        }
    }

    #[test]
    fn parameters() {
        assert_eq!(Fp8Kind::E4M3.exp_bits(), 4);
        assert_eq!(Fp8Kind::E4M3.mant_bits(), 3);
        assert_eq!(Fp8Kind::E5M2.exp_bits(), 5);
        assert_eq!(Fp8Kind::E5M2.mant_bits(), 2);
        assert!(Fp8Kind::E5M2.max_finite() > Fp8Kind::E4M3.max_finite());
    }

    #[test]
    fn saturation() {
        assert_eq!(rt(Fp8Kind::E4M3, 1.0e9), Fp8Kind::E4M3.max_finite());
        assert_eq!(rt(Fp8Kind::E5M2, -1.0e9), -Fp8Kind::E5M2.max_finite());
    }

    #[test]
    fn relative_error_bounds() {
        let mut src = StochasticSource::from_seed(2);
        let mut x = 0.01f32;
        while x < 100.0 {
            let e4 = Fp8Kind::E4M3.roundtrip(x, Rounding::Nearest, &mut src);
            let e5 = Fp8Kind::E5M2.roundtrip(x, Rounding::Nearest, &mut src);
            assert!(((e4 - x) / x).abs() <= 2f32.powi(-4) + 1e-6);
            assert!(((e5 - x) / x).abs() <= 2f32.powi(-3) + 1e-6);
            x *= 1.618;
        }
    }

    #[test]
    fn e4m3_swamps_small_updates_much_earlier_than_fp16() {
        // With a 3-bit mantissa, a relative increment of 1/32 is already lost.
        let base = 64.0f32;
        let inc = base / 32.0;
        assert_eq!(rt(Fp8Kind::E4M3, base + inc * 0.45), base);
    }

    #[test]
    fn e5m2_roundtrip_is_idempotent() {
        let mut src = StochasticSource::from_seed(9);
        for i in 0..=255u8 {
            let v = Fp8Kind::E5M2.decode(i);
            if v.is_finite() {
                let again = Fp8Kind::E5M2.roundtrip(v, Rounding::Nearest, &mut src);
                assert_eq!(again, v, "bits {i:#x} value {v} not idempotent");
            }
        }
    }

    #[test]
    fn e4m3_roundtrip_is_idempotent() {
        let mut src = StochasticSource::from_seed(9);
        for i in 0..=255u8 {
            let v = Fp8Kind::E4M3.decode(i);
            if v.is_finite() {
                let again = Fp8Kind::E4M3.roundtrip(v, Rounding::Nearest, &mut src);
                assert_eq!(again, v, "bits {i:#x} value {v} not idempotent");
            }
        }
    }
}
