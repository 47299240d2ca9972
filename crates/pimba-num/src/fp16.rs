//! Software IEEE-754 binary16 (`fp16`) conversion.
//!
//! The GPU baselines in the paper keep the state and KV cache in fp16; the
//! quantization study compares every 8-bit format against it. We only need
//! conversion (storage emulation), not a full arithmetic type: computation always
//! happens in f32/f64 and results are "stored" through this module.

use crate::rounding::{Rounding, StochasticSource};

const F16_EXP_BITS: u32 = 5;
const F16_MANT_BITS: u32 = 10;
const F16_EXP_BIAS: i32 = 15;

/// Encodes an `f32` into fp16 bits using the requested rounding mode.
///
/// Values above 65504, the largest finite fp16 value, saturate to it (LLM serving
/// systems saturate rather than emit infinities when quantizing caches); NaN is
/// preserved.
pub(crate) fn f32_to_f16_bits(value: f32, mode: Rounding, src: &mut StochasticSource) -> u16 {
    encode_small_float(value, F16_EXP_BITS, F16_MANT_BITS, F16_EXP_BIAS, mode, src) as u16
}

/// Decodes fp16 bits into an `f32`.
pub(crate) fn f16_bits_to_f32(bits: u16) -> f32 {
    decode_small_float(u32::from(bits), F16_EXP_BITS, F16_MANT_BITS, F16_EXP_BIAS)
}

/// Stores `value` as fp16 and reads it back (round-trip through the format).
pub fn f16_roundtrip(value: f32, mode: Rounding, src: &mut StochasticSource) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(value, mode, src))
}

/// Generic encoder for small IEEE-like floats (shared by fp16 and fp8).
///
/// The result is the raw bit pattern with the sign at bit `exp_bits + mant_bits`.
/// Overflow saturates to the largest finite value; NaN maps to an all-ones exponent
/// with a non-zero mantissa.
pub(crate) fn encode_small_float(
    value: f32,
    exp_bits: u32,
    mant_bits: u32,
    bias: i32,
    mode: Rounding,
    src: &mut StochasticSource,
) -> u32 {
    let sign = if value.is_sign_negative() { 1u32 } else { 0u32 };
    let sign_shift = exp_bits + mant_bits;
    let exp_max = (1u32 << exp_bits) - 1;
    let mant_max = (1u32 << mant_bits) - 1;

    if value.is_nan() {
        return (sign << sign_shift) | (exp_max << mant_bits) | 1;
    }
    let mag = value.abs() as f64;
    if mag == 0.0 {
        return sign << sign_shift;
    }

    // Largest finite magnitude of the target format.
    let max_finite =
        (2.0 - f64::from(2u32).powi(-(mant_bits as i32))) * 2f64.powi((exp_max as i32 - 1) - bias);
    if mag.is_infinite() || mag > max_finite {
        // Saturate (quantizers for ML caches clamp rather than produce inf).
        return (sign << sign_shift) | (((exp_max - 1) << mant_bits) | mant_max);
    }

    // Unbiased exponent of the value.
    let mut e = mag.log2().floor() as i32;
    // Guard against log2 edge cases at powers of two.
    if 2f64.powi(e + 1) <= mag {
        e += 1;
    }
    if 2f64.powi(e) > mag {
        e -= 1;
    }

    let min_normal_exp = 1 - bias;
    if e < min_normal_exp {
        // Subnormal: value = m / 2^mant_bits * 2^min_normal_exp
        let scaled = mag / 2f64.powi(min_normal_exp) * f64::from(1u32 << mant_bits);
        let m = src.round(scaled, mode).max(0.0) as u32;
        if m > mant_max {
            // Rounded up into the smallest normal.
            return (sign << sign_shift) | (1 << mant_bits);
        }
        return (sign << sign_shift) | m;
    }

    // Normal: value = (1 + m / 2^mant_bits) * 2^e
    let frac = mag / 2f64.powi(e) - 1.0;
    let scaled = frac * f64::from(1u32 << mant_bits);
    let mut m = src.round(scaled, mode).max(0.0) as u32;
    let mut biased = (e + bias) as u32;
    if m > mant_max {
        m = 0;
        biased += 1;
    }
    if biased >= exp_max {
        // Overflowed into the reserved exponent; saturate.
        return (sign << sign_shift) | (((exp_max - 1) << mant_bits) | mant_max);
    }
    (sign << sign_shift) | (biased << mant_bits) | m
}

/// Generic decoder matching [`encode_small_float`].
pub(crate) fn decode_small_float(bits: u32, exp_bits: u32, mant_bits: u32, bias: i32) -> f32 {
    let sign_shift = exp_bits + mant_bits;
    let exp_max = (1u32 << exp_bits) - 1;
    let sign = if (bits >> sign_shift) & 1 == 1 {
        -1.0f64
    } else {
        1.0
    };
    let e = (bits >> mant_bits) & exp_max;
    let m = bits & ((1u32 << mant_bits) - 1);
    let value = if e == 0 {
        // Subnormal.
        sign * f64::from(m) / f64::from(1u32 << mant_bits) * 2f64.powi(1 - bias)
    } else if e == exp_max {
        if m == 0 {
            sign * f64::INFINITY
        } else {
            f64::NAN
        }
    } else {
        sign * (1.0 + f64::from(m) / f64::from(1u32 << mant_bits)) * 2f64.powi(e as i32 - bias)
    };
    value as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(v: f32) -> f32 {
        let mut src = StochasticSource::from_seed(1);
        f16_roundtrip(v, Rounding::Nearest, &mut src)
    }

    #[test]
    fn exact_values_roundtrip() {
        for v in [
            0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -65504.0, 65504.0, 0.25, 0.125,
        ] {
            assert_eq!(rt(v), v, "value {v} should round-trip exactly");
        }
    }

    #[test]
    fn known_bit_patterns() {
        let mut src = StochasticSource::from_seed(1);
        assert_eq!(f32_to_f16_bits(1.0, Rounding::Nearest, &mut src), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0, Rounding::Nearest, &mut src), 0xC000);
        assert_eq!(f32_to_f16_bits(0.0, Rounding::Nearest, &mut src), 0x0000);
        assert_eq!(
            f32_to_f16_bits(65504.0, Rounding::Nearest, &mut src),
            0x7BFF
        );
        assert_eq!(f16_bits_to_f32(0x3555), 0.333_251_95);
    }

    #[test]
    fn overflow_saturates() {
        assert_eq!(rt(1.0e6), 65504.0);
        assert_eq!(rt(-1.0e6), -65504.0);
    }

    #[test]
    fn nan_is_preserved() {
        assert!(rt(f32::NAN).is_nan());
    }

    #[test]
    fn subnormals_are_representable() {
        // 2^-24 is the smallest positive subnormal of binary16.
        let tiny = 2f32.powi(-24);
        assert_eq!(rt(tiny), tiny);
        // Half of that rounds to zero under nearest-even.
        assert_eq!(rt(tiny / 2.0), 0.0);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut src = StochasticSource::from_seed(3);
        let mut x = 0.001f32;
        while x < 60000.0 {
            let y = f16_roundtrip(x, Rounding::Nearest, &mut src);
            let rel = ((y - x) / x).abs();
            assert!(rel <= 2f32.powi(-11), "rel error {rel} too large at {x}");
            x *= 1.37;
        }
    }

    #[test]
    fn swamping_demo_small_increment_lost() {
        // 1024 + 0.25 is not representable in fp16 (ulp at 1024 is 1.0): the increment
        // is swamped under nearest rounding.
        assert_eq!(rt(1024.0 + 0.25), 1024.0);
    }

    #[test]
    fn stochastic_rounding_recovers_swamped_increment_in_expectation() {
        let mut src = StochasticSource::from_seed(11);
        let n = 4000;
        let mean: f64 = (0..n)
            .map(|_| f64::from(f16_roundtrip(1024.25, Rounding::Stochastic, &mut src)))
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 1024.25).abs() < 0.1, "mean={mean}");
    }
}
