//! Per-group scaled 8-bit integer quantization.
//!
//! The paper's `int8` configuration uses an 8-bit integer with a scaling factor shared
//! by every 32 elements (Section 3.2). Accuracy-wise this is the strongest 8-bit
//! contender, but Section 4.2 / Figure 6 shows that supporting element-wise *addition*
//! in this format inside a PIM requires dequantize/requantize logic (multipliers,
//! comparators for the running max), which makes it far more expensive in area than
//! MX8. The area model in `pimba-pim` captures that cost; this module captures the
//! numerical behaviour.

use crate::rounding::{Rounding, StochasticSource};

/// Number of elements sharing one scale factor.
pub(crate) const INT8_GROUP_SIZE: usize = 32;
/// Maximum magnitude of the stored integer code.
pub(crate) const INT8_CODE_MAX: i32 = 127;

/// One quantized group: 32 signed byte codes plus an fp32 scale.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Int8Group {
    /// Scale such that `value ≈ code * scale`.
    pub scale: f32,
    /// Signed 8-bit codes (length ≤ [`INT8_GROUP_SIZE`] for a tail group).
    pub(crate) codes: Vec<i8>,
}

impl Int8Group {
    /// Quantizes up to [`INT8_GROUP_SIZE`] values into a group.
    ///
    /// The scale is `max(|x|) / 127`; an all-zero group gets scale zero.
    pub fn quantize(values: &[f32], mode: Rounding, src: &mut StochasticSource) -> Self {
        assert!(
            values.len() <= INT8_GROUP_SIZE,
            "group of {} exceeds INT8_GROUP_SIZE",
            values.len()
        );
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs == 0.0 || !max_abs.is_finite() {
            return Self {
                scale: 0.0,
                codes: vec![0; values.len()],
            };
        }
        let scale = max_abs / INT8_CODE_MAX as f32;
        let codes = values
            .iter()
            .map(|&v| {
                let q = src.round(f64::from(v / scale), mode);
                q.clamp(-(INT8_CODE_MAX as f64), INT8_CODE_MAX as f64) as i8
            })
            .collect();
        Self { scale, codes }
    }

    /// Dequantizes the group back into `f32` values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| f32::from(c) * self.scale)
            .collect()
    }
}

/// Quantizes an arbitrary-length slice group-by-group and writes the dequantized
/// values back in place, returning the maximum absolute error introduced.
pub fn int8_store_roundtrip(values: &mut [f32], mode: Rounding, src: &mut StochasticSource) -> f32 {
    let mut max_err = 0.0f32;
    for chunk in values.chunks_mut(INT8_GROUP_SIZE) {
        let group = Int8Group::quantize(chunk, mode, src);
        for (slot, deq) in chunk.iter_mut().zip(group.dequantize()) {
            max_err = max_err.max((*slot - deq).abs());
            *slot = deq;
        }
    }
    max_err
}

/// Average storage cost in bits per value (8-bit code + fp16 scale shared by 32).
pub fn int8_bits_per_value() -> f64 {
    8.0 + 16.0 / INT8_GROUP_SIZE as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_group() {
        let mut src = StochasticSource::from_seed(1);
        let g = Int8Group::quantize(&[0.0; 8], Rounding::Nearest, &mut src);
        assert_eq!(g.scale, 0.0);
        assert_eq!(g.dequantize(), vec![0.0; 8]);
        assert_eq!(g.codes.len(), 8);
    }

    #[test]
    fn max_element_is_exact() {
        let mut src = StochasticSource::from_seed(1);
        let vals = [0.1f32, -0.7, 12.7, 3.3];
        let g = Int8Group::quantize(&vals, Rounding::Nearest, &mut src);
        let deq = g.dequantize();
        assert!(
            (deq[2] - 12.7).abs() < 1e-5,
            "max element must be represented exactly"
        );
    }

    #[test]
    fn error_bounded_by_half_scale() {
        let mut src = StochasticSource::from_seed(2);
        let vals: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        let g = Int8Group::quantize(&vals, Rounding::Nearest, &mut src);
        for (v, d) in vals.iter().zip(g.dequantize()) {
            assert!((v - d).abs() <= g.scale * 0.5 + 1e-6);
        }
    }

    #[test]
    fn roundtrip_in_place() {
        let mut src = StochasticSource::from_seed(3);
        let mut vals: Vec<f32> = (0..100).map(|i| ((i * 37) % 23) as f32 - 11.0).collect();
        let orig = vals.clone();
        let err = int8_store_roundtrip(&mut vals, Rounding::Nearest, &mut src);
        assert!(err <= 11.0 / 127.0 + 1e-5);
        for (o, n) in orig.iter().zip(&vals) {
            assert!((o - n).abs() <= err + 1e-6);
        }
    }

    #[test]
    fn stochastic_rounding_unbiased_per_group() {
        let mut src = StochasticSource::from_seed(4);
        let vals = vec![1.0f32, 0.003, -0.003, 0.5];
        let trials = 8000;
        let mut acc = vec![0.0f64; vals.len()];
        for _ in 0..trials {
            let g = Int8Group::quantize(&vals, Rounding::Stochastic, &mut src);
            for (a, d) in acc.iter_mut().zip(g.dequantize()) {
                *a += f64::from(d);
            }
        }
        for (a, v) in acc.iter().zip(&vals) {
            let mean = a / f64::from(trials);
            assert!((mean - f64::from(*v)).abs() < 3e-3, "mean {mean} vs {v}");
        }
    }

    #[test]
    fn bits_per_value_accounts_for_scale() {
        assert!((int8_bits_per_value() - 8.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds INT8_GROUP_SIZE")]
    fn oversized_group_panics() {
        let mut src = StochasticSource::from_seed(5);
        let _ = Int8Group::quantize(&[0.0; 33], Rounding::Nearest, &mut src);
    }
}
