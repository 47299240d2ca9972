//! Bit-level models of the MX arithmetic units inside the State-update Processing
//! Engine (SPE), mirroring Figure 9 of the paper.
//!
//! Each unit operates at three hierarchical levels:
//!
//! 1. one small unit handling the shared 8-bit exponent at the *group* level,
//! 2. per-pair units handling the 1-bit microexponents,
//! 3. per-element integer units for the signed mantissas.
//!
//! * [`MxMultiplier`] — element-wise multiply of two MX8 groups. Exponents add;
//!   microexponent sums that overflow the 1-bit range force a one-bit right shift of
//!   that pair's mantissas; if any element's product overflows the 6-bit mantissa the
//!   group exponent is bumped by one (a single OR-reduction in hardware).
//! * [`MxAdder`] — element-wise add. The larger group exponent wins, the other group's
//!   mantissas are right-shifted by the exponent difference plus their microexponent,
//!   and the result always carries microexponent 0 (as stated in Section 5.3).
//! * [`MxDotProductUnit`] — integer multiply-accumulate into a wide accumulator,
//!   used by stage 4 of the SPU pipeline (output `y_t = S_t^T q_t`) and by the
//!   attention *score* dataflow.
//!
//! Rounding (`Nearest` or `Stochastic`) is applied wherever mantissa bits are
//! discarded, modelling the LFSR + adder the paper attaches to the SPE.

use crate::mx::{MxGroup, MX_FRAC_BITS, MX_MANTISSA_MAX, MX_PAIR_SIZE};
use crate::rounding::{Rounding, StochasticSource};

/// Element-wise MX multiplier (Figure 9a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MxMultiplier;

/// Element-wise MX adder (Figure 9b).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MxAdder;

/// Dot-product unit with a wide accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MxDotProductUnit;

/// Shifts `value` right by `shift` bits with the requested rounding of the discarded
/// fraction. `shift` may be zero. Negative values are handled symmetrically.
fn shift_right_rounded(value: i64, shift: u32, mode: Rounding, src: &mut StochasticSource) -> i64 {
    if shift == 0 {
        return value;
    }
    let sign = if value < 0 { -1 } else { 1 };
    let mag = value.unsigned_abs();
    let kept = mag >> shift;
    let dropped = mag & ((1u64 << shift) - 1);
    if dropped == 0 {
        return sign * kept as i64;
    }
    let frac = dropped as f64 / (1u64 << shift) as f64;
    let rounded = match mode {
        Rounding::Nearest => {
            if frac > 0.5 {
                kept + 1
            } else if frac < 0.5 || kept.is_multiple_of(2) {
                // Below the midpoint, or exactly at it with an even mantissa.
                kept
            } else {
                kept + 1
            }
        }
        Rounding::Stochastic => {
            if src.uniform() < frac {
                kept + 1
            } else {
                kept
            }
        }
    };
    sign * rounded as i64
}

impl MxMultiplier {
    /// Multiplies two MX groups element-wise, producing an MX group.
    ///
    /// # Panics
    ///
    /// Panics if the groups have different lengths.
    pub fn multiply(
        &self,
        a: &MxGroup,
        b: &MxGroup,
        mode: Rounding,
        src: &mut StochasticSource,
    ) -> MxGroup {
        assert_eq!(
            a.len(),
            b.len(),
            "MX multiplier operands must have equal length"
        );
        let n = a.len();
        let n_pairs = n.div_ceil(MX_PAIR_SIZE);

        // Group-level exponent adder.
        let mut result_exp = a.shared_exp + b.shared_exp;

        // Per-pair microexponent adders (with the paper's overflow rule).
        let mut result_micro = Vec::with_capacity(n_pairs);
        let mut extra_shift = Vec::with_capacity(n_pairs);
        for p in 0..n_pairs {
            let sum = u32::from(a.micro_exps[p]) + u32::from(b.micro_exps[p]);
            if sum > 1 {
                result_micro.push(1u8);
                extra_shift.push(sum - 1);
            } else {
                result_micro.push(sum as u8);
                extra_shift.push(0);
            }
        }

        // Per-element integer multipliers. Mantissa scale: each operand mantissa has
        // MX_FRAC_BITS fractional bits, so the raw product has 2*MX_FRAC_BITS; we shift
        // back down to MX_FRAC_BITS (plus the pair's extra shift).
        let mut wide: Vec<i64> = Vec::with_capacity(n);
        for i in 0..n {
            let prod = i64::from(a.mantissas[i]) * i64::from(b.mantissas[i]);
            let shift = MX_FRAC_BITS as u32 + extra_shift[i / MX_PAIR_SIZE];
            wide.push(shift_right_rounded(prod, shift, mode, src));
        }

        // If any product overflows the 6-bit mantissa, bump the group exponent once and
        // shift every element right by one (group-level normalization).
        if wide
            .iter()
            .any(|&m| m.unsigned_abs() > u64::from(MX_MANTISSA_MAX))
        {
            result_exp += 1;
            for m in &mut wide {
                *m = shift_right_rounded(*m, 1, mode, src);
            }
        }

        let mantissas = wide
            .into_iter()
            .map(|m| m.clamp(-i64::from(MX_MANTISSA_MAX), i64::from(MX_MANTISSA_MAX)) as i16)
            .collect();
        MxGroup::from_raw(result_exp, result_micro, mantissas)
    }
}

impl MxAdder {
    /// Adds two MX groups element-wise, producing an MX group whose microexponents are
    /// all zero (as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the groups have different lengths.
    pub fn add(
        &self,
        a: &MxGroup,
        b: &MxGroup,
        mode: Rounding,
        src: &mut StochasticSource,
    ) -> MxGroup {
        assert_eq!(a.len(), b.len(), "MX adder operands must have equal length");
        let n = a.len();
        let n_pairs = n.div_ceil(MX_PAIR_SIZE);

        // Group-level exponent comparison (CMP-Δ in Figure 9b).
        let mut result_exp = a.shared_exp.max(b.shared_exp);

        // Align both operands to scale 2^(result_exp - MX_FRAC_BITS) and add.
        let mut sums: Vec<i64> = Vec::with_capacity(n);
        for i in 0..n {
            let pair = i / MX_PAIR_SIZE;
            let shift_a = (result_exp - a.shared_exp) as u32 + u32::from(a.micro_exps[pair]);
            let shift_b = (result_exp - b.shared_exp) as u32 + u32::from(b.micro_exps[pair]);
            let ma = shift_right_rounded(i64::from(a.mantissas[i]), shift_a, mode, src);
            let mb = shift_right_rounded(i64::from(b.mantissas[i]), shift_b, mode, src);
            sums.push(ma + mb);
        }

        // Carry out of the 6-bit mantissa range bumps the group exponent.
        while sums
            .iter()
            .any(|&m| m.unsigned_abs() > u64::from(MX_MANTISSA_MAX))
        {
            result_exp += 1;
            for m in &mut sums {
                *m = shift_right_rounded(*m, 1, mode, src);
            }
        }

        let mantissas = sums.into_iter().map(|m| m as i16).collect();
        MxGroup::from_raw(result_exp, vec![0u8; n_pairs], mantissas)
    }
}

impl MxDotProductUnit {
    /// Computes the dot product of two MX groups in a wide accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the groups have different lengths.
    pub fn dot(&self, a: &MxGroup, b: &MxGroup) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "dot product operands must have equal length"
        );
        let mut acc = 0.0f64;
        for i in 0..a.len() {
            // Integer mantissa product scaled by the combined exponents.
            let prod = f64::from(a.mantissas[i]) * f64::from(b.mantissas[i]);
            let scale = a.pair_exp(i) + b.pair_exp(i) - 2 * MX_FRAC_BITS;
            acc += prod * 2f64.powi(scale);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mx::MX_GROUP_SIZE;

    fn quant(values: &[f32]) -> MxGroup {
        let mut src = StochasticSource::from_seed(1);
        MxGroup::quantize(values, Rounding::Nearest, &mut src)
    }

    fn max_rel_err(expected: &[f64], got: &[f32]) -> f64 {
        expected
            .iter()
            .zip(got)
            .map(|(e, g)| {
                let denom = e.abs().max(1e-9);
                (f64::from(*g) - e).abs() / denom
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn multiplier_matches_reference_within_format_error() {
        let mut src = StochasticSource::from_seed(2);
        let a_vals: Vec<f32> = (0..MX_GROUP_SIZE).map(|i| 0.3 + i as f32 * 0.1).collect();
        let b_vals: Vec<f32> = (0..MX_GROUP_SIZE).map(|i| 1.5 - i as f32 * 0.07).collect();
        let a = quant(&a_vals);
        let b = quant(&b_vals);
        let prod = MxMultiplier.multiply(&a, &b, Rounding::Nearest, &mut src);
        let expected: Vec<f64> = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(x, y)| f64::from(*x) * f64::from(*y))
            .collect();
        let err = max_rel_err(&expected, &prod.dequantize());
        assert!(err < 0.10, "relative error {err} too large");
    }

    #[test]
    fn multiplier_exponent_adds() {
        let a = quant(&[4.0, 4.0]);
        let b = quant(&[8.0, 8.0]);
        let mut src = StochasticSource::from_seed(3);
        let p = MxMultiplier.multiply(&a, &b, Rounding::Nearest, &mut src);
        let d = p.dequantize();
        assert!((d[0] - 32.0).abs() < 2.0);
        assert!(p.shared_exp >= a.shared_exp + b.shared_exp);
    }

    #[test]
    fn multiplier_microexponent_overflow_shifts() {
        // Both operands use micro=1 for the second pair -> sum 2 -> clamp to 1 + shift.
        let a = quant(&[2.0, 2.0, 0.4, 0.4]);
        let b = quant(&[2.0, 2.0, 0.4, 0.4]);
        assert_eq!(a.micro_exps[1], 1);
        let mut src = StochasticSource::from_seed(4);
        let p = MxMultiplier.multiply(&a, &b, Rounding::Nearest, &mut src);
        assert!(p.micro_exps[1] <= 1);
        let d = p.dequantize();
        assert!((d[2] - 0.16).abs() < 0.03, "got {}", d[2]);
    }

    #[test]
    fn adder_matches_reference_within_format_error() {
        let mut src = StochasticSource::from_seed(5);
        let a_vals: Vec<f32> = (0..MX_GROUP_SIZE).map(|i| (i as f32 * 0.9).sin()).collect();
        let b_vals: Vec<f32> = (0..MX_GROUP_SIZE)
            .map(|i| (i as f32 * 0.4).cos() * 2.0)
            .collect();
        let a = quant(&a_vals);
        let b = quant(&b_vals);
        let sum = MxAdder.add(&a, &b, Rounding::Nearest, &mut src);
        let expected: Vec<f64> = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(x, y)| f64::from(*x) + f64::from(*y))
            .collect();
        for (e, g) in expected.iter().zip(sum.dequantize()) {
            assert!((e - f64::from(g)).abs() < 0.15, "expected {e}, got {g}");
        }
    }

    #[test]
    fn adder_result_micro_is_zero() {
        let a = quant(&[2.0, 2.0, 0.4, 0.4]);
        let b = quant(&[1.0, 1.0, 0.2, 0.2]);
        let mut src = StochasticSource::from_seed(6);
        let s = MxAdder.add(&a, &b, Rounding::Nearest, &mut src);
        assert!(s.micro_exps.iter().all(|&u| u == 0));
    }

    #[test]
    fn adder_carry_bumps_group_exponent() {
        let a = quant(&[1.9, 1.9]);
        let b = quant(&[1.9, 1.9]);
        let mut src = StochasticSource::from_seed(7);
        let s = MxAdder.add(&a, &b, Rounding::Nearest, &mut src);
        let d = s.dequantize();
        assert!((d[0] - 3.8).abs() < 0.2);
        assert!(s.shared_exp > a.shared_exp);
    }

    #[test]
    fn adder_exhibits_swamping_with_nearest_rounding() {
        // Big state value + tiny increment: the increment is below the lsb of the
        // aligned mantissa and disappears under nearest rounding.
        let a = quant(&[60.0, 60.0]);
        let b = quant(&[0.05, 0.05]);
        let mut src = StochasticSource::from_seed(8);
        let s = MxAdder.add(&a, &b, Rounding::Nearest, &mut src);
        assert_eq!(
            s.dequantize(),
            a.dequantize(),
            "tiny addend should be swamped"
        );
    }

    #[test]
    fn adder_stochastic_rounding_preserves_small_addend_in_expectation() {
        let a = quant(&[60.0, 60.0]);
        let b = quant(&[0.4, 0.4]);
        let mut src = StochasticSource::from_seed(9);
        let trials = 4000;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            let s = MxAdder.add(&a, &b, Rounding::Stochastic, &mut src);
            acc += f64::from(s.dequantize()[0]);
        }
        let mean = acc / f64::from(trials);
        assert!(
            (mean - 60.4).abs() < 0.3,
            "stochastic mean {mean} should approach 60.4 (nearest would stay at 60)"
        );
    }

    #[test]
    fn dot_product_matches_reference() {
        let a_vals: Vec<f32> = (0..MX_GROUP_SIZE).map(|i| 0.2 + i as f32 * 0.05).collect();
        let b_vals: Vec<f32> = (0..MX_GROUP_SIZE).map(|i| 1.0 - i as f32 * 0.03).collect();
        let a = quant(&a_vals);
        let b = quant(&b_vals);
        let got = MxDotProductUnit.dot(&a, &b);
        let expected: f64 = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(x, y)| f64::from(*x) * f64::from(*y))
            .sum();
        assert!(
            (got - expected).abs() / expected.abs() < 0.03,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn shift_right_rounded_modes() {
        let mut src = StochasticSource::from_seed(10);
        assert_eq!(shift_right_rounded(8, 1, Rounding::Nearest, &mut src), 4);
        assert_eq!(shift_right_rounded(9, 1, Rounding::Nearest, &mut src), 4); // ties-to-even
        assert_eq!(shift_right_rounded(11, 1, Rounding::Nearest, &mut src), 6);
        assert_eq!(shift_right_rounded(-11, 1, Rounding::Nearest, &mut src), -6);
        assert_eq!(shift_right_rounded(7, 0, Rounding::Stochastic, &mut src), 7);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let a = quant(&[1.0, 2.0]);
        let b = quant(&[1.0, 2.0, 3.0]);
        let mut src = StochasticSource::from_seed(1);
        let _ = MxAdder.add(&a, &b, Rounding::Nearest, &mut src);
    }
}
