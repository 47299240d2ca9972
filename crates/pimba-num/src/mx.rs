//! The MX8 block floating point format.
//!
//! Following the paper (Section 3.2), a variant of Microsoft's MX is used where groups
//! of 16 values share a common 8-bit exponent and pairs of values inside a group share
//! a 1-bit *microexponent*; each element keeps a sign and a 6-bit mantissa. Averaged
//! over a group this is 8 bits per value:
//!
//! ```text
//! 8 (shared exp) / 16  +  1 (micro) / 2  +  1 (sign) + 6 (mantissa)  =  8 bits
//! ```
//!
//! The element value is reconstructed as
//!
//! ```text
//! value_i = sign_i * m_i * 2^(E_group - u_pair - (MANTISSA_BITS - 1))
//! ```
//!
//! i.e. the mantissa is a fixed-point number with 5 fractional bits relative to the
//! pair's effective exponent. The microexponent lets a pair whose elements are all at
//! least 2x smaller than the group maximum keep one extra bit of precision — the core
//! idea of "shared microexponents".

use crate::rounding::{Rounding, StochasticSource};

/// Number of elements that share one 8-bit exponent.
pub const MX_GROUP_SIZE: usize = 16;
/// Number of elements that share one microexponent bit.
pub const MX_PAIR_SIZE: usize = 2;
/// Mantissa width in bits (unsigned magnitude; the sign is a separate bit).
pub(crate) const MX_MANTISSA_BITS: u32 = 6;
/// Maximum mantissa code.
pub const MX_MANTISSA_MAX: u32 = (1 << MX_MANTISSA_BITS) - 1;
/// Number of fractional bits of the mantissa relative to the pair exponent.
pub const MX_FRAC_BITS: i32 = MX_MANTISSA_BITS as i32 - 1;
/// Exponent bias of the stored 8-bit shared exponent.
pub(crate) const MX_EXP_BIAS: i32 = 127;
/// Minimum (unbiased) shared exponent.
pub(crate) const MX_EXP_MIN: i32 = -MX_EXP_BIAS;
/// Maximum (unbiased) shared exponent.
pub(crate) const MX_EXP_MAX: i32 = 255 - MX_EXP_BIAS;

/// One MX8 group of up to [`MX_GROUP_SIZE`] elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxGroup {
    /// Unbiased shared exponent of the group.
    pub shared_exp: i32,
    /// One microexponent bit per element pair (0 or 1); length `ceil(len/2)`.
    pub micro_exps: Vec<u8>,
    /// Signed mantissas; magnitude at most [`MX_MANTISSA_MAX`] (6 bits).
    pub mantissas: Vec<i16>,
}

impl MxGroup {
    /// Quantizes up to [`MX_GROUP_SIZE`] values into an MX8 group.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > MX_GROUP_SIZE` or if `values` is empty.
    pub fn quantize(values: &[f32], mode: Rounding, src: &mut StochasticSource) -> Self {
        assert!(!values.is_empty(), "cannot quantize an empty group");
        assert!(
            values.len() <= MX_GROUP_SIZE,
            "group of {} exceeds MX_GROUP_SIZE",
            values.len()
        );

        let shared_exp = values
            .iter()
            .filter(|v| v.is_finite() && **v != 0.0)
            .map(|v| exponent_of(f64::from(v.abs())))
            .max()
            .unwrap_or(MX_EXP_MIN)
            .clamp(MX_EXP_MIN, MX_EXP_MAX);

        let n_pairs = values.len().div_ceil(MX_PAIR_SIZE);
        let mut micro_exps = Vec::with_capacity(n_pairs);
        let mut mantissas = Vec::with_capacity(values.len());

        for pair in values.chunks(MX_PAIR_SIZE) {
            let pair_exp_raw = pair
                .iter()
                .filter(|v| v.is_finite() && **v != 0.0)
                .map(|v| exponent_of(f64::from(v.abs())))
                .max()
                .unwrap_or(shared_exp - 1);
            let micro = (shared_exp - pair_exp_raw).clamp(0, 1) as u8;
            let pair_exp = shared_exp - i32::from(micro);
            micro_exps.push(micro);

            let lsb = 2f64.powi(pair_exp - MX_FRAC_BITS);
            for &v in pair {
                let v = if v.is_finite() { f64::from(v) } else { 0.0 };
                let scaled = v.abs() / lsb;
                let m = src
                    .round(scaled, mode)
                    .max(0.0)
                    .min(f64::from(MX_MANTISSA_MAX)) as i16;
                mantissas.push(if v.is_sign_negative() { -m } else { m });
            }
        }

        Self {
            shared_exp,
            micro_exps,
            mantissas,
        }
    }

    /// Builds a group directly from raw fields, clamping mantissas into range.
    /// Used by the SPE arithmetic models.
    pub fn from_raw(shared_exp: i32, micro_exps: Vec<u8>, mantissas: Vec<i16>) -> Self {
        let mantissas = mantissas
            .into_iter()
            .map(|m| m.clamp(-(MX_MANTISSA_MAX as i16), MX_MANTISSA_MAX as i16))
            .collect();
        Self {
            shared_exp: shared_exp.clamp(MX_EXP_MIN, MX_EXP_MAX),
            micro_exps: micro_exps.into_iter().map(|u| u.min(1)).collect(),
            mantissas,
        }
    }

    /// Number of elements in the group.
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// Returns `true` if the group holds no elements.
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }

    /// Effective (unbiased) exponent of the pair containing element `i`.
    pub fn pair_exp(&self, i: usize) -> i32 {
        self.shared_exp - i32::from(self.micro_exps[i / MX_PAIR_SIZE])
    }

    /// Reconstructs element `i` as an `f64`.
    pub(crate) fn element(&self, i: usize) -> f64 {
        f64::from(self.mantissas[i]) * 2f64.powi(self.pair_exp(i) - MX_FRAC_BITS)
    }

    /// Dequantizes the whole group.
    pub fn dequantize(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.element(i) as f32).collect()
    }
}

/// Floor of log2 of a positive finite number, as an `i32`.
pub(crate) fn exponent_of(mag: f64) -> i32 {
    debug_assert!(mag > 0.0 && mag.is_finite());
    let mut e = mag.log2().floor() as i32;
    if 2f64.powi(e + 1) <= mag {
        e += 1;
    }
    if 2f64.powi(e) > mag {
        e -= 1;
    }
    e
}

/// Quantizes an arbitrary-length slice group-by-group and writes the dequantized
/// values back in place, returning the maximum absolute error introduced.
pub fn mx8_store_roundtrip(values: &mut [f32], mode: Rounding, src: &mut StochasticSource) -> f32 {
    let mut max_err = 0.0f32;
    for chunk in values.chunks_mut(MX_GROUP_SIZE) {
        if chunk.is_empty() {
            continue;
        }
        let group = MxGroup::quantize(chunk, mode, src);
        for (slot, deq) in chunk.iter_mut().zip(group.dequantize()) {
            max_err = max_err.max((*slot - deq).abs());
            *slot = deq;
        }
    }
    max_err
}

/// Average storage cost in bits per value.
pub fn mx8_bits_per_value() -> f64 {
    8.0 / MX_GROUP_SIZE as f64 + 1.0 / MX_PAIR_SIZE as f64 + 1.0 + f64::from(MX_MANTISSA_BITS)
    // = 0.5 + 0.5 + 7 = 8
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quant(values: &[f32]) -> MxGroup {
        let mut src = StochasticSource::from_seed(1);
        MxGroup::quantize(values, Rounding::Nearest, &mut src)
    }

    #[test]
    fn exponent_of_powers_of_two() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(3.9), 1);
        assert_eq!(exponent_of(4.0), 2);
        assert_eq!(exponent_of(1e-3), -10);
    }

    #[test]
    fn group_exponent_tracks_max_element() {
        let g = quant(&[0.1, -0.2, 6.0, 0.001]);
        assert_eq!(g.shared_exp, 2, "6.0 has exponent 2");
    }

    #[test]
    fn bits_per_value_is_eight() {
        assert_eq!(mx8_bits_per_value(), 8.0);
    }

    #[test]
    fn exact_roundtrip_of_representable_values() {
        // Values that are multiples of the lsb at a common exponent.
        let g = quant(&[1.0, 1.5, -0.5, 0.25]);
        let d = g.dequantize();
        assert_eq!(d, vec![1.0, 1.5, -0.5, 0.25]);
    }

    #[test]
    fn relative_error_bounded_for_same_magnitude_groups() {
        let mut src = StochasticSource::from_seed(2);
        let vals: Vec<f32> = (0..16).map(|i| 1.0 + (i as f32) * 0.06).collect();
        let g = MxGroup::quantize(&vals, Rounding::Nearest, &mut src);
        for (v, d) in vals.iter().zip(g.dequantize()) {
            // lsb at exponent 0 is 2^-5; half of that bounds nearest rounding error.
            assert!((v - d).abs() <= 2f32.powi(-6) + 1e-7, "{v} vs {d}");
        }
    }

    #[test]
    fn microexponent_gives_small_pairs_extra_precision() {
        // Pair 0 holds the group max, pair 1 holds values 4x smaller.
        let vals = [2.0f32, 1.9, 0.26, 0.27];
        let g = quant(&vals);
        assert_eq!(g.micro_exps[0], 0);
        assert_eq!(
            g.micro_exps[1], 1,
            "small pair should use the microexponent"
        );
        let d = g.dequantize();
        // With micro=1 the lsb is 2^(1-1-5)=2^-5; error bound is 2^-6.
        assert!((d[2] - 0.26).abs() <= 2f32.powi(-6) + 1e-7);
        // Without microexponents the lsb would be 2^-4 (error bound 2^-5); check we
        // beat that bound for at least one of the small elements.
        assert!((d[2] - 0.26).abs() < 2f32.powi(-5));
    }

    #[test]
    fn very_small_elements_in_large_group_are_flushed() {
        // An element 2^8 smaller than the group max cannot be represented: swamping.
        let g = quant(&[256.0, 0.4]);
        let d = g.dequantize();
        assert_eq!(d[0], 256.0);
        assert_eq!(d[1], 0.0, "tiny element must flush to zero in MX8");
    }

    #[test]
    fn stochastic_rounding_preserves_small_elements_in_expectation() {
        let mut src = StochasticSource::from_seed(3);
        let vals = [256.0f32, 3.0];
        let trials = 6000;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            let g = MxGroup::quantize(&vals, Rounding::Stochastic, &mut src);
            acc += g.element(1);
        }
        let mean = acc / f64::from(trials);
        assert!(
            (mean - 3.0).abs() < 0.7,
            "stochastic mean {mean} should approach 3.0"
        );
    }

    #[test]
    fn all_zero_group() {
        let g = quant(&[0.0; 16]);
        assert!(g.dequantize().iter().all(|&v| v == 0.0));
        assert_eq!(g.shared_exp, MX_EXP_MIN);
    }

    #[test]
    fn tail_group_smaller_than_16() {
        let g = quant(&[1.0, -2.0, 3.0]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.micro_exps.len(), 2);
        let d = g.dequantize();
        assert!((d[1] - -2.0).abs() < 0.1);
    }

    #[test]
    fn from_raw_clamps() {
        let g = MxGroup::from_raw(9999, vec![7, 0], vec![1000, -1000, 5]);
        assert_eq!(g.shared_exp, MX_EXP_MAX);
        assert_eq!(g.micro_exps, vec![1, 0]);
        assert_eq!(g.mantissas[0], MX_MANTISSA_MAX as i16);
        assert_eq!(g.mantissas[1], -(MX_MANTISSA_MAX as i16));
    }

    #[test]
    fn roundtrip_slice_in_place() {
        let mut src = StochasticSource::from_seed(5);
        let mut vals: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.11).sin()).collect();
        let orig = vals.clone();
        let err = mx8_store_roundtrip(&mut vals, Rounding::Nearest, &mut src);
        assert!(err < 0.05);
        for (o, n) in orig.iter().zip(&vals) {
            assert!((o - n).abs() <= err + 1e-7);
        }
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_panics() {
        let mut src = StochasticSource::from_seed(1);
        let _ = MxGroup::quantize(&[], Rounding::Nearest, &mut src);
    }
}
