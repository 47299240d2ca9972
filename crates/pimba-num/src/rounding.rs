//! Rounding modes and the LFSR-based stochastic rounding source.
//!
//! The paper observes (Section 3.2 / Figure 4) that state-update LLMs are highly
//! sensitive to *swamping*: when the running state is stored with a short mantissa,
//! small outer-product contributions are lost during accumulation. Stochastic rounding
//! probabilistically preserves those contributions, and in hardware it only costs a
//! Linear Feedback Shift Register plus one adder (Section 4.2), which is why the SPE
//! implements it.

/// Rounding mode used when a real value is converted into a low-precision format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to nearest, ties to even (the IEEE-754 default).
    #[default]
    Nearest,
    /// Stochastic rounding: round up with probability equal to the fractional
    /// remainder, using pseudo-random bits from a [`StochasticSource`].
    Stochastic,
}

impl Rounding {
    /// Short lowercase suffix used in experiment labels (`""` or `"SR"`).
    pub fn label_suffix(self) -> &'static str {
        match self {
            Rounding::Nearest => "",
            Rounding::Stochastic => "SR",
        }
    }
}

/// Width of the LFSR used by the hardware model.
const LFSR_BITS: u32 = 16;

/// Deterministic pseudo-random bit source modelling the per-SPE LFSR.
///
/// The serving simulator and the accuracy study both need reproducible stochastic
/// rounding, so the source is explicitly seeded rather than drawing from a global RNG.
///
/// ```rust
/// use pimba_num::StochasticSource;
/// let mut a = StochasticSource::from_seed(42);
/// let mut b = StochasticSource::from_seed(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StochasticSource {
    state: u16,
}

impl StochasticSource {
    /// Creates a source from a seed. A zero seed is remapped to a non-zero constant
    /// because an all-zero LFSR state is a fixed point.
    pub fn from_seed(seed: u64) -> Self {
        let mut folded = (seed ^ (seed >> 16) ^ (seed >> 32) ^ (seed >> 48)) as u16;
        if folded == 0 {
            folded = 0xACE1;
        }
        Self { state: folded }
    }

    /// Advances the LFSR one step and returns the output bit.
    ///
    /// Uses the maximal-length Fibonacci polynomial `x^16 + x^14 + x^13 + x^11 + 1`
    /// (taps at bits 0, 2, 3 and 5 of the shifted-out end), period 65535.
    #[inline]
    pub(crate) fn next_bit(&mut self) -> u16 {
        let s = self.state;
        let bit = (s ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1;
        self.state = (s >> 1) | (bit << (LFSR_BITS - 1));
        bit
    }

    /// Draws `n` bits (`n <= 32`) and returns them packed little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub(crate) fn next_bits(&mut self, n: u32) -> u32 {
        assert!(n <= 32, "cannot draw more than 32 bits at once");
        let mut out = 0u32;
        for i in 0..n {
            out |= u32::from(self.next_bit()) << i;
        }
        out
    }

    /// Returns a uniform value in `[0, 1)` with 16 bits of resolution.
    pub fn uniform(&mut self) -> f64 {
        f64::from(self.next_bits(16)) / f64::from(1u32 << 16)
    }

    /// Rounds `x` to an integer according to `mode`.
    ///
    /// For [`Rounding::Nearest`] this is round-half-to-even; for
    /// [`Rounding::Stochastic`] the fractional part is compared against a fresh
    /// uniform draw.
    pub fn round(&mut self, x: f64, mode: Rounding) -> f64 {
        match mode {
            Rounding::Nearest => round_half_even(x),
            Rounding::Stochastic => {
                let floor = x.floor();
                let frac = x - floor;
                if frac == 0.0 {
                    floor
                } else if self.uniform() < frac {
                    floor + 1.0
                } else {
                    floor
                }
            }
        }
    }
}

impl Default for StochasticSource {
    fn default() -> Self {
        Self::from_seed(0x5EED)
    }
}

/// Round-half-to-even for `f64` (the `f64::round` builtin rounds half away from zero).
pub(crate) fn round_half_even(x: f64) -> f64 {
    let floor = x.floor();
    let diff = x - floor;
    if diff > 0.5 {
        floor + 1.0
    } else if diff < 0.5 || (floor as i64) % 2 == 0 {
        // Below the midpoint, or exactly at it with an even floor.
        floor
    } else {
        floor + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_is_deterministic_and_nonzero() {
        let mut src = StochasticSource::from_seed(123);
        let seq: Vec<u16> = (0..64).map(|_| src.next_bit()).collect();
        let mut src2 = StochasticSource::from_seed(123);
        let seq2: Vec<u16> = (0..64).map(|_| src2.next_bit()).collect();
        assert_eq!(seq, seq2);
        assert!(seq.contains(&1), "LFSR must not be stuck at zero");
        assert!(seq.contains(&0), "LFSR must not be stuck at one");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut src = StochasticSource::from_seed(0);
        let bits = src.next_bits(32);
        let mut src2 = StochasticSource::from_seed(0);
        assert_eq!(bits, src2.next_bits(32));
        assert_ne!(src.state, 0);
    }

    #[test]
    fn lfsr_has_long_period() {
        // A maximal 16-bit LFSR has period 65535; check it does not repeat early.
        let mut src = StochasticSource::from_seed(1);
        let start = src.state;
        let mut period = 0u32;
        loop {
            src.next_bit();
            period += 1;
            if src.state == start || period > 70_000 {
                break;
            }
        }
        assert!(period > 30_000, "period {period} unexpectedly short");
    }

    #[test]
    fn round_half_even_matches_ieee() {
        assert_eq!(round_half_even(2.5), 2.0);
        assert_eq!(round_half_even(3.5), 4.0);
        assert_eq!(round_half_even(-0.5), 0.0);
        assert_eq!(round_half_even(-1.5), -2.0);
        assert_eq!(round_half_even(1.25), 1.0);
        assert_eq!(round_half_even(1.75), 2.0);
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut src = StochasticSource::from_seed(99);
        let x = 3.25;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| src.round(x, Rounding::Stochastic))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - x).abs() < 0.02,
            "stochastic rounding biased: mean={mean}"
        );
    }

    #[test]
    fn stochastic_rounding_of_exact_integer_is_exact() {
        let mut src = StochasticSource::from_seed(5);
        for v in [-3.0, 0.0, 7.0, 1024.0] {
            assert_eq!(src.round(v, Rounding::Stochastic), v);
        }
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut src = StochasticSource::from_seed(17);
        for _ in 0..1000 {
            let u = src.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn label_suffix() {
        assert_eq!(Rounding::Nearest.label_suffix(), "");
        assert_eq!(Rounding::Stochastic.label_suffix(), "SR");
    }
}
