//! The quantization accuracy study (Figure 4, Figure 6, Table 2).
//!
//! The paper quantizes each model's *representation* — the state for SU-LLMs, the KV
//! cache for transformers — into 8-bit formats and measures WikiText-2 perplexity and
//! six task accuracies. Pretrained checkpoints and datasets are not available offline,
//! so (per DESIGN.md) this module substitutes a synthetic study that exercises the same
//! numerical code path:
//!
//! 1. run the *actual* state-update recurrence (or attention over a KV cache) for
//!    hundreds of synthetic tokens with the representation stored in the format under
//!    test, using the real quantizers from `pimba-num`;
//! 2. measure the relative output error against an `f64` golden model;
//! 3. map that error to perplexity / accuracy through a fixed monotone calibration
//!    anchored at the paper's fp16 numbers.
//!
//! The *ordering* of formats (fp8 collapses, int8/MX8 hold, stochastic rounding rescues
//! fp8 and slightly helps the rest) is produced by the arithmetic itself; only the
//! absolute perplexity scale comes from the calibration anchors.

use crate::attention::AttentionHead;
use crate::config::ModelFamily;
use crate::state_update::{output_cosine_distance, StateUpdateEngine, StateUpdateHead};
use crate::synth::SynthStream;
use pimba_num::{QuantFormat, Rounding};

/// Dimensions and length of the synthetic study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyConfig {
    /// Rows of the per-head state (and attention head dimension).
    pub dim_head: usize,
    /// Columns of the per-head state.
    pub dim_state: usize,
    /// Number of independent heads averaged over.
    pub n_heads: usize,
    /// Number of synthetic tokens processed.
    pub steps: usize,
    /// Base random seed.
    pub seed: u64,
}

impl StudyConfig {
    /// Configuration used by the figure harnesses (a few hundred tokens, two heads).
    pub fn standard() -> Self {
        Self {
            dim_head: 64,
            dim_state: 32,
            n_heads: 2,
            steps: 384,
            seed: 0xC0FFEE,
        }
    }

    /// Smaller configuration for fast unit tests.
    pub fn quick() -> Self {
        Self {
            dim_head: 32,
            dim_state: 16,
            n_heads: 2,
            steps: 96,
            seed: 0xC0FFEE,
        }
    }
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// Relative output error of storing the model's representation in `format`.
///
/// SU-LLM families run the state-update recurrence; transformer families run attention
/// with a quantized KV cache. Hybrids (Zamba2) are dominated by their Mamba-2 layers
/// and use the state path.
pub(crate) fn representation_error(
    family: ModelFamily,
    format: QuantFormat,
    rounding: Rounding,
    cfg: &StudyConfig,
) -> f64 {
    if family.has_state_update() {
        state_error(family, format, rounding, cfg)
    } else {
        kv_error(family, format, rounding, cfg)
    }
}

/// Weight of the write-path (token absorption) error in the combined state error.
const WRITE_WEIGHT: f64 = 0.7;
/// Weight of the retention (output drift) error in the combined state error.
const DRIFT_WEIGHT: f64 = 0.3;
/// Per-step write errors are capped here (a completely lost token is error 1; noise can
/// push individual probes slightly beyond).
const WRITE_ERROR_CAP: f64 = 1.5;

/// Error of the state-update recurrence with the state stored in `format`, averaged
/// over `cfg.n_heads` heads.
///
/// The error combines two components that together determine language-modeling
/// quality:
///
/// * **write error** — after each token is absorbed, the state is probed with the
///   token's own key (`S_t^T k_t / ||k_t||^2`); in exact arithmetic the probe recovers
///   `v_t` exactly, so the relative deviation measures how much of the new token the
///   format actually managed to store. Swamping drives this toward 1 (the token is
///   silently dropped); stochastic rounding keeps it bounded because absorption is
///   unbiased.
/// * **drift error** — cosine distance between the reference and candidate outputs
///   `y_t`, measuring long-horizon corruption of retained information.
pub fn state_error(
    family: ModelFamily,
    format: QuantFormat,
    rounding: Rounding,
    cfg: &StudyConfig,
) -> f64 {
    let mut total = 0.0;
    for h in 0..cfg.n_heads {
        let seed = cfg.seed ^ (h as u64).wrapping_mul(0x9E37_79B9);
        let mut stream = SynthStream::new(family, cfg.dim_head, cfg.dim_state, seed);
        let steps = stream.take_steps(cfg.steps);

        // Warm state: the head has already seen a long context, so its state is one to
        // two orders of magnitude larger than a single token's contribution. The
        // magnitude sweep (per head) covers the regimes where 8-bit formats start to
        // differ. Element magnitudes are coherent (mild spread, random sign), matching
        // the row-scale coherence of real states.
        let typical_increment = 1.0 / (cfg.dim_head as f32).sqrt();
        let spread_exp = if cfg.n_heads > 1 {
            h as f32 / (cfg.n_heads - 1) as f32
        } else {
            0.0
        };
        let magnitude_ratio = 14.0 * 2.5f32.powf(spread_exp);
        let warm_mag = typical_increment * magnitude_ratio;
        use rand::SeedableRng as _;
        let mut warm_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
        let warm: Vec<f32> = (0..cfg.dim_head * cfg.dim_state)
            .map(|_| {
                use rand::Rng as _;
                let mag: f32 = warm_rng.gen_range(0.7f32..1.3);
                let sign: f32 = if warm_rng.gen_range(0.0f32..1.0) < 0.5 {
                    -1.0
                } else {
                    1.0
                };
                sign * mag * warm_mag
            })
            .collect();

        let mut reference =
            StateUpdateHead::new(cfg.dim_head, cfg.dim_state, StateUpdateEngine::Exact, seed);
        let mut candidate = StateUpdateHead::new(
            cfg.dim_head,
            cfg.dim_state,
            StateUpdateEngine::QuantizedStore { format, rounding },
            seed,
        );
        reference.warm_start(&warm);
        candidate.warm_start(&warm);

        let mut write_err_sum = 0.0;
        let mut ref_outputs = Vec::with_capacity(steps.len());
        let mut cand_outputs = Vec::with_capacity(steps.len());
        for s in &steps {
            let prev = candidate.state_matrix();
            let y_ref = reference.step(s);
            let y_cand = candidate.step(s);
            let next = candidate.state_matrix();

            // Probe the freshly-written association: innovation = S_t - d ⊙ S_{t-1},
            // projected onto the (normalized) key. Exact arithmetic returns v_t.
            let k_norm_sq: f64 =
                s.k.iter()
                    .map(|k| f64::from(*k) * f64::from(*k))
                    .sum::<f64>()
                    .max(1e-12);
            let ds = cfg.dim_state;
            let mut recovered = vec![0.0f64; ds];
            for i in 0..cfg.dim_head {
                let d_i = f64::from(s.decay.row_factor(i));
                let k_hat = f64::from(s.k[i]) / k_norm_sq;
                for (j, slot) in recovered.iter_mut().enumerate() {
                    let innovation = next[i * ds + j] - d_i * prev[i * ds + j];
                    *slot += innovation * k_hat;
                }
            }
            let v_norm: f64 =
                s.v.iter()
                    .map(|v| f64::from(*v) * f64::from(*v))
                    .sum::<f64>()
                    .sqrt()
                    .max(1e-12);
            let dev: f64 = recovered
                .iter()
                .zip(&s.v)
                .map(|(r, v)| (r - f64::from(*v)).powi(2))
                .sum::<f64>()
                .sqrt();
            write_err_sum += (dev / v_norm).min(WRITE_ERROR_CAP);

            ref_outputs.push(y_ref);
            cand_outputs.push(y_cand);
        }
        let write_err = write_err_sum / steps.len() as f64;
        let drift_err = output_cosine_distance(&ref_outputs, &cand_outputs);
        total += WRITE_WEIGHT * write_err + DRIFT_WEIGHT * drift_err;
    }
    total / cfg.n_heads as f64
}

/// Relative output error of attention with the KV cache stored in `format`.
pub(crate) fn kv_error(
    family: ModelFamily,
    format: QuantFormat,
    rounding: Rounding,
    cfg: &StudyConfig,
) -> f64 {
    let mut total = 0.0;
    for h in 0..cfg.n_heads {
        let seed = cfg.seed ^ (h as u64).wrapping_mul(0x9E37_79B9) ^ 0x5151;
        let mut stream = SynthStream::new(family, cfg.dim_head, cfg.dim_head, seed);
        let steps = stream.take_steps(cfg.steps);

        let mut reference = AttentionHead::new(cfg.dim_head, None, seed);
        let mut candidate = AttentionHead::new(cfg.dim_head, Some((format, rounding)), seed);
        let mut num = 0.0;
        let mut den = 0.0;
        for s in &steps {
            let r = reference.step(&s.q, &s.k, &s.v);
            let c = candidate.step(&s.q, &s.k, &s.v);
            for (x, y) in r.iter().zip(&c) {
                num += (x - y).abs();
                den += x.abs();
            }
        }
        total += if den == 0.0 { 0.0 } else { num / den };
    }
    total / cfg.n_heads as f64
}

/// WikiText-2 perplexity of the unquantized (fp16) model, anchored to the paper's
/// Table 2 / Figure 4 values.
pub(crate) fn fp16_perplexity(family: ModelFamily) -> f64 {
    match family {
        ModelFamily::RetNet => 15.83,
        ModelFamily::Gla => 15.54,
        ModelFamily::Hgrn2 => 14.48,
        ModelFamily::Mamba2 => 11.46,
        ModelFamily::Zamba2 => 5.94,
        ModelFamily::Opt => 12.29,
        ModelFamily::Llama => 5.68,
    }
}

/// Error below which quantization is considered inconsequential (fp16-level noise).
const ERROR_FLOOR: f64 = 0.02;
/// Exponential sensitivity of perplexity to *state* error. State errors compound over
/// the whole sequence, so perplexity reacts violently (thousands in the paper).
const STATE_PPL_ALPHA: f64 = 7.5;
/// Sensitivity of perplexity to *KV-cache* error. Cached entries are written once and
/// renormalized by the softmax, so transformers barely react (Figure 4, right side).
const KV_PPL_ALPHA: f64 = 0.6;

/// Maps a representation error to perplexity for `family`.
///
/// The map is monotone, equals the fp16 anchor at zero error, and — for state-update
/// models — grows exponentially so that the catastrophic errors produced by fp8
/// swamping land in the hundreds-to-thousands range the paper reports.
pub fn perplexity_from_error(family: ModelFamily, error: f64) -> f64 {
    let base = fp16_perplexity(family);
    let alpha = if family.has_state_update() {
        STATE_PPL_ALPHA
    } else {
        KV_PPL_ALPHA
    };
    let effective = (error - ERROR_FLOOR).max(0.0);
    base * (alpha * effective).exp()
}

/// Runs the study and returns the perplexity of `family` with its representation
/// stored in `format`/`rounding`.
pub fn perplexity(
    family: ModelFamily,
    format: QuantFormat,
    rounding: Rounding,
    cfg: &StudyConfig,
) -> f64 {
    if format == QuantFormat::Fp16 || format == QuantFormat::Fp32 {
        return fp16_perplexity(family);
    }
    let err = representation_error(family, format, rounding, cfg);
    perplexity_from_error(family, err)
}

/// Downstream evaluation tasks of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Physical commonsense QA (2-way).
    Piqa,
    /// LAMBADA last-word prediction.
    Lambada,
    /// HellaSwag sentence completion (4-way).
    HellaSwag,
    /// ARC-Easy (4-way).
    ArcEasy,
    /// ARC-Challenge (4-way).
    ArcChallenge,
    /// Winogrande coreference (2-way).
    WinoGrande,
}

impl Task {
    /// All tasks in the column order of Table 2.
    pub const ALL: [Task; 6] = [
        Task::Piqa,
        Task::Lambada,
        Task::HellaSwag,
        Task::ArcEasy,
        Task::ArcChallenge,
        Task::WinoGrande,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Task::Piqa => "Piqa",
            Task::Lambada => "Lambada",
            Task::HellaSwag => "HellaSwag",
            Task::ArcEasy => "ARC-E",
            Task::ArcChallenge => "ARC-C",
            Task::WinoGrande => "WinoGrande",
        }
    }

    /// Chance-level accuracy of the task in percent.
    pub(crate) fn chance_level(self) -> f64 {
        match self {
            Task::Piqa | Task::WinoGrande => 50.0,
            Task::Lambada => 0.0,
            Task::HellaSwag | Task::ArcEasy | Task::ArcChallenge => 25.0,
        }
    }
}

/// Baseline (fp16 / GPU) accuracy in percent, anchored to the paper's Table 2.
pub fn baseline_accuracy(family: ModelFamily, task: Task) -> f64 {
    use ModelFamily as F;
    use Task as T;
    match (family, task) {
        (F::RetNet, T::Piqa) => 72.3,
        (F::RetNet, T::Lambada) => 44.0,
        (F::RetNet, T::HellaSwag) => 42.0,
        (F::RetNet, T::ArcEasy) => 59.5,
        (F::RetNet, T::ArcChallenge) => 25.5,
        (F::RetNet, T::WinoGrande) => 53.1,
        (F::Gla, T::Piqa) => 71.6,
        (F::Gla, T::Lambada) => 43.8,
        (F::Gla, T::HellaSwag) => 41.8,
        (F::Gla, T::ArcEasy) => 59.1,
        (F::Gla, T::ArcChallenge) => 26.7,
        (F::Gla, T::WinoGrande) => 55.4,
        (F::Hgrn2, T::Piqa) => 73.1,
        (F::Hgrn2, T::Lambada) => 48.5,
        (F::Hgrn2, T::HellaSwag) => 44.6,
        (F::Hgrn2, T::ArcEasy) => 60.7,
        (F::Hgrn2, T::ArcChallenge) => 25.3,
        (F::Hgrn2, T::WinoGrande) => 54.7,
        (F::Mamba2, T::Piqa) => 76.4,
        (F::Mamba2, T::Lambada) => 59.6,
        (F::Mamba2, T::HellaSwag) => 49.6,
        (F::Mamba2, T::ArcEasy) => 69.4,
        (F::Mamba2, T::ArcChallenge) => 33.2,
        (F::Mamba2, T::WinoGrande) => 64.0,
        (F::Zamba2, T::Piqa) => 78.9,
        (F::Zamba2, T::Lambada) => 64.9,
        (F::Zamba2, T::HellaSwag) => 63.8,
        (F::Zamba2, T::ArcEasy) => 78.9,
        (F::Zamba2, T::ArcChallenge) => 53.8,
        (F::Zamba2, T::WinoGrande) => 77.7,
        (F::Opt, T::Piqa) => 76.2,
        (F::Opt, T::Lambada) => 63.3,
        (F::Opt, T::HellaSwag) => 50.5,
        (F::Opt, T::ArcEasy) => 65.6,
        (F::Opt, T::ArcChallenge) => 30.6,
        (F::Opt, T::WinoGrande) => 65.1,
        (F::Llama, T::Piqa) => 78.7,
        (F::Llama, T::Lambada) => 73.1,
        (F::Llama, T::HellaSwag) => 56.9,
        (F::Llama, T::ArcEasy) => 75.2,
        (F::Llama, T::ArcChallenge) => 41.9,
        (F::Llama, T::WinoGrande) => 70.0,
    }
}

/// Sensitivity of task accuracy to representation error (gentler than perplexity:
/// multiple-choice tasks only flip when the representation error is substantial).
const ACC_GAMMA: f64 = 0.6;

/// Maps a representation error to task accuracy for `family`/`task`.
pub(crate) fn accuracy_from_error(family: ModelFamily, task: Task, error: f64) -> f64 {
    let base = baseline_accuracy(family, task);
    let chance = task.chance_level();
    let effective = (error - ERROR_FLOOR).max(0.0);
    chance + (base - chance) * (-ACC_GAMMA * effective).exp()
}

/// Runs the study and returns the accuracy of `family` on `task` with its
/// representation stored in `format`/`rounding`.
pub fn task_accuracy(
    family: ModelFamily,
    task: Task,
    format: QuantFormat,
    rounding: Rounding,
    cfg: &StudyConfig,
) -> f64 {
    if format == QuantFormat::Fp16 || format == QuantFormat::Fp32 {
        return baseline_accuracy(family, task);
    }
    let err = representation_error(family, format, rounding, cfg);
    accuracy_from_error(family, task, err)
}

/// Geometric mean of a set of accuracies (the summary column of Table 2).
pub fn geometric_mean(accuracies: &[f64]) -> f64 {
    assert!(
        !accuracies.is_empty(),
        "cannot take the geometric mean of nothing"
    );
    let log_sum: f64 = accuracies.iter().map(|a| a.max(1e-9).ln()).sum();
    (log_sum / accuracies.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StudyConfig {
        StudyConfig::quick()
    }

    #[test]
    fn fp16_baselines_match_anchor() {
        for family in ModelFamily::PERFORMANCE_SET {
            let ppl = perplexity(family, QuantFormat::Fp16, Rounding::Nearest, &cfg());
            assert_eq!(ppl, fp16_perplexity(family));
        }
    }

    #[test]
    fn fp8_collapses_for_su_llms_but_not_for_transformers() {
        let c = cfg();
        for family in [ModelFamily::Mamba2, ModelFamily::Gla] {
            let base = fp16_perplexity(family);
            let e5m2 = perplexity(family, QuantFormat::E5m2, Rounding::Nearest, &c);
            assert!(
                e5m2 > 2.0 * base,
                "{family}: e5m2 ppl {e5m2} should blow up vs {base}"
            );
        }
        let opt_e5m2 = perplexity(ModelFamily::Opt, QuantFormat::E5m2, Rounding::Nearest, &c);
        let opt_base = fp16_perplexity(ModelFamily::Opt);
        assert!(
            opt_e5m2 < 1.5 * opt_base,
            "transformer KV quantization must stay benign ({opt_e5m2} vs {opt_base})"
        );
    }

    #[test]
    fn mx8_and_int8_stay_close_to_fp16_for_su_llms() {
        let c = cfg();
        for family in [ModelFamily::Mamba2, ModelFamily::RetNet] {
            let base = fp16_perplexity(family);
            for fmt in [QuantFormat::Mx8, QuantFormat::Int8] {
                let ppl = perplexity(family, fmt, Rounding::Stochastic, &c);
                assert!(
                    ppl < 1.6 * base,
                    "{family}/{fmt:?}: ppl {ppl} strays too far from fp16 {base}"
                );
            }
        }
    }

    #[test]
    fn stochastic_rounding_improves_fp8_substantially() {
        let c = cfg();
        let nearest = perplexity(
            ModelFamily::Mamba2,
            QuantFormat::E5m2,
            Rounding::Nearest,
            &c,
        );
        let stochastic = perplexity(
            ModelFamily::Mamba2,
            QuantFormat::E5m2,
            Rounding::Stochastic,
            &c,
        );
        assert!(
            stochastic < 0.7 * nearest,
            "SR ({stochastic}) must cut e5m2 perplexity substantially vs nearest ({nearest})"
        );
    }

    #[test]
    fn error_ordering_matches_mantissa_width_for_su_llms() {
        let c = cfg();
        let err = |fmt| state_error(ModelFamily::Mamba2, fmt, Rounding::Nearest, &c);
        let int8 = err(QuantFormat::Int8);
        let mx8 = err(QuantFormat::Mx8);
        let e4m3 = err(QuantFormat::E4m3);
        let e5m2 = err(QuantFormat::E5m2);
        assert!(int8 < e4m3);
        assert!(mx8 < e4m3);
        assert!(
            e4m3 < e5m2 * 3.0,
            "e4m3 ({e4m3}) should not be wildly worse than e5m2 ({e5m2})"
        );
    }

    #[test]
    fn accuracy_degrades_gracefully_and_respects_chance_level() {
        let acc0 = accuracy_from_error(ModelFamily::Mamba2, Task::Piqa, 0.0);
        assert_eq!(acc0, baseline_accuracy(ModelFamily::Mamba2, Task::Piqa));
        let acc_huge = accuracy_from_error(ModelFamily::Mamba2, Task::Piqa, 10.0);
        assert!(acc_huge >= Task::Piqa.chance_level() - 1e-9);
        assert!(acc_huge < acc0);
    }

    #[test]
    fn pimba_accuracy_is_within_half_point_of_baseline() {
        // Table 2: Pimba (MX8 + SR) loses at most ~0.3 points of geomean accuracy.
        let c = cfg();
        let family = ModelFamily::Mamba2;
        let gpu: Vec<f64> = Task::ALL
            .iter()
            .map(|&t| baseline_accuracy(family, t))
            .collect();
        let pimba: Vec<f64> = Task::ALL
            .iter()
            .map(|&t| task_accuracy(family, t, QuantFormat::Mx8, Rounding::Stochastic, &c))
            .collect();
        let drop = geometric_mean(&gpu) - geometric_mean(&pimba);
        assert!(drop.abs() < 1.0, "geomean drop {drop} too large");
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 9.0]) - 6.0).abs() < 1e-9);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "geometric mean of nothing")]
    fn empty_geomean_panics() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    fn perplexity_map_is_monotone_in_error() {
        let fam = ModelFamily::Gla;
        let mut last = 0.0;
        for err in [0.0, 0.05, 0.2, 0.5, 1.0, 2.0] {
            let ppl = perplexity_from_error(fam, err);
            assert!(ppl >= last);
            last = ppl;
        }
    }

    #[test]
    fn task_metadata() {
        assert_eq!(Task::ALL.len(), 6);
        assert_eq!(Task::Lambada.chance_level(), 0.0);
        assert_eq!(Task::ArcEasy.name(), "ARC-E");
    }
}

#[cfg(test)]
mod diagnostics {
    use super::*;

    /// Prints the error/perplexity landscape; run with `--ignored --nocapture` when
    /// re-calibrating the study.
    #[test]
    #[ignore]
    fn print_error_landscape() {
        let c = StudyConfig::quick();
        for family in [ModelFamily::Mamba2, ModelFamily::Gla, ModelFamily::RetNet] {
            for fmt in [
                QuantFormat::Fp16,
                QuantFormat::Int8,
                QuantFormat::Mx8,
                QuantFormat::E4m3,
                QuantFormat::E5m2,
            ] {
                for r in [Rounding::Nearest, Rounding::Stochastic] {
                    let err = state_error(family, fmt, r, &c);
                    let ppl = perplexity_from_error(family, err);
                    println!("{family:>8} {:>7} err={err:.4} ppl={ppl:.1}", fmt.label(r));
                }
            }
        }
    }
}
