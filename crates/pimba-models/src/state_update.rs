//! The generalized state update operation (Equation 2 of the paper) and the engines
//! that execute it under different storage/arithmetic regimes.
//!
//! ```text
//! S_t = d_t ⊙ S_{t-1} + k_t v_t^T        (decay, outer product, update)
//! y_t = S_t^T q_t                         (output GEMV)
//! ```
//!
//! `d_t`, `k_t`, `q_t` are `dim_head`-dimensional, `v_t` is `dim_state`-dimensional and
//! the per-head state `S` is a `dim_head x dim_state` matrix. The decay is either a
//! scalar (RetNet, Mamba-2) or a gating vector broadcast across `dim_state` (GLA,
//! HGRN2).
//!
//! Three engines are provided:
//!
//! * [`StateUpdateEngine::Exact`] — `f64` golden model,
//! * [`StateUpdateEngine::QuantizedStore`] — compute in `f32`, but the state is stored
//!   through a [`QuantFormat`] after every update (what a GPU with a quantized state,
//!   "GPU+Q", does),
//! * [`StateUpdateEngine::SpeMx`] — the state lives in MX8 groups per state column and
//!   all arithmetic goes through the bit-level MX multiplier/adder/dot-product models,
//!   mirroring the SPU pipeline of Figure 8.

use crate::synth::StepInputs;
use pimba_num::mx::MxGroup;
use pimba_num::{MxAdder, MxDotProductUnit, MxMultiplier, QuantFormat, Rounding, StochasticSource};

/// Decay operand of one step.
#[derive(Debug, Clone, PartialEq)]
pub enum DecayInput {
    /// Single scalar applied to the whole state.
    Scalar(f32),
    /// Per-row (`dim_head`) gating vector broadcast along `dim_state`.
    Vector(Vec<f32>),
}

impl DecayInput {
    /// Decay factor for state row `i`.
    pub fn row_factor(&self, i: usize) -> f32 {
        match self {
            DecayInput::Scalar(a) => *a,
            DecayInput::Vector(g) => g[i],
        }
    }
}

/// How the state is stored and the update arithmetic is performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateUpdateEngine {
    /// Double-precision golden model.
    Exact,
    /// `f32` compute with the state stored through `format` after every update.
    QuantizedStore {
        /// Storage format of the state.
        format: QuantFormat,
        /// Rounding applied when storing.
        rounding: Rounding,
    },
    /// State stored as MX8 column groups, arithmetic through the SPE unit models.
    SpeMx {
        /// Rounding applied by the SPE (the paper uses stochastic rounding).
        rounding: Rounding,
    },
}

/// One state-update head.
#[derive(Debug, Clone)]
pub struct StateUpdateHead {
    dim_head: usize,
    dim_state: usize,
    engine: StateUpdateEngine,
    /// Row-major `dim_head x dim_state` state for the Exact/QuantizedStore engines.
    state: Vec<f64>,
    /// Column-major MX groups for the SpeMx engine: `dim_state` columns, each split
    /// into groups of 16 along `dim_head`.
    mx_columns: Vec<Vec<MxGroup>>,
    src: StochasticSource,
}

impl StateUpdateHead {
    /// Creates a zero-initialized head.
    pub fn new(dim_head: usize, dim_state: usize, engine: StateUpdateEngine, seed: u64) -> Self {
        let mx_columns = match engine {
            StateUpdateEngine::SpeMx { .. } => {
                let groups_per_col = dim_head.div_ceil(pimba_num::MX_GROUP_SIZE);
                vec![
                    (0..groups_per_col)
                        .map(|g| {
                            let len = pimba_num::MX_GROUP_SIZE
                                .min(dim_head - g * pimba_num::MX_GROUP_SIZE);
                            MxGroup::from_raw(0, vec![0; len.div_ceil(2)], vec![0; len])
                        })
                        .collect();
                    dim_state
                ]
            }
            _ => Vec::new(),
        };
        Self {
            dim_head,
            dim_state,
            engine,
            state: vec![0.0; dim_head * dim_state],
            mx_columns,
            src: StochasticSource::from_seed(seed),
        }
    }

    /// Head dimension (`dim_head`).
    pub fn dim_head(&self) -> usize {
        self.dim_head
    }

    /// State dimension (`dim_state`).
    pub fn dim_state(&self) -> usize {
        self.dim_state
    }

    /// The engine this head runs on.
    pub fn engine(&self) -> StateUpdateEngine {
        self.engine
    }

    /// Current state as a dense row-major matrix (dequantized if necessary).
    pub fn state_matrix(&self) -> Vec<f64> {
        match self.engine {
            StateUpdateEngine::SpeMx { .. } => {
                let mut out = vec![0.0; self.dim_head * self.dim_state];
                for (j, col) in self.mx_columns.iter().enumerate() {
                    let mut i = 0;
                    for group in col {
                        for v in group.dequantize() {
                            out[i * self.dim_state + j] = f64::from(v);
                            i += 1;
                        }
                    }
                }
                out
            }
            _ => self.state.clone(),
        }
    }

    /// Initializes the state with the given row-major values, emulating a head that
    /// has already processed a long context (its state magnitude dwarfs a single
    /// token's contribution). For quantized engines the values are first passed
    /// through the storage format, as they would be in memory.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim_head * dim_state`.
    pub fn warm_start(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.dim_head * self.dim_state,
            "warm start size mismatch"
        );
        match self.engine {
            StateUpdateEngine::Exact => {
                for (slot, v) in self.state.iter_mut().zip(values) {
                    *slot = f64::from(*v);
                }
            }
            StateUpdateEngine::QuantizedStore { format, rounding } => {
                let mut stored = values.to_vec();
                format.store_roundtrip(&mut stored, rounding, &mut self.src);
                for (slot, v) in self.state.iter_mut().zip(&stored) {
                    *slot = f64::from(*v);
                }
            }
            StateUpdateEngine::SpeMx { rounding } => {
                let group_size = pimba_num::MX_GROUP_SIZE;
                for (j, column) in self.mx_columns.iter_mut().enumerate() {
                    let col: Vec<f32> = (0..self.dim_head)
                        .map(|i| values[i * self.dim_state + j])
                        .collect();
                    *column = col
                        .chunks(group_size)
                        .map(|chunk| MxGroup::quantize(chunk, rounding, &mut self.src))
                        .collect();
                }
            }
        }
    }

    /// Executes one token step and returns the output vector `y_t` (`dim_state` long).
    ///
    /// # Panics
    ///
    /// Panics if the input vector lengths do not match the head dimensions.
    pub fn step(&mut self, inputs: &StepInputs) -> Vec<f64> {
        assert_eq!(inputs.k.len(), self.dim_head, "k length mismatch");
        assert_eq!(inputs.q.len(), self.dim_head, "q length mismatch");
        assert_eq!(inputs.v.len(), self.dim_state, "v length mismatch");
        if let DecayInput::Vector(g) = &inputs.decay {
            assert_eq!(g.len(), self.dim_head, "gating vector length mismatch");
        }
        match self.engine {
            StateUpdateEngine::Exact => self.step_dense(inputs, None),
            StateUpdateEngine::QuantizedStore { format, rounding } => {
                self.step_dense(inputs, Some((format, rounding)))
            }
            StateUpdateEngine::SpeMx { rounding } => self.step_spe(inputs, rounding),
        }
    }

    /// Dense-path step: exact or with a storage round-trip after the update.
    fn step_dense(
        &mut self,
        inputs: &StepInputs,
        store: Option<(QuantFormat, Rounding)>,
    ) -> Vec<f64> {
        let ds = self.dim_state;
        // Decay + outer-product update.
        for i in 0..self.dim_head {
            let decay = f64::from(inputs.decay.row_factor(i));
            let k_i = f64::from(inputs.k[i]);
            let row = &mut self.state[i * ds..(i + 1) * ds];
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = decay * *slot + k_i * f64::from(inputs.v[j]);
            }
        }
        // Optional storage round-trip (the state lives in `format` in memory).
        if let Some((format, rounding)) = store {
            let mut as_f32: Vec<f32> = self.state.iter().map(|&v| v as f32).collect();
            format.store_roundtrip(&mut as_f32, rounding, &mut self.src);
            for (slot, v) in self.state.iter_mut().zip(&as_f32) {
                *slot = f64::from(*v);
            }
        }
        // Output GEMV: y = S^T q.
        let mut y = vec![0.0f64; ds];
        for i in 0..self.dim_head {
            let q_i = f64::from(inputs.q[i]);
            let row = &self.state[i * ds..(i + 1) * ds];
            for (j, slot) in y.iter_mut().enumerate() {
                *slot += q_i * row[j];
            }
        }
        y
    }

    /// SPE-path step: every state column goes through the MX multiplier (decay),
    /// MX multiplier (outer product), MX adder (update) and dot-product unit (output),
    /// exactly like one SPU iteration per sub-chunk.
    fn step_spe(&mut self, inputs: &StepInputs, rounding: Rounding) -> Vec<f64> {
        let dh = self.dim_head;
        let group_size = pimba_num::MX_GROUP_SIZE;
        let n_groups = dh.div_ceil(group_size);

        // Pre-quantize the shared operands (d, k, q) once per step, as the hardware
        // loads them into SPU registers once per chunk group.
        let decay_vec: Vec<f32> = (0..dh).map(|i| inputs.decay.row_factor(i)).collect();
        let d_groups: Vec<MxGroup> = (0..n_groups)
            .map(|g| {
                let lo = g * group_size;
                let hi = (lo + group_size).min(dh);
                MxGroup::quantize(&decay_vec[lo..hi], rounding, &mut self.src)
            })
            .collect();
        let k_groups: Vec<MxGroup> = (0..n_groups)
            .map(|g| {
                let lo = g * group_size;
                let hi = (lo + group_size).min(dh);
                MxGroup::quantize(&inputs.k[lo..hi], rounding, &mut self.src)
            })
            .collect();
        let q_groups: Vec<MxGroup> = (0..n_groups)
            .map(|g| {
                let lo = g * group_size;
                let hi = (lo + group_size).min(dh);
                MxGroup::quantize(&inputs.q[lo..hi], rounding, &mut self.src)
            })
            .collect();

        let mul = MxMultiplier;
        let add = MxAdder;
        let dot = MxDotProductUnit;

        let mut y = vec![0.0f64; self.dim_state];
        for (j, column) in self.mx_columns.iter_mut().enumerate() {
            let v_j = inputs.v[j];
            let mut acc = 0.0f64;
            for (g, group) in column.iter_mut().enumerate() {
                let len = group.len();
                // Stage 2a: state decay (element-wise multiply with the gate/decay).
                let decayed = mul.multiply(group, &d_groups[g], rounding, &mut self.src);
                // Stage 2b: outer-product contribution k_i * v_j for this sub-chunk.
                let kv: Vec<f32> = k_groups[g].dequantize().iter().map(|k| k * v_j).collect();
                let kv_group = MxGroup::quantize(&kv[..len], rounding, &mut self.src);
                // Stage 3: update (MX add), written back to the state.
                let updated = add.add(&decayed, &kv_group, rounding, &mut self.src);
                // Stage 4: dot product with q accumulating the output for column j.
                acc += dot.dot(&updated, &q_groups[g]);
                *group = updated;
            }
            y[j] = acc;
        }
        y
    }

    /// Runs a whole input sequence, returning the outputs of every step.
    pub fn run(&mut self, steps: &[StepInputs]) -> Vec<Vec<f64>> {
        steps.iter().map(|s| self.step(s)).collect()
    }
}

/// Mean cosine distance (1 - cosine similarity) between per-step outputs.
///
/// This is the core metric of the accuracy study: it measures whether the quantized
/// state still *tracks the information* the reference state carries. A state frozen by
/// swamping keeps a plausible magnitude but loses every recent token, which cosine
/// distance punishes and plain L1 error does not; conversely the zero-mean noise of
/// stochastic rounding barely rotates the output. Steps whose reference output is
/// (near) zero are skipped.
pub fn output_cosine_distance(reference: &[Vec<f64>], candidate: &[Vec<f64>]) -> f64 {
    assert_eq!(reference.len(), candidate.len(), "sequence length mismatch");
    let mut total = 0.0;
    let mut counted = 0usize;
    for (r, c) in reference.iter().zip(candidate) {
        assert_eq!(r.len(), c.len(), "output width mismatch");
        let dot: f64 = r.iter().zip(c).map(|(a, b)| a * b).sum();
        let nr: f64 = r.iter().map(|a| a * a).sum::<f64>().sqrt();
        let nc: f64 = c.iter().map(|a| a * a).sum::<f64>().sqrt();
        if nr < 1e-12 {
            continue;
        }
        let sim = if nc < 1e-12 {
            0.0
        } else {
            (dot / (nr * nc)).clamp(-1.0, 1.0)
        };
        total += 1.0 - sim;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelFamily;
    use crate::synth::SynthStream;

    /// Mean relative L1 error between two output sequences, normalized by the reference
    /// magnitude: the error metric of the MX8-versus-E5M2 test below.
    fn output_relative_error(reference: &[Vec<f64>], candidate: &[Vec<f64>]) -> f64 {
        assert_eq!(reference.len(), candidate.len(), "sequence length mismatch");
        let mut num = 0.0;
        let mut den = 0.0;
        for (r, c) in reference.iter().zip(candidate) {
            assert_eq!(r.len(), c.len(), "output width mismatch");
            for (x, y) in r.iter().zip(c) {
                num += (x - y).abs();
                den += x.abs();
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    fn run_engine(
        engine: StateUpdateEngine,
        steps: &[StepInputs],
        dh: usize,
        ds: usize,
    ) -> Vec<Vec<f64>> {
        let mut head = StateUpdateHead::new(dh, ds, engine, 7);
        head.run(steps)
    }

    #[test]
    fn exact_engine_matches_manual_recurrence() {
        let dh = 2;
        let ds = 3;
        let steps = [
            StepInputs {
                decay: DecayInput::Scalar(0.5),
                k: vec![1.0, 2.0],
                v: vec![1.0, 0.0, -1.0],
                q: vec![1.0, 1.0],
            },
            StepInputs {
                decay: DecayInput::Scalar(0.5),
                k: vec![0.0, 1.0],
                v: vec![2.0, 2.0, 2.0],
                q: vec![1.0, 0.0],
            },
        ];
        let mut head = StateUpdateHead::new(dh, ds, StateUpdateEngine::Exact, 0);
        let y1 = head.step(&steps[0]);
        // S = k v^T => rows [1,0,-1], [2,0,-2]; y = S^T q = [3, 0, -3].
        assert_eq!(y1, vec![3.0, 0.0, -3.0]);
        let y2 = head.step(&steps[1]);
        // S = 0.5*S + k2 v2^T => row0 [0.5,0,-0.5], row1 [1+2, 0+2, -1+2]=[3,2,1];
        // y = S^T q with q=[1,0] => [0.5, 0, -0.5].
        assert_eq!(y2, vec![0.5, 0.0, -0.5]);
        let state = head.state_matrix();
        assert_eq!(state[0..3], [0.5, 0.0, -0.5]);
        assert_eq!(state[3..6], [3.0, 2.0, 1.0]);
    }

    #[test]
    fn gating_vector_decays_rows_independently() {
        let steps = [StepInputs {
            decay: DecayInput::Vector(vec![1.0, 0.0]),
            k: vec![0.0, 0.0],
            v: vec![1.0],
            q: vec![1.0, 1.0],
        }];
        let mut head = StateUpdateHead::new(2, 1, StateUpdateEngine::Exact, 0);
        // Seed the state by a first step with k=[1,1].
        head.step(&StepInputs {
            decay: DecayInput::Scalar(1.0),
            k: vec![1.0, 1.0],
            v: vec![4.0],
            q: vec![0.0, 0.0],
        });
        let _ = head.step(&steps[0]);
        let state = head.state_matrix();
        assert_eq!(state, vec![4.0, 0.0], "row 1 must be fully forgotten");
    }

    #[test]
    fn fp16_storage_tracks_exact_closely() {
        let mut stream = SynthStream::new(ModelFamily::Mamba2, 32, 32, 3);
        let steps = stream.take_steps(128);
        let reference = run_engine(StateUpdateEngine::Exact, &steps, 32, 32);
        let fp16 = run_engine(
            StateUpdateEngine::QuantizedStore {
                format: QuantFormat::Fp16,
                rounding: Rounding::Nearest,
            },
            &steps,
            32,
            32,
        );
        let err = output_relative_error(&reference, &fp16);
        assert!(err < 0.01, "fp16 error {err} too large");
    }

    #[test]
    fn e5m2_storage_diverges_much_more_than_mx8() {
        let mut stream = SynthStream::new(ModelFamily::Mamba2, 32, 32, 5);
        let steps = stream.take_steps(256);
        let reference = run_engine(StateUpdateEngine::Exact, &steps, 32, 32);
        let mx8 = run_engine(
            StateUpdateEngine::QuantizedStore {
                format: QuantFormat::Mx8,
                rounding: Rounding::Nearest,
            },
            &steps,
            32,
            32,
        );
        let e5m2 = run_engine(
            StateUpdateEngine::QuantizedStore {
                format: QuantFormat::E5m2,
                rounding: Rounding::Nearest,
            },
            &steps,
            32,
            32,
        );
        let err_mx8 = output_relative_error(&reference, &mx8);
        let err_e5m2 = output_relative_error(&reference, &e5m2);
        assert!(
            err_e5m2 > 2.0 * err_mx8,
            "e5m2 ({err_e5m2}) must degrade much more than mx8 ({err_mx8})"
        );
    }

    #[test]
    fn low_precision_floats_diverge_far_more_than_fp16_on_cosine_distance() {
        let mut stream = SynthStream::new(ModelFamily::Gla, 32, 32, 11);
        let steps = stream.take_steps(256);
        let reference = run_engine(StateUpdateEngine::Exact, &steps, 32, 32);
        let fp16 = run_engine(
            StateUpdateEngine::QuantizedStore {
                format: QuantFormat::Fp16,
                rounding: Rounding::Nearest,
            },
            &steps,
            32,
            32,
        );
        let e5m2 = run_engine(
            StateUpdateEngine::QuantizedStore {
                format: QuantFormat::E5m2,
                rounding: Rounding::Nearest,
            },
            &steps,
            32,
            32,
        );
        let err_fp16 = output_cosine_distance(&reference, &fp16);
        let err_e5m2 = output_cosine_distance(&reference, &e5m2);
        assert!(
            err_e5m2 > 10.0 * err_fp16,
            "e5m2 cosine distance ({err_e5m2}) must dwarf fp16 ({err_fp16})"
        );
    }

    #[test]
    fn spe_mx_engine_tracks_reference_within_mx_error() {
        let mut stream = SynthStream::new(ModelFamily::Mamba2, 32, 16, 13);
        let steps = stream.take_steps(64);
        let reference = run_engine(StateUpdateEngine::Exact, &steps, 32, 16);
        let spe = run_engine(
            StateUpdateEngine::SpeMx {
                rounding: Rounding::Stochastic,
            },
            &steps,
            32,
            16,
        );
        let err = output_cosine_distance(&reference, &spe);
        assert!(err < 0.2, "SPE MX cosine distance {err} unexpectedly large");
    }

    #[test]
    fn spe_state_matrix_is_reconstructible() {
        let mut head = StateUpdateHead::new(
            16,
            4,
            StateUpdateEngine::SpeMx {
                rounding: Rounding::Nearest,
            },
            3,
        );
        let mut stream = SynthStream::new(ModelFamily::Mamba2, 16, 4, 9);
        head.run(&stream.take_steps(8));
        let m = head.state_matrix();
        assert_eq!(m.len(), 16 * 4);
        assert!(m.iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "k length mismatch")]
    fn dimension_mismatch_panics() {
        let mut head = StateUpdateHead::new(4, 4, StateUpdateEngine::Exact, 0);
        let _ = head.step(&StepInputs {
            decay: DecayInput::Scalar(1.0),
            k: vec![1.0; 3],
            v: vec![1.0; 4],
            q: vec![1.0; 4],
        });
    }

    #[test]
    fn output_relative_error_of_identical_sequences_is_zero() {
        let a = vec![vec![1.0, 2.0], vec![3.0, -4.0]];
        assert_eq!(output_relative_error(&a, &a.clone()), 0.0);
    }
}
