//! Dense per-run latency tables: O(1) array reads on the serving hot path.
//!
//! The discrete-event engine of `pimba-serve` looks up one decode-step latency
//! per step and one prefill latency per admission. Rebuilding a step workload
//! (or hashing a prefill key into the shared
//! [`LatencyCache`](crate::cache::LatencyCache)) per lookup costs more than the
//! lookup is worth. These tables instead give one simulation run a *private,
//! dense* memo indexed by `(batch, seq-bucket)`: plain `Vec` indexing, no
//! hashing, no locks, no sharing.
//!
//! Rows (one per batch size) allocate lazily on first touch, so a run that
//! visits 30 distinct batch sizes pays for 30 rows, not `max_batch`. Step
//! entries fill through a per-row [`StepFunction`]; prefill entries fill from
//! the backing [`ServingSimulator`], whose prefill cache computes a prefill
//! repeated across the cells of a grid once globally. A table entry stores the
//! exact `f64` the simulator returns; reads are bit-identical to calling the
//! simulator directly, which keeps the engine's results independent of whether
//! (and how often) a table is used.

use crate::serving::{ServingSimulator, StepFunction};
use pimba_models::config::ModelConfig;

/// Rounds `seq` up to a multiple of `bucket`.
fn round_up(seq: usize, bucket: usize) -> usize {
    seq.div_ceil(bucket) * bucket
}

/// Lazily filled dense rows over `(batch, bucket-index)`, shared by the step
/// and prefill tables.
#[derive(Debug)]
struct DenseRows {
    seq_bucket: usize,
    /// Number of bucket slots per row (highest reachable index + 1).
    slots: usize,
    /// One row per batch size (index 0 unused), allocated on first touch.
    rows: Vec<Option<Box<[f64]>>>,
}

impl DenseRows {
    fn new(seq_bucket: usize, max_batch: usize, max_seq: usize) -> Self {
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        Self {
            seq_bucket,
            slots: round_up(max_seq, seq_bucket) / seq_bucket + 1,
            rows: vec![None; max_batch + 1],
        }
    }

    /// The memoized value at `(batch, bucketed_seq)`, computing it on first
    /// access; `None` when the coordinates fall outside the table (the caller
    /// falls back to the simulator).
    fn get_or_fill(
        &mut self,
        batch: usize,
        bucketed_seq: usize,
        fill: impl FnOnce() -> f64,
    ) -> Option<f64> {
        let slot = bucketed_seq / self.seq_bucket;
        let slots = self.slots;
        let row = self
            .rows
            .get_mut(batch)?
            .get_or_insert_with(|| vec![f64::NAN; slots].into_boxed_slice());
        let entry = row.get_mut(slot)?;
        if entry.is_nan() {
            *entry = fill();
        }
        Some(*entry)
    }
}

/// Dense decode-step latency table for one `(simulator, model, seq-bucket)`:
/// the per-run fast path of the serving engine's hot loop.
///
/// Entries fill through a per-batch-row [`StepFunction`]: the seq-invariant
/// operators are evaluated once per row and only the attention operator is
/// evaluated per bucket — the same decomposition the sweep engine uses, and
/// bit-identical to `generation_step` (its fill path sums the same values in
/// the same order).
#[derive(Debug)]
pub struct StepLatencyTable<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    rows: DenseRows,
    /// One lazily built seq-invariant evaluator per batch row.
    step_fns: Vec<Option<StepFunction<'a>>>,
}

impl<'a> StepLatencyTable<'a> {
    /// A table covering batches `0..=max_batch` and sequence lengths
    /// `0..=max_seq` (after rounding up to `seq_bucket`). Entries fill lazily.
    pub fn new(
        sim: &'a ServingSimulator,
        model: &'a ModelConfig,
        seq_bucket: usize,
        max_batch: usize,
        max_seq: usize,
    ) -> Self {
        Self {
            sim,
            model,
            rows: DenseRows::new(seq_bucket, max_batch, max_seq.max(1)),
            step_fns: vec![None; max_batch + 1],
        }
    }

    /// Latency of one generation step over `batch` requests at `seq_len`
    /// (rounded up to the table's bucket) — exactly
    /// `generation_step(model, batch, bucketed(seq_len.max(1))).total_ns`.
    pub fn step_ns(&mut self, batch: usize, seq_len: usize) -> f64 {
        let bucketed = round_up(seq_len.max(1), self.rows.seq_bucket);
        let (sim, model) = (self.sim, self.model);
        match self.step_fns.get_mut(batch) {
            Some(slot) => {
                let step_fn = slot.get_or_insert_with(|| sim.step_function(model, batch));
                self.rows
                    .get_or_fill(batch, bucketed, || step_fn.total_ns(bucketed))
                    .unwrap_or_else(|| step_fn.total_ns(bucketed))
            }
            // Beyond the declared batch bound: answer from the simulator.
            None => sim.generation_step(model, batch, bucketed).total_ns,
        }
    }
}

/// Dense prefill latency table, the admission-path twin of
/// [`StepLatencyTable`].
#[derive(Debug)]
pub struct PrefillLatencyTable<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    rows: DenseRows,
}

impl<'a> PrefillLatencyTable<'a> {
    /// A table covering batches `0..=max_batch` and prompts `0..=max_prompt`
    /// (after rounding up to `seq_bucket`). Entries fill lazily.
    pub fn new(
        sim: &'a ServingSimulator,
        model: &'a ModelConfig,
        seq_bucket: usize,
        max_batch: usize,
        max_prompt: usize,
    ) -> Self {
        Self {
            sim,
            model,
            rows: DenseRows::new(seq_bucket, max_batch, max_prompt),
        }
    }

    /// Latency of prefilling a batch of `batch` prompts of `prompt_len` tokens
    /// (rounded up to the table's bucket) — exactly
    /// `prefill_latency_ns(model, batch, bucketed(prompt_len))`.
    pub fn prefill_ns(&mut self, batch: usize, prompt_len: usize) -> f64 {
        let bucketed = round_up(prompt_len, self.rows.seq_bucket);
        let (sim, model) = (self.sim, self.model);
        self.rows
            .get_or_fill(batch, bucketed, || {
                sim.prefill_latency_ns(model, batch, bucketed)
            })
            .unwrap_or_else(|| sim.prefill_latency_ns(model, batch, bucketed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, SystemKind};
    use pimba_models::config::{ModelFamily, ModelScale};

    fn setup() -> (ServingSimulator, ModelConfig) {
        (
            ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
            ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small),
        )
    }

    #[test]
    fn step_table_matches_simulator_bit_for_bit() {
        let (sim, model) = setup();
        let mut table = StepLatencyTable::new(&sim, &model, 32, 64, 4096);
        for (batch, seq) in [(1usize, 1usize), (8, 500), (64, 4096), (64, 4095), (3, 31)] {
            let bucketed = seq.max(1).div_ceil(32) * 32;
            let direct = sim.generation_step(&model, batch, bucketed).total_ns;
            assert_eq!(table.step_ns(batch, seq), direct, "b={batch} s={seq}");
            // Second read answers from the dense row, same bits.
            assert_eq!(table.step_ns(batch, seq), direct);
        }
    }

    #[test]
    fn prefill_table_matches_simulator_bit_for_bit() {
        let (sim, model) = setup();
        let mut table = PrefillLatencyTable::new(&sim, &model, 64, 16, 2048);
        for (batch, prompt) in [(1usize, 64usize), (16, 2048), (4, 1), (2, 129)] {
            let bucketed = prompt.div_ceil(64) * 64;
            let direct = sim.prefill_latency_ns(&model, batch, bucketed);
            assert_eq!(table.prefill_ns(batch, prompt), direct);
            assert_eq!(table.prefill_ns(batch, prompt), direct);
        }
    }

    #[test]
    fn out_of_range_lookups_fall_back_to_the_simulator() {
        let (sim, model) = setup();
        let mut table = StepLatencyTable::new(&sim, &model, 32, 4, 256);
        // Batch and seq both beyond the declared bounds still answer correctly.
        let direct = sim.generation_step(&model, 9, 512).total_ns;
        assert_eq!(table.step_ns(9, 512), direct);
    }

    #[test]
    fn rows_allocate_lazily() {
        let (sim, model) = setup();
        let mut table = StepLatencyTable::new(&sim, &model, 32, 512, 8192);
        assert!(table.rows.rows.iter().all(Option::is_none));
        table.step_ns(17, 100);
        assert_eq!(table.rows.rows.iter().filter(|r| r.is_some()).count(), 1);
    }
}
