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
//! visits 30 distinct batch sizes pays for 30 rows, not `max_batch`. A row is
//! paged: it allocates 256-slot pages on first touch, so a run that reads a
//! few sequence lengths of a long row pays for the pages around them, not for
//! the whole row, and a row no longer than one page is a single page of
//! exactly its length. A step table over an attention-free model keeps one
//! slot per row: its step latency does not depend on the sequence length
//! ([`GenerationWorkload::step_is_seq_invariant`]), so every length reads the
//! same entry, and the engine never re-reads it as sequences grow
//! ([`StepLatencyTable::seq_invariant`]).
//!
//! A caller walking a growing sequence reads consecutive buckets of one row
//! in one call ([`StepLatencyTable::step_run`]): the run stops at its page's
//! end, and its missing entries fill in one pass. The engine's folded decode
//! path reads this way, so a decode step entering a new bucket costs an array
//! read rather than a table call; a seq-invariant table answers a run of one
//! entry that holds at every length.
//!
//! Step entries fill through a per-row [`StepFunction`], which derives
//! everything but the attention latency once per row; prefill entries fill
//! from the backing [`ServingSimulator`], whose prefill cache computes a
//! prefill repeated across the cells of a grid once globally. A table entry
//! stores the exact `f64` the simulator returns; reads are bit-identical to
//! calling the simulator directly, which keeps the engine's results
//! independent of whether (and how often) a table is used.

use crate::serving::{ServingSimulator, StepFunction};
use pimba_models::config::ModelConfig;
use pimba_models::workload::GenerationWorkload;

/// Slots per page of a dense row.
const PAGE: usize = 256;

/// Rounds `seq` up to a multiple of `bucket`.
fn round_up(seq: usize, bucket: usize) -> usize {
    seq.div_ceil(bucket) * bucket
}

/// A row's page directory: one entry per [`PAGE`] slots, `None` until the
/// page is first touched.
type Pages = Box<[Option<Box<[f64]>>]>;

/// Lazily filled, paged dense rows over `(batch, slot)`, shared by the step
/// and prefill tables.
#[derive(Debug)]
struct DenseRows {
    /// Number of slots per row (highest reachable index + 1).
    slots: usize,
    /// One page directory per batch size (index 0 unused), empty until the
    /// row is first touched.
    rows: Vec<Pages>,
}

impl DenseRows {
    fn new(slots: usize, max_batch: usize) -> Self {
        Self {
            slots,
            rows: (0..=max_batch).map(|_| Box::default()).collect(),
        }
    }

    /// The entries of `slot`'s page of row `batch` from `slot` to the page's
    /// end, allocating the row's page directory and the page on first
    /// touch; `None` when the coordinates fall outside the table (the caller
    /// falls back to the simulator).
    // Forced inline: left out of line, it cost the one-entry read of the
    // per-step decode path about 1.5 ns (a third) in a release micro-bench.
    #[inline(always)]
    fn page_from(&mut self, batch: usize, slot: usize) -> Option<&mut [f64]> {
        if slot >= self.slots {
            return None;
        }
        let slots = self.slots;
        let row = self.rows.get_mut(batch)?;
        if row.is_empty() {
            *row = vec![None; slots.div_ceil(PAGE)].into_boxed_slice();
        }
        let page = slot / PAGE;
        let entries = row[page].get_or_insert_with(|| {
            vec![f64::NAN; PAGE.min(slots - page * PAGE)].into_boxed_slice()
        });
        Some(&mut entries[slot % PAGE..])
    }

    /// The memoized value at `(batch, slot)`, computing it on first access;
    /// `None` outside the table.
    fn get_or_fill(
        &mut self,
        batch: usize,
        slot: usize,
        fill: impl FnOnce() -> f64,
    ) -> Option<f64> {
        let entry = &mut self.page_from(batch, slot)?[0];
        if entry.is_nan() {
            *entry = fill();
        }
        Some(*entry)
    }

    /// The memoized values of up to `max_len` consecutive slots of row
    /// `batch` from `slot`, all within `slot`'s page (the run ends early at
    /// the page's end), computing each missing entry as `fill(slot index)`
    /// in one pass; `None` outside the table.
    fn run_or_fill(
        &mut self,
        batch: usize,
        slot: usize,
        max_len: usize,
        mut fill: impl FnMut(usize) -> f64,
    ) -> Option<&[f64]> {
        let rest = self.page_from(batch, slot)?;
        let len = max_len.min(rest.len());
        let run = &mut rest[..len];
        for (offset, entry) in run.iter_mut().enumerate() {
            if entry.is_nan() {
                *entry = fill(slot + offset);
            }
        }
        Some(run)
    }
}

/// Dense decode-step latency table for one `(simulator, model, seq-bucket)`:
/// the per-run fast path of the serving engine's hot loop.
///
/// Entries fill through a per-batch-row [`StepFunction`]: the seq-invariant
/// operators, their sum and the seq-invariant factors of attention are
/// evaluated once per row and only the attention latency is evaluated per
/// bucket, bit-identical to `generation_step` (its fill path sums the same
/// values in the same order). An attention-free model has no per-bucket
/// operator, so its table holds one slot per row.
///
/// [`StepLatencyTable::step_run`] reads consecutive buckets of one row at
/// once, so a caller walking a growing sequence (the engine's folded decode
/// path) pays one call per page rather than one per bucket.
#[derive(Debug)]
pub struct StepLatencyTable<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    seq_bucket: usize,
    seq_invariant: bool,
    rows: DenseRows,
    /// One lazily built seq-invariant evaluator per batch row.
    step_fns: Vec<Option<StepFunction<'a>>>,
    /// The answer of the last one-entry run read outside the table's rows
    /// (or from a seq-invariant table), which the run borrows.
    fallback: f64,
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
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        let seq_invariant = GenerationWorkload::step_is_seq_invariant(model);
        let slots = if seq_invariant {
            1
        } else {
            round_up(max_seq.max(1), seq_bucket) / seq_bucket + 1
        };
        Self {
            sim,
            model,
            seq_bucket,
            seq_invariant,
            rows: DenseRows::new(slots, max_batch),
            step_fns: vec![None; max_batch + 1],
            fallback: f64::NAN,
        }
    }

    /// Whether every sequence length reads the same latency for a given
    /// batch (an attention-free model): a caller stepping through sequence
    /// lengths may then keep the latency it read.
    pub fn seq_invariant(&self) -> bool {
        self.seq_invariant
    }

    /// Latency of one generation step over `batch` requests at `seq_len`
    /// (rounded up to the table's bucket) — exactly
    /// `generation_step(model, batch, bucketed(seq_len.max(1))).total_ns`.
    pub fn step_ns(&mut self, batch: usize, seq_len: usize) -> f64 {
        let bucketed = round_up(seq_len.max(1), self.seq_bucket);
        let slot = if self.seq_invariant {
            0
        } else {
            bucketed / self.seq_bucket
        };
        let (sim, model) = (self.sim, self.model);
        match self.step_fns.get_mut(batch) {
            Some(step_fn) => {
                let step_fn = step_fn.get_or_insert_with(|| sim.step_function(model, batch));
                self.rows
                    .get_or_fill(batch, slot, || step_fn.total_ns(bucketed))
                    .unwrap_or_else(|| step_fn.total_ns(bucketed))
            }
            // Beyond the declared batch bound: answer from the simulator.
            None => sim.generation_step(model, batch, bucketed).total_ns,
        }
    }

    /// The step latencies of `batch` requests at consecutive seq buckets,
    /// starting at the one holding `seq_len`: entry `i` is
    /// [`step_ns`](Self::step_ns) at `seq_len`'s bucket plus `i` buckets.
    /// The run holds between one and `max_slots` entries and never crosses
    /// a page; its missing entries fill in one pass. A seq-invariant table
    /// answers one entry, which holds at every length, and so does a read
    /// outside the table's bounds.
    pub fn step_run(&mut self, batch: usize, seq_len: usize, max_slots: usize) -> &[f64] {
        let bucket = self.seq_bucket;
        let bucketed = round_up(seq_len.max(1), bucket);
        let slot = bucketed / bucket;
        let (sim, model) = (self.sim, self.model);
        match self.step_fns.get_mut(batch) {
            Some(step_fn) if !self.seq_invariant && slot < self.rows.slots => {
                let step_fn = step_fn.get_or_insert_with(|| sim.step_function(model, batch));
                self.rows
                    .run_or_fill(batch, slot, max_slots, |filled| {
                        step_fn.total_ns(bucketed + (filled - slot) * bucket)
                    })
                    .expect("the row and slot lie inside the table")
            }
            _ => {
                self.fallback = self.step_ns(batch, seq_len);
                std::slice::from_ref(&self.fallback)
            }
        }
    }
}

/// Dense prefill latency table, the admission-path twin of
/// [`StepLatencyTable`].
#[derive(Debug)]
pub struct PrefillLatencyTable<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    seq_bucket: usize,
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
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        Self {
            sim,
            model,
            seq_bucket,
            rows: DenseRows::new(round_up(max_prompt, seq_bucket) / seq_bucket + 1, max_batch),
        }
    }

    /// Latency of prefilling a batch of `batch` prompts of `prompt_len` tokens
    /// (rounded up to the table's bucket) — exactly
    /// `prefill_latency_ns(model, batch, bucketed(prompt_len))`.
    pub fn prefill_ns(&mut self, batch: usize, prompt_len: usize) -> f64 {
        let bucketed = round_up(prompt_len, self.seq_bucket);
        let (sim, model) = (self.sim, self.model);
        self.rows
            .get_or_fill(batch, bucketed / self.seq_bucket, || {
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

    /// Allocated pages of `rows` as `(batch, page, length)`.
    fn pages(rows: &DenseRows) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (batch, row) in rows.rows.iter().enumerate() {
            for (page, slots) in row.iter().enumerate() {
                if let Some(slots) = slots {
                    out.push((batch, page, slots.len()));
                }
            }
        }
        out
    }

    #[test]
    fn rows_allocate_lazily() {
        let (sim, model) = setup();
        // 8192 / 32 + 1 = 257 slots: two pages, the second of one slot.
        let mut table = StepLatencyTable::new(&sim, &model, 32, 512, 8192);
        assert!(table.rows.rows.iter().all(|row| row.is_empty()));
        table.step_ns(17, 100);
        assert_eq!(pages(&table.rows), [(17, 0, PAGE)]);
        assert_eq!(table.rows.rows[17].len(), 2);
        table.step_ns(17, 8192);
        assert_eq!(pages(&table.rows), [(17, 0, PAGE), (17, 1, 1)]);
    }

    #[test]
    fn a_row_within_one_page_allocates_exactly_its_slots() {
        let (sim, model) = setup();
        // 4096 / 32 + 1 = 129 slots.
        let mut steps = StepLatencyTable::new(&sim, &model, 32, 8, 4096);
        steps.step_ns(3, 4096);
        assert_eq!(pages(&steps.rows), [(3, 0, 129)]);
        let mut prefills = PrefillLatencyTable::new(&sim, &model, 64, 8, 1000);
        prefills.prefill_ns(2, 1);
        assert_eq!(pages(&prefills.rows), [(2, 0, 1000usize.div_ceil(64) + 1)]);
    }

    #[test]
    fn reads_across_page_edges_match_the_simulator_bit_for_bit() {
        let (sim, model) = setup();
        let max_seq = 3 * PAGE + 17;
        let mut steps = StepLatencyTable::new(&sim, &model, 1, 4, max_seq);
        let mut prefills = PrefillLatencyTable::new(&sim, &model, 1, 4, max_seq);
        // Slots PAGE-1, PAGE and PAGE+1, the last slot, and one past it
        // (outside the table: answered by the simulator).
        for seq in [PAGE - 1, PAGE, PAGE + 1, max_seq, max_seq + 1] {
            for batch in [1usize, 4] {
                let direct = sim.generation_step(&model, batch, seq).total_ns;
                assert_eq!(steps.step_ns(batch, seq), direct, "step b={batch} s={seq}");
                assert_eq!(steps.step_ns(batch, seq), direct);
                let direct = sim.prefill_latency_ns(&model, batch, seq);
                assert_eq!(
                    prefills.prefill_ns(batch, seq),
                    direct,
                    "prefill b={batch} s={seq}"
                );
                assert_eq!(prefills.prefill_ns(batch, seq), direct);
            }
        }
        // Pages 0, 1 and 3 of both rows; page 2 was never touched.
        let touched: Vec<(usize, usize, usize)> = [1, 4]
            .into_iter()
            .flat_map(|b| [(b, 0, PAGE), (b, 1, PAGE), (b, 3, 18)])
            .collect();
        assert_eq!(pages(&steps.rows), touched);
        assert_eq!(pages(&prefills.rows), touched);
    }

    #[test]
    fn slot_runs_equal_per_slot_reads_up_to_page_edges_and_the_last_slot() {
        let (sim, model) = setup();
        for bucket in [1usize, 3, 100] {
            // Three pages and a partial fourth of 18 slots.
            let max_seq = (3 * PAGE + 17) * bucket;
            let mut runs = StepLatencyTable::new(&sim, &model, bucket, 4, max_seq);
            let mut reads = StepLatencyTable::new(&sim, &model, bucket, 4, max_seq);
            let last_slot = max_seq / bucket;
            for (seq, max_slots) in [
                (1, 1),
                (1, 2 * PAGE),
                (bucket * (PAGE - 3) + 1, 10),
                (bucket * PAGE, 5),
                (bucket * (2 * PAGE + 1), PAGE),
                (bucket * (last_slot - 2), 10),
                (max_seq, 4),
            ] {
                let slot = seq.div_ceil(bucket);
                let run = runs.step_run(3, seq, max_slots).to_vec();
                // The run stops at `max_slots`, its page's end or the table's.
                let page_end = (slot / PAGE + 1) * PAGE;
                let expected = max_slots.min(page_end - slot).min(last_slot + 1 - slot);
                assert_eq!(run.len(), expected, "bucket {bucket} seq {seq}");
                for (i, &ns) in run.iter().enumerate() {
                    let at = (slot + i) * bucket;
                    assert_eq!(ns.to_bits(), reads.step_ns(3, at).to_bits(), "seq {at}");
                    assert_eq!(ns, sim.generation_step(&model, 3, at).total_ns);
                }
            }
            // Past the last slot, and past the batch bound, a read answers
            // one entry from the simulator.
            for (batch, seq) in [(3, max_seq + 1), (3, max_seq + 5 * bucket), (9, 7)] {
                let run = runs.step_run(batch, seq, 8).to_vec();
                let bucketed = seq.div_ceil(bucket) * bucket;
                assert_eq!(run, [sim.generation_step(&model, batch, bucketed).total_ns]);
            }
        }
    }

    #[test]
    fn a_seq_invariant_table_answers_every_length_from_one_slot() {
        let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let mut table = StepLatencyTable::new(&sim, &model, 1, 16, 1000);
        assert!(table.seq_invariant());
        for batch in [1usize, 16] {
            for seq in [0usize, 1, 2, PAGE - 1, PAGE, PAGE + 1, 1000, 1001, 100_000] {
                let direct = sim.generation_step(&model, batch, seq.max(1)).total_ns;
                assert_eq!(table.step_ns(batch, seq), direct, "b={batch} s={seq}");
            }
        }
        assert_eq!(pages(&table.rows), [(1, 0, 1), (16, 0, 1)]);
        // An attention model is not seq-invariant.
        let (sim, model) = setup();
        assert!(!StepLatencyTable::new(&sim, &model, 1, 16, 1000).seq_invariant());
    }
}
