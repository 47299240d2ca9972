//! The State-update Processing Unit (SPU) pipeline and the access-interleaving
//! technique of Figure 8.
//!
//! An SPU is shared between two banks. Each pipeline iteration (one `tCCD_L` slot):
//!
//! 1. **Fetch** — read one sub-chunk (column) of the state from the *upper* bank,
//! 2. **Decay / outer product** — MX multipliers compute `d ⊙ S` and `k · v_j`,
//! 3. **Update** — the MX adder produces the new sub-chunk,
//! 4. **Output / write-back** — the dot-product unit accumulates `y_j` while the
//!    updated sub-chunk is written back to its bank.
//!
//! Because a row buffer cannot be read and written in the same slot, a *per-bank*
//! processing element is idle every other slot. Pimba instead alternates: while the
//! SPU reads a fresh sub-chunk from one bank, the result of an earlier iteration is
//! written to the *other* bank, so the SPU receives an input every slot without any
//! structural hazard. [`SpuPipeline`] simulates this slot-by-slot and is used by tests
//! to demonstrate both properties.

/// Number of pipeline stages (fetch, multiply, add, dot-product/write-back).
pub(crate) const SPU_PIPELINE_STAGES: usize = 4;

/// Which of the two banks an access targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BankSide {
    /// The even-numbered bank of the pair.
    Upper,
    /// The odd-numbered bank of the pair.
    Bottom,
}

/// Row-buffer access performed in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotAccess {
    /// Read of a sub-chunk (pipeline stage 1).
    Read(BankSide),
    /// Write-back of a sub-chunk (pipeline stage 4).
    Write(BankSide),
}

/// One scheduling policy for feeding the SPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedPolicy {
    /// Pimba's access interleaving: alternate the source bank every slot.
    AccessInterleaving,
    /// A per-bank processing element: all sub-chunks come from (and return to) one
    /// bank, so reads must stall while the write-back occupies the row buffer.
    SingleBank,
}

/// Result of simulating the pipeline for a number of sub-chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRun {
    /// Total slots taken to retire all sub-chunks.
    pub slots: usize,
    /// Number of slots in which the processing element received no new input.
    pub(crate) bubble_slots: usize,
    /// Whether any slot required reading and writing the same bank simultaneously.
    pub structural_hazard: bool,
    /// Per-slot row-buffer accesses (for inspection / tests).
    pub(crate) accesses: Vec<Vec<SlotAccess>>,
}

impl PipelineRun {
    /// Fraction of slots that supplied fresh input to the SPE.
    pub fn utilization(&self) -> f64 {
        if self.slots == 0 {
            1.0
        } else {
            1.0 - self.bubble_slots as f64 / self.slots as f64
        }
    }
}

/// Slot-accurate model of one SPU shared between two banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpuPipeline {
    /// Pipeline depth from fetch to write-back.
    pub(crate) stages: usize,
    /// Feed policy under evaluation.
    pub policy: FeedPolicy,
}

impl SpuPipeline {
    /// Pimba's SPU (4 stages, access interleaving).
    pub fn pimba() -> Self {
        Self {
            stages: SPU_PIPELINE_STAGES,
            policy: FeedPolicy::AccessInterleaving,
        }
    }

    /// A per-bank processing element without interleaving.
    pub fn per_bank() -> Self {
        Self {
            stages: SPU_PIPELINE_STAGES,
            policy: FeedPolicy::SingleBank,
        }
    }

    /// Simulates the retirement of `sub_chunks` state sub-chunks.
    ///
    /// Each sub-chunk is fetched in one slot and written back `stages - 1` slots
    /// later. A slot may carry at most one read and one write, and they must target
    /// different banks (a row buffer cannot do both at once).
    pub fn run(&self, sub_chunks: usize) -> PipelineRun {
        let mut accesses: Vec<Vec<SlotAccess>> = Vec::new();
        let mut bubble_slots = 0usize;
        let mut structural_hazard = false;

        // Pending write-backs: (slot at which the write becomes due, bank side).
        let mut pending_writes: Vec<(usize, BankSide)> = Vec::new();
        let mut fetched = 0usize;
        let mut retired = 0usize;
        let mut slot = 0usize;

        while retired < sub_chunks {
            let mut this_slot: Vec<SlotAccess> = Vec::new();

            // Which bank would the next fetch come from?
            let fetch_side = match self.policy {
                FeedPolicy::AccessInterleaving => {
                    if fetched.is_multiple_of(2) {
                        BankSide::Upper
                    } else {
                        BankSide::Bottom
                    }
                }
                FeedPolicy::SingleBank => BankSide::Upper,
            };

            // Is a write-back due this slot?
            let due_write = pending_writes
                .iter()
                .position(|(due, _)| *due <= slot)
                .map(|i| pending_writes.remove(i));

            if let Some((_, write_side)) = due_write {
                this_slot.push(SlotAccess::Write(write_side));
                let read_conflicts = write_side == fetch_side;
                if fetched < sub_chunks && !read_conflicts {
                    this_slot.push(SlotAccess::Read(fetch_side));
                    pending_writes.push((slot + self.stages - 1, fetch_side));
                    fetched += 1;
                } else if fetched < sub_chunks && read_conflicts {
                    // The single-bank design must stall the fetch: bubble.
                    bubble_slots += 1;
                }
                retired += 1;
            } else if fetched < sub_chunks {
                this_slot.push(SlotAccess::Read(fetch_side));
                pending_writes.push((slot + self.stages - 1, fetch_side));
                fetched += 1;
            } else {
                // Draining the pipeline.
                bubble_slots += 1;
            }

            // Sanity: a slot must never read and write the same bank.
            let mut read_banks = Vec::new();
            let mut write_banks = Vec::new();
            for a in &this_slot {
                match a {
                    SlotAccess::Read(b) => read_banks.push(*b),
                    SlotAccess::Write(b) => write_banks.push(*b),
                }
            }
            if read_banks.iter().any(|r| write_banks.contains(r)) {
                structural_hazard = true;
            }

            accesses.push(this_slot);
            slot += 1;
            if slot > sub_chunks * self.stages + self.stages * 4 {
                break; // safety net; should never trigger
            }
        }

        PipelineRun {
            slots: slot,
            bubble_slots,
            structural_hazard,
            accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Effective sub-chunk throughput (sub-chunks per slot) in steady state.
    fn steady_state_throughput(pipeline: &SpuPipeline, sub_chunks: usize) -> f64 {
        let run = pipeline.run(sub_chunks);
        sub_chunks as f64 / run.slots as f64
    }

    #[test]
    fn access_interleaving_is_hazard_free_and_fully_utilized() {
        let run = SpuPipeline::pimba().run(256);
        assert!(
            !run.structural_hazard,
            "Pimba's interleaving must avoid structural hazards"
        );
        // Only the drain of the last few sub-chunks may bubble.
        assert!(run.bubble_slots <= SPU_PIPELINE_STAGES);
        assert!(
            run.utilization() > 0.95,
            "utilization {}",
            run.utilization()
        );
    }

    #[test]
    fn single_bank_design_stalls_every_other_slot_in_steady_state() {
        let pimba = steady_state_throughput(&SpuPipeline::pimba(), 512);
        let single = steady_state_throughput(&SpuPipeline::per_bank(), 512);
        assert!(pimba > 0.95, "Pimba throughput {pimba}");
        assert!(
            single < 0.72,
            "a per-bank design without interleaving should lose ~1/3 of its slots, got {single}"
        );
        assert!(pimba / single > 1.3);
    }

    #[test]
    fn single_bank_never_reads_and_writes_same_slot() {
        // Even the single-bank policy must not produce an illegal row-buffer access;
        // it avoids the hazard by stalling (bubbles) instead.
        let run = SpuPipeline::per_bank().run(128);
        assert!(!run.structural_hazard);
        assert!(run.bubble_slots > 30);
    }

    #[test]
    fn interleaving_alternates_banks() {
        let run = SpuPipeline::pimba().run(16);
        let reads: Vec<BankSide> = run
            .accesses
            .iter()
            .flatten()
            .filter_map(|a| match a {
                SlotAccess::Read(b) => Some(*b),
                SlotAccess::Write(_) => None,
            })
            .collect();
        for pair in reads.windows(2) {
            assert_ne!(pair[0], pair[1], "consecutive fetches must alternate banks");
        }
    }

    #[test]
    fn writes_follow_reads_by_pipeline_depth() {
        let run = SpuPipeline::pimba().run(8);
        // The first write-back appears stages-1 slots after the first read.
        let first_write_slot = run
            .accesses
            .iter()
            .position(|slot| slot.iter().any(|a| matches!(a, SlotAccess::Write(_))))
            .expect("a write must occur");
        assert_eq!(first_write_slot, SPU_PIPELINE_STAGES - 1);
    }

    #[test]
    fn zero_chunks_is_trivial() {
        let run = SpuPipeline::pimba().run(0);
        assert_eq!(run.slots, 0);
        assert_eq!(run.utilization(), 1.0);
    }
}
