//! The discrete-event serving engine: one accelerator (a `ServingSimulator`
//! system) executing a request trace under a pluggable scheduling policy.
//!
//! The engine models the serving loop of a single tensor-parallel replica: a
//! FIFO wait queue, a batch of in-flight requests, an off-device pool of
//! checkpointed (evicted) requests, and one work item in flight at a time (a
//! batched prefill, one generation step, or a checkpoint/restore state
//! transfer — the blocked GPU/PIM execution model of the paper has no
//! intra-replica overlap). Latencies come
//! from the analytic step models of `pimba_system::ServingSimulator` (prefills
//! through its shared [`LatencyCache`](pimba_system::LatencyCache)), so the
//! event simulation composes *exactly* from the same numbers the steady-state
//! figure benches report — the consistency oracle in `tests/oracle.rs` pins this down.
//!
//! # Preemption (checkpoint-restore eviction)
//!
//! Policies can *remove* work, not just add it: [`Action::Preempt`]
//! checkpoints running requests' decoding state off device (priced by
//! [`CHECKPOINT_LINK`] over
//! [`MemoryModel::dynamic_bytes`] at the *current* sequence length — a few
//! tens of constant megabytes for an SU-LLM state, a context-proportional
//! KV cache for a transformer), and [`Action::Resume`] ships it back, with
//! generation continuing exactly where it stopped. Admission can likewise
//! anchor at live footprints ([`AdmissionMode::LiveOccupancy`]) instead of
//! the conservative final-sequence estimates. All of it is opt-in: under the
//! default [`EngineConfig`] and the preemption-free policies the engine is
//! **bit-identical** to its pre-preemption behavior, which the committed
//! `BENCH_serving_traffic.json` / `BENCH_fleet_scale.json` artifacts (and
//! their bench divergence gates) pin down.
//!
//! Every run is a pure function of `(system, model, trace, policy, config)`:
//! event ties break deterministically and all latency evaluations are
//! memoized-pure, so results are bit-identical across repeat runs and across
//! the thread counts of the grid runner.
//!
//! # The hot loop, and how it is made fast
//!
//! [`EngineConfig::fast_forward`] selects between two executions of the same
//! simulation on the same single-flight event source
//! ([`SingleFlightEvents`]) and the same latency tables. `false` is the
//! step-by-step oracle — one event, one scheduler consult and one table read
//! per decode step. `true` (the default) adds macro-step fast-forwarding on
//! top. No piece below changes a single output bit (`tests/fastforward.rs`
//! asserts bit-identity property-style, and the `serve_hotloop` bench
//! re-asserts it on every run):
//!
//! * **Dense latency tables** (both modes) — every session carries private
//!   [`StepLatencyTable`]/[`PrefillLatencyTable`] memos indexed by
//!   `(batch, seq-bucket)`, so hot-loop latency reads are plain array indexing
//!   — no workload construction, no hashing, no locks. A table entry stores
//!   the exact `f64` the simulator returns (the `table` module's tests pin
//!   every read to `generation_step` / `prefill_latency_ns`). Rows allocate
//!   in pages on first touch, and a step table over an attention-free model
//!   keeps one slot per row and reports itself seq-invariant.
//! * **Macro-step fast-forwarding** — when the scheduler certifies its pure
//!   decode decision as *stable* ([`Scheduler::decode_stability`]), the whole
//!   run of decode steps up to the next arrival (or completion, depending on
//!   the certified [`DecodeStability`] level) is advanced inline: per elided
//!   step the engine performs one floating-point add (the same
//!   `now + latency` the event queue would have computed, so timestamps match
//!   bit for bit) plus the running telemetry sums, folded over every
//!   event-free stretch in one loop, instead of an event push/pop, a
//!   scheduler consult, a latency lookup and a batch bookkeeping update.
//!   A segment of constant membership runs to the next completion. Its
//!   event-free stretches fold across seq-bucket crossings: the latency
//!   table hands the fold a run of consecutive bucket latencies within one
//!   page ([`StepLatencyTable::step_run`]; one entry of unbounded length
//!   for a seq-invariant table), so a step that enters a new bucket costs
//!   an array read, not a table call. When nothing is waiting, completions
//!   are absorbed without leaving the macro-step; first-token and
//!   completion times are reconstructed exactly.
//! * **A step-clock batch** (both modes) — every member decodes one token
//!   per step, so the batch keeps one clock instead of a per-slot token
//!   count: a member is its slot on joining plus the clock ticks since.
//!   Applying steps is one add plus the first tokens of the members that
//!   joined with nothing generated; completions pop off a min-heap keyed by
//!   (completion clock, join order), so simultaneous ones still leave in
//!   batch order; departed members are tombstoned and compacted away once
//!   they outnumber the live ones. The steps to the earliest completion and
//!   the longest current and final sequences are cached (the two maxima are
//!   rescanned only when a member holding one leaves), so a segment, a
//!   decode-step latency read and an admission anchor start without a scan.
//!   Current slots are built only on request: by [`EngineView::batch`], for
//!   the policies that read per-occupant state, and by preemption and
//!   [`Session::crash_drop`].
//! * **Closed-form admission accounting** — every admission and restore
//!   clamp ([`EngineView::admissible_count`] and its kin) walks its
//!   candidates through [`MemoryModel::fitting_prefix`] against a
//!   precomputed [`MemoryModel`] (a handful of multiply-adds, bit-identical
//!   to the workload-based accounting) instead of building a workload per
//!   candidate. Shared by both modes: it cannot change decisions, only the
//!   cost of asking.
//!
//! # Incremental co-simulation
//!
//! [`Engine::run`] is [`Engine::run_traced`] with a disabled sink: one
//! steppable [`Session`] whose event source is preloaded with the whole trace
//! (sorted stably by arrival, so an unsorted trace runs in arrival order) and
//! stepped to the end. A cluster-level driver (the `pimba-fleet` crate)
//! instead builds one [`Session`] per replica via [`Engine::session`] and
//! co-simulates them:
//! [`Session::step_until`] advances a replica through every event *strictly
//! before* a horizon, and [`Session::inject`] hands it a routed arrival at (or
//! after) that horizon. The exclusive horizon is what makes incremental
//! feeding exact: an arrival at time `t` always enters the event source
//! before any of the replica's own events at `t` are processed, reproducing
//! the arrival-wins-ties ordering of a preloaded run. Fast-forward
//! macro-steps pause at the horizon through the same mechanism that pauses
//! them at an observed arrival (the in-flight step becomes a real `WorkDone`
//! event), so a run fed incrementally at its own arrival times is
//! **bit-identical** to [`Engine::run`] on the full trace — asserted by this
//! module's tests and by the single-replica fleet equivalence suite. A step
//! parked at the horizon whose `WorkDone` pops with no arrival processed in
//! between, and which completes nobody, resumes its macro-step with the
//! stored [`DecodeStability`] instead of being re-dispatched: nothing the
//! certification depends on has changed, exactly as between two steps of
//! one macro-step. A crash or a queue cancellation drops the park.

use crate::event::{EventKind, SingleFlightEvents};
use crate::metrics::{self, PreemptionStats, RequestOutcome, SimResult, StepRun, Telemetry};
use crate::sched::{Action, DecodeStability, Scheduler};
use crate::traffic::{Trace, TraceRequest};
use pimba_models::config::ModelConfig;
use pimba_system::memory::MemoryModel;
use pimba_system::obs::{TraceEvent, TraceSink};
use pimba_system::serving::ServingSimulator;
use pimba_system::table::{PrefillLatencyTable, StepLatencyTable};

use pimba_system::transfer::StateTransferModel;
use std::cell::OnceCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The link checkpoint/restore state transfers are priced over
/// ([`Action::Preempt`] / [`Action::Resume`]): a victim's
/// [`MemoryModel::dynamic_bytes`] at its current sequence length ships at
/// [`StateTransferModel::transfer_ns`], and the engine blocks for the
/// transfer (the paper's no-overlap execution model). Irrelevant — and
/// cost-free — for policies that never preempt.
pub const CHECKPOINT_LINK: StateTransferModel = StateTransferModel::nvlink();

/// How the admission probe anchors request footprints against the memory
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Footprints are estimated at every request's **final** sequence length:
    /// an admitted request can always run to completion without eviction.
    /// Conservative — memory that the batch will only need hundreds of steps
    /// from now blocks admission today. The historical (and default)
    /// behavior.
    #[default]
    FinalSeqLen,
    /// Footprints are taken at **current** sequence lengths (live occupancy):
    /// admission packs the batch against what is actually resident, which is
    /// exact for constant-state SU-LLMs and optimistic for growing KV caches —
    /// the mode a preemptive policy pairs with checkpoint-restore eviction
    /// ([`Action::Preempt`] / [`Action::Resume`]) for when the batch outgrows
    /// the budget.
    LiveOccupancy,
}

/// Engine knobs independent of the scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Hard cap on concurrently admitted requests (decoding + prefilling).
    pub max_batch: usize,
    /// Device-memory budget for admission control; `None` uses the system
    /// cluster's aggregate HBM capacity.
    pub capacity_bytes: Option<f64>,
    /// Rounds sequence/prompt lengths up to a multiple of this before decode
    /// and prefill latency lookups (1 = exact). Larger buckets trade a
    /// slightly conservative latency for far fewer entries in the latency
    /// tables and the prefill cache — and proportionally longer fast-forward
    /// macro-steps.
    pub seq_bucket: usize,
    /// Macro-step fast-forwarding of stable pure-decode runs (see the module
    /// docs). Results are bit-identical either way; `false` forces the
    /// step-by-step event loop (the oracle the `serve_hotloop` bench and the
    /// fast-forward property tests compare against), which reads the same
    /// dense latency tables one step at a time.
    pub fast_forward: bool,
    /// Ignored: a run keeps exact queue/occupancy aggregates only
    /// ([`Telemetry`]) and stores no time series. Kept so existing struct
    /// literals compile and memo cell keys, which hash this config's `Debug`
    /// output, stay unchanged.
    pub timeline_sample_every: usize,
    /// Footprint anchoring of the admission probe (see [`AdmissionMode`]).
    /// The default [`AdmissionMode::FinalSeqLen`] reproduces the
    /// pre-preemption engine bit for bit.
    pub admission: AdmissionMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch: 512,
            capacity_bytes: None,
            seq_bucket: 1,
            fast_forward: true,
            timeline_sample_every: 1,
            admission: AdmissionMode::FinalSeqLen,
        }
    }
}

/// A request waiting for admission (chunked-prefill tracks partial progress).
#[derive(Debug, Clone, Copy)]
pub struct WaitingRequest {
    /// Index of the request within its session (equal to the trace index for
    /// [`Engine::run`]).
    pub id: usize,
    /// The request itself.
    pub request: TraceRequest,
    /// Prompt tokens already prefilled — by fused chunks (chunked-prefill), or
    /// before injection on another replica (disaggregated prefill/decode
    /// handoff, see [`Session::inject_prefilled`]).
    pub prefilled: usize,
}

impl WaitingRequest {
    /// The batch slot this request takes on admission: nothing generated yet.
    fn slot(&self) -> BatchSlot {
        BatchSlot {
            id: self.id,
            prompt_len: self.request.prompt_len,
            output_len: self.request.output_len,
            generated: 0,
            tenant: self.request.tenant,
            priority: self.request.priority,
        }
    }
}

/// One request holding a batch slot (decoding, or parked for the in-flight
/// batched prefill) — the per-occupant visibility a preemptive or
/// tenant-aware policy decides from via [`EngineView::batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSlot {
    /// The session-local request id — what [`Action::Preempt`] victims name.
    pub id: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output budget in tokens.
    pub output_len: usize,
    /// Tokens generated so far.
    pub generated: usize,
    /// Tenant tag of the request.
    pub tenant: u32,
    /// Priority class of the request.
    pub priority: u8,
}

impl BatchSlot {
    /// Current sequence length (prompt plus generated tokens) — what the
    /// request's state occupies *now*.
    pub fn seq_len(&self) -> usize {
        self.prompt_len + self.generated
    }

    /// Sequence length at completion — what the request will occupy at its
    /// last decode step.
    pub(crate) fn final_seq_len(&self) -> usize {
        self.prompt_len + self.output_len
    }
}

/// A checkpointed (evicted) request: its decoding state has been shipped off
/// device over the checkpoint link and it waits — generation progress intact —
/// for an [`Action::Resume`] to restore it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictedRequest {
    /// The batch slot exactly as it was suspended (`slot.generated` is where
    /// decoding resumes); restoring pushes this slot back into the batch
    /// unchanged, so nothing is lost across a checkpoint round trip.
    pub slot: BatchSlot,
    /// Checkpointed state size in bytes
    /// ([`MemoryModel::dynamic_bytes`] at the eviction-time sequence
    /// length) — what the restore transfer will ship back.
    pub state_bytes: f64,
    /// When the eviction's checkpoint transfer was dispatched.
    pub evicted_at_ns: f64,
}

/// The read-only snapshot a [`Scheduler`] decides from.
pub struct EngineView<'a> {
    /// Requests waiting for admission, FIFO order.
    pub queue: &'a [WaitingRequest],
    /// Requests currently holding a batch slot (decoding or prefilling).
    pub running: usize,
    /// The engine's hard batch cap.
    pub max_batch: usize,
    /// Checkpointed requests awaiting [`Action::Resume`], eviction order
    /// (oldest first — the order `Resume { count }` restores them in).
    pub evicted: &'a [EvictedRequest],
    /// The engine's device-memory budget in bytes.
    pub capacity_bytes: f64,
    /// The engine's admission-probe anchoring, so mode-sensitive policies
    /// ([`MemoryPressureEviction`](crate::sched::MemoryPressureEviction))
    /// can adapt instead of silently misbehaving under the wrong
    /// configuration.
    pub admission_mode: AdmissionMode,
    /// Closed-form footprint accounting of the engine.
    memory: &'a MemoryModel<'a>,
    /// The decoding batch, read through [`EngineView::batch`] and the
    /// cached longest sequence.
    decoding: &'a Batch,
    /// The occupants' current slots, built on the first
    /// [`EngineView::batch`] call of this view.
    slots: OnceCell<Vec<BatchSlot>>,
    /// The occupants' footprint anchor under `admission_mode`: the batch's
    /// max final sequence length, or its max *current* length under
    /// [`AdmissionMode::LiveOccupancy`] (0 for an empty batch).
    anchor_seq: usize,
}

impl AdmissionMode {
    /// A request's footprint anchor under this mode: its final sequence
    /// length, or its current one for live accounting (a queued request's
    /// current length is its prompt).
    fn anchor_seq(self, slot: &BatchSlot) -> usize {
        match self {
            Self::FinalSeqLen => slot.final_seq_len(),
            Self::LiveOccupancy => slot.seq_len(),
        }
    }
}

impl EngineView<'_> {
    /// The occupants of the batch (`batch().len() == running`) — per-request
    /// sequence progress, tenant and priority, the visibility preemptive and
    /// tenant-aware policies decide from. Locally admitted requests appear
    /// in admission order; requests restored from a checkpoint rejoin at the
    /// tail, so age-sensitive policies should key on [`BatchSlot::id`]
    /// (injection order), not slice position. The slots are built on the
    /// first call (`O(batch)`), so a policy that never asks pays nothing.
    pub fn batch(&self) -> &[BatchSlot] {
        self.slots.get_or_init(|| self.decoding.current().collect())
    }

    /// How many queue-front requests can be admitted right now under the
    /// batch cap and the memory budget. Footprint anchoring follows the
    /// engine's [`AdmissionMode`]: under the default
    /// [`AdmissionMode::FinalSeqLen`] every footprint is estimated at the
    /// request's *final* sequence length, so an admitted request can always
    /// run to completion without eviction; under
    /// [`AdmissionMode::LiveOccupancy`] footprints are taken at *current*
    /// lengths — more aggressive, and paired by preemptive policies with
    /// checkpoint-restore eviction for when the growing batch outruns the
    /// budget.
    ///
    /// When the engine is empty the count is at least 1 for a non-empty queue:
    /// a request that does not fit alone will never fit better, so it is
    /// admitted alone rather than deadlocking the queue. The engine applies
    /// the same clamp to whatever a policy asks for, so the batch cap and
    /// memory budget hold for arbitrary `Scheduler` implementations.
    pub fn admissible_count(&self) -> usize {
        let count = self.fitting_prefix(
            self.anchor_seq,
            self.capacity_bytes,
            self.queue
                .iter()
                .map(|w| self.admission_mode.anchor_seq(&w.slot())),
        );
        if count == 0 && self.running == 0 && !self.queue.is_empty() {
            1
        } else {
            count
        }
    }

    /// The admissible *prefix length* of a policy-chosen admission order:
    /// how many of `picks` (indices into [`EngineView::queue`], walked in
    /// order) fit under the batch cap and memory budget. This is exactly the
    /// clamp the engine applies to [`Action::AdmitSelected`], so a policy can
    /// pre-truncate its picks and know they will all be admitted. An
    /// out-of-range or repeated index ends the prefix. Shares the deadlock
    /// escape of [`EngineView::admissible_count`].
    pub fn admissible_among(&self, picks: &[usize]) -> usize {
        // Duplicate detection by scanning the accepted prefix: the walk
        // stops at the first repeat, so everything before `i` is unique, and
        // a well-behaved caller's picks are bounded by the free batch slots —
        // no queue-sized allocation per consult.
        let valid = picks.iter().enumerate().map_while(|(i, &pick)| {
            (pick < self.queue.len() && !picks[..i].contains(&pick)).then_some(pick)
        });
        let count = self.fitting_prefix(
            self.anchor_seq,
            self.capacity_bytes,
            valid.map(|pick| self.admission_mode.anchor_seq(&self.queue[pick].slot())),
        );
        if count == 0 && self.running == 0 && picks.first().is_some_and(|&p| p < self.queue.len()) {
            1
        } else {
            count
        }
    }

    /// How many of the oldest evicted requests (up to `requested`) fit back
    /// under the batch cap and the memory budget — the clamp behind
    /// [`Action::Resume`]. Mirrors the admission escape: an engine with an
    /// empty batch always restores at least one.
    fn resumable_count(&self, requested: usize) -> usize {
        let count = self.fitting_prefix(
            self.anchor_seq,
            self.capacity_bytes,
            self.evicted
                .iter()
                .take(requested)
                .map(|e| self.admission_mode.anchor_seq(&e.slot)),
        );
        if count == 0 && self.running == 0 && requested > 0 && !self.evicted.is_empty() {
            1
        } else {
            count
        }
    }

    /// How many of `candidate_seqs` (footprint anchors, walked in order) fit
    /// on top of the batch under the batch cap and `bound_bytes`, with the
    /// occupants anchored at `anchor_seq` — the one walk behind every
    /// admission and restore clamp (see [`MemoryModel::fitting_prefix`]).
    /// Callers add their own deadlock escape.
    pub(crate) fn fitting_prefix(
        &self,
        anchor_seq: usize,
        bound_bytes: f64,
        candidate_seqs: impl IntoIterator<Item = usize>,
    ) -> usize {
        self.memory.fitting_prefix(
            self.running,
            anchor_seq,
            self.max_batch,
            bound_bytes,
            candidate_seqs,
        )
    }

    /// Live device-memory occupancy in bytes: parameters plus the batch's
    /// state/KV at *current* sequence lengths — the number a memory-pressure
    /// policy compares against [`EngineView::capacity_bytes`] watermarks.
    pub fn occupancy_bytes(&self) -> f64 {
        let max_seq = if self.running == 0 {
            1
        } else {
            self.decoding.max_seq
        };
        self.memory.usage_bytes(self.running, max_seq)
    }

    /// Total device memory a hypothetical `(batch, max_seq)` configuration
    /// would occupy — the engine's closed-form [`MemoryModel`], exposed so
    /// policies can price what-if projections (eviction targets, restore
    /// headroom) with the exact accounting the admission clamps use.
    pub fn memory_usage_bytes(&self, batch: usize, max_seq: usize) -> f64 {
        self.memory.usage_bytes(batch, max_seq)
    }
}

/// The FIFO wait queue: a head-indexed `Vec`, always contiguous.
///
/// The scheduler view and the admission probe both need the waiting requests
/// as one slice per decision; a `VecDeque` would need `make_contiguous` —
/// an `O(queue)` memmove whenever the ring has wrapped, paid at every
/// dispatch. Here `pop_front` just advances a head index (the prefix is
/// compacted away only once it outgrows the live tail), so `as_slice` is
/// always free.
#[derive(Debug, Default)]
struct FifoQueue {
    items: Vec<WaitingRequest>,
    head: usize,
}

impl FifoQueue {
    fn push_back(&mut self, request: WaitingRequest) {
        self.items.push(request);
    }

    fn pop_front(&mut self) -> Option<WaitingRequest> {
        let popped = self.items.get(self.head).copied();
        if popped.is_some() {
            self.head += 1;
            if self.head >= self.items.len() || self.head > self.items.len() / 2 {
                self.items.drain(..self.head);
                self.head = 0;
            }
        }
        popped
    }

    fn front(&self) -> Option<&WaitingRequest> {
        self.items.get(self.head)
    }

    fn front_mut(&mut self) -> Option<&mut WaitingRequest> {
        self.items.get_mut(self.head)
    }

    /// Removes the request at `index` (0 = front) — the out-of-FIFO dequeue
    /// behind [`Action::AdmitSelected`]. `O(queue)` like a front compaction;
    /// selective admission pays it only on actual admissions.
    fn remove_at(&mut self, index: usize) -> WaitingRequest {
        self.items.remove(self.head + index)
    }

    fn as_slice(&self) -> &[WaitingRequest] {
        &self.items[self.head..]
    }

    fn len(&self) -> usize {
        self.items.len() - self.head
    }

    fn is_empty(&self) -> bool {
        self.head == self.items.len()
    }
}

/// The three batch aggregates every decode event reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Aggregates {
    /// Steps until the earliest completion shrinks the batch (`usize::MAX`
    /// when empty).
    min_remaining: usize,
    /// The longest current sequence (0 when empty).
    max_seq: usize,
    /// The longest final sequence (0 when empty).
    max_final_seq: usize,
}

impl Aggregates {
    const EMPTY: Self = Self {
        min_remaining: usize::MAX,
        max_seq: 0,
        max_final_seq: 0,
    };

    /// `self` widened by every slot of `slots`. A degenerate zero-output
    /// request (constructible through the public `TraceRequest` fields; the
    /// generators clamp to >= 1) completes at its first decode step, so it
    /// counts one remaining step, not zero — which would stall a macro-step
    /// segment.
    fn with(self, slots: impl IntoIterator<Item = BatchSlot>) -> Self {
        slots.into_iter().fold(self, |a, s| Self {
            min_remaining: a.min_remaining.min((s.output_len - s.generated).max(1)),
            max_seq: a.max_seq.max(s.seq_len()),
            max_final_seq: a.max_final_seq.max(s.final_seq_len()),
        })
    }
}

/// One batch member: its slot as it was on joining, and the batch clock then.
#[derive(Debug, Clone, Copy)]
struct Member {
    slot: BatchSlot,
    joined_at: usize,
}

impl Member {
    /// The member's slot at batch clock `clock`: one token per step since it
    /// joined.
    fn at(&self, clock: usize) -> BatchSlot {
        BatchSlot {
            generated: self.slot.generated + (clock - self.joined_at),
            ..self.slot
        }
    }

    /// The clock reading at which the member completes (see
    /// [`Aggregates::with`] for the degenerate zero-output case).
    fn completes_at(&self) -> usize {
        self.joined_at + (self.slot.output_len - self.slot.generated).max(1)
    }
}

/// The decoding batch on one step clock (see "A step-clock batch" in the
/// module docs). A step that completes every member (a static batch
/// draining) walks the members once instead of popping the heap. In debug
/// builds every aggregates read cross-checks the cache against a rescan.
#[derive(Debug, Default)]
struct Batch {
    /// Members in join order; `None` is a tombstone.
    members: Vec<Option<Member>>,
    /// Members that are not tombstones.
    live: usize,
    /// Decode steps applied since the batch was created.
    clock: usize,
    /// Ids of the members that joined with nothing generated and have not
    /// decoded a step since.
    fresh: Vec<usize>,
    /// `(completion clock, index into members)` of every live member.
    completions: BinaryHeap<Reverse<(usize, usize)>>,
    /// The latest completion clock of a live member (0 when empty): members
    /// only leave at the earliest one, so it stays exact until they all
    /// leave at once.
    drains_at: usize,
    /// The longest current sequence (0 when empty).
    max_seq: usize,
    /// The longest final sequence (0 when empty).
    max_final_seq: usize,
}

impl Batch {
    /// The cached aggregates.
    fn aggregates(&self) -> Aggregates {
        let cached = Aggregates {
            min_remaining: self
                .completions
                .peek()
                .map_or(usize::MAX, |&Reverse((at, _))| at - self.clock),
            max_seq: self.max_seq,
            max_final_seq: self.max_final_seq,
        };
        debug_assert_eq!(
            cached,
            Aggregates::EMPTY.with(self.current()),
            "cached batch aggregates diverged from a rescan"
        );
        debug_assert_eq!(
            self.drains_at,
            self.members
                .iter()
                .flatten()
                .map(Member::completes_at)
                .max()
                .unwrap_or(0),
            "cached drain clock diverged from a rescan"
        );
        cached
    }

    /// The members' current slots, in batch order.
    fn current(&self) -> impl Iterator<Item = BatchSlot> + '_ {
        self.members.iter().flatten().map(|m| m.at(self.clock))
    }

    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Appends `slot`; a join only widens the aggregates.
    fn push(&mut self, slot: BatchSlot) {
        let member = Member {
            slot,
            joined_at: self.clock,
        };
        if slot.generated == 0 {
            self.fresh.push(slot.id);
        }
        self.completions
            .push(Reverse((member.completes_at(), self.members.len())));
        self.drains_at = self.drains_at.max(member.completes_at());
        self.members.push(Some(member));
        self.live += 1;
        self.max_seq = self.max_seq.max(slot.seq_len());
        self.max_final_seq = self.max_final_seq.max(slot.final_seq_len());
    }

    /// Empties the batch, returning its current slots in order.
    fn take(&mut self) -> Vec<BatchSlot> {
        let slots = self.current().collect();
        self.clear();
        slots
    }

    /// Empties the batch, keeping every allocation.
    fn clear(&mut self) {
        self.members.clear();
        self.completions.clear();
        self.fresh.clear();
        self.live = 0;
        self.drains_at = 0;
        self.max_seq = 0;
        self.max_final_seq = 0;
    }

    /// Applies `steps` decode steps to the batch: a member producing its
    /// first token is handed to `first_token`, and one reaching its output
    /// budget to `complete` (in batch order), then leaves the batch. `steps`
    /// must not exceed `min_remaining`, so only the last step can complete
    /// anyone. Returns whether anyone completed.
    fn advance(
        &mut self,
        steps: usize,
        mut first_token: impl FnMut(usize),
        mut complete: impl FnMut(usize),
    ) -> bool {
        let min_remaining = self.aggregates().min_remaining;
        debug_assert!(!self.is_empty() && steps >= 1 && steps <= min_remaining);
        for &id in &self.fresh {
            first_token(id);
        }
        self.fresh.clear();
        self.clock += steps;
        self.max_seq += steps;
        if steps < min_remaining {
            return false;
        }
        if self.clock == self.drains_at {
            for member in self.members.iter().flatten() {
                complete(member.slot.id);
            }
            self.clear();
            return true;
        }
        let mut held_a_max = false;
        while let Some(&Reverse((at, index))) = self.completions.peek() {
            if at > self.clock {
                break;
            }
            self.completions.pop();
            let member = self.members[index].take().expect("completed twice");
            complete(member.slot.id);
            self.live -= 1;
            held_a_max |= member.at(self.clock).seq_len() == self.max_seq
                || member.slot.final_seq_len() == self.max_final_seq;
        }
        if self.members.len() - self.live > self.live {
            self.compact();
        }
        if held_a_max {
            let rescan = Aggregates::EMPTY.with(self.current());
            self.max_seq = rescan.max_seq;
            self.max_final_seq = rescan.max_final_seq;
        }
        true
    }

    /// Drops the tombstones, keeping batch order, and re-indexes the
    /// completion heap (reusing its allocation).
    fn compact(&mut self) {
        self.members.retain(Option::is_some);
        let mut heap = std::mem::take(&mut self.completions).into_vec();
        heap.clear();
        heap.extend(
            self.members
                .iter()
                .flatten()
                .enumerate()
                .map(|(index, m)| Reverse((m.completes_at(), index))),
        );
        self.completions = BinaryHeap::from(heap);
    }
}

/// What the engine currently has in flight.
#[derive(Debug, Clone)]
enum Work {
    /// A batched prefill of the requests parked in `Session::prefilling`.
    Prefill,
    /// One generation step; `fused_tokens > 0` means a prefill chunk of the
    /// queue head rode along, and `decoded` records whether a decode batch ran.
    Step { fused_tokens: usize, decoded: bool },
    /// A checkpoint transfer shipping evicted victims' state off device (the
    /// victims already moved to `Session::evicted` at dispatch).
    Checkpoint,
    /// A restore transfer shipping the oldest `count` evicted requests'
    /// state back; they rejoin the batch when it completes.
    Restore { count: usize },
}

/// One request as a session knows it: the caller-facing id (the trace index
/// for [`Engine::run`], the fleet-global id for co-simulated replicas), the
/// request, and how much of its prompt arrived already prefilled.
#[derive(Debug, Clone, Copy)]
struct SessionRequest {
    id: usize,
    request: TraceRequest,
    prefilled: usize,
}

/// A request that finished inside a [`Session`], as drained by
/// [`Session::drain_completions`] — the handoff record of a disaggregated
/// prefill pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// The id the request was injected under.
    pub id: usize,
    /// The request as injected.
    pub request: TraceRequest,
    /// Completion time of the first decode step that produced a token.
    pub first_token_ns: f64,
    /// Completion time of the last token.
    pub completion_ns: f64,
}

/// An incomplete request a crashing replica lost, as drained by
/// [`Session::crash_drop`] — everything a fault-tolerant driver needs to
/// recover it: re-submit it elsewhere (retry), or live-migrate its decoding
/// state to a survivor and resume at `generated` tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroppedRequest {
    /// The id the request was injected under.
    pub id: usize,
    /// The request as injected.
    pub request: TraceRequest,
    /// Prompt tokens that arrived pre-prefilled at injection.
    pub prefilled: usize,
    /// Tokens generated before the crash (0 for requests that never reached
    /// the batch).
    pub generated: usize,
    /// When the first token was produced (`NaN` if none was).
    pub first_token_ns: f64,
}

/// The discrete-event serving engine. Build one per (system, model, policy)
/// and call [`Engine::run`] per trace — or [`Engine::session`] to co-simulate
/// it incrementally as one replica of a fleet.
pub struct Engine<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    config: EngineConfig,
    capacity_bytes: f64,
    /// Closed-form admission accounting (bit-identical to the workload path).
    memory: MemoryModel<'a>,
}

impl<'a> Engine<'a> {
    /// Builds an engine for `sim` serving `model` under `config`.
    pub fn new(sim: &'a ServingSimulator, model: &'a ModelConfig, config: EngineConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.seq_bucket > 0, "seq_bucket must be positive");
        let capacity_bytes = config
            .capacity_bytes
            .unwrap_or_else(|| sim.config().cluster.total_capacity_bytes());
        Self {
            sim,
            model,
            config,
            capacity_bytes,
            memory: MemoryModel::new(sim.config(), model),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Starts an incremental co-simulation session: an engine run whose
    /// arrivals are [`Session::inject`]ed one at a time by an external driver
    /// instead of being preloaded from a trace.
    ///
    /// `max_seq_hint` / `max_prompt_hint` size the dense latency tables every
    /// session reads, in either [`EngineConfig::fast_forward`] mode (pass the
    /// maxima of the traffic the session will see; out-of-range lookups fall
    /// back to the simulator with identical results, so the hints affect only
    /// memoization, never a single bit of output).
    pub fn session(&'a self, max_seq_hint: usize, max_prompt_hint: usize) -> Session<'a> {
        Session::new(
            self,
            SingleFlightEvents::empty(),
            max_seq_hint,
            max_prompt_hint,
        )
    }

    /// [`Engine::run`] with a trace sink attached: scheduler decisions
    /// (admit/preempt/resume, checkpoint/restore spans, macro-step
    /// fast-forward boundaries) are recorded into `sink` stamped in simulated
    /// nanoseconds. The returned result is byte-identical to [`Engine::run`]
    /// — the sink is written, never read (see [`pimba_system::obs`]).
    pub fn run_traced(
        &self,
        trace: &Trace,
        scheduler: &mut dyn Scheduler,
        sink: TraceSink,
    ) -> SimResult {
        // One run-level guard, not one per step: the self-profiler must cost
        // nothing measurable in the hot loop (see `pimba_system::obs`).
        let _stepping = pimba_system::obs::profile_phase("stepping");
        // The source sorts the arrivals stably, so an unsorted trace runs
        // in arrival order with equal times kept in trace order.
        let arrivals: Vec<f64> = trace.requests.iter().map(|r| r.arrival_ns).collect();
        let (max_seq, max_prompt) = trace.bounds();
        let mut session = Session::new(
            self,
            SingleFlightEvents::new(&arrivals),
            max_seq,
            max_prompt,
        );
        session.set_trace(sink);
        session.requests = trace
            .requests
            .iter()
            .enumerate()
            .map(|(i, &request)| SessionRequest {
                id: i,
                request,
                prefilled: 0,
            })
            .collect();
        session.first_token = vec![f64::NAN; trace.len()];
        session.completion = vec![f64::NAN; trace.len()];
        session.step_until(f64::INFINITY, scheduler);
        session.finish()
    }

    /// Simulates `trace` under `scheduler`, returning per-request outcomes and
    /// the queue/occupancy aggregates: [`Engine::run_traced`] with a disabled
    /// sink.
    pub fn run(&self, trace: &Trace, scheduler: &mut dyn Scheduler) -> SimResult {
        self.run_traced(trace, scheduler, TraceSink::disabled())
    }
}

/// One steppable engine run: the whole state of a simulation between events,
/// advanced in co-simulation windows by [`Session::step_until`].
///
/// [`Engine::run`] is one session whose event source is preloaded with the
/// whole trace, stepped to infinity; the fleet simulator instead interleaves
/// windows across replicas, injecting each routed arrival at its timestamp.
/// Both run on the same single-flight event source, in either mode. The
/// invariants that make the incremental execution bit-identical to a
/// preloaded run are spelled out in the module-level docs.
pub struct Session<'a> {
    engine: &'a Engine<'a>,
    events: SingleFlightEvents,
    /// Dense decode-step memo.
    steps: StepLatencyTable<'a>,
    /// Dense prefill memo.
    prefills: PrefillLatencyTable<'a>,
    /// Injection-ordered request table; event ids index into it.
    requests: Vec<SessionRequest>,
    queue: FifoQueue,
    prefilling: Vec<BatchSlot>,
    running: Batch,
    /// Checkpointed requests awaiting restore, eviction order.
    evicted: Vec<EvictedRequest>,
    /// Whole-run checkpoint-restore counters.
    preemption: PreemptionStats,
    work: Option<Work>,
    /// The stability of a stable decode step `fast_forward` left in flight
    /// (at the co-sim horizon or an arrival), while that step's `WorkDone`
    /// is the next thing to happen: then the step resumes its macro-step
    /// without consulting the scheduler. Every event pop, a crash and a
    /// queue cancellation clear it.
    parked: Option<DecodeStability>,
    first_token: Vec<f64>,
    completion: Vec<f64>,
    /// Local indices in completion order (the drain log of a prefill pool).
    completed_log: Vec<usize>,
    drained: usize,
    telemetry: Telemetry,
    now_ns: f64,
    /// Multiplier on compute latencies (decode steps and prefills) — a
    /// transient-slowdown knob for fault injection. Exactly 1.0 leaves every
    /// latency read untouched (bit-identical to a scale-free session); state
    /// transfers over the checkpoint link are never scaled (the link is not
    /// the compute fabric).
    compute_scale: f64,
    /// Write-only observability channel (disabled by default — one branch per
    /// decision site, see [`pimba_system::obs::TraceSink`]). Never read back,
    /// so an enabled sink cannot perturb the run.
    trace: TraceSink,
}

impl<'a> Session<'a> {
    /// The one constructor behind [`Engine::run_traced`] and
    /// [`Engine::session`]. Both modes read step/prefill latencies from
    /// per-run dense memos sized by the hints, with `O(1)` array indexing
    /// (the simulator's shared prefill cache, when it carries one, still
    /// deduplicates the prefill fills across engines, grid cells and worker
    /// threads).
    fn new(
        engine: &'a Engine<'a>,
        events: SingleFlightEvents,
        max_seq_hint: usize,
        max_prompt_hint: usize,
    ) -> Self {
        let (sim, model, config) = (engine.sim, engine.model, engine.config);
        let (bucket, max_batch) = (config.seq_bucket, config.max_batch);
        Self {
            engine,
            events,
            steps: StepLatencyTable::new(sim, model, bucket, max_batch, max_seq_hint.max(1)),
            prefills: PrefillLatencyTable::new(
                sim,
                model,
                bucket,
                max_batch,
                max_prompt_hint.max(1),
            ),
            requests: Vec::new(),
            queue: FifoQueue::default(),
            prefilling: Vec::new(),
            running: Batch::default(),
            evicted: Vec::new(),
            preemption: PreemptionStats::default(),
            work: None,
            parked: None,
            first_token: Vec::new(),
            completion: Vec::new(),
            completed_log: Vec::new(),
            drained: 0,
            telemetry: Telemetry::new(),
            now_ns: 0.0,
            compute_scale: 1.0,
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches a trace sink recording this session's scheduler decisions
    /// (typically one [`TraceRecorder`](pimba_system::obs::TraceRecorder)
    /// track per replica). Observability only: results stay byte-identical.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Sets the compute-latency multiplier for work dispatched from now on
    /// (in-flight work keeps its scheduled completion). 1.0 restores normal
    /// speed and is bit-identical to a session that never saw a scale.
    ///
    /// # Panics
    /// If `scale` is not finite and positive.
    pub fn set_compute_scale(&mut self, scale: f64) {
        assert!(
            scale.is_finite() && scale > 0.0,
            "compute scale must be finite and positive, got {scale}"
        );
        self.compute_scale = scale;
    }

    /// Applies the compute-latency multiplier (see [`metrics::scaled`]).
    fn scaled(&self, latency_ns: f64) -> f64 {
        metrics::scaled(latency_ns, self.compute_scale)
    }

    /// Injects one arrival at `request.arrival_ns` under the caller's `id`
    /// (reported back in the request's [`RequestOutcome`]). Injections must be
    /// non-decreasing in arrival time and must not precede the session's last
    /// processed event — step each replica to the arrival's timestamp first
    /// (exclusive horizon), then inject.
    pub fn inject(&mut self, id: usize, request: TraceRequest) {
        self.inject_at(id, request, 0);
    }

    /// Injects an arrival whose prompt state already exists on this replica's
    /// device memory — the receiving side of a disaggregated prefill/decode
    /// handoff. The request skips prefill entirely: admission costs nothing,
    /// decoding starts at `prompt_len` context, and the memory probe accounts
    /// its full final-sequence footprint exactly as for a local request.
    pub fn inject_prefilled(&mut self, id: usize, request: TraceRequest) {
        self.inject_at(id, request, request.prompt_len);
    }

    fn inject_at(&mut self, id: usize, request: TraceRequest, prefilled: usize) {
        assert!(
            request.arrival_ns >= self.now_ns,
            "arrival at {} precedes the session's last processed event at {}",
            request.arrival_ns,
            self.now_ns
        );
        let local = self.requests.len();
        self.requests.push(SessionRequest {
            id,
            request,
            prefilled,
        });
        self.first_token.push(f64::NAN);
        self.completion.push(f64::NAN);
        self.events.push_arrival(request.arrival_ns, local);
    }

    /// The session's next pending event time, if any — the co-simulation
    /// coordination point: a fleet may safely advance any replica to the
    /// minimum of these and the next external arrival.
    pub fn next_event_time_ns(&self) -> Option<f64> {
        self.events.peek_time_ns()
    }

    /// Requests completed so far.
    pub fn completed(&self) -> usize {
        self.completed_log.len()
    }

    /// Injected-but-not-completed requests — the load metric the fleet
    /// routers balance on. A completion counts once the session has been
    /// stepped past it.
    pub fn outstanding(&self) -> usize {
        self.requests.len() - self.completed_log.len()
    }

    /// Requests waiting for admission (of the arrivals processed so far).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests holding a batch slot (decoding or prefilling).
    pub fn occupancy(&self) -> usize {
        self.running.len() + self.prefilling.len()
    }

    /// Drains the requests completed since the last drain, in completion
    /// order (ties keep batch order). A disaggregated prefill pool turns
    /// these into decode-pool handoffs.
    pub fn drain_completions(&mut self) -> Vec<CompletedRequest> {
        let drained = self.completed_log[self.drained..]
            .iter()
            .map(|&local| {
                let sr = self.requests[local];
                CompletedRequest {
                    id: sr.id,
                    request: sr.request,
                    first_token_ns: self.first_token[local],
                    completion_ns: self.completion[local],
                }
            })
            .collect();
        self.drained = self.completed_log.len();
        drained
    }

    /// Simulates the replica crashing *now*: every incomplete request — the
    /// in-flight work item, the wait queue, the prefilling and decoding
    /// batches, the checkpointed pool, and arrivals injected but not yet
    /// processed — is dropped and returned, in deterministic order (queue
    /// FIFO, then prefilling, then running, then evicted, then pending
    /// arrivals in pop order). Already-completed requests are untouched; the
    /// session afterwards satisfies [`Session::finish`]'s drained-state
    /// assertions, so the crashed incarnation's retired [`SimResult`] keeps
    /// its pre-crash outcomes. Per-id caller ids are reported, ready for a
    /// fault driver to retry or migrate.
    pub fn crash_drop(&mut self) -> Vec<DroppedRequest> {
        self.work = None;
        self.parked = None;
        self.events.cancel_work();
        let queue = std::mem::take(&mut self.queue);
        let batched = std::mem::take(&mut self.prefilling)
            .into_iter()
            .chain(self.running.take())
            .chain(
                std::mem::take(&mut self.evicted)
                    .into_iter()
                    .map(|e| e.slot),
            );
        let pending = self.events.drain_pending_arrivals();
        let (requests, first_token) = (&self.requests, &self.first_token);
        let dropped = |local: usize, prefilled: usize, generated: usize| DroppedRequest {
            id: requests[local].id,
            request: requests[local].request,
            prefilled,
            generated,
            first_token_ns: first_token[local],
        };
        queue
            .as_slice()
            .iter()
            .map(|w| dropped(w.id, w.prefilled, 0))
            .chain(
                batched.map(|slot| dropped(slot.id, requests[slot.id].prefilled, slot.generated)),
            )
            .chain(
                pending
                    .into_iter()
                    .map(|local| dropped(local, requests[local].prefilled, 0)),
            )
            .collect()
    }

    /// Removes the still-waiting request injected under caller id `id` from
    /// the admission queue — the per-request timeout hook of a fault driver.
    /// Returns `false` (and removes nothing) when the request is not waiting
    /// (unknown, admitted, or already completed), or when it is the queue
    /// head targeted by an in-flight fused prefill chunk — the chunk's
    /// completion will mutate the head, so the cancel loses the race and the
    /// request proceeds as admitted.
    pub fn cancel_queued(&mut self, id: usize) -> bool {
        let Some(index) = self
            .queue
            .as_slice()
            .iter()
            .position(|w| self.requests[w.id].id == id)
        else {
            return false;
        };
        if index == 0 {
            if let Some(Work::Step { fused_tokens, .. }) = &self.work {
                if *fused_tokens > 0 {
                    return false;
                }
            }
        }
        self.queue.remove_at(index);
        // The queue the parked decision was certified against changed.
        self.parked = None;
        true
    }

    /// Processes every pending event strictly before `horizon_ns` (pass
    /// `f64::INFINITY` to drain the session). Events at or after the horizon
    /// stay pending: the driver may still inject an arrival at the horizon,
    /// and arrivals tie ahead of simultaneous work completions. Fast-forward
    /// macro-steps likewise pause any decode step completing at or after the
    /// horizon — the step stays in flight as a real event, exactly as when a
    /// macro-step is interrupted by an observed arrival, so windowed
    /// execution never changes an output bit. When such a parked step
    /// completes with no arrival processed in between and completes nobody,
    /// it resumes its macro-step without consulting the scheduler — the same
    /// certification the macro-step relies on between its own steps.
    ///
    /// The session assumes one scheduler (the same policy state) across all
    /// its `step_until` calls.
    pub fn step_until(&mut self, horizon_ns: f64, scheduler: &mut dyn Scheduler) {
        while let Some(event) = self.events.pop_before(horizon_ns) {
            self.now_ns = event.time_ns;
            let parked = self.parked.take();
            let mut resume = None;
            match event.kind {
                EventKind::Arrival(id) => self.enqueue(id),
                EventKind::WorkDone => {
                    match self.work.take().expect("WorkDone without work in flight") {
                        Work::Prefill => {
                            // The prefilled batch joins the decode set; tokens
                            // start flowing from the next decode step.
                            for slot in self.prefilling.drain(..) {
                                self.running.push(slot);
                            }
                        }
                        Work::Checkpoint => {
                            // Victims moved to `evicted` at dispatch; the
                            // transfer completing frees the engine, nothing
                            // else to apply.
                        }
                        Work::Restore { count } => {
                            // The oldest `count` checkpointed requests rejoin
                            // the batch exactly where they left off (their
                            // state is resident again; no prefill, no token
                            // replay).
                            for e in self.evicted.drain(..count) {
                                self.running.push(e.slot);
                            }
                        }
                        Work::Step {
                            fused_tokens,
                            decoded,
                        } => {
                            if decoded && !self.advance_batch(1, self.now_ns) {
                                resume = parked;
                            }
                            if fused_tokens > 0 {
                                let head =
                                    self.queue.front_mut().expect("fused chunk without a head");
                                head.prefilled += fused_tokens;
                                if head.prefilled >= head.request.prompt_len {
                                    let head = self.queue.pop_front().expect("head vanished");
                                    self.running.push(head.slot());
                                }
                            }
                        }
                    }
                }
            }

            // Drain every event of this timestamp before deciding: simultaneous
            // arrivals must all be visible to the scheduler at once.
            if self
                .events
                .peek_time_ns()
                .is_some_and(|next| next == self.now_ns)
            {
                continue;
            }

            // Dispatch-and-advance: exactly one telemetry sample is recorded
            // per (possibly virtual) event timestamp, mirroring the one point
            // per popped event the plain event loop records. A stable pure
            // decode re-enters the loop at the macro-step boundary (new
            // latency, or requests completed) and dispatches again at the same
            // timestamp — just as a per-step run would after the corresponding
            // `WorkDone` event.
            loop {
                if self.work.is_some() {
                    // A step is in flight (this event was an arrival): sample
                    // and wait for the WorkDone.
                    self.record_sample();
                    break;
                }
                let stability = match resume.take() {
                    // A parked step completed with nothing changed: the
                    // policy's certified decision still stands.
                    Some(stability) => stability,
                    None => {
                        let Some((latency_ns, next, stability)) = self.dispatch(scheduler) else {
                            // Idle until the next arrival.
                            self.record_sample();
                            break;
                        };
                        if !self.engine.config.fast_forward || stability == DecodeStability::PerStep
                        {
                            self.events.push_work(self.now_ns + latency_ns);
                            self.work = Some(next);
                            self.record_sample();
                            break;
                        }
                        stability
                    }
                };
                // A stable pure decode, dispatched or resumed: nothing was
                // mutated, so this timestamp's sample equals the prior state.
                self.record_sample();
                if !self.fast_forward(stability, horizon_ns) {
                    // Interrupted by an arrival (or paused at the co-sim
                    // horizon): the current step stays in flight as a real,
                    // parked event (pushed by `fast_forward`).
                    break;
                }
                // Macro-step boundary (the batch drained, or a completion the
                // policy must see) at the advanced `now_ns`: dispatch again.
            }
        }
    }

    /// Queues the arrival of local request `local`.
    fn enqueue(&mut self, local: usize) {
        let sr = self.requests[local];
        self.queue.push_back(WaitingRequest {
            id: local,
            request: sr.request,
            prefilled: sr.prefilled,
        });
    }

    /// Applies `steps` decode steps to the whole batch, the first completing
    /// at `t_first` and the last at `self.now_ns`: first tokens are stamped at
    /// `t_first`, and requests that reach their output budget complete at the
    /// last step and leave the batch. Only the last step can complete a
    /// request (`steps` never exceeds the batch's remaining steps), so one
    /// step of the event loop and a whole replayed macro-step share this.
    /// Returns whether anyone completed.
    fn advance_batch(&mut self, steps: usize, t_first: f64) -> bool {
        let t_last = self.now_ns;
        let (first_token, completion, completed_log) = (
            &mut self.first_token,
            &mut self.completion,
            &mut self.completed_log,
        );
        self.running.advance(
            steps,
            |id| first_token[id] = t_first,
            |id| {
                completion[id] = t_last;
                completed_log.push(id);
            },
        )
    }

    fn record_sample(&mut self) {
        let (queue_depth, occupancy) = (self.queue.len(), self.occupancy());
        self.telemetry.record(self.now_ns, queue_depth, occupancy);
    }

    /// Consumes the session into its [`SimResult`]. Outcomes come back in
    /// injection order (trace order for [`Engine::run`]) under the caller's
    /// ids.
    ///
    /// # Panics
    /// If work is still queued, running, checkpointed or in flight — a co-sim
    /// driver must first drain the session with `step_until(f64::INFINITY,
    /// ..)`, and a preempting policy must have restored every eviction (the
    /// engine guarantees the opportunity: an empty batch always clamps a
    /// `Resume` to at least one request).
    pub fn finish(self) -> SimResult {
        assert!(
            self.queue.is_empty()
                && self.running.is_empty()
                && self.prefilling.is_empty()
                && self.evicted.is_empty()
                && self.work.is_none(),
            "scheduler stalled with work pending: {} queued, {} running, {} prefilling, {} evicted",
            self.queue.len(),
            self.running.len(),
            self.prefilling.len(),
            self.evicted.len()
        );

        let outcomes = self
            .requests
            .iter()
            .enumerate()
            .filter(|(local, _)| self.completion[*local].is_finite())
            .map(|(local, sr)| RequestOutcome {
                id: sr.id,
                arrival_ns: sr.request.arrival_ns,
                first_token_ns: self.first_token[local],
                completion_ns: self.completion[local],
                prompt_len: sr.request.prompt_len,
                output_len: sr.request.output_len,
                tenant: sr.request.tenant,
                priority: sr.request.priority,
                retries: 0,
                migrations: 0,
            })
            .collect();
        SimResult {
            outcomes,
            makespan_ns: self.now_ns,
            telemetry: self.telemetry.finish(),
            preemption: self.preemption,
        }
    }

    /// Marginal cost of extending one request's prefill from `already` to
    /// `already + tokens` prompt tokens, as the difference of cumulative
    /// batch-1 prefills. This charges each chunk for attention against the
    /// context already prefilled — a fixed-size chunk gets more expensive the
    /// deeper into the prompt it lands (for attention-family models), instead
    /// of every chunk being miscosted as a fresh short prompt.
    fn chunk_prefill_ns(&mut self, already: usize, tokens: usize) -> f64 {
        let up_to = self.prefills.prefill_ns(1, already + tokens);
        let raw = if already == 0 {
            up_to
        } else {
            // Bucketing can land both boundaries in the same bucket; the
            // marginal cost is then 0, which averages out across the chunks of
            // one prompt (the cumulative cost is paid at bucket crossings).
            (up_to - self.prefills.prefill_ns(1, already)).max(0.0)
        };
        self.scaled(raw)
    }

    /// Advances a run of stable pure-decode steps without handing each one to
    /// the event queue. The macro-step is built from *segments* of constant
    /// batch membership: a segment ends only at the earliest request
    /// completion (or at an interrupt, below). Within a segment the longest
    /// sequence after `executed` steps is `seq0 + executed`, so step `k`
    /// costs the latency of the bucket holding `seq0 + k`. Event-free
    /// stretches fold over a run of those bucket latencies read from the
    /// latency table at once, up to the table page's end (a seq-invariant
    /// table, an attention-free model, answers one entry for every length);
    /// the loop re-reads the latency only where a fold or a boundary step
    /// left off. What hands control back to the dispatcher depends on the
    /// scheduler's certified [`DecodeStability`]:
    ///
    /// * completions do at [`DecodeStability::UntilAdmissible`] only when
    ///   something is waiting at that moment, and at
    ///   [`DecodeStability::UntilBatchDrains`] never,
    /// * arrivals do at [`DecodeStability::UntilAdmissible`] while the batch
    ///   has a free slot; otherwise (full batch, or a run-to-completion
    ///   policy) the engine absorbs them — queueing the request and recording
    ///   its telemetry sample exactly as the event loop would, without waking
    ///   the policy that could not have acted on it,
    /// * the batch draining always does.
    ///
    /// An interrupting arrival leaves the current step in flight as a real
    /// `WorkDone` event (marked in flight here; returns `false`) so
    /// the scheduler sees the arrival before the *following* step is decided;
    /// a step that would complete at or past the co-sim `horizon_ns` pauses
    /// through the same path (an arrival may still be injected there).
    /// Either way the step is *parked* with `stability`: if its `WorkDone`
    /// is the next event and it completes nobody, [`Session::step_until`]
    /// re-enters here without re-dispatching. Boundary exits return `true`
    /// and the caller re-dispatches at the advanced timestamp.
    ///
    /// Bit-exactness: timestamps advance by the same `now + latency` addition
    /// the event queue performs per step, each at the latency the per-step
    /// loop reads for that step; arrivals are absorbed with the event loop's
    /// tie-breaking (arrivals pop ahead of a simultaneous step completion)
    /// and same-timestamp sample coalescing; first-token times are stamped at
    /// the first advanced step's timestamp and completions at their
    /// segment's last one; telemetry observes every virtual event, either
    /// through `Telemetry::record` or folded through
    /// `Telemetry::record_chain_until` with the same operations — so outcomes
    /// and aggregates are identical to the step-by-step loop.
    fn fast_forward(&mut self, stability: DecodeStability, horizon_ns: f64) -> bool {
        let bucket = self.engine.config.seq_bucket;
        let max_batch = self.engine.config.max_batch;
        let seq_invariant = self.steps.seq_invariant();
        // The longest sequence length that shares the latency read at `seq`.
        let bucket_end = |seq: usize| {
            if seq_invariant {
                usize::MAX
            } else {
                seq.div_ceil(bucket) * bucket
            }
        };
        let t_enter = self.now_ns;
        loop {
            debug_assert!(!self.running.is_empty(), "pure decode with empty batch");
            // The segment runs until the earliest completion shrinks the
            // batch, from the longest current sequence — both read from the
            // batch's cached aggregates.
            let Aggregates {
                min_remaining: to_completion,
                max_seq,
                ..
            } = self.running.aggregates();
            let seq0 = max_seq.max(1);
            let occupancy = self.running.len();
            // The table's latency of the current bucket, and the same
            // under the compute scale.
            let mut raw_ns = self.steps.step_ns(occupancy, seq0);
            let mut step_ns = self.scaled(raw_ns);
            let mut last_seq = bucket_end(seq0);
            let absorb_arrivals = match stability {
                DecodeStability::UntilBatchDrains => true,
                DecodeStability::UntilAdmissible => occupancy == max_batch,
                _ => false,
            };

            let mut executed = 0usize;
            let mut t_first = self.now_ns;
            let mut interrupted = false;
            'steps: loop {
                // The next step runs at the longest sequence `seq`; on
                // entering a new bucket it costs what the table says there.
                let seq = seq0 + executed;
                if seq > last_seq {
                    raw_ns = self.steps.step_ns(occupancy, seq);
                    step_ns = self.scaled(raw_ns);
                    last_seq = bucket_end(seq);
                }
                // Fast region: while the next pending event and the co-sim
                // horizon are both beyond the step being executed and the
                // step is not the segment's last, nothing can change the
                // batch or the queue — the per-step work collapses to the
                // `now + step` time chain over the table's run of bucket
                // latencies, committed to telemetry in one bit-identical
                // fold. The slow path below then handles the next boundary
                // step (park, absorb or completion), or the loop re-reads
                // the latency where the run ended.
                if to_completion - executed > 1 {
                    let pending = self.events.peek_time_ns().unwrap_or(f64::INFINITY);
                    let bound = if horizon_ns < pending {
                        horizon_ns
                    } else {
                        pending
                    };
                    let first_steps = last_seq - seq + 1;
                    let mut max_steps = to_completion - executed - 1;
                    let mut entries = 1;
                    if max_steps > first_steps {
                        // Size the run to the steps the fold may take:
                        // latencies never fall as sequences grow, so no
                        // more than `(bound - now) / step_ns + 1` fit
                        // before the bound. An estimate short of the truth
                        // only ends the fold early.
                        let fit = ((bound - self.now_ns) / step_ns) as usize;
                        max_steps = max_steps.min(fit.saturating_add(1));
                        entries += max_steps.saturating_sub(first_steps).div_ceil(bucket);
                    }
                    // A fold within the current bucket needs no table read.
                    let latencies = if entries == 1 {
                        std::slice::from_ref(&raw_ns)
                    } else {
                        self.steps.step_run(occupancy, seq, entries)
                    };
                    let run = StepRun {
                        latencies,
                        first_steps,
                        steps_per_entry: bucket,
                        compute_scale: self.compute_scale,
                    };
                    let (folded, now) = self.telemetry.record_chain_until(
                        self.now_ns,
                        run,
                        max_steps,
                        bound,
                        self.queue.len(),
                        occupancy,
                    );
                    if folded > 0 {
                        if executed == 0 {
                            t_first = self.now_ns + step_ns;
                        }
                        self.now_ns = now;
                        executed += folded;
                        continue 'steps;
                    }
                }
                let t_next = self.now_ns + step_ns;
                // The co-sim window ends before this step completes: an
                // arrival may still be injected at any time >= horizon_ns,
                // and arrivals tie ahead of a step completion — park the step
                // as a real event and hand control back to the driver.
                if t_next >= horizon_ns {
                    self.events.push_work(t_next);
                    interrupted = true;
                    break 'steps;
                }
                // Arrivals preceding (or tying with) this step's completion
                // pop first, exactly as in the event loop.
                while let Some(event_ns) = self.events.peek_time_ns() {
                    if event_ns > t_next {
                        break;
                    }
                    if !absorb_arrivals {
                        // The policy must see this arrival before the next
                        // decision: hand the current step back to the queue.
                        self.events.push_work(t_next);
                        interrupted = true;
                        break 'steps;
                    }
                    let event = self.events.pop().expect("peeked event vanished");
                    let EventKind::Arrival(id) = event.kind else {
                        unreachable!("only arrivals are pending while fast-forwarding")
                    };
                    self.enqueue(id);
                    // Same-timestamp coalescing: only the last event of a
                    // timestamp group records a sample, and a group tying
                    // with the step's own completion is covered by the step's
                    // sample.
                    let following = self
                        .events
                        .peek_time_ns()
                        .unwrap_or(f64::INFINITY)
                        .min(t_next);
                    if following != event.time_ns {
                        let queue_depth = self.queue.len();
                        self.telemetry.record(event.time_ns, queue_depth, occupancy);
                    }
                }
                self.now_ns = t_next;
                executed += 1;
                if executed == 1 {
                    t_first = t_next;
                }
                if executed == to_completion {
                    break;
                }
                // Interior step: batch membership is unchanged by
                // construction, only time moves (and possibly the queue, via
                // absorbed arrivals).
                let queue_depth = self.queue.len();
                self.telemetry.record(t_next, queue_depth, occupancy);
            }

            if executed > 0 {
                // Replay the executed steps onto the batch in one pass
                // (`executed <= to_completion`, with equality exactly when
                // the segment ended on a completion).
                self.advance_batch(executed, t_first);
            }
            if interrupted {
                // The in-flight step is parked: unless something intervenes,
                // its `WorkDone` resumes this macro-step (see `step_until`).
                self.work = Some(Work::Step {
                    fused_tokens: 0,
                    decoded: true,
                });
                self.parked = Some(stability);
                self.trace_fast_forward(t_enter, 0.0);
                return false;
            }
            let wake_the_policy = self.running.is_empty()
                || match stability {
                    DecodeStability::UntilAdmissible => !self.queue.is_empty(),
                    DecodeStability::UntilBatchDrains => false,
                    DecodeStability::PerStep => {
                        unreachable!("per-step work never fast-forwards")
                    }
                };
            if wake_the_policy {
                // The dispatcher must see this boundary; it records the
                // boundary step's telemetry sample after deciding.
                self.trace_fast_forward(t_enter, 1.0);
                return true;
            }
            // Absorb the completion inline: record its sample
            // (post-completion state, as the step-by-step loop would after
            // handling the event) and continue with the next segment.
            let (now_ns, queue_depth, batch) = (self.now_ns, self.queue.len(), self.running.len());
            self.telemetry.record(now_ns, queue_depth, batch);
        }
    }

    /// Records one macro-step fast-forward segment as a `"fastforward"` span
    /// (`boundary` distinguishes a clean macro-step boundary from an
    /// interrupt/park exit). Zero-duration segments — entered and immediately
    /// interrupted — are skipped.
    fn trace_fast_forward(&self, t_enter: f64, boundary: f64) {
        if self.now_ns > t_enter {
            self.trace.emit(|| {
                TraceEvent::span("fastforward", t_enter, self.now_ns - t_enter, 0)
                    .arg("boundary", boundary)
            });
        }
    }

    /// Parks `picked` for a batched prefill and prices it. Requests that
    /// arrived fully prefilled (a disaggregated handoff) cost no prefill
    /// work; everyone else is charged the whole prompt (a partially
    /// chunked-in request admitted wholesale by a custom policy included —
    /// the cheaper marginal cost is only accounted through fused chunks).
    fn start_prefill(&mut self, picked: &[WaitingRequest]) -> (f64, Work, DecodeStability) {
        let mut max_prompt = 0;
        let mut prefill_count = 0;
        for w in picked {
            self.trace.emit(|| {
                TraceEvent::instant("admit", self.now_ns, self.requests[w.id].id as u64)
                    .arg("prompt_len", w.request.prompt_len as f64)
                    .arg("tenant", w.request.tenant as f64)
            });
            if w.prefilled < w.request.prompt_len {
                prefill_count += 1;
                max_prompt = max_prompt.max(w.request.prompt_len);
            }
            self.prefilling.push(w.slot());
        }
        let latency = if prefill_count > 0 {
            let raw = self.prefills.prefill_ns(prefill_count, max_prompt);
            self.scaled(raw)
        } else {
            0.0
        };
        (latency, Work::Prefill, DecodeStability::PerStep)
    }

    /// Asks the scheduler for the next action and starts it. Returns the work
    /// item, its latency and the fast-forward [`DecodeStability`] of a pure
    /// decode ([`DecodeStability::PerStep`] for all other work); `None` means
    /// stay idle until the next event.
    fn dispatch(&mut self, scheduler: &mut dyn Scheduler) -> Option<(f64, Work, DecodeStability)> {
        let engine = self.engine;
        let mode = engine.config.admission;
        let aggregates = self.running.aggregates();
        let view = EngineView {
            queue: self.queue.as_slice(),
            running: self.running.len(),
            max_batch: engine.config.max_batch,
            evicted: &self.evicted,
            capacity_bytes: engine.capacity_bytes,
            admission_mode: mode,
            memory: &engine.memory,
            decoding: &self.running,
            slots: OnceCell::new(),
            anchor_seq: match mode {
                AdmissionMode::FinalSeqLen => aggregates.max_final_seq,
                AdmissionMode::LiveOccupancy => aggregates.max_seq,
            },
        };
        let mut action = scheduler.decide(&view);
        // Stability is only meaningful for a pure decode the *scheduler*
        // chose; an admit that the engine clamps down to a decode step is
        // never fast-forwarded (the policy's intent may change next boundary).
        let stability = if action
            == (Action::DecodeStep {
                fused_chunk_tokens: 0,
            }) {
            scheduler.decode_stability(&view)
        } else {
            DecodeStability::PerStep
        };
        // Clamp/validate every non-decode request up front — the batch cap
        // and memory budget hold for arbitrary `Scheduler` implementations,
        // and a degenerate action degrades to a decode step (if a batch is
        // running) or idleness, so no policy can stall or overcommit the
        // engine.
        let degrade = |running_empty: bool| {
            if running_empty {
                Action::Wait
            } else {
                Action::DecodeStep {
                    fused_chunk_tokens: 0,
                }
            }
        };
        action = match action {
            Action::AdmitAndPrefill { count } => {
                let count = count.min(self.queue.len()).min(view.admissible_count());
                if count > 0 {
                    Action::AdmitAndPrefill { count }
                } else {
                    degrade(self.running.is_empty())
                }
            }
            Action::AdmitSelected { mut picks } => {
                let admissible = view.admissible_among(&picks);
                if admissible > 0 {
                    picks.truncate(admissible);
                    Action::AdmitSelected { picks }
                } else {
                    degrade(self.running.is_empty())
                }
            }
            Action::Preempt { victims } => {
                // The dispatch arm walks the batch and ignores ids that hold
                // no slot; validation only needs to know the set is non-empty
                // after that filter.
                if view.batch().iter().any(|slot| victims.contains(&slot.id)) {
                    Action::Preempt { victims }
                } else {
                    degrade(self.running.is_empty())
                }
            }
            Action::Resume { count } => {
                // Clamp against the batch cap and the memory budget with the
                // occupants anchored at their mode-appropriate lengths.
                let clamped = view.resumable_count(count);
                if clamped > 0 {
                    Action::Resume { count: clamped }
                } else {
                    degrade(self.running.is_empty())
                }
            }
            other => other,
        };
        match action {
            Action::Wait => None,
            Action::AdmitAndPrefill { count } => {
                let picked: Vec<WaitingRequest> = (0..count)
                    .map(|_| {
                        self.queue
                            .pop_front()
                            .expect("count clamped to queue length")
                    })
                    .collect();
                Some(self.start_prefill(&picked))
            }
            Action::AdmitSelected { picks } => {
                // Collect in pick order, then dequeue by descending index so
                // earlier removals do not shift later picks.
                let picked: Vec<WaitingRequest> =
                    picks.iter().map(|&i| self.queue.as_slice()[i]).collect();
                let mut by_index = picks;
                by_index.sort_unstable_by(|a, b| b.cmp(a));
                for index in by_index {
                    self.queue.remove_at(index);
                }
                Some(self.start_prefill(&picked))
            }
            Action::Preempt { victims } => {
                // Move the victims out of the batch now (they stop decoding
                // immediately) and block for the checkpoint transfer: one
                // per-victim setup plus its state bytes over the link.
                let now_ns = self.now_ns;
                let mut latency_ns = 0.0;
                for slot in self.running.take() {
                    if victims.contains(&slot.id) {
                        let bytes = engine.memory.dynamic_bytes(1, slot.seq_len());
                        latency_ns += CHECKPOINT_LINK.transfer_ns(bytes);
                        self.preemption.evictions += 1;
                        self.preemption.checkpoint_bytes += bytes;
                        self.trace.emit(|| {
                            TraceEvent::instant("preempt", now_ns, self.requests[slot.id].id as u64)
                                .arg("state_bytes", bytes)
                        });
                        self.evicted.push(EvictedRequest {
                            slot,
                            state_bytes: bytes,
                            evicted_at_ns: now_ns,
                        });
                    } else {
                        self.running.push(slot);
                    }
                }
                self.preemption.checkpoint_stall_ns += latency_ns;
                self.trace.emit(|| {
                    TraceEvent::span("checkpoint", now_ns, latency_ns, 0)
                        .arg("victims", victims.len() as f64)
                });
                Some((latency_ns, Work::Checkpoint, DecodeStability::PerStep))
            }
            Action::Resume { count } => {
                let latency_ns: f64 = self.evicted[..count]
                    .iter()
                    .map(|e| CHECKPOINT_LINK.transfer_ns(e.state_bytes))
                    .sum();
                self.preemption.resumes += count as u64;
                self.preemption.restore_bytes += self.evicted[..count]
                    .iter()
                    .map(|e| e.state_bytes)
                    .sum::<f64>();
                self.preemption.restore_stall_ns += latency_ns;
                for e in &self.evicted[..count] {
                    self.trace.emit(|| {
                        TraceEvent::instant(
                            "resume",
                            self.now_ns,
                            self.requests[e.slot.id].id as u64,
                        )
                        .arg("state_bytes", e.state_bytes)
                    });
                }
                self.trace.emit(|| {
                    TraceEvent::span("restore", self.now_ns, latency_ns, 0)
                        .arg("count", count as f64)
                });
                Some((
                    latency_ns,
                    Work::Restore { count },
                    DecodeStability::PerStep,
                ))
            }
            Action::DecodeStep { fused_chunk_tokens } => {
                let decoded = !self.running.is_empty();
                let mut latency_ns = 0.0;
                if decoded {
                    let raw = self.steps.step_ns(self.running.len(), aggregates.max_seq);
                    latency_ns += self.scaled(raw);
                }
                // Chunking the head is an admission: enforce the batch cap and
                // memory budget here too, so a policy that skips the
                // admissible_count() guard cannot grow the batch past them.
                let head = self
                    .queue
                    .front()
                    .map(|h| (h.prefilled, h.request.prompt_len));
                let fused_tokens = match head {
                    Some((prefilled, prompt_len))
                        if fused_chunk_tokens > 0 && view.admissible_count() > 0 =>
                    {
                        // A head that arrived fully prefilled (a disaggregated
                        // handoff) still rides one zero-cost phantom token so
                        // the completion path moves it into the batch; only
                        // real remaining prompt work is charged.
                        let tokens = fused_chunk_tokens.min(prompt_len - prefilled).max(1);
                        if prefilled < prompt_len {
                            latency_ns += self.chunk_prefill_ns(prefilled, tokens);
                        }
                        tokens
                    }
                    _ => 0,
                };
                if !decoded && fused_tokens == 0 {
                    // Defensive: a decode step with nothing to do is a policy
                    // bug; treat it as Wait rather than spinning forever.
                    return None;
                }
                Some((
                    latency_ns,
                    Work::Step {
                        fused_tokens,
                        decoded,
                    },
                    if decoded && fused_tokens == 0 {
                        stability
                    } else {
                        DecodeStability::PerStep
                    },
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{ChunkedPrefill, ContinuousBatching, FcfsStatic};
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_system::config::{SystemConfig, SystemKind};

    fn setup() -> (ServingSimulator, ModelConfig) {
        (
            ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
            ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
        )
    }

    /// `Session` (with its boxed scheduler) must stay movable to another
    /// thread — compile-time assertion so a future non-`Send` field is
    /// caught here, not in a downstream crate.
    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session<'_>>();
        assert_send::<Box<dyn Scheduler>>();
    }

    fn trace() -> Trace {
        Scenarios::burst(24)
    }

    /// Tiny deterministic traces for the unit tests.
    struct Scenarios;
    impl Scenarios {
        /// `n` requests arriving in a tight burst with staggered lengths.
        fn burst(n: usize) -> Trace {
            Trace::from_requests(
                (0..n)
                    .map(|i| TraceRequest {
                        arrival_ns: i as f64 * 1e6,
                        prompt_len: 128 + 32 * (i % 5),
                        output_len: 8 + 4 * (i % 3),
                        ..TraceRequest::default()
                    })
                    .collect(),
            )
        }
    }

    #[test]
    fn all_policies_complete_every_request() {
        let (sim, model) = setup();
        let t = trace();
        for policy in [
            &mut FcfsStatic as &mut dyn Scheduler,
            &mut ContinuousBatching,
            &mut ChunkedPrefill::new(64),
        ] {
            let engine = Engine::new(&sim, &model, EngineConfig::default());
            let result = engine.run(&t, policy);
            assert_eq!(result.outcomes.len(), t.len(), "{}", policy.name());
            for o in &result.outcomes {
                assert!(o.first_token_ns > o.arrival_ns);
                assert!(o.completion_ns >= o.first_token_ns);
            }
            assert!(result.makespan_ns > 0.0);
            assert!(result.telemetry.events > 0);
        }
    }

    #[test]
    fn continuous_batching_beats_static_on_staggered_arrivals() {
        let (sim, model) = setup();
        let t = trace();
        let e2e_mean = |policy: &mut dyn Scheduler| {
            let engine = Engine::new(&sim, &model, EngineConfig::default());
            let r = engine.run(&t, policy);
            r.outcomes.iter().map(|o| o.e2e_ns()).sum::<f64>() / r.outcomes.len() as f64
        };
        let static_e2e = e2e_mean(&mut FcfsStatic);
        let continuous_e2e = e2e_mean(&mut ContinuousBatching);
        assert!(
            continuous_e2e < static_e2e,
            "continuous {continuous_e2e} must beat static {static_e2e}"
        );
    }

    #[test]
    fn max_batch_is_respected() {
        let (sim, model) = setup();
        let t = trace();
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 4,
                ..EngineConfig::default()
            },
        );
        let result = engine.run(&t, &mut ContinuousBatching);
        assert_eq!(result.outcomes.len(), t.len());
        assert_eq!(result.telemetry.peak_batch_occupancy, 4);
    }

    #[test]
    fn seq_bucketing_is_conservative_but_close() {
        let (sim, model) = setup();
        let t = trace();
        let run = |bucket: usize| {
            let engine = Engine::new(
                &sim,
                &model,
                EngineConfig {
                    seq_bucket: bucket,
                    ..EngineConfig::default()
                },
            );
            engine.run(&t, &mut ContinuousBatching).makespan_ns
        };
        let exact = run(1);
        let bucketed = run(64);
        assert!(bucketed >= exact);
        assert!(bucketed < 1.2 * exact, "bucketing overhead too large");
    }

    #[test]
    fn tight_memory_throttles_admission() {
        let (sim, model) = setup();
        let t = trace();
        // Enough memory for the weights plus a couple of requests only.
        let params = sim.memory_breakdown(&model, 1, 256).params_bytes;
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                capacity_bytes: Some(params * 1.0001),
                ..EngineConfig::default()
            },
        );
        let result = engine.run(&t, &mut ContinuousBatching);
        assert_eq!(result.outcomes.len(), t.len(), "all requests still finish");
        let peak = result.telemetry.peak_batch_occupancy;
        assert!(peak <= 2, "tight memory must cap the batch, got {peak}");
    }

    #[test]
    fn chunked_prefill_tracks_partial_progress() {
        let (sim, model) = setup();
        let t = trace();
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let chunked = engine.run(&t, &mut ChunkedPrefill::new(32));
        assert_eq!(chunked.outcomes.len(), t.len());
    }

    #[test]
    fn engine_clamps_greedy_policies_to_the_batch_cap() {
        /// A pathological policy that always asks for the whole queue.
        struct GreedyAdmit;
        impl Scheduler for GreedyAdmit {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn decide(&mut self, view: &EngineView<'_>) -> Action {
                if !view.queue.is_empty() {
                    Action::AdmitAndPrefill { count: usize::MAX }
                } else if view.running > 0 {
                    Action::DecodeStep {
                        fused_chunk_tokens: 0,
                    }
                } else {
                    Action::Wait
                }
            }
        }
        let (sim, model) = setup();
        let t = trace();
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 3,
                ..EngineConfig::default()
            },
        );
        let result = engine.run(&t, &mut GreedyAdmit);
        assert_eq!(result.outcomes.len(), t.len());
        assert!(
            result.telemetry.peak_batch_occupancy <= 3,
            "engine must clamp admissions to max_batch"
        );
    }

    #[test]
    fn chunked_prefill_cost_telescopes_to_the_whole_prompt() {
        // For an attention model the chunk costs must sum to the full-prompt
        // prefill (the marginal-cost formulation), not to N cheap short
        // prefills: a single request's TTFT under chunking equals whole-prompt
        // prefill + first decode step exactly (bucket 1, telescoping sum).
        let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
        let model = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        let prompt = 2048;
        let t = Trace::closed_loop(1, prompt, 2);
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let result = engine.run(&t, &mut ChunkedPrefill::new(256));
        let expected = sim.prefill_latency_ns(&model, 1, prompt)
            + sim.generation_step(&model, 1, prompt).total_ns;
        let ttft = result.outcomes[0].ttft_ns();
        let rel = (ttft - expected).abs() / expected;
        assert!(
            rel < 1e-9,
            "chunked ttft {ttft} vs whole-prefill {expected}"
        );
    }

    /// The co-simulation contract: injecting the trace one arrival at a time
    /// with an exclusive-horizon `step_until` between injections must
    /// reproduce `Engine::run` on the full trace bit for bit — in both engine
    /// modes, including windows that chop macro-steps at every arrival.
    #[test]
    fn incremental_session_is_bit_identical_to_run() {
        let (sim, model) = setup();
        let t = trace();
        for fast_forward in [true, false] {
            for policy in [
                &mut FcfsStatic as &mut dyn Scheduler,
                &mut ContinuousBatching,
                &mut ChunkedPrefill::new(64),
            ] {
                let config = EngineConfig {
                    fast_forward,
                    seq_bucket: 16,
                    max_batch: 8,
                    ..EngineConfig::default()
                };
                let engine = Engine::new(&sim, &model, config);
                let expected = engine.run(&t, policy);

                let max_seq = t
                    .requests
                    .iter()
                    .map(|r| r.prompt_len + r.output_len)
                    .max()
                    .unwrap();
                let max_prompt = t.requests.iter().map(|r| r.prompt_len).max().unwrap();
                let mut session = engine.session(max_seq, max_prompt);
                for (id, r) in t.requests.iter().enumerate() {
                    session.step_until(r.arrival_ns, policy);
                    session.inject(id, *r);
                }
                session.step_until(f64::INFINITY, policy);
                assert_eq!(session.completed(), t.len());
                assert_eq!(session.outstanding(), 0);
                let got = session.finish();
                assert_eq!(got, expected, "ff={fast_forward}");
            }
        }
    }

    /// Chopping the run into many arbitrary windows (not aligned to arrivals)
    /// must not change a bit either — the horizon pause path is exercised at
    /// timestamps that land mid-macro-step.
    #[test]
    fn windowed_stepping_is_bit_identical_to_run() {
        let (sim, model) = setup();
        let t = trace();
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let expected = engine.run(&t, &mut ContinuousBatching);

        let mut session = engine.session(4096, 4096);
        for (id, r) in t.requests.iter().enumerate() {
            session.inject(id, *r);
        }
        let mut policy = ContinuousBatching;
        // Windows deliberately unrelated to event times.
        let mut h = 0.37e6;
        while session.next_event_time_ns().is_some() {
            session.step_until(h, &mut policy);
            h *= 1.31;
        }
        assert_eq!(session.finish(), expected);
    }

    /// A fully prefilled injection (the decode side of a disaggregated
    /// handoff) must skip the prefill cost entirely — under every shipped
    /// policy, including chunked prefill's fused-token admission path: its
    /// first token lands one decode step after arrival, nothing more.
    #[test]
    fn prefilled_injection_skips_prefill() {
        let (sim, model) = setup();
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let request = TraceRequest {
            arrival_ns: 0.0,
            prompt_len: 2048,
            output_len: 4,
            ..TraceRequest::default()
        };
        for policy in [
            &mut ContinuousBatching as &mut dyn Scheduler,
            &mut FcfsStatic,
            &mut ChunkedPrefill::new(64),
        ] {
            let mut session = engine.session(4096, 4096);
            session.inject_prefilled(7, request);
            session.step_until(f64::INFINITY, policy);
            let handoff = session.drain_completions();
            let result = session.finish();
            assert_eq!(result.outcomes.len(), 1, "{}", policy.name());
            let o = result.outcomes[0];
            assert_eq!(o.id, 7);
            let first_step = sim.generation_step(&model, 1, request.prompt_len).total_ns;
            assert!(
                (o.ttft_ns() - first_step).abs() < 1e-9,
                "{}: prefilled ttft {} must equal one decode step {first_step}",
                policy.name(),
                o.ttft_ns()
            );
            assert_eq!(handoff.len(), 1);
            assert_eq!(handoff[0].id, 7);
            assert_eq!(handoff[0].completion_ns, o.completion_ns);
        }
    }

    #[test]
    fn drain_completions_is_incremental() {
        let (sim, model) = setup();
        let t = Scenarios::burst(6);
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let mut session = engine.session(4096, 4096);
        let mut policy = ContinuousBatching;
        for (id, r) in t.requests.iter().enumerate() {
            session.step_until(r.arrival_ns, &mut policy);
            session.inject(id, *r);
        }
        session.step_until(f64::INFINITY, &mut policy);
        let first = session.drain_completions();
        assert_eq!(first.len(), 6);
        assert!(session.drain_completions().is_empty(), "drain is a cursor");
        // Completion order is non-decreasing in time.
        for pair in first.windows(2) {
            assert!(pair[0].completion_ns <= pair[1].completion_ns);
        }
    }

    /// A crash mid-run drops every incomplete request (queued, batched and
    /// not-yet-processed arrivals) exactly once, keeps pre-crash completions,
    /// and leaves the session in a finishable state.
    #[test]
    fn crash_drop_returns_every_incomplete_request_once() {
        let (sim, model) = setup();
        let t = Scenarios::burst(8);
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
        );
        let mut session = engine.session(4096, 4096);
        let mut policy = ContinuousBatching;
        for (id, r) in t.requests.iter().enumerate() {
            session.inject(id, *r);
        }
        // Step partway: some completed, some running, some queued/pending.
        let mut crash_ns = 0.0;
        loop {
            crash_ns += 5.0e6;
            session.step_until(crash_ns, &mut policy);
            if session.completed() >= 2 {
                break;
            }
        }
        let completed_before = session.completed();
        assert!(completed_before < t.len(), "crash before the run drains");
        let dropped = session.crash_drop();
        assert_eq!(dropped.len(), t.len() - completed_before);
        let mut ids: Vec<usize> = dropped.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), dropped.len(), "each request dropped once");
        // Requests that produced a token carry their progress for migration.
        for d in &dropped {
            assert!(d.generated <= d.request.output_len);
            assert_eq!(d.generated >= 1, d.first_token_ns.is_finite());
        }
        let result = session.finish();
        assert_eq!(result.outcomes.len(), completed_before);
    }

    /// The timeout hook removes a waiting request; admitted or unknown ids
    /// are refused.
    #[test]
    fn cancel_queued_removes_waiting_requests_only() {
        let (sim, model) = setup();
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
        );
        let mut session = engine.session(4096, 4096);
        let mut policy = ContinuousBatching;
        let request = |arrival_ns: f64| TraceRequest {
            arrival_ns,
            prompt_len: 256,
            output_len: 16,
            ..TraceRequest::default()
        };
        session.inject(10, request(0.0));
        session.inject(11, request(0.0));
        session.step_until(1.0, &mut policy);
        // Batch cap 1: id 10 is admitted, id 11 waits.
        assert_eq!(session.queue_depth(), 1);
        assert!(!session.cancel_queued(10), "admitted request is refused");
        assert!(!session.cancel_queued(99), "unknown id is refused");
        assert!(session.cancel_queued(11), "waiting request is removed");
        assert_eq!(session.queue_depth(), 0);
        session.step_until(f64::INFINITY, &mut policy);
        let result = session.finish();
        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0].id, 10);
    }

    /// A compute-scale of exactly 1.0 is bit-identical to never touching the
    /// knob; a slowdown stretches the makespan and a restored 1.0 returns to
    /// normal per-step latencies.
    #[test]
    fn compute_scale_identity_and_slowdown() {
        let (sim, model) = setup();
        let t = Scenarios::burst(8);
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let run_scaled = |scale: Option<f64>| {
            let mut session = engine.session(4096, 4096);
            let mut policy = ContinuousBatching;
            if let Some(s) = scale {
                session.set_compute_scale(s);
            }
            for (id, r) in t.requests.iter().enumerate() {
                session.step_until(r.arrival_ns, &mut policy);
                session.inject(id, *r);
            }
            session.step_until(f64::INFINITY, &mut policy);
            session.finish()
        };
        let baseline = run_scaled(None);
        assert_eq!(run_scaled(Some(1.0)), baseline, "scale 1.0 is identity");
        let slowed = run_scaled(Some(3.0));
        assert!(slowed.makespan_ns > baseline.makespan_ns);
        assert_eq!(slowed.outcomes.len(), baseline.outcomes.len());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn compute_scale_rejects_nonpositive() {
        let (sim, model) = setup();
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        engine.session(64, 64).set_compute_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "precedes the session")]
    fn injecting_into_the_past_panics() {
        let (sim, model) = setup();
        let engine = Engine::new(&sim, &model, EngineConfig::default());
        let mut session = engine.session(256, 256);
        let mut policy = ContinuousBatching;
        session.inject(
            0,
            TraceRequest {
                arrival_ns: 1e6,
                prompt_len: 64,
                output_len: 2,
                ..TraceRequest::default()
            },
        );
        session.step_until(f64::INFINITY, &mut policy);
        session.inject(
            1,
            TraceRequest {
                arrival_ns: 0.0,
                prompt_len: 64,
                output_len: 2,
                ..TraceRequest::default()
            },
        );
    }
}

/// The step-clock [`Batch`] against the per-slot batch it replaced.
#[cfg(test)]
mod batch_model {
    use super::*;
    use proptest::prelude::*;

    /// The per-slot decoding batch: every slot counts its own `generated`,
    /// applying steps walks every slot, and a completion `retain`s the
    /// survivors and refolds their [`Aggregates`]. The reference model of
    /// [`Batch`].
    #[derive(Debug)]
    struct PerSlotBatch {
        slots: Vec<BatchSlot>,
        cached: Aggregates,
    }

    impl PerSlotBatch {
        fn new() -> Self {
            Self {
                slots: Vec::new(),
                cached: Aggregates::EMPTY,
            }
        }

        fn aggregates(&self) -> Aggregates {
            assert_eq!(
                self.cached,
                Aggregates::EMPTY.with(self.slots.iter().copied()),
                "cached batch aggregates diverged from a rescan"
            );
            self.cached
        }

        fn push(&mut self, slot: BatchSlot) {
            self.cached = self.cached.with([slot]);
            self.slots.push(slot);
        }

        fn take(&mut self) -> Vec<BatchSlot> {
            self.cached = Aggregates::EMPTY;
            std::mem::take(&mut self.slots)
        }

        fn advance(
            &mut self,
            steps: usize,
            mut first_token: impl FnMut(usize),
            mut complete: impl FnMut(usize),
        ) -> bool {
            let min_remaining = self.aggregates().min_remaining;
            assert!(steps >= 1 && steps <= min_remaining);
            for slot in &mut self.slots {
                if slot.generated == 0 {
                    first_token(slot.id);
                }
                slot.generated += steps;
            }
            if steps < min_remaining {
                self.cached.min_remaining -= steps;
                self.cached.max_seq += steps;
                return false;
            }
            let mut survivors = Aggregates::EMPTY;
            self.slots.retain(|r| {
                assert!(r.generated <= r.output_len.max(1));
                let done = r.generated >= r.output_len;
                if done {
                    complete(r.id);
                } else {
                    survivors = survivors.with([*r]);
                }
                !done
            });
            self.cached = survivors;
            true
        }
    }

    /// Both batches applying the same steps: their first-token ids (as a
    /// set), completion order and completed flag.
    fn advance_both(
        batch: &mut Batch,
        reference: &mut PerSlotBatch,
        steps: usize,
    ) -> Result<(), TestCaseError> {
        let (mut firsts, mut done) = (Vec::new(), Vec::new());
        let (mut ref_firsts, mut ref_done) = (Vec::new(), Vec::new());
        let completed = batch.advance(steps, |id| firsts.push(id), |id| done.push(id));
        let ref_completed =
            reference.advance(steps, |id| ref_firsts.push(id), |id| ref_done.push(id));
        firsts.sort_unstable();
        ref_firsts.sort_unstable();
        prop_assert_eq!(firsts, ref_firsts, "first-token ids");
        prop_assert_eq!(done, ref_done, "completion order");
        prop_assert_eq!(completed, ref_completed);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random scripts of joins (fresh, restored mid-decode, and
        /// zero-output slots), preempt-style take-and-re-push, restores of
        /// the taken victims, and advances of up to the steps to the next
        /// completion — small lengths, so simultaneous completions, ties on
        /// the longest sequences and compactions are frequent. After every
        /// operation both batches hold the same slots with the same
        /// aggregates.
        #[test]
        fn step_clock_batch_matches_per_slot_batch(
            script in prop::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..160),
        ) {
            let (mut batch, mut reference) = (Batch::default(), PerSlotBatch::new());
            let mut evicted: Vec<BatchSlot> = Vec::new();
            let mut next_id = 0;
            for (op, a, b) in script {
                let mut join = |generated: usize, output_len: usize| {
                    next_id += 1;
                    BatchSlot {
                        id: next_id,
                        prompt_len: a % 16,
                        output_len,
                        generated,
                        tenant: 0,
                        priority: 0,
                    }
                };
                let joining = match op {
                    0 | 1 => Some(join(0, 1 + b % 12)),
                    2 => {
                        let output_len = 2 + b % 12;
                        Some(join(1 + a % (output_len - 1), output_len))
                    }
                    3 => Some(join(0, 0)),
                    4 => {
                        let taken = batch.take();
                        prop_assert_eq!(&taken, &reference.take(), "take");
                        for slot in taken {
                            if (slot.id + a) % 3 == 0 {
                                evicted.push(slot);
                            } else {
                                batch.push(slot);
                                reference.push(slot);
                            }
                        }
                        None
                    }
                    5 if !evicted.is_empty() => Some(evicted.remove(0)),
                    _ if !reference.slots.is_empty() => {
                        let min_remaining = reference.aggregates().min_remaining;
                        let steps = if a % 2 == 0 { min_remaining } else { 1 + b % min_remaining };
                        advance_both(&mut batch, &mut reference, steps)?;
                        None
                    }
                    _ => None,
                };
                if let Some(slot) = joining {
                    batch.push(slot);
                    reference.push(slot);
                }
                prop_assert_eq!(batch.aggregates(), reference.aggregates());
                prop_assert_eq!(batch.len(), reference.slots.len());
                prop_assert_eq!(batch.current().collect::<Vec<_>>(), reference.slots.clone());
            }
            prop_assert_eq!(batch.take(), reference.take(), "final take");
            prop_assert!(batch.is_empty());
        }
    }
}
