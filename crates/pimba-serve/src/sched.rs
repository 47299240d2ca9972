//! Admission/scheduling policies: what the engine does at every step boundary.
//!
//! The engine owns the mechanics (event queue, latency evaluation, memory
//! accounting, checkpoint/restore transfers, metric stamping); a [`Scheduler`]
//! owns the policy — whenever the engine is idle at a step boundary it asks
//! the scheduler for the next [`Action`] given a read-only [`EngineView`].
//! Five policies ship:
//!
//! * [`FcfsStatic`] — static batching: admit a batch, run it to completion,
//!   only then admit the next batch (requests that finish early free their slot
//!   but nobody joins mid-flight),
//! * [`ContinuousBatching`] — requests join and leave at step boundaries;
//!   joiners run a dedicated whole-prompt prefill iteration that stalls the
//!   decoding batch (Orca-style prefill priority),
//! * [`ChunkedPrefill`] — continuous batching that never runs a standalone
//!   prefill: prompts are split into fixed-size chunks and one chunk is fused
//!   into each decode step, trading a small per-step overhead for the
//!   elimination of multi-hundred-millisecond decode stalls,
//! * [`MemoryPressureEviction`] — continuous batching over *live* memory
//!   accounting ([`AdmissionMode::LiveOccupancy`](crate::engine::AdmissionMode)):
//!   admits against current (not final) footprints and, when the growing
//!   batch crosses a high watermark, checkpoints victims out of device memory
//!   ([`Action::Preempt`]) and restores them once the pressure drains
//!   ([`Action::Resume`]) — the policy that prices the paper's
//!   suspend-is-cheap claim for SU-LLM state against a transformer KV cache,
//! * [`WeightedFairQueueing`] — multi-tenant admission: queued requests are
//!   admitted in weighted-fair order across tenant priority classes
//!   ([`Action::AdmitSelected`]) instead of FIFO, so a heavy batch tenant
//!   cannot starve an interactive one.

use crate::engine::{AdmissionMode, BatchSlot, EngineView};

/// What the engine should do next.
///
/// The admission variants (`AdmitAndPrefill`, `AdmitSelected`, `Resume`) are
/// always clamped by the engine to the batch cap and the memory budget of the
/// configured [`AdmissionMode`]; `Preempt`
/// victims are validated against the running batch — a buggy or adversarial
/// policy can never overcommit memory, dequeue past the cap, or evict
/// requests the engine does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Dequeue the first `count` waiting requests and run their prompts as one
    /// batched prefill; they join the decode batch when it completes.
    AdmitAndPrefill {
        /// How many queue-front requests to admit. The engine clamps this to
        /// the queue length *and* to [`EngineView::admissible_count`], so the
        /// batch cap and memory budget hold even for policies that ask for
        /// more; 0 (after clamping) is treated as [`Action::Wait`].
        count: usize,
    },
    /// Dequeue the queue positions in `picks` (indices into
    /// [`EngineView::queue`], admission order) and run their prompts as one
    /// batched prefill — the out-of-FIFO admission a multi-tenant policy
    /// needs. The engine admits the longest *prefix* of `picks` that the
    /// batch cap and memory budget allow (the same walk as
    /// [`EngineView::admissible_among`], so a policy can pre-truncate);
    /// an invalid or duplicate index ends the prefix early.
    AdmitSelected {
        /// Queue indices to admit, in admission order.
        picks: Vec<usize>,
    },
    /// Run one decode step over the current batch, optionally fusing a prefill
    /// chunk of the queue-head request into the same iteration.
    DecodeStep {
        /// Number of prompt tokens of the queue head to prefill alongside the
        /// step (0 = pure decode). The head joins the batch once its whole
        /// prompt has been chunked through.
        fused_chunk_tokens: usize,
    },
    /// Checkpoint the named running requests out of device memory: their
    /// decoding state (recurrent state + KV cache at the *current* sequence
    /// length, [`MemoryModel::dynamic_bytes`](pimba_system::memory::MemoryModel::dynamic_bytes))
    /// is shipped over the engine's checkpoint link
    /// ([`CHECKPOINT_LINK`](crate::engine::CHECKPOINT_LINK))
    /// and the engine blocks for the transfer. Victims keep their generation
    /// progress and wait in [`EngineView::evicted`] until a
    /// [`Action::Resume`] brings them back — checkpoint/restore, never
    /// restart. Ids not currently in the batch are ignored; an empty
    /// (post-validation) victim set degrades to a decode step or
    /// [`Action::Wait`].
    Preempt {
        /// [`BatchSlot::id`]s of the running requests to evict.
        victims: Vec<usize>,
    },
    /// Restore up to `count` checkpointed requests (oldest eviction first)
    /// into the batch, paying the reverse transfer over the checkpoint link.
    /// Clamped to the batch cap and the memory budget; 0 after clamping
    /// degrades like an empty admission.
    Resume {
        /// How many evicted requests to restore.
        count: usize,
    },
    /// Nothing to do until the next arrival.
    Wait,
}

/// How long a just-requested pure decode decision remains valid — the
/// contract that lets the engine fast-forward runs of identical decode steps
/// instead of re-consulting the scheduler at every boundary. Results are
/// bit-identical at every level; stronger levels only skip scheduler consults
/// that provably could not change the outcome.
///
/// # Interaction with the preemptive [`Action`] variants
///
/// Stability is certified only for a **pure decode** the scheduler itself
/// chose; [`Action::Preempt`] / [`Action::Resume`] / [`Action::AdmitSelected`]
/// are always dispatched per-step (their transfers and prefills are discrete
/// work items, never macro-stepped). A policy that may *decide* to preempt
/// mid-decode must not certify beyond [`DecodeStability::PerStep`]: under
/// [`AdmissionMode::LiveOccupancy`](crate::engine::AdmissionMode) the live
/// footprint grows with every decode step (KV for attention-family models),
/// so a watermark the policy watches can be crossed at a boundary where no
/// arrival or completion occurs — exactly the consults the stronger levels
/// elide. [`MemoryPressureEviction`] therefore runs per-step. Pure
/// *admission* policies remain safely certifiable even under live
/// accounting: during a stable pure-decode run the batch is fixed and
/// memory only grows, so admissibility is monotone non-increasing and a
/// "nothing admissible" decision cannot flip between the re-consult points
/// each level already observes. A **stateful** admission policy may certify
/// only if a non-admitting `decide` mutates nothing — the elided consults
/// are exactly the non-admitting ones, so any state they would have touched
/// diverges between the per-step and fast-forward executions.
/// [`WeightedFairQueueing`] honors this by advancing its service accounts
/// and virtual time only when it actually admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStability {
    /// Re-consult the scheduler at every step boundary (always safe; the
    /// default for custom policies, and the only level for a policy that
    /// inspects more than admissibility).
    PerStep,
    /// The decision tracks **admissibility** alone: re-consult at a completion
    /// only if something is waiting at that moment, and at an arrival only if
    /// the batch has a free slot. Arrivals into a full batch and completions
    /// with an empty queue are absorbed into the macro-step (queued/recorded
    /// by the engine, policy not consulted — it could not have acted). The
    /// contract of admission policies whose only reason to interrupt decoding
    /// is to admit: continuous batching and chunked prefill.
    UntilAdmissible,
    /// The pure decode stands until the batch **drains**: neither arrivals
    /// nor completions change the decision while anything is still decoding.
    /// The contract of run-to-completion policies: FCFS static batching.
    UntilBatchDrains,
}

/// A scheduling/admission policy.
///
/// `Send` is a supertrait so a boxed policy, like the
/// [`Session`](crate::engine::Session) it drives, can move to another thread
/// (the engine's tests pin both); policies are plain state machines, so every
/// implementation satisfies it structurally.
pub trait Scheduler: Send {
    /// Short policy name for records and bench output.
    fn name(&self) -> &'static str;

    /// Decides the next action. Called exactly when the engine is idle: at
    /// simulation start, after every completed work item, and on arrivals
    /// while idle.
    fn decide(&mut self, view: &EngineView<'_>) -> Action;

    /// The stability of the pure decode step just requested: consulted by the
    /// engine immediately after [`Scheduler::decide`] returned
    /// `DecodeStep { fused_chunk_tokens: 0 }`. See [`DecodeStability`] for the
    /// contract each level asserts; anything beyond
    /// [`DecodeStability::PerStep`] lets the engine fast-forward the run of
    /// decode steps in macro-steps (identical results, orders of magnitude
    /// fewer event-loop iterations). The default is always safe: stateful or
    /// time-dependent policies simply run step by step.
    fn decode_stability(&self, _view: &EngineView<'_>) -> DecodeStability {
        DecodeStability::PerStep
    }
}

/// FCFS static batching: a batch is admitted only when the previous one has
/// fully drained.
#[derive(Debug, Default, Clone, Copy)]
pub struct FcfsStatic;

impl Scheduler for FcfsStatic {
    fn name(&self) -> &'static str {
        "fcfs_static"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else if !view.queue.is_empty() {
            Action::AdmitAndPrefill {
                count: view.admissible_count(),
            }
        } else {
            Action::Wait
        }
    }

    /// A running FCFS batch decodes to completion regardless of what queues up
    /// behind it or finishes inside it: only the batch draining entirely
    /// brings the policy back in.
    fn decode_stability(&self, _view: &EngineView<'_>) -> DecodeStability {
        DecodeStability::UntilBatchDrains
    }
}

/// Continuous batching with prefill priority: at every boundary, admit as many
/// waiting requests as memory and the batch cap allow (stalling decode for
/// their prefill); otherwise keep decoding.
#[derive(Debug, Default, Clone, Copy)]
pub struct ContinuousBatching;

impl Scheduler for ContinuousBatching {
    fn name(&self) -> &'static str {
        "continuous"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        let admissible = view.admissible_count();
        if admissible > 0 {
            Action::AdmitAndPrefill { count: admissible }
        } else if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else {
            Action::Wait
        }
    }

    /// A pure decode means `admissible_count() == 0`; the decision flips
    /// exactly when admission becomes possible, which is what
    /// [`DecodeStability::UntilAdmissible`] encodes.
    fn decode_stability(&self, _view: &EngineView<'_>) -> DecodeStability {
        DecodeStability::UntilAdmissible
    }
}

/// Chunked-prefill continuous batching: prompts enter `chunk_tokens` tokens at
/// a time, fused into the running decode steps.
#[derive(Debug, Clone, Copy)]
pub struct ChunkedPrefill {
    /// Prefill chunk size in tokens (clamped to at least 1).
    pub(crate) chunk_tokens: usize,
}

impl ChunkedPrefill {
    /// A policy with the given chunk size.
    pub fn new(chunk_tokens: usize) -> Self {
        Self {
            chunk_tokens: chunk_tokens.max(1),
        }
    }
}

impl Default for ChunkedPrefill {
    fn default() -> Self {
        Self::new(512)
    }
}

impl Scheduler for ChunkedPrefill {
    fn name(&self) -> &'static str {
        "chunked_prefill"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        let head_can_join = view.admissible_count() > 0;
        if head_can_join {
            Action::DecodeStep {
                fused_chunk_tokens: self.chunk_tokens.max(1),
            }
        } else if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else {
            Action::Wait
        }
    }

    /// A chunk-free decode means the queue head cannot join
    /// (`admissible_count() == 0`) — the same admissibility argument as
    /// continuous batching.
    fn decode_stability(&self, _view: &EngineView<'_>) -> DecodeStability {
        DecodeStability::UntilAdmissible
    }
}

/// Which running requests a [`MemoryPressureEviction`] policy checkpoints
/// first when the batch crosses its high watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimOrder {
    /// Evict the longest current sequence first (frees the most bytes per
    /// transfer on KV-cache models; ties break to the newer — higher-id —
    /// request).
    LongestSequence,
    /// Evict the newest request first — highest [`BatchSlot::id`], i.e.
    /// latest injection/arrival order, which survives checkpoint-restore
    /// round trips (a restored old request rejoins the batch *slice* at the
    /// tail but keeps its low id, so it is never mistaken for new work).
    /// Least progress lost; the classic LIFO anti-thrash order.
    Newest,
}

impl VictimOrder {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            VictimOrder::LongestSequence => "evict_longest",
            VictimOrder::Newest => "evict_newest",
        }
    }
}

/// Continuous batching under **live** memory accounting with
/// checkpoint-restore eviction. The watermarks band the *dynamic* memory
/// budget — capacity minus the (immovable) parameter bytes, i.e. the slice
/// eviction can actually reclaim: the policy admits new work only while the
/// batch's live state/KV bytes stay under `high_watermark × budget`, evicts
/// victims once decode growth pushes past it (down to `low_watermark ×
/// budget`), restores them — oldest first — when usage drains back below the
/// low watermark, and never admits new work while checkpointed requests
/// wait, so eviction cannot starve what it suspended.
///
/// Pair with [`AdmissionMode::LiveOccupancy`](crate::engine::AdmissionMode):
/// admission then packs against *current* footprints, which is exact for a
/// constant-size SU-LLM state (nothing ever grows, nothing is ever evicted)
/// and optimistic for a growing transformer KV cache (the overcommit this
/// policy repays with checkpoint transfers — the asymmetry the
/// `serve_preempt` bench quantifies). Under the default
/// [`AdmissionMode::FinalSeqLen`](crate::engine::AdmissionMode) the policy
/// detects the mode from the view and degenerates to plain
/// [`ContinuousBatching`] (bit-identically — asserted in
/// `tests/preempt.rs`): final-sequence admission already guarantees every
/// occupant fits to completion, so live usage drifting toward the
/// watermarks is not pressure and evicting would be gratuitous. Under live
/// accounting the policy runs per-step because its preemption decision
/// watches the live footprint, which moves at every decode step — see the
/// [`DecodeStability`] docs.
#[derive(Debug, Clone, Copy)]
pub struct MemoryPressureEviction {
    /// Victim-selection order.
    pub(crate) victims: VictimOrder,
    /// Fraction of the dynamic budget above which the policy evicts — and up
    /// to which it admits (default 0.92).
    pub(crate) high_watermark: f64,
    /// Fraction of the dynamic budget below which evicted requests are
    /// restored (default 0.75; the hysteresis band damps checkpoint thrash).
    pub(crate) low_watermark: f64,
}

impl MemoryPressureEviction {
    /// A policy with the given victim order and the default watermarks.
    pub fn new(victims: VictimOrder) -> Self {
        Self {
            victims,
            high_watermark: 0.92,
            low_watermark: 0.75,
        }
    }

    /// The dynamic-budget byte bound of a watermark: parameters plus
    /// `fraction` of what capacity leaves for state/KV.
    fn watermark_bytes(view: &EngineView<'_>, fraction: f64) -> f64 {
        let params = view.memory_usage_bytes(0, 1);
        params + fraction * (view.capacity_bytes - params).max(0.0)
    }

    /// The victims that bring live usage back under the low watermark, in
    /// eviction order (empty if the batch is not above the high watermark or
    /// has a single occupant — the policy never evicts the last runner).
    fn select_victims(&self, view: &EngineView<'_>) -> Vec<usize> {
        let batch = view.batch();
        if batch.len() <= 1
            || view.occupancy_bytes() <= Self::watermark_bytes(view, self.high_watermark)
        {
            return Vec::new();
        }
        let target = Self::watermark_bytes(view, self.low_watermark);
        // Candidate order: index into the batch slice, aged by request id
        // (injection order) rather than slice position — restored requests
        // rejoin the slice at the tail, but their ids still say how old they
        // are.
        let mut order: Vec<usize> = (0..batch.len()).collect();
        match self.victims {
            // Longest sequence first; ties to the newer (higher-id) request.
            VictimOrder::LongestSequence => order.sort_by_key(|&i| {
                (
                    std::cmp::Reverse(batch[i].seq_len()),
                    std::cmp::Reverse(batch[i].id),
                )
            }),
            VictimOrder::Newest => {
                order.sort_by_key(|&i| std::cmp::Reverse(batch[i].id));
            }
        }
        let mut evicted = vec![false; batch.len()];
        let mut victims = Vec::new();
        for &candidate in &order {
            if victims.len() + 1 >= batch.len() {
                break; // keep at least one runner
            }
            evicted[candidate] = true;
            victims.push(batch[candidate].id);
            let remaining = batch.len() - victims.len();
            let max_seq = batch
                .iter()
                .enumerate()
                .filter(|(i, _)| !evicted[*i])
                .map(|(_, slot)| slot.seq_len())
                .max()
                .unwrap_or(1);
            if view.memory_usage_bytes(remaining, max_seq) <= target {
                break;
            }
        }
        victims
    }

    /// How many evicted requests fit back under the low watermark (at least
    /// one when the batch is empty, so a drained engine always makes
    /// progress).
    fn resumable(&self, view: &EngineView<'_>) -> usize {
        let count = view.fitting_prefix(
            view.batch()
                .iter()
                .map(BatchSlot::seq_len)
                .max()
                .unwrap_or(1),
            Self::watermark_bytes(view, self.low_watermark),
            view.evicted.iter().map(|e| e.slot.seq_len()),
        );
        if count == 0 && view.running == 0 && !view.evicted.is_empty() {
            1 // a request that does not fit under the watermark alone never will
        } else {
            count
        }
    }

    /// Admission under the high watermark: how many queue-front requests fit
    /// at their live (post-prefill) footprints without crossing the eviction
    /// threshold — deliberately stricter than the engine's full-capacity
    /// clamp, so steady growth (not admission itself) is what triggers
    /// evictions.
    fn admissible_under_watermark(&self, view: &EngineView<'_>) -> usize {
        let count = view.fitting_prefix(
            view.batch()
                .iter()
                .map(BatchSlot::seq_len)
                .max()
                .unwrap_or(0),
            Self::watermark_bytes(view, self.high_watermark),
            view.queue.iter().map(|w| w.request.prompt_len),
        );
        if count == 0 && view.running == 0 && view.evicted.is_empty() && !view.queue.is_empty() {
            1 // nothing fits alone: admit it anyway rather than deadlock
        } else {
            count
        }
    }
}

impl Scheduler for MemoryPressureEviction {
    fn name(&self) -> &'static str {
        self.victims.name()
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        if view.admission_mode == AdmissionMode::FinalSeqLen {
            // Final-sequence admission already guarantees every occupant can
            // run to completion — live usage approaching the watermarks is
            // not pressure, and evicting would pay gratuitous transfers for
            // requests guaranteed to fit. Degenerate to continuous batching
            // (the engine never holds evictions under this policy+mode, so
            // the preemptive branches are unreachable).
            let admissible = view.admissible_count();
            return if admissible > 0 {
                Action::AdmitAndPrefill { count: admissible }
            } else if view.running > 0 {
                Action::DecodeStep {
                    fused_chunk_tokens: 0,
                }
            } else {
                Action::Wait
            };
        }
        let victims = self.select_victims(view);
        if !victims.is_empty() {
            return Action::Preempt { victims };
        }
        if !view.evicted.is_empty() {
            // Restore-on-drain: checkpointed requests come back before any
            // new admission (they are strictly older than everything queued).
            let count = self.resumable(view);
            if count > 0 {
                return Action::Resume { count };
            }
            // Still above the low watermark: decode on, admit nothing.
            return if view.running > 0 {
                Action::DecodeStep {
                    fused_chunk_tokens: 0,
                }
            } else {
                Action::Wait
            };
        }
        let admissible = self.admissible_under_watermark(view);
        if admissible > 0 {
            Action::AdmitAndPrefill { count: admissible }
        } else if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else {
            Action::Wait
        }
    }

    /// Per-step under live accounting (the watermark decision moves with
    /// every decode step); in the final-sequence degeneration the policy is
    /// exactly continuous batching, so the same admissibility certification
    /// applies.
    fn decode_stability(&self, view: &EngineView<'_>) -> DecodeStability {
        match view.admission_mode {
            AdmissionMode::FinalSeqLen => DecodeStability::UntilAdmissible,
            AdmissionMode::LiveOccupancy => DecodeStability::PerStep,
        }
    }
}

/// Weighted fair queueing across tenant priority classes: queued requests are
/// admitted in ascending order of their tenant's *attained weighted service*
/// (request cost `prompt + output` tokens divided by weight
/// `max(priority, 1)`), FIFO within a tenant — start-time fair queueing over
/// tenant accounts. A virtual time tracking the least-served backlogged
/// tenant floors every account, so a tenant first seen (or returning from
/// idle) mid-run joins at the current fairness level: no catch-up burst from
/// an empty history, no penalty either.
///
/// With a single tenant every request has the same service account, so the
/// fair order degenerates to FIFO and the policy is bit-identical to
/// [`ContinuousBatching`] — asserted in `tests/wfq.rs`, along with the
/// bounded-starvation property.
#[derive(Debug, Default, Clone)]
pub struct WeightedFairQueueing {
    /// `(tenant, attained weighted service)`, ascending in tenant.
    service: Vec<(u32, f64)>,
    /// The fairness floor: the least effective service among backlogged
    /// tenants, monotonically advanced — only when an admission happens, so
    /// the policy's state evolution is a pure function of the admission
    /// sequence, never of how often the engine consulted it. That is what
    /// keeps the [`DecodeStability::UntilAdmissible`] certification sound:
    /// the consults fast-forwarding elides are exactly the non-admitting
    /// ones, and a non-admitting `decide` mutates nothing.
    virtual_time: f64,
}

/// The WFQ weight of a priority class.
fn wfq_weight(priority: u8) -> f64 {
    priority.max(1) as f64
}

impl WeightedFairQueueing {
    /// A fresh policy (no service history).
    pub fn new() -> Self {
        Self::default()
    }

    fn service_of(&self, tenant: u32) -> Option<f64> {
        self.service
            .binary_search_by_key(&tenant, |&(t, _)| t)
            .ok()
            .map(|i| self.service[i].1)
    }

    /// A tenant's service account floored at the current virtual time (the
    /// level unseen and long-idle tenants join at).
    fn effective_service(&self, tenant: u32) -> f64 {
        self.service_of(tenant)
            .map_or(self.virtual_time, |s| s.max(self.virtual_time))
    }

    /// Advances the virtual time to the least effective service among the
    /// queued tenants — the start tag of whatever would be served next.
    /// Called only on actual admissions (see the `virtual_time` field docs);
    /// settling never changes the effective service of a *currently* queued
    /// tenant (the new floor is their minimum), so running it before or
    /// after `pick_order_bounded` yields the same order —
    /// it only sets the join level of tenants first seen later.
    fn settle_virtual_time(&mut self, queue: &[crate::engine::WaitingRequest]) {
        let min_effective = queue
            .iter()
            .map(|w| self.effective_service(w.request.tenant))
            .fold(f64::INFINITY, f64::min);
        if min_effective.is_finite() {
            self.virtual_time = self.virtual_time.max(min_effective);
        }
    }

    /// Charges one admitted request to its tenant's account.
    fn charge(&mut self, tenant: u32, cost: f64) {
        let charged = self.effective_service(tenant) + cost;
        match self.service.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => self.service[i].1 = charged,
            Err(i) => self.service.insert(i, (tenant, charged)),
        }
    }

    /// The weighted-fair admission order of `queue` (indices into it), cut
    /// at its first `limit` entries: the order [`Scheduler::decide`] submits
    /// via [`Action::AdmitSelected`]. Pure with respect to the policy state —
    /// only an actual admission charges service. The fair order is built
    /// greedily, so the prefix is independent of how far the permutation is
    /// extended. `decide` bounds the work at the batch slots actually free:
    /// on a deeply backlogged queue (WFQ's home regime) ordering the whole
    /// queue would be almost entirely thrown away by the admission clamp.
    fn pick_order_bounded(
        &self,
        queue: &[crate::engine::WaitingRequest],
        limit: usize,
    ) -> Vec<usize> {
        // Tentative per-tenant accounts, seeded from (virtual-time-floored)
        // history.
        let mut tenants: Vec<u32> = queue.iter().map(|w| w.request.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut service: Vec<f64> = tenants.iter().map(|&t| self.effective_service(t)).collect();
        // FIFO cursor per tenant: queue indices grouped by tenant.
        let mut per_tenant: Vec<Vec<usize>> = vec![Vec::new(); tenants.len()];
        for (i, w) in queue.iter().enumerate() {
            let slot = tenants.binary_search(&w.request.tenant).expect("collected");
            per_tenant[slot].push(i);
        }
        let mut cursor = vec![0usize; tenants.len()];
        let target = queue.len().min(limit);
        let mut picks = Vec::with_capacity(target);
        while picks.len() < target {
            // Least attained service among tenants with queued work; ties to
            // the lower tenant tag.
            let slot = (0..tenants.len())
                .filter(|&s| cursor[s] < per_tenant[s].len())
                .min_by(|&a, &b| {
                    service[a]
                        .total_cmp(&service[b])
                        .then_with(|| tenants[a].cmp(&tenants[b]))
                })
                .expect("picks incomplete, so some tenant has work");
            let queue_idx = per_tenant[slot][cursor[slot]];
            cursor[slot] += 1;
            let w = &queue[queue_idx];
            service[slot] += (w.request.prompt_len + w.request.output_len) as f64
                / wfq_weight(w.request.priority);
            picks.push(queue_idx);
        }
        picks
    }
}

impl Scheduler for WeightedFairQueueing {
    fn name(&self) -> &'static str {
        "wfq"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        if !view.queue.is_empty() {
            // The admission clamp can never accept more than the free batch
            // slots, so only that much of the fair order is ever needed.
            let free_slots = view.max_batch.saturating_sub(view.running);
            let picks = self.pick_order_bounded(view.queue, free_slots.max(1));
            let admissible = view.admissible_among(&picks);
            if admissible > 0 {
                // State moves only on admission — a non-admitting consult is
                // pure, which is what the UntilAdmissible certification
                // requires of a *stateful* admission policy (the elided
                // consults must be no-ops).
                self.settle_virtual_time(view.queue);
                let picks: Vec<usize> = picks[..admissible].to_vec();
                for &i in &picks {
                    let w = &view.queue[i];
                    self.charge(
                        w.request.tenant,
                        (w.request.prompt_len + w.request.output_len) as f64
                            / wfq_weight(w.request.priority),
                    );
                }
                return Action::AdmitSelected { picks };
            }
        }
        if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else {
            Action::Wait
        }
    }

    /// A pure decode means nothing in the fair order is admissible; like
    /// continuous batching, the decision can only flip when admission becomes
    /// possible — arrivals into a full batch and completions with an empty
    /// queue are safely absorbed (admissibility is order-independent there,
    /// and during a stable decode run memory only grows). The certification
    /// is sound for this *stateful* policy because a non-admitting `decide`
    /// mutates nothing — service accounts and the virtual time move only on
    /// admissions, which fast-forwarding never elides (see the
    /// [`DecodeStability`] docs; `tests/wfq.rs` pins multi-tenant
    /// fast-forward bit-identity).
    fn decode_stability(&self, _view: &EngineView<'_>) -> DecodeStability {
        DecodeStability::UntilAdmissible
    }
}

/// Scheduler policy selector — the value-level form used by grid configs,
/// benches and CLI-ish entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`FcfsStatic`].
    FcfsStatic,
    /// [`ContinuousBatching`].
    Continuous,
    /// [`ChunkedPrefill`] with the given chunk size.
    ChunkedPrefill {
        /// Prefill chunk size in tokens.
        chunk_tokens: usize,
    },
    /// [`MemoryPressureEviction`] with the given victim order (default
    /// watermarks; pair with
    /// [`AdmissionMode::LiveOccupancy`](crate::engine::AdmissionMode)).
    MemoryPressure {
        /// Victim-selection order.
        victims: VictimOrder,
    },
    /// [`WeightedFairQueueing`].
    Wfq,
}

impl PolicyKind {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            PolicyKind::FcfsStatic => Box::new(FcfsStatic),
            PolicyKind::Continuous => Box::new(ContinuousBatching),
            PolicyKind::ChunkedPrefill { chunk_tokens } => {
                Box::new(ChunkedPrefill::new(chunk_tokens))
            }
            PolicyKind::MemoryPressure { victims } => {
                Box::new(MemoryPressureEviction::new(victims))
            }
            PolicyKind::Wfq => Box::new(WeightedFairQueueing::new()),
        }
    }

    /// The policy's display name (stable: what [`PolicyKind::from_name`]
    /// parses and what grids/benches print).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::FcfsStatic => "fcfs_static",
            PolicyKind::Continuous => "continuous",
            PolicyKind::ChunkedPrefill { .. } => "chunked_prefill",
            PolicyKind::MemoryPressure { victims } => victims.name(),
            PolicyKind::Wfq => "wfq",
        }
    }

    /// Parses a display name back into its selector (parameterized policies
    /// come back with their default parameters: 512-token chunks, default
    /// watermarks).
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        match name {
            "fcfs_static" => Some(PolicyKind::FcfsStatic),
            "continuous" => Some(PolicyKind::Continuous),
            "chunked_prefill" => Some(PolicyKind::ChunkedPrefill { chunk_tokens: 512 }),
            "evict_longest" => Some(PolicyKind::MemoryPressure {
                victims: VictimOrder::LongestSequence,
            }),
            "evict_newest" => Some(PolicyKind::MemoryPressure {
                victims: VictimOrder::Newest,
            }),
            "wfq" => Some(PolicyKind::Wfq),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WaitingRequest;
    use crate::traffic::TraceRequest;
    use proptest::prelude::*;

    /// Satellite: the registry round-trips — every selector's name parses
    /// back to the selector, and the built scheduler reports the same name.
    #[test]
    fn policy_kind_name_round_trip() {
        let kinds = [
            PolicyKind::FcfsStatic,
            PolicyKind::Continuous,
            PolicyKind::ChunkedPrefill { chunk_tokens: 512 },
            PolicyKind::MemoryPressure {
                victims: VictimOrder::LongestSequence,
            },
            PolicyKind::MemoryPressure {
                victims: VictimOrder::Newest,
            },
            PolicyKind::Wfq,
        ];
        for kind in kinds {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PolicyKind::from_name("nope"), None);
    }

    fn waiting(id: usize, tenant: u32, priority: u8, tokens: usize) -> WaitingRequest {
        WaitingRequest {
            id,
            request: TraceRequest {
                arrival_ns: id as f64,
                prompt_len: tokens / 2,
                output_len: tokens - tokens / 2,
                tenant,
                priority,
            },
            prefilled: 0,
        }
    }

    /// Single tenant: the fair order is FIFO, whatever the history says.
    #[test]
    fn wfq_pick_order_is_fifo_for_a_single_tenant() {
        let mut policy = WeightedFairQueueing::new();
        policy.charge(0, 1234.5); // history must not matter
        let queue: Vec<WaitingRequest> = (0..7).map(|i| waiting(i, 0, 3, 100 + i * 10)).collect();
        assert_eq!(
            policy.pick_order_bounded(&queue, queue.len()),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
    }

    /// Two tenants, equal weights and costs: strict alternation, FIFO within
    /// each tenant.
    #[test]
    fn wfq_alternates_equal_tenants() {
        let policy = WeightedFairQueueing::new();
        let queue = vec![
            waiting(0, 0, 1, 100),
            waiting(1, 0, 1, 100),
            waiting(2, 1, 1, 100),
            waiting(3, 1, 1, 100),
        ];
        // Tenant 0 (lower tag) breaks the opening tie, then they alternate.
        assert_eq!(
            policy.pick_order_bounded(&queue, queue.len()),
            vec![0, 2, 1, 3]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite property: no tenant starves. With every tenant
        /// back-logged and one admission per scheduler consult, any tenant is
        /// served at least once every `2 × ceil(total_weight / weight) + 2`
        /// consults — the weighted-round-robin bound with the factor-2 slack
        /// a least-attained-service discipline can transiently accrue while
        /// lighter tenants catch up in bursts.
        #[test]
        fn wfq_serves_every_queued_tenant_within_a_bounded_number_of_consults(
            params in (2usize..6, 0u64..256)
        ) {
            let (n_tenants, weight_seed) = params;
            let weights: Vec<u8> = (0..n_tenants)
                .map(|t| 1 + ((weight_seed >> (t * 3)) % 7) as u8)
                .collect();
            let total_weight: f64 = weights.iter().map(|&w| f64::from(w)).sum();
            let mut policy = WeightedFairQueueing::new();
            let mut last_served = vec![0usize; n_tenants];
            let mut next_id = 0usize;
            // Constant backlog: every tenant always has one queued request of
            // equal cost; each consult admits exactly the first pick.
            for round in 1..=400usize {
                let queue: Vec<WaitingRequest> = (0..n_tenants)
                    .map(|t| {
                        next_id += 1;
                        waiting(next_id, t as u32, weights[t], 200)
                    })
                    .collect();
                policy.settle_virtual_time(&queue);
                let picks = policy.pick_order_bounded(&queue, queue.len());
                let first = &queue[picks[0]];
                let tenant = first.request.tenant as usize;
                // Replicate decide()'s charging for the admitted request.
                policy.charge(
                    first.request.tenant,
                    (first.request.prompt_len + first.request.output_len) as f64
                        / wfq_weight(first.request.priority),
                );
                last_served[tenant] = round;
                for t in 0..n_tenants {
                    let bound = 2 * (total_weight / f64::from(weights[t])).ceil() as usize + 2;
                    prop_assert!(
                        round - last_served[t] <= bound,
                        "tenant {t} (weight {}) unserved for {} > {bound} consults",
                        weights[t],
                        round - last_served[t]
                    );
                }
            }
            // And service shares track weights: the heaviest tenant must have
            // been served at least as often as the lightest.
            prop_assert!(last_served.iter().all(|&r| r > 0), "every tenant served");
        }
    }
}
