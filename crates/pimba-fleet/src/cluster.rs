//! The fleet co-simulator: N per-replica `pimba-serve` engine sessions under
//! a front-door router, colocated or disaggregated.
//!
//! Each replica is one incrementally-steppable
//! [`Session`] of the single-replica engine — the same
//! event loop, schedulers, admission control and fast-forward machinery,
//! advanced here in co-simulation windows. The driver walks the global trace
//! in time order; before an arrival at `t` every replica that could be
//! routed to is stepped to `t` (exclusive — see the `pimba-serve` engine
//! docs for why the exclusive horizon makes incremental feeding exact), the
//! [`Router`] picks a replica from the [`ReplicaLoad`] snapshot, and the
//! request is injected. A colocated fleet of one replica therefore computes
//! **bit-identically** to a plain `Engine::run` over the same trace — the
//! anchor the fleet test-suite (and the `fleet_scale` bench, on every run)
//! asserts.
//!
//! # Disaggregated prefill/decode
//!
//! [`FleetMode::Disaggregated`] splits the fleet into a prefill pool and a
//! decode pool. The front door routes arrivals over the prefill pool, where a
//! request runs its prompt prefill plus the first decode step (producing the
//! first token — TTFT is paid here). Its decoding context — the SU-LLM state
//! and any KV cache, sized by
//! [`MemoryModel::dynamic_bytes`] in the system's storage formats — then
//! ships to a decode replica through the [`StateTransferModel`], arriving
//! `transfer_ns(bytes)` later; a second router (its own keyed PCG stream)
//! places it, and [`Session::inject_prefilled`] resumes decoding at full
//! context without re-prefilling. Handoffs are delivered in global
//! arrival-time order (the prefill replicas are stepped to every driver
//! instant before any handoff earlier than it is delivered, so no earlier
//! handoff can appear later), and the co-simulation stays deterministic for
//! any worker-thread count of the grid runner above it.
//!
//! # One event loop
//!
//! Every fleet runs on one driver, which takes a [`FaultPlan`]:
//! [`FleetSim::run`] is [`FleetSim::run_faulted`] with the empty plan. It
//! steps one replica pool (a disaggregated fleet's prefill replicas `[0, P)`,
//! then its decode replicas `[P, P+D)`) and pops one agenda: trace arrivals
//! off a cursor merged with one heap of driver events, arrivals winning ties.
//! The topologies differ in the fleet's *front*, the replicas arrivals are
//! routed over: every replica of a colocated fleet, or a disaggregated
//! fleet's prefill pool. Before an event acts at instant `t`, the loop steps
//! the front to `t`; a disaggregated fleet then pushes new prefill
//! completions as handoffs onto the same heap and delivers every handoff
//! earlier than `t`. One dispatch then acts. An arrival is routed over the
//! front (a prefill replica runs the prompt and first token only), and a
//! handoff is delivered to the decode pool. Any other event steps the
//! replicas outside the front to `t`, then applies a slowdown, crash,
//! restart, detection, resumption or timeout; the plan validator keeps
//! crashes and queue-wait timeouts colocated. An empty plan schedules no
//! events, so the fault-free fleet is the faulted fleet with nothing to
//! interrupt it — byte-identical by construction.
//!
//! **Decoupled free-run.** When a colocated fleet's router is
//! [load-oblivious](RouterKind::load_oblivious) and the plan is empty,
//! nothing needs mid-trace fleet state, so the loop skips the per-event
//! `step_until`: it routes and injects every arrival up front (the policy
//! never reads the loads) and the final drain steps each replica to ∞ once.
//! Replica state is insensitive to *foreign* horizons (stepping to an instant
//! with nothing to inject is a bit-level no-op), so dropping the other
//! replicas' arrival horizons leaves every replica's result untouched —
//! gated free-run ≡ stepped in `tests/parallel_equivalence.rs`. A
//! disaggregated fleet never free-runs: its handoffs come from the prefill
//! pool's mid-trace completions.
//!
//! Fleets run on the calling thread; grids get their parallelism across
//! cells instead (`pimba_system::sweep::parallel_map`). Intra-fleet parallel
//! execution does not pay at this event granularity: a conservative window
//! is one inter-arrival gap long, so workers spend their time at barriers,
//! and optimistic speculation rolls back too often to win it back (measured
//! 3.5–100× slower than this loop on JSQ/po2 fleets).
//!
//! # Fault tolerance & live migration
//!
//! [`FleetSim::run_faulted`] folds a deterministic
//! [`FaultPlan`] into the co-simulation: replica
//! crashes and restarts, transient slowdowns (per-replica compute-latency
//! multipliers) and handoff-link partitions, plus the recovery stack —
//! failure detection after a configurable lag, live migration of in-flight
//! requests, and bounded retry with exponential backoff. The migration path
//! maintains these invariants:
//!
//! * **Empty plans are byte-identical, not merely equivalent.** A plan with
//!   no events and no timeout schedules nothing, so the loop executes
//!   exactly the fault-free event sequence (gated in
//!   `tests/fault_determinism.rs` and on every `fleet_fault` bench run).
//! * **Faulted runs are bit-reproducible.** A given
//!   `(system, model, trace, config, plan)` produces the same bits across
//!   repeats and grid-runner thread counts.
//! * **Causal global-time order.** Driver events (arrivals, faults,
//!   detections, migration deliveries, retries, timeouts) execute in
//!   `(time, creation-seq)` order — arrivals come off the trace cursor and
//!   win ties (they are created first), everything else pops off one event
//!   heap; every live replica is stepped to an event's instant before the
//!   event acts, so a migrated request can never resume earlier than the
//!   crash that evicted it.
//! * **Migration prices the state, and only the state.** A victim with `g`
//!   decoded tokens re-enters a survivor via `inject_prefilled` at context
//!   `prompt + g` after `transfer_ns(dynamic_bytes(1, prompt + g))` on the
//!   plan's migration link — the same `MemoryModel` bytes the disaggregated
//!   handoff ships, which is exactly where Pimba's constant-size state pays
//!   off against a GPU KV cache.
//! * **Zombie windows black-hole.** Between a crash and its detection the
//!   router still sees the victim's frozen load snapshot; requests routed
//!   there are lost-in-flight and re-enter recovery (as retries — the
//!   shipped state died with the zombie) when the detector fires. Dead
//!   replicas are excluded from routing after detection: load-aware policies
//!   simply never see them, and round-robin stays load-oblivious but skips
//!   them (it rotates over the live slice).
//! * **Every outcome is trace-native.** Assembly (below) gives every
//!   outcome its trace arrival, prompt and output lengths — a migrated or
//!   retried request's too, and one held at the front door while every
//!   replica was down and detected. The loop then overlays what each
//!   request's recovery track recorded: TTFT keeps the instant the
//!   *first* token was actually produced (pre-crash for migrations), and
//!   `retries`/`migrations` count the journey, so SLO math charges recovery
//!   delay and holds honestly.
//!
//! # Outcome assembly
//!
//! The loop ends in one assembly. The per-replica results, in fleet order,
//! scatter their outcomes into trace-indexed slots: a request's first
//! outcome creates its slot with the trace's arrival, prompt and output
//! lengths and the outcome's first-token and completion instants; a later
//! outcome only moves the completion. That later outcome is the decode leg
//! of a disaggregated request, since prefill replicas come first in fleet
//! order; a single-token request never hands off, so its prefill outcome is
//! its whole outcome.
//!
//! # Observability without perturbation
//!
//! [`FleetSim::with_trace`] attaches a
//! [`TraceRecorder`]: the drivers then emit route
//! decisions, handoff deliveries and the full fault vocabulary
//! (crash/detect/migrate/retry/restart/slowdown/timeout/blackhole/lost)
//! onto a `fleet` track, and every replica session records its engine
//! events onto a per-replica track. Sinks are **write-only**: no driver or
//! replica ever reads a recorded event back, so an attached recorder cannot
//! change a single bit of the simulation output — the same no-perturbation
//! invariant `pimba_system::obs` documents, gated here by
//! `tests/obs_identity.rs` alongside the bit-identity invariants above.

use crate::fault::{FaultError, FaultKind, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{FleetResult, ReplicaReport, ReplicaRole};
use crate::router::{streams, ReplicaLoad, Router, RouterKind};
use pimba_models::config::ModelConfig;
use pimba_serve::engine::{DroppedRequest, Engine, EngineConfig, Session};
use pimba_serve::metrics::{PreemptionStats, RequestOutcome, SimResult, TelemetryStats};
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Trace, TraceRequest};
use pimba_system::memory::MemoryModel;
use pimba_system::obs::{profile_phase, TraceEvent, TraceRecorder, TraceSink};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// How the fleet's replicas divide the request lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetMode {
    /// Every replica serves requests end to end.
    Colocated {
        /// Number of replicas.
        replicas: usize,
    },
    /// Prefill-pool replicas hand decoding requests to decode-pool replicas
    /// through a state-transfer latency model.
    Disaggregated {
        /// Replicas in the prefill pool.
        prefill_replicas: usize,
        /// Replicas in the decode pool.
        decode_replicas: usize,
        /// The prefill→decode state-handoff cost model.
        transfer: StateTransferModel,
    },
}

impl FleetMode {
    /// Total replica count.
    pub fn replicas(&self) -> usize {
        match *self {
            FleetMode::Colocated { replicas } => replicas,
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                ..
            } => prefill_replicas + decode_replicas,
        }
    }
}

/// One fleet simulation's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Replica topology.
    pub mode: FleetMode,
    /// Front-door routing policy (also used, on its own PCG stream, for the
    /// decode pool of a disaggregated fleet).
    pub router: RouterKind,
    /// Per-replica scheduling policy.
    pub policy: PolicyKind,
    /// Per-replica engine knobs (batch cap, memory budget, seq bucketing,
    /// fast-forward).
    pub engine: EngineConfig,
    /// Seed of the router's sampling substreams.
    pub seed: u64,
    /// Ignored: every fleet runs the one sequential event loop (see the
    /// module docs). Kept only so existing struct literals compile;
    /// excluded from memo cell keys.
    pub workers: usize,
    /// Ignored, like [`FleetConfig::workers`].
    pub speculation: bool,
}

impl FleetConfig {
    /// A colocated fleet of `replicas` continuous-batching replicas under
    /// join-shortest-queue routing — chain field updates for anything else.
    pub fn colocated(replicas: usize) -> Self {
        Self {
            mode: FleetMode::Colocated { replicas },
            router: RouterKind::Jsq,
            policy: PolicyKind::Continuous,
            engine: EngineConfig::default(),
            seed: 0xF1EE7,
            workers: 0,
            speculation: true,
        }
    }
}

/// A session's load as the router sees it.
fn session_load(session: &Session<'_>) -> ReplicaLoad {
    ReplicaLoad {
        outstanding: session.outstanding(),
        queue_depth: session.queue_depth(),
        occupancy: session.occupancy(),
    }
}

/// Every replica of one fleet: a colocated fleet's replicas, or a
/// disaggregated fleet's prefill replicas `[0, P)` followed by its decode
/// replicas `[P, P+D)` — the fleet indexing of fault plans and replica
/// reports.
struct Pool<'a> {
    /// Each replica's live session; `None` while the replica is down.
    sessions: Vec<Option<Session<'a>>>,
    schedulers: Vec<Box<dyn Scheduler>>,
    /// Each replica's load as the router sees it, maintained incrementally:
    /// refreshed while stepping and bumped on injection, instead of rebuilt
    /// from every session at every routing decision. A down replica's entry
    /// keeps the snapshot it went down with — what the router sees of an
    /// undetected zombie.
    loads: Vec<ReplicaLoad>,
    /// Each replica's latest compute-scale change: a slowdown end carrying
    /// an older token is stale.
    slow_tokens: Vec<u64>,
    policy: PolicyKind,
}

impl<'a> Pool<'a> {
    fn new(sessions: Vec<Session<'a>>, policy: PolicyKind) -> Self {
        let replicas = sessions.len();
        Self {
            sessions: sessions.into_iter().map(Some).collect(),
            schedulers: (0..replicas).map(|_| policy.build()).collect(),
            loads: vec![IDLE_LOAD; replicas],
            slow_tokens: vec![0; replicas],
            policy,
        }
    }

    /// Advances every live replica in `replicas` through its events strictly
    /// before `t`, refreshing its load entry as part of the same pass
    /// (stepping is the only operation that can change
    /// `queue_depth`/`occupancy` or complete requests, so the snapshot stays
    /// exact between steps). Down replicas are skipped.
    fn step_until(&mut self, replicas: Range<usize>, t: f64) {
        let _stepping = profile_phase("stepping");
        for replica in replicas {
            if let Some(session) = self.sessions[replica].as_mut() {
                session.step_until(t, self.schedulers[replica].as_mut());
                self.loads[replica] = session_load(session);
            }
        }
    }

    /// Injects one arrival into live `replica` (`prefilled`: resuming decode
    /// at full context), updating its load entry in place: `outstanding`
    /// grows by exactly one, and nothing else changes (the arrival event is
    /// pending, so it is neither queued nor batched yet).
    fn inject(&mut self, replica: usize, id: usize, request: TraceRequest, prefilled: bool) {
        let session = self.sessions[replica]
            .as_mut()
            .expect("injections target live replicas");
        if prefilled {
            session.inject_prefilled(id, request);
        } else {
            session.inject(id, request);
        }
        self.loads[replica].outstanding += 1;
    }

    /// The load snapshot of `replicas`. In debug builds every read
    /// cross-checks the live replicas against a full rebuild; the property
    /// test in this module pins the equivalence on randomized traces.
    fn loads(&self, replicas: Range<usize>) -> &[ReplicaLoad] {
        debug_assert!(
            self.loads_are_exact(),
            "incremental load snapshot diverged from a rebuild"
        );
        &self.loads[replicas]
    }

    /// Whether every live replica's load entry equals a rebuild from its
    /// session — the reference the incremental snapshot is asserted against.
    fn loads_are_exact(&self) -> bool {
        self.sessions
            .iter()
            .zip(&self.loads)
            .all(|(session, load)| session.as_ref().is_none_or(|s| session_load(s) == *load))
    }

    /// Takes `replica` down, freezing its load entry, and returns its
    /// session (`None` if it was already down). Its pending slowdown end
    /// goes stale.
    fn take_down(&mut self, replica: usize) -> Option<Session<'a>> {
        let session = self.sessions[replica].take()?;
        self.loads[replica] = session_load(&session);
        self.slow_tokens[replica] += 1;
        Some(session)
    }

    /// Brings `replica` back up, idle, on `session` and a fresh scheduler.
    fn bring_up(&mut self, replica: usize, session: Session<'a>) {
        self.sessions[replica] = Some(session);
        self.schedulers[replica] = self.policy.build();
        self.loads[replica] = IDLE_LOAD;
        self.slow_tokens[replica] += 1;
    }

    /// Drains every live replica to completion and returns its result;
    /// down replicas yield `None`.
    fn finish(mut self) -> Vec<Option<SimResult>> {
        self.step_until(0..self.sessions.len(), f64::INFINITY);
        self.sessions
            .into_iter()
            .map(|session| session.map(Session::finish))
            .collect()
    }
}

/// An idle load snapshot — a fresh replica's load.
const IDLE_LOAD: ReplicaLoad = ReplicaLoad {
    outstanding: 0,
    queue_depth: 0,
    occupancy: 0,
};

/// A driver event, ordered earliest-first with a creation sequence number
/// breaking timestamp ties (creation order is itself deterministic).
struct Timed<T> {
    time_ns: f64,
    seq: u64,
    ev: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time_ns == other.time_ns && self.seq == other.seq
    }
}
impl<T> Eq for Timed<T> {}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One driver event.
enum FleetEv {
    /// Trace request `id` arrives — read off the agenda's cursor, never
    /// pushed.
    Arrival(usize),
    /// `plan.events[index]` fires.
    Fault(usize),
    /// A slowdown window on `replica` ends — stale unless `token` still names
    /// the latest scale change.
    SlowEnd { replica: usize, token: u64 },
    /// The prefill→decode state of request `id` reaches the decode pool.
    Handoff(usize),
    /// The failure detector notices `replica`'s crash — stale if the replica
    /// restarted (new incarnation) or was already handled.
    Detect { replica: usize, incarnation: u32 },
    /// Request `id` re-enters the fleet (migration delivery or retry) —
    /// stale if a newer attempt superseded it.
    Resume {
        id: usize,
        attempt: u32,
        generated: usize,
    },
    /// Request `id`'s queue-wait deadline expires — acts only if the request
    /// is still queued (unadmitted) on a live replica.
    TimeoutCheck { id: usize, attempt: u32 },
}

/// The driver events of one run in `(time, creation-seq)` order: trace
/// arrivals off a cursor, which win ties (they are created first), merged
/// with one heap of everything else.
struct Agenda {
    heap: BinaryHeap<Timed<FleetEv>>,
    seq: u64,
    cursor: usize,
}

impl Agenda {
    /// An agenda holding the plan's crash, restart and slowdown events,
    /// pushed in plan order so simultaneous faults fire in plan order. Link
    /// partitions are not events: handoffs read them as departure windows.
    fn new(plan: &FaultPlan) -> Self {
        let mut agenda = Agenda {
            heap: BinaryHeap::new(),
            seq: 0,
            cursor: 0,
        };
        for (index, event) in plan.events.iter().enumerate() {
            if !matches!(event.kind, FaultKind::LinkDown { .. }) {
                agenda.push(event.time_ns, FleetEv::Fault(index));
            }
        }
        agenda
    }

    fn push(&mut self, time_ns: f64, ev: FleetEv) {
        self.heap.push(Timed {
            time_ns,
            seq: self.seq,
            ev,
        });
        self.seq += 1;
    }

    /// The next driver event: the next trace arrival unless a heap event is
    /// strictly earlier.
    fn pop(&mut self, trace: &Trace) -> Option<(f64, FleetEv)> {
        let arrival = trace.requests.get(self.cursor).filter(|request| {
            self.heap
                .peek()
                .is_none_or(|event| request.arrival_ns <= event.time_ns)
        });
        if let Some(request) = arrival {
            self.cursor += 1;
            return Some((request.arrival_ns, FleetEv::Arrival(self.cursor - 1)));
        }
        self.pop_before(f64::INFINITY)
    }

    /// The earliest heap event, if it is strictly before `t`.
    fn pop_before(&mut self, t: f64) -> Option<(f64, FleetEv)> {
        if self.heap.peek().is_some_and(|event| event.time_ns < t) {
            self.heap.pop().map(|event| (event.time_ns, event.ev))
        } else {
            None
        }
    }
}

/// What the handoff path borrows beside the rest of [`Fleet`]: every
/// replica, the one agenda, the plan with its fault counters, the trace, the
/// state-size model and the fleet-level trace track.
struct FleetCore<'a, 'p> {
    pool: Pool<'a>,
    agenda: Agenda,
    plan: &'p FaultPlan,
    trace: &'p Trace,
    /// Sizes the state a migration or a handoff ships.
    memory: MemoryModel<'a>,
    stats: FaultStats,
    /// The fleet-level trace track (route/handoff/fault/recovery events).
    sink: TraceSink,
}

/// Crash bookkeeping of one replica, beside its pool slot.
#[derive(Default)]
struct Life {
    /// A dead replica stays *visible* to the router until detected.
    detected: bool,
    /// Bumped on every restart; stamps detection events so a detector racing
    /// a restart can't re-recover the new incarnation.
    incarnation: u32,
    /// In-flight requests dropped by the crash, awaiting detection.
    dropped: Vec<DroppedRequest>,
    /// Requests routed into the zombie window, awaiting detection.
    black_holed: Vec<usize>,
    /// Finished results of previous incarnations.
    retired: Vec<SimResult>,
}

/// Recovery bookkeeping for one trace request.
struct Track {
    /// Current attempt; 0 until the first retry. Resume/timeout events
    /// carrying an older attempt are stale.
    attempt: u32,
    retries: u32,
    migrations: u32,
    /// Tokens already generated before the current placement (migrated-in
    /// context beyond the prompt).
    resumed_generated: usize,
    /// Replica currently holding the request, if any.
    location: Option<usize>,
    /// Earliest observed first-token instant across incarnations (NaN until
    /// one is seen); migrated requests keep their pre-crash TTFT.
    first_token_ns: f64,
    lost: bool,
}

impl Track {
    fn new() -> Self {
        Track {
            attempt: 0,
            retries: 0,
            migrations: 0,
            resumed_generated: 0,
            location: None,
            first_token_ns: f64::NAN,
            lost: false,
        }
    }
}

/// The event loop's mutable world: the core, the front door, the handoff
/// path, crash lifecycles, request tracks and the recovery state.
struct Fleet<'a, 'p> {
    engine: &'a Engine<'a>,
    core: FleetCore<'a, 'p>,
    /// The replicas arrivals are routed over and stepped to every agenda
    /// instant: all of a colocated fleet, or a disaggregated fleet's prefill
    /// pool `[0, P)`.
    front: Range<usize>,
    /// A disaggregated fleet's prefill→decode path; `None` when colocated.
    handoffs: Option<Handoffs>,
    life: Vec<Life>,
    /// Replicas currently down; while zero the router reads the loads as is.
    dead: usize,
    router: Box<dyn Router>,
    tracks: Vec<Track>,
    /// Requests with no visible replica to route to, flushed at the next
    /// restart: `(id, attempt, generated)`.
    hold: Vec<(usize, u32, usize)>,
    assignment: Vec<u32>,
    /// Sequence and prompt hints of a restarted replica's session.
    hints: (usize, usize),
    /// Per-replica tracks, reattached to the fresh session on restart.
    replica_sinks: Vec<TraceSink>,
}

impl<'a, 'p> Fleet<'a, 'p> {
    /// Brings the fleet to agenda instant `t` before the event there acts:
    /// steps `front` to `t`, then catches up on handoffs.
    fn advance(&mut self, t: f64) {
        self.core.pool.step_until(self.front.clone(), t);
        if let Some(handoffs) = &mut self.handoffs {
            handoffs.catch_up(&mut self.core, self.front.clone(), t);
        }
    }

    /// Routes request `id` (resuming with `generated` tokens of context) over
    /// `front` at time `t`; a prefill replica runs its prompt and first token
    /// only. Requests routed into an undetected zombie black-hole until the
    /// detector fires; with every replica dead *and* detected, the request
    /// holds at the front door until a restart.
    fn place(&mut self, id: usize, generated: usize, t: f64) {
        let original = self.core.trace.requests[id];
        let request = TraceRequest {
            arrival_ns: t,
            prompt_len: original.prompt_len + generated,
            output_len: match self.handoffs {
                Some(_) => 1,
                None => original.output_len - generated,
            },
            ..original
        };
        let pool = &self.core.pool;
        let loads = pool.loads(self.front.clone());
        let target = if self.dead == 0 {
            // Every replica is live, hence visible: route on the loads as is.
            let choice = {
                let _routing = profile_phase("routing");
                self.router.route(id, &request, loads)
            };
            assert!(choice < loads.len(), "router returned replica {choice}");
            self.front.start + choice
        } else {
            // Live replicas and undetected zombies are routable.
            let visible: Vec<usize> = self
                .front
                .clone()
                .filter(|&i| pool.sessions[i].is_some() || !self.life[i].detected)
                .collect();
            if visible.is_empty() {
                let attempt = self.tracks[id].attempt;
                self.hold.push((id, attempt, generated));
                return;
            }
            let loads: Vec<ReplicaLoad> = visible.iter().map(|&i| pool.loads[i]).collect();
            let choice = {
                let _routing = profile_phase("routing");
                self.router.route(id, &request, &loads)
            };
            assert!(choice < visible.len(), "router returned replica {choice}");
            visible[choice]
        };
        self.core.sink.emit(|| {
            TraceEvent::instant("route", t, id as u64)
                .arg("replica", target as f64)
                .arg("attempt", self.tracks[id].attempt as f64)
        });
        if self.assignment[id] == u32::MAX {
            self.assignment[id] = target as u32;
        }
        self.tracks[id].location = Some(target);
        if self.core.pool.sessions[target].is_none() {
            // Zombie window: the request (and any shipped state) vanishes
            // until the failure detector fires; its frozen load grows so
            // load-aware routers steer away from the pile-up.
            self.life[target].black_holed.push(id);
            let frozen = &mut self.core.pool.loads[target];
            frozen.outstanding += 1;
            frozen.queue_depth += 1;
            self.core.stats.black_holed += 1;
            self.core.sink.emit(|| {
                TraceEvent::instant("blackhole", t, id as u64).arg("replica", target as f64)
            });
            return;
        }
        self.core.pool.inject(target, id, request, generated > 0);
        self.tracks[id].resumed_generated = generated;
        if self.core.plan.retry.timeout_ns > 0.0 {
            let attempt = self.tracks[id].attempt;
            self.core.agenda.push(
                t + self.core.plan.retry.timeout_ns,
                FleetEv::TimeoutCheck { id, attempt },
            );
        }
    }

    /// Consumes one retry attempt for `id` (or marks it lost), scheduling the
    /// re-entry after backoff + deterministic jitter.
    fn retry_or_lose(&mut self, id: usize, t: f64) {
        let plan = self.core.plan;
        let next = self.tracks[id].attempt + 1;
        if plan.recovery == RecoveryPolicy::None || next > plan.retry.max_attempts {
            self.tracks[id].lost = true;
            self.core.stats.lost += 1;
            self.core
                .sink
                .emit(|| TraceEvent::instant("lost", t, id as u64));
            return;
        }
        let track = &mut self.tracks[id];
        track.attempt = next;
        track.retries += 1;
        track.resumed_generated = 0;
        track.first_token_ns = f64::NAN;
        self.core.stats.retries += 1;
        let at = t + plan.retry.backoff_ns(plan.seed, id, next);
        self.core
            .sink
            .emit(|| TraceEvent::span("retry", t, at - t, id as u64).arg("attempt", next as f64));
        self.core.agenda.push(
            at,
            FleetEv::Resume {
                id,
                attempt: next,
                generated: 0,
            },
        );
    }

    /// Handles a request lost from a replica (crash-drop or black-hole):
    /// live-migrate its generated state to a survivor if the policy allows
    /// and progress exists, otherwise retry from scratch.
    fn handle_loss(&mut self, id: usize, generated_here: usize, first_token_ns: f64, t: f64) {
        self.tracks[id].location = None;
        if self.tracks[id].lost {
            return;
        }
        let cumulative = self.tracks[id].resumed_generated + generated_here;
        let original = self.core.trace.requests[id];
        if self.core.plan.recovery == RecoveryPolicy::Migrate
            && cumulative >= 1
            && cumulative < original.output_len
        {
            let track = &mut self.tracks[id];
            track.migrations += 1;
            if !track.first_token_ns.is_finite() && first_token_ns.is_finite() {
                track.first_token_ns = first_token_ns;
            }
            let attempt = track.attempt;
            self.core.stats.migrations += 1;
            let bytes = self
                .core
                .memory
                .dynamic_bytes(1, original.prompt_len + cumulative);
            self.core.stats.migrated_bytes += bytes;
            let at = t + self.core.plan.migration_link.transfer_ns(bytes);
            self.core.sink.emit(|| {
                TraceEvent::span("migrate", t, at - t, id as u64)
                    .arg("bytes", bytes)
                    .arg("generated", cumulative as f64)
            });
            self.core.agenda.push(
                at,
                FleetEv::Resume {
                    id,
                    attempt,
                    generated: cumulative,
                },
            );
        } else {
            self.retry_or_lose(id, t);
        }
    }

    fn crash(&mut self, victim: usize, t: f64) {
        let Some(mut session) = self.core.pool.take_down(victim) else {
            return;
        };
        self.core.stats.crashes += 1;
        self.dead += 1;
        let life = &mut self.life[victim];
        life.detected = false;
        life.dropped = session.crash_drop();
        life.retired.push(session.finish());
        for d in &life.dropped {
            self.tracks[d.id].location = None;
        }
        let (incarnation, dropped) = (life.incarnation, life.dropped.len());
        self.core.sink.emit(|| {
            TraceEvent::instant("crash", t, victim as u64)
                .arg("replica", victim as f64)
                .arg("dropped", dropped as f64)
        });
        self.core.agenda.push(
            t + self.core.plan.detection_latency_ns,
            FleetEv::Detect {
                replica: victim,
                incarnation,
            },
        );
    }

    /// Runs recovery for a detected crash: every request the replica held
    /// (dropped in-flight, or black-holed during the zombie window) re-enters
    /// through migration or retry.
    fn recover(&mut self, replica: usize, t: f64) {
        self.life[replica].detected = true;
        let dropped = std::mem::take(&mut self.life[replica].dropped);
        let black = std::mem::take(&mut self.life[replica].black_holed);
        self.core.sink.emit(|| {
            TraceEvent::instant("detect", t, replica as u64)
                .arg("replica", replica as f64)
                .arg("dropped", dropped.len() as f64)
                .arg("black_holed", black.len() as f64)
        });
        for d in dropped {
            self.handle_loss(d.id, d.generated, d.first_token_ns, t);
        }
        for id in black {
            // State shipped into the zombie died with it: restart from
            // scratch, whatever progress the pre-crash incarnations made.
            self.tracks[id].resumed_generated = 0;
            self.handle_loss(id, 0, f64::NAN, t);
        }
    }

    fn restart(&mut self, replica: usize, t: f64) {
        if self.core.pool.sessions[replica].is_some() {
            return;
        }
        if !self.life[replica].detected {
            // The replacement raced the detector: the fleet learns of the
            // loss now, so recovery triggers here.
            self.recover(replica, t);
        }
        self.core.stats.restarts += 1;
        self.dead -= 1;
        self.core.sink.emit(|| {
            TraceEvent::instant("restart", t, replica as u64).arg("replica", replica as f64)
        });
        let mut session = self.engine.session(self.hints.0, self.hints.1);
        session.set_trace(self.replica_sinks[replica].clone());
        self.core.pool.bring_up(replica, session);
        let life = &mut self.life[replica];
        life.detected = false;
        life.incarnation += 1;
        for (id, attempt, generated) in std::mem::take(&mut self.hold) {
            self.core.agenda.push(
                t,
                FleetEv::Resume {
                    id,
                    attempt,
                    generated,
                },
            );
        }
    }

    fn detect(&mut self, replica: usize, incarnation: u32, t: f64) {
        let life = &self.life[replica];
        if self.core.pool.sessions[replica].is_none()
            && !life.detected
            && life.incarnation == incarnation
        {
            self.recover(replica, t);
        }
    }

    fn resume(&mut self, id: usize, attempt: u32, generated: usize, t: f64) {
        let track = &self.tracks[id];
        if track.lost || track.attempt != attempt {
            return;
        }
        self.place(id, generated, t);
    }

    fn timeout_check(&mut self, id: usize, attempt: u32, t: f64) {
        let track = &self.tracks[id];
        if track.lost || track.attempt != attempt {
            return;
        }
        let Some(location) = track.location else {
            return;
        };
        // A dead location means the crash path owns recovery of this request.
        let pool = &mut self.core.pool;
        let Some(session) = pool.sessions[location].as_mut() else {
            return;
        };
        if !session.cancel_queued(id) {
            return; // admitted (or finished) before the deadline
        }
        pool.loads[location] = session_load(session);
        self.core.stats.timeouts += 1;
        self.core
            .sink
            .emit(|| TraceEvent::instant("timeout", t, id as u64).arg("replica", location as f64));
        self.tracks[id].location = None;
        // Timed-out requests always take the retry path: they made no
        // progress while queued, and bounding attempts keeps the driver
        // finite even under Migrate.
        self.retry_or_lose(id, t);
    }

    /// Acts on any event but an arrival or a handoff. It first steps the
    /// replicas outside `front` to `t` — none when colocated; a decode pool
    /// otherwise advances only at handoff deliveries, and stepping it to `t`
    /// injects nothing, a bit-level no-op — so events before a slowdown
    /// change keep the old latency. A slowdown start on a down replica does
    /// nothing; a later start supersedes an earlier one, whose end goes
    /// stale.
    fn act(&mut self, ev: FleetEv, t: f64) {
        let pool = &mut self.core.pool;
        pool.step_until(self.front.end..pool.sessions.len(), t);
        match ev {
            FleetEv::Fault(index) => match self.core.plan.events[index].kind {
                FaultKind::Slowdown {
                    replica,
                    factor,
                    duration_ns,
                } => {
                    let Some(session) = pool.sessions[replica].as_mut() else {
                        return;
                    };
                    session.set_compute_scale(factor);
                    pool.slow_tokens[replica] += 1;
                    let token = pool.slow_tokens[replica];
                    self.core.stats.slowdowns += 1;
                    self.core.sink.emit(|| {
                        TraceEvent::span("slowdown", t, duration_ns, replica as u64)
                            .arg("replica", replica as f64)
                            .arg("factor", factor)
                    });
                    let end = FleetEv::SlowEnd { replica, token };
                    self.core.agenda.push(t + duration_ns, end);
                }
                FaultKind::Crash { replica } => self.crash(replica, t),
                FaultKind::Restart { replica } => self.restart(replica, t),
                FaultKind::LinkDown { .. } => unreachable!("link partitions are not events"),
            },
            FleetEv::SlowEnd { replica, token } => {
                let live = pool.sessions[replica].as_mut();
                if let Some(session) = live.filter(|_| pool.slow_tokens[replica] == token) {
                    session.set_compute_scale(1.0);
                }
            }
            FleetEv::Detect {
                replica,
                incarnation,
            } => self.detect(replica, incarnation, t),
            FleetEv::Resume {
                id,
                attempt,
                generated,
            } => self.resume(id, attempt, generated, t),
            FleetEv::TimeoutCheck { id, attempt } => self.timeout_check(id, attempt, t),
            FleetEv::Arrival(_) | FleetEv::Handoff(_) => unreachable!("dispatched by the loop"),
        }
    }

    /// Ends the run after the final drain: requests still held never saw a
    /// live replica again and are lost; each replica's results merge across
    /// incarnations; one assembly builds the fleet result, and each request's
    /// recovery track is overlaid on it (a no-op when nothing recovered).
    fn finish(mut self) -> FleetResult {
        for (id, _, _) in std::mem::take(&mut self.hold) {
            if !self.tracks[id].lost {
                self.tracks[id].lost = true;
                self.core.stats.lost += 1;
            }
        }
        let Fleet {
            core,
            front,
            handoffs,
            life,
            tracks,
            assignment,
            ..
        } = self;
        let disaggregated = handoffs.is_some();
        let results = core.pool.finish().into_iter().zip(life).enumerate().map(
            |(replica, (last, mut life))| {
                life.retired.extend(last);
                let role = match (disaggregated, front.contains(&replica)) {
                    (false, _) => ReplicaRole::Colocated,
                    (true, true) => ReplicaRole::Prefill,
                    (true, false) => ReplicaRole::Decode,
                };
                (role, merge_sim_results(life.retired))
            },
        );
        let decode_assignment = handoffs.map(|h| h.assignment).unwrap_or_default();
        let mut out = assemble(core.trace, results, assignment, decode_assignment);
        // Overlay each request's recovery journey: the first token a
        // pre-crash incarnation produced, and the recovery counters.
        for o in &mut out.outcomes {
            let track = &tracks[o.id];
            if track.first_token_ns.is_finite() {
                o.first_token_ns = track.first_token_ns;
            }
            o.retries = track.retries;
            o.migrations = track.migrations;
        }
        out.fault = core.stats;
        out
    }
}

/// Merges one replica's per-incarnation results (one per crash/restart cycle
/// plus the final drain) into a single [`SimResult`]: outcomes concatenate
/// (sorted by id — at most one completion per request exists fleet-wide),
/// peaks max, counters sum, and the mean occupancy and queue depth are the
/// event-weighted means of the parts.
fn merge_sim_results(mut parts: Vec<SimResult>) -> SimResult {
    assert!(!parts.is_empty(), "a replica always retires one result");
    if parts.len() == 1 {
        return parts.pop().expect("length checked");
    }
    let mut outcomes = Vec::new();
    let mut makespan_ns = 0.0f64;
    let mut telemetry = TelemetryStats::default();
    let mut preemption = PreemptionStats::default();
    let (mut weighted_occupancy, mut weighted_queue) = (0.0, 0.0);
    for part in parts {
        outcomes.extend(part.outcomes);
        makespan_ns = makespan_ns.max(part.makespan_ns);
        let t = part.telemetry;
        telemetry.events += t.events;
        telemetry.peak_queue_depth = telemetry.peak_queue_depth.max(t.peak_queue_depth);
        telemetry.peak_batch_occupancy = telemetry.peak_batch_occupancy.max(t.peak_batch_occupancy);
        weighted_occupancy += t.mean_batch_occupancy * t.events as f64;
        weighted_queue += t.mean_queue_depth * t.events as f64;
        preemption += part.preemption;
    }
    let events = telemetry.events;
    let per_event = |weighted: f64| {
        if events > 0 {
            weighted / events as f64
        } else {
            0.0
        }
    };
    telemetry.mean_batch_occupancy = per_event(weighted_occupancy);
    telemetry.mean_queue_depth = per_event(weighted_queue);
    outcomes.sort_by_key(|o| o.id);
    SimResult {
        outcomes,
        makespan_ns,
        telemetry,
        preemption,
    }
}

/// The prefill→decode handoff path of a disaggregated fleet, whose prefill
/// pool is the fleet's `front`.
struct Handoffs {
    decode: Range<usize>,
    transfer: StateTransferModel,
    /// Link partitions merged into disjoint `[start, heal)` windows.
    link_windows: Vec<(f64, f64)>,
    /// The decode pool's router (its own PCG stream).
    router: Box<dyn Router>,
    /// Decode replica of each request, `u32::MAX` until it hands off.
    assignment: Vec<u32>,
}

impl Handoffs {
    /// The handoff path into `decode`. It merges the plan's link partitions
    /// into disjoint windows, counting and tracing them: a handoff whose
    /// state departs inside a window queues at the link and ships when it
    /// heals.
    fn new(
        core: &mut FleetCore<'_, '_>,
        decode: Range<usize>,
        transfer: StateTransferModel,
        router: Box<dyn Router>,
    ) -> Self {
        let mut raw_windows: Vec<(f64, f64)> = core
            .plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { duration_ns } => Some((e.time_ns, e.time_ns + duration_ns)),
                _ => None,
            })
            .collect();
        core.stats.link_downs = raw_windows.len() as u32;
        raw_windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut link_windows: Vec<(f64, f64)> = Vec::new();
        for (start, heal) in raw_windows {
            match link_windows.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(heal),
                _ => link_windows.push((start, heal)),
            }
        }
        for &(start, heal) in &link_windows {
            core.sink
                .emit(|| TraceEvent::span("linkdown", start, heal - start, 0));
        }
        Self {
            decode,
            transfer,
            link_windows,
            router,
            assignment: vec![u32::MAX; core.trace.len()],
        }
    }

    /// When state completed at `completion_ns` leaves: at once, or when the
    /// link heals if it is partitioned then.
    fn departs_at(&self, completion_ns: f64) -> f64 {
        for &(start, heal) in &self.link_windows {
            if completion_ns < start {
                break;
            }
            if completion_ns < heal {
                return heal;
            }
        }
        completion_ns
    }

    /// What a driver instant `t` does once the prefill pool `front` is
    /// stepped to `t`: pushes its new completions as handoffs and delivers
    /// every handoff earlier than `t`. Those are final: every future prefill
    /// completion happens at or after `t`.
    fn catch_up(&mut self, core: &mut FleetCore<'_, '_>, front: Range<usize>, t: f64) {
        let mut fresh = Vec::new();
        for session in core.pool.sessions[front].iter_mut().flatten() {
            fresh.extend(session.drain_completions());
        }
        fresh.sort_by(|a, b| {
            a.completion_ns
                .total_cmp(&b.completion_ns)
                .then_with(|| a.id.cmp(&b.id))
        });
        // The state ships `transfer_ns(dynamic bytes at prompt+1 context)`
        // after the first token (or after the link heals). Single-token
        // requests never hand off.
        for done in fresh {
            let original = core.trace.requests[done.id];
            if original.output_len > 1 {
                let bytes = core.memory.dynamic_bytes(1, original.prompt_len + 1);
                let at = self.departs_at(done.completion_ns) + self.transfer.transfer_ns(bytes);
                core.agenda.push(at, FleetEv::Handoff(done.id));
            }
        }
        while let Some((at, ev)) = core.agenda.pop_before(t) {
            let FleetEv::Handoff(id) = ev else {
                unreachable!("only handoffs are pushed after the popped event")
            };
            self.deliver(core, id, at);
        }
    }

    /// Delivers request `id`'s handoff at `t`: steps the decode pool to `t`,
    /// routes the remaining decode and injects it fully prefilled — context
    /// prompt+1 (prefill plus first token), `output_len - 1` tokens to go.
    fn deliver(&mut self, core: &mut FleetCore<'_, '_>, id: usize, t: f64) {
        let _delivery = profile_phase("handoff_delivery");
        core.pool.step_until(self.decode.clone(), t);
        let original = core.trace.requests[id];
        let request = TraceRequest {
            arrival_ns: t,
            prompt_len: original.prompt_len + 1,
            output_len: original.output_len - 1,
            ..original
        };
        let choice = self
            .router
            .route(id, &request, core.pool.loads(self.decode.clone()));
        core.sink
            .emit(|| TraceEvent::instant("handoff", t, id as u64).arg("replica", choice as f64));
        core.pool
            .inject(self.decode.start + choice, id, request, true);
        self.assignment[id] = choice as u32;
    }
}

/// The cluster-level simulator for one (system, model) pair.
pub struct FleetSim<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    recorder: Option<Arc<TraceRecorder>>,
    trace_prefix: String,
}

impl<'a> FleetSim<'a> {
    /// A fleet of replicas of `sim` serving `model`. All replicas share the
    /// simulator (and therefore its prefill cache).
    pub fn new(sim: &'a ServingSimulator, model: &'a ModelConfig) -> Self {
        Self {
            sim,
            model,
            recorder: None,
            trace_prefix: String::new(),
        }
    }

    /// Records every run onto `recorder`: driver events (routes, handoffs,
    /// faults, recovery) on a `fleet` track plus one engine-event
    /// track per replica. Write-only — an attached recorder never changes
    /// the simulation output (module docs).
    pub fn with_trace(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Prepends `prefix` to every track name this fleet registers — how a
    /// grid runner sharing one recorder across cells keeps track names
    /// unique (duplicate names would fold together on a JSONL re-parse).
    pub fn with_trace_prefix(mut self, prefix: &str) -> Self {
        self.trace_prefix = prefix.to_string();
        self
    }

    /// The driver-level trace sink (disabled when no recorder is attached).
    fn fleet_sink(&self) -> TraceSink {
        match &self.recorder {
            Some(recorder) => recorder.track(&format!("{}fleet", self.trace_prefix)),
            None => TraceSink::disabled(),
        }
    }

    /// One sink per replica, named `{prefix} {index}` — all disabled when no
    /// recorder is attached.
    fn replica_sinks(&self, prefix: &str, count: usize) -> Vec<TraceSink> {
        match &self.recorder {
            Some(recorder) => (0..count)
                .map(|i| recorder.track(&format!("{}{prefix} {i}", self.trace_prefix)))
                .collect(),
            None => vec![TraceSink::disabled(); count],
        }
    }

    /// Runs `trace` through the fleet: [`FleetSim::run_faulted`] with the
    /// empty plan. Deterministic in `(system, model, trace, config)`; a
    /// single-replica colocated fleet is bit-identical to `Engine::run` on
    /// the same trace.
    pub fn run(&self, trace: &Trace, config: &FleetConfig) -> FleetResult {
        self.simulate(trace, config, &FaultPlan::default())
    }

    /// Runs `trace` through the fleet under a [`FaultPlan`]: scheduled
    /// crashes/restarts/slowdowns (colocated) or slowdowns/link partitions
    /// (disaggregated), with the recovery stack — detection lag, live
    /// migration, bounded retry — layered on top. See the module docs for
    /// the migration-path invariants; an [empty](FaultPlan::is_empty) plan
    /// is [`FleetSim::run`]. Structurally impossible plans return a
    /// [`FaultError`] naming the offending field.
    pub fn run_faulted(
        &self,
        trace: &Trace,
        config: &FleetConfig,
        plan: &FaultPlan,
    ) -> Result<FleetResult, FaultError> {
        let disaggregated = matches!(config.mode, FleetMode::Disaggregated { .. });
        plan.validate(config.mode.replicas(), disaggregated)?;
        Ok(self.simulate(trace, config, plan))
    }

    /// The one event loop (module docs) over a validated plan. Every agenda
    /// event first [advances](Fleet::advance) the fleet to its instant —
    /// unless the fleet free-runs — and then acts: an arrival is placed
    /// over `front`, a handoff is delivered to the decode pool, and
    /// anything else is a fault or recovery step.
    fn simulate(&self, trace: &Trace, config: &FleetConfig, plan: &FaultPlan) -> FleetResult {
        assert!(
            trace
                .requests
                .windows(2)
                .all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "fleet traces must be time-sorted (use Trace::from_requests)"
        );
        let engine = Engine::new(self.sim, self.model, config.engine);
        let (max_seq, max_prompt) = trace.bounds();
        // Migrated requests resume at context `prompt + generated`, which can
        // reach one short of the full sequence — size the hint accordingly.
        let hints = (max_seq + 1, max_prompt);
        let (mut sessions, mut replica_sinks) = (Vec::new(), Vec::new());
        let mut add_pool = |name: &str, count: usize, hints: (usize, usize)| {
            assert!(count > 0, "a pool needs at least one replica");
            let sinks = self.replica_sinks(name, count);
            sessions.extend(Self::sessions(&engine, &sinks, hints));
            replica_sinks.extend(sinks);
        };
        let front = match config.mode {
            FleetMode::Colocated { replicas } => {
                add_pool("replica", replicas, hints);
                0..replicas
            }
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                ..
            } => {
                // Prefill replicas never hold a sequence past prompt+1; decode
                // replicas never prefill (their prompt table hint stays
                // minimal).
                add_pool("prefill", prefill_replicas, (max_prompt + 1, max_prompt));
                add_pool("decode", decode_replicas, (max_seq + 1, 1));
                0..prefill_replicas
            }
        };
        let replicas = sessions.len();
        let mut core = FleetCore {
            pool: Pool::new(sessions, config.policy),
            agenda: Agenda::new(plan),
            plan,
            trace,
            memory: MemoryModel::new(self.sim.config(), self.model),
            stats: FaultStats::default(),
            sink: self.fleet_sink(),
        };
        let handoffs = match config.mode {
            FleetMode::Colocated { .. } => None,
            FleetMode::Disaggregated { transfer, .. } => {
                let router = config.router.build(config.seed, streams::ROUTER_DECODE, 1);
                Some(Handoffs::new(
                    &mut core,
                    front.end..replicas,
                    transfer,
                    router,
                ))
            }
        };
        let free_run = plan.is_empty() && config.router.load_oblivious() && handoffs.is_none();
        let mut fleet = Fleet {
            engine: &engine,
            core,
            front,
            handoffs,
            life: (0..replicas).map(|_| Life::default()).collect(),
            dead: 0,
            router: config.router.build(config.seed, streams::ROUTER_FRONT, 0),
            tracks: trace.requests.iter().map(|_| Track::new()).collect(),
            hold: Vec::new(),
            assignment: vec![u32::MAX; trace.len()],
            hints,
            replica_sinks,
        };
        while let Some((t, ev)) = fleet.core.agenda.pop(trace) {
            if !free_run {
                fleet.advance(t);
            }
            match ev {
                FleetEv::Arrival(id) => fleet.place(id, 0, t),
                FleetEv::Handoff(id) => {
                    let handoffs = fleet
                        .handoffs
                        .as_mut()
                        .expect("only disaggregated fleets hand off");
                    handoffs.deliver(&mut fleet.core, id, t);
                }
                ev => fleet.act(ev, t),
            }
        }
        // Drain `front` and deliver every remaining handoff; `finish` drains
        // the rest.
        fleet.advance(f64::INFINITY);
        fleet.finish()
    }

    /// One session per sink, sized by the sequence and prompt hints.
    fn sessions<'e>(
        engine: &'e Engine<'e>,
        sinks: &[TraceSink],
        (max_seq_hint, max_prompt_hint): (usize, usize),
    ) -> Vec<Session<'e>> {
        sinks
            .iter()
            .map(|sink| {
                let mut session = engine.session(max_seq_hint, max_prompt_hint);
                session.set_trace(sink.clone());
                session
            })
            .collect()
    }
}

/// Assembles a fleet's result from its per-replica results in fleet order
/// (see the module docs on outcome assembly). Request ids are trace
/// indices, so the outcomes come out of their slots ascending in id without
/// a sort.
fn assemble(
    trace: &Trace,
    results: impl Iterator<Item = (ReplicaRole, SimResult)>,
    assignment: Vec<u32>,
    decode_assignment: Vec<u32>,
) -> FleetResult {
    let mut slots: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
    let mut replicas = Vec::new();
    let mut makespan_ns = 0.0f64;
    for (replica, (role, result)) in results.enumerate() {
        for o in &result.outcomes {
            match &mut slots[o.id] {
                Some(slot) => slot.completion_ns = o.completion_ns,
                empty => {
                    let original = trace.requests[o.id];
                    *empty = Some(RequestOutcome {
                        arrival_ns: original.arrival_ns,
                        prompt_len: original.prompt_len,
                        output_len: original.output_len,
                        ..*o
                    });
                }
            }
        }
        makespan_ns = makespan_ns.max(result.makespan_ns);
        replicas.push(ReplicaReport {
            replica,
            role,
            result,
        });
    }
    FleetResult {
        outcomes: slots.into_iter().flatten().collect(),
        replicas,
        assignment,
        decode_assignment,
        makespan_ns,
        fault: FaultStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_serve::traffic::Scenario;
    use pimba_system::config::{SystemConfig, SystemKind};

    fn setup() -> (ServingSimulator, ModelConfig) {
        (
            ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
            ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
        )
    }

    fn small_trace(n: usize) -> Trace {
        Scenario::chat().generate(40.0, n, 99)
    }

    /// The incremental-load micro-fix's property: the load snapshot the pool
    /// maintains in place (refreshed while stepping, bumped on inject) is
    /// equal to a full per-session rebuild of the live replicas at *every*
    /// routing decision, over randomized traces and every shipped policy,
    /// while one replica goes down and restarts mid-trace. Stepping skips the
    /// down replica, whose entry stays frozen. (Debug builds also
    /// cross-check inside every `Pool::loads` call; this pins the property
    /// for release builds and exercises it deliberately.)
    #[test]
    fn incremental_loads_match_rebuilt_at_every_decision() {
        let (sim, model) = setup();
        for (seed, policy) in [
            (11u64, PolicyKind::Continuous),
            (23, PolicyKind::FcfsStatic),
            (37, PolicyKind::ChunkedPrefill { chunk_tokens: 64 }),
        ] {
            let trace = Scenario::summarization().generate(25.0, 50, seed);
            let engine = Engine::new(&sim, &model, EngineConfig::default());
            let (max_seq, max_prompt) = trace.bounds();
            let sinks = vec![TraceSink::disabled(); 3];
            let mut pool = Pool::new(
                FleetSim::sessions(&engine, &sinks, (max_seq, max_prompt)),
                policy,
            );
            let mut router = RouterKind::Jsq.build(seed, streams::ROUTER_FRONT, 0);
            let (down_at, up_at) = (trace.len() / 3, 2 * trace.len() / 3);
            let mut frozen = None;
            for (id, request) in trace.requests.iter().enumerate() {
                pool.step_until(0..3, request.arrival_ns);
                assert!(pool.loads_are_exact(), "post-step, id {id}");
                if let Some(load) = frozen {
                    assert_eq!(pool.loads[1], load, "stepping skips the down replica");
                }
                if id == down_at {
                    let session = pool.take_down(1).expect("replica 1 is live");
                    assert_eq!(pool.loads[1], session_load(&session));
                    frozen = Some(pool.loads[1]);
                } else if id == up_at {
                    pool.bring_up(1, engine.session(max_seq, max_prompt));
                    assert_eq!(pool.loads[1], IDLE_LOAD);
                    frozen = None;
                }
                let live: Vec<usize> = (0..3).filter(|&i| pool.sessions[i].is_some()).collect();
                let loads: Vec<ReplicaLoad> = live.iter().map(|&i| pool.loads(0..3)[i]).collect();
                let choice = live[router.route(id, request, &loads)];
                pool.inject(choice, id, *request, false);
                assert!(pool.loads_are_exact(), "post-inject, id {id}");
            }
            pool.step_until(0..3, f64::INFINITY);
            assert!(pool.loads_are_exact(), "drained");
        }
    }

    #[test]
    fn colocated_fleet_conserves_requests() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        for router in RouterKind::ALL {
            let config = FleetConfig {
                router,
                ..FleetConfig::colocated(4)
            };
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            assert_eq!(result.outcomes.len(), trace.len(), "{}", router.name());
            for (id, o) in result.outcomes.iter().enumerate() {
                assert_eq!(o.id, id);
                assert!(o.first_token_ns > o.arrival_ns);
                assert!(o.completion_ns >= o.first_token_ns);
            }
            let per_replica: usize = result.per_replica_completed().iter().sum();
            assert_eq!(per_replica, trace.len());
            assert_eq!(result.assignment.len(), trace.len());
        }
    }

    #[test]
    fn disaggregated_fleet_conserves_requests_and_orders_stages() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let result = FleetSim::new(&sim, &model).run(&trace, &config);
        assert_eq!(result.outcomes.len(), trace.len());
        for (id, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.id, id);
            assert!(o.first_token_ns > o.arrival_ns, "ttft after arrival");
            assert!(
                o.completion_ns >= o.first_token_ns,
                "decode stage after prefill stage"
            );
            // Multi-token requests must have handed off.
            if o.output_len > 1 {
                assert_ne!(result.decode_assignment[id], u32::MAX);
            }
        }
        assert_eq!(result.replicas.len(), 4);
        assert_eq!(result.replicas[0].role, ReplicaRole::Prefill);
        assert_eq!(result.replicas[3].role, ReplicaRole::Decode);
        // Every multi-token request shows up in exactly one decode replica.
        let decode_served: usize = result.replicas[2..]
            .iter()
            .map(ReplicaReport::completed)
            .sum();
        let multi = trace.requests.iter().filter(|r| r.output_len > 1).count();
        assert_eq!(decode_served, multi);
    }

    #[test]
    fn load_aware_routing_beats_round_robin_on_tail_ttft() {
        let (sim, model) = setup();
        // High-variance reasoning traffic under an SLO-constrained batch cap
        // is where load-aware routing pays: round-robin parks long requests
        // behind each other while an idle replica sits elsewhere.
        let trace = Scenario::reasoning().generate(24.0, 80, 7);
        let p99_ttft = |router: RouterKind| {
            let mut config = FleetConfig::colocated(4);
            config.router = router;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let result = FleetSim::new(&sim, &model).run(&trace, &config);
            result
                .summary(&pimba_serve::metrics::SloSpec::default())
                .ttft_ms
                .p99
        };
        let rr = p99_ttft(RouterKind::RoundRobin);
        assert!(
            p99_ttft(RouterKind::Jsq) < rr,
            "jsq p99 TTFT must beat round-robin's {rr}"
        );
        assert!(
            p99_ttft(RouterKind::PowerOfTwo) < rr,
            "po2 p99 TTFT must beat round-robin's {rr}"
        );
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_run() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        let plan = FaultPlan::default();
        for router in RouterKind::ALL {
            let config = FleetConfig {
                router,
                ..FleetConfig::colocated(4)
            };
            let fleet = FleetSim::new(&sim, &model);
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert_eq!(baseline, faulted, "{}", router.name());
        }
    }

    #[test]
    fn run_faulted_rejects_invalid_plans_with_field_names() {
        let (sim, model) = setup();
        let trace = small_trace(10);
        let fleet = FleetSim::new(&sim, &model);
        let plan = FaultPlan::default().crash(0.0, 9);
        let err = fleet
            .run_faulted(&trace, &FleetConfig::colocated(4), &plan)
            .expect_err("out-of-range replica must be rejected");
        assert_eq!(err.field, "events[0].replica");
        let plan = FaultPlan::default().crash(0.0, 0);
        let dis = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let err = fleet
            .run_faulted(&trace, &dis, &plan)
            .expect_err("crashes are colocated-only");
        assert_eq!(err.field, "events[0].kind");
    }

    #[test]
    fn faulted_runs_are_bit_identical_across_repeats() {
        let (sim, model) = setup();
        let trace = small_trace(60);
        let plan = FaultPlan::default()
            .crash(0.25e9, 1)
            .restart(0.45e9, 1)
            .slowdown(0.1e9, 2, 3.0, 0.2e9);
        let fleet = FleetSim::new(&sim, &model);
        let config = FleetConfig {
            router: RouterKind::PowerOfTwo,
            ..FleetConfig::colocated(4)
        };
        let first = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        for _ in 0..3 {
            assert_eq!(
                first,
                fleet.run_faulted(&trace, &config, &plan).expect("valid")
            );
        }
    }

    #[test]
    fn kill_and_migrate_conserves_requests_and_counts_recoveries() {
        let (sim, model) = setup();
        let trace = small_trace(80);
        let plan = FaultPlan::kill_storm(4, 2, 0.2e9, 0.4e9, 0.15e9);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(4)
        };
        let result = FleetSim::new(&sim, &model)
            .run_faulted(&trace, &config, &plan)
            .expect("valid plan");
        assert_eq!(result.fault.crashes, 2);
        assert_eq!(result.fault.restarts, 2);
        assert!(
            result.fault.migrations + result.fault.retries > 0,
            "a kill storm mid-trace must disturb at least one request"
        );
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len(),
            "every request either completes or is counted lost"
        );
        for o in &result.outcomes {
            let original = trace.requests[o.id];
            assert_eq!(o.prompt_len, original.prompt_len);
            assert_eq!(o.output_len, original.output_len);
            assert_eq!(o.arrival_ns, original.arrival_ns);
            assert!(o.first_token_ns > o.arrival_ns);
            assert!(o.completion_ns >= o.first_token_ns);
            if o.migrations > 0 {
                assert!(result.fault.migrated_bytes > 0.0);
            }
        }
        let recovered: u32 = result.outcomes.iter().map(|o| o.migrations).sum();
        assert_eq!(recovered, result.fault.migrations);
    }

    #[test]
    fn migration_preserves_progress_that_retry_only_redoes() {
        let (sim, model) = setup();
        let trace = small_trace(80);
        let plan = FaultPlan::kill_storm(4, 2, 0.2e9, 0.4e9, 0.15e9);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let run = |recovery: RecoveryPolicy| {
            let plan = FaultPlan {
                recovery,
                ..plan.clone()
            };
            fleet.run_faulted(&trace, &config, &plan).expect("valid")
        };
        let migrate = run(RecoveryPolicy::Migrate);
        let retry = run(RecoveryPolicy::RetryOnly);
        let none = run(RecoveryPolicy::None);
        assert_eq!(retry.fault.migrations, 0);
        assert_eq!(none.fault.migrations + none.fault.retries, 0);
        assert!(
            none.fault.lost > 0,
            "no-recovery must lose the dropped requests"
        );
        assert_eq!(none.outcomes.len() + none.fault.lost as usize, trace.len());
        // Migration resumes mid-stream: every migrated request restarts
        // decode from its checkpoint, so its completion can only be earlier
        // than the from-scratch retry of the same request.
        if migrate.fault.migrations > 0 && retry.fault.retries > 0 {
            let mean = |r: &FleetResult| {
                r.outcomes
                    .iter()
                    .map(|o| o.completion_ns - o.arrival_ns)
                    .sum::<f64>()
                    / r.outcomes.len() as f64
            };
            assert!(
                mean(&migrate) <= mean(&retry),
                "migration must not be slower end-to-end than redoing work"
            );
        }
    }

    #[test]
    fn slowdown_stretches_the_colocated_makespan() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig::colocated(2);
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        let plan = FaultPlan::default()
            .slowdown(0.0, 0, 8.0, 5.0e9)
            .slowdown(0.0, 1, 8.0, 5.0e9);
        let slowed = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(slowed.fault.slowdowns, 2);
        assert_eq!(slowed.outcomes.len(), trace.len());
        assert!(
            slowed.makespan_ns > baseline.makespan_ns,
            "an 8x slowdown across the fleet must stretch the makespan"
        );
    }

    #[test]
    fn queue_timeouts_retry_and_bound_attempts() {
        let (sim, model) = setup();
        // One slow replica, a burst of arrivals, and a timeout shorter than
        // the queue wait: late requests must churn through retries.
        let trace = Scenario::chat().generate(400.0, 60, 99);
        let config = FleetConfig {
            router: RouterKind::RoundRobin,
            ..FleetConfig::colocated(2)
        };
        let plan = FaultPlan {
            retry: RetryPolicy {
                timeout_ns: 2.0e6,
                max_attempts: 2,
                base_backoff_ns: 1.0e6,
                max_backoff_ns: 8.0e6,
                jitter_ns: 0.5e6,
            },
            recovery: RecoveryPolicy::RetryOnly,
            ..FaultPlan::default()
        }
        .slowdown(0.0, 0, 50.0, 10.0e9)
        .slowdown(0.0, 1, 50.0, 10.0e9);
        let result = FleetSim::new(&sim, &model)
            .run_faulted(&trace, &config, &plan)
            .expect("valid");
        assert!(result.fault.timeouts > 0, "timeouts must fire");
        assert_eq!(
            result.fault.timeouts,
            result.fault.retries + result.fault.lost
        );
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len()
        );
        for o in &result.outcomes {
            assert!(o.retries <= plan.retry.max_attempts);
        }
    }

    #[test]
    fn disaggregated_link_partition_delays_handoffs() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        let plan = FaultPlan::default().link_down(0.0, 2.0e9);
        let result = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(result.fault.link_downs, 1);
        assert_eq!(result.outcomes.len(), trace.len());
        // Every handoff departing during the partition queues until it
        // heals: no decode can finish meaningfully before the window ends.
        assert!(
            result.makespan_ns > baseline.makespan_ns,
            "a 2s partition must delay the fleet"
        );
        let min_completion = result
            .outcomes
            .iter()
            .filter(|o| o.output_len > 1)
            .map(|o| o.completion_ns)
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_completion > 2.0e9,
            "multi-token completions ride the healed link (got {min_completion})"
        );
    }

    #[test]
    fn disaggregated_slowdowns_are_deterministic_and_stretch_decode() {
        let (sim, model) = setup();
        let trace = small_trace(40);
        let config = FleetConfig {
            mode: FleetMode::Disaggregated {
                prefill_replicas: 2,
                decode_replicas: 2,
                transfer: StateTransferModel::nvlink(),
            },
            ..FleetConfig::colocated(4)
        };
        let fleet = FleetSim::new(&sim, &model);
        let baseline = fleet.run(&trace, &config);
        // Slow both decode replicas (indices 2 and 3 in fleet order).
        let plan = FaultPlan::default()
            .slowdown(0.0, 2, 10.0, 10.0e9)
            .slowdown(0.0, 3, 10.0, 10.0e9);
        let a = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        let b = fleet.run_faulted(&trace, &config, &plan).expect("valid");
        assert_eq!(a, b, "faulted disaggregated runs are bit-reproducible");
        assert_eq!(a.fault.slowdowns, 2);
        assert!(a.makespan_ns > baseline.makespan_ns);
    }
}
