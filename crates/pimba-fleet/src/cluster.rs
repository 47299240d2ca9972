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
//! arrival-time order (completion windows between trace arrivals guarantee no
//! earlier handoff can appear later), so the co-simulation stays
//! deterministic for any worker-thread count of the grid runner above it.
//!
//! # One event loop per topology
//!
//! A fleet runs on exactly two drivers, one per topology, and both take a
//! [`FaultPlan`]: [`FleetSim::run`] is [`FleetSim::run_faulted`] with the
//! empty plan. The colocated loop walks the trace with an arrival cursor
//! merged against one heap of fault and recovery events; the disaggregated
//! loop merges the cursor against the plan's slowdown windows, with
//! prefill→decode handoffs on their own heap. An empty plan schedules no
//! events, so the fault-free fleet is the faulted fleet with nothing to
//! interrupt it — byte-identical by construction.
//!
//! **Decoupled free-run.** When the router is
//! [load-oblivious](RouterKind::load_oblivious) and nothing needs mid-trace
//! fleet state — an empty plan and no checkpoint store — the colocated loop
//! skips the per-arrival `step_until`: it routes and injects every arrival
//! up front (the policy never reads the loads) and the final drain steps each
//! replica to ∞ once. Replica state is insensitive to *foreign* horizons
//! (stepping to an instant with nothing to inject is a bit-level no-op), so
//! dropping the other replicas' arrival horizons leaves every replica's
//! result untouched — gated free-run ≡ stepped in
//! `tests/parallel_equivalence.rs`.
//!
//! Fleets run on the calling thread; grids get their parallelism across
//! cells instead (`pimba_system::sweep::parallel_map`). Intra-fleet parallel
//! execution does not pay at this event granularity: a conservative window
//! is one inter-arrival gap long, so workers spend their time at barriers,
//! and optimistic speculation rolls back too often to win it back (measured
//! 3.5–100× slower than this loop on JSQ/po2 fleets).
//!
//! # Routed-prefix checkpoints (cross-cell sub-run reuse)
//!
//! [`FleetSim::run_checkpointed`] is the colocated loop with a
//! content-addressed checkpoint store hooked at arrival boundaries: every
//! `every` arrivals (and at the trace end) it snapshots the whole fleet —
//! per-replica sessions and schedulers, the router, the assignment prefix —
//! into a [`FleetCheckpoint`] keyed by the *routed prefix's* complete input
//! identity: system, model, fleet mode, router, policy, engine config, seed,
//! and the first `p` trace requests folded exactly as a standalone trace of
//! length `p` ([`fold_trace_prefix`]). A later cell whose trace shares that
//! prefix — e.g. the same grid swept at a larger `requests_per_cell`, or a
//! what-if whose config diverges only mid-trace — restores the longest
//! stored checkpoint and simulates only the tail, byte-identical to a cold
//! run (the engine's snapshot determinism gate plus scheduler/router forks
//! carrying plain state). Checkpoints live in memory only — they are
//! execution accelerators, not results, and are deliberately not persisted
//! by the disk-backed memos.
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
//! * **Recovered outcomes are trace-native.** After assembly, a migrated or
//!   retried request's outcome is patched back to its original arrival,
//!   prompt and output lengths — TTFT keeps the instant the *first* token
//!   was actually produced (pre-crash for migrations) — with
//!   `retries`/`migrations` counters recording the journey, so SLO math
//!   charges recovery delay honestly.
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
use pimba_serve::engine::{DroppedRequest, Engine, EngineConfig, Session, SessionSnapshot};
use pimba_serve::metrics::{PreemptionStats, RequestOutcome, SimResult, TelemetryStats};
use pimba_serve::runner::fold_trace_prefix;
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Trace, TraceRequest};
use pimba_system::memo::{FingerprintBuilder, MemoStore};
use pimba_system::memory::MemoryModel;
use pimba_system::obs::{profile_phase, MetricsHub, TraceEvent, TraceRecorder, TraceSink};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

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
    /// fast-forward, timeline decimation).
    pub engine: EngineConfig,
    /// Seed of the router's sampling substreams.
    pub seed: u64,
    /// Ignored: every fleet runs its topology's sequential event loop (see
    /// the module docs). Kept only so existing struct literals compile;
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

/// One pool of a disaggregated fleet: replica sessions advancing together.
struct Pool<'a> {
    sessions: Vec<Session<'a>>,
    schedulers: Vec<Box<dyn Scheduler>>,
    loads: Vec<ReplicaLoad>,
}

impl<'a> Pool<'a> {
    fn new(
        engine: &'a Engine<'a>,
        replicas: usize,
        policy: PolicyKind,
        max_seq_hint: usize,
        max_prompt_hint: usize,
    ) -> Self {
        assert!(replicas > 0, "a pool needs at least one replica");
        Self {
            sessions: (0..replicas)
                .map(|_| engine.session(max_seq_hint, max_prompt_hint))
                .collect(),
            schedulers: (0..replicas).map(|_| policy.build()).collect(),
            loads: vec![IDLE_LOAD; replicas],
        }
    }

    /// Attaches one trace sink per replica session (write-only — see the
    /// module docs' no-perturbation invariant).
    fn attach_traces(&mut self, sinks: Vec<TraceSink>) {
        for (session, sink) in self.sessions.iter_mut().zip(sinks) {
            session.set_trace(sink);
        }
    }

    /// Advances every replica through its events strictly before `t`,
    /// refreshing its load entry as part of the same pass (stepping is the
    /// only operation that can change `queue_depth`/`occupancy` or complete
    /// requests, so the snapshot stays exact between steps).
    fn step_until(&mut self, t: f64) {
        let _stepping = profile_phase("stepping");
        for ((session, scheduler), load) in self
            .sessions
            .iter_mut()
            .zip(self.schedulers.iter_mut())
            .zip(self.loads.iter_mut())
        {
            session.step_until(t, scheduler.as_mut());
            *load = session_load(session);
        }
    }

    /// Injects one arrival into `replica`, updating its load entry in place:
    /// `outstanding` grows by exactly one, and nothing else changes (the
    /// arrival event is pending, so it is neither queued nor batched yet).
    fn inject(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.sessions[replica].inject(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// [`Pool::inject`] for a fully prefilled arrival (the decode side of a
    /// disaggregated handoff) — same incremental load bump.
    fn inject_prefilled(&mut self, replica: usize, id: usize, request: TraceRequest) {
        self.sessions[replica].inject_prefilled(id, request);
        self.loads[replica].outstanding += 1;
    }

    /// The per-replica load snapshot, maintained *incrementally*: refreshed
    /// replica-by-replica while stepping and bumped on injection, instead of
    /// rebuilt from every session at every routing decision. In debug builds
    /// every read cross-checks against a full rebuild; the property test in
    /// this module pins the equivalence on randomized traces.
    fn loads(&self) -> &[ReplicaLoad] {
        debug_assert_eq!(
            self.loads,
            self.rebuilt_loads(),
            "incremental load snapshot diverged from a rebuild"
        );
        &self.loads
    }

    /// Rebuilds the load snapshot from the sessions — the reference the
    /// incremental snapshot is asserted against.
    fn rebuilt_loads(&self) -> Vec<ReplicaLoad> {
        self.sessions.iter().map(session_load).collect()
    }

    /// Drains every replica to completion and returns the per-replica results.
    fn finish(mut self) -> Vec<SimResult> {
        self.step_until(f64::INFINITY);
        self.sessions.into_iter().map(Session::finish).collect()
    }
}

/// An idle load snapshot — a fresh replica's load.
const IDLE_LOAD: ReplicaLoad = ReplicaLoad {
    outstanding: 0,
    queue_depth: 0,
    occupancy: 0,
};

/// A routed-prefix checkpoint: the whole colocated fleet's state after
/// routing and injecting the first `p` trace arrivals, with every replica
/// stepped strictly before the `p`-th arrival instant — a pure function of
/// the prefix and the cell's semantic config, which is exactly what its
/// content address covers (see the module docs). Stored in
/// [`FleetMemo`](crate::memo::FleetMemo)'s in-memory checkpoint store;
/// restoring one and simulating the tail is byte-identical to a cold run.
pub struct FleetCheckpoint {
    /// Per-replica `(session, scheduler)` state. Schedulers sit behind a
    /// mutex only to make the stored trait object shareable; restores fork
    /// the state out and never mutate the stored copy.
    replicas: Vec<(SessionSnapshot, Mutex<Box<dyn Scheduler>>)>,
    /// Router state after the prefix's route decisions (entropy stream
    /// position included).
    router: Mutex<Box<dyn Router>>,
    /// The prefix's replica assignment.
    assignment: Vec<u32>,
}

impl std::fmt::Debug for FleetCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCheckpoint")
            .field("replicas", &self.replicas.len())
            .field("routed_prefix", &self.assignment.len())
            .finish_non_exhaustive()
    }
}

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

/// A pending prefill→decode handoff of trace request `ev`, sequenced in
/// completion order.
type Handoff = Timed<usize>;

/// One heap event of the colocated loop (trace arrivals come off a cursor).
enum FleetEv {
    /// `plan.events[index]` fires.
    Fault(usize),
    /// The failure detector notices `replica`'s crash — stale if the replica
    /// restarted (new incarnation) or was already handled.
    Detect { replica: usize, incarnation: u32 },
    /// A slowdown window on `replica` ends — stale unless `token` still names
    /// the latest scale change.
    SlowEnd { replica: usize, token: u64 },
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

/// One replica of the colocated loop.
struct ColocatedReplica<'a> {
    /// The live incarnation's session; `None` while the replica is down.
    session: Option<Session<'a>>,
    scheduler: Box<dyn Scheduler>,
    /// A dead replica stays *visible* to the router until detected.
    detected: bool,
    /// Bumped on every restart; stamps detection events so a detector racing
    /// a restart can't re-recover the new incarnation.
    incarnation: u32,
    /// Latest compute-scale change; stale `SlowEnd` events don't reset.
    slow_token: u64,
    /// Load snapshot frozen at crash time — what the router sees while the
    /// replica is an undetected zombie.
    frozen: ReplicaLoad,
    /// In-flight requests dropped by the crash, awaiting detection.
    dropped: Vec<DroppedRequest>,
    /// Requests routed into the zombie window, awaiting detection.
    black_holed: Vec<usize>,
    /// Finished results of previous incarnations.
    retired: Vec<SimResult>,
}

impl ColocatedReplica<'_> {
    /// Live replicas and undetected zombies are routable.
    fn visible(&self) -> bool {
        self.session.is_some() || !self.detected
    }
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
    /// Whether the outcome needs trace-native patching at assembly.
    touched: bool,
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
            touched: false,
        }
    }
}

/// The colocated loop's mutable world: replicas, request tracks, the event
/// heap, and the recovery counters.
struct ColocatedFleet<'a, 'p> {
    engine: &'a Engine<'a>,
    replicas: Vec<ColocatedReplica<'a>>,
    /// Load of every live replica, refreshed while stepping and bumped on
    /// injection (entries of dead replicas are stale until restart).
    loads: Vec<ReplicaLoad>,
    /// Replicas currently down; while zero the router reads `loads` as is.
    dead: usize,
    router: Box<dyn Router>,
    tracks: Vec<Track>,
    stats: FaultStats,
    /// Requests with no visible replica to route to, flushed at the next
    /// restart: `(id, attempt, generated)`.
    hold: Vec<(usize, u32, usize)>,
    assignment: Vec<u32>,
    heap: BinaryHeap<Timed<FleetEv>>,
    seq: u64,
    plan: &'p FaultPlan,
    trace: &'p Trace,
    memory: MemoryModel<'a>,
    policy: PolicyKind,
    max_seq_hint: usize,
    max_prompt_hint: usize,
    /// The fleet-level trace track (route/fault/recovery events).
    sink: TraceSink,
    /// Per-replica tracks, reattached to the fresh session on restart.
    replica_sinks: Vec<TraceSink>,
}

impl<'a, 'p> ColocatedFleet<'a, 'p> {
    fn push(&mut self, time_ns: f64, ev: FleetEv) {
        self.heap.push(Timed {
            time_ns,
            seq: self.seq,
            ev,
        });
        self.seq += 1;
    }

    fn load_of(&self, index: usize) -> ReplicaLoad {
        let r = &self.replicas[index];
        match r.session {
            Some(_) => self.loads[index],
            None => r.frozen,
        }
    }

    /// Advances every live replica through its events strictly before `t`,
    /// refreshing its load entry in the same pass.
    fn step_live(&mut self, t: f64) {
        let _stepping = profile_phase("stepping");
        for (r, load) in self.replicas.iter_mut().zip(self.loads.iter_mut()) {
            if let Some(session) = r.session.as_mut() {
                session.step_until(t, r.scheduler.as_mut());
                *load = session_load(session);
            }
        }
    }

    /// Routes request `id` (resuming with `generated` tokens of context) at
    /// time `t`. Requests routed into an undetected zombie black-hole until
    /// the detector fires; with every replica dead *and* detected, the
    /// request holds at the front door until a restart.
    fn place(&mut self, id: usize, generated: usize, t: f64) {
        debug_assert!(
            self.replicas
                .iter()
                .zip(&self.loads)
                .all(|(r, load)| r.session.as_ref().is_none_or(|s| session_load(s) == *load)),
            "incremental load snapshot diverged from the sessions"
        );
        let original = self.trace.requests[id];
        let request = TraceRequest {
            arrival_ns: t,
            prompt_len: original.prompt_len + generated,
            output_len: original.output_len - generated,
            ..original
        };
        let target = if self.dead == 0 {
            // Every replica is live, hence visible: route on the loads as is.
            let choice = {
                let _routing = profile_phase("routing");
                self.router.route(id, &request, &self.loads)
            };
            assert!(
                choice < self.loads.len(),
                "router returned replica {choice}"
            );
            choice
        } else {
            let visible: Vec<usize> = (0..self.replicas.len())
                .filter(|&i| self.replicas[i].visible())
                .collect();
            if visible.is_empty() {
                let attempt = self.tracks[id].attempt;
                self.hold.push((id, attempt, generated));
                return;
            }
            let loads: Vec<ReplicaLoad> = visible.iter().map(|&i| self.load_of(i)).collect();
            let choice = {
                let _routing = profile_phase("routing");
                self.router.route(id, &request, &loads)
            };
            assert!(choice < visible.len(), "router returned replica {choice}");
            visible[choice]
        };
        self.sink.emit(|| {
            TraceEvent::instant("route", t, id as u64)
                .arg("replica", target as f64)
                .arg("attempt", self.tracks[id].attempt as f64)
        });
        if self.assignment[id] == u32::MAX {
            self.assignment[id] = target as u32;
        }
        self.tracks[id].location = Some(target);
        let r = &mut self.replicas[target];
        let Some(session) = r.session.as_mut() else {
            // Zombie window: the request (and any shipped state) vanishes
            // until the failure detector fires; its frozen load grows so
            // load-aware routers steer away from the pile-up.
            r.black_holed.push(id);
            r.frozen.outstanding += 1;
            r.frozen.queue_depth += 1;
            self.stats.black_holed += 1;
            self.sink.emit(|| {
                TraceEvent::instant("blackhole", t, id as u64).arg("replica", target as f64)
            });
            return;
        };
        if generated > 0 {
            session.inject_prefilled(id, request);
        } else {
            session.inject(id, request);
        }
        self.loads[target].outstanding += 1;
        self.tracks[id].resumed_generated = generated;
        if self.plan.retry.timeout_ns > 0.0 {
            let attempt = self.tracks[id].attempt;
            self.push(
                t + self.plan.retry.timeout_ns,
                FleetEv::TimeoutCheck { id, attempt },
            );
        }
    }

    /// Consumes one retry attempt for `id` (or marks it lost), scheduling the
    /// re-entry after backoff + deterministic jitter.
    fn retry_or_lose(&mut self, id: usize, t: f64) {
        let next = self.tracks[id].attempt + 1;
        if self.plan.recovery == RecoveryPolicy::None || next > self.plan.retry.max_attempts {
            self.tracks[id].lost = true;
            self.tracks[id].touched = true;
            self.stats.lost += 1;
            self.sink.emit(|| TraceEvent::instant("lost", t, id as u64));
            return;
        }
        let track = &mut self.tracks[id];
        track.attempt = next;
        track.retries += 1;
        track.touched = true;
        track.resumed_generated = 0;
        track.first_token_ns = f64::NAN;
        self.stats.retries += 1;
        let at = t + self.plan.retry.backoff_ns(self.plan.seed, id, next);
        self.sink
            .emit(|| TraceEvent::span("retry", t, at - t, id as u64).arg("attempt", next as f64));
        self.push(
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
        let original = self.trace.requests[id];
        if self.plan.recovery == RecoveryPolicy::Migrate
            && cumulative >= 1
            && cumulative < original.output_len
        {
            let track = &mut self.tracks[id];
            track.migrations += 1;
            track.touched = true;
            if !track.first_token_ns.is_finite() && first_token_ns.is_finite() {
                track.first_token_ns = first_token_ns;
            }
            let attempt = track.attempt;
            self.stats.migrations += 1;
            let bytes = self
                .memory
                .dynamic_bytes(1, original.prompt_len + cumulative);
            self.stats.migrated_bytes += bytes;
            let at = t + self.plan.migration_link.transfer_ns(bytes);
            self.sink.emit(|| {
                TraceEvent::span("migrate", t, at - t, id as u64)
                    .arg("bytes", bytes)
                    .arg("generated", cumulative as f64)
            });
            self.push(
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
        let r = &mut self.replicas[victim];
        let Some(mut session) = r.session.take() else {
            return;
        };
        self.stats.crashes += 1;
        self.dead += 1;
        r.detected = false;
        r.slow_token += 1;
        r.frozen = session_load(&session);
        r.dropped = session.crash_drop();
        r.retired.push(session.finish());
        for d in &r.dropped {
            self.tracks[d.id].location = None;
        }
        let (incarnation, dropped) = (r.incarnation, r.dropped.len());
        self.sink.emit(|| {
            TraceEvent::instant("crash", t, victim as u64)
                .arg("replica", victim as f64)
                .arg("dropped", dropped as f64)
        });
        self.push(
            t + self.plan.detection_latency_ns,
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
        let dropped = std::mem::take(&mut self.replicas[replica].dropped);
        let black = std::mem::take(&mut self.replicas[replica].black_holed);
        self.sink.emit(|| {
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
        if self.replicas[replica].session.is_some() {
            return;
        }
        if !self.replicas[replica].detected {
            // The replacement raced the detector: the fleet learns of the
            // loss now, so recovery triggers here.
            self.replicas[replica].detected = true;
            self.recover(replica, t);
        }
        self.stats.restarts += 1;
        self.dead -= 1;
        self.sink.emit(|| {
            TraceEvent::instant("restart", t, replica as u64).arg("replica", replica as f64)
        });
        let mut session = self.engine.session(self.max_seq_hint, self.max_prompt_hint);
        session.set_trace(self.replica_sinks[replica].clone());
        let r = &mut self.replicas[replica];
        r.detected = false;
        r.incarnation += 1;
        r.slow_token += 1;
        r.session = Some(session);
        r.scheduler = self.policy.build();
        self.loads[replica] = IDLE_LOAD;
        let held = std::mem::take(&mut self.hold);
        for (id, attempt, generated) in held {
            self.push(
                t,
                FleetEv::Resume {
                    id,
                    attempt,
                    generated,
                },
            );
        }
    }

    fn apply_fault(&mut self, index: usize, t: f64) {
        match self.plan.events[index].kind {
            FaultKind::Crash { replica } => self.crash(replica, t),
            FaultKind::Restart { replica } => self.restart(replica, t),
            FaultKind::Slowdown {
                replica,
                factor,
                duration_ns,
            } => {
                let r = &mut self.replicas[replica];
                let Some(session) = r.session.as_mut() else {
                    return;
                };
                session.set_compute_scale(factor);
                r.slow_token += 1;
                let token = r.slow_token;
                self.stats.slowdowns += 1;
                self.sink.emit(|| {
                    TraceEvent::span("slowdown", t, duration_ns, replica as u64)
                        .arg("replica", replica as f64)
                        .arg("factor", factor)
                });
                self.push(t + duration_ns, FleetEv::SlowEnd { replica, token });
            }
            FaultKind::LinkDown { .. } => {
                unreachable!("validated: colocated plans carry no link faults")
            }
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
        let Some(session) = self.replicas[location].session.as_mut() else {
            return;
        };
        if !session.cancel_queued(id) {
            return; // admitted (or finished) before the deadline
        }
        self.loads[location] = session_load(session);
        self.stats.timeouts += 1;
        self.sink
            .emit(|| TraceEvent::instant("timeout", t, id as u64).arg("replica", location as f64));
        self.tracks[id].location = None;
        // Timed-out requests always take the retry path: they made no
        // progress while queued, and bounding attempts keeps the driver
        // finite even under Migrate.
        self.retry_or_lose(id, t);
    }

    /// Snapshots the whole fleet after routing the first `prefix` arrivals
    /// into a routed-prefix checkpoint (fault-free fleets only).
    fn checkpoint(&self, prefix: usize) -> FleetCheckpoint {
        let _clone = profile_phase("snapshot_clone");
        FleetCheckpoint {
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    let session = r.session.as_ref().expect("checkpointed fleets never crash");
                    (session.snapshot(), Mutex::new(r.scheduler.fork()))
                })
                .collect(),
            router: Mutex::new(self.router.fork()),
            assignment: self.assignment[..prefix].to_vec(),
        }
    }

    /// Restores a routed-prefix checkpoint into a fresh fleet.
    fn restore(&mut self, checkpoint: &FleetCheckpoint) {
        let _restore = profile_phase("snapshot_clone");
        assert_eq!(
            checkpoint.replicas.len(),
            self.replicas.len(),
            "checkpoint key covers replicas"
        );
        for ((r, load), (snapshot, scheduler)) in self
            .replicas
            .iter_mut()
            .zip(self.loads.iter_mut())
            .zip(&checkpoint.replicas)
        {
            let session = r.session.as_mut().expect("fresh replicas are live");
            session.restore(snapshot);
            *load = session_load(session);
            r.scheduler = scheduler
                .lock()
                .expect("checkpoint scheduler poisoned")
                .fork();
        }
        self.router = checkpoint
            .router
            .lock()
            .expect("checkpoint router poisoned")
            .fork();
        self.assignment[..checkpoint.assignment.len()].copy_from_slice(&checkpoint.assignment);
    }
}

/// Merges one replica's per-incarnation results (one per crash/restart cycle
/// plus the final drain) into a single [`SimResult`]: outcomes concatenate
/// (sorted by id — at most one completion per request exists fleet-wide),
/// timelines concatenate in time order, peaks max, counters sum, and the mean
/// occupancy is the event-weighted mean of the parts.
fn merge_sim_results(mut parts: Vec<SimResult>) -> SimResult {
    assert!(!parts.is_empty(), "a replica always retires one result");
    if parts.len() == 1 {
        return parts.pop().expect("length checked");
    }
    let mut outcomes = Vec::new();
    let mut timeline = Vec::new();
    let mut makespan_ns = 0.0f64;
    let mut telemetry = TelemetryStats::default();
    let mut preemption = PreemptionStats::default();
    let mut weighted_occupancy = 0.0;
    for part in parts {
        outcomes.extend(part.outcomes);
        timeline.extend(part.timeline);
        makespan_ns = makespan_ns.max(part.makespan_ns);
        let t = part.telemetry;
        telemetry.events += t.events;
        telemetry.peak_queue_depth = telemetry.peak_queue_depth.max(t.peak_queue_depth);
        telemetry.peak_batch_occupancy = telemetry.peak_batch_occupancy.max(t.peak_batch_occupancy);
        weighted_occupancy += t.mean_batch_occupancy * t.events as f64;
        let p = part.preemption;
        preemption.evictions += p.evictions;
        preemption.resumes += p.resumes;
        preemption.checkpoint_bytes += p.checkpoint_bytes;
        preemption.restore_bytes += p.restore_bytes;
        preemption.checkpoint_stall_ns += p.checkpoint_stall_ns;
        preemption.restore_stall_ns += p.restore_stall_ns;
    }
    telemetry.mean_batch_occupancy = if telemetry.events > 0 {
        weighted_occupancy / telemetry.events as f64
    } else {
        0.0
    };
    outcomes.sort_by_key(|o| o.id);
    SimResult {
        outcomes,
        timeline,
        makespan_ns,
        telemetry,
        preemption,
    }
}

/// The cluster-level simulator for one (system, model) pair.
pub struct FleetSim<'a> {
    sim: &'a ServingSimulator,
    model: &'a ModelConfig,
    recorder: Option<Arc<TraceRecorder>>,
    trace_prefix: String,
    metrics: MetricsHub,
}

impl<'a> FleetSim<'a> {
    /// A fleet of replicas of `sim` serving `model`. All replicas share the
    /// simulator (and therefore its shape-keyed latency cache).
    pub fn new(sim: &'a ServingSimulator, model: &'a ModelConfig) -> Self {
        Self {
            sim,
            model,
            recorder: None,
            trace_prefix: String::new(),
            metrics: MetricsHub::disabled(),
        }
    }

    /// Attaches a metrics hub: the colocated loop then counts
    /// prefix-checkpoint hits/misses onto it.
    /// Write-only, like the trace recorder — an attached hub never changes
    /// the simulation output (module docs).
    pub fn with_metrics(mut self, metrics: MetricsHub) -> Self {
        self.metrics = metrics;
        self
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
        self.simulate(trace, config, &FaultPlan::default(), None)
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
        Ok(self.simulate(trace, config, plan, None))
    }

    /// The colocated loop with routed-prefix checkpointing: the run restores
    /// the longest stored checkpoint matching its trace prefix and semantic
    /// config, simulates only the tail, and stores fresh checkpoints every
    /// `every` arrivals (and at the trace end) for later cells to reuse —
    /// byte-identical to a cold [`FleetSim::run`] (module docs). Checkpoints
    /// are skipped when they cannot apply: `every == 0`, an empty trace, a
    /// non-colocated mode, or an attached trace recorder (snapshots don't
    /// capture trace sinks).
    pub fn run_checkpointed(
        &self,
        trace: &Trace,
        config: &FleetConfig,
        checkpoints: &MemoStore<FleetCheckpoint>,
        every: usize,
    ) -> FleetResult {
        let hook = (every > 0 && !trace.is_empty() && self.recorder.is_none())
            .then_some((checkpoints, every));
        self.simulate(trace, config, &FaultPlan::default(), hook)
    }

    /// Dispatches a validated plan to its topology's event loop.
    fn simulate(
        &self,
        trace: &Trace,
        config: &FleetConfig,
        plan: &FaultPlan,
        checkpoints: Option<(&MemoStore<FleetCheckpoint>, usize)>,
    ) -> FleetResult {
        assert!(
            trace
                .requests
                .windows(2)
                .all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "fleet traces must be time-sorted (use Trace::from_requests)"
        );
        match config.mode {
            FleetMode::Colocated { replicas } => {
                self.run_colocated(trace, replicas, config, plan, checkpoints)
            }
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                transfer,
            } => self.run_disaggregated(
                trace,
                prefill_replicas,
                decode_replicas,
                transfer,
                config,
                plan,
            ),
        }
    }

    /// The colocated event loop: trace arrivals off a cursor merged with one
    /// heap of (fault, detection, migration-delivery, retry, timeout)
    /// events in `(time, creation-seq)` order, every live replica stepped to
    /// each event's instant before it acts. Load-oblivious routers with
    /// nothing mid-trace to observe free-run instead (module docs).
    fn run_colocated(
        &self,
        trace: &Trace,
        replicas: usize,
        config: &FleetConfig,
        plan: &FaultPlan,
        checkpoints: Option<(&MemoStore<FleetCheckpoint>, usize)>,
    ) -> FleetResult {
        assert!(replicas > 0, "a pool needs at least one replica");
        let engine = Engine::new(self.sim, self.model, config.engine);
        let (max_seq, max_prompt) = trace_bounds(trace);
        // Migrated requests resume at context `prompt + generated`, which can
        // reach one short of the full sequence — size the hint accordingly.
        let (max_seq_hint, max_prompt_hint) = (max_seq + 1, max_prompt);
        let replica_sinks = self.replica_sinks("replica", replicas);
        let mut fleet = ColocatedFleet {
            engine: &engine,
            replicas: replica_sinks
                .iter()
                .map(|sink| {
                    let mut session = engine.session(max_seq_hint, max_prompt_hint);
                    session.set_trace(sink.clone());
                    ColocatedReplica {
                        session: Some(session),
                        scheduler: config.policy.build(),
                        detected: false,
                        incarnation: 0,
                        slow_token: 0,
                        frozen: IDLE_LOAD,
                        dropped: Vec::new(),
                        black_holed: Vec::new(),
                        retired: Vec::new(),
                    }
                })
                .collect(),
            loads: vec![IDLE_LOAD; replicas],
            dead: 0,
            router: config.router.build(config.seed, streams::ROUTER_FRONT, 0),
            tracks: trace.requests.iter().map(|_| Track::new()).collect(),
            stats: FaultStats::default(),
            hold: Vec::new(),
            assignment: vec![u32::MAX; trace.len()],
            heap: BinaryHeap::new(),
            seq: 0,
            plan,
            trace,
            memory: MemoryModel::new(self.sim.config(), self.model),
            policy: config.policy,
            max_seq_hint,
            max_prompt_hint,
            sink: self.fleet_sink(),
            replica_sinks,
        };
        // Pushed in plan order, so simultaneous faults fire in plan order.
        for (index, event) in plan.events.iter().enumerate() {
            fleet.push(event.time_ns, FleetEv::Fault(index));
        }

        // The routed-prefix hook: restore the longest stored prefix — the
        // whole trace first, then multiples of `every` descending.
        let key_base = checkpoints.map(|_| self.checkpoint_key_base(config));
        let key = |prefix: usize| {
            let base = key_base.clone().expect("keys fold only when checkpointing");
            fold_trace_prefix(base, trace, prefix).finish()
        };
        let mut start = 0usize;
        if let Some((store, every)) = checkpoints {
            let mut probe = trace.len();
            while probe > 0 {
                if let Some(checkpoint) = store.get(key(probe)) {
                    fleet.restore(&checkpoint);
                    start = probe;
                    break;
                }
                probe = (probe - 1) / every * every;
            }
            let labels: &[(&str, &str)] = &[("router", config.router.name())];
            let outcome = if start > 0 {
                "fleet_prefix_checkpoint_hits"
            } else {
                "fleet_prefix_checkpoint_misses"
            };
            self.metrics.counter(outcome, labels, 1);
            self.metrics
                .counter("fleet_prefix_arrivals_restored", labels, start as u64);
            self.metrics
                .counter("fleet_prefix_arrivals_total", labels, trace.len() as u64);
        }

        let free_run = plan.is_empty() && checkpoints.is_none() && config.router.load_oblivious();
        let mut cursor = start;
        loop {
            // Arrivals were created before any heap event, so they win ties.
            let arrival = trace.requests.get(cursor).filter(|request| {
                fleet
                    .heap
                    .peek()
                    .is_none_or(|event| request.arrival_ns <= event.time_ns)
            });
            if let Some(request) = arrival {
                let (id, t) = (cursor, request.arrival_ns);
                cursor += 1;
                if let Some((store, every)) = checkpoints {
                    if id > start && id % every == 0 {
                        store.get_or_insert_with(key(id), || fleet.checkpoint(id));
                    }
                }
                if !free_run {
                    fleet.step_live(t);
                }
                fleet.place(id, 0, t);
                continue;
            }
            let Some(event) = fleet.heap.pop() else {
                break;
            };
            let t = event.time_ns;
            fleet.step_live(t);
            match event.ev {
                FleetEv::Fault(index) => fleet.apply_fault(index, t),
                FleetEv::Detect {
                    replica,
                    incarnation,
                } => {
                    let r = &fleet.replicas[replica];
                    if r.session.is_none() && !r.detected && r.incarnation == incarnation {
                        fleet.replicas[replica].detected = true;
                        fleet.recover(replica, t);
                    }
                }
                FleetEv::SlowEnd { replica, token } => {
                    let r = &mut fleet.replicas[replica];
                    if let Some(session) = r.session.as_mut().filter(|_| r.slow_token == token) {
                        session.set_compute_scale(1.0);
                    }
                }
                FleetEv::Resume {
                    id,
                    attempt,
                    generated,
                } => fleet.resume(id, attempt, generated, t),
                FleetEv::TimeoutCheck { id, attempt } => fleet.timeout_check(id, attempt, t),
            }
        }
        if let Some((store, _)) = checkpoints {
            if start < trace.len() {
                store.get_or_insert_with(key(trace.len()), || fleet.checkpoint(trace.len()));
            }
        }
        // Requests still held never saw a live replica again: lost.
        for (id, _, _) in std::mem::take(&mut fleet.hold) {
            if !fleet.tracks[id].lost {
                fleet.tracks[id].lost = true;
                fleet.stats.lost += 1;
            }
        }
        let ColocatedFleet {
            replicas: fleet_replicas,
            tracks,
            stats,
            assignment,
            ..
        } = fleet;
        let results: Vec<SimResult> = {
            let _stepping = profile_phase("stepping");
            fleet_replicas
                .into_iter()
                .map(|mut r| {
                    if let Some(mut session) = r.session.take() {
                        session.step_until(f64::INFINITY, r.scheduler.as_mut());
                        r.retired.push(session.finish());
                    }
                    merge_sim_results(r.retired)
                })
                .collect()
        };
        let mut out = colocated_result(results, assignment);
        // Patch recovered outcomes back to trace-native shape: original
        // arrival and lengths, the true first-token instant for migrations,
        // and the recovery counters.
        for o in out.outcomes.iter_mut() {
            let track = &tracks[o.id];
            if track.touched {
                let original = trace.requests[o.id];
                o.arrival_ns = original.arrival_ns;
                o.prompt_len = original.prompt_len;
                o.output_len = original.output_len;
                if track.first_token_ns.is_finite() {
                    o.first_token_ns = track.first_token_ns;
                }
                o.retries = track.retries;
                o.migrations = track.migrations;
            }
        }
        out.fault = stats;
        out
    }

    /// The disaggregated event loop: trace arrivals off a cursor merged with
    /// the plan's slowdown starts/ends, handoff departures queued behind
    /// link partitions, and handoff deliveries off their own heap. Crash
    /// faults are colocated-only (the validator rejects them here).
    fn run_disaggregated(
        &self,
        trace: &Trace,
        prefill_replicas: usize,
        decode_replicas: usize,
        transfer: StateTransferModel,
        config: &FleetConfig,
        plan: &FaultPlan,
    ) -> FleetResult {
        let engine = Engine::new(self.sim, self.model, config.engine);
        let (max_seq, max_prompt) = trace_bounds(trace);
        // Prefill replicas never hold a sequence past prompt+1; decode
        // replicas never prefill (their prompt table hint stays minimal).
        let mut prefill = Pool::new(
            &engine,
            prefill_replicas,
            config.policy,
            max_prompt + 1,
            max_prompt,
        );
        let mut decode = Pool::new(&engine, decode_replicas, config.policy, max_seq + 1, 1);
        let sink = self.fleet_sink();
        prefill.attach_traces(self.replica_sinks("prefill", prefill_replicas));
        decode.attach_traces(self.replica_sinks("decode", decode_replicas));
        let mut front = config.router.build(config.seed, streams::ROUTER_FRONT, 0);
        let mut back = config.router.build(config.seed, streams::ROUTER_DECODE, 1);
        let memory = MemoryModel::new(self.sim.config(), self.model);
        let mut stats = FaultStats::default();

        // Merge link partitions into disjoint [start, heal) windows; a
        // handoff whose state departs inside a window queues at the link and
        // ships when it heals.
        let mut raw_windows: Vec<(f64, f64)> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDown { duration_ns } => Some((e.time_ns, e.time_ns + duration_ns)),
                _ => None,
            })
            .collect();
        stats.link_downs = raw_windows.len() as u32;
        raw_windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut link_windows: Vec<(f64, f64)> = Vec::new();
        for (start, heal) in raw_windows {
            match link_windows.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(heal),
                _ => link_windows.push((start, heal)),
            }
        }
        for &(start, heal) in &link_windows {
            sink.emit(|| TraceEvent::span("linkdown", start, heal - start, 0));
        }
        let departs_at = |completion_ns: f64| {
            for &(start, heal) in &link_windows {
                if completion_ns < start {
                    break;
                }
                if completion_ns < heal {
                    return heal;
                }
            }
            completion_ns
        };

        // The (statically known) slowdown starts/ends in creation order,
        // stably sorted by time; later slowdowns supersede earlier ones per
        // replica via tokens. Trace arrivals merge in ahead of them at equal
        // instants.
        #[derive(Clone, Copy)]
        enum DisEv {
            Arrival(usize),
            Slow {
                replica: usize,
                factor: f64,
                token: u64,
            },
            SlowEnd {
                replica: usize,
                token: u64,
            },
        }
        let mut slow: Vec<(f64, usize, f64, f64)> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Slowdown {
                    replica,
                    factor,
                    duration_ns,
                } => Some((e.time_ns, replica, factor, duration_ns)),
                _ => None,
            })
            .collect();
        slow.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut shifts: Vec<(f64, DisEv)> = Vec::with_capacity(2 * slow.len());
        for (token, &(t, replica, factor, duration_ns)) in slow.iter().enumerate() {
            let token = token as u64;
            let slow_start = DisEv::Slow {
                replica,
                factor,
                token,
            };
            shifts.push((t, slow_start));
            shifts.push((t + duration_ns, DisEv::SlowEnd { replica, token }));
        }
        shifts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut active: Vec<Option<u64>> = vec![None; prefill_replicas + decode_replicas];

        let mut handoffs: BinaryHeap<Handoff> = BinaryHeap::new();
        let mut handoff_seq = 0u64;
        let mut assignment = Vec::with_capacity(trace.len());
        let mut decode_assignment = vec![u32::MAX; trace.len()];

        // Collects newly completed prefills into the handoff heap: the state
        // ships `transfer_ns(dynamic bytes at prompt+1 context)` after the
        // first token (or after the link heals). Single-token requests never
        // hand off.
        let collect =
            |prefill: &mut Pool<'_>, handoffs: &mut BinaryHeap<Handoff>, handoff_seq: &mut u64| {
                let mut fresh = Vec::new();
                for session in prefill.sessions.iter_mut() {
                    fresh.extend(session.drain_completions());
                }
                fresh.sort_by(|a, b| {
                    a.completion_ns
                        .total_cmp(&b.completion_ns)
                        .then_with(|| a.id.cmp(&b.id))
                });
                for done in fresh {
                    let original = trace.requests[done.id];
                    if original.output_len <= 1 {
                        continue;
                    }
                    let bytes = memory.dynamic_bytes(1, original.prompt_len + 1);
                    handoffs.push(Timed {
                        time_ns: departs_at(done.completion_ns) + transfer.transfer_ns(bytes),
                        seq: *handoff_seq,
                        ev: done.id,
                    });
                    *handoff_seq += 1;
                }
            };

        let (mut next_arrival, mut next_shift) = (0usize, 0usize);
        loop {
            let arrival = trace.requests.get(next_arrival).filter(|request| {
                shifts
                    .get(next_shift)
                    .is_none_or(|shift| request.arrival_ns <= shift.0)
            });
            let (t, ev) = match (arrival, shifts.get(next_shift)) {
                (Some(request), _) => {
                    next_arrival += 1;
                    (request.arrival_ns, DisEv::Arrival(next_arrival - 1))
                }
                (None, Some(&shift)) => {
                    next_shift += 1;
                    shift
                }
                (None, None) => break,
            };
            prefill.step_until(t);
            collect(&mut prefill, &mut handoffs, &mut handoff_seq);
            // Handoffs before the next driver event are final: every future
            // prefill completion happens at or after `t`, so nothing earlier
            // can still appear. Deliver them in time order.
            while handoffs.peek().is_some_and(|h| h.time_ns < t) {
                let h = handoffs.pop().expect("peeked handoff vanished");
                deliver(
                    &mut decode,
                    back.as_mut(),
                    trace,
                    &h,
                    &mut decode_assignment,
                    &sink,
                );
            }
            // Touching a pool's compute scale requires stepping it to `t`
            // first, so events before the change keep the old latency (the
            // decode pool otherwise only advances at handoff deliveries;
            // stepping it here injects nothing, a bit-level no-op).
            match ev {
                DisEv::Arrival(id) => {
                    let pre_request = TraceRequest {
                        output_len: 1,
                        ..trace.requests[id]
                    };
                    let choice = {
                        let _routing = profile_phase("routing");
                        front.route(id, &pre_request, prefill.loads())
                    };
                    assert!(
                        choice < prefill_replicas,
                        "router returned replica {choice}"
                    );
                    sink.emit(|| {
                        TraceEvent::instant("route", t, id as u64).arg("replica", choice as f64)
                    });
                    prefill.inject(choice, id, pre_request);
                    assignment.push(choice as u32);
                }
                DisEv::Slow {
                    replica,
                    factor,
                    token,
                } => {
                    stats.slowdowns += 1;
                    sink.emit(|| {
                        TraceEvent::instant("slowdown", t, replica as u64)
                            .arg("replica", replica as f64)
                            .arg("factor", factor)
                    });
                    active[replica] = Some(token);
                    if replica < prefill_replicas {
                        prefill.sessions[replica].set_compute_scale(factor);
                    } else {
                        decode.step_until(t);
                        decode.sessions[replica - prefill_replicas].set_compute_scale(factor);
                    }
                }
                DisEv::SlowEnd { replica, token } => {
                    if active[replica] == Some(token) {
                        active[replica] = None;
                        if replica < prefill_replicas {
                            prefill.sessions[replica].set_compute_scale(1.0);
                        } else {
                            decode.step_until(t);
                            decode.sessions[replica - prefill_replicas].set_compute_scale(1.0);
                        }
                    }
                }
            }
        }

        // Drain the prefill pool, then deliver every remaining handoff and
        // drain the decode pool.
        prefill.step_until(f64::INFINITY);
        collect(&mut prefill, &mut handoffs, &mut handoff_seq);
        while let Some(h) = handoffs.pop() {
            deliver(
                &mut decode,
                back.as_mut(),
                trace,
                &h,
                &mut decode_assignment,
                &sink,
            );
        }
        let prefill_results = prefill.finish();
        let decode_results = decode.finish();
        let mut out = disaggregated_result(
            trace,
            prefill_results,
            decode_results,
            assignment,
            decode_assignment,
        );
        out.fault = stats;
        out
    }

    /// The prefix-independent half of a checkpoint key: every semantic input
    /// that shapes the fleet's state — system, model, mode, router, policy,
    /// engine config, seed — and nothing that cannot change bits (the
    /// ignored `workers`/`speculation` fields, `every` itself). Callers clone the
    /// returned builder and fold the routed prefix as a standalone trace.
    fn checkpoint_key_base(&self, config: &FleetConfig) -> FingerprintBuilder {
        /// Domain tag separating checkpoint keys from every other memo key.
        const PREFIX_CHECKPOINT_DOMAIN: u64 = 0xF1EE_7C8E;
        FingerprintBuilder::new()
            .u64(PREFIX_CHECKPOINT_DOMAIN)
            .debug(self.sim.config())
            .debug(self.model)
            .debug(&config.mode)
            .debug(&config.router)
            .debug(&config.policy)
            .debug(&config.engine)
            .u64(config.seed)
    }
}

/// Assembles a colocated fleet's per-replica results.
fn colocated_result(results: Vec<SimResult>, assignment: Vec<u32>) -> FleetResult {
    // Request ids are trace indices, so a linear scatter by id recovers the
    // same ascending order a comparison sort would — without the O(n log n).
    let total: usize = results.iter().map(|r| r.outcomes.len()).sum();
    let mut slots: Vec<Option<RequestOutcome>> = vec![None; assignment.len()];
    for r in &results {
        for o in &r.outcomes {
            slots[o.id] = Some(*o);
        }
    }
    let mut outcomes = Vec::with_capacity(total);
    outcomes.extend(slots.into_iter().flatten());
    let makespan_ns = results.iter().map(|r| r.makespan_ns).fold(0.0, f64::max);
    let replicas = results
        .into_iter()
        .enumerate()
        .map(|(replica, result)| ReplicaReport {
            replica,
            role: ReplicaRole::Colocated,
            result,
        })
        .collect();
    FleetResult {
        outcomes,
        replicas,
        assignment,
        decode_assignment: Vec::new(),
        makespan_ns,
        fault: FaultStats::default(),
    }
}

/// Stitches the prefill and decode stages into end-to-end outcomes.
fn disaggregated_result(
    trace: &Trace,
    prefill_results: Vec<SimResult>,
    decode_results: Vec<SimResult>,
    assignment: Vec<u32>,
    decode_assignment: Vec<u32>,
) -> FleetResult {
    let mut first_token = vec![f64::NAN; trace.len()];
    let mut completion = vec![f64::NAN; trace.len()];
    for r in &prefill_results {
        for o in &r.outcomes {
            first_token[o.id] = o.first_token_ns;
            completion[o.id] = o.completion_ns;
        }
    }
    for r in &decode_results {
        for o in &r.outcomes {
            completion[o.id] = o.completion_ns;
        }
    }
    let outcomes = trace
        .requests
        .iter()
        .enumerate()
        .filter(|(id, _)| completion[*id].is_finite())
        .map(|(id, r)| RequestOutcome {
            id,
            arrival_ns: r.arrival_ns,
            first_token_ns: first_token[id],
            completion_ns: completion[id],
            prompt_len: r.prompt_len,
            output_len: r.output_len,
            tenant: r.tenant,
            priority: r.priority,
            retries: 0,
            migrations: 0,
        })
        .collect();
    let makespan_ns = prefill_results
        .iter()
        .chain(decode_results.iter())
        .map(|r| r.makespan_ns)
        .fold(0.0, f64::max);
    let replicas = prefill_results
        .into_iter()
        .map(|result| (ReplicaRole::Prefill, result))
        .chain(
            decode_results
                .into_iter()
                .map(|result| (ReplicaRole::Decode, result)),
        )
        .enumerate()
        .map(|(replica, (role, result))| ReplicaReport {
            replica,
            role,
            result,
        })
        .collect();
    FleetResult {
        outcomes,
        replicas,
        assignment,
        decode_assignment,
        makespan_ns,
        fault: FaultStats::default(),
    }
}

/// The decode-side resumption request of a handoff: full context is
/// prompt+1 (prefill plus first token), `output_len - 1` tokens remain, and
/// it arrives at the handoff instant (tenant/priority tags ride along).
fn decode_request(trace: &Trace, handoff: &Handoff) -> TraceRequest {
    let original = trace.requests[handoff.ev];
    TraceRequest {
        arrival_ns: handoff.time_ns,
        prompt_len: original.prompt_len + 1,
        output_len: original.output_len - 1,
        ..original
    }
}

/// Delivers one handoff: steps the decode pool to the handoff instant, routes
/// it and injects the remaining-decode request fully prefilled.
fn deliver(
    decode: &mut Pool<'_>,
    back: &mut dyn Router,
    trace: &Trace,
    handoff: &Handoff,
    decode_assignment: &mut [u32],
    sink: &TraceSink,
) {
    let _delivery = profile_phase("handoff_delivery");
    decode.step_until(handoff.time_ns);
    let request = decode_request(trace, handoff);
    let choice = back.route(handoff.ev, &request, decode.loads());
    sink.emit(|| {
        TraceEvent::instant("handoff", handoff.time_ns, handoff.ev as u64)
            .arg("replica", choice as f64)
    });
    decode.inject_prefilled(choice, handoff.ev, request);
    decode_assignment[handoff.ev] = choice as u32;
}

/// `(max final sequence, max prompt)` of a trace — the latency-table sizing
/// hints of the replica sessions.
fn trace_bounds(trace: &Trace) -> (usize, usize) {
    let max_seq = trace
        .requests
        .iter()
        .map(|r| r.prompt_len + r.output_len)
        .max()
        .unwrap_or(1);
    let max_prompt = trace
        .requests
        .iter()
        .map(|r| r.prompt_len)
        .max()
        .unwrap_or(1);
    (max_seq, max_prompt)
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
    /// equal to a full per-session rebuild at *every* routing decision, over
    /// randomized traces and every shipped policy. (Debug builds also
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
            let (max_seq, max_prompt) = trace_bounds(&trace);
            let mut pool = Pool::new(&engine, 3, policy, max_seq, max_prompt);
            let mut router = RouterKind::Jsq.build(seed, streams::ROUTER_FRONT, 0);
            for (id, request) in trace.requests.iter().enumerate() {
                pool.step_until(request.arrival_ns);
                assert_eq!(pool.loads, pool.rebuilt_loads(), "post-step, id {id}");
                let choice = router.route(id, request, pool.loads());
                pool.inject(choice, id, *request);
                assert_eq!(pool.loads, pool.rebuilt_loads(), "post-inject, id {id}");
            }
            pool.step_until(f64::INFINITY);
            assert_eq!(pool.loads, pool.rebuilt_loads(), "drained");
        }
    }

    /// Checkpointed colocated loop ≡ plain colocated loop, cold and warm, including a warm run that restores the full-trace checkpoint.
    #[test]
    fn checkpointed_driver_is_bit_identical_cold_and_warm() {
        let (sim, model) = setup();
        let fleet = FleetSim::new(&sim, &model);
        let trace = small_trace(40);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(3)
        };
        let expected = fleet.run(&trace, &config);
        let store = MemoStore::new();
        let cold = fleet.run_checkpointed(&trace, &config, &store, 16);
        assert!(cold == expected, "cold checkpointed run diverged");
        assert!(!store.is_empty(), "cold run stored no checkpoints");
        let warm = fleet.run_checkpointed(&trace, &config, &store, 16);
        assert!(warm == expected, "warm checkpointed run diverged");
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
