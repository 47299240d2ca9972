//! # pimba-serve
//!
//! A deterministic discrete-event, request-level serving simulator on top of
//! the analytic step models of `pimba-system` — the queueing layer the paper's
//! steady-state evaluation lacks. Where the figure benches ask *"how fast is a
//! fixed (batch, seq-len) point?"*, this crate asks the production question:
//! *"what TTFT/TPOT tails, goodput and SLO attainment does a system deliver
//! under a live arrival process?"*
//!
//! * [`traffic`] — seeded synthetic arrival processes (Poisson, bursty on/off),
//!   request traces with bit-exact JSONL dump/replay (optional
//!   tenant/priority tags, backward compatible), canned scenario presets
//!   (chat, summarization, long-context RAG, reasoning-heavy decode) and a
//!   multi-tenant mix generator,
//! * [`event`] — the single-flight/arrival-cursor event source every engine
//!   run uses, and the binary-heap event queue with deterministic
//!   tie-breaking its pop order is tested against,
//! * [`sched`] — the admission/scheduler trait and five policies: FCFS static
//!   batching, continuous batching, chunked-prefill continuous batching,
//!   memory-pressure checkpoint-restore eviction, and weighted fair queueing
//!   across tenant priority classes,
//! * [`engine`] — the event loop driving `ServingSimulator` step latencies,
//!   with memory-capacity admission control (final-sequence or live-occupancy
//!   anchoring), checkpoint/restore preemption priced by a
//!   [`StateTransferModel`](pimba_system::transfer::StateTransferModel), and
//!   macro-step fast-forwarding,
//! * [`metrics`] — per-request TTFT/TPOT/E2E, exact-order-statistic
//!   percentiles, goodput, SLO attainment (whole-run and per tenant under
//!   per-tenant SLOs), preemption counters, and exact running queue-depth
//!   and occupancy aggregates,
//! * [`runner`] — the one parallel grid runner (over any [`runner::Grid`]:
//!   the (system × scenario × rate) [`TrafficGrid`] here, `pimba-fleet`'s
//!   fleet grid there) and SLO-attainment curves.
//!
//! Simulations are bit-identical across repeat runs and thread counts, and the
//! closed-loop configuration reproduces `ServingSimulator::request_latency`
//! exactly (see `tests/oracle.rs`).
//!
//! # The steppable session (co-simulation)
//!
//! [`Engine::run`] is a wrapper over [`Session`]: the engine's whole state
//! between events, advanced window by window. `pimba-fleet` co-simulates one
//! session per replica: [`Session::step_until`] processes every event
//! *strictly before* a horizon, [`Session::inject`] delivers a routed arrival
//! at (or after) it, and [`Session::inject_prefilled`] receives a
//! disaggregated prefill→decode handoff that skips prefill entirely. The
//! invariants that keep windowed execution bit-identical to a preloaded run —
//! the exclusive horizon preserving arrival-wins-ties ordering, and
//! macro-steps pausing at the horizon through the arrival-interrupt path —
//! are spelled out in the [`engine`] module docs and asserted by this
//! crate's tests and the fleet equivalence suite.
//!
//! # Fast-forward invariants
//!
//! The default engine advances runs of scheduler-stable pure-decode steps in
//! *macro-steps* instead of per-step events, reading latencies from
//! dense per-run `(batch, seq-bucket)` tables
//! ([`pimba_system::table`]) — one to two orders of magnitude faster on
//! decode-heavy traffic (`serve_hotloop` bench) while **bit-identical** to
//! the step-by-step oracle (`EngineConfig::fast_forward = false`). The
//! invariants that make that exactness hold, property-tested in
//! `tests/fastforward.rs`:
//!
//! 1. a macro-step's sub-segments have constant step latency (fixed batch
//!    membership and bucketed sequence length), and timestamps advance by the
//!    same sequential `now + latency` additions the event queue would
//!    perform — never by a closed-form `k × latency` product, which would
//!    round differently;
//! 2. the scheduler is consulted at exactly the boundaries its certified
//!    [`DecodeStability`] level says its decision could change at — arrivals
//!    absorbed into a full batch (or under a run-to-completion policy) are
//!    queued and sampled by the engine with the event loop's tie-breaking and
//!    same-timestamp coalescing;
//! 3. dense-table entries store the exact `f64` the simulator computes, so a
//!    table read and a simulator call are interchangeable;
//! 4. telemetry observes every (virtual) event: the exact aggregates
//!    accumulate with the same floating-point operations in the same order
//!    either way, event-free stretches folded in one loop; no per-event
//!    series is stored.
//!
//! # Example
//!
//! ```rust
//! use pimba_models::{ModelConfig, ModelFamily, ModelScale};
//! use pimba_serve::runner::{TrafficGrid, TrafficRunner};
//! use pimba_serve::traffic::Scenario;
//! use pimba_system::config::{SystemConfig, SystemKind};
//!
//! let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
//! let grid = TrafficGrid::new(model)
//!     .with_systems(vec![
//!         SystemConfig::small_scale(SystemKind::Gpu),
//!         SystemConfig::small_scale(SystemKind::Pimba),
//!     ])
//!     .with_scenarios(vec![Scenario::chat()])
//!     .with_rates(vec![8.0])
//!     .with_requests_per_cell(20)
//!     .with_seq_bucket(32);
//! let records = TrafficRunner::new().run(&grid);
//! assert_eq!(records.len(), 2);
//! let (gpu, pimba) = (&records[0].summary, &records[1].summary);
//! assert!(pimba.e2e_ms.p50 <= gpu.e2e_ms.p50);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod runner;
pub mod sched;
pub mod traffic;

pub use engine::{
    AdmissionMode, BatchSlot, CompletedRequest, Engine, EngineConfig, EngineView, EvictedRequest,
    Session,
};
pub use metrics::{
    Percentiles, PreemptionStats, RequestOutcome, SimResult, SloSpec, Telemetry, TelemetryStats,
    TenantSlos, TenantSummary, TrafficSummary,
};
pub use runner::{GridMemo, TrafficGrid, TrafficMemo, TrafficRecord, TrafficRunner};
pub use sched::{
    Action, ChunkedPrefill, ContinuousBatching, DecodeStability, FcfsStatic,
    MemoryPressureEviction, PolicyKind, Scheduler, VictimOrder, WeightedFairQueueing,
};
pub use traffic::{generate_tenant_mix, ArrivalKind, Scenario, Trace, TraceRequest};
