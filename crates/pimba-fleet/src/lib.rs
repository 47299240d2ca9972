//! # pimba-fleet
//!
//! A deterministic **cluster-level** serving simulator: N per-replica
//! `pimba-serve` engines co-simulated under a front-door router — the layer
//! between the single-replica queueing study and the ROADMAP's
//! "millions of users" scale question: *how many replicas does a system need
//! to hold an SLO at a given fleet load, and how much does the routing policy
//! matter?*
//!
//! * [`router`] — the [`Router`] trait and three policies:
//!   round-robin, join-shortest-queue, power-of-two-choices (po2 samples from
//!   a dedicated keyed PCG substream, so results are bit-identical across
//!   thread counts),
//! * [`cluster`] — the co-simulation driver: colocated fleets, and
//!   disaggregated prefill/decode pools with a
//!   [`StateTransferModel`](pimba_system::transfer::StateTransferModel)-priced
//!   state handoff (where Pimba's small quantized SU-LLM state shines versus
//!   a GPU KV cache),
//! * [`fault`] — deterministic failure injection: seedable
//!   [`FaultPlan`]s (crashes, restarts, slowdowns, link
//!   partitions) and the recovery stack — failure detection, live migration
//!   of in-flight requests, bounded retry with backoff — driven by
//!   [`FleetSim::run_faulted`](cluster::FleetSim::run_faulted),
//! * [`metrics`] — fleet-level outcomes, per-replica reports and
//!   [`TrafficSummary`](pimba_serve::metrics::TrafficSummary)-shaped
//!   aggregates,
//! * [`runner`] — the (system × scenario × rate × replica-count × router)
//!   [`FleetGrid`], evaluated in parallel by `pimba-serve`'s one grid runner
//!   ([`FleetRunner`]), and the [`replicas_to_hold`] SLO-scaling search,
//! * [`memo`] — the [`FleetRecord`] codec and [`memo::FleetMemo`], the
//!   shared [`GridMemo`](pimba_serve::runner::GridMemo) over fleet records
//!   making repeated what-if grids incremental: warm cells skip simulation
//!   and return byte-identical records.
//!
//! Replicas are [`Session`](pimba_serve::Session)s of the single-replica
//! engine, so everything the engine guarantees carries over: a colocated
//! fleet of **one** replica is bit-identical to the corresponding
//! `Engine::run`, asserted in `tests/fleet_equivalence.rs` and re-asserted by
//! the `fleet_scale` bench on every run.
//!
//! # Example
//!
//! ```rust
//! use pimba_fleet::cluster::{FleetConfig, FleetSim};
//! use pimba_fleet::router::RouterKind;
//! use pimba_models::{ModelConfig, ModelFamily, ModelScale};
//! use pimba_serve::traffic::Scenario;
//! use pimba_system::config::{SystemConfig, SystemKind};
//! use pimba_system::serving::ServingSimulator;
//!
//! let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
//! let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
//! let trace = Scenario::chat().generate(40.0, 60, 7);
//! let config = FleetConfig {
//!     router: RouterKind::PowerOfTwo,
//!     ..FleetConfig::colocated(4)
//! };
//! let result = FleetSim::new(&sim, &model).run(&trace, &config);
//! assert_eq!(result.outcomes.len(), trace.len());
//! assert_eq!(result.per_replica_completed().iter().sum::<usize>(), 60);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod fault;
pub mod memo;
pub mod metrics;
pub mod router;
pub mod runner;

pub use cluster::{FleetConfig, FleetMode, FleetSim};
pub use fault::{
    FaultError, FaultEvent, FaultKind, FaultPlan, FaultStats, RecoveryPolicy, RetryPolicy,
};
pub use memo::FleetMemo;
pub use metrics::{FleetResult, ReplicaReport, ReplicaRole};
pub use router::{
    JoinShortestQueue, PowerOfTwoChoices, ReplicaLoad, RoundRobin, Router, RouterKind,
    TenantAffinity,
};
pub use runner::{replicas_to_hold, FleetGrid, FleetModeSpec, FleetRecord, FleetRunner};
