//! The fleet grid: (system × scenario × rate × replica-count × router)
//! grids, evaluated by `pimba-serve`'s one [`GridRunner`] ([`FleetRunner`]),
//! plus the SLO-scaling search the `fleet_scale` bench reports.
//!
//! [`FleetGrid`] implements `pimba-serve`'s [`Grid`], so it shares the
//! runner, the memo type and the front half (`run_grid`) with the
//! traffic grid: each (scenario, rate) trace is generated from its own split
//! PCG stream and shared by every system, replica count and router, so any
//! two cells differing in one axis are compared under *identical* arrivals;
//! cells fan out over the runner's threads and come back in grid order,
//! bit-identical for any worker-thread count (each cell is a pure function
//! of the grid).
//!
//! `run_grid`: pimba_serve::runner::run_grid

use crate::cluster::{FleetConfig, FleetMode, FleetSim};
use crate::fault::{FaultPlan, FaultStats};
use crate::router::RouterKind;
use pimba_models::config::ModelConfig;
use pimba_serve::engine::EngineConfig;
use pimba_serve::metrics::{SloSpec, TenantSlos, TenantSummary, TrafficSummary};
use pimba_serve::runner::{summarize_cell, Grid, GridAxes, GridCell, GridRunner};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::SystemConfig;
use pimba_system::memo::{Fingerprint, FingerprintBuilder};
use pimba_system::obs::{profile_phase, TraceRecorder};
use pimba_system::sweep::RunControl;
use pimba_system::transfer::StateTransferModel;
use rand::rngs::Pcg32;
use rand::Rng;
use std::sync::Arc;

/// Replica-topology axis of a fleet grid: all cells colocated, or all cells
/// split into prefill/decode pools by a fixed fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetModeSpec {
    /// Every cell runs `replicas` colocated replicas.
    Colocated,
    /// Every cell splits its replica count into a prefill pool of
    /// `round(prefill_fraction × n)` (clamped to leave both pools non-empty;
    /// an `n = 1` cell degenerates to one prefill and one decode replica)
    /// and a decode pool of the rest.
    Disaggregated {
        /// Fraction of replicas assigned to the prefill pool.
        prefill_fraction: f64,
        /// The handoff cost model.
        transfer: StateTransferModel,
    },
}

impl FleetModeSpec {
    /// The concrete [`FleetMode`] of a cell with `replicas` replicas.
    pub fn mode_for(&self, replicas: usize) -> FleetMode {
        match *self {
            FleetModeSpec::Colocated => FleetMode::Colocated { replicas },
            FleetModeSpec::Disaggregated {
                prefill_fraction,
                transfer,
            } => {
                let prefill = ((replicas as f64 * prefill_fraction).round() as usize)
                    .clamp(1, replicas.saturating_sub(1).max(1));
                FleetMode::Disaggregated {
                    prefill_replicas: prefill,
                    decode_replicas: (replicas - prefill).max(1),
                    transfer,
                }
            }
        }
    }
}

/// The cartesian (system × scenario × rate × replica-count × router) grid of
/// one fleet study. Rates are *fleet-level* offered loads.
#[derive(Debug, Clone)]
pub struct FleetGrid {
    /// Serving systems under comparison.
    pub systems: Vec<SystemConfig>,
    /// Traffic scenarios.
    pub scenarios: Vec<Scenario>,
    /// Mean fleet arrival rates in requests/second.
    pub rates_rps: Vec<f64>,
    /// Replica counts.
    pub replica_counts: Vec<usize>,
    /// Routing policies.
    pub routers: Vec<RouterKind>,
    /// The model every replica serves.
    pub model: ModelConfig,
    /// Per-replica scheduling policy.
    pub policy: PolicyKind,
    /// Replica topology applied to every cell.
    pub mode: FleetModeSpec,
    /// Requests generated per (scenario, rate) trace.
    pub requests_per_cell: usize,
    /// Base seed; every (scenario, rate) trace — and every cell's router
    /// sampling — derives its own PCG stream.
    pub seed: u64,
    /// The SLO defining goodput and attainment.
    pub slo: SloSpec,
    /// Per-tenant SLO overrides for the per-tenant record summaries; `None`
    /// holds every tenant to [`FleetGrid::slo`].
    pub tenant_slos: Option<TenantSlos>,
    /// Per-replica batch cap; `None` runs the SLO capacity search per
    /// (system, scenario), like the single-replica traffic runner.
    pub max_batch: Option<usize>,
    /// Sequence-length bucket for latency lookups.
    pub seq_bucket: usize,
    /// Macro-step fast-forwarding (bit-identical either way).
    pub fast_forward: bool,
    /// Ignored, like [`EngineConfig::timeline_sample_every`]: replicas keep
    /// exact telemetry aggregates only. Still copied into each cell's engine
    /// config, so memo cell keys stay unchanged.
    pub timeline_sample_every: usize,
    /// Fault schedule applied to every cell; `None` (the default) runs the
    /// fault-free drivers.
    pub fault: Option<FaultPlan>,
}

impl FleetGrid {
    /// A grid serving `model` with no axes yet; defaults: continuous
    /// batching, colocated, 400 requests/cell, seed 0xF1EE7, the default chat
    /// SLO, seq bucket 32, fast-forward on.
    pub fn new(model: ModelConfig) -> Self {
        Self {
            systems: Vec::new(),
            scenarios: Vec::new(),
            rates_rps: Vec::new(),
            replica_counts: Vec::new(),
            routers: Vec::new(),
            model,
            policy: PolicyKind::Continuous,
            mode: FleetModeSpec::Colocated,
            requests_per_cell: 400,
            seed: 0xF1EE7,
            slo: SloSpec::default(),
            tenant_slos: None,
            max_batch: None,
            seq_bucket: 32,
            fast_forward: true,
            timeline_sample_every: 0,
            fault: None,
        }
    }

    /// Replaces the system axis.
    pub fn with_systems(mut self, systems: Vec<SystemConfig>) -> Self {
        self.systems = systems;
        self
    }

    /// Replaces the scenario axis.
    pub fn with_scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Replaces the fleet arrival-rate axis.
    pub fn with_rates(mut self, rates_rps: Vec<f64>) -> Self {
        self.rates_rps = rates_rps;
        self
    }

    /// Replaces the replica-count axis.
    pub fn with_replica_counts(mut self, replica_counts: Vec<usize>) -> Self {
        self.replica_counts = replica_counts;
        self
    }

    /// Replaces the router axis.
    pub fn with_routers(mut self, routers: Vec<RouterKind>) -> Self {
        self.routers = routers;
        self
    }

    /// Selects the per-replica scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Selects the replica topology.
    pub fn with_mode(mut self, mode: FleetModeSpec) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-trace request count.
    pub fn with_requests_per_cell(mut self, n: usize) -> Self {
        self.requests_per_cell = n;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the SLO.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = slo;
        self
    }

    /// Fixes the per-replica batch cap (skipping the SLO capacity search).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = Some(max_batch);
        self
    }

    /// Sets the sequence-length bucket (must be positive).
    pub fn with_seq_bucket(mut self, seq_bucket: usize) -> Self {
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        self.seq_bucket = seq_bucket;
        self
    }

    /// Applies a fault schedule to every cell. The plan must validate against
    /// every cell's topology (checked when the grid runs).
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.systems.len()
            * self.scenarios.len()
            * self.rates_rps.len()
            * self.replica_counts.len()
            * self.routers.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (system, scenario, rate, replica-count, router) index tuple of
    /// flat cell `i` — router fastest, then replicas, then rate.
    pub fn indices(&self, i: usize) -> (usize, usize, usize, usize, usize) {
        let router = i % self.routers.len();
        let rest = i / self.routers.len();
        let reps = rest % self.replica_counts.len();
        let rest = rest / self.replica_counts.len();
        let rate = rest % self.rates_rps.len();
        let rest = rest / self.rates_rps.len();
        (
            rest / self.scenarios.len(),
            rest % self.scenarios.len(),
            rate,
            reps,
            router,
        )
    }
}

/// The evaluation of one fleet grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecord {
    /// Index into [`FleetGrid::systems`].
    pub system: usize,
    /// Index into [`FleetGrid::scenarios`].
    pub scenario: usize,
    /// Fleet arrival rate simulated, in requests/second.
    pub rate_rps: f64,
    /// Total replica count of the cell.
    pub replicas: usize,
    /// Routing policy of the cell.
    pub router: RouterKind,
    /// The per-replica batch cap the cell ran with.
    pub max_batch: usize,
    /// Aggregate fleet metrics under the grid's SLO.
    pub summary: TrafficSummary,
    /// Goodput per replica (scaling efficiency).
    pub goodput_per_replica: f64,
    /// Requests completed per replica (the balance fingerprint).
    pub per_replica_completed: Vec<usize>,
    /// Per-tenant fleet metrics, ascending tenant order, each under its own
    /// SLO from [`FleetGrid::tenant_slos`].
    pub per_tenant: Vec<TenantSummary>,
    /// Fault-injection and recovery counters — all zeros unless the grid
    /// carried a [`FleetGrid::fault`] plan.
    pub fault: FaultStats,
}

/// The runner of [`FleetGrid`]s: `pimba-serve`'s one [`GridRunner`], each
/// system's simulator sharing one prefill cache across its cells.
pub type FleetRunner = GridRunner<FleetGrid>;

impl Grid for FleetGrid {
    type Record = FleetRecord;

    fn axes(&self) -> GridAxes<'_> {
        GridAxes {
            systems: &self.systems,
            scenarios: &self.scenarios,
            rates_rps: &self.rates_rps,
            model: &self.model,
            requests_per_cell: self.requests_per_cell,
            seed: self.seed,
            tpot_ms: self.slo.tpot_ms,
            max_batch: self.max_batch,
            cells_per_point: self.replica_counts.len() * self.routers.len(),
        }
    }

    fn key(&self, cell: &GridCell<'_>) -> Fingerprint {
        let config = cell_config(self, cell);
        FingerprintBuilder::new()
            .usize(cell.system)
            .usize(cell.scenario)
            .f64(self.rates_rps[cell.rate])
            .debug(&self.systems[cell.system])
            .debug(&self.model)
            .debug(&self.slo)
            .debug(&self.tenant_slos)
            .debug(&config.mode)
            .debug(&config.router)
            .debug(&config.policy)
            .debug(&config.engine)
            .u64(config.seed)
            .debug(&self.fault)
            .fingerprint(cell.trace_key())
            .finish()
    }

    fn eval(
        &self,
        cell: &GridCell<'_>,
        recorder: Option<&Arc<TraceRecorder>>,
        control: &RunControl,
    ) -> FleetRecord {
        let config = cell_config(self, cell);
        let mut fleet = FleetSim::new(cell.sim, &self.model);
        if let Some(recorder) = recorder {
            fleet = fleet
                .with_trace(Arc::clone(recorder))
                .with_trace_prefix(&format!("cell {} / ", cell.index));
        }
        let result = match &self.fault {
            Some(plan) => fleet
                .run_faulted(cell.trace(), &config, plan)
                .unwrap_or_else(|e| panic!("grid fault plan rejected: {e}")),
            None => fleet.run(cell.trace(), &config),
        };
        {
            let _export = profile_phase("metrics_export");
            let index = cell.index.to_string();
            result.export_metrics(control.metrics(), &[("cell", &index)]);
        }
        let (summary, per_tenant) = summarize_cell(
            &result.outcomes,
            result.makespan_ns,
            &result.fleet_telemetry(),
            &self.slo,
            self.tenant_slos.as_ref(),
        );
        FleetRecord {
            system: cell.system,
            scenario: cell.scenario,
            rate_rps: self.rates_rps[cell.rate],
            replicas: config.mode.replicas(),
            router: config.router,
            max_batch: config.engine.max_batch,
            summary,
            goodput_per_replica: summary.goodput_rps / result.replicas.len() as f64,
            per_replica_completed: result.per_replica_completed(),
            per_tenant,
            fault: result.fault,
        }
    }
}

/// The fleet configuration of one grid cell.
fn cell_config(grid: &FleetGrid, cell: &GridCell<'_>) -> FleetConfig {
    let (_, _, _, reps, router) = grid.indices(cell.index);
    FleetConfig {
        mode: grid.mode.mode_for(grid.replica_counts[reps]),
        router: grid.routers[router],
        policy: grid.policy,
        engine: EngineConfig {
            max_batch: cell.max_batch,
            capacity_bytes: None,
            seq_bucket: grid.seq_bucket,
            fast_forward: grid.fast_forward,
            timeline_sample_every: grid.timeline_sample_every,
            ..EngineConfig::default()
        },
        // Every cell gets its own deterministic router stream.
        seed: Pcg32::new_stream(grid.seed, 0x7007 + cell.index as u64).next_u64(),
        workers: 0,
        speculation: true,
    }
}

/// The scaling headline: the smallest replica count among `records` (matching
/// the given system/scenario/rate/router) whose SLO attainment reaches
/// `target`, or `None` if none does. Pass the records of one grid; the search
/// scans the replica-count axis in ascending order.
pub fn replicas_to_hold(
    records: &[FleetRecord],
    system: usize,
    scenario: usize,
    rate_rps: f64,
    router: RouterKind,
    target_attainment: f64,
) -> Option<usize> {
    let mut matching: Vec<&FleetRecord> = records
        .iter()
        .filter(|r| {
            r.system == system
                && r.scenario == scenario
                && r.rate_rps == rate_rps
                && r.router == router
        })
        .collect();
    matching.sort_by_key(|r| r.replicas);
    matching
        .iter()
        .find(|r| r.summary.slo_attainment >= target_attainment)
        .map(|r| r.replicas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::FleetMemo;
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_system::config::SystemKind;

    fn small_grid() -> FleetGrid {
        FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
            .with_systems(vec![
                SystemConfig::small_scale(SystemKind::Gpu),
                SystemConfig::small_scale(SystemKind::Pimba),
            ])
            .with_scenarios(vec![Scenario::chat()])
            .with_rates(vec![20.0])
            .with_replica_counts(vec![1, 2])
            .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
            .with_requests_per_cell(30)
    }

    #[test]
    fn records_come_back_in_grid_order_with_all_requests_served() {
        let grid = small_grid();
        let records = FleetRunner::new().with_threads(3).run(&grid);
        assert_eq!(records.len(), grid.len());
        for (i, rec) in records.iter().enumerate() {
            let (sys, scn, rate, reps, router) = grid.indices(i);
            assert_eq!((rec.system, rec.scenario), (sys, scn));
            assert_eq!(rec.rate_rps, grid.rates_rps[rate]);
            assert_eq!(rec.replicas, grid.replica_counts[reps]);
            assert_eq!(rec.router, grid.routers[router]);
            assert_eq!(rec.summary.completed, grid.requests_per_cell);
            assert_eq!(
                rec.per_replica_completed.iter().sum::<usize>(),
                grid.requests_per_cell
            );
        }
    }

    #[test]
    fn more_replicas_never_hurt_attainment() {
        let grid = small_grid();
        let records = FleetRunner::new().run(&grid);
        for sys in 0..grid.systems.len() {
            let one = replicas_to_hold(&records, sys, 0, 20.0, RouterKind::Jsq, 0.0);
            assert_eq!(one, Some(1), "zero target is met by any fleet");
            let single = records
                .iter()
                .find(|r| r.system == sys && r.replicas == 1 && r.router == RouterKind::Jsq)
                .unwrap();
            let double = records
                .iter()
                .find(|r| r.system == sys && r.replicas == 2 && r.router == RouterKind::Jsq)
                .unwrap();
            assert!(
                double.summary.slo_attainment >= single.summary.slo_attainment - 1e-12,
                "attainment regressed with more replicas"
            );
            assert!(double.summary.e2e_ms.p99 <= single.summary.e2e_ms.p99 + 1e-9);
        }
    }

    #[test]
    fn empty_grid_is_empty_result() {
        let grid = small_grid().with_replica_counts(Vec::new());
        assert!(grid.is_empty());
        assert!(FleetRunner::new().run(&grid).is_empty());
    }

    #[test]
    fn faulted_grids_memoize_separately_from_fault_free() {
        let grid = small_grid();
        let memo = Arc::new(FleetMemo::new());
        let runner = FleetRunner::new().with_memo(memo);
        let base = runner.run(&grid);
        let faulted_grid = grid
            .clone()
            .with_fault(FaultPlan::default().slowdown(0.0, 0, 4.0, 1.0e9));
        let faulted = runner.run(&faulted_grid);
        assert_ne!(base, faulted, "a replica slowdown must move the metrics");
        for r in &faulted {
            assert_eq!(r.fault.slowdowns, 1);
            assert_eq!(r.summary.completed, grid.requests_per_cell);
        }
        // Warm re-runs of both flavors stay byte-identical: the fault plan is
        // part of the cell key, so the two grids never collide in the memo.
        assert_eq!(runner.run(&grid), base);
        assert_eq!(runner.run(&faulted_grid), faulted);
    }

    #[test]
    fn disaggregated_mode_spec_splits_pools() {
        let spec = FleetModeSpec::Disaggregated {
            prefill_fraction: 0.25,
            transfer: StateTransferModel::nvlink(),
        };
        match spec.mode_for(8) {
            FleetMode::Disaggregated {
                prefill_replicas,
                decode_replicas,
                ..
            } => {
                assert_eq!(prefill_replicas, 2);
                assert_eq!(decode_replicas, 6);
            }
            _ => panic!("wrong mode"),
        }
        // Degenerate single-replica cells still produce two non-empty pools.
        assert_eq!(spec.mode_for(1).replicas(), 2);
    }
}
