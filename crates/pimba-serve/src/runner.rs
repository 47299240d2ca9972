//! The grid runner: one [`GridRunner`] over any [`Grid`], with one memo type
//! ([`GridMemo`]) and one front half (`run_grid`). This crate's
//! (system × scenario × arrival-rate) [`TrafficGrid`] is one such grid
//! ([`TrafficRunner`] is the runner over it); `pimba-fleet`'s fleet grid is
//! the other.
//!
//! A grid supplies its shared axes, each cell's memo key and each cell's
//! simulation; the runner fans the cells out with the shared
//! [`parallel_map`] over its builder-configured thread count (every
//! available core by default). Each grid point is a whole discrete-event
//! simulation. Each (scenario, rate) trace is generated from its own split
//! PCG stream and shared by every system, so systems are compared under
//! *identical* arrival sequences; records come back in grid order and are
//! bit-identical for any thread count.
//!
//! An attached [`GridMemo`] answers repeated cells without simulating them.
//! It holds cells only, and persists them across restarts (one segment file
//! per record type). A cell's key names its trace by the generator's inputs,
//! so a memo hit builds no trace; SLO capacity searches rerun.

use crate::engine::{AdmissionMode, Engine, EngineConfig};
use crate::metrics::{
    RequestOutcome, SloSpec, TelemetryStats, TenantSlos, TenantSummary, TrafficSummary,
};
use crate::sched::PolicyKind;
use crate::traffic::{Scenario, Trace, TRACE_GENERATOR_VERSION};
use pimba_models::config::ModelConfig;
use pimba_system::config::SystemConfig;
use pimba_system::memo::{Fingerprint, FingerprintBuilder, MemoStore};
use pimba_system::obs::{profile_phase, TraceRecorder, TraceSink};
use pimba_system::persist::MemoValue;
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{
    available_cores, max_batch_within_slo, parallel_map, RunAborted, RunControl,
};
use rand::rngs::Pcg32;
use rand::Rng;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The content address of a trace's raw request bits, independent of how it
/// was generated.
pub fn trace_fingerprint(trace: &Trace) -> Fingerprint {
    let mut builder = FingerprintBuilder::new().usize(trace.requests.len());
    for r in &trace.requests {
        builder = builder
            .f64(r.arrival_ns)
            .usize(r.prompt_len)
            .usize(r.output_len)
            .u64(u64::from(r.tenant))
            .u64(u64::from(r.priority));
    }
    builder.finish()
}

/// A grid cell record a [`GridMemo`] persists: its codec plus the name of
/// the memo's segment file.
pub trait GridRecord: MemoValue {
    /// File stem of the cells segment, stored as `<stem>.seg` under the
    /// memo's directory. Distinct per record type, so memos of different
    /// runners can share one directory.
    const SEGMENT: &'static str;
}

/// The memo of one [`Grid`]'s cells — share one (behind an [`Arc`]) across
/// every run that should reuse results. Every cell is keyed by a
/// [`Fingerprint`] of its complete input identity (see
/// [`pimba_system::memo`] for the purity contract), so re-running a grid with
/// one knob changed only pays for the cells whose inputs changed. Execution
/// knobs that cannot change bits — thread counts — are deliberately
/// excluded, so any run warms the memo for any other. A warm hit skips the
/// whole simulation and returns bytes identical to a cold run; a cell the
/// memo misses is simulated cold, from its first arrival.
///
/// The memo holds cells only. A cell key names its trace by the generator's
/// inputs (see [`GridCell::trace_key`]), so a hit builds no trace; each run
/// builds the traces of the cells it misses. SLO capacity searches are not
/// memoized: a search costs about as much as a keyed lookup.
///
/// `R` is the cell record, [`Grid::Record`]: [`TrafficMemo`] holds
/// [`TrafficGrid`]'s, `pimba_fleet`'s `FleetMemo` the fleet grid's. A
/// [`GridRunner`] attaches one through [`GridRunner::with_memo`] and drives
/// it through `run_grid`; [`persistent_memo`] opens one on disk.
pub type GridMemo<R> = MemoStore<R>;

/// The memo of [`TrafficRunner`] grids.
pub type TrafficMemo = GridMemo<TrafficRecord>;

/// A memo whose cells persist under `dir` (created if absent): they append to
/// a crash-safe segment file named by [`GridRecord::SEGMENT`] (see
/// [`pimba_system::persist`]), and cells persisted by earlier processes are
/// loaded up front, so repeated what-ifs across restarts are warm hits
/// returning bit-identical records.
pub fn persistent_memo<R: GridRecord>(dir: &Path) -> std::io::Result<GridMemo<R>> {
    std::fs::create_dir_all(dir)?;
    MemoStore::persistent(&dir.join(format!("{}.seg", R::SEGMENT)))
}

/// The SLO batch-capacity search of one (system, scenario) pair: the largest
/// batch (at most 512) whose decode step on `sim` holds `tpot_ms` at the
/// scenario's mean total sequence length, or 1 when even batch 1 misses.
/// Returns `(anchor_seq, max_batch)`.
pub fn slo_capacity(
    sim: &ServingSimulator,
    model: &ModelConfig,
    scenario: &Scenario,
    tpot_ms: f64,
) -> (usize, usize) {
    let anchor_seq = (scenario.mean_total_tokens() as usize).max(1);
    let max_batch = max_batch_within_slo(sim, model, anchor_seq, tpot_ms, 512).unwrap_or(1);
    (anchor_seq, max_batch)
}

/// The axes and capacity knobs every [`Grid`] shares — what `run_grid`
/// needs to build simulators, traces and batch caps.
#[derive(Debug)]
pub struct GridAxes<'g> {
    /// Serving systems (one simulator each).
    pub systems: &'g [SystemConfig],
    /// Traffic scenarios.
    pub scenarios: &'g [Scenario],
    /// Mean arrival rates in requests/second.
    pub rates_rps: &'g [f64],
    /// The model every system serves.
    pub model: &'g ModelConfig,
    /// Requests generated per (scenario, rate) trace.
    pub requests_per_cell: usize,
    /// Base seed; the trace of (scenario, rate) draws its seed from PCG
    /// stream `scenario × rates + rate` of it.
    pub seed: u64,
    /// Per-token SLO of the capacity search, in milliseconds.
    pub tpot_ms: f64,
    /// A fixed batch cap, or `None` to run [`slo_capacity`] per (system,
    /// scenario).
    pub max_batch: Option<usize>,
    /// Cells per (system, scenario, rate) point: the product of the axes a
    /// grid varies faster than rate (1 for traffic grids).
    pub cells_per_point: usize,
}

/// The arrival trace of one (scenario, rate) point, shared by every cell of
/// the point: its key, the `(scenario, rate, requests, seed)` it is generated
/// from, and the trace once the first of the point's cells to simulate has
/// built it.
#[derive(Debug)]
struct LazyTrace<'g> {
    key: Fingerprint,
    inputs: (&'g Scenario, f64, usize, u64),
    trace: OnceLock<Trace>,
}

/// One cell of a `run_grid` run, handed to its grid's [`Grid::key`] and
/// [`Grid::eval`].
#[derive(Debug)]
pub struct GridCell<'g> {
    /// Flat index in grid order.
    pub index: usize,
    /// Index into [`GridAxes::systems`].
    pub system: usize,
    /// Index into [`GridAxes::scenarios`].
    pub scenario: usize,
    /// Index into [`GridAxes::rates_rps`].
    pub rate: usize,
    /// The system's simulator, shared by all of its cells.
    pub sim: &'g ServingSimulator,
    /// The per-replica batch cap of the (system, scenario).
    pub max_batch: usize,
    trace: &'g LazyTrace<'g>,
}

impl GridCell<'_> {
    /// The content address of the (scenario, rate) trace, made from the
    /// inputs that generate it: [`TRACE_GENERATOR_VERSION`], the scenario,
    /// the rate, the request count and the trace seed. [`Grid::key`] folds
    /// this key in place of the trace's requests.
    pub fn trace_key(&self) -> Fingerprint {
        self.trace.key
    }

    /// The (scenario, rate) trace, shared by every cell of that point and
    /// built by the first one that asks. Only [`Grid::eval`] reads it, so a
    /// memo hit builds no trace.
    pub fn trace(&self) -> &Trace {
        self.trace.trace.get_or_init(|| {
            let _gen = profile_phase("trace_gen");
            let (scenario, rate_rps, requests, seed) = self.trace.inputs;
            scenario.generate(rate_rps, requests, seed)
        })
    }
}

/// A grid a [`GridRunner`] evaluates: its shared axes, the memo key of each
/// cell and the simulation that turns a cell into its record.
pub trait Grid: Sync {
    /// The record of one cell, as the memo stores it.
    type Record: GridRecord + Clone + Send + Sync;

    /// The grid's shared axes for `run_grid`.
    fn axes(&self) -> GridAxes<'_>;

    /// The content address of `cell`'s record: everything the record is a
    /// function of, and nothing that cannot change it — thread counts are an
    /// execution knob, deliberately excluded, so runs at any thread count
    /// share entries.
    fn key(&self, cell: &GridCell<'_>) -> Fingerprint;

    /// Simulates `cell` and summarizes it into its record, recording its
    /// engine decisions onto `recorder` (when attached) and exporting its
    /// per-cell metrics to `control`'s hub.
    fn eval(
        &self,
        cell: &GridCell<'_>,
        recorder: Option<&Arc<TraceRecorder>>,
        control: &RunControl,
    ) -> Self::Record;
}

/// The summary tail of every cell record: the whole run under `slo`, and
/// each tenant under its own objective from `tenant_slos` (every tenant held
/// to `slo` when `None`).
pub fn summarize_cell(
    outcomes: &[RequestOutcome],
    makespan_ns: f64,
    telemetry: &TelemetryStats,
    slo: &SloSpec,
    tenant_slos: Option<&TenantSlos>,
) -> (TrafficSummary, Vec<TenantSummary>) {
    let summary = TrafficSummary::of(outcomes, makespan_ns, telemetry, slo);
    let per_tenant = TenantSummary::per_tenant(
        outcomes,
        makespan_ns,
        telemetry,
        tenant_slos.unwrap_or(&TenantSlos::uniform(*slo)),
        Some((slo, &summary)),
    );
    (summary, per_tenant)
}

/// The front half every grid shares. Flat cell `i` maps to its
/// (system, scenario, rate) point as `i / cells_per_point`, rate fastest, so
/// grids order cells system-major with their own axes innermost. Builds one
/// simulator per system (sharing a prefill cache across that system's
/// cells) and one batch cap per (system, scenario), and keys one trace per
/// (scenario, rate), shared by every system and built by the first of its
/// cells to be evaluated. Then fans the cells out over `threads` workers:
/// each is looked up in the memo under [`Grid::key`] and evaluated by
/// [`Grid::eval`] on a miss (or always, without a memo). Records come back
/// in grid order; per-cell progress and cell-granular cancellation follow
/// `control` — a cancelled run returns [`RunAborted`], and cells finished
/// before the flag went up stay in the memo.
///
/// `eval` runs only on a miss, so a memo-warm cell builds no trace, records
/// nothing onto `recorder` and exports nothing to `control`'s metrics hub:
/// all three happen only for the cells this run simulated.
pub(crate) fn run_grid<G: Grid>(
    threads: usize,
    grid: &G,
    memo: Option<&GridMemo<G::Record>>,
    recorder: Option<&Arc<TraceRecorder>>,
    control: &RunControl,
) -> Result<Vec<G::Record>, RunAborted> {
    let axes = grid.axes();
    let (scenarios, rates) = (axes.scenarios.len(), axes.rates_rps.len());
    let total = axes.systems.len() * scenarios * rates * axes.cells_per_point;
    if total == 0 {
        return Ok(Vec::new());
    }
    if control.cancelled() {
        return Err(RunAborted);
    }

    let sims: Vec<ServingSimulator> = axes
        .systems
        .iter()
        .map(|config| ServingSimulator::new(config.clone()))
        .collect();

    // Each trace draws from its own stream of the grid seed.
    let traces: Vec<LazyTrace<'_>> = (0..scenarios * rates)
        .map(|point| {
            let (scenario, rate) = (
                &axes.scenarios[point / rates],
                axes.rates_rps[point % rates],
            );
            let seed = Pcg32::new_stream(axes.seed, point as u64).next_u64();
            let key = FingerprintBuilder::new()
                .u64(TRACE_GENERATOR_VERSION)
                .debug(scenario)
                .f64(rate)
                .usize(axes.requests_per_cell)
                .u64(seed)
                .finish();
            let inputs = (scenario, rate, axes.requests_per_cell, seed);
            LazyTrace {
                key,
                inputs,
                trace: OnceLock::new(),
            }
        })
        .collect();

    // Independent of the rate axis, so hoisted out of the cell loop.
    let max_batches: Vec<usize> = match axes.max_batch {
        Some(max_batch) => vec![max_batch; axes.systems.len() * scenarios],
        None => parallel_map(axes.systems.len() * scenarios, threads, |i| {
            let (sim, scenario) = (&sims[i / scenarios], &axes.scenarios[i % scenarios]);
            slo_capacity(sim, axes.model, scenario, axes.tpot_ms).1
        }),
    };

    // Counted and reported under one lock: progress never steps backwards,
    // so the last `run_progress_cells_done` gauge write is the total.
    let completed = Mutex::new(0);
    let cells: Vec<Option<G::Record>> = parallel_map(total, threads, |index| {
        if control.cancelled() {
            return None;
        }
        let point = index / axes.cells_per_point;
        let (system, scenario, rate) = (
            point / rates / scenarios,
            point / rates % scenarios,
            point % rates,
        );
        let cell = GridCell {
            index,
            system,
            scenario,
            rate,
            sim: &sims[system],
            max_batch: max_batches[system * scenarios + scenario],
            trace: &traces[scenario * rates + rate],
        };
        let eval = || grid.eval(&cell, recorder, control);
        let record = match memo {
            Some(memo) => (*memo.get_or_insert_with(grid.key(&cell), eval)).clone(),
            None => eval(),
        };
        let mut done = completed.lock().expect("progress lock poisoned");
        *done += 1;
        control.report(*done, total);
        Some(record)
    });
    cells
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(RunAborted)
}

/// Parallel evaluator of any [`Grid`]: cells fan out with [`parallel_map`]
/// over `threads` workers (see `run_grid`). [`TrafficRunner`] and
/// `pimba_fleet`'s `FleetRunner` are this runner over their grids.
#[derive(Debug, Clone)]
pub struct GridRunner<G: Grid> {
    threads: usize,
    memo: Option<Arc<GridMemo<G::Record>>>,
    trace: Option<Arc<TraceRecorder>>,
}

/// The runner of [`TrafficGrid`]s.
pub type TrafficRunner = GridRunner<TrafficGrid>;

/// Written out because a derived default would run on zero threads, which
/// [`parallel_map`] quietly treats as one.
impl<G: Grid> Default for GridRunner<G> {
    fn default() -> Self {
        Self {
            threads: available_cores(),
            memo: None,
            trace: None,
        }
    }
}

impl<G: Grid> GridRunner<G> {
    /// A runner using every available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a [`GridMemo`]: whole cells are looked up before simulating
    /// and stored after. Re-running a grid against a warm memo
    /// returns records byte-identical to a cold run without stepping a single
    /// engine.
    pub fn with_memo(mut self, memo: Arc<GridMemo<G::Record>>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Attaches a [`TraceRecorder`]: every *simulated* cell records its
    /// engine decisions onto tracks named after its grid index — `cell
    /// <index>` for a traffic cell, `cell <index> / …` for a fleet cell's
    /// fleet and replicas (see [`pimba_system::obs`]). Memo-warm cells skip
    /// the engines entirely and therefore record nothing. Records stay
    /// byte-identical with a recorder attached — tracing is write-only.
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Evaluates every cell and returns records in grid order (the grid's
    /// own axes fastest, then rate, then scenario, then system).
    /// Deterministic for any thread count.
    pub fn run(&self, grid: &G) -> Vec<G::Record> {
        self.run_controlled(grid, &RunControl::new())
            .expect("uncontrolled run cannot be cancelled")
    }

    /// [`GridRunner::run`] under a [`RunControl`]: per-cell progress
    /// callbacks and cooperative cell-granular cancellation (the serving
    /// daemon's entry point). A cancelled run returns [`RunAborted`] and
    /// publishes nothing for the cells it skipped; cells that finished before
    /// the flag went up remain in the memo (they are complete and correct).
    pub fn run_controlled(
        &self,
        grid: &G,
        control: &RunControl,
    ) -> Result<Vec<G::Record>, RunAborted> {
        run_grid(
            self.threads,
            grid,
            self.memo.as_deref(),
            self.trace.as_ref(),
            control,
        )
    }
}

/// The cartesian (system × scenario × arrival-rate) grid of one traffic study.
#[derive(Debug, Clone)]
pub struct TrafficGrid {
    /// Serving systems under comparison.
    pub systems: Vec<SystemConfig>,
    /// Traffic scenarios.
    pub scenarios: Vec<Scenario>,
    /// Mean arrival rates in requests/second.
    pub rates_rps: Vec<f64>,
    /// The model every system serves.
    pub model: ModelConfig,
    /// Scheduling policy (one per grid; sweep policies by running several grids).
    pub policy: PolicyKind,
    /// Requests generated per (scenario, rate) trace.
    pub requests_per_cell: usize,
    /// Base seed; every (scenario, rate) trace derives its own PCG stream.
    pub seed: u64,
    /// The SLO defining goodput and attainment.
    pub slo: SloSpec,
    /// Per-tenant SLO overrides for the per-tenant record summaries; `None`
    /// holds every tenant to [`TrafficGrid::slo`].
    pub tenant_slos: Option<TenantSlos>,
    /// Per-replica device-memory budget; `None` uses each system's aggregate
    /// HBM capacity (see [`EngineConfig::capacity_bytes`]).
    pub capacity_bytes: Option<f64>,
    /// Admission-probe anchoring (see [`AdmissionMode`]; the default
    /// final-sequence mode reproduces the historical grids bit for bit).
    pub admission: AdmissionMode,
    /// Sequence-length bucket for step-latency lookups (see
    /// [`EngineConfig::seq_bucket`]).
    pub seq_bucket: usize,
    /// Macro-step fast-forwarding (see [`EngineConfig::fast_forward`]).
    /// Results are bit-identical either way; `false` forces the per-step
    /// oracle loop.
    pub fast_forward: bool,
    /// Ignored, like [`EngineConfig::timeline_sample_every`]: cells keep
    /// exact telemetry aggregates only. Still copied into each cell's
    /// engine config, so memo cell keys stay unchanged.
    pub timeline_sample_every: usize,
}

impl TrafficGrid {
    /// A grid serving `model` with no axes yet — chain the `with_*` builders;
    /// defaults: continuous batching, 200 requests/cell, seed 0xC0FFEE, the
    /// default chat SLO, exact (unbucketed) sequence lengths.
    pub fn new(model: ModelConfig) -> Self {
        Self {
            systems: Vec::new(),
            scenarios: Vec::new(),
            rates_rps: Vec::new(),
            model,
            policy: PolicyKind::Continuous,
            requests_per_cell: 200,
            seed: 0xC0FFEE,
            slo: SloSpec::default(),
            tenant_slos: None,
            capacity_bytes: None,
            admission: AdmissionMode::FinalSeqLen,
            seq_bucket: 1,
            fast_forward: true,
            timeline_sample_every: 1,
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

    /// Replaces the arrival-rate axis.
    pub fn with_rates(mut self, rates_rps: Vec<f64>) -> Self {
        self.rates_rps = rates_rps;
        self
    }

    /// Selects the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
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

    /// Sets the sequence-length bucket for step-latency lookups (must be
    /// positive, matching [`EngineConfig::seq_bucket`]'s contract).
    pub fn with_seq_bucket(mut self, seq_bucket: usize) -> Self {
        assert!(seq_bucket > 0, "seq_bucket must be positive");
        self.seq_bucket = seq_bucket;
        self
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.systems.len() * self.scenarios.len() * self.rates_rps.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The engine configuration of a cell running with batch cap `max_batch`.
    fn engine_config(&self, max_batch: usize) -> EngineConfig {
        EngineConfig {
            max_batch,
            capacity_bytes: self.capacity_bytes,
            seq_bucket: self.seq_bucket,
            fast_forward: self.fast_forward,
            timeline_sample_every: self.timeline_sample_every,
            admission: self.admission,
        }
    }
}

/// The evaluation of one traffic grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRecord {
    /// Index into [`TrafficGrid::systems`].
    pub system: usize,
    /// Index into [`TrafficGrid::scenarios`].
    pub scenario: usize,
    /// Mean arrival rate simulated, in requests/second.
    pub rate_rps: f64,
    /// The batch cap the engine ran with (from the SLO capacity search).
    pub max_batch: usize,
    /// Aggregate metrics under the grid's SLO.
    pub summary: TrafficSummary,
    /// Per-tenant metrics, ascending tenant order, each under its own SLO
    /// from [`TrafficGrid::tenant_slos`] (single-tenant cells get one entry).
    pub per_tenant: Vec<TenantSummary>,
    /// Checkpoint-restore counters of the cell (all zeros for preemption-free
    /// policies).
    pub preemption: crate::metrics::PreemptionStats,
}

impl Grid for TrafficGrid {
    type Record = TrafficRecord;

    fn axes(&self) -> GridAxes<'_> {
        GridAxes {
            systems: &self.systems,
            scenarios: &self.scenarios,
            rates_rps: &self.rates_rps,
            model: &self.model,
            requests_per_cell: self.requests_per_cell,
            seed: self.seed,
            tpot_ms: self.slo.tpot_ms,
            max_batch: None,
            cells_per_point: 1,
        }
    }

    fn key(&self, cell: &GridCell<'_>) -> Fingerprint {
        FingerprintBuilder::new()
            .usize(cell.system)
            .usize(cell.scenario)
            .f64(self.rates_rps[cell.rate])
            .debug(&self.systems[cell.system])
            .debug(&self.model)
            .debug(&self.slo)
            .debug(&self.tenant_slos)
            .debug(&self.policy)
            .debug(&self.engine_config(cell.max_batch))
            .fingerprint(cell.trace_key())
            .finish()
    }

    fn eval(
        &self,
        cell: &GridCell<'_>,
        recorder: Option<&Arc<TraceRecorder>>,
        control: &RunControl,
    ) -> TrafficRecord {
        let engine_config = self.engine_config(cell.max_batch);
        let engine = Engine::new(cell.sim, &self.model, engine_config);
        let mut policy = self.policy.build();
        let sink = match recorder {
            Some(recorder) => recorder.track(&format!("cell {}", cell.index)),
            None => TraceSink::disabled(),
        };
        let result = engine.run_traced(cell.trace(), policy.as_mut(), sink);
        {
            let _export = profile_phase("metrics_export");
            let index = cell.index.to_string();
            result.export_metrics(control.metrics(), &[("cell", &index)]);
        }
        let (summary, per_tenant) = summarize_cell(
            &result.outcomes,
            result.makespan_ns,
            &result.telemetry,
            &self.slo,
            self.tenant_slos.as_ref(),
        );
        TrafficRecord {
            system: cell.system,
            scenario: cell.scenario,
            rate_rps: self.rates_rps[cell.rate],
            max_batch: cell.max_batch,
            summary,
            per_tenant,
            preemption: result.preemption,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimba_models::config::{ModelFamily, ModelScale};
    use pimba_system::config::SystemKind;

    fn small_grid() -> TrafficGrid {
        TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
            .with_systems(vec![
                SystemConfig::small_scale(SystemKind::Gpu),
                SystemConfig::small_scale(SystemKind::Pimba),
            ])
            .with_scenarios(vec![Scenario::chat()])
            .with_rates(vec![4.0, 40.0])
            .with_requests_per_cell(40)
            .with_seq_bucket(32)
    }

    #[test]
    fn warm_memo_rerun_is_byte_identical_with_zero_simulations() {
        let grid = small_grid();
        let memo = Arc::new(TrafficMemo::new());
        let cold = TrafficRunner::new().with_memo(memo.clone()).run(&grid);
        assert_eq!(memo.stats().misses as usize, grid.len());

        let warm = TrafficRunner::new().with_memo(memo.clone()).run(&grid);
        assert_eq!(warm, cold, "warm records must be byte-identical");
        let cells = memo.stats();
        assert_eq!(cells.hits as usize, grid.len(), "every cell from the store");
        assert_eq!(cells.misses as usize, grid.len(), "no warm recomputation");

        // The memo is invisible in the results.
        assert_eq!(TrafficRunner::new().run(&grid), cold);
    }

    #[test]
    fn records_come_back_in_grid_order_with_all_requests_served() {
        let grid = small_grid();
        let records = TrafficRunner::new().with_threads(3).run(&grid);
        assert_eq!(records.len(), grid.len());
        // Rate fastest, then scenario, then system.
        let rates = &grid.rates_rps;
        let order = (0..grid.systems.len()).flat_map(|sys| {
            (0..grid.scenarios.len())
                .flat_map(move |scn| rates.iter().map(move |&rate| (sys, scn, rate)))
        });
        for (rec, (sys, scn, rate)) in records.iter().zip(order) {
            assert_eq!((rec.system, rec.scenario), (sys, scn));
            assert_eq!(rec.rate_rps, rate);
            assert_eq!(rec.summary.completed, grid.requests_per_cell);
            assert!(rec.summary.ttft_ms.p50 > 0.0);
            assert!(rec.summary.e2e_ms.p99 >= rec.summary.e2e_ms.p50);
        }
    }

    #[test]
    fn higher_rate_never_improves_latency() {
        let grid = small_grid();
        let records = TrafficRunner::new().run(&grid);
        for sys in 0..grid.systems.len() {
            let low = records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 4.0);
            let high = records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 40.0);
            let (low, high) = (low.unwrap(), high.unwrap());
            assert!(high.summary.e2e_ms.p99 >= low.summary.e2e_ms.p99);
        }
    }

    #[test]
    fn pimba_sustains_at_least_the_gpu_goodput() {
        let grid = small_grid();
        let records = TrafficRunner::new().run(&grid);
        // At the saturating rate, the PIM-offloaded system must hold at least
        // the GPU baseline's goodput (its decode steps are strictly faster).
        let goodput = |sys: usize| {
            records
                .iter()
                .find(|r| r.system == sys && r.rate_rps == 40.0)
                .unwrap()
                .summary
                .goodput_rps
        };
        assert!(goodput(1) >= goodput(0), "pimba goodput under gpu goodput");
    }

    #[test]
    fn empty_grid_is_empty_result() {
        let grid = small_grid().with_rates(Vec::new());
        assert!(grid.is_empty());
        assert!(TrafficRunner::new().run(&grid).is_empty());
    }

    #[test]
    fn default_threads_are_the_core_count_and_never_zero() {
        assert_eq!(TrafficRunner::new().threads, available_cores());
        assert_eq!(TrafficRunner::default().threads, available_cores());
        assert_eq!(TrafficRunner::new().with_threads(0).threads, 1);
    }
}
