//! The four workloads: their inputs, the untraced timed loop that gives the
//! end-to-end metrics, and the record lines their digests cover.

use crate::daemon::{JobRun, Session, Setup, StoreStats};
use crate::util::{digest, median, percentile, spec_seed};
use netline::Json;
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetModeSpec, FleetRecord, FleetRunner};
use pimba_models::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::traffic::Scenario;
use pimba_serviced::spec::{render_fleet_record, Experiment};
use pimba_serviced::ResultStore;
use pimba_system::cache::LatencyCache;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::RunControl;
use pimba_system::transfer::StateTransferModel;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seeds select one of this many input variants, each with a digest
/// recorded in `digests.txt`.
pub const VARIANTS: u64 = 32;

/// Runner threads used for direct `FleetRunner` calls.
pub const RUNNER_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetCold,
    SweepCold,
    StoreWarm,
    FleetFault,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FleetCold,
        Workload::SweepCold,
        Workload::StoreWarm,
        Workload::FleetFault,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetCold => "fleet_cold",
            Workload::SweepCold => "sweep_cold",
            Workload::StoreWarm => "store_warm",
            Workload::FleetFault => "fleet_fault",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One daemon job: its spec and what answering it involves.
#[derive(Debug, Clone)]
pub struct Job {
    pub spec: Json,
    pub text: String,
    pub exp: Experiment,
    pub cells: usize,
    /// A multi-cell grid (as opposed to a single answer: `what_if` or
    /// `slo_capacity`).
    pub grid: bool,
}

impl Job {
    fn new(text: String, grid: bool) -> Job {
        let spec = Json::parse(&text).expect("benchmark specs are valid JSON");
        let exp = Experiment::from_json(&spec).expect("benchmark specs validate");
        let cells = exp.total_cells();
        Job {
            spec,
            text,
            exp,
            cells,
            grid,
        }
    }
}

/// Requests per `fleet_cold` cell: a round takes about a second, so a run
/// times a score of them.
const FLEET_COLD_REQUESTS: usize = 2000;

/// The 96-cell Mamba-2 fleet grid.
fn fleet_job(seed: u64, requests: usize) -> Job {
    Job::new(
        format!(
            r#"{{"kind":"fleet_grid","model":{{"family":"mamba2","scale":"small"}},"systems":["gpu","pimba"],"scenarios":["chat","reasoning"],"rates_rps":[16,48],"replicas":[1,2,4,8],"routers":["round_robin","jsq","po2"],"requests_per_cell":{requests},"seed":{seed}}}"#
        ),
        true,
    )
}

const FAMILIES: [&str; 7] = ["opt", "llama", "zamba2", "mamba2", "gla", "retnet", "hgrn2"];
const SYSTEMS: &str = r#"["gpu","gpu_quant","gpu_pim","pimba","neupims"]"#;
const SCENARIOS: &str = r#"["chat","summarization","rag_long_context","reasoning"]"#;

/// Requests per `sweep_cold` traffic-grid cell: a round of all 28 jobs takes
/// about a second and a half, so a run times each job a dozen times or more.
const SWEEP_REQUESTS: usize = 100;

/// Per scale and family: one 120-cell traffic grid at `seq_bucket` 1 and one
/// 20-search SLO capacity job.
pub fn sweep_jobs(variant: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (s, scale) in ["small", "large"].into_iter().enumerate() {
        for (f, family) in FAMILIES.iter().enumerate() {
            let index = (s * FAMILIES.len() + f) as u64;
            let seed = spec_seed(variant, (Workload::SweepCold.tag() << 8) + index);
            let model = format!(
                r#""model":{{"family":"{family}","scale":"{scale}"}},"systems":{SYSTEMS},"scenarios":{SCENARIOS}"#
            );
            jobs.push(Job::new(
                format!(
                    r#"{{"kind":"traffic_grid",{model},"rates_rps":[1,2,4,8,16,24],"requests_per_cell":{SWEEP_REQUESTS},"seq_bucket":1,"seed":{seed}}}"#
                ),
                true,
            ));
            jobs.push(Job::new(
                format!(r#"{{"kind":"slo_capacity",{model}}}"#),
                false,
            ));
        }
    }
    jobs
}

/// 40 single-cell what-ifs: 5 systems × 4 scenarios × 2 rates.
pub fn what_if_jobs(variant: u64) -> Vec<Job> {
    let systems = ["gpu", "gpu_quant", "gpu_pim", "pimba", "neupims"];
    let scenarios = ["chat", "summarization", "rag_long_context", "reasoning"];
    let mut jobs = Vec::new();
    for system in systems {
        for scenario in scenarios {
            for rate in [8, 16] {
                let seed = spec_seed(
                    variant,
                    (Workload::StoreWarm.tag() << 8) + jobs.len() as u64,
                );
                jobs.push(Job::new(
                    format!(
                        r#"{{"kind":"what_if","model":{{"family":"mamba2","scale":"small"}},"systems":["{system}"],"scenarios":["{scenario}"],"rates_rps":[{rate}],"requests_per_cell":300,"seed":{seed}}}"#
                    ),
                    false,
                ));
            }
        }
    }
    jobs
}

/// The jobs whose records the store is filled with before `store_warm`.
pub fn warm_fill_jobs(variant: u64) -> Vec<Job> {
    let mut jobs = vec![fleet_job(
        spec_seed(variant, Workload::StoreWarm.tag()),
        2000,
    )];
    jobs.extend(what_if_jobs(variant));
    jobs
}

/// What-ifs per timed `store_warm` round, and how many of them come before
/// each grid resubmit.
const WARM_WHAT_IFS: usize = 1200;
const WARM_WHAT_IFS_PER_GRID: usize = 60;

/// One timed `store_warm` round: indices into [`warm_fill_jobs`].
fn warm_round_plan() -> Vec<usize> {
    let mut plan = Vec::new();
    for k in 0..WARM_WHAT_IFS {
        plan.push(1 + k % 40);
        if (k + 1) % WARM_WHAT_IFS_PER_GRID == 0 {
            plan.push(0);
        }
    }
    plan
}

/// Requests per `fleet_fault` cell, and the fleet-level rate.
const FAULT_REQUESTS: usize = 10_000;
const FAULT_RATE_RPS: f64 = 32.0;
const FAULT_REPLICAS: usize = 4;
const KILLS: u32 = 2;

/// The `fleet_fault` grids: a colocated kill storm under each recovery
/// policy, a fault-free disaggregated 2P+2D fleet on NVLink, and the same
/// fleet with a handoff-link partition.
pub fn fault_grids(variant: u64) -> Vec<(&'static str, FleetGrid)> {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let base = FleetGrid::new(model)
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat(), Scenario::reasoning()])
        .with_rates(vec![FAULT_RATE_RPS])
        .with_replica_counts(vec![FAULT_REPLICAS])
        .with_routers(vec![
            RouterKind::RoundRobin,
            RouterKind::Jsq,
            RouterKind::PowerOfTwo,
        ])
        .with_requests_per_cell(FAULT_REQUESTS)
        .with_seed(spec_seed(variant, Workload::FleetFault.tag()));
    let span_ns = FAULT_REQUESTS as f64 / FAULT_RATE_RPS * 1e9;
    let storm = |recovery| {
        let mut plan = FaultPlan::kill_storm(
            FAULT_REPLICAS,
            KILLS as usize,
            0.25 * span_ns,
            0.3 * span_ns,
            0.2 * span_ns,
        );
        plan.recovery = recovery;
        plan
    };
    let disaggregated = base.clone().with_mode(FleetModeSpec::Disaggregated {
        prefill_fraction: 0.5,
        transfer: StateTransferModel::nvlink(),
    });
    let partition = FaultPlan::default().link_down(0.4 * span_ns, 0.1 * span_ns);
    vec![
        (
            "kill_storm.none",
            base.clone().with_fault(storm(RecoveryPolicy::None)),
        ),
        (
            "kill_storm.retry_only",
            base.clone().with_fault(storm(RecoveryPolicy::RetryOnly)),
        ),
        (
            "kill_storm.migrate",
            base.with_fault(storm(RecoveryPolicy::Migrate)),
        ),
        ("disaggregated", disaggregated.clone()),
        (
            "disaggregated.link_down",
            disaggregated.with_fault(partition),
        ),
    ]
}

/// Conservation for one `fleet_fault` record: every request completed or
/// was lost, and every scheduled fault landed.
fn conserved(name: &str, record: &FleetRecord) -> bool {
    let f = &record.fault;
    let all_accounted = record.summary.completed + f.lost as usize == FAULT_REQUESTS;
    let faults_landed = if name.starts_with("kill_storm") {
        f.crashes == KILLS
    } else if name.ends_with("link_down") {
        f.link_downs == 1
    } else {
        true
    };
    all_accounted && faults_landed
}

/// The canonical record lines one round of `workload` must produce, computed
/// in process; `digests.txt` holds their digests for every variant.
pub fn canonical_lines(workload: Workload, variant: u64) -> Vec<String> {
    let direct = |jobs: Vec<Job>| {
        let store = ResultStore::in_memory();
        jobs.iter()
            .flat_map(|job| {
                job.exp
                    .run(&store, &RunControl::new())
                    .expect("uncontrolled runs finish")
            })
            .collect()
    };
    match workload {
        Workload::FleetCold => direct(vec![fleet_job(
            spec_seed(variant, workload.tag()),
            FLEET_COLD_REQUESTS,
        )]),
        Workload::SweepCold => direct(sweep_jobs(variant)),
        Workload::StoreWarm => direct(warm_fill_jobs(variant)),
        Workload::FleetFault => fault_grids(variant)
            .iter()
            .flat_map(|(_, grid)| {
                FleetRunner::new()
                    .with_threads(RUNNER_THREADS)
                    .run(grid)
                    .iter()
                    .map(render_fleet_record)
                    .collect::<Vec<_>>()
            })
            .collect(),
    }
}

/// What a round's answers must equal.
pub enum Expect {
    /// The digest of every line of the round, in job order.
    Digest(String),
    /// Each job's lines.
    PerJob(Vec<Vec<String>>),
}

/// One round's timings. Every round of a run submits the same job list.
#[derive(Debug, Default)]
pub struct RoundStats {
    /// Wall time of every job, in submission order.
    pub job_s: Vec<f64>,
    /// Which of them are grid jobs.
    pub grid: Vec<bool>,
    /// Cells each job answers.
    pub cells: Vec<usize>,
}

/// The untraced loop's samples, and the job tally.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<RoundStats>,
    pub attempted: u64,
    pub failed: u64,
}

impl E2e {
    /// Every timing sample: set-up times and each round's job times, in s.
    pub fn samples_json(&self) -> Json {
        let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::obj(vec![
            ("setup_s", list(&self.setup_s)),
            (
                "round_job_s",
                Json::Arr(self.rounds.iter().map(|r| list(&r.job_s)).collect()),
            ),
        ])
    }

    /// `(name, value, unit)` of every end-to-end metric.
    ///
    /// A shared host slows the program down by up to half for seconds at a
    /// time and never speeds it up, so each job's time is the lower quartile
    /// of its times over the run's rounds: that skips the slowed rounds
    /// without resting on the one luckiest, and moves least from run to run.
    /// Throughput divides the list's cells by the sum of those times; the p50
    /// and p99 are over the single-answer jobs' times, the grid p50 over the
    /// grid jobs' times.
    pub fn metrics(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        let Some(first) = self.rounds.first() else {
            return Vec::new();
        };
        let typical: Vec<f64> = (0..first.job_s.len())
            .map(|j| {
                let times: Vec<f64> = self.rounds.iter().map(|r| r.job_s[j]).collect();
                percentile(&times, 0.25)
            })
            .collect();
        // Single-answer jobs when the workload has them, else every job.
        let has_singles = first.grid.iter().any(|&g| !g);
        let pick = |grid: bool| -> Vec<f64> {
            typical
                .iter()
                .zip(&first.grid)
                .filter(|(_, &g)| g == grid || (!grid && !has_singles))
                .map(|(&v, _)| v)
                .collect()
        };
        let singles = pick(false);
        let cells: usize = first.cells.iter().sum();
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            (
                "cells_per_s",
                cells as f64 / typical.iter().sum::<f64>(),
                "cells/s",
            ),
            ("job_p50_ms", percentile(&singles, 0.5) * 1e3, "ms"),
            ("job_p99_ms", percentile(&singles, 0.99) * 1e3, "ms"),
            ("grid_job_p50_ms", percentile(&pick(true), 0.5) * 1e3, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }
}

/// Empties (or creates) `dir`.
pub fn fresh_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Everything a daemon round observed.
pub struct RoundOut {
    pub start: Instant,
    pub setup: Setup,
    pub runs: Vec<JobRun>,
    /// The store's counters after the last job, when asked for.
    pub stats: Option<StoreStats>,
    pub stop_start: Instant,
    pub end: Instant,
}

/// One round through the daemon: start it over the store at `dir`, run
/// `jobs` one at a time over one connection, stop it. Tallies failures
/// against `expect` into `e2e`.
pub fn daemon_round(
    dir: &Path,
    jobs: &[&Job],
    expect: &Expect,
    want_stats: bool,
    e2e: &mut E2e,
) -> io::Result<RoundOut> {
    let start = Instant::now();
    let (mut session, setup) = Session::start(dir)?;
    let mut runs = Vec::with_capacity(jobs.len());
    for job in jobs {
        runs.push(session.run(&job.spec)?);
    }
    let stats = if want_stats {
        Some(StoreStats::from_reply(&session.stats()?))
    } else {
        None
    };
    let stop_start = Instant::now();
    session.stop();
    let end = Instant::now();

    e2e.setup_s.push(setup.secs());
    e2e.attempted += jobs.len() as u64;
    let failed = match expect {
        Expect::Digest(want) => {
            let lines: Vec<String> = runs.iter().flat_map(|r| r.lines.iter().cloned()).collect();
            if runs.iter().all(JobRun::ok) && digest(&lines) == *want {
                0
            } else {
                eprintln!("round answers do not match the recorded digest");
                jobs.len()
            }
        }
        Expect::PerJob(want) => runs
            .iter()
            .zip(want)
            .filter(|(run, want)| !run.ok() || run.lines != **want)
            .count(),
    };
    e2e.failed += failed as u64;
    e2e.rounds.push(RoundStats {
        job_s: runs.iter().map(JobRun::secs).collect(),
        grid: jobs.iter().map(|j| j.grid).collect(),
        cells: jobs.iter().map(|j| j.cells).collect(),
    });
    Ok(RoundOut {
        start,
        setup,
        runs,
        stats,
        stop_start,
        end,
    })
}

/// Set-up samples per cold round beyond the round's own: start and stop the
/// daemon over an empty store.
const SETUP_PROBES: usize = 9;

fn probe_setups(dir: &Path, e2e: &mut E2e) -> io::Result<()> {
    for _ in 0..SETUP_PROBES {
        fresh_dir(dir)?;
        let (session, setup) = Session::start(dir)?;
        session.stop();
        e2e.setup_s.push(setup.secs());
    }
    Ok(())
}

/// The inputs one run of a workload uses.
pub struct Plan {
    pub workload: Workload,
    pub variant: u64,
    /// The recorded digest of the workload's canonical lines.
    pub digest: String,
    pub out: PathBuf,
}

impl Plan {
    pub fn store_dir(&self) -> PathBuf {
        self.out.join("store")
    }

    /// The jobs of one daemon round, and what they must answer.
    pub fn round_jobs(&self, fill: &[Vec<String>]) -> (Vec<Job>, Vec<usize>, Expect) {
        match self.workload {
            Workload::FleetCold => {
                let jobs = vec![fleet_job(
                    spec_seed(self.variant, self.workload.tag()),
                    FLEET_COLD_REQUESTS,
                )];
                (jobs, vec![0], Expect::Digest(self.digest.clone()))
            }
            Workload::SweepCold => {
                let jobs = sweep_jobs(self.variant);
                let order = (0..jobs.len()).collect();
                (jobs, order, Expect::Digest(self.digest.clone()))
            }
            Workload::StoreWarm => {
                let plan = warm_round_plan();
                let expect = plan.iter().map(|&i| fill[i].clone()).collect();
                (warm_fill_jobs(self.variant), plan, Expect::PerJob(expect))
            }
            Workload::FleetFault => unreachable!("fleet_fault runs without the daemon"),
        }
    }

    /// `store_warm`'s untimed fill: the fill jobs through the daemon over a
    /// fresh store. Returns each job's lines.
    pub fn fill_store(&self, e2e: &mut E2e) -> io::Result<Vec<Vec<String>>> {
        let dir = self.store_dir();
        fresh_dir(&dir)?;
        let jobs = warm_fill_jobs(self.variant);
        let refs: Vec<&Job> = jobs.iter().collect();
        let mut scratch = E2e::default();
        let out = daemon_round(
            &dir,
            &refs,
            &Expect::Digest(self.digest.clone()),
            false,
            &mut scratch,
        )?;
        e2e.attempted += scratch.attempted;
        e2e.failed += scratch.failed;
        Ok(out.runs.into_iter().map(|r| r.lines).collect())
    }

    /// One round of a daemon workload; the cold ones first take extra set-up
    /// samples and then start from an empty store.
    pub fn daemon_round(
        &self,
        fill: &[Vec<String>],
        want_stats: bool,
        e2e: &mut E2e,
    ) -> io::Result<(RoundOut, Vec<Job>, Vec<usize>)> {
        let dir = self.store_dir();
        if self.workload != Workload::StoreWarm {
            probe_setups(&self.out.join("probe"), e2e)?;
            fresh_dir(&dir)?;
        }
        let (jobs, order, expect) = self.round_jobs(fill);
        let refs: Vec<&Job> = order.iter().map(|&i| &jobs[i]).collect();
        let out = daemon_round(&dir, &refs, &expect, want_stats, e2e)?;
        Ok((out, jobs, order))
    }
}

/// Grid and simulator construction repeated per `fleet_fault` round.
const FAULT_SETUPS: usize = 20;

/// One direct `FleetRunner` call of a `fleet_fault` round.
pub struct FaultCall {
    pub name: &'static str,
    pub grid: FleetGrid,
    pub start: Instant,
    pub end: Instant,
    pub records: Vec<FleetRecord>,
}

/// One `fleet_fault` round: construct the grids and simulators, then run
/// each grid through a two-thread `FleetRunner`. Returns the calls and the
/// set-up interval.
pub fn fault_round(plan: &Plan, e2e: &mut E2e) -> (Vec<FaultCall>, Instant, Instant) {
    let mut grids = Vec::new();
    let setup_start = Instant::now();
    for _ in 0..FAULT_SETUPS {
        let start = Instant::now();
        grids = fault_grids(plan.variant);
        let sims: Vec<ServingSimulator> = grids[0]
            .1
            .systems
            .iter()
            .map(|c| ServingSimulator::with_cache(c.clone(), Arc::new(LatencyCache::new())))
            .collect();
        std::hint::black_box(sims);
        e2e.setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup_end = Instant::now();
    let runner = FleetRunner::new().with_threads(RUNNER_THREADS);
    let calls: Vec<FaultCall> = grids
        .into_iter()
        .map(|(name, grid)| {
            let start = Instant::now();
            let records = runner.run(&grid);
            FaultCall {
                name,
                grid,
                start,
                end: Instant::now(),
                records,
            }
        })
        .collect();
    let mut lines = Vec::new();
    let mut failed = 0;
    for call in &calls {
        if !call.records.iter().all(|r| conserved(call.name, r)) {
            eprintln!(
                "{}: requests not conserved or a scheduled fault did not land",
                call.name
            );
            failed += 1;
        }
        lines.extend(call.records.iter().map(render_fleet_record));
    }
    if digest(&lines) != plan.digest {
        eprintln!("fleet_fault records do not match the recorded digest");
        failed = calls.len();
    }
    e2e.attempted += calls.len() as u64;
    e2e.failed += failed as u64;
    e2e.rounds.push(RoundStats {
        job_s: calls
            .iter()
            .map(|c| (c.end - c.start).as_secs_f64())
            .collect(),
        grid: vec![true; calls.len()],
        cells: calls.iter().map(|c| c.grid.len()).collect(),
    });
    (calls, setup_start, setup_end)
}

/// The untraced timed loop: rounds until `seconds` have passed (at least
/// one).
pub fn run_e2e(plan: &Plan, seconds: f64) -> io::Result<E2e> {
    let mut e2e = E2e::default();
    let fill = if plan.workload == Workload::StoreWarm {
        plan.fill_store(&mut e2e)?
    } else {
        Vec::new()
    };
    let start = Instant::now();
    while e2e.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if plan.workload == Workload::FleetFault {
            fault_round(plan, &mut e2e);
        } else {
            plan.daemon_round(&fill, false, &mut e2e)?;
        }
    }
    Ok(e2e)
}
