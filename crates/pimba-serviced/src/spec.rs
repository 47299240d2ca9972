//! Experiment specs: the JSON surface of the daemon, its validation, and the
//! canonical record rendering both the daemon and direct runs share.
//!
//! A spec names one experiment over the existing grid runners:
//!
//! * `"traffic_grid"` — a [`TrafficGrid`] (system × scenario × rate) run,
//! * `"fleet_grid"` — a [`FleetGrid`] (× replicas × router) run,
//! * `"slo_capacity"` — the per-(system, scenario) SLO batch-capacity
//!   searches alone ([`slo_capacity`]),
//! * `"what_if"` — a single traffic cell (every axis exactly one value).
//!
//! Parsing is strict and structured: every rejection is a [`SpecError`]
//! naming the offending field, never a panic. Results are rendered to
//! *canonical JSONL* by [`render_traffic_record`]/[`render_fleet_record`] —
//! one compact JSON object per record, fields in a fixed order, floats in
//! Rust's shortest round-trip form. The daemon streams exactly these strings,
//! so "served bytes == direct-run bytes" reduces to both paths calling the
//! same function on bit-identical records (which the memo guarantees).

use netline::Json;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRecord};
use pimba_models::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::metrics::{Percentiles, SloSpec, TenantSummary, TrafficSummary};
use pimba_serve::runner::{slo_capacity, Grid, GridMemo, GridRunner, TrafficGrid, TrafficRecord};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::obs::TraceRecorder;
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{RunAborted, RunControl};
use std::fmt;
use std::sync::Arc;

use crate::store::ResultStore;

/// A structured spec rejection: which field, and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (e.g. `"spec.model.family"`).
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl SpecError {
    fn new(field: &str, message: impl Into<String>) -> Self {
        Self {
            field: field.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

/// A validated experiment, ready to run. Built from JSON by
/// [`Experiment::from_json`]; the field surface is documented there.
#[derive(Debug, Clone)]
pub enum Experiment {
    /// A serving-traffic grid (`"traffic_grid"` or single-cell `"what_if"`).
    Traffic(TrafficGrid),
    /// A fleet grid (`"fleet_grid"`).
    Fleet(FleetGrid),
    /// The SLO capacity searches alone (`"slo_capacity"`).
    Capacity(CapacitySpec),
}

/// The `"slo_capacity"` experiment: per-(system, scenario) searches for the
/// largest batch meeting the per-step SLO at the scenario's typical length.
#[derive(Debug, Clone)]
pub struct CapacitySpec {
    /// System axis.
    pub systems: Vec<SystemConfig>,
    /// Scenario axis (supplies the anchor sequence length).
    pub scenarios: Vec<Scenario>,
    /// Model preset.
    pub model: ModelConfig,
    /// The TPOT bound being searched against.
    pub slo: SloSpec,
}

/// The experiment kinds a spec may name.
const KINDS: [&str; 4] = ["traffic_grid", "fleet_grid", "slo_capacity", "what_if"];

/// The largest `requests_per_cell` a spec may ask for. A cell's trace is
/// built whole in memory before it runs, and a failed allocation aborts the
/// daemon rather than failing one job.
pub(crate) const MAX_REQUESTS_PER_CELL: usize = 1_000_000;

/// The most trace requests a spec may make a grid build: one trace of
/// `requests_per_cell` requests per (scenario, rate), each held in memory
/// from its first missed cell until the grid ends. Admits four full
/// [`MAX_REQUESTS_PER_CELL`] traces.
pub(crate) const MAX_TRACE_REQUESTS: usize = 4 * MAX_REQUESTS_PER_CELL;

/// The largest entry a fleet spec's `replicas` list may hold.
pub(crate) const MAX_REPLICAS: usize = 1024;

fn parse_family(name: &str) -> Option<ModelFamily> {
    Some(match name {
        "retnet" => ModelFamily::RetNet,
        "gla" => ModelFamily::Gla,
        "hgrn2" => ModelFamily::Hgrn2,
        "mamba2" => ModelFamily::Mamba2,
        "zamba2" => ModelFamily::Zamba2,
        "opt" => ModelFamily::Opt,
        "llama" => ModelFamily::Llama,
        _ => return None,
    })
}

fn parse_scale(name: &str) -> Option<ModelScale> {
    Some(match name {
        "small" => ModelScale::Small,
        "large" => ModelScale::Large,
        _ => return None,
    })
}

fn parse_system(name: &str, scale: ModelScale) -> Option<SystemConfig> {
    let kind = match name {
        "gpu" => SystemKind::Gpu,
        "gpu_quant" => SystemKind::GpuQuant,
        "gpu_pim" => SystemKind::GpuPim,
        "pimba" => SystemKind::Pimba,
        "neupims" => SystemKind::NeuPims,
        _ => return None,
    };
    Some(match scale {
        ModelScale::Small => SystemConfig::small_scale(kind),
        ModelScale::Large => SystemConfig::large_scale(kind),
    })
}

fn parse_scenario(name: &str) -> Option<Scenario> {
    Some(match name {
        "chat" => Scenario::chat(),
        "summarization" => Scenario::summarization(),
        "rag_long_context" => Scenario::rag_long_context(),
        "reasoning" => Scenario::reasoning(),
        _ => return None,
    })
}

fn parse_router(name: &str) -> Option<RouterKind> {
    Some(match name {
        "round_robin" => RouterKind::RoundRobin,
        "jsq" => RouterKind::Jsq,
        "po2" => RouterKind::PowerOfTwo,
        "tenant_affinity" => RouterKind::TenantAffinity,
        _ => return None,
    })
}

fn str_field<'a>(spec: &'a Json, field: &str) -> Result<&'a str, SpecError> {
    spec.get(field)
        .ok_or_else(|| SpecError::new(field, "missing required field"))?
        .as_str()
        .ok_or_else(|| SpecError::new(field, "must be a string"))
}

fn str_list(spec: &Json, field: &str) -> Result<Vec<String>, SpecError> {
    let arr = spec
        .get(field)
        .ok_or_else(|| SpecError::new(field, "missing required field"))?
        .as_arr()
        .ok_or_else(|| SpecError::new(field, "must be an array of strings"))?;
    if arr.is_empty() {
        return Err(SpecError::new(field, "must not be empty"));
    }
    arr.iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| SpecError::new(field, "must be an array of strings"))
        })
        .collect()
}

fn num_list(spec: &Json, field: &str) -> Result<Vec<f64>, SpecError> {
    let arr = spec
        .get(field)
        .ok_or_else(|| SpecError::new(field, "missing required field"))?
        .as_arr()
        .ok_or_else(|| SpecError::new(field, "must be an array of numbers"))?;
    if arr.is_empty() {
        return Err(SpecError::new(field, "must not be empty"));
    }
    arr.iter()
        .map(|v| {
            v.as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or_else(|| SpecError::new(field, "must be an array of positive numbers"))
        })
        .collect()
}

fn usize_list(spec: &Json, field: &str) -> Result<Vec<usize>, SpecError> {
    let arr = spec
        .get(field)
        .ok_or_else(|| SpecError::new(field, "missing required field"))?
        .as_arr()
        .ok_or_else(|| SpecError::new(field, "must be an array of positive integers"))?;
    if arr.is_empty() {
        return Err(SpecError::new(field, "must not be empty"));
    }
    arr.iter()
        .map(|v| {
            v.as_i64()
                .filter(|n| *n > 0)
                .map(|n| n as usize)
                .ok_or_else(|| SpecError::new(field, "must be an array of positive integers"))
        })
        .collect()
}

fn opt_usize(spec: &Json, field: &str, default: usize) -> Result<usize, SpecError> {
    match spec.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .filter(|n| *n > 0)
            .map(|n| n as usize)
            .ok_or_else(|| SpecError::new(field, "must be a positive integer")),
    }
}

/// `value`, or an error naming `field` when it exceeds `max`.
fn at_most(field: &str, value: usize, max: usize) -> Result<usize, SpecError> {
    if value > max {
        return Err(SpecError::new(field, format!("must be at most {max}")));
    }
    Ok(value)
}

fn opt_slo(spec: &Json) -> Result<Option<SloSpec>, SpecError> {
    let Some(slo) = spec.get("slo") else {
        return Ok(None);
    };
    let bound = |field: &str| -> Result<f64, SpecError> {
        slo.get(field)
            .ok_or_else(|| SpecError::new(&format!("slo.{field}"), "missing required field"))?
            .as_f64()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| SpecError::new(&format!("slo.{field}"), "must be a positive number"))
    };
    Ok(Some(SloSpec {
        ttft_ms: bound("ttft_ms")?,
        tpot_ms: bound("tpot_ms")?,
    }))
}

/// Parses a submitted spec into its experiment and whether it opted into
/// per-job trace capture — the one parser behind the daemon's `submit` verb
/// and the binary's one-shot mode.
pub fn parse_submission(spec: &Json) -> Result<(Experiment, bool), SpecError> {
    Ok((Experiment::from_json(spec)?, trace_requested(spec)?))
}

/// Whether `spec` opted into per-job trace capture (`"trace": true`).
/// Absent means no trace; a non-boolean value is a [`SpecError`]. The flag
/// lives beside the experiment fields but is parsed separately —
/// [`Experiment::from_json`] describes *what* to run, this describes what to
/// record about the run.
fn trace_requested(spec: &Json) -> Result<bool, SpecError> {
    match spec.get("trace") {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| SpecError::new("trace", "must be a boolean")),
    }
}

impl Experiment {
    /// Validates a JSON spec into a runnable experiment.
    ///
    /// Required fields: `kind` (one of `traffic_grid`, `fleet_grid`,
    /// `slo_capacity`, `what_if`), `model` (`{"family", "scale"}`),
    /// `systems`, `scenarios`, and (except for `slo_capacity`) `rates_rps`.
    /// Fleet grids additionally require `replicas` and `routers`; each
    /// replica count is at most 1024. Optional: `requests_per_cell`
    /// (default 20, at most 1 000 000; scenarios × rates × requests at most
    /// 4 000 000, an error naming `rates_rps`),
    /// `seq_bucket` (default 32), `seed`,
    /// `policy` (a [`PolicyKind`] name), `slo`
    /// (`{"ttft_ms", "tpot_ms"}`). `what_if` demands exactly one entry per
    /// axis. Every violation comes back as a [`SpecError`] naming the field.
    /// The sibling `trace` flag is parsed by [`parse_submission`], not here.
    pub fn from_json(spec: &Json) -> Result<Experiment, SpecError> {
        if !matches!(spec, Json::Obj(_)) {
            return Err(SpecError::new("spec", "must be a JSON object"));
        }
        let kind = str_field(spec, "kind")?;
        if !KINDS.contains(&kind) {
            return Err(SpecError::new(
                "kind",
                format!(
                    "unknown kind '{kind}' (expected one of {})",
                    KINDS.join(", ")
                ),
            ));
        }

        let model_obj = spec
            .get("model")
            .ok_or_else(|| SpecError::new("model", "missing required field"))?;
        let family_name = str_field(model_obj, "family")
            .map_err(|e| SpecError::new(&format!("model.{}", e.field), e.message))?;
        let family = parse_family(family_name).ok_or_else(|| {
            SpecError::new(
                "model.family",
                format!(
                    "unknown family '{family_name}' (expected one of \
                     retnet, gla, hgrn2, mamba2, zamba2, opt, llama)"
                ),
            )
        })?;
        let scale_name = str_field(model_obj, "scale")
            .map_err(|e| SpecError::new(&format!("model.{}", e.field), e.message))?;
        let scale = parse_scale(scale_name).ok_or_else(|| {
            SpecError::new(
                "model.scale",
                format!("unknown scale '{scale_name}' (expected small or large)"),
            )
        })?;
        let model = ModelConfig::preset(family, scale);

        let systems: Vec<SystemConfig> = str_list(spec, "systems")?
            .iter()
            .map(|name| {
                parse_system(name, scale).ok_or_else(|| {
                    SpecError::new(
                        "systems",
                        format!(
                            "unknown system '{name}' (expected one of \
                             gpu, gpu_quant, gpu_pim, pimba, neupims)"
                        ),
                    )
                })
            })
            .collect::<Result<_, _>>()?;

        let scenarios: Vec<Scenario> = str_list(spec, "scenarios")?
            .iter()
            .map(|name| {
                parse_scenario(name).ok_or_else(|| {
                    SpecError::new(
                        "scenarios",
                        format!(
                            "unknown scenario '{name}' (expected one of \
                             chat, summarization, rag_long_context, reasoning)"
                        ),
                    )
                })
            })
            .collect::<Result<_, _>>()?;

        let slo = opt_slo(spec)?;

        if kind == "slo_capacity" {
            return Ok(Experiment::Capacity(CapacitySpec {
                systems,
                scenarios,
                model,
                slo: slo.unwrap_or_default(),
            }));
        }

        let rates = num_list(spec, "rates_rps")?;
        let requests = at_most(
            "requests_per_cell",
            opt_usize(spec, "requests_per_cell", 20)?,
            MAX_REQUESTS_PER_CELL,
        )?;
        let trace_requests = scenarios
            .len()
            .saturating_mul(rates.len())
            .saturating_mul(requests);
        if trace_requests > MAX_TRACE_REQUESTS {
            return Err(SpecError::new(
                "rates_rps",
                format!(
                    "scenarios x rates_rps x requests_per_cell must be at most \
                     {MAX_TRACE_REQUESTS} trace requests (got {trace_requests})"
                ),
            ));
        }
        let seq_bucket = opt_usize(spec, "seq_bucket", 32)?;
        let seed = match spec.get("seed") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| SpecError::new("seed", "must be a non-negative integer"))?,
            ),
        };
        let policy =
            match spec.get("policy") {
                None => None,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| SpecError::new("policy", "must be a string"))?;
                    Some(PolicyKind::from_name(name).ok_or_else(|| {
                        SpecError::new("policy", format!("unknown policy '{name}'"))
                    })?)
                }
            };

        match kind {
            "traffic_grid" | "what_if" => {
                if kind == "what_if" {
                    let axes = [
                        ("systems", systems.len()),
                        ("scenarios", scenarios.len()),
                        ("rates_rps", rates.len()),
                    ];
                    if let Some((field, _)) = axes.iter().find(|(_, len)| *len != 1) {
                        return Err(SpecError::new(
                            field,
                            "what_if requires exactly one system, scenario and rate",
                        ));
                    }
                }
                let mut grid = TrafficGrid::new(model)
                    .with_systems(systems)
                    .with_scenarios(scenarios)
                    .with_rates(rates)
                    .with_requests_per_cell(requests)
                    .with_seq_bucket(seq_bucket);
                if let Some(seed) = seed {
                    grid = grid.with_seed(seed);
                }
                if let Some(policy) = policy {
                    grid = grid.with_policy(policy);
                }
                if let Some(slo) = slo {
                    grid = grid.with_slo(slo);
                }
                Ok(Experiment::Traffic(grid))
            }
            // `kind` is one of KINDS, so this is "fleet_grid".
            _ => {
                let replicas = usize_list(spec, "replicas")?
                    .into_iter()
                    .map(|n| at_most("replicas", n, MAX_REPLICAS))
                    .collect::<Result<Vec<_>, _>>()?;
                let routers: Vec<RouterKind> = str_list(spec, "routers")?
                    .iter()
                    .map(|name| {
                        parse_router(name).ok_or_else(|| {
                            SpecError::new(
                                "routers",
                                format!(
                                    "unknown router '{name}' (expected one of \
                                     round_robin, jsq, po2, tenant_affinity)"
                                ),
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
                let mut grid = FleetGrid::new(model)
                    .with_systems(systems)
                    .with_scenarios(scenarios)
                    .with_rates(rates)
                    .with_replica_counts(replicas)
                    .with_routers(routers)
                    .with_requests_per_cell(requests)
                    .with_seq_bucket(seq_bucket);
                if let Some(seed) = seed {
                    grid = grid.with_seed(seed);
                }
                if let Some(policy) = policy {
                    grid = grid.with_policy(policy);
                }
                if let Some(slo) = slo {
                    grid = grid.with_slo(slo);
                }
                Ok(Experiment::Fleet(grid))
            }
        }
    }

    /// Number of result records the experiment will produce (the progress
    /// denominator).
    pub fn total_cells(&self) -> usize {
        match self {
            Experiment::Traffic(grid) => grid.len(),
            Experiment::Fleet(grid) => grid.len(),
            Experiment::Capacity(cap) => cap.systems.len() * cap.scenarios.len(),
        }
    }

    /// Runs the experiment against `store`'s memos under `control`, returning
    /// the canonical JSONL record lines in grid order. Byte-identical to a
    /// direct runner call rendered through the same `render_*` functions —
    /// cold or warm.
    pub fn run(
        &self,
        store: &ResultStore,
        control: &RunControl,
    ) -> Result<Vec<String>, RunAborted> {
        Ok(self.run_traced(store, control, false)?.0)
    }

    /// [`Experiment::run`] with opt-in trace capture: when `trace` is set the
    /// grid runners record a deterministic event trace (spans and instants in
    /// *simulated* time — see [`pimba_system::obs`]) whose canonical JSONL
    /// rendering is returned beside the record lines. The sinks are
    /// write-only, so recording never changes the record bytes — the
    /// byte-identity guarantee is unaffected. Warm (memoized) cells record
    /// nothing, and `slo_capacity` runs have no traced runner: both yield an
    /// empty trace string.
    pub fn run_traced(
        &self,
        store: &ResultStore,
        control: &RunControl,
        trace: bool,
    ) -> Result<(Vec<String>, Option<String>), RunAborted> {
        let recorder = trace.then(|| Arc::new(TraceRecorder::new()));
        let lines = match self {
            Experiment::Traffic(grid) => run_grid_lines(
                grid,
                &store.traffic,
                recorder.as_ref(),
                control,
                render_traffic_record,
            )?,
            Experiment::Fleet(grid) => run_grid_lines(
                grid,
                &store.fleet,
                recorder.as_ref(),
                control,
                render_fleet_record,
            )?,
            Experiment::Capacity(cap) => {
                let total = cap.systems.len() * cap.scenarios.len();
                let mut lines = Vec::with_capacity(total);
                for (sys, system) in cap.systems.iter().enumerate() {
                    let sim = ServingSimulator::new(system.clone());
                    for (scn, scenario) in cap.scenarios.iter().enumerate() {
                        if control.cancelled() {
                            return Err(RunAborted);
                        }
                        let (anchor_seq, max_batch) =
                            slo_capacity(&sim, &cap.model, scenario, cap.slo.tpot_ms);
                        lines.push(
                            Json::obj(vec![
                                ("system", Json::Int(sys as i64)),
                                ("scenario", Json::Int(scn as i64)),
                                ("anchor_seq", Json::Int(anchor_seq as i64)),
                                ("max_batch", Json::Int(max_batch as i64)),
                            ])
                            .render(),
                        );
                        control.report(lines.len(), total);
                    }
                }
                lines
            }
        };
        Ok((lines, recorder.map(|r| r.to_jsonl())))
    }
}

/// Runs `grid` through a [`GridRunner`] on `memo` (recording onto
/// `recorder` when attached) and renders its records with `render`.
fn run_grid_lines<G: Grid>(
    grid: &G,
    memo: &Arc<GridMemo<G::Record>>,
    recorder: Option<&Arc<TraceRecorder>>,
    control: &RunControl,
    render: fn(&G::Record) -> String,
) -> Result<Vec<String>, RunAborted> {
    let mut runner = GridRunner::new().with_memo(Arc::clone(memo));
    if let Some(recorder) = recorder {
        runner = runner.with_trace(Arc::clone(recorder));
    }
    Ok(runner
        .run_controlled(grid, control)?
        .iter()
        .map(render)
        .collect())
}

fn percentiles_json(p: &Percentiles) -> Json {
    Json::obj(vec![
        ("p50", Json::Num(p.p50)),
        ("p90", Json::Num(p.p90)),
        ("p99", Json::Num(p.p99)),
    ])
}

fn summary_json(s: &TrafficSummary) -> Json {
    Json::obj(vec![
        ("completed", Json::Int(s.completed as i64)),
        ("ttft_ms", percentiles_json(&s.ttft_ms)),
        ("tpot_ms", percentiles_json(&s.tpot_ms)),
        ("e2e_ms", percentiles_json(&s.e2e_ms)),
        ("throughput_rps", Json::Num(s.throughput_rps)),
        ("goodput_rps", Json::Num(s.goodput_rps)),
        ("slo_attainment", Json::Num(s.slo_attainment)),
        ("mean_batch_occupancy", Json::Num(s.mean_batch_occupancy)),
        ("peak_queue_depth", Json::Int(s.peak_queue_depth as i64)),
        ("makespan_s", Json::Num(s.makespan_s)),
    ])
}

fn tenants_json(tenants: &[TenantSummary]) -> Json {
    Json::Arr(
        tenants
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("tenant", Json::Int(t.tenant as i64)),
                    ("summary", summary_json(&t.summary)),
                ])
            })
            .collect(),
    )
}

/// Renders one traffic record to its canonical JSONL form — the byte-identity
/// surface shared by the daemon stream and direct runs.
pub fn render_traffic_record(r: &TrafficRecord) -> String {
    Json::obj(vec![
        ("system", Json::Int(r.system as i64)),
        ("scenario", Json::Int(r.scenario as i64)),
        ("rate_rps", Json::Num(r.rate_rps)),
        ("max_batch", Json::Int(r.max_batch as i64)),
        ("summary", summary_json(&r.summary)),
        ("per_tenant", tenants_json(&r.per_tenant)),
        (
            "preemption",
            Json::obj(vec![
                ("evictions", Json::Int(r.preemption.evictions as i64)),
                ("resumes", Json::Int(r.preemption.resumes as i64)),
                ("checkpoint_bytes", Json::Num(r.preemption.checkpoint_bytes)),
                ("restore_bytes", Json::Num(r.preemption.restore_bytes)),
                (
                    "checkpoint_stall_ns",
                    Json::Num(r.preemption.checkpoint_stall_ns),
                ),
                ("restore_stall_ns", Json::Num(r.preemption.restore_stall_ns)),
            ]),
        ),
    ])
    .render()
}

/// Renders one fleet record to its canonical JSONL form (see
/// [`render_traffic_record`]).
pub fn render_fleet_record(r: &FleetRecord) -> String {
    Json::obj(vec![
        ("system", Json::Int(r.system as i64)),
        ("scenario", Json::Int(r.scenario as i64)),
        ("rate_rps", Json::Num(r.rate_rps)),
        ("replicas", Json::Int(r.replicas as i64)),
        ("router", Json::str(r.router.name())),
        ("max_batch", Json::Int(r.max_batch as i64)),
        ("summary", summary_json(&r.summary)),
        ("goodput_per_replica", Json::Num(r.goodput_per_replica)),
        (
            "per_replica_completed",
            Json::Arr(
                r.per_replica_completed
                    .iter()
                    .map(|&n| Json::Int(n as i64))
                    .collect(),
            ),
        ),
        ("per_tenant", tenants_json(&r.per_tenant)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic_spec() -> Json {
        Json::parse(
            r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
                "systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[8.0],
                "requests_per_cell":10,"seed":7}"#,
        )
        .unwrap()
    }

    #[test]
    fn valid_specs_parse() {
        let exp = Experiment::from_json(&traffic_spec()).unwrap();
        assert!(matches!(exp, Experiment::Traffic(_)));
        assert_eq!(exp.total_cells(), 2);

        let fleet = Json::parse(
            r#"{"kind":"fleet_grid","model":{"family":"gla","scale":"small"},
                "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
                "replicas":[2],"routers":["round_robin","jsq"]}"#,
        )
        .unwrap();
        let exp = Experiment::from_json(&fleet).unwrap();
        assert!(matches!(exp, Experiment::Fleet(_)));
        assert_eq!(exp.total_cells(), 2);

        let cap = Json::parse(
            r#"{"kind":"slo_capacity","model":{"family":"retnet","scale":"small"},
                "systems":["gpu","pimba"],"scenarios":["chat","reasoning"]}"#,
        )
        .unwrap();
        assert_eq!(Experiment::from_json(&cap).unwrap().total_cells(), 4);
    }

    #[test]
    fn seeds_take_the_full_u64_range() {
        let spec = |seed: &str| {
            Json::parse(&format!(
                r#"{{"kind":"fleet_grid","model":{{"family":"mamba2","scale":"small"}},
                    "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
                    "replicas":[2],"routers":["jsq"],"seed":{seed}}}"#
            ))
            .unwrap()
        };
        for seed in [0, i64::MAX as u64 + 1, u64::MAX] {
            match Experiment::from_json(&spec(&seed.to_string())).unwrap() {
                Experiment::Fleet(grid) => assert_eq!(grid.seed, seed),
                _ => panic!("a fleet_grid spec builds a fleet grid"),
            }
        }
        for bad in ["-1", "1.5", "18446744073709551616", "\"7\""] {
            let err = Experiment::from_json(&spec(bad)).unwrap_err();
            assert_eq!(err.field, "seed", "seed {bad}");
        }
    }

    #[test]
    fn errors_name_the_field() {
        let missing = Json::parse(r#"{"kind":"traffic_grid"}"#).unwrap();
        let err = Experiment::from_json(&missing).unwrap_err();
        assert_eq!(err.field, "model");

        let bad_family = Json::parse(
            r#"{"kind":"traffic_grid","model":{"family":"gpt5","scale":"small"},
                "systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
        )
        .unwrap();
        let err = Experiment::from_json(&bad_family).unwrap_err();
        assert_eq!(err.field, "model.family");
        assert!(err.message.contains("gpt5"));

        let bad_rate = Json::parse(
            r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
                "systems":["gpu"],"scenarios":["chat"],"rates_rps":[-3.0]}"#,
        )
        .unwrap();
        assert_eq!(
            Experiment::from_json(&bad_rate).unwrap_err().field,
            "rates_rps"
        );

        let bad_kind = Json::parse(
            r#"{"kind":"mystery","model":{"family":"mamba2","scale":"small"},
                "systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
        )
        .unwrap();
        assert_eq!(Experiment::from_json(&bad_kind).unwrap_err().field, "kind");

        let fat_what_if = Json::parse(
            r#"{"kind":"what_if","model":{"family":"mamba2","scale":"small"},
                "systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
        )
        .unwrap();
        let err = Experiment::from_json(&fat_what_if).unwrap_err();
        assert_eq!(err.field, "systems");
        assert!(err.message.contains("exactly one"));
    }

    #[test]
    fn sizes_are_accepted_up_to_their_limits() {
        let fleet = |requests: usize, replicas: usize| {
            Json::parse(&format!(
                r#"{{"kind":"fleet_grid","model":{{"family":"mamba2","scale":"small"}},
                    "systems":["pimba"],"scenarios":["chat"],"rates_rps":[8.0],
                    "replicas":[2,{replicas}],"routers":["jsq"],
                    "requests_per_cell":{requests}}}"#
            ))
            .unwrap()
        };
        let (requests, replicas) = (MAX_REQUESTS_PER_CELL, MAX_REPLICAS);
        assert!(Experiment::from_json(&fleet(requests, replicas)).is_ok());
        let err = Experiment::from_json(&fleet(requests + 1, replicas)).unwrap_err();
        assert_eq!(err.field, "requests_per_cell");
        assert!(err.message.contains("1000000"), "{err}");
        let err = Experiment::from_json(&fleet(requests, replicas + 1)).unwrap_err();
        assert_eq!(err.field, "replicas");
        assert!(err.message.contains("1024"), "{err}");

        // A cold grid may hold every (scenario, rate) trace at once, so their
        // total is bounded too: full-size traces up to the limit, and no
        // further.
        let traffic = |scenarios: &str, rates: usize| {
            let rates: Vec<String> = (1..=rates).map(|r| r.to_string()).collect();
            Json::parse(&format!(
                r#"{{"kind":"traffic_grid","model":{{"family":"mamba2","scale":"small"}},
                    "systems":["pimba"],"scenarios":[{scenarios}],"rates_rps":[{}],
                    "requests_per_cell":{requests}}}"#,
                rates.join(",")
            ))
            .unwrap()
        };
        let full_traces = MAX_TRACE_REQUESTS / MAX_REQUESTS_PER_CELL;
        assert!(full_traces >= 1, "one full trace must fit");
        assert!(Experiment::from_json(&traffic(r#""chat""#, full_traces)).is_ok());
        let err = Experiment::from_json(&traffic(r#""chat""#, full_traces + 1)).unwrap_err();
        assert_eq!(err.field, "rates_rps");
        assert!(err.message.contains("4000000"), "{err}");
        // Scenarios multiply the trace count like rates do.
        let err =
            Experiment::from_json(&traffic(r#""chat","reasoning""#, full_traces)).unwrap_err();
        assert_eq!(err.field, "rates_rps");
    }

    #[test]
    fn canonical_rendering_is_parse_stable() {
        let exp = Experiment::from_json(&traffic_spec()).unwrap();
        let store = ResultStore::in_memory();
        let lines = exp.run(&store, &RunControl::new()).unwrap();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            // The daemon embeds these strings inside event objects; clients
            // recover them by parse→render, which must be the identity.
            let reparsed = Json::parse(line).unwrap();
            assert_eq!(reparsed.render(), *line);
        }
    }

    #[test]
    fn traced_run_keeps_record_bytes_and_captures_events() {
        let exp = Experiment::from_json(&traffic_spec()).unwrap();
        let plain = exp
            .run(&ResultStore::in_memory(), &RunControl::new())
            .unwrap();
        let (lines, trace) = exp
            .run_traced(&ResultStore::in_memory(), &RunControl::new(), true)
            .unwrap();
        assert_eq!(lines, plain, "tracing must not perturb record bytes");
        let trace = trace.expect("trace was requested");
        assert!(!trace.is_empty(), "a cold traced run must record events");

        // The spec-level flag parses strictly.
        assert!(!parse_submission(&traffic_spec()).unwrap().1);
        let mut spec = traffic_spec();
        if let Json::Obj(pairs) = &mut spec {
            pairs.push(("trace".to_string(), Json::Bool(true)));
        }
        assert!(parse_submission(&spec).unwrap().1);
        if let Json::Obj(pairs) = &mut spec {
            pairs.last_mut().unwrap().1 = Json::str("yes");
        }
        assert_eq!(parse_submission(&spec).unwrap_err().field, "trace");
    }

    #[test]
    fn traced_fleet_run_keeps_record_bytes_and_records_fleet_tracks() {
        let spec = Json::parse(
            r#"{"kind":"fleet_grid","model":{"family":"mamba2","scale":"small"},
                "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
                "replicas":[2],"routers":["round_robin","jsq"],
                "requests_per_cell":10,"seed":7}"#,
        )
        .unwrap();
        let exp = Experiment::from_json(&spec).unwrap();
        let plain = exp
            .run(&ResultStore::in_memory(), &RunControl::new())
            .unwrap();
        assert_eq!(plain.len(), 2);
        let (lines, trace) = exp
            .run_traced(&ResultStore::in_memory(), &RunControl::new(), true)
            .unwrap();
        assert_eq!(lines, plain, "tracing must not perturb record bytes");
        let trace = trace.expect("trace was requested");
        assert!(!trace.is_empty(), "a cold traced run must record events");
        assert!(
            trace.contains(r#""track":"cell 0 / fleet""#),
            "fleet cells record onto prefixed tracks"
        );
    }

    #[test]
    fn direct_rerun_is_byte_identical_through_the_memo() {
        let exp = Experiment::from_json(&traffic_spec()).unwrap();
        let store = ResultStore::in_memory();
        let cold = exp.run(&store, &RunControl::new()).unwrap();
        let warm = exp.run(&store, &RunControl::new()).unwrap();
        assert_eq!(cold, warm);
    }
}
