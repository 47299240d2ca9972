//! The traced run's layer-by-layer replay.
//!
//! A layer reachable only inside another call is timed by calling the same
//! public function on its own, with the configuration the grid runner would
//! give that cell: `Scenario::generate` for each trace, `max_batch_within_slo`
//! for each capacity search, `trace_fingerprint` for each cell key,
//! `FleetSim::run`/`run_faulted` or `Engine::run` for each simulated cell,
//! and the dense latency tables and analytic models for each
//! (system, scenario) engine configuration. Cells fan out over two threads,
//! as in the runners. Spans go to the tracer; exact counts go to [`Counts`].

use crate::spans::Tracer;
use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::runner::FleetGrid;
use pimba_models::ModelConfig;
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::SloSpec;
use pimba_serve::runner::{trace_fingerprint, TrafficGrid};
use pimba_serve::traffic::{Scenario, Trace};
use pimba_serviced::spec::{CapacitySpec, Experiment};
use pimba_system::cache::LatencyCache;
use pimba_system::config::SystemConfig;
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{max_batch_within_slo, parallel_map};
use pimba_system::table::{PrefillLatencyTable, StepLatencyTable};
use rand::rngs::Pcg32;
use rand::Rng;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runner threads, as in the daemon's runners on a two-core host.
pub const THREADS: usize = 2;

/// Sequence points sampled per table row.
const SEQ_POINTS: usize = 16;

/// Whether the job's cells were computed or answered from the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmth {
    Cold,
    Warm,
}

/// Exact counts gathered during the replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub fleet_events: AtomicU64,
    pub migrations: AtomicU64,
    pub lost: AtomicU64,
    pub engine_events: AtomicU64,
    pub table_entries: AtomicU64,
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// The per-(scenario, rate) trace seed the runners derive from a grid seed.
fn trace_seed(grid_seed: u64, stream: usize) -> u64 {
    Pcg32::new_stream(grid_seed, stream as u64).next_u64()
}

fn cached_sims(systems: &[SystemConfig]) -> Vec<ServingSimulator> {
    systems
        .iter()
        .map(|c| ServingSimulator::with_cache(c.clone(), Arc::new(LatencyCache::new())))
        .collect()
}

struct Ctx<'a> {
    tracer: &'a Tracer,
    parent: Option<usize>,
    job: u64,
    counts: &'a Counts,
}

impl Ctx<'_> {
    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, self.parent, self.job, |_| f())
    }
}

/// One grid's traces, timed as `runner.trace_gen` when cold.
fn traces(
    ctx: &Ctx<'_>,
    warmth: Warmth,
    scenarios: &[Scenario],
    rates: &[f64],
    requests: usize,
    seed: u64,
) -> Vec<Trace> {
    let mut out = Vec::with_capacity(scenarios.len() * rates.len());
    for (s, scenario) in scenarios.iter().enumerate() {
        for (r, &rate) in rates.iter().enumerate() {
            let seed = trace_seed(seed, s * rates.len() + r);
            let generate = || scenario.generate(rate, requests, seed);
            out.push(match warmth {
                Warmth::Cold => ctx.span("runner.trace_gen", generate),
                Warmth::Warm => generate(),
            });
        }
    }
    out
}

/// Per-(system, scenario) batch caps, timed as `runner.capacity` when cold.
fn capacities(
    ctx: &Ctx<'_>,
    warmth: Warmth,
    sims: &[ServingSimulator],
    model: &ModelConfig,
    scenarios: &[Scenario],
    slo: &SloSpec,
) -> Vec<usize> {
    let mut out = Vec::new();
    for sim in sims {
        for scenario in scenarios {
            let anchor = (scenario.mean_total_tokens() as usize).max(1);
            let search = || max_batch_within_slo(sim, model, anchor, slo.tpot_ms, 512).unwrap_or(1);
            out.push(match warmth {
                Warmth::Cold => ctx.span("runner.capacity", search),
                Warmth::Warm => search(),
            });
        }
    }
    out
}

/// One (system, scenario) engine configuration whose tables a cold job
/// filled, replayed on its own by [`tables`].
pub struct TableJob {
    system: SystemConfig,
    model: ModelConfig,
    engine: EngineConfig,
    max_seq: usize,
    max_prompt: usize,
}

impl TableJob {
    fn new(
        system: &SystemConfig,
        model: &ModelConfig,
        engine: EngineConfig,
        traces: &[Trace],
    ) -> Self {
        let requests = traces.iter().flat_map(|t| t.requests.iter());
        Self {
            system: system.clone(),
            model: model.clone(),
            engine,
            max_seq: requests
                .clone()
                .map(|r| r.prompt_len + r.output_len)
                .max()
                .unwrap_or(1),
            max_prompt: requests.map(|r| r.prompt_len).max().unwrap_or(1),
        }
    }
}

/// Replays one daemon job's runner work under span `parent`; returns the
/// engine configurations whose tables it filled.
pub fn replay_experiment(
    exp: &Experiment,
    warmth: Warmth,
    tracer: &Tracer,
    parent: usize,
    job: u64,
    counts: &Counts,
) -> Vec<TableJob> {
    let ctx = Ctx {
        tracer,
        parent: Some(parent),
        job,
        counts,
    };
    match exp {
        Experiment::Traffic(grid) => traffic_grid(&ctx, grid, warmth),
        Experiment::Fleet(grid) => fleet_grid(&ctx, grid, warmth),
        Experiment::Capacity(cap) => {
            capacity(&ctx, cap, warmth);
            Vec::new()
        }
    }
}

/// Replays one direct `FleetRunner` call (always cold: no memo).
pub fn replay_fleet_grid(
    grid: &FleetGrid,
    tracer: &Tracer,
    parent: usize,
    job: u64,
    counts: &Counts,
) -> Vec<TableJob> {
    let ctx = Ctx {
        tracer,
        parent: Some(parent),
        job,
        counts,
    };
    fleet_grid(&ctx, grid, Warmth::Cold)
}

fn capacity(ctx: &Ctx<'_>, cap: &CapacitySpec, warmth: Warmth) {
    if warmth == Warmth::Warm {
        return;
    }
    for system in &cap.systems {
        let sim = ServingSimulator::with_cache(system.clone(), Arc::new(LatencyCache::new()));
        capacities(ctx, warmth, &[sim], &cap.model, &cap.scenarios, &cap.slo);
    }
}

/// The tables each (system, scenario) of a cold grid filled.
fn table_jobs(
    warmth: Warmth,
    systems: &[SystemConfig],
    model: &ModelConfig,
    n_scenarios: usize,
    n_rates: usize,
    traces: &[Trace],
    engine: impl Fn(usize, usize) -> EngineConfig,
) -> Vec<TableJob> {
    if warmth == Warmth::Warm {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (sys, system) in systems.iter().enumerate() {
        for scn in 0..n_scenarios {
            let per_rate = &traces[scn * n_rates..(scn + 1) * n_rates];
            out.push(TableJob::new(system, model, engine(sys, scn), per_rate));
        }
    }
    out
}

fn key(ctx: &Ctx<'_>, trace: &Trace) {
    ctx.span("memo.key", || black_box(trace_fingerprint(trace)));
}

fn traffic_grid(ctx: &Ctx<'_>, grid: &TrafficGrid, warmth: Warmth) -> Vec<TableJob> {
    let sims = cached_sims(&grid.systems);
    let traces = traces(
        ctx,
        warmth,
        &grid.scenarios,
        &grid.rates_rps,
        grid.requests_per_cell,
        grid.seed,
    );
    let caps = capacities(ctx, warmth, &sims, &grid.model, &grid.scenarios, &grid.slo);
    let engine = |max_batch| EngineConfig {
        max_batch,
        capacity_bytes: grid.capacity_bytes,
        seq_bucket: grid.seq_bucket,
        fast_forward: grid.fast_forward,
        timeline_sample_every: grid.timeline_sample_every,
        admission: grid.admission,
        ..EngineConfig::default()
    };
    parallel_map(grid.len(), THREADS, |i| {
        // Grid order: rate fastest, then scenario, then system.
        let n_rates = grid.rates_rps.len();
        let (sys, scn, r) = (
            i / (n_rates * grid.scenarios.len()),
            (i / n_rates) % grid.scenarios.len(),
            i % n_rates,
        );
        let trace = &traces[scn * grid.rates_rps.len() + r];
        key(ctx, trace);
        if warmth == Warmth::Cold {
            let config = engine(caps[sys * grid.scenarios.len() + scn]);
            let result = ctx.span("engine.run", || {
                Engine::new(&sims[sys], &grid.model, config)
                    .run(trace, grid.policy.build().as_mut())
            });
            add(&ctx.counts.engine_events, result.telemetry.events);
        }
    });
    let n_scn = grid.scenarios.len();
    table_jobs(
        warmth,
        &grid.systems,
        &grid.model,
        n_scn,
        grid.rates_rps.len(),
        &traces,
        |sys, scn| engine(caps[sys * n_scn + scn]),
    )
}

fn fleet_grid(ctx: &Ctx<'_>, grid: &FleetGrid, warmth: Warmth) -> Vec<TableJob> {
    let sims = cached_sims(&grid.systems);
    let traces = traces(
        ctx,
        warmth,
        &grid.scenarios,
        &grid.rates_rps,
        grid.requests_per_cell,
        grid.seed,
    );
    let caps = capacities(ctx, warmth, &sims, &grid.model, &grid.scenarios, &grid.slo);
    let engine = |max_batch| EngineConfig {
        max_batch,
        capacity_bytes: None,
        seq_bucket: grid.seq_bucket,
        fast_forward: grid.fast_forward,
        timeline_sample_every: grid.timeline_sample_every,
        ..EngineConfig::default()
    };
    parallel_map(grid.len(), THREADS, |i| {
        let (sys, scn, rate, reps, router) = grid.indices(i);
        let trace = &traces[scn * grid.rates_rps.len() + rate];
        key(ctx, trace);
        if warmth == Warmth::Warm {
            return;
        }
        let config = FleetConfig {
            mode: grid.mode.mode_for(grid.replica_counts[reps]),
            router: grid.routers[router],
            policy: grid.policy,
            engine: engine(caps[sys * grid.scenarios.len() + scn]),
            seed: Pcg32::new_stream(grid.seed, 0x7007 + i as u64).next_u64(),
            workers: 0,
            speculation: true,
        };
        let sim = &sims[sys];
        let disaggregated = matches!(config.mode, FleetMode::Disaggregated { .. });
        let result = match (&grid.fault, config.mode) {
            (Some(plan), _) => {
                let name = if disaggregated {
                    "fleet.faulted.disaggregated"
                } else {
                    "fleet.faulted.colocated"
                };
                ctx.span(name, || {
                    FleetSim::new(sim, &grid.model)
                        .run_faulted(trace, &config, plan)
                        .expect("the benchmark's fault plans validate")
                })
            }
            (None, FleetMode::Colocated { replicas: 1 }) => {
                let result = ctx.span("engine.run", || {
                    Engine::new(sim, &grid.model, config.engine)
                        .run(trace, grid.policy.build().as_mut())
                });
                add(&ctx.counts.engine_events, result.telemetry.events);
                return;
            }
            (None, _) => {
                let name = if disaggregated {
                    "fleet.run.disaggregated".to_string()
                } else {
                    format!("fleet.run.{}", config.router.name())
                };
                ctx.span(&name, || {
                    FleetSim::new(sim, &grid.model).run(trace, &config)
                })
            }
        };
        add(&ctx.counts.fleet_events, result.events());
        add(&ctx.counts.migrations, u64::from(result.fault.migrations));
        add(&ctx.counts.lost, u64::from(result.fault.lost));
    });
    let n_scn = grid.scenarios.len();
    table_jobs(
        warmth,
        &grid.systems,
        &grid.model,
        n_scn,
        grid.rates_rps.len(),
        &traces,
        |sys, scn| engine(caps[sys * n_scn + scn]),
    )
}

/// `n` points spread over `1..=max`, each rounded up to `bucket`.
fn spread(max: usize, n: usize, bucket: usize) -> BTreeSet<usize> {
    let max = max.max(1);
    (1..=n)
        .map(|k| (max * k).div_ceil(n).max(1).div_ceil(bucket) * bucket)
        .collect()
}

/// Batch rows sampled from a table: powers of two up to the cap, and the cap.
fn batches(max_batch: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = std::iter::successors(Some(1usize), |b| Some(b * 2))
        .take_while(|&b| b < max_batch)
        .collect();
    rows.push(max_batch.max(1));
    rows
}

/// The table and analytic layers for one (system, scenario) engine
/// configuration: fresh dense tables filled over sampled batch rows ×
/// sequence buckets up to the longest request of the scenario's traces
/// (`table.fill`), then the analytic models behind those entries, uncached
/// (`analytic.step_function`, `analytic.attention`, `analytic.prefill`).
pub fn tables(job: &TableJob, tracer: &Tracer, counts: &Counts) {
    let ctx = Ctx {
        tracer,
        parent: None,
        job: 0,
        counts,
    };
    let TableJob {
        system,
        model,
        engine,
        max_seq,
        max_prompt,
    } = job;
    let (max_seq, max_prompt) = (*max_seq, *max_prompt);
    let bucket = engine.seq_bucket;
    let rows = batches(engine.max_batch);
    let seqs = spread(max_seq, SEQ_POINTS, bucket);
    let prompts = spread(max_prompt, SEQ_POINTS, bucket);

    let sim = ServingSimulator::with_cache(system.clone(), Arc::new(LatencyCache::new()));
    let ctx = &ctx;
    ctx.span("table.fill", || {
        let mut steps = StepLatencyTable::new(&sim, model, bucket, engine.max_batch, max_seq);
        let mut prefills =
            PrefillLatencyTable::new(&sim, model, bucket, engine.max_batch, max_prompt);
        for &b in &rows {
            for &s in &seqs {
                black_box(steps.step_ns(b, s));
            }
            for &p in &prompts {
                black_box(prefills.prefill_ns(b, p));
            }
        }
    });
    add(
        &ctx.counts.table_entries,
        (rows.len() * (seqs.len() + prompts.len())) as u64,
    );

    let uncached = ServingSimulator::uncached(system.clone());
    for &b in &rows {
        let step_fn = ctx.span("analytic.step_function", || {
            uncached.step_function(model, b)
        });
        for &s in &seqs {
            ctx.span("analytic.attention", || black_box(step_fn.total_ns(s)));
        }
        for &p in &prompts {
            ctx.span("analytic.prefill", || {
                black_box(uncached.prefill_latency_ns(model, b, p))
            });
        }
    }
}
