//! Fleet drivers vs the sequential baseline, plus memoized what-if grids:
//! the wall-clock study behind "million-request fleet sweeps in seconds".
//! Writes `results/BENCH_fleet_parallel.json`.
//!
//! Every run opens with the **divergence gates**: the colocated loop's
//! decoupled free-run must reproduce the stepped loop (the named sequential
//! baseline) bit for bit on this bench's workloads, and a warm memo
//! re-evaluation must return records byte-identical to the cold run. Any
//! mismatch panics (and fails CI, where this bench runs as a smoke with
//! `FLEET_PARALLEL_REQUESTS` shrinking the workload).
//!
//! Headlines:
//! * drivers vs sequential on an 8-replica colocated fleet: the stepped loop
//!   (every replica paused at every arrival — forced with a no-op fault
//!   plan) vs the free-run for round-robin, plus the JSQ/po2 stepped loop.
//!   Every row reports median, min/max and `nproc`. The primary regime is a
//!   uniform batch workload under FCFS-static scheduling; a
//!   continuous-batching long-decode regime is reported alongside it.
//! * cold vs warm evaluation of a what-if grid against a shared
//!   [`FleetMemo`] (warm cells skip simulation entirely): medians and
//!   min/max over several rounds, each cold run on a fresh memo.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_fleet::cluster::{FleetConfig, FleetSim};
use pimba_fleet::fault::FaultPlan;
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::metrics::FleetResult;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use std::sync::Arc;
use std::time::Instant;

/// `(median, min, max)` of wall-clock samples in seconds.
fn spread(times: &[f64]) -> (f64, f64, f64) {
    let median = pimba_system::stats::median(times).expect("at least one rep");
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0, f64::max);
    (median, min, max)
}

/// `(median, min, max)` wall-clock seconds of `reps` runs of `f`.
fn time_runs(reps: usize, mut f: impl FnMut() -> FleetResult) -> (f64, f64, f64) {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    spread(&times)
}

/// A restart of a replica that is already live: a no-op plan that still
/// forces the stepped colocated loop — the sequential baseline.
fn stepped_plan() -> FaultPlan {
    FaultPlan::default().restart(0.0, 0)
}

fn requests() -> usize {
    std::env::var("FLEET_PARALLEL_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6000)
}

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

/// A measured regime: traffic shape + per-replica policy + offered rate.
struct Regime {
    key: &'static str,
    scenario: Scenario,
    policy: PolicyKind,
    rate_rps: f64,
}

/// Uniform batch workload (fixed prompt/output, the standard
/// throughput-benchmark shape) under FCFS-static scheduling: whole batches
/// complete together, so the free-run replays each batch once instead of
/// once per staggered completion.
fn uniform_batch() -> Scenario {
    let mut scn = Scenario::chat();
    scn.name = "uniform_batch".to_string();
    scn.prompt_range = (256, 256);
    scn.output_range = (512, 512);
    scn
}

/// Long-decode traffic under continuous batching: busy batches at
/// sub-saturation load, the regime a production fleet actually runs in.
fn long_decode() -> Scenario {
    let mut scn = Scenario::chat();
    scn.name = "long_decode".to_string();
    scn.prompt_range = (64, 512);
    scn.output_range = (256, 1024);
    scn
}

fn regimes() -> Vec<Regime> {
    vec![
        Regime {
            key: "fcfs_uniform",
            scenario: uniform_batch(),
            policy: PolicyKind::FcfsStatic,
            rate_rps: 60.0,
        },
        Regime {
            key: "continuous_long_decode",
            scenario: long_decode(),
            policy: PolicyKind::Continuous,
            rate_rps: 42.0,
        },
    ]
}

const REPLICAS: usize = 8;

fn fleet_config(router: RouterKind, policy: PolicyKind) -> FleetConfig {
    let mut config = FleetConfig::colocated(REPLICAS);
    config.router = router;
    config.policy = policy;
    config.engine.max_batch = 16;
    config.engine.seq_bucket = 512;
    config
}

/// The gate: the free-run must be bit-identical to the stepped loop on this
/// bench's own workloads and policies.
fn assert_free_run_bit_identity(n: usize) -> Vec<(String, bool)> {
    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let fleet = FleetSim::new(&sim, &model);
    let mut gates = Vec::new();
    for regime in regimes() {
        let trace = regime.scenario.generate(regime.rate_rps, n.min(400), 2026);
        let config = fleet_config(RouterKind::RoundRobin, regime.policy);
        let stepped = fleet
            .run_faulted(&trace, &config, &stepped_plan())
            .expect("valid plan");
        assert!(
            fleet.run(&trace, &config) == stepped,
            "free-run diverged from the stepped loop: {}",
            regime.key
        );
        gates.push((format!("{}_free_run_eq_stepped", regime.key), true));
    }
    gates
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping fleet-parallel recording)");
        return;
    }
    let n = requests();
    let gates = assert_free_run_bit_identity(n);
    println!(
        "  divergence gates passed: free-run == stepped on {} regimes",
        gates.len()
    );

    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let fleet = FleetSim::new(&sim, &model);
    let reps = if n <= 1000 { 3 } else { 5 };
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // ------------------------------------------------------------------
    // 1. Drivers vs sequential: the stepped loop is the named baseline.
    // ------------------------------------------------------------------
    let mut regime_json: Vec<String> = Vec::new();
    for regime in regimes() {
        let trace = regime.scenario.generate(regime.rate_rps, n, 2026);
        let plan = stepped_plan();
        // (path, router): the stepped rows run under the no-op plan.
        let paths = [
            ("stepped", RouterKind::RoundRobin),
            ("free_run", RouterKind::RoundRobin),
            ("stepped", RouterKind::Jsq),
            ("stepped", RouterKind::PowerOfTwo),
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut rows_json: Vec<String> = Vec::new();
        let mut baseline_wall = 0.0;
        for (path, router_kind) in paths {
            let config = fleet_config(router_kind, regime.policy);
            let run = || match path {
                "stepped" => fleet
                    .run_faulted(&trace, &config, &plan)
                    .expect("valid plan"),
                _ => fleet.run(&trace, &config),
            };
            let events = run().throughput(1.0).events;
            let (median, min, max) = time_runs(reps, run);
            let router = router_kind.name();
            let speedup = if router_kind == RouterKind::RoundRobin {
                if path == "stepped" {
                    baseline_wall = median;
                }
                Some(baseline_wall / median)
            } else {
                None
            };
            rows.push(vec![
                path.to_string(),
                router.to_string(),
                bench::fmt(median * 1e3, 2),
                format!("{}-{}", bench::fmt(min * 1e3, 2), bench::fmt(max * 1e3, 2)),
                bench::fmt(events as f64 / median / 1e6, 3),
                speedup.map_or("-".into(), |s| bench::fmt(s, 2)),
            ]);
            rows_json.push(format!(
                "      {{\"path\": \"{path}\", \"router\": \"{router}\", \
                 \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}, \
                 \"events\": {events}, \"events_per_sec\": {:.0}, \
                 \"speedup_vs_stepped_rr\": {}}}",
                median * 1e3,
                min * 1e3,
                max * 1e3,
                events as f64 / median,
                speedup.map_or("null".into(), |s| format!("{s:.3}")),
            ));
        }
        bench::print_table(
            &format!(
                "Fleet drivers vs sequential [{}]: {REPLICAS} replicas, {} @ {} rps, \
                 {n} requests, nproc {nproc} (median of {reps}; baseline = stepped round-robin)",
                regime.key, regime.scenario.name, regime.rate_rps
            ),
            &[
                "path",
                "router",
                "median_ms",
                "min-max_ms",
                "Mevents/s",
                "speedup",
            ],
            &rows,
        );
        regime_json.push(format!(
            "    {{\"regime\": \"{}\", \"scenario\": \"{}\", \"policy\": \"{}\", \
             \"rate_rps\": {}, \"rows\": [\n{}\n    ]}}",
            regime.key,
            regime.scenario.name,
            regime.policy.name(),
            regime.rate_rps,
            rows_json.join(",\n"),
        ));
    }

    // ------------------------------------------------------------------
    // 2. Memoized what-if grid: cold vs warm.
    // ------------------------------------------------------------------
    let grid = FleetGrid::new(model.clone())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat(), long_decode()])
        .with_rates(vec![30.0, 60.0])
        .with_replica_counts(vec![4, 8])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell((n / 8).max(100))
        .with_seed(2026);
    // Every round times a cold run on a fresh memo, then a warm re-run
    // against it; the medians of `reps` rounds damp host-load noise.
    let (mut cold_times, mut warm_times) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let memo = Arc::new(FleetMemo::new());
        let runner = FleetRunner::new().with_memo(memo.clone());
        let cold_start = Instant::now();
        let cold = runner.run(&grid);
        cold_times.push(cold_start.elapsed().as_secs_f64());
        let warm_start = Instant::now();
        let warm = runner.run(&grid);
        warm_times.push(warm_start.elapsed().as_secs_f64());
        assert!(warm == cold, "warm memo records diverged from cold run");
        let cell_stats = memo.stats();
        assert!(
            cell_stats.hits as usize >= grid.len(),
            "warm run must answer every cell from the memo"
        );
    }
    let (cold_wall, cold_min, cold_max) = spread(&cold_times);
    let (warm_wall, warm_min, warm_max) = spread(&warm_times);
    let memo_speedup = cold_wall / warm_wall;
    bench::print_table(
        &format!(
            "Memoized what-if grid: {} cells, {} requests/cell \
             (median of {reps} rounds; warm byte-identical)",
            grid.len(),
            grid.requests_per_cell
        ),
        &["phase", "median_ms", "min-max_ms", "speedup"],
        &[
            vec![
                "cold".into(),
                bench::fmt(cold_wall * 1e3, 1),
                format!(
                    "{}-{}",
                    bench::fmt(cold_min * 1e3, 1),
                    bench::fmt(cold_max * 1e3, 1)
                ),
                "1.00".into(),
            ],
            vec![
                "warm".into(),
                bench::fmt(warm_wall * 1e3, 3),
                format!(
                    "{}-{}",
                    bench::fmt(warm_min * 1e3, 3),
                    bench::fmt(warm_max * 1e3, 3)
                ),
                bench::fmt(memo_speedup, 1),
            ],
        ],
    );

    let gates_json = gates
        .iter()
        .map(|(name, ok)| format!("\"{name}\": {ok}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"fleet_parallel\",\n  \"requests\": {n},\n  \
         \"nproc\": {nproc},\n  \"reps\": {reps},\n  \
         \"fleet\": {{\"replicas\": {REPLICAS}, \"max_batch\": 16}},\n  \
         \"baseline\": \"stepped colocated loop, round-robin\",\n  \
         \"divergence_gates\": {{{gates_json}, \"memo_warm_byte_identical\": true}},\n  \
         \"drivers\": [\n{}\n  ],\n  \
         \"memo_grid\": {{\"cells\": {}, \"requests_per_cell\": {}, \"rounds\": {reps}, \
         \"cold_median_ms\": {:.2}, \"cold_min_ms\": {:.2}, \"cold_max_ms\": {:.2}, \
         \"warm_median_ms\": {:.3}, \"warm_min_ms\": {:.3}, \"warm_max_ms\": {:.3}, \
         \"speedup\": {:.1}}}\n}}\n",
        regime_json.join(",\n"),
        grid.len(),
        grid.requests_per_cell,
        cold_wall * 1e3,
        cold_min * 1e3,
        cold_max * 1e3,
        warm_wall * 1e3,
        warm_min * 1e3,
        warm_max * 1e3,
        memo_speedup,
    );
    let path = bench::results_dir().join("BENCH_fleet_parallel.json");
    std::fs::write(&path, json).expect("failed to write BENCH_fleet_parallel.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, record_results);
criterion_main!(benches);
