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
//!   [`FleetMemo`] (warm cells skip simulation entirely),
//! * routed-prefix checkpoints: a grid that extends each cell's trace
//!   restores the shorter grid's routed prefixes instead of re-running them.

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
use pimba_system::obs::{MetricValue, MetricsHub};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::RunControl;
use std::sync::Arc;
use std::time::Instant;

/// Sums a counter series across all label sets.
fn counter_total(hub: &MetricsHub, name: &str) -> u64 {
    hub.snapshot()
        .iter()
        .filter(|series| series.name == name)
        .map(|series| match &series.value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
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
    let median = pimba_system::stats::median(&times).expect("at least one rep");
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0, f64::max);
    (median, min, max)
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
    config.engine.timeline_sample_every = 0;
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
    // Opt-in persistent memo: with PIMBA_STORE_DIR set, the what-if grid
    // warms a disk-backed store shared across bench invocations (so the
    // "cold" run below may itself be warm from a previous one).
    let store_dir = std::env::var_os("PIMBA_STORE_DIR").map(std::path::PathBuf::from);
    let memo = match &store_dir {
        Some(dir) => Arc::new(FleetMemo::persistent(dir).expect("open PIMBA_STORE_DIR")),
        None => Arc::new(FleetMemo::new()),
    };
    let runner = FleetRunner::new().with_memo(memo.clone());
    let cold_start = std::time::Instant::now();
    let cold = runner.run(&grid);
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let warm_start = std::time::Instant::now();
    let warm = runner.run(&grid);
    let warm_wall = warm_start.elapsed().as_secs_f64();
    assert!(warm == cold, "warm memo records diverged from cold run");
    let (_, _, cell_stats) = memo.stats();
    assert!(
        cell_stats.hits as usize >= grid.len(),
        "warm run must answer every cell from the memo"
    );
    if let Some(dir) = &store_dir {
        memo.sync().expect("sync store");
        // "Restart": reload the segment files exactly as a fresh process
        // would, and re-answer the whole grid from disk.
        let reloaded = Arc::new(FleetMemo::persistent(dir).expect("reopen PIMBA_STORE_DIR"));
        let restart_start = std::time::Instant::now();
        let restarted = FleetRunner::new().with_memo(reloaded.clone()).run(&grid);
        let restart_wall = restart_start.elapsed().as_secs_f64();
        assert!(
            restarted == cold,
            "disk-warm records diverged from cold run"
        );
        let (_, _, disk_cells) = reloaded.stats();
        assert_eq!(
            disk_cells.misses, 0,
            "restart must answer every cell from disk"
        );
        println!(
            "  memo store {}: cold {:.1} ms vs warm restart {:.2} ms ({:.0}x, \
             {} cells from disk, byte-identical)",
            dir.display(),
            cold_wall * 1e3,
            restart_wall * 1e3,
            cold_wall / restart_wall.max(1e-9),
            disk_cells.hits,
        );
    }
    let memo_speedup = cold_wall / warm_wall;
    bench::print_table(
        &format!(
            "Memoized what-if grid: {} cells, {} requests/cell (warm byte-identical)",
            grid.len(),
            grid.requests_per_cell
        ),
        &["phase", "wall_ms", "speedup"],
        &[
            vec!["cold".into(), bench::fmt(cold_wall * 1e3, 1), "1.00".into()],
            vec![
                "warm".into(),
                bench::fmt(warm_wall * 1e3, 2),
                bench::fmt(memo_speedup, 1),
            ],
        ],
    );

    // ------------------------------------------------------------------
    // 3. Routed-prefix checkpoints: a grid that extends each cell's trace
    //    restores the shorter grid's routed prefixes instead of re-running
    //    them (trace generation draws per-request, so the shorter trace is
    //    a literal prefix of the longer one).
    // ------------------------------------------------------------------
    let base_cell = (n / 8).max(100);
    let every = (base_cell / 2).max(1);
    let prefix_grid = FleetGrid::new(model.clone())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![long_decode()])
        .with_rates(vec![20.0, 30.0])
        .with_replica_counts(vec![4])
        .with_routers(vec![RouterKind::Jsq])
        .with_requests_per_cell(base_cell)
        .with_prefix_checkpoints(every)
        .with_seed(2026);
    let prefix_memo = Arc::new(FleetMemo::new());
    let prefix_runner = FleetRunner::new().with_memo(prefix_memo.clone());
    prefix_runner.run(&prefix_grid); // seeds the checkpoint store
    let extended = prefix_grid
        .clone()
        .with_requests_per_cell(base_cell + base_cell / 2);
    let cold_ext_start = std::time::Instant::now();
    let cold_ext = FleetRunner::new().run(&extended);
    let cold_ext_wall = cold_ext_start.elapsed().as_secs_f64();
    // Restore counters from a metered pass (an enabled hub serializes
    // metric export, so this pass informs but is not timed).
    let prefix_hub = MetricsHub::new();
    let metered_ext = prefix_runner
        .run_controlled(
            &extended,
            &RunControl::new().with_metrics(prefix_hub.clone()),
        )
        .expect("uncontrolled run cannot be cancelled");
    assert!(
        metered_ext == cold_ext,
        "prefix-warm records diverged from cold run"
    );
    let restored = counter_total(&prefix_hub, "fleet_prefix_arrivals_restored");
    let total_arrivals = counter_total(&prefix_hub, "fleet_prefix_arrivals_total");
    // Wall-clock against a second identically-seeded store: the metered
    // pass memoized the extended records themselves, so re-timing against
    // the same memo would skip the engines entirely.
    let timing_memo = Arc::new(FleetMemo::new());
    let timing_runner = FleetRunner::new().with_memo(timing_memo.clone());
    timing_runner.run(&prefix_grid);
    let warm_ext_start = std::time::Instant::now();
    let warm_ext = timing_runner.run(&extended);
    let warm_ext_wall = warm_ext_start.elapsed().as_secs_f64();
    assert!(
        warm_ext == cold_ext,
        "prefix-warm records diverged from cold run"
    );
    let restored_frac = restored as f64 / (total_arrivals.max(1)) as f64;
    let prefix_speedup = cold_ext_wall / warm_ext_wall.max(1e-9);
    bench::print_table(
        &format!(
            "Routed-prefix checkpoints: {} cells extended {base_cell} -> {} requests \
             (prefix-warm byte-identical)",
            extended.len(),
            extended.requests_per_cell
        ),
        &["phase", "wall_ms", "arrivals_restored", "speedup"],
        &[
            vec![
                "cold".into(),
                bench::fmt(cold_ext_wall * 1e3, 1),
                "0".into(),
                "1.00".into(),
            ],
            vec![
                "prefix-warm".into(),
                bench::fmt(warm_ext_wall * 1e3, 1),
                format!("{restored}/{total_arrivals}"),
                bench::fmt(prefix_speedup, 2),
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
         \"divergence_gates\": {{{gates_json}, \"memo_warm_byte_identical\": true, \
         \"prefix_warm_byte_identical\": true}},\n  \
         \"drivers\": [\n{}\n  ],\n  \
         \"memo_grid\": {{\"cells\": {}, \"requests_per_cell\": {}, \
         \"cold_wall_ms\": {:.2}, \"warm_wall_ms\": {:.3}, \"speedup\": {:.1}}},\n  \
         \"prefix_reuse\": {{\"cells\": {}, \"base_requests_per_cell\": {base_cell}, \
         \"extended_requests_per_cell\": {}, \"checkpoint_every\": {every}, \
         \"cold_wall_ms\": {:.2}, \"prefix_warm_wall_ms\": {:.2}, \"speedup\": {:.3}, \
         \"arrivals_restored\": {restored}, \"arrivals_total\": {total_arrivals}, \
         \"restored_fraction\": {:.4}}}\n}}\n",
        regime_json.join(",\n"),
        grid.len(),
        grid.requests_per_cell,
        cold_wall * 1e3,
        warm_wall * 1e3,
        memo_speedup,
        extended.len(),
        extended.requests_per_cell,
        cold_ext_wall * 1e3,
        warm_ext_wall * 1e3,
        prefix_speedup,
        restored_frac,
    );
    let path = bench::results_dir().join("BENCH_fleet_parallel.json");
    std::fs::write(&path, json).expect("failed to write BENCH_fleet_parallel.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, record_results);
criterion_main!(benches);
