//! Sweep-engine throughput: how fast the simulator itself evaluates
//! (system × model × batch × seq-len) grids.
//!
//! The named baseline is the canonical serial path (`run_canonical_serial`):
//! fresh uncached simulators, one `generation_step` plus one
//! `memory_usage_bytes` per point, one thread. Against it the bench times
//! `SweepRunner::run` — seq-invariant row evaluation through `StepFunction` —
//! on the 4-system × 8-point acceptance grid and on a 576-point figure-scale
//! grid.
//!
//! Every run opens with the **divergence gate**: every `SweepRecord` step
//! total and memory value must be bit-identical to the canonical path's, or
//! the bench panics (and fails CI, where it
//! runs as a smoke). It then writes `results/BENCH_sweep_throughput.json`:
//! per grid and path the median, min and max wall-clock milliseconds,
//! `nproc`, and the speedup over the canonical serial path.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::{SweepGrid, SweepRunner};
use std::time::Instant;

fn systems() -> Vec<SystemConfig> {
    SystemKind::MAIN_COMPARISON
        .iter()
        .map(|&k| SystemConfig::small_scale(k))
        .collect()
}

/// The acceptance grid: 4 systems x (2 batches x 4 seq lens) = 32 points.
fn small_grid() -> SweepGrid {
    SweepGrid {
        systems: systems(),
        models: vec![ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)],
        batches: vec![32, 128],
        seq_lens: vec![512, 1024, 2048, 4096],
    }
}

/// Figure-scale grid: 4 systems x 6 models x 3 batches x 8 seq lens = 576 points.
fn fleet_grid() -> SweepGrid {
    SweepGrid {
        systems: systems(),
        models: ModelFamily::PERFORMANCE_SET
            .iter()
            .map(|&f| ModelConfig::preset(f, ModelScale::Small))
            .collect(),
        batches: vec![32, 64, 128],
        seq_lens: vec![256, 512, 1024, 1536, 2048, 2560, 3072, 4096],
    }
}

fn uncached_sims(grid: &SweepGrid) -> Vec<ServingSimulator> {
    grid.systems
        .iter()
        .map(|c| ServingSimulator::uncached(c.clone()))
        .collect()
}

/// The baseline: uncached fused per-kind evaluation, one `generation_step`
/// plus one `memory_usage_bytes` per point, single thread. (Hand-rolled:
/// `SweepRunner` evaluates rows through the seq-invariant `StepFunction`, so
/// the point-by-point path must be spelled out.)
fn run_canonical_serial(grid: &SweepGrid) -> f64 {
    let sims = uncached_sims(grid);
    let mut checksum = 0.0;
    for sim in &sims {
        for model in &grid.models {
            for &batch in &grid.batches {
                for &seq in &grid.seq_lens {
                    checksum += sim.generation_step(model, batch, seq).total_ns;
                    checksum += sim.memory_usage_bytes(model, batch, seq);
                }
            }
        }
    }
    checksum
}

/// The path under test. The runner is built outside the timed region:
/// `SweepRunner::new` asks the OS for the core count, which costs about as
/// much as evaluating the whole 32-point grid.
fn run_sweep(runner: &SweepRunner, grid: &SweepGrid) -> f64 {
    runner
        .run(grid)
        .iter()
        .map(|r| r.step.total_ns + r.memory_bytes)
        .sum()
}

/// The gate: every record's step total and memory value equals the
/// point-by-point canonical evaluation bit for bit.
fn assert_sweep_bit_identity(grid: &SweepGrid) {
    let sims = uncached_sims(grid);
    let records = SweepRunner::new().run(grid);
    assert_eq!(records.len(), grid.len(), "sweep dropped grid points");
    for r in &records {
        let (sim, model) = (&sims[r.system], &grid.models[r.model]);
        let step = sim.generation_step(model, r.batch, r.seq_len).total_ns;
        let memory = sim.memory_usage_bytes(model, r.batch, r.seq_len);
        assert!(
            r.step.total_ns.to_bits() == step.to_bits()
                && r.memory_bytes.to_bits() == memory.to_bits(),
            "sweep diverged from generation_step/memory_usage_bytes at system {} model {} \
             batch {} seq {}: step {} vs {step}, memory {} vs {memory}",
            r.system,
            r.model,
            r.batch,
            r.seq_len,
            r.step.total_ns,
            r.memory_bytes,
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `(median, min, max)` wall-clock seconds of `reps` runs of `f`.
fn time_runs(reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64, f64) {
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

fn bench_grids(c: &mut Criterion) {
    let small = small_grid();
    let fleet = fleet_grid();
    let runner = SweepRunner::new();
    c.bench_function("sweep_small_canonical_serial", |b| {
        b.iter(|| run_canonical_serial(&small))
    });
    c.bench_function("sweep_small_runner", |b| {
        b.iter(|| run_sweep(&runner, &small))
    });
    c.bench_function("sweep_fleet_canonical_serial", |b| {
        b.iter(|| run_canonical_serial(&fleet))
    });
    c.bench_function("sweep_fleet_runner", |b| {
        b.iter(|| run_sweep(&runner, &fleet))
    });
}

/// Runs the divergence gate, then measures every path against the canonical
/// serial baseline and records the artifact. Recording is skipped when a
/// bench-name filter is given, so targeted runs stay fast.
fn record_trajectory(_c: &mut Criterion) {
    let grids = [("small", small_grid(), 201), ("fleet", fleet_grid(), 51)];
    let cores = nproc();
    for (_, grid, _) in &grids {
        assert_sweep_bit_identity(grid);
    }
    println!("  divergence gate passed: sweep records == generation_step + memory_usage_bytes");
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping trajectory recording)");
        return;
    }

    println!("\n== sweep engine wall-clock (nproc {cores}) ==");
    let runner = SweepRunner::new();
    let mut grid_json = Vec::new();
    for (name, grid, reps) in &grids {
        let points = grid.len();
        let canonical = time_runs(*reps, || run_canonical_serial(grid));
        let paths = [
            ("canonical_serial", canonical),
            (
                "sweep_runner",
                time_runs(*reps, || run_sweep(&runner, grid)),
            ),
        ];
        let mut rows = Vec::new();
        for (path, (median, min, max)) in paths {
            let speedup = canonical.0 / median;
            println!(
                "{name} grid ({points} pts) {path:>16}: median {:.4} ms \
                 [{:.4}, {:.4}] | {speedup:.2}x vs canonical serial",
                median * 1e3,
                min * 1e3,
                max * 1e3,
            );
            rows.push(format!(
                "      {{\"path\": \"{path}\", \"median_ms\": {:.4}, \"min_ms\": {:.4}, \"max_ms\": {:.4}, \"points_per_sec\": {:.0}, \"speedup_vs_canonical_serial\": {speedup:.3}}}",
                median * 1e3,
                min * 1e3,
                max * 1e3,
                points as f64 / median,
            ));
        }
        grid_json.push(format!(
            "    {{\"grid\": \"{name}\", \"points\": {points}, \"reps\": {reps}, \"rows\": [\n{}\n    ]}}",
            rows.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"sweep_throughput\",\n  \"nproc\": {cores},\n  \"baseline\": \"canonical_serial: uncached generation_step + memory_usage_bytes per point, one thread\",\n  \"divergence_gates\": {{\"sweep_records_bit_identical_to_canonical\": true}},\n  \"grids\": [\n{}\n  ]\n}}\n",
        grid_json.join(",\n")
    );
    let path = bench::results_dir().join("BENCH_sweep_throughput.json");
    std::fs::write(&path, json).expect("failed to write BENCH_sweep_throughput.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, bench_grids, record_trajectory);
criterion_main!(benches);
