//! Serving-engine hot-loop throughput: per-step event loop vs macro-step
//! fast-forwarding, on identical traces.
//!
//! Every cell simulates the same trace twice — once with
//! `fast_forward: false` (the step-by-step oracle: one event, one scheduler
//! call, one dense-table latency read and one step-clock batch update per
//! decode step, on the same single-flight event source and the same latency
//! tables) and once with `fast_forward: true` — and the two `SimResult`s
//! are asserted **bit-identical** before any number is reported. The
//! speedup therefore measures macro-step fast-forwarding alone. Two groups
//! of cells:
//!
//! * Mamba-2 on Pimba at seq bucket 64, every (scenario × policy): an
//!   attention-free step whose latency holds at every length;
//! * Llama and Zamba2 on Pimba and the GPU at seq bucket 1, both scenarios
//!   under continuous batching: attention makes every decode step a new
//!   bucket, so fast-forward folds across bucket crossings over runs of
//!   table entries.
//!
//! Reported per cell: wall time, simulation events per second of wall time,
//! and the wall-time speedup. Writes `results/BENCH_serve_hotloop.json`.
//!
//! The run doubles as the CI divergence gate: any fast-forward mismatch panics.
//! Set `SERVE_HOTLOOP_REQUESTS` to shrink the trace for smoke runs; pass a
//! criterion-style filter to skip the recording pass.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::SimResult;
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;

fn requests_per_cell() -> usize {
    std::env::var("SERVE_HOTLOOP_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::FcfsStatic,
        PolicyKind::Continuous,
        PolicyKind::ChunkedPrefill { chunk_tokens: 256 },
    ]
}

fn scenarios() -> [Scenario; 2] {
    [Scenario::chat(), Scenario::reasoning()]
}

struct Cell {
    system: &'static str,
    model: &'static str,
    seq_bucket: usize,
    scenario: String,
    policy: &'static str,
    events: u64,
    per_step_ms: f64,
    fast_forward_ms: f64,
    speedup: f64,
    per_step_events_per_s: f64,
    fast_forward_events_per_s: f64,
}

/// A realistic SLO-constrained replica: decode batches capped at 64 (between
/// the GPU's and Pimba's `max_batch_within_slo` capacity under the
/// `serving_traffic` interactive SLO), seq-bucketed latency lookups.
fn engine_config(seq_bucket: usize, fast_forward: bool) -> EngineConfig {
    EngineConfig {
        max_batch: 64,
        seq_bucket,
        fast_forward,
        ..EngineConfig::default()
    }
}

/// One group of bench cells: a model on a system at one seq bucket, over
/// every listed scenario and policy.
struct Group {
    system: SystemKind,
    family: ModelFamily,
    seq_bucket: usize,
    policies: Vec<PolicyKind>,
}

fn groups() -> Vec<Group> {
    let mut groups = vec![Group {
        system: SystemKind::Pimba,
        family: ModelFamily::Mamba2,
        seq_bucket: 64,
        policies: policies().to_vec(),
    }];
    for system in [SystemKind::Pimba, SystemKind::Gpu] {
        for family in [ModelFamily::Llama, ModelFamily::Zamba2] {
            groups.push(Group {
                system,
                family,
                seq_bucket: 1,
                policies: vec![PolicyKind::Continuous],
            });
        }
    }
    groups
}

fn simulate(
    sim: &ServingSimulator,
    model: &ModelConfig,
    trace: &pimba_serve::traffic::Trace,
    policy: PolicyKind,
    config: EngineConfig,
) -> SimResult {
    let mut scheduler = policy.build();
    Engine::new(sim, model, config).run(trace, scheduler.as_mut())
}

fn bench_cells(c: &mut Criterion) {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = Scenario::reasoning().generate(24.0, requests_per_cell(), 2025);
    for (name, fast_forward) in [("per_step", false), ("fast_forward", true)] {
        let config = engine_config(64, fast_forward);
        c.bench_function(&format!("serve_hotloop_reasoning_continuous_{name}"), |b| {
            b.iter(|| simulate(&sim, &model, &trace, PolicyKind::Continuous, config))
        });
    }
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping hot-loop recording)");
        return;
    }
    let n = requests_per_cell();

    // Opt-in self-profiling: with PIMBA_PROFILE set, the process-wide phase
    // profiler times the hot loop's internal phases (routing, stepping,
    // memo lookups, …) and the per-phase report goes to stderr after
    // recording. The profiler only reads wall clocks — simulated results
    // (and the JSON artifact) are unchanged.
    if bench::profile_enabled() {
        pimba_system::obs::enable_profiling();
    }

    let mut cells: Vec<Cell> = Vec::new();
    for group in groups() {
        let model = ModelConfig::preset(group.family, ModelScale::Small);
        let sim = ServingSimulator::new(SystemConfig::small_scale(group.system));
        for scenario in scenarios() {
            // A saturating arrival rate: deep queues and full batches are the
            // regime the hot loop matters in.
            let trace = scenario.generate(24.0, n, 2025);
            for &policy in &group.policies {
                let per_step_config = engine_config(group.seq_bucket, false);
                let fast_config = engine_config(group.seq_bucket, true);
                // Divergence gate first: the engines must agree bit for bit.
                let per_step = simulate(&sim, &model, &trace, policy, per_step_config);
                let fast = simulate(&sim, &model, &trace, policy, fast_config);
                assert_eq!(
                    per_step,
                    fast,
                    "fast-forward diverged from the per-step oracle on {}/{}/{}/{}",
                    group.system.name(),
                    group.family.name(),
                    scenario.name,
                    policy.name()
                );
                assert_eq!(per_step.outcomes.len(), trace.len(), "requests lost");
                let events = per_step.telemetry.events;

                let per_step_s = bench::median_secs(5, || {
                    simulate(&sim, &model, &trace, policy, per_step_config)
                });
                let fast_s =
                    bench::median_secs(5, || simulate(&sim, &model, &trace, policy, fast_config));
                cells.push(Cell {
                    system: group.system.name(),
                    model: group.family.name(),
                    seq_bucket: group.seq_bucket,
                    scenario: scenario.name.clone(),
                    policy: policy.name(),
                    events,
                    per_step_ms: per_step_s * 1e3,
                    fast_forward_ms: fast_s * 1e3,
                    speedup: per_step_s / fast_s,
                    per_step_events_per_s: events as f64 / per_step_s,
                    fast_forward_events_per_s: events as f64 / fast_s,
                });
            }
        }
    }

    let header = [
        "system",
        "model",
        "bucket",
        "scenario",
        "policy",
        "events",
        "per_step_ms",
        "fast_fwd_ms",
        "speedup",
        "per_step_ev/s",
        "fast_fwd_ev/s",
    ];
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.system.to_string(),
                c.model.to_string(),
                c.seq_bucket.to_string(),
                c.scenario.to_string(),
                c.policy.to_string(),
                c.events.to_string(),
                bench::fmt(c.per_step_ms, 3),
                bench::fmt(c.fast_forward_ms, 3),
                bench::fmt(c.speedup, 1),
                bench::fmt(c.per_step_events_per_s / 1e6, 2) + "M",
                bench::fmt(c.fast_forward_events_per_s / 1e6, 2) + "M",
            ]
        })
        .collect();
    bench::print_table(
        "Serving hot loop: per-step event loop vs macro-step fast-forward (bit-identical results)",
        &header,
        &rows,
    );
    bench::write_csv("serve_hotloop", &header, &rows);

    let json_cells: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"system\": \"{}\", \"model\": \"{}\", \"seq_bucket\": {}, \
                 \"scenario\": \"{}\", \"policy\": \"{}\", \"events\": {}, \
                 \"per_step_ms\": {:.4}, \"fast_forward_ms\": {:.4}, \"speedup\": {:.2}, \
                 \"per_step_events_per_s\": {:.0}, \"fast_forward_events_per_s\": {:.0}, \
                 \"bit_identical\": true}}",
                c.system,
                c.model,
                c.seq_bucket,
                c.scenario,
                c.policy,
                c.events,
                c.per_step_ms,
                c.fast_forward_ms,
                c.speedup,
                c.per_step_events_per_s,
                c.fast_forward_events_per_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"serve_hotloop\",\n  \
         \"requests_per_cell\": {n},\n  \"rate_rps\": 24.0,\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_cells.join(",\n"),
    );
    let path = bench::results_dir().join("BENCH_serve_hotloop.json");
    std::fs::write(&path, json).expect("failed to write BENCH_serve_hotloop.json");
    println!("  -> wrote {}", path.display());

    if bench::profile_enabled() {
        eprintln!("{}", pimba_system::obs::profile_report_text());
    }
}

criterion_group!(benches, bench_cells, record_results);
criterion_main!(benches);
