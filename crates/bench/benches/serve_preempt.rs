//! Preemptive serving under memory pressure, plus multi-tenant weighted fair
//! queueing: the serving-side quantification of the paper's
//! suspend-is-cheap claim. Writes `results/BENCH_preempt.json`.
//!
//! **Preemption study.** Each system serves its natural model — the GPU
//! baseline a transformer (OPT, growing fp16 KV cache), Pimba an SU-LLM
//! (Mamba-2, constant quantized state) — through one identical decode-heavy
//! trace under three configurations: ample capacity (eviction off), a
//! pressured budget sized to `PRESSURED_SLOTS` finished requests (eviction
//! off: conservative final-seq admission queues), and the same pressured
//! budget with live-occupancy admission plus the memory-pressure
//! checkpoint-restore policy. The headline is each system's SLO-attainment
//! drop from ample to pressured-with-eviction: the KV cache pays gigabyte
//! checkpoints and craters, the constant state never even triggers one.
//! The run **asserts** Pimba's drop is strictly smaller than the GPU's —
//! the acceptance gate of the preemption refactor — and that the
//! eviction-off configurations reproduce their preemption-free engine
//! behavior (zero evictions everywhere they must be zero).
//!
//! **WFQ study.** The canned three-tenant mix (interactive chat w=4,
//! summarization w=2, batch reasoning w=1) on a backlogged Pimba replica,
//! FIFO continuous batching vs weighted fair queueing, per-tenant TTFT and
//! per-tenant-SLO attainment.
//!
//! `SERVE_PREEMPT_REQUESTS` shrinks the traces for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{AdmissionMode, Engine, EngineConfig};
use pimba_serve::metrics::{SimResult, SloSpec, TenantSlos, TenantSummary};
use pimba_serve::sched::{PolicyKind, VictimOrder};
use pimba_serve::traffic::{generate_tenant_mix, Scenario, Trace};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memory::MemoryModel;
use pimba_system::serving::ServingSimulator;

fn requests_per_cell() -> usize {
    std::env::var("SERVE_PREEMPT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

const SLO: SloSpec = SloSpec {
    ttft_ms: 1000.0,
    tpot_ms: 50.0,
};
/// The pressured budget fits this many requests at the pressure scenario's
/// mean final sequence length (plus the parameters).
const PRESSURED_SLOTS: usize = 8;
const RATE_RPS: f64 = 2.0;
const MAX_BATCH: usize = 64;
const SEQ_BUCKET: usize = 16;

/// Decode-heavy pressure traffic: short prompts, long outputs — the regime
/// where live admission overcommits a growing KV cache the most.
fn pressure_scenario() -> Scenario {
    Scenario {
        name: "pressure_decode_heavy".into(),
        prompt_range: (128, 384),
        output_range: (512, 1024),
        ..Scenario::reasoning()
    }
}

/// (system kind, its natural model) pairs of the study.
fn systems() -> [(SystemKind, ModelConfig); 2] {
    [
        (
            SystemKind::Gpu,
            ModelConfig::preset(ModelFamily::Opt, ModelScale::Small),
        ),
        (
            SystemKind::Pimba,
            ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
        ),
    ]
}

/// `params + PRESSURED_SLOTS × per-request dynamic bytes` at the scenario's
/// mean final sequence length.
fn pressured_capacity(sim: &ServingSimulator, model: &ModelConfig, scenario: &Scenario) -> f64 {
    let memory = MemoryModel::new(sim.config(), model);
    let final_seq = scenario.mean_total_tokens() as usize;
    memory.usage_bytes(0, 1) + PRESSURED_SLOTS as f64 * memory.dynamic_bytes(1, final_seq)
}

struct Cell {
    config_name: &'static str,
    policy: PolicyKind,
    admission: AdmissionMode,
    pressured: bool,
}

fn cells() -> Vec<Cell> {
    vec![
        Cell {
            config_name: "ample_evict_off",
            policy: PolicyKind::Continuous,
            admission: AdmissionMode::FinalSeqLen,
            pressured: false,
        },
        Cell {
            config_name: "pressured_evict_off",
            policy: PolicyKind::Continuous,
            admission: AdmissionMode::FinalSeqLen,
            pressured: true,
        },
        Cell {
            config_name: "pressured_evict_longest",
            policy: PolicyKind::MemoryPressure {
                victims: VictimOrder::LongestSequence,
            },
            admission: AdmissionMode::LiveOccupancy,
            pressured: true,
        },
        Cell {
            config_name: "pressured_evict_newest",
            policy: PolicyKind::MemoryPressure {
                victims: VictimOrder::Newest,
            },
            admission: AdmissionMode::LiveOccupancy,
            pressured: true,
        },
    ]
}

fn run_cell(
    sim: &ServingSimulator,
    model: &ModelConfig,
    trace: &Trace,
    cell: &Cell,
    capacity: Option<f64>,
) -> SimResult {
    let engine = Engine::new(
        sim,
        model,
        EngineConfig {
            max_batch: MAX_BATCH,
            capacity_bytes: capacity,
            seq_bucket: SEQ_BUCKET,
            admission: cell.admission,
            ..EngineConfig::default()
        },
    );
    let mut policy = cell.policy.build();
    let result = engine.run(trace, policy.as_mut());
    // Observability gate (opt-in): with PIMBA_TRACE set, re-run the cell with
    // an event recorder attached — the traced result must be byte-identical,
    // so the artifact regenerates bit for bit under tracing.
    if bench::trace_enabled() {
        let recorder = pimba_system::obs::TraceRecorder::new();
        let mut policy = cell.policy.build();
        let traced = engine.run_traced(trace, policy.as_mut(), recorder.track(cell.config_name));
        assert_eq!(
            traced, result,
            "tracing changed the {} preemption cell",
            cell.config_name
        );
        assert!(recorder.event_count() > 0, "the engine must emit events");
    }
    result
}

fn bench_cells(c: &mut Criterion) {
    let (kind, model) = &systems()[0];
    let sim = ServingSimulator::new(SystemConfig::small_scale(*kind));
    let scenario = pressure_scenario();
    let trace = scenario.generate(RATE_RPS, requests_per_cell().min(150), 2028);
    let capacity = pressured_capacity(&sim, model, &scenario);
    let cell = &cells()[2];
    c.bench_function("serve_preempt_pressured_gpu_opt", |b| {
        b.iter(|| run_cell(&sim, model, &trace, cell, Some(capacity)))
    });
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping preemption recording)");
        return;
    }
    let n = requests_per_cell();
    let scenario = pressure_scenario();
    let trace = scenario.generate(RATE_RPS, n, 2028);

    // ------------------------------------------------------------------
    // 1. Preemption under memory pressure, eviction on/off, GPU vs Pimba.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    // attainment[(system, config)] for the headline/gate.
    let mut attainment = std::collections::BTreeMap::new();
    for (kind, model) in &systems() {
        let sim = ServingSimulator::new(SystemConfig::small_scale(*kind));
        let capacity = pressured_capacity(&sim, model, &scenario);
        for cell in &cells() {
            let budget = cell.pressured.then_some(capacity);
            let run_start = std::time::Instant::now();
            let result = run_cell(&sim, model, &trace, cell, budget);
            let wall = run_start.elapsed().as_secs_f64();
            let tput = result.throughput(wall);
            println!(
                "  [{} {}] wall {:.2} ms, {} events, {:.1} Mevents/s",
                kind.name(),
                cell.config_name,
                wall * 1e3,
                tput.events,
                tput.events_per_sec / 1e6
            );
            assert_eq!(result.outcomes.len(), trace.len(), "work conservation");
            if cell.admission == AdmissionMode::FinalSeqLen {
                assert_eq!(
                    result.preemption.evictions, 0,
                    "eviction-off cells must not evict"
                );
            }
            let s = result.summary(&SLO);
            attainment.insert((kind.name(), cell.config_name), s.slo_attainment);
            let p = result.preemption;
            rows.push(vec![
                kind.name().to_string(),
                cell.config_name.to_string(),
                bench::fmt(s.slo_attainment, 3),
                bench::fmt(s.goodput_rps, 2),
                bench::fmt(s.ttft_ms.p99, 1),
                bench::fmt(s.e2e_ms.p99, 1),
                p.evictions.to_string(),
                bench::fmt(p.checkpoint_bytes / 1e6, 1),
                bench::fmt((p.checkpoint_stall_ns + p.restore_stall_ns) / 1e6, 2),
                result.telemetry.peak_batch_occupancy.to_string(),
            ]);
            json_cells.push(format!(
                "    {{\"system\": \"{}\", \"model\": \"{:?}\", \"config\": \"{}\", \
                 \"attainment\": {:.4}, \"goodput_rps\": {:.3}, \"p99_ttft_ms\": {:.2}, \
                 \"p99_e2e_ms\": {:.2}, \"evictions\": {}, \"resumes\": {}, \
                 \"checkpoint_mb\": {:.2}, \"transfer_stall_ms\": {:.3}, \"peak_batch\": {}}}",
                kind.name(),
                model.family,
                cell.config_name,
                s.slo_attainment,
                s.goodput_rps,
                s.ttft_ms.p99,
                s.e2e_ms.p99,
                p.evictions,
                p.resumes,
                p.checkpoint_bytes / 1e6,
                (p.checkpoint_stall_ns + p.restore_stall_ns) / 1e6,
                result.telemetry.peak_batch_occupancy,
            ));
        }
    }
    bench::print_table(
        &format!(
            "Preemption under memory pressure: decode-heavy @ {RATE_RPS} rps, budget = params + \
             {PRESSURED_SLOTS} full requests (SLO {}ms TTFT / {}ms TPOT)",
            SLO.ttft_ms, SLO.tpot_ms
        ),
        &[
            "system",
            "config",
            "attainment",
            "goodput",
            "p99_ttft_ms",
            "p99_e2e_ms",
            "evictions",
            "ckpt_MB",
            "stall_ms",
            "peak_batch",
        ],
        &rows,
    );

    // The acceptance gate: attainment drop from ample to pressured (with
    // eviction on) must be strictly smaller on Pimba than on the GPU
    // baseline — suspending an SU-LLM is nearly free, suspending a KV cache
    // is not.
    let drop_of = |system: &str| {
        attainment[&(system, "ample_evict_off")] - attainment[&(system, "pressured_evict_longest")]
    };
    let (gpu_drop, pimba_drop) = (drop_of("GPU"), drop_of("Pimba"));
    println!(
        "\n  attainment drop under pressure (eviction on): GPU {gpu_drop:.4} vs Pimba {pimba_drop:.4}"
    );
    assert!(
        pimba_drop < gpu_drop,
        "Pimba's SLO-attainment drop ({pimba_drop:.4}) must be strictly smaller than the \
         GPU baseline's ({gpu_drop:.4})"
    );

    // ------------------------------------------------------------------
    // 2. Multi-tenant WFQ on a backlogged Pimba replica.
    // ------------------------------------------------------------------
    let mix = Scenario::tenant_mix();
    let mix_trace = generate_tenant_mix(&mix, 24.0, n, 2029);
    let tenant_slos = TenantSlos::uniform(SLO)
        .with(
            0,
            SloSpec {
                ttft_ms: 2000.0,
                tpot_ms: 30.0,
            },
        )
        .with(
            2,
            SloSpec {
                ttft_ms: 10000.0,
                tpot_ms: 100.0,
            },
        );
    let pimba = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let mamba = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let mut wfq_rows = Vec::new();
    let mut wfq_json = Vec::new();
    for policy in [PolicyKind::Continuous, PolicyKind::Wfq] {
        let engine = Engine::new(
            &pimba,
            &mamba,
            EngineConfig {
                max_batch: 8,
                seq_bucket: SEQ_BUCKET,
                ..EngineConfig::default()
            },
        );
        let mut scheduler = policy.build();
        let result = engine.run(&mix_trace, scheduler.as_mut());
        assert_eq!(result.outcomes.len(), mix_trace.len(), "work conservation");
        let per_tenant = TenantSummary::per_tenant(
            &result.outcomes,
            result.makespan_ns,
            &result.telemetry,
            &tenant_slos,
            None,
        );
        for entry in per_tenant {
            let scenario_name = &mix[entry.tenant as usize].name;
            let weight = mix[entry.tenant as usize].priority.max(1);
            wfq_rows.push(vec![
                policy.name().to_string(),
                format!("{} (t{}, w{})", scenario_name, entry.tenant, weight),
                bench::fmt(entry.summary.ttft_ms.p50, 1),
                bench::fmt(entry.summary.ttft_ms.p99, 1),
                bench::fmt(entry.summary.slo_attainment, 3),
            ]);
            wfq_json.push(format!(
                "    {{\"policy\": \"{}\", \"tenant\": {}, \"scenario\": \"{scenario_name}\", \
                 \"weight\": {weight}, \"p50_ttft_ms\": {:.2}, \"p99_ttft_ms\": {:.2}, \
                 \"attainment\": {:.4}}}",
                policy.name(),
                entry.tenant,
                entry.summary.ttft_ms.p50,
                entry.summary.ttft_ms.p99,
                entry.summary.slo_attainment,
            ));
        }
    }
    bench::print_table(
        "Multi-tenant WFQ vs FIFO: tenant mix @ 24 rps on Pimba x1 (batch cap 8), per-tenant SLOs",
        &[
            "policy",
            "tenant",
            "p50_ttft_ms",
            "p99_ttft_ms",
            "attainment",
        ],
        &wfq_rows,
    );

    let header = [
        "system",
        "config",
        "attainment",
        "goodput_rps",
        "p99_ttft_ms",
        "p99_e2e_ms",
        "evictions",
        "checkpoint_mb",
        "stall_ms",
        "peak_batch",
    ];
    bench::write_csv("serve_preempt", &header, &rows);

    let json = format!(
        "{{\n  \"bench\": \"serve_preempt\",\n  \"requests_per_cell\": {n},\n  \
         \"slo\": {{\"ttft_ms\": {}, \"tpot_ms\": {}}},\n  \
         \"rate_rps\": {RATE_RPS},\n  \"pressured_slots\": {PRESSURED_SLOTS},\n  \
         \"attainment_drop_under_pressure\": {{\"GPU\": {gpu_drop:.4}, \"Pimba\": {pimba_drop:.4}}},\n  \
         \"pimba_degrades_strictly_less\": true,\n  \
         \"preemption\": [\n{}\n  ],\n  \
         \"multi_tenant_wfq\": [\n{}\n  ]\n}}\n",
        SLO.ttft_ms,
        SLO.tpot_ms,
        json_cells.join(",\n"),
        wfq_json.join(",\n"),
    );
    let path = bench::results_dir().join("BENCH_preempt.json");
    std::fs::write(&path, json).expect("failed to write BENCH_preempt.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, bench_cells, record_results);
criterion_main!(benches);
