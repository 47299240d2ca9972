//! Fault-tolerance study: what a replica-kill storm costs in SLO attainment
//! and p99 end-to-end latency, and how much of it each recovery policy buys
//! back — live migration vs retry-from-scratch vs no recovery at all — for
//! GPU and Pimba fleets on the same storm. Writes
//! `results/BENCH_fault.json`.
//!
//! Every run opens with two gates:
//!
//! 1. **Empty-plan byte-identity** — `run_faulted` with an empty
//!    [`FaultPlan`] must be bit-identical to `run` across topologies and
//!    routers. The fault layer is not allowed to change a single output bit
//!    when no fault is injected.
//! 2. **Kill-and-migrate determinism** — one kill storm with live migration
//!    must produce bit-identical `FleetResult`s across repeats, and conserve
//!    requests (completed + lost == submitted).
//!
//! Any mismatch panics (and fails CI, where this bench runs as a smoke with
//! `FLEET_FAULT_REQUESTS` shrinking the traces).

use criterion::{criterion_group, criterion_main, Criterion};
use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba_fleet::router::RouterKind;
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::metrics::SloSpec;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;

fn requests() -> usize {
    std::env::var("FLEET_FAULT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

const SLO: SloSpec = SloSpec {
    ttft_ms: 1000.0,
    tpot_ms: 50.0,
};
const REPLICAS: usize = 4;
const RATE_RPS: f64 = 60.0;

/// The storm, scaled to the trace: two of four replicas die inside the
/// arrival span (so in-flight work is lost, not just queue slack) and come
/// back after a downtime long enough that recovery — not the restart —
/// decides the tail.
fn storm(n: usize, recovery: RecoveryPolicy) -> FaultPlan {
    let span_ns = n as f64 / RATE_RPS * 1e9;
    let mut plan = FaultPlan::kill_storm(REPLICAS, 2, 0.25 * span_ns, 0.3 * span_ns, 0.2 * span_ns);
    plan.recovery = recovery;
    plan
}

/// Gate 1: the empty plan changes nothing, anywhere.
fn assert_empty_plan_byte_identity(n: usize) {
    let model = model();
    let plan = FaultPlan::default();
    assert!(plan.is_empty());
    let modes = [
        FleetMode::Colocated { replicas: REPLICAS },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ];
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let fleet = FleetSim::new(&sim, &model);
        let trace = Scenario::chat().generate(RATE_RPS, n.min(120), 2026);
        for mode in modes {
            for router in [RouterKind::RoundRobin, RouterKind::Jsq] {
                let config = FleetConfig {
                    mode,
                    router,
                    ..FleetConfig::colocated(REPLICAS)
                };
                let baseline = fleet.run(&trace, &config);
                let faulted = fleet
                    .run_faulted(&trace, &config, &plan)
                    .expect("empty plan validates");
                assert!(
                    baseline == faulted,
                    "empty fault plan changed bits: {kind:?}/{mode:?}/{}",
                    router.name()
                );
            }
        }
    }
    println!("  identity gate: empty fault plan == fault-free fleet (bit-identical)");
}

/// Gate 2: one kill-and-migrate scenario is bit-identical across repeats and
/// conserves every request.
fn assert_kill_and_migrate_determinism(n: usize) {
    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let fleet = FleetSim::new(&sim, &model);
    let n = n.min(120);
    let trace = Scenario::chat().generate(RATE_RPS, n, 2026);
    let plan = storm(n, RecoveryPolicy::Migrate);
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(REPLICAS)
    };
    let mut reference = None;
    for repeat in 0..3 {
        let result = fleet
            .run_faulted(&trace, &config, &plan)
            .expect("storm validates");
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len(),
            "requests must be conserved"
        );
        assert_eq!(result.fault.crashes, 2, "both kills must land");
        match &reference {
            None => reference = Some(result),
            Some(reference) => assert!(
                *reference == result,
                "kill-and-migrate diverged at repeat={repeat}"
            ),
        }
    }
    let migrations = reference.unwrap().fault.migrations;
    println!(
        "  determinism gate: kill-and-migrate bit-identical across 3 repeats \
         ({migrations} migrations)"
    );
}

fn bench_cells(c: &mut Criterion) {
    let model = model();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let n = requests().min(200);
    let trace = Scenario::chat().generate(RATE_RPS, n, 2026);
    let plan = storm(n, RecoveryPolicy::Migrate);
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(REPLICAS)
    };
    c.bench_function("fleet_fault_kill_storm_migrate_chat", |b| {
        b.iter(|| {
            FleetSim::new(&sim, &model)
                .run_faulted(&trace, &config, &plan)
                .expect("storm validates")
        })
    });
}

fn record_results(_c: &mut Criterion) {
    if criterion::cli_filter().is_some() {
        println!("(bench filter given — skipping fault recording)");
        return;
    }
    let n = requests();
    assert_empty_plan_byte_identity(n);
    assert_kill_and_migrate_determinism(n);
    let model = model();

    let policies = [
        ("none", Some(RecoveryPolicy::None)),
        ("retry_only", Some(RecoveryPolicy::RetryOnly)),
        ("migrate", Some(RecoveryPolicy::Migrate)),
    ];
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let fleet = FleetSim::new(&sim, &model);
        let trace = Scenario::chat().generate(RATE_RPS, n, 2026);
        let config = FleetConfig {
            router: RouterKind::Jsq,
            ..FleetConfig::colocated(REPLICAS)
        };
        // The fault-free fleet on the same trace anchors what the storm costs.
        let healthy = fleet.run(&trace, &config);
        for (label, recovery) in std::iter::once(("healthy", None)).chain(policies) {
            let result = match recovery {
                None => healthy.clone(),
                Some(recovery) => fleet
                    .run_faulted(&trace, &config, &storm(n, recovery))
                    .expect("storm validates"),
            };
            let s = result.summary(&SLO);
            let f = result.fault;
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                bench::fmt(s.slo_attainment, 3),
                bench::fmt(s.e2e_ms.p99, 1),
                bench::fmt(s.ttft_ms.p99, 1),
                result.outcomes.len().to_string(),
                f.lost.to_string(),
                f.migrations.to_string(),
                f.retries.to_string(),
            ]);
            json_rows.push(format!(
                "    {{\"system\": \"{}\", \"recovery\": \"{label}\", \
                 \"attainment\": {:.4}, \"p99_e2e_ms\": {:.2}, \"p99_ttft_ms\": {:.2}, \
                 \"completed\": {}, \"lost\": {}, \"migrations\": {}, \"retries\": {}, \
                 \"migrated_mb\": {:.3}}}",
                kind.name(),
                s.slo_attainment,
                s.e2e_ms.p99,
                s.ttft_ms.p99,
                result.outcomes.len(),
                f.lost,
                f.migrations,
                f.retries,
                f.migrated_bytes / 1e6,
            ));
        }
    }
    bench::print_table(
        &format!(
            "Kill storm (2 of {REPLICAS} replicas, restart after downtime), chat @ {RATE_RPS} rps, \
             JSQ (SLO {}ms TTFT / {}ms TPOT)",
            SLO.ttft_ms, SLO.tpot_ms
        ),
        &[
            "system",
            "recovery",
            "attainment",
            "p99_e2e_ms",
            "p99_ttft_ms",
            "completed",
            "lost",
            "migrations",
            "retries",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet_fault\",\n  \"requests_per_cell\": {n},\n  \
         \"slo\": {{\"ttft_ms\": {}, \"tpot_ms\": {}}},\n  \
         \"empty_plan_byte_identical\": true,\n  \
         \"kill_and_migrate_deterministic\": true,\n  \
         \"storm\": {{\"replicas\": {REPLICAS}, \"kills\": 2, \"rate_rps\": {RATE_RPS}}},\n  \
         \"recovery\": [\n{}\n  ]\n}}\n",
        SLO.ttft_ms,
        SLO.tpot_ms,
        json_rows.join(",\n"),
    );
    let path = bench::results_dir().join("BENCH_fault.json");
    std::fs::write(&path, json).expect("failed to write BENCH_fault.json");
    println!("  -> wrote {}", path.display());
}

criterion_group!(benches, bench_cells, record_results);
criterion_main!(benches);
