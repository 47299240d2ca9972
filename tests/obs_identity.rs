//! The observability no-perturbation property, end to end: enabling tracing
//! and metrics must never change a single output bit — in the engine, in the
//! fleet on both topologies and every router, and under injected faults — and the trace
//! codecs must round-trip byte-stably (emit → parse → re-emit). These are
//! the root gates behind the invariant stated in `pimba_system::obs` and
//! `pimba_fleet::cluster`.

use pimba::fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba::fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba::fleet::router::RouterKind;
use pimba::models::{ModelConfig, ModelFamily, ModelScale};
use pimba::netline::Json;
use pimba::serve::engine::{Engine, EngineConfig};
use pimba::serve::runner::{TrafficGrid, TrafficRunner};
use pimba::serve::sched::ContinuousBatching;
use pimba::serve::traffic::Scenario;
use pimba::system::config::{SystemConfig, SystemKind};
use pimba::system::obs::{parse_jsonl, render_jsonl, MetricsHub, TraceRecorder};
use pimba::system::serving::ServingSimulator;
use pimba::system::sweep::RunControl;
use pimba::system::transfer::StateTransferModel;
use std::collections::BTreeSet;
use std::sync::Arc;

fn model() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

fn sim() -> ServingSimulator {
    ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba))
}

/// A four-replica kill storm with live migration — enough churn to exercise
/// the crash/detect/migrate/restart paths the fault layer instruments.
fn storm(requests: usize, rate_rps: f64) -> FaultPlan {
    let span_ns = requests as f64 / rate_rps * 1e9;
    let mut plan = FaultPlan::kill_storm(4, 2, 0.25 * span_ns, 0.3 * span_ns, 0.2 * span_ns);
    plan.recovery = RecoveryPolicy::Migrate;
    plan
}

#[test]
fn engine_tracing_never_changes_results() {
    let model = model();
    let sim = sim();
    let trace = Scenario::chat().generate(30.0, 80, 7);
    let config = EngineConfig {
        max_batch: 8,
        seq_bucket: 16,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&sim, &model, config);
    let baseline = engine.run(&trace, &mut ContinuousBatching);

    let recorder = TraceRecorder::new();
    let traced = engine.run_traced(&trace, &mut ContinuousBatching, recorder.track("engine"));
    assert_eq!(traced, baseline, "an attached sink must not change a bit");
    assert!(
        recorder.event_count() > 0,
        "the engine must emit scheduler events"
    );
    let tracks = recorder.tracks();
    let names: BTreeSet<&str> = tracks[0].events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.contains("admit"),
        "admissions must be traced: {names:?}"
    );
}

#[test]
fn fleet_tracing_is_identical_on_every_topology_and_router() {
    let model = model();
    let sim = sim();
    let trace = Scenario::chat().generate(50.0, 100, 2026);
    let modes = [
        FleetMode::Colocated { replicas: 3 },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ];
    for mode in modes {
        for router in RouterKind::ALL {
            let config = FleetConfig {
                mode,
                router,
                ..FleetConfig::colocated(3)
            };
            let baseline = FleetSim::new(&sim, &model).run(&trace, &config);
            let recorder = Arc::new(TraceRecorder::new());
            let traced = FleetSim::new(&sim, &model)
                .with_trace(Arc::clone(&recorder))
                .run(&trace, &config);
            assert!(
                traced == baseline,
                "tracing changed fleet output: {mode:?}, {}",
                router.name()
            );
            assert!(
                recorder.event_count() > 0,
                "the fleet must emit route events: {mode:?}, {}",
                router.name()
            );
        }
    }
}

#[test]
fn faulted_fleet_tracing_is_identical_and_captures_the_storm() {
    let model = model();
    let sim = sim();
    let requests = 120;
    let rate = 60.0;
    let trace = Scenario::chat().generate(rate, requests, 2026);
    let plan = storm(requests, rate);
    let config = FleetConfig {
        router: RouterKind::Jsq,
        ..FleetConfig::colocated(4)
    };

    let baseline = FleetSim::new(&sim, &model)
        .run_faulted(&trace, &config, &plan)
        .expect("storm validates");
    let recorder = Arc::new(TraceRecorder::new());
    let traced = FleetSim::new(&sim, &model)
        .with_trace(Arc::clone(&recorder))
        .run_faulted(&trace, &config, &plan)
        .expect("storm validates");
    assert!(traced == baseline, "tracing changed faulted fleet output");
    assert_eq!(traced.fault.crashes, 2, "both kills must land");

    let names: BTreeSet<String> = recorder
        .tracks()
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name.clone()))
        .collect();
    for expected in ["route", "crash", "detect", "restart", "migrate"] {
        assert!(
            names.contains(expected),
            "storm trace must contain '{expected}' events, got {names:?}"
        );
    }
}

#[test]
fn runner_metrics_and_tracing_never_change_records() {
    let grid = TrafficGrid::new(model())
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![8.0, 16.0])
        .with_requests_per_cell(12)
        .with_seq_bucket(32);
    let plain = TrafficRunner::new().run(&grid);

    let hub = MetricsHub::new();
    let recorder = Arc::new(TraceRecorder::new());
    let control = RunControl::new().with_metrics(hub.clone());
    let instrumented = TrafficRunner::new()
        .with_trace(Arc::clone(&recorder))
        .run_controlled(&grid, &control)
        .expect("uncancelled run");
    assert_eq!(
        instrumented, plain,
        "metrics + tracing must not change records"
    );
    assert!(
        !hub.snapshot().is_empty(),
        "the run must publish metric series"
    );
    assert!(
        hub.snapshot()
            .iter()
            .any(|s| s.name == "serve_requests_completed"),
        "per-request outcome counters must be exported"
    );
    assert!(recorder.event_count() > 0);
}

#[test]
fn trace_codecs_round_trip_byte_stably() {
    let model = model();
    let sim = sim();
    let requests = 120;
    let rate = 60.0;
    let trace = Scenario::chat().generate(rate, requests, 2026);
    let recorder = Arc::new(TraceRecorder::new());
    FleetSim::new(&sim, &model)
        .with_trace(Arc::clone(&recorder))
        .run_faulted(&trace, &FleetConfig::colocated(4), &storm(requests, rate))
        .expect("storm validates");
    assert!(recorder.event_count() > 0);

    // JSONL: emit → parse → re-emit is the identity on bytes.
    let jsonl = recorder.to_jsonl();
    let tracks = parse_jsonl(&jsonl).expect("own emission parses");
    assert_eq!(
        render_jsonl(&tracks),
        jsonl,
        "JSONL re-emission must be byte-stable"
    );

    // Chrome trace-event JSON: parses (via netline) and is non-empty.
    let chrome = recorder.to_chrome_json();
    let parsed = Json::parse(&chrome).expect("Chrome trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every record carries the trace-event schema's required keys.
    for event in events {
        let keys: Vec<&str> = event
            .as_obj()
            .expect("trace events are objects")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for required in ["ph", "pid", "tid", "name"] {
            assert!(keys.contains(&required), "event missing '{required}'");
        }
    }
}
