//! Golden exporter bytes: a fixed traced kill-storm grid runs with a trace
//! recorder and a metrics hub attached, and the three observability exports
//! (`TraceRecorder::to_jsonl`, `TraceRecorder::to_chrome_json` and
//! `MetricsHub::to_json`) are hashed and compared with recorded constants.
//! Two more grids pin `MetricsHub::to_json` alone: a multi-tenant traffic
//! grid (per-tenant series) and a disaggregated multi-tenant fleet grid
//! (`prefill`/`decode` role labels). A traced disaggregated 2P+2D cell pins
//! `TraceRecorder::to_jsonl` for the prefill→decode path: routes, handoffs,
//! merged link partitions and a decode-pool slowdown.
//!
//! These bytes are what external tools (Perfetto, `jq`, dashboards) read. A
//! change to a writer that moves a single byte of them makes this test loud.

use pimba::fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba::fleet::router::RouterKind;
use pimba::fleet::runner::{FleetGrid, FleetModeSpec, FleetRunner};
use pimba::models::{ModelConfig, ModelFamily, ModelScale};
use pimba::serve::runner::{TrafficGrid, TrafficRunner};
use pimba::serve::traffic::Scenario;
use pimba::system::config::{SystemConfig, SystemKind};
use pimba::system::memo::FingerprintBuilder;
use pimba::system::obs::{MetricsHub, TraceRecorder};
use pimba::system::sweep::RunControl;
use pimba::system::transfer::StateTransferModel;
use std::sync::Arc;

/// Byte length and `(hi, lo)` fingerprint words of one export.
fn digest(text: &str) -> (usize, (u64, u64)) {
    let words = FingerprintBuilder::new()
        .bytes(text.as_bytes())
        .finish()
        .words();
    (text.len(), words)
}

#[test]
fn exporter_bytes_are_stable() {
    let requests = 120;
    let rate = 60.0;
    let span_ns = requests as f64 / rate * 1e9;
    let mut plan = FaultPlan::kill_storm(4, 2, 0.25 * span_ns, 0.3 * span_ns, 0.2 * span_ns);
    plan.recovery = RecoveryPolicy::Migrate;
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![rate])
        .with_replica_counts(vec![4])
        .with_routers(vec![RouterKind::Jsq])
        .with_requests_per_cell(requests)
        .with_seed(2026)
        .with_fault(plan);

    let recorder = Arc::new(TraceRecorder::new());
    let hub = MetricsHub::new();
    FleetRunner::new()
        .with_threads(1)
        .with_trace(Arc::clone(&recorder))
        .run_controlled(&grid, &RunControl::new().with_metrics(hub.clone()))
        .expect("uncancelled run");

    assert_eq!(
        digest(&recorder.to_jsonl()),
        (73040, (0xbe0ae5becf6428e2, 0x553a955ba00176af)),
        "TraceRecorder::to_jsonl"
    );
    assert_eq!(
        digest(&recorder.to_chrome_json()),
        (70687, (0x7bd2a14de491d773, 0x0af9ea8e5c29d527)),
        "TraceRecorder::to_chrome_json"
    );
    assert_eq!(
        digest(&hub.to_json()),
        (9818, (0x61a73a8d11642c60, 0xb2a48fe0dfd42c10)),
        "MetricsHub::to_json"
    );
}

/// The systems both multi-tenant grids below compare.
fn pimba_and_gpu() -> Vec<SystemConfig> {
    vec![
        SystemConfig::small_scale(SystemKind::Pimba),
        SystemConfig::small_scale(SystemKind::Gpu),
    ]
}

#[test]
fn multi_tenant_traffic_metrics_bytes_are_stable() {
    let grid = TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(pimba_and_gpu())
        .with_scenarios(Scenario::tenant_mix())
        .with_rates(vec![20.0, 60.0])
        .with_requests_per_cell(60)
        .with_seed(2026);
    let hub = MetricsHub::new();
    TrafficRunner::new()
        .with_threads(2)
        .run_controlled(&grid, &RunControl::new().with_metrics(hub.clone()))
        .expect("uncancelled run");
    let json = hub.to_json();
    assert!((0..3).all(|t| json.contains(&format!("[\"tenant\",\"{t}\"]"))));
    assert_eq!(
        digest(&json),
        (18509, (0xcecad4ebd23df5ac, 0xf452371bb2a7f60c)),
        "MetricsHub::to_json"
    );
}

#[test]
fn disaggregated_fleet_metrics_bytes_are_stable() {
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(pimba_and_gpu())
        .with_scenarios(Scenario::tenant_mix())
        .with_rates(vec![40.0])
        .with_replica_counts(vec![4])
        .with_routers(vec![RouterKind::Jsq])
        .with_mode(FleetModeSpec::Disaggregated {
            prefill_fraction: 0.5,
            transfer: StateTransferModel::nvlink(),
        })
        .with_requests_per_cell(60)
        .with_seed(2026);
    let hub = MetricsHub::new();
    FleetRunner::new()
        .with_threads(2)
        .run_controlled(&grid, &RunControl::new().with_metrics(hub.clone()))
        .expect("uncancelled run");
    let json = hub.to_json();
    assert!(json.contains("[\"role\",\"prefill\"]") && json.contains("[\"role\",\"decode\"]"));
    assert_eq!(
        digest(&json),
        (56392, (0x1e9b5d80bdd31d73, 0x23f3c15f3c6768ee)),
        "MetricsHub::to_json"
    );
}

/// The fault plan of the traced disaggregated cell: two overlapping link
/// partitions (merged into one window) and a slowdown on decode replica 2.
fn disaggregated_plan(span_ns: f64) -> FaultPlan {
    FaultPlan::default()
        .link_down(0.2 * span_ns, 0.1 * span_ns)
        .link_down(0.25 * span_ns, 0.1 * span_ns)
        .slowdown(0.5 * span_ns, 2, 4.0, 0.2 * span_ns)
}

#[test]
fn disaggregated_fleet_trace_bytes_are_stable() {
    let requests = 120;
    let rate = 60.0;
    let span_ns = requests as f64 / rate * 1e9;
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![rate])
        .with_replica_counts(vec![4])
        .with_routers(vec![RouterKind::Jsq])
        .with_mode(FleetModeSpec::Disaggregated {
            prefill_fraction: 0.5,
            transfer: StateTransferModel::nvlink(),
        })
        .with_requests_per_cell(requests)
        .with_seed(2026)
        .with_fault(disaggregated_plan(span_ns));
    let recorder = Arc::new(TraceRecorder::new());
    FleetRunner::new()
        .with_threads(1)
        .with_trace(Arc::clone(&recorder))
        .run_controlled(&grid, &RunControl::new())
        .expect("uncancelled run");
    let jsonl = recorder.to_jsonl();
    for kind in ["\"route\"", "\"handoff\"", "\"linkdown\"", "\"slowdown\""] {
        assert!(jsonl.contains(kind), "{kind} events recorded");
    }
    assert_eq!(
        digest(&jsonl),
        (86884, (0x25ce8c09c12cd20d, 0x7d17ca69d7aebd85)),
        "TraceRecorder::to_jsonl"
    );
}
