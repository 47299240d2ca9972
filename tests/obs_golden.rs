//! Golden exporter bytes: a fixed traced kill-storm grid runs with a trace
//! recorder and a metrics hub attached, and the three observability exports
//! (`TraceRecorder::to_jsonl`, `TraceRecorder::to_chrome_json` and
//! `MetricsHub::to_json`) are hashed and compared with recorded constants.
//!
//! These bytes are what external tools (Perfetto, `jq`, dashboards) read. A
//! change to a writer that moves a single byte of them makes this test loud.

use pimba::fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba::fleet::router::RouterKind;
use pimba::fleet::runner::{FleetGrid, FleetRunner};
use pimba::models::{ModelConfig, ModelFamily, ModelScale};
use pimba::serve::traffic::Scenario;
use pimba::system::config::{SystemConfig, SystemKind};
use pimba::system::memo::FingerprintBuilder;
use pimba::system::obs::{MetricsHub, TraceRecorder};
use pimba::system::sweep::RunControl;
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
