//! The `metrics_export` and `trace_gen` profile phases, end to end: a
//! profiled grid with a metrics hub records one `metrics_export` call per
//! simulated cell and one `trace_gen` call per (scenario, rate) point, in the
//! traffic and in the fleet runner, and profiling leaves records and metric
//! bytes unchanged. Memo hits simulate nothing, so they export nothing and
//! build no trace.
//!
//! The phase profiler is process-global, so this file holds a single test:
//! no other test in the binary can record phases concurrently.

use pimba::fleet::router::RouterKind;
use pimba::fleet::runner::{FleetGrid, FleetRunner};
use pimba::models::{ModelConfig, ModelFamily, ModelScale};
use pimba::serve::runner::{TrafficGrid, TrafficMemo, TrafficRunner};
use pimba::serve::traffic::Scenario;
use pimba::system::config::{SystemConfig, SystemKind};
use pimba::system::obs::{
    disable_profiling, enable_profiling, profile_report, reset_profiling, MetricsHub,
};
use pimba::system::sweep::RunControl;
use std::sync::Arc;

/// Calls of the profile phase `phase` recorded since the last reset.
fn calls(phase: &str) -> u64 {
    profile_report()
        .into_iter()
        .find(|(name, _)| *name == phase)
        .map_or(0, |(_, stat)| stat.calls)
}

/// Runs `run` against a fresh hub, unprofiled and then profiled, and
/// returns both outputs, both hub snapshots and the profiled run's
/// `metrics_export` and `trace_gen` calls.
fn profiled<T>(run: impl Fn(&RunControl) -> T) -> ((T, String), (T, String), [u64; 2]) {
    let hub = MetricsHub::new();
    let plain = run(&RunControl::new().with_metrics(hub.clone()));
    let plain = (plain, hub.to_json());
    let hub = MetricsHub::new();
    reset_profiling();
    enable_profiling();
    let out = run(&RunControl::new().with_metrics(hub.clone()));
    disable_profiling();
    let phases = [calls("metrics_export"), calls("trace_gen")];
    ((out, hub.to_json()), plain, phases)
}

#[test]
fn metrics_export_is_profiled_once_per_simulated_cell() {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let systems = vec![
        SystemConfig::small_scale(SystemKind::Pimba),
        SystemConfig::small_scale(SystemKind::Gpu),
    ];

    let traffic = TrafficGrid::new(model.clone())
        .with_systems(systems.clone())
        .with_scenarios(Scenario::tenant_mix())
        .with_rates(vec![10.0, 30.0])
        .with_requests_per_cell(16)
        .with_seq_bucket(32);
    let (got, plain, calls) = profiled(|control| {
        TrafficRunner::new()
            .with_threads(2)
            .run_controlled(&traffic, control)
            .expect("uncancelled run")
    });
    assert_eq!(got, plain, "profiling changed traffic records or metrics");
    let points = traffic.scenarios.len() * traffic.rates_rps.len();
    assert_eq!(calls, [traffic.len(), points].map(|n| n as u64));

    let fleet = FleetGrid::new(model)
        .with_systems(systems)
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![20.0])
        .with_replica_counts(vec![1, 3])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell(16)
        .with_seq_bucket(32);
    let (got, plain, calls) = profiled(|control| {
        FleetRunner::new()
            .with_threads(2)
            .run_controlled(&fleet, control)
            .expect("uncancelled run")
    });
    assert_eq!(got, plain, "profiling changed fleet records or metrics");
    assert_eq!(calls, [fleet.len() as u64, 1]);

    // A warm re-run over a memo simulates no cell, so it exports nothing and
    // builds no trace.
    let runner = TrafficRunner::new().with_memo(Arc::new(TrafficMemo::new()));
    let cold = runner.run(&traffic);
    let (warm, _, calls) = profiled(|control| {
        runner
            .run_controlled(&traffic, control)
            .expect("uncancelled run")
    });
    assert_eq!(warm.0, cold);
    assert!(
        !warm.1.contains("serve_"),
        "a memo hit exported cell series"
    );
    assert_eq!(
        calls,
        [0, 0],
        "a memo hit exported metrics or built a trace"
    );
    reset_profiling();
}
