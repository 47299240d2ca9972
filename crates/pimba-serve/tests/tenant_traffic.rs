//! Multi-tenant traffic plumbing: the JSONL schema extension is backward
//! compatible (satellite: pre-ISSUE-5 trace files load unchanged), tenant
//! tags survive the whole trace → engine → metrics path, and per-tenant
//! summaries decompose the run.

use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::{SimResult, SloSpec, TenantSlos, TenantSummary};
use pimba_serve::sched::WeightedFairQueueing;
use pimba_serve::traffic::{generate_tenant_mix, Scenario, Trace};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::obs::MetricsHub;
use pimba_system::serving::ServingSimulator;

/// A trace file written before the tenant/priority fields existed (the
/// committed fixture uses the exact pre-ISSUE-5 schema, field-order quirks
/// included) must load with every request in the default tenant class — and
/// round-trip back to a byte stream with no tenant keys.
#[test]
fn pre_tenant_trace_files_still_load() {
    let fixture = include_str!("fixtures/pre_tenant_trace.jsonl");
    let trace = Trace::from_jsonl(fixture).expect("pre-tenant fixture must parse");
    assert_eq!(trace.len(), 5);
    assert!(trace
        .requests
        .iter()
        .all(|r| r.tenant == 0 && r.priority == 0));
    assert_eq!(trace.tenants(), vec![0]);
    // Values survived.
    assert_eq!(trace.requests[0].prompt_len, 128);
    assert_eq!(trace.requests[3].arrival_ns, 4250000.25);
    // Re-serializing a tenant-free trace emits the pre-tenant schema.
    let dump = trace.to_jsonl();
    assert!(!dump.contains("tenant") && !dump.contains("priority"));
    // And the round trip is exact.
    assert_eq!(Trace::from_jsonl(&dump).unwrap(), trace);
}

/// Tagged traces round-trip bit-exactly through JSONL, including the new
/// fields.
#[test]
fn tagged_trace_round_trips_through_jsonl() {
    let mix = Scenario::tenant_mix();
    let trace = generate_tenant_mix(&mix, 24.0, 120, 7);
    let restored = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
    assert_eq!(restored, trace);
    assert_eq!(restored.tenants(), vec![0, 1, 2]);
}

/// Tenant tags flow trace → engine → outcomes → per-tenant summaries, and
/// the per-tenant completions partition the run's.
#[test]
fn tenant_tags_flow_through_engine_and_metrics() {
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let model = pimba_models::ModelConfig::preset(
        pimba_models::ModelFamily::Mamba2,
        pimba_models::ModelScale::Small,
    );
    let trace = generate_tenant_mix(&Scenario::tenant_mix(), 30.0, 60, 11);
    let engine = Engine::new(
        &sim,
        &model,
        EngineConfig {
            max_batch: 16,
            seq_bucket: 32,
            ..EngineConfig::default()
        },
    );
    let result = engine.run(&trace, &mut WeightedFairQueueing::new());
    assert_eq!(result.outcomes.len(), trace.len());
    for outcome in &result.outcomes {
        let expected = trace.requests[outcome.id];
        assert_eq!(outcome.tenant, expected.tenant);
        assert_eq!(outcome.priority, expected.priority);
    }

    // Per-tenant summaries: interactive tenant held to a tight SLO, the
    // batch tenant to a lax one; completions partition the total.
    let slos = TenantSlos::uniform(SloSpec::default()).with(
        2,
        SloSpec {
            ttft_ms: 30000.0,
            tpot_ms: 500.0,
        },
    );
    let per_tenant = TenantSummary::per_tenant(
        &result.outcomes,
        result.makespan_ns,
        &result.telemetry,
        &slos,
        None,
    );
    assert_eq!(per_tenant.len(), 3);
    let total: usize = per_tenant.iter().map(|t| t.summary.completed).sum();
    assert_eq!(total, result.outcomes.len());
    for entry in &per_tenant {
        assert!(entry.summary.completed > 0, "tenant {}", entry.tenant);
        assert!(entry.summary.ttft_ms.p50 > 0.0);
    }
}

/// A run whose tenants interleave exports, after its per-tenant fold, the
/// same hub bytes as recording every request in turn: counters and
/// histograms alike, under extra labels, on a fresh hub.
#[test]
fn per_tenant_export_matches_per_request_recording() {
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let model = pimba_models::ModelConfig::preset(
        pimba_models::ModelFamily::Mamba2,
        pimba_models::ModelScale::Small,
    );
    let trace = generate_tenant_mix(&Scenario::tenant_mix(), 40.0, 90, 5);
    let engine = Engine::new(&sim, &model, EngineConfig::default());
    let result = engine.run(&trace, &mut WeightedFairQueueing::new());
    let tenants: Vec<u32> = result.outcomes.iter().map(|o| o.tenant).collect();
    assert!(
        tenants.windows(2).any(|w| w[0] != w[1]) && trace.tenants().len() == 3,
        "outcomes must interleave three tenants"
    );

    let labels = [("replica", "2"), ("cell", "7")];
    let folded = MetricsHub::new();
    result.export_metrics(&folded, &labels);

    // The reference: the cell-level series, then six calls per request.
    let reference = MetricsHub::new();
    let no_outcomes = SimResult {
        outcomes: Vec::new(),
        ..result.clone()
    };
    no_outcomes.export_metrics(&reference, &labels);
    for o in &result.outcomes {
        let tenant = o.tenant.to_string();
        let with_tenant = [labels[0], labels[1], ("tenant", tenant.as_str())];
        reference.counter("serve_requests_completed", &with_tenant, 1);
        reference.counter("serve_request_retries", &with_tenant, o.retries as u64);
        reference.counter(
            "serve_request_migrations",
            &with_tenant,
            o.migrations as u64,
        );
        reference.observe("serve_ttft_ms", &with_tenant, o.ttft_ns() / 1e6);
        reference.observe("serve_tpot_ms", &with_tenant, o.tpot_ns() / 1e6);
        reference.observe("serve_e2e_ms", &with_tenant, o.e2e_ns() / 1e6);
    }
    assert_eq!(folded.snapshot(), reference.snapshot());
    assert_eq!(folded.to_json(), reference.to_json());
}
