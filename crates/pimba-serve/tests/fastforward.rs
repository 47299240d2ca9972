//! Fast-forward equivalence: the macro-stepping engine must be **bit-identical**
//! to the step-by-step event loop — outcomes, timeline, aggregates and makespan —
//! over random traces, all three shipped schedulers, both system families, an
//! attention-free, a hybrid and a transformer model (seq-invariant steps, and
//! latencies re-read at bucket crossings inside a segment), and timeline
//! sampling off (the folded time chain), full and decimated.
//! Also pins the timeline-decimation contract: sparser sampling bounds memory
//! without moving a single aggregate or percentile metric.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::{SimResult, SloSpec};
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Scenario, Trace};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use proptest::prelude::*;

const SYSTEMS: [SystemKind; 2] = [SystemKind::Gpu, SystemKind::Pimba];
const MODELS: [ModelFamily; 3] = [ModelFamily::Mamba2, ModelFamily::Zamba2, ModelFamily::Llama];
const SAMPLING: [usize; 3] = [0, 1, 7];
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::FcfsStatic,
    PolicyKind::Continuous,
    PolicyKind::ChunkedPrefill { chunk_tokens: 128 },
];
const SCENARIO_BUILDERS: [fn() -> Scenario; 4] = [
    Scenario::chat,
    Scenario::summarization,
    Scenario::rag_long_context,
    Scenario::reasoning,
];

/// Every float of a result as exact bit patterns — stricter than `PartialEq`
/// (which would also accept `-0.0 == 0.0`).
fn bits(result: &SimResult) -> Vec<u64> {
    let mut out = vec![
        result.makespan_ns.to_bits(),
        result.telemetry.events,
        result.telemetry.peak_queue_depth as u64,
        result.telemetry.peak_batch_occupancy as u64,
        result.telemetry.mean_batch_occupancy.to_bits(),
    ];
    for o in &result.outcomes {
        out.extend([
            o.id as u64,
            o.arrival_ns.to_bits(),
            o.first_token_ns.to_bits(),
            o.completion_ns.to_bits(),
        ]);
    }
    for p in &result.timeline {
        out.extend([
            p.time_ns.to_bits(),
            p.queue_depth as u64,
            p.batch_occupancy as u64,
        ]);
    }
    out
}

fn run(
    sim: &ServingSimulator,
    model: &ModelConfig,
    trace: &Trace,
    policy: PolicyKind,
    config: EngineConfig,
) -> SimResult {
    let mut scheduler: Box<dyn Scheduler> = policy.build();
    Engine::new(sim, model, config).run(trace, scheduler.as_mut())
}

#[allow(clippy::too_many_arguments)]
fn assert_fast_forward_is_bit_identical(
    kind: SystemKind,
    family: ModelFamily,
    policy: PolicyKind,
    scenario: &Scenario,
    rate_rps: f64,
    n_requests: usize,
    seed: u64,
    seq_bucket: usize,
    max_batch: usize,
    timeline_sample_every: usize,
) {
    let model = ModelConfig::preset(family, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
    let trace = scenario.generate(rate_rps, n_requests, seed);
    let config = EngineConfig {
        max_batch,
        seq_bucket,
        timeline_sample_every,
        ..EngineConfig::default()
    };
    let per_step = run(
        &sim,
        &model,
        &trace,
        policy,
        EngineConfig {
            fast_forward: false,
            ..config
        },
    );
    let fast = run(
        &sim,
        &model,
        &trace,
        policy,
        EngineConfig {
            fast_forward: true,
            ..config
        },
    );
    assert_eq!(per_step.outcomes.len(), trace.len(), "requests lost");
    assert_eq!(
        bits(&per_step),
        bits(&fast),
        "{kind:?}/{family:?}/{}/{}/sampling {timeline_sample_every}: fast-forward diverged",
        policy.name(),
        scenario.name
    );
    assert_eq!(per_step, fast);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn fast_forward_matches_per_step_oracle(
        system_idx in 0usize..SYSTEMS.len(),
        model_idx in 0usize..MODELS.len(),
        policy_idx in 0usize..POLICIES.len(),
        scenario_idx in 0usize..SCENARIO_BUILDERS.len(),
        rate_rps in 1.0f64..48.0,
        n_requests in 10usize..50,
        seed in 0u64..u64::MAX,
        seq_bucket_idx in 0usize..3,
        max_batch in 2usize..64,
        sampling_idx in 0usize..SAMPLING.len(),
    ) {
        assert_fast_forward_is_bit_identical(
            SYSTEMS[system_idx],
            MODELS[model_idx],
            POLICIES[policy_idx],
            &SCENARIO_BUILDERS[scenario_idx](),
            rate_rps,
            n_requests,
            seed,
            [1usize, 32, 64][seq_bucket_idx],
            max_batch,
            SAMPLING[sampling_idx],
        );
    }
}

/// Pinned corner cases the property run may not hit every time.
#[test]
fn fast_forward_corner_cases() {
    // Closed loop (every request arrives at t = 0, FCFS drains in one batch).
    let model = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = Trace::closed_loop(16, 512, 64);
    for policy in POLICIES {
        let cfg = EngineConfig {
            max_batch: 16,
            seq_bucket: 32,
            ..EngineConfig::default()
        };
        let slow = run(
            &sim,
            &model,
            &trace,
            policy,
            EngineConfig {
                fast_forward: false,
                ..cfg
            },
        );
        let fast = run(&sim, &model, &trace, policy, cfg);
        assert_eq!(bits(&slow), bits(&fast), "{}", policy.name());
    }

    // Degenerate zero-output requests (constructible through the public
    // `TraceRequest` fields; `Trace` generators clamp to >= 1): the per-step
    // loop completes them at their first decode step, and the fast-forward
    // horizon must count that step rather than stalling at zero.
    let zero_out = Trace::from_requests(vec![pimba_serve::traffic::TraceRequest {
        arrival_ns: 0.0,
        prompt_len: 8,
        output_len: 0,
        ..Default::default()
    }]);
    for policy in POLICIES {
        let cfg = EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        };
        let slow = run(
            &sim,
            &model,
            &zero_out,
            policy,
            EngineConfig {
                fast_forward: false,
                ..cfg
            },
        );
        let fast = run(&sim, &model, &zero_out, policy, cfg);
        assert_eq!(bits(&slow), bits(&fast), "zero-output {}", policy.name());
        assert_eq!(fast.outcomes.len(), 1);
    }

    // Single-token outputs: completions on the very first decode step.
    let trace = Trace::closed_loop(4, 128, 1);
    for &kind in &SYSTEMS {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let slow = run(
            &sim,
            &model,
            &trace,
            PolicyKind::Continuous,
            EngineConfig {
                fast_forward: false,
                ..EngineConfig::default()
            },
        );
        let fast = run(
            &sim,
            &model,
            &trace,
            PolicyKind::Continuous,
            EngineConfig::default(),
        );
        assert_eq!(bits(&slow), bits(&fast), "{kind:?}");
    }
}

/// An arrival landing exactly on a step-completion timestamp must tie-break
/// identically in both engines (arrivals pop first: lower insertion sequence).
#[test]
fn fast_forward_handles_simultaneous_arrival_and_step_end() {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let step_ns = sim.generation_step(&model, 1, 64).total_ns;
    let prefill_ns = sim.prefill_latency_ns(&model, 1, 64);
    // Second request arrives exactly when the first finishes decode step 3.
    let trace = Trace::from_requests(vec![
        pimba_serve::traffic::TraceRequest {
            arrival_ns: 0.0,
            prompt_len: 64,
            output_len: 16,
            ..Default::default()
        },
        pimba_serve::traffic::TraceRequest {
            arrival_ns: prefill_ns + step_ns + step_ns + step_ns,
            prompt_len: 64,
            output_len: 16,
            ..Default::default()
        },
    ]);
    for policy in POLICIES {
        let cfg = EngineConfig {
            max_batch: 8,
            ..EngineConfig::default()
        };
        let slow = run(
            &sim,
            &model,
            &trace,
            policy,
            EngineConfig {
                fast_forward: false,
                ..cfg
            },
        );
        let fast = run(&sim, &model, &trace, policy, cfg);
        assert_eq!(bits(&slow), bits(&fast), "{}", policy.name());
        assert_eq!(slow.outcomes.len(), 2);
    }
}

/// Decimated telemetry: memory stays bounded on a 10k-request trace while
/// every aggregate and percentile metric is unchanged.
#[test]
fn timeline_decimation_bounds_memory_without_moving_metrics() {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = Scenario::chat().generate(64.0, 10_000, 7);
    let config = EngineConfig {
        max_batch: 64,
        seq_bucket: 64,
        ..EngineConfig::default()
    };
    let full = run(&sim, &model, &trace, PolicyKind::Continuous, config);
    let sparse = run(
        &sim,
        &model,
        &trace,
        PolicyKind::Continuous,
        EngineConfig {
            timeline_sample_every: 1024,
            ..config
        },
    );
    let none = run(
        &sim,
        &model,
        &trace,
        PolicyKind::Continuous,
        EngineConfig {
            timeline_sample_every: 0,
            ..config
        },
    );

    // Full sampling stores one point per event; decimation caps storage at
    // events/1024 (rounded up) regardless of trace length.
    let events = full.telemetry.events;
    assert!(
        events > 30_000,
        "expected a long event stream, got {events}"
    );
    assert_eq!(full.timeline.len() as u64, events);
    assert_eq!(
        sparse.timeline.len() as u64,
        events.div_ceil(1024),
        "decimated timeline must be bounded"
    );
    assert!(none.timeline.is_empty());

    // Exact aggregates and every percentile metric are sampling-invariant.
    assert_eq!(full.telemetry, sparse.telemetry);
    assert_eq!(full.telemetry, none.telemetry);
    assert_eq!(full.outcomes, sparse.outcomes);
    let slo = SloSpec::default();
    assert_eq!(full.summary(&slo), sparse.summary(&slo));
    assert_eq!(full.summary(&slo), none.summary(&slo));
}
