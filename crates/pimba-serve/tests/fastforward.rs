//! Fast-forward equivalence: the macro-stepping engine must be **bit-identical**
//! to the step-by-step event loop — outcomes, telemetry aggregates (the
//! queue-depth and occupancy integrals see every event) and makespan — over
//! random traces, all three shipped schedulers, both system families, an
//! attention-free, a hybrid and a transformer model (seq-invariant steps, and
//! latencies read in runs of seq buckets and folded across bucket crossings
//! and table page edges inside a segment), and compute
//! scales of 1, 0.5 and 3 (the slowdown windows of fleet fault injection), all
//! through the folded time chain. A session driven through dense windows
//! foreign to its events, as a fleet drives it, must stay bit-identical too
//! while its macro-steps park at every horizon and resume without
//! re-dispatch.
//! Also pins that the ignored `timeline_sample_every` field stays inert.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::metrics::SimResult;
use pimba_serve::sched::{PolicyKind, Scheduler};
use pimba_serve::traffic::{Scenario, Trace};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use proptest::prelude::*;

const SYSTEMS: [SystemKind; 2] = [SystemKind::Gpu, SystemKind::Pimba];
const MODELS: [ModelFamily; 3] = [ModelFamily::Mamba2, ModelFamily::Zamba2, ModelFamily::Llama];
const COMPUTE_SCALES: [f64; 3] = [1.0, 0.5, 3.0];
/// Seq buckets 3 and 100 do not divide a latency table's 256-slot page, so
/// a fold's runs end at page edges that fall mid-bucket in sequence terms.
const SEQ_BUCKETS: [usize; 5] = [1, 3, 32, 64, 100];
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
        result.telemetry.mean_queue_depth.to_bits(),
    ];
    for o in &result.outcomes {
        out.extend([
            o.id as u64,
            o.arrival_ns.to_bits(),
            o.first_token_ns.to_bits(),
            o.completion_ns.to_bits(),
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

/// [`run`] through a co-simulation session whose compute latencies are
/// scaled by `compute_scale` from the start.
fn run_scaled(
    sim: &ServingSimulator,
    model: &ModelConfig,
    trace: &Trace,
    policy: PolicyKind,
    config: EngineConfig,
    compute_scale: f64,
) -> SimResult {
    let mut scheduler: Box<dyn Scheduler> = policy.build();
    let engine = Engine::new(sim, model, config);
    let (max_seq, max_prompt) = trace.bounds();
    let mut session = engine.session(max_seq, max_prompt);
    session.set_compute_scale(compute_scale);
    for (id, r) in trace.requests.iter().enumerate() {
        session.inject(id, *r);
    }
    session.step_until(f64::INFINITY, scheduler.as_mut());
    session.finish()
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
    compute_scale: f64,
) {
    let model = ModelConfig::preset(family, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
    let trace = scenario.generate(rate_rps, n_requests, seed);
    let config = EngineConfig {
        max_batch,
        seq_bucket,
        ..EngineConfig::default()
    };
    let per_step = run_scaled(
        &sim,
        &model,
        &trace,
        policy,
        EngineConfig {
            fast_forward: false,
            ..config
        },
        compute_scale,
    );
    let fast = run_scaled(
        &sim,
        &model,
        &trace,
        policy,
        EngineConfig {
            fast_forward: true,
            ..config
        },
        compute_scale,
    );
    assert_eq!(per_step.outcomes.len(), trace.len(), "requests lost");
    assert_eq!(
        bits(&per_step),
        bits(&fast),
        "{kind:?}/{family:?}/{}/{}/compute scale {compute_scale}: fast-forward diverged",
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
        seq_bucket_idx in 0usize..SEQ_BUCKETS.len(),
        max_batch in 2usize..64,
        scale_idx in 0usize..COMPUTE_SCALES.len(),
    ) {
        assert_fast_forward_is_bit_identical(
            SYSTEMS[system_idx],
            MODELS[model_idx],
            POLICIES[policy_idx],
            &SCENARIO_BUILDERS[scenario_idx](),
            rate_rps,
            n_requests,
            seed,
            SEQ_BUCKETS[seq_bucket_idx],
            max_batch,
            COMPUTE_SCALES[scale_idx],
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

/// `timeline_sample_every` is ignored: a run at any value equals the
/// sampling-0 run exactly, so memo stores keyed at the old default of 1 hold
/// what a sampling-0 run produces.
#[test]
fn timeline_sample_every_is_inert() {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = Scenario::chat().generate(64.0, 10_000, 7);
    let run_sampled = |timeline_sample_every: usize| {
        let config = EngineConfig {
            max_batch: 64,
            seq_bucket: 64,
            timeline_sample_every,
            ..EngineConfig::default()
        };
        run(&sim, &model, &trace, PolicyKind::Continuous, config)
    };
    let none = run_sampled(0);
    let events = none.telemetry.events;
    assert!(
        events > 30_000,
        "expected a long event stream, got {events}"
    );
    for timeline_sample_every in [1, 1024] {
        let sampled = run_sampled(timeline_sample_every);
        assert_eq!(
            bits(&sampled),
            bits(&none),
            "sampling {timeline_sample_every}"
        );
        assert_eq!(sampled, none, "sampling {timeline_sample_every}");
    }
}

/// Drives one session through a driver-chosen window sequence, as a fleet
/// does: each request is injected after stepping to its arrival, and the
/// session is stepped to every horizon in between. `plan` holds one entry
/// per window: an entry below 0.25 puts the horizon exactly on `pace`'s next
/// pending event (a step completion or an arrival of the per-step oracle),
/// any other entry `f` at `f * gap_ns` past the previous horizon. The compute
/// scale switches to `scale` right after window `scale_at`.
struct Windows<'p> {
    plan: &'p [f64],
    gap_ns: f64,
    scale_at: usize,
    scale: f64,
}

/// Runs `trace` under the per-step oracle and the fast-forward engine in
/// lockstep through `windows` and returns both results.
fn windowed_pair(
    sim: &ServingSimulator,
    model: &ModelConfig,
    trace: &Trace,
    policy: PolicyKind,
    config: EngineConfig,
    windows: &Windows<'_>,
) -> (SimResult, SimResult) {
    let (max_seq, max_prompt) = trace.bounds();
    let oracle_engine = Engine::new(
        sim,
        model,
        EngineConfig {
            fast_forward: false,
            ..config
        },
    );
    let fast_engine = Engine::new(
        sim,
        model,
        EngineConfig {
            fast_forward: true,
            ..config
        },
    );
    let mut oracle = oracle_engine.session(max_seq, max_prompt);
    let mut fast = fast_engine.session(max_seq, max_prompt);
    let (mut oracle_policy, mut fast_policy) = (policy.build(), policy.build());
    let mut arrivals = trace.requests.iter().enumerate().peekable();
    let mut horizon = 0.0f64;
    for (window, &f) in windows.plan.iter().enumerate() {
        let planned = if f < 0.25 {
            oracle.next_event_time_ns().unwrap_or(horizon)
        } else {
            horizon + f * windows.gap_ns
        };
        let next_arrival = arrivals.peek().map_or(f64::INFINITY, |(_, r)| r.arrival_ns);
        horizon = planned.min(next_arrival);
        oracle.step_until(horizon, oracle_policy.as_mut());
        fast.step_until(horizon, fast_policy.as_mut());
        while let Some((id, r)) = arrivals.next_if(|(_, r)| r.arrival_ns == horizon) {
            oracle.inject(id, *r);
            fast.inject(id, *r);
        }
        if window == windows.scale_at {
            oracle.set_compute_scale(windows.scale);
            fast.set_compute_scale(windows.scale);
        }
    }
    for (id, r) in arrivals {
        oracle.step_until(r.arrival_ns, oracle_policy.as_mut());
        fast.step_until(r.arrival_ns, fast_policy.as_mut());
        oracle.inject(id, *r);
        fast.inject(id, *r);
    }
    oracle.step_until(f64::INFINITY, oracle_policy.as_mut());
    fast.step_until(f64::INFINITY, fast_policy.as_mut());
    (oracle.finish(), fast.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// A fast-forward session stepped through dense horizons foreign to its
    /// events — some exactly on step completions, with a compute-scale
    /// change at one of them — parks a macro-step at nearly every horizon
    /// and resumes it without re-dispatch. It must stay bit-identical to the
    /// per-step oracle driven through the same windows, for every shipped
    /// policy on an attention-free, a hybrid and a transformer model.
    #[test]
    fn parked_macro_steps_resume_bit_identically(
        system_idx in 0usize..SYSTEMS.len(),
        rate_rps in 4.0f64..64.0,
        n_requests in 8usize..32,
        seed in 0u64..u64::MAX,
        max_batch in 2usize..24,
        plan in prop::collection::vec(0.0f64..1.0, 40..160),
        scale_at in 0usize..40,
        scale_idx in 1usize..COMPUTE_SCALES.len(),
    ) {
        let sim = ServingSimulator::new(SystemConfig::small_scale(SYSTEMS[system_idx]));
        let trace = Scenario::chat().generate(rate_rps, n_requests, seed);
        let config = EngineConfig {
            max_batch,
            ..EngineConfig::default()
        };
        for family in MODELS {
            let model = ModelConfig::preset(family, ModelScale::Small);
            let windows = Windows {
                plan: &plan,
                gap_ns: 6.0 * sim.generation_step(&model, max_batch, 512).total_ns,
                scale_at,
                scale: COMPUTE_SCALES[scale_idx],
            };
            for policy in POLICIES {
                let (oracle, fast) = windowed_pair(&sim, &model, &trace, policy, config, &windows);
                assert_eq!(oracle.outcomes.len(), trace.len(), "requests lost");
                assert_eq!(
                    bits(&oracle),
                    bits(&fast),
                    "{family:?}/{}: windowed fast-forward diverged",
                    policy.name()
                );
            }
        }
    }
}
