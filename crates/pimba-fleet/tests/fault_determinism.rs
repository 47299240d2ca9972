//! Fault-injection determinism: a faulted fleet run is a pure function of
//! (plan, trace, config) — **bit-identical** across repeats for *random*
//! fault plans — and an empty plan is **byte-identical** to the fault-free
//! fleet. Also pins the plan JSONL
//! contract: round-trips are exact, malformed plans come back as structured
//! errors naming the offending field, never a panic.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy, RetryPolicy};
use pimba_fleet::router::RouterKind;
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use proptest::prelude::*;

const REPLICAS: usize = 4;
const RECOVERIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::None,
    RecoveryPolicy::RetryOnly,
    RecoveryPolicy::Migrate,
];

fn setup() -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

#[allow(clippy::too_many_arguments)]
fn assert_faulted_run_is_pure(
    rate_rps: f64,
    n_requests: usize,
    trace_seed: u64,
    plan: &FaultPlan,
    router: RouterKind,
) {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(rate_rps, n_requests, trace_seed);
    let config = FleetConfig {
        router,
        ..FleetConfig::colocated(REPLICAS)
    };
    let mut reference = None;
    for repeat in 0..3 {
        let result = fleet
            .run_faulted(&trace, &config, plan)
            .expect("generated plans validate");
        assert_eq!(
            result.outcomes.len() + result.fault.lost as usize,
            trace.len(),
            "every request completes or is counted lost"
        );
        match &reference {
            None => reference = Some(result),
            Some(reference) => {
                assert_eq!(
                    *reference, result,
                    "faulted run diverged at repeat={repeat}"
                )
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn faulted_fleets_are_bit_identical_across_repeats(
        rate_rps in 10.0f64..60.0,
        n_requests in 20usize..60,
        trace_seed in 0u64..u64::MAX,
        plan_seed in 0u64..u64::MAX,
        // kills {1,2,3} × slowdown {off,on} × timeout {off,on}, flattened to
        // stay within the tuple-strategy arity.
        variant in 0usize..12,
        first_ms in 50.0f64..400.0,
        spacing_ms in 50.0f64..300.0,
        downtime_ms in 20.0f64..200.0,
        detection_us in 100.0f64..5_000.0,
        // recovery policy × router, flattened like `variant`.
        policy_sel in 0usize..9,
    ) {
        let recovery_idx = policy_sel % RECOVERIES.len();
        let router_idx = policy_sel / RECOVERIES.len() % RouterKind::ALL.len();
        let kills = 1 + variant % 3;
        let with_slowdown = (variant / 3) % 2;
        let with_timeout = variant / 6;
        let mut plan = FaultPlan::kill_storm(
            REPLICAS,
            kills,
            first_ms * 1e6,
            spacing_ms * 1e6,
            downtime_ms * 1e6,
        );
        plan.seed = plan_seed;
        plan.detection_latency_ns = detection_us * 1e3;
        plan.recovery = RECOVERIES[recovery_idx];
        if with_slowdown == 1 {
            // keep the storm's victims distinct from the slowed replica
            plan = plan.slowdown(first_ms * 0.5e6, REPLICAS - 1, 4.0, spacing_ms * 1e6);
        }
        if with_timeout == 1 {
            plan.retry = RetryPolicy {
                timeout_ns: 20.0e6,
                ..plan.retry
            };
        }
        assert_faulted_run_is_pure(
            rate_rps,
            n_requests,
            trace_seed,
            &plan,
            RouterKind::ALL[router_idx],
        );
    }
}

/// The non-negotiable invariant, over both topologies and every router: an
/// **empty** fault plan is byte-identical to the fault-free fleet.
#[test]
fn empty_plan_is_byte_identical_to_fault_free_fleet() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(40.0, 80, 0xDE7EC7);
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
    for mode in modes {
        for router in RouterKind::ALL {
            let config = FleetConfig {
                mode,
                router,
                ..FleetConfig::colocated(REPLICAS)
            };
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert_eq!(
                baseline,
                faulted,
                "empty plan diverged: {mode:?}/{}",
                router.name()
            );
        }
    }
}

/// JSONL round-trip fixture: serialize a full storm plan, parse it back, and
/// require both the parsed plan and the fleet results it produces to be
/// identical to the original's.
#[test]
fn plan_jsonl_round_trip_preserves_results() {
    let mut plan =
        FaultPlan::kill_storm(REPLICAS, 2, 0.2e9, 0.3e9, 0.15e9).slowdown(0.05e9, 3, 2.5, 0.4e9);
    plan.retry = RetryPolicy {
        timeout_ns: 25.0e6,
        jitter_ns: 0.5e6,
        ..plan.retry
    };
    let jsonl = plan.to_jsonl();
    let parsed = FaultPlan::from_jsonl(&jsonl).expect("serialized plans parse");
    assert_eq!(plan, parsed);

    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(50.0, 60, 7);
    let config = FleetConfig::colocated(REPLICAS);
    let original = fleet.run_faulted(&trace, &config, &plan).expect("valid");
    let reparsed = fleet.run_faulted(&trace, &config, &parsed).expect("valid");
    assert_eq!(original, reparsed);
}

/// Malformed plans are structured errors naming the field — never a panic.
#[test]
fn malformed_plans_are_structured_errors() {
    let cases: [(&str, &str); 5] = [
        ("", "plan"),
        ("{\"plan\":\"drift\"}", "plan"),
        (
            "{\"plan\":\"fault\",\"seed\":1,\"detection_latency_ns\":1.0,\"recovery\":\"teleport\",\"max_attempts\":3,\"base_backoff_ns\":1.0,\"max_backoff_ns\":2.0,\"jitter_ns\":0.0,\"timeout_ns\":0.0,\"link_gbps\":300.0,\"link_base_latency_us\":15.0}",
            "recovery",
        ),
        (
            "{\"plan\":\"fault\",\"seed\":1,\"detection_latency_ns\":1.0,\"recovery\":\"migrate\",\"max_attempts\":3,\"base_backoff_ns\":1.0,\"max_backoff_ns\":2.0,\"jitter_ns\":0.0,\"timeout_ns\":0.0,\"link_gbps\":300.0,\"link_base_latency_us\":15.0}\n{\"time_ns\":0.5,\"kind\":\"crash\"}",
            "replica",
        ),
        (
            "{\"plan\":\"fault\",\"seed\":1,\"detection_latency_ns\":1.0,\"recovery\":\"migrate\",\"max_attempts\":3,\"base_backoff_ns\":1.0,\"max_backoff_ns\":2.0,\"jitter_ns\":0.0,\"timeout_ns\":0.0,\"link_gbps\":300.0,\"link_base_latency_us\":15.0}\n{\"time_ns\":\"soon\",\"kind\":\"crash\",\"replica\":0}",
            "time_ns",
        ),
    ];
    for (input, field) in cases {
        let err = FaultPlan::from_jsonl(input).expect_err("malformed plan must not parse");
        assert_eq!(err.field, field, "wrong field for input: {input}");
        assert!(err.line >= 1, "errors carry a 1-based line number");
    }
}
