//! Fault-injection determinism: a faulted fleet run is a pure function of
//! (plan, trace, config) — **bit-identical** across repeats for *random*
//! fault plans — and an empty plan is **byte-identical** to the fault-free
//! fleet. Also pins the plan JSONL
//! contract: round-trips are exact, malformed plans come back as structured
//! errors naming the offending field, never a panic.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy, RetryPolicy};
use pimba_fleet::metrics::FleetResult;
use pimba_fleet::router::RouterKind;
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::FingerprintBuilder;
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

/// Byte length and `(hi, lo)` fingerprint words of a result's `Debug`
/// rendering: every outcome, replica report and fault counter, bit for bit.
fn result_digest(result: &FleetResult) -> (usize, (u64, u64)) {
    let text = format!("{result:?}");
    let words = FingerprintBuilder::new()
        .bytes(text.as_bytes())
        .finish()
        .words();
    (text.len(), words)
}

/// Faulted fleet outputs, pinned bit for bit against recorded digests so a
/// refactor of the event loops cannot move them silently. Disaggregated
/// 2P+2D fleets under every router cover superseding slowdowns on a prefill
/// and a decode replica, a slowdown ending at the instant the next one
/// starts, overlapping link partitions, and all of them at once, the last
/// also for an attention model whose handoffs overtake each other on a slow
/// link; colocated kill storms add a slowdown and a queue timeout under
/// migration and under retry.
#[test]
fn faulted_fleet_outputs_match_recorded_digests() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    // An attention model's handoff grows with its prompt, so over a slow link
    // a short prompt finishing later can reach the decode pool first.
    let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
    let opt_fleet = FleetSim::new(&sim, &opt);
    let trace = Scenario::chat().generate(40.0, 80, 0x5EED);

    // Replica 0's second slowdown ends inside the first, replica 3's outlasts it.
    let superseding = FaultPlan::default()
        .slowdown(0.2e9, 0, 3.0, 0.8e9)
        .slowdown(0.5e9, 0, 6.0, 0.2e9)
        .slowdown(0.3e9, 3, 4.0, 0.6e9)
        .slowdown(0.6e9, 3, 2.0, 0.7e9);
    let back_to_back = FaultPlan::default()
        .slowdown(0.2e9, 2, 5.0, 0.3e9)
        .slowdown(0.5e9, 2, 2.0, 0.4e9);
    let partitions = FaultPlan::default()
        .link_down(0.3e9, 0.4e9)
        .link_down(0.5e9, 0.5e9);
    let mut combined = FaultPlan::default();
    for plan in [&superseding, &back_to_back, &partitions] {
        combined.events.extend(plan.events.iter().copied());
    }
    let disaggregated = FleetMode::Disaggregated {
        prefill_replicas: 2,
        decode_replicas: 2,
        transfer: StateTransferModel::nvlink(),
    };

    let mut storm = FaultPlan::kill_storm(REPLICAS, 3, 0.2e9, 0.25e9, 0.15e9)
        .slowdown(0.1e9, REPLICAS - 1, 4.0, 0.2e9)
        .slowdown(0.3e9, REPLICAS - 1, 2.0, 0.3e9);
    storm.retry = RetryPolicy {
        timeout_ns: 20.0e6,
        ..storm.retry
    };
    let storm_under = |recovery| FaultPlan {
        recovery,
        ..storm.clone()
    };

    let mut cases = Vec::new();
    for plan in [&superseding, &back_to_back, &partitions, &combined] {
        cases.push((&fleet, disaggregated, plan.clone()));
    }
    for recovery in [RecoveryPolicy::Migrate, RecoveryPolicy::RetryOnly] {
        cases.push((
            &fleet,
            FleetMode::Colocated { replicas: REPLICAS },
            storm_under(recovery),
        ));
    }
    let slow_link = FleetMode::Disaggregated {
        prefill_replicas: 2,
        decode_replicas: 2,
        transfer: StateTransferModel {
            link_gbps: 0.1,
            base_latency_us: 15.0,
        },
    };
    cases.push((&opt_fleet, slow_link, combined.clone()));

    let mut digests = Vec::new();
    for (fleet, mode, plan) in &cases {
        for router in RouterKind::ALL {
            let config = FleetConfig {
                mode: *mode,
                router,
                ..FleetConfig::colocated(REPLICAS)
            };
            let result = fleet
                .run_faulted(&trace, &config, plan)
                .expect("pinned plans validate");
            digests.push(result_digest(&result));
        }
    }
    let expected: [(usize, (u64, u64)); 21] = [
        // superseding slowdowns, round_robin
        (53471, (0x4713cfa368d144d8, 0xaabfa42caea9ca24)),
        // superseding slowdowns, jsq
        (53509, (0xb7ba6cf16700b1a1, 0x010a9e7f0559fc9b)),
        // superseding slowdowns, po2
        (53509, (0xb7ba6cf16700b1a1, 0x010a9e7f0559fc9b)),
        // back-to-back slowdowns, round_robin
        (53486, (0xbda609260e43257d, 0xcb895a4c6c9e829c)),
        // back-to-back slowdowns, jsq
        (53481, (0x245e51303415a3fc, 0x7ebbdf9ee8275e39)),
        // back-to-back slowdowns, po2
        (53481, (0x245e51303415a3fc, 0x7ebbdf9ee8275e39)),
        // overlapping partitions, round_robin
        (53541, (0xad9a012d1efa78a9, 0x49a65a8290eac02a)),
        // overlapping partitions, jsq
        (53557, (0x837bb2c296b204b4, 0x5d3f41bb21d47637)),
        // overlapping partitions, po2
        (53557, (0x837bb2c296b204b4, 0x5d3f41bb21d47637)),
        // all disaggregated faults, round_robin
        (53556, (0xeafa1842849ee188, 0x44a70e65a7b938d0)),
        // all disaggregated faults, jsq
        (53586, (0x6b84d149aebc835a, 0x017438274781cf04)),
        // all disaggregated faults, po2
        (53586, (0x6b84d149aebc835a, 0x017438274781cf04)),
        // storm, migrate, round_robin
        (36337, (0x979f55d5cbedfaa2, 0x8a62703c9a4276ad)),
        // storm, migrate, jsq
        (36339, (0xcdbb71691bde1706, 0xf1605bba0d0a25e6)),
        // storm, migrate, po2
        (36331, (0x05b4b286f59e4430, 0xbaeef9986a5724b3)),
        // storm, retry-only, round_robin
        (35930, (0x58d67c6e40a4f2b0, 0x1083fa3a591d43b0)),
        // storm, retry-only, jsq
        (36344, (0xc7a52e0e72d9460b, 0x087883d8e2f0e753)),
        // storm, retry-only, po2
        (36351, (0x1f2e133c656c6eb7, 0xc9f120eb53d3772c)),
        // OPT over a slow link, all disaggregated faults, round_robin
        (53353, (0xe43464077495d577, 0x033552072581bfe3)),
        // OPT over a slow link, all disaggregated faults, jsq
        (53327, (0xc60c1a29be89d2c4, 0xe6edcbee6f84b972)),
        // OPT over a slow link, all disaggregated faults, po2
        (53327, (0xc60c1a29be89d2c4, 0xe6edcbee6f84b972)),
    ];
    assert_eq!(digests, expected);
}
