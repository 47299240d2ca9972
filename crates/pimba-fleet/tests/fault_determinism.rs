//! Fault-injection determinism: a faulted fleet run is a pure function of
//! (plan, trace, config) — **bit-identical** across repeats for *random*
//! fault plans — and an empty plan is **byte-identical** to the fault-free
//! fleet. Also pins the plan JSONL
//! contract: round-trips are exact, malformed plans come back as structured
//! errors naming the offending field, never a panic.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy, RetryPolicy};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetModeSpec, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::metrics::{SloSpec, TenantSlos};
use pimba_serve::runner::{TrafficGrid, TrafficRunner};
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
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

/// Byte length and `(hi, lo)` fingerprint words of a value's `Debug`
/// rendering: for a fleet result every outcome, replica report and fault
/// counter, for grid records every summary field, bit for bit.
fn result_digest(result: &impl std::fmt::Debug) -> (usize, (u64, u64)) {
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

/// Grid records and a hand-built disaggregated run, pinned bit for bit
/// against recorded digests so a refactor of outcome assembly or of the
/// summary path cannot move them silently: a multi-tenant traffic grid with
/// per-tenant SLO overrides; colocated fleet grids under jsq and po2 and a
/// 2P+2D disaggregated grid, all multi-tenant; colocated kill-storm grids
/// under migration and under retry; and a disaggregated fleet on a trace
/// whose single-token requests never hand off.
#[test]
fn grid_records_match_recorded_digests() {
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let systems = vec![
        SystemConfig::small_scale(SystemKind::Gpu),
        SystemConfig::small_scale(SystemKind::Pimba),
    ];
    let tenant_slos = TenantSlos::uniform(SloSpec::default())
        .with(
            0,
            SloSpec {
                ttft_ms: 40.0,
                tpot_ms: 5.0,
            },
        )
        .with(
            2,
            SloSpec {
                ttft_ms: 5000.0,
                tpot_ms: 200.0,
            },
        );
    let mut digests = Vec::new();

    let mut traffic = TrafficGrid::new(model.clone())
        .with_systems(systems.clone())
        .with_scenarios(Scenario::tenant_mix())
        .with_rates(vec![10.0, 40.0])
        .with_requests_per_cell(50);
    traffic.tenant_slos = Some(tenant_slos.clone());
    digests.push(result_digest(
        &TrafficRunner::new().with_threads(1).run(&traffic),
    ));

    let mut fleet = FleetGrid::new(model)
        .with_systems(systems)
        .with_scenarios(Scenario::tenant_mix()[..2].to_vec())
        .with_rates(vec![30.0, 80.0])
        .with_replica_counts(vec![2, 4])
        .with_routers(vec![RouterKind::Jsq, RouterKind::PowerOfTwo])
        .with_requests_per_cell(60)
        .with_max_batch(16);
    fleet.tenant_slos = Some(tenant_slos);
    let runner = FleetRunner::new().with_threads(1);
    digests.push(result_digest(&runner.run(&fleet)));
    let disaggregated = FleetGrid {
        replica_counts: vec![4],
        ..fleet.clone()
    }
    .with_mode(FleetModeSpec::Disaggregated {
        prefill_fraction: 0.5,
        transfer: StateTransferModel::nvlink(),
    });
    digests.push(result_digest(&runner.run(&disaggregated)));
    let storm = FaultPlan::kill_storm(REPLICAS, 3, 0.2e9, 0.25e9, 0.15e9);
    for recovery in [RecoveryPolicy::Migrate, RecoveryPolicy::RetryOnly] {
        let grid = FleetGrid {
            replica_counts: vec![REPLICAS],
            ..fleet.clone()
        }
        .with_fault(FaultPlan {
            recovery,
            ..storm.clone()
        });
        digests.push(result_digest(&runner.run(&grid)));
    }

    // Every third request decodes a single token: it finishes on its
    // prefill replica and never hands off.
    let requests = (0..40)
        .map(|i| TraceRequest {
            arrival_ns: i as f64 * 7.5e6,
            prompt_len: 64 + 37 * (i % 5),
            output_len: if i % 3 == 0 { 1 } else { 8 + 5 * (i % 4) },
            tenant: (i % 2) as u32,
            priority: 0,
        })
        .collect();
    let trace = Trace::from_requests(requests);
    let (sim, model) = setup();
    let config = FleetConfig {
        mode: FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
        ..FleetConfig::colocated(REPLICAS)
    };
    let result = FleetSim::new(&sim, &model).run(&trace, &config);
    assert!(result.decode_assignment.contains(&u32::MAX));
    digests.push(result_digest(&result));

    let expected: [(usize, (u64, u64)); 6] = [
        // multi-tenant traffic grid with per-tenant SLO overrides
        (15576, (0xd8198707e21813df, 0x20b822ad4c1609a3)),
        // colocated fleet grid, jsq and po2
        (45679, (0x560729803b4e4ee7, 0x6eacff37911aeccb)),
        // 2P+2D disaggregated fleet grid
        (22782, (0xb73dfc4dc15f16dc, 0x78b95f7ae614f24d)),
        // kill-storm grid, migrate
        (23105, (0x13bf23b53dbab737, 0x5e65aa37412392db)),
        // kill-storm grid, retry-only
        (22852, (0xe0e570b512df5b20, 0x5f4d0f69fe99c960)),
        // disaggregated run with single-token requests
        (24077, (0x31b2c38d9d65717c, 0xe464a207dfba853f)),
    ];
    assert_eq!(digests, expected);
}

/// A request that arrives while every replica is dead and detected holds at
/// the front door until a restart, and its outcome still reports its trace
/// arrival: TTFT and E2E charge the whole wait. Served on the restarted
/// (idle) replica, it finishes exactly when the same request arriving at the
/// restart instant finishes on a fresh replica.
#[test]
fn held_requests_report_their_trace_arrival() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let request = |arrival_ns| TraceRequest {
        arrival_ns,
        prompt_len: 128,
        output_len: 16,
        tenant: 1,
        priority: 2,
    };
    let plan = FaultPlan::default()
        .crash(10.0e6, 0)
        .crash(10.0e6, 1)
        .restart(50.0e6, 0);
    let held = fleet
        .run_faulted(
            &Trace::from_requests(vec![request(20.0e6)]),
            &FleetConfig::colocated(2),
            &plan,
        )
        .expect("valid plan");
    let fresh = fleet.run(
        &Trace::from_requests(vec![request(50.0e6)]),
        &FleetConfig::colocated(1),
    );
    assert_eq!(held.fault.lost, 0);
    assert_eq!(held.outcomes.len(), 1);
    let (got, served) = (held.outcomes[0], fresh.outcomes[0]);
    assert_eq!(
        got.arrival_ns, 20.0e6,
        "held request kept its trace arrival"
    );
    assert_eq!(got.first_token_ns, served.first_token_ns);
    assert_eq!(got.completion_ns, served.completion_ns);
    assert_eq!((got.prompt_len, got.output_len), (128, 16));
    assert_eq!((got.tenant, got.priority), (1, 2));
    assert_eq!((got.retries, got.migrations), (0, 0));
    assert!(got.ttft_ns() > 30.0e6 && got.e2e_ns() > 30.0e6);
}
