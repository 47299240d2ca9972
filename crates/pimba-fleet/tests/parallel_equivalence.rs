//! The execution-path contract: the colocated loop's decoupled free-run
//! (load-oblivious routers with nothing mid-trace to observe) is
//! **bit-identical** to the stepped loop that pauses every replica at every
//! arrival — same outcomes, same per-replica telemetry, same assignments,
//! same makespan. The stepped loop is forced through the public API with a
//! no-op fault plan (a restart of a replica that is already live). Also the
//! ignored `workers` knob moving no bit on any topology, router or policy, the
//! empty-plan identity across both topologies, a handoff landing exactly on
//! an arrival instant, and the memoized grid contract: a warm re-evaluation
//! returns byte-identical records without stepping an engine.

use pimba_fleet::cluster::{FleetConfig, FleetMode, FleetSim};
use pimba_fleet::fault::{FaultPlan, FaultStats};
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::transfer::StateTransferModel;
use proptest::prelude::*;
use std::sync::Arc;

fn setup() -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

fn modes() -> [FleetMode; 2] {
    [
        FleetMode::Colocated { replicas: 4 },
        FleetMode::Disaggregated {
            prefill_replicas: 2,
            decode_replicas: 2,
            transfer: StateTransferModel::nvlink(),
        },
    ]
}

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::FcfsStatic,
    PolicyKind::Continuous,
    PolicyKind::ChunkedPrefill { chunk_tokens: 128 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Free-run ≡ stepped to the bit, over seeded traces × every scheduling
    /// policy × replica counts {2, 3, 8}.
    #[test]
    fn free_run_is_bit_identical_to_the_stepped_loop(
        seed in 0u64..u64::MAX,
        rate in 10.0f64..90.0,
        n in 20usize..120,
        policy_idx in 0usize..3,
        replicas_idx in 0usize..3,
        scenario_idx in 0usize..2,
    ) {
        let (sim, model) = setup();
        let fleet = FleetSim::new(&sim, &model);
        let scenario = [Scenario::chat(), Scenario::reasoning()][scenario_idx].clone();
        let trace = scenario.generate(rate, n, seed);
        let mut config = FleetConfig::colocated([2, 3, 8][replicas_idx]);
        config.router = RouterKind::RoundRobin;
        config.policy = POLICIES[policy_idx];
        config.engine.max_batch = 12;
        config.engine.seq_bucket = 32;
        let free_run = fleet.run(&trace, &config);
        let noop = FaultPlan::default().restart(0.0, 0);
        let stepped = fleet.run_faulted(&trace, &config, &noop).expect("valid plan");
        prop_assert!(
            free_run == stepped,
            "free-run diverged: {}/replicas={}/n={n}/seed={seed:#x}",
            config.policy.name(),
            config.mode.replicas()
        );
    }
}

/// `FleetConfig::workers` is kept for compatibility and ignored by the single
/// event loop: any worker count is bit-identical to the default, across
/// {colocated, disaggregated} × every router × worker counts {1, 2, 8} ×
/// seeded traces.
#[test]
fn parallel_fleet_is_bit_identical_to_sequential_for_any_worker_count() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    for (seed, rate) in [(0xA11CE, 60.0), (0xB0B, 25.0)] {
        let trace = Scenario::chat().generate(rate, 90, seed);
        for mode in modes() {
            for router in RouterKind::ALL {
                let mut config = FleetConfig::colocated(1);
                config.mode = mode;
                config.router = router;
                config.engine.max_batch = 16;
                config.engine.seq_bucket = 32;
                let sequential = fleet.run(&trace, &config);
                for workers in [1, 2, 8] {
                    config.workers = workers;
                    let parallel = fleet.run(&trace, &config);
                    assert!(
                        parallel == sequential,
                        "diverged: {mode:?}/{}/workers={workers}/seed={seed:#x}",
                        router.name()
                    );
                }
            }
        }
    }
}

/// Scheduling policies ride along unchanged: the worker knob moves no
/// per-replica policy decision, and neither does the stepped loop.
#[test]
fn parallel_fleet_is_bit_identical_across_policies() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::reasoning().generate(30.0, 70, 17);
    for policy in POLICIES {
        for router in [RouterKind::RoundRobin, RouterKind::Jsq] {
            let mut config = FleetConfig::colocated(3);
            config.router = router;
            config.policy = policy;
            config.engine.max_batch = 12;
            config.engine.seq_bucket = 32;
            let sequential = fleet.run(&trace, &config);
            config.workers = 4;
            let parallel = fleet.run(&trace, &config);
            assert!(
                parallel == sequential,
                "diverged: {}/{}",
                policy.name(),
                router.name()
            );
            let noop = FaultPlan::default().restart(0.0, 0);
            let stepped = fleet.run_faulted(&trace, &config, &noop).expect("valid plan");
            assert!(
                stepped == sequential,
                "stepped loop diverged: {}/{}",
                policy.name(),
                router.name()
            );
        }
    }
}

/// The sharpest horizon edge: a handoff landing *exactly* on an arrival
/// instant. The loop's strict `h.time_ns < t` delivery test delivers it after
/// that arrival is routed; a no-op slowdown event at the same instant (the
/// faulted path through the merged timeline) must not move a bit either.
#[test]
fn handoff_exactly_on_a_window_boundary_stays_bit_identical() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let mut config = FleetConfig::colocated(1);
    config.mode = modes()[1];
    config.engine.max_batch = 8;
    config.engine.seq_bucket = 32;

    // Probe run: find the first handoff instant (first token + transfer).
    let base = Scenario::chat().generate(20.0, 12, 0x5EED);
    let probe = fleet.run(&base, &config);
    let transfer = StateTransferModel::nvlink();
    let memory = pimba_system::memory::MemoryModel::new(sim.config(), &model);
    let handoff_at = probe
        .outcomes
        .iter()
        .filter(|o| o.output_len > 1)
        .map(|o| o.first_token_ns + transfer.transfer_ns(memory.dynamic_bytes(1, o.prompt_len + 1)))
        .fold(f64::INFINITY, f64::min);
    assert!(handoff_at.is_finite(), "probe produced no handoffs");

    // Engineer a trace with one arrival at exactly that instant.
    let mut requests = base.requests.clone();
    requests.push(TraceRequest {
        arrival_ns: handoff_at,
        prompt_len: 96,
        output_len: 24,
        ..TraceRequest::default()
    });
    let trace = Trace::from_requests(requests);

    let noop = FaultPlan::default()
        .slowdown(handoff_at, 0, 1.0, 1.0e6)
        .slowdown(handoff_at, 3, 1.0, 1.0e6);
    for router in RouterKind::ALL {
        config.router = router;
        let plain = fleet.run(&trace, &config);
        let mut faulted = fleet.run_faulted(&trace, &config, &noop).expect("valid");
        assert_eq!(faulted.fault.slowdowns, 2);
        faulted.fault = FaultStats::default();
        assert!(
            faulted == plain,
            "boundary handoff diverged: {}",
            router.name()
        );
    }
}

/// The memo contract: a second run of the same grid is byte-identical and
/// never simulates — every cell, trace and capacity search is answered from
/// the store.
#[test]
fn warm_grid_reevaluation_is_byte_identical_with_zero_simulations() {
    let grid = FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![30.0, 80.0])
        .with_replica_counts(vec![2, 4])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell(40)
        .with_max_batch(16);
    let total = grid.len();
    let memo = Arc::new(FleetMemo::new());

    let cold = FleetRunner::new().with_memo(memo.clone()).run(&grid);
    let (traces, _, cells) = memo.stats();
    assert_eq!(cells.misses as usize, total, "cold run computes every cell");
    assert_eq!(memo.cells_stored(), total);
    let cold_trace_misses = traces.misses;

    let warm = FleetRunner::new().with_memo(memo.clone()).run(&grid);
    assert_eq!(warm, cold, "warm records must be byte-identical");
    let (traces, _, cells) = memo.stats();
    assert_eq!(
        cells.hits as usize, total,
        "warm run must answer every cell from the store"
    );
    assert_eq!(cells.misses as usize, total, "no warm recomputation");
    assert_eq!(
        traces.misses, cold_trace_misses,
        "no warm trace regeneration"
    );

    // Memoless and memoized runs agree (memo is invisible in the results),
    // and so does a memoized run at another runner thread count.
    let plain = FleetRunner::new().run(&grid);
    assert_eq!(plain, cold);
    let single = FleetRunner::new()
        .with_threads(1)
        .with_memo(memo.clone())
        .run(&grid);
    assert_eq!(single, cold, "threads are an execution knob, not a key");
    let (_, _, cells) = memo.stats();
    assert_eq!(
        cells.misses as usize, total,
        "single-threaded rerun hit every cell"
    );

    // One changed knob only recomputes what it invalidates: comparing one
    // more system reuses every existing cell (the outermost grid axis, so
    // existing cells keep their flat indices and per-cell router streams).
    let extended = grid.clone().with_systems(vec![
        SystemConfig::small_scale(SystemKind::Gpu),
        SystemConfig::small_scale(SystemKind::Pimba),
        SystemConfig::small_scale(SystemKind::GpuQuant),
    ]);
    let records = FleetRunner::new().with_memo(memo.clone()).run(&extended);
    assert_eq!(records.len(), extended.len());
    let (_, _, cells) = memo.stats();
    assert_eq!(
        cells.misses as usize,
        total + total / 2,
        "only the new system's cells simulate"
    );
}

/// The fault-injection identity gate: an **empty** `FaultPlan` routed through
/// `run_faulted` is byte-identical to `run` for every topology and router.
/// (Non-empty plans are covered by `tests/fault_determinism.rs`.)
#[test]
fn empty_fault_plan_rides_the_parallel_equivalence_matrix() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let trace = Scenario::chat().generate(45.0, 90, 0xFA17);
    let plan = FaultPlan::default();
    for mode in modes() {
        for router in RouterKind::ALL {
            let mut config = FleetConfig::colocated(1);
            config.mode = mode;
            config.router = router;
            config.engine.max_batch = 16;
            config.engine.seq_bucket = 32;
            let baseline = fleet.run(&trace, &config);
            let faulted = fleet
                .run_faulted(&trace, &config, &plan)
                .expect("empty plan validates");
            assert!(
                baseline == faulted,
                "empty plan diverged: {mode:?}/{}",
                router.name()
            );
        }
    }
}
