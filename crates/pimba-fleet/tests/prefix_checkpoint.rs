//! Routed-prefix checkpoints restore byte-identical state across runs and
//! grid cells that share a trace prefix: a checkpoint-warm run simulates only
//! the tail and still matches a cold run bit for bit.

use pimba_fleet::cluster::{FleetConfig, FleetSim};
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::MemoStore;
use pimba_system::serving::ServingSimulator;

fn setup() -> (ServingSimulator, ModelConfig) {
    (
        ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba)),
        ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
    )
}

fn config(replicas: usize, router: RouterKind) -> FleetConfig {
    let mut config = FleetConfig::colocated(replicas);
    config.router = router;
    config.engine.max_batch = 8;
    config.engine.seq_bucket = 32;
    config
}

/// A tie-heavy trace: waves of simultaneous arrivals (JSQ ties broken by
/// index) with prompt/output lengths cycling so replica completions straddle
/// the checkpoint boundaries.
fn adversarial_trace(n: usize, wave: usize, gap_ns: f64) -> Trace {
    let requests = (0..n)
        .map(|i| TraceRequest {
            arrival_ns: (i / wave.max(1)) as f64 * gap_ns,
            prompt_len: 16 + 24 * (i % 7),
            output_len: 2 + 5 * (i % 4),
            tenant: (i % 3) as u32,
            priority: 0,
        })
        .collect();
    Trace::from_requests(requests)
}

/// Routed-prefix checkpoints: a fleet whose trace extends another's restores
/// the stored prefix checkpoint and still produces bytes identical to a cold
/// run — the cross-cell sub-run reuse the memo grids lean on.
#[test]
fn prefix_checkpoints_restore_bit_identical_across_prefix_sharing_runs() {
    let (sim, model) = setup();
    let fleet = FleetSim::new(&sim, &model);
    let long = adversarial_trace(100, 5, 350e3);
    let short = Trace::from_requests(long.requests[..50].to_vec());
    let cfg = config(3, RouterKind::Jsq);
    let every = 25;

    for router in [RouterKind::Jsq, RouterKind::PowerOfTwo] {
        let mut cfg = cfg.clone();
        cfg.router = router;
        let store = MemoStore::new();
        let cold_short = fleet.run(&short, &cfg);
        let cold_long = fleet.run(&long, &cfg);

        // Cold checkpointed runs match the plain driver bit for bit.
        let ck_short = fleet.run_checkpointed(&short, &cfg, &store, every);
        assert!(
            ck_short == cold_short,
            "{}: checkpointed short run diverged",
            router.name()
        );
        // The long trace shares the short trace's whole prefix: its run
        // restores the stored prefix-50 checkpoint (a warm hit) and only
        // simulates the tail — still bit-identical to cold.
        let before = store.stats().hits;
        let ck_long = fleet.run_checkpointed(&long, &cfg, &store, every);
        assert!(
            ck_long == cold_long,
            "{}: warm long run diverged",
            router.name()
        );
        assert!(
            store.stats().hits > before,
            "{}: the prefix-sharing run never hit a stored checkpoint",
            router.name()
        );

        // Re-running either trace restores its full-trace checkpoint.
        let ck_short_again = fleet.run_checkpointed(&short, &cfg, &store, every);
        assert!(
            ck_short_again == cold_short,
            "{}: rerun diverged",
            router.name()
        );
    }
}

/// The grid-level integration: a memoized grid with prefix checkpoints on
/// produces records byte-identical to one with them off, and a second grid
/// at a larger `requests_per_cell` reuses the first grid's checkpoints
/// mid-trace (trace generation is prefix-stable in the request count).
#[test]
fn grids_with_prefix_checkpoints_match_plain_grids_and_reuse_across_cells() {
    let (_, model) = setup();
    let grid = FleetGrid::new(model)
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![45.0])
        .with_replica_counts(vec![3])
        .with_routers(vec![RouterKind::Jsq])
        .with_requests_per_cell(60)
        .with_max_batch(8)
        .with_seq_bucket(32);

    let plain = FleetRunner::new()
        .with_memo(std::sync::Arc::new(FleetMemo::new()))
        .run(&grid);

    let memo = std::sync::Arc::new(FleetMemo::new());
    let checkpointed = FleetRunner::new()
        .with_memo(std::sync::Arc::clone(&memo))
        .run(&grid.clone().with_prefix_checkpoints(20));
    assert_eq!(plain, checkpointed, "prefix checkpoints changed grid bytes");
    assert!(memo.checkpoints_stored() > 0, "no checkpoints were stored");

    // Same grid, longer traces: the shared 60-request prefix (a stored
    // multiple of 20) warms the longer cells mid-trace.
    let longer = FleetRunner::new()
        .with_memo(std::sync::Arc::clone(&memo))
        .run(
            &grid
                .clone()
                .with_requests_per_cell(90)
                .with_prefix_checkpoints(20),
        );
    let plain_longer = FleetRunner::new()
        .with_memo(std::sync::Arc::new(FleetMemo::new()))
        .run(&grid.with_requests_per_cell(90));
    assert_eq!(plain_longer, longer, "warm-prefix longer grid diverged");
    assert!(
        memo.checkpoint_stats().hits > 0,
        "longer grid never restored a stored checkpoint"
    );
}
