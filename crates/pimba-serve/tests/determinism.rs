//! Determinism regression: traffic-grid results must be bit-identical across
//! worker-thread counts, across repeat runs, and with the prefill cache on or
//! off — the acceptance property that makes queueing studies reproducible.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{Engine, EngineConfig};
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::sched::PolicyKind;
use pimba_serve::traffic::Scenario;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;

fn grid(policy: PolicyKind) -> TrafficGrid {
    TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![
            SystemConfig::small_scale(SystemKind::Gpu),
            SystemConfig::small_scale(SystemKind::Pimba),
        ])
        .with_scenarios(vec![Scenario::chat(), Scenario::rag_long_context()])
        .with_rates(vec![4.0, 24.0])
        .with_requests_per_cell(30)
        .with_policy(policy)
        .with_seq_bucket(32)
        .with_seed(1234)
}

/// Every float of a record, as exact bit patterns.
fn bits(records: &[TrafficRecord]) -> Vec<u64> {
    let mut out = Vec::new();
    for r in records {
        out.push(r.system as u64);
        out.push(r.scenario as u64);
        out.push(r.rate_rps.to_bits());
        out.push(r.max_batch as u64);
        let s = &r.summary;
        out.push(s.completed as u64);
        for p in [s.ttft_ms, s.tpot_ms, s.e2e_ms] {
            out.extend([p.p50.to_bits(), p.p90.to_bits(), p.p99.to_bits()]);
        }
        out.extend([
            s.throughput_rps.to_bits(),
            s.goodput_rps.to_bits(),
            s.slo_attainment.to_bits(),
            s.mean_batch_occupancy.to_bits(),
            s.peak_queue_depth as u64,
            s.makespan_s.to_bits(),
        ]);
    }
    out
}

#[test]
fn records_are_bit_identical_across_thread_counts_and_repeats() {
    for policy in [
        PolicyKind::FcfsStatic,
        PolicyKind::Continuous,
        PolicyKind::ChunkedPrefill { chunk_tokens: 256 },
    ] {
        let g = grid(policy);
        let reference = bits(&TrafficRunner::new().with_threads(1).run(&g));
        for threads in [1, 2, 5, 8] {
            let run = bits(&TrafficRunner::new().with_threads(threads).run(&g));
            assert_eq!(
                reference,
                run,
                "{}: thread count {threads} changed results",
                policy.name()
            );
        }
    }
}

#[test]
fn caching_does_not_change_results() {
    // Consecutive cells on one cached simulator share its warm prefill memo;
    // every cell must match a cache-free simulator bit for bit. `{:?}` prints
    // each f64 in shortest round-trip form, so equal strings mean equal bits.
    let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
    let config = EngineConfig {
        seq_bucket: 32,
        ..EngineConfig::default()
    };
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let cached = ServingSimulator::new(SystemConfig::small_scale(kind));
        let uncached = ServingSimulator::uncached(SystemConfig::small_scale(kind));
        for scenario in [Scenario::chat(), Scenario::rag_long_context()] {
            for rate in [4.0, 24.0] {
                let trace = scenario.generate(rate, 30, 1234);
                let run = |sim: &ServingSimulator| {
                    let mut scheduler = PolicyKind::Continuous.build();
                    let result = Engine::new(sim, &model, config).run(&trace, scheduler.as_mut());
                    format!("{result:?}")
                };
                assert_eq!(
                    run(&cached),
                    run(&uncached),
                    "{kind:?}/{}/{rate}: the prefill cache changed a result",
                    scenario.name
                );
            }
        }
        let stats = cached.cache().expect("cached simulator").prefill_stats();
        assert!(stats.hits > 0, "cells must share prefills: {stats:?}");
    }
}

#[test]
fn different_seeds_change_results_but_same_seed_reproduces() {
    let g = grid(PolicyKind::Continuous);
    let a = bits(&TrafficRunner::new().run(&g));
    let b = bits(&TrafficRunner::new().run(&g.clone().with_seed(1234)));
    let c = bits(&TrafficRunner::new().run(&g.clone().with_seed(4321)));
    assert_eq!(a, b);
    assert_ne!(a, c, "a different seed must draw a different trace");
}
