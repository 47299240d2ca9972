//! Regression tests of the performance layer: the prefill cache and the
//! seq-invariant step function must leave every result exactly
//! (bit-for-bit) identical to the plain uncached per-op evaluation.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use pimba_system::sweep::max_batch_within_slo;

fn models() -> Vec<ModelConfig> {
    [
        ModelFamily::RetNet,
        ModelFamily::Mamba2,
        ModelFamily::Zamba2,
        ModelFamily::Opt,
    ]
    .iter()
    .map(|&f| ModelConfig::preset(f, ModelScale::Small))
    .collect()
}

fn systems() -> Vec<SystemConfig> {
    SystemKind::MAIN_COMPARISON
        .iter()
        .map(|&k| SystemConfig::small_scale(k))
        .collect()
}

/// Asserts two f64 values are the same bit pattern (stronger than `==`).
fn assert_bits_eq(a: f64, b: f64, context: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{context}: {a} vs {b} differ in bits"
    );
}

#[test]
fn cached_steps_are_bit_identical_to_uncached() {
    for system in systems() {
        let cached = ServingSimulator::new(system.clone());
        let uncached = ServingSimulator::uncached(system.clone());
        for model in &models() {
            for &batch in &[16usize, 64, 128] {
                for &seq in &[512usize, 2048] {
                    // Evaluate twice on the cached simulator: a repeat must
                    // not change a result.
                    let first = cached.generation_step(model, batch, seq);
                    let warm = cached.generation_step(model, batch, seq);
                    let cold = uncached.generation_step(model, batch, seq);
                    assert_eq!(first, warm, "a repeat evaluation changed a result");
                    assert_eq!(warm.ops.len(), cold.ops.len());
                    for (a, b) in warm.ops.iter().zip(&cold.ops) {
                        assert_eq!((a.kind, a.side), (b.kind, b.side));
                        assert_bits_eq(
                            a.latency_ns,
                            b.latency_ns,
                            &format!(
                                "{} {} b{batch} s{seq} {}",
                                system.kind,
                                model.label(),
                                a.kind
                            ),
                        );
                    }
                    assert_bits_eq(warm.total_ns, cold.total_ns, "step total");
                }
            }
        }
        // The prefill layer: a repeated prefill is answered from the cache,
        // with the uncached bits.
        let model = &models()[0];
        let first = cached.prefill_latency_ns(model, 16, 512);
        let warm = cached.prefill_latency_ns(model, 16, 512);
        let stats = cached.cache().unwrap().prefill_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        assert_bits_eq(first, warm, "prefill warm-up");
        assert_bits_eq(
            warm,
            uncached.prefill_latency_ns(model, 16, 512),
            "cached prefill",
        );
    }
}

/// The row evaluator behind `StepLatencyTable`: one `StepFunction` per
/// (system, model, batch) answers every sequence length with the bits of a
/// point-by-point `generation_step` and `memory_usage_bytes` on a fresh
/// uncached simulator — both its breakdown and the table's fill path
/// `total_ns`, which costs attention from factors hoisted out of the
/// sequence length. Covers every system kind (NeuPIMs included) on one
/// A100, on eight A100s with tensor parallelism, and on eight H100s, whose
/// PIM designs are HBM3, and lengths around a table page edge.
#[test]
fn step_function_matches_direct_uncached_evaluation() {
    let kinds = SystemKind::MAIN_COMPARISON
        .into_iter()
        .chain([SystemKind::NeuPims]);
    let scaled_systems = kinds.flat_map(|kind| {
        [
            (SystemConfig::small_scale(kind), ModelScale::Small),
            (SystemConfig::large_scale(kind), ModelScale::Large),
            (SystemConfig::h100_large_scale(kind), ModelScale::Large),
        ]
    });
    for (system, scale) in scaled_systems {
        let cached = ServingSimulator::new(system.clone());
        let uncached = ServingSimulator::uncached(system);
        let families = [
            ModelFamily::RetNet,
            ModelFamily::Mamba2,
            ModelFamily::Zamba2,
            ModelFamily::Opt,
            ModelFamily::Llama,
        ];
        for family in families {
            let model = &ModelConfig::preset(family, scale);
            for batch in [16usize, 64, 128] {
                let step_fn = cached.step_function(model, batch);
                for seq in [1usize, 255, 256, 257, 512, 1024, 2048, 4096, 8191] {
                    let context = format!(
                        "{} tp{} {} b{batch} s{seq}",
                        cached.config().kind,
                        cached.config().cluster.tensor_parallel,
                        model.label()
                    );
                    let row = step_fn.breakdown(seq);
                    let direct = uncached.generation_step(model, batch, seq);
                    assert_eq!(row.ops.len(), direct.ops.len(), "{context}");
                    for (a, b) in row.ops.iter().zip(&direct.ops) {
                        assert_eq!((a.kind, a.side), (b.kind, b.side), "{context}");
                        assert_bits_eq(a.latency_ns, b.latency_ns, &context);
                    }
                    assert_bits_eq(row.total_ns, direct.total_ns, &context);
                    assert_bits_eq(step_fn.total_ns(seq), direct.total_ns, &context);
                    assert_bits_eq(
                        step_fn.memory_bytes(seq),
                        uncached.memory_usage_bytes(model, batch, seq),
                        &context,
                    );
                }
            }
        }
    }
}

#[test]
fn request_latency_is_cache_invariant() {
    for kind in SystemKind::MAIN_COMPARISON {
        let system = SystemConfig::small_scale(kind);
        let cached = ServingSimulator::new(system.clone());
        let uncached = ServingSimulator::uncached(system);
        let model = ModelConfig::preset(ModelFamily::Zamba2, ModelScale::Small);
        let a = cached.request_latency(&model, 16, 512, 128);
        let b = uncached.request_latency(&model, 16, 512, 128);
        assert_bits_eq(a.prefill_ms, b.prefill_ms, "prefill");
        assert_bits_eq(a.generation_ms, b.generation_ms, "generation");
    }
}

#[test]
fn slo_capacity_is_cache_invariant() {
    let model = ModelConfig::preset(ModelFamily::RetNet, ModelScale::Small);
    let system = SystemConfig::small_scale(SystemKind::Pimba);
    let cached = ServingSimulator::new(system.clone());
    let uncached = ServingSimulator::uncached(system);
    let slo_ms = uncached.generation_step(&model, 96, 2048).total_ns * 1e-6;
    assert_eq!(
        max_batch_within_slo(&cached, &model, 2048, slo_ms, 1024),
        max_batch_within_slo(&uncached, &model, 2048, slo_ms, 1024),
    );
}
