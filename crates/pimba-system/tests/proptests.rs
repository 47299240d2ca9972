//! Property-based tests of the serving system: conservation of the latency breakdown,
//! ordering between the system design points, and monotonicity in the workload size.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::serving::ServingSimulator;
use proptest::prelude::*;

fn family() -> impl Strategy<Value = ModelFamily> {
    prop_oneof![
        Just(ModelFamily::RetNet),
        Just(ModelFamily::Gla),
        Just(ModelFamily::Hgrn2),
        Just(ModelFamily::Mamba2),
        Just(ModelFamily::Zamba2),
        Just(ModelFamily::Opt),
    ]
}

fn batch() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(8usize),
        Just(16),
        Just(32),
        Just(64),
        Just(128),
        Just(192)
    ]
}

/// Every (model, system) pair: all seven families at both scales, on all
/// five systems at the matching deployment scale.
fn every_model_and_system() -> Vec<(ModelConfig, ServingSimulator)> {
    let families = [
        ModelFamily::RetNet,
        ModelFamily::Gla,
        ModelFamily::Hgrn2,
        ModelFamily::Mamba2,
        ModelFamily::Zamba2,
        ModelFamily::Opt,
        ModelFamily::Llama,
    ];
    let systems = [
        SystemKind::Gpu,
        SystemKind::GpuQuant,
        SystemKind::GpuPim,
        SystemKind::Pimba,
        SystemKind::NeuPims,
    ];
    let mut pairs = Vec::new();
    for scale in ModelScale::ALL {
        for family in families {
            for kind in systems {
                let config = match scale {
                    ModelScale::Small => SystemConfig::small_scale(kind),
                    ModelScale::Large => SystemConfig::large_scale(kind),
                };
                pairs.push((
                    ModelConfig::preset(family, scale),
                    ServingSimulator::new(config),
                ));
            }
        }
    }
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The step total equals the sum of its per-operator contributions (blocked
    /// execution), and every contribution is finite and non-negative.
    #[test]
    fn step_breakdown_is_conservative(f in family(), b in batch(), seq in 256usize..4096) {
        for kind in SystemKind::MAIN_COMPARISON {
            let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
            let model = ModelConfig::preset(f, ModelScale::Small);
            let step = sim.generation_step(&model, b, seq);
            let sum: f64 = step.ops.iter().map(|o| o.latency_ns).sum();
            prop_assert!((sum - step.total_ns).abs() < 1e-6 * step.total_ns.max(1.0));
            for op in &step.ops {
                prop_assert!(op.latency_ns.is_finite() && op.latency_ns >= 0.0);
            }
        }
    }

    /// Pimba never loses to the plain GPU, and quantizing the state (GPU+Q) never loses
    /// to the fp16 GPU, for any model/batch/sequence combination.
    #[test]
    fn system_ordering_holds_everywhere(f in family(), b in batch(), seq in 256usize..4096) {
        let model = ModelConfig::preset(f, ModelScale::Small);
        let t = |kind| {
            ServingSimulator::new(SystemConfig::small_scale(kind))
                .generation_throughput(&model, b, seq)
        };
        let gpu = t(SystemKind::Gpu);
        prop_assert!(t(SystemKind::Pimba) >= gpu);
        prop_assert!(t(SystemKind::GpuQuant) >= gpu * 0.999);
    }

    /// Step latency never falls when the batch or the sequence grows by one,
    /// on every system and model family and at both scales. No slack: the law
    /// holds exactly.
    #[test]
    fn latency_is_monotone_in_workload(b in 1usize..256, seq in 1usize..8192) {
        for (model, sim) in every_model_and_system() {
            let base = sim.generation_step(&model, b, seq).total_ns;
            let bigger_batch = sim.generation_step(&model, b + 1, seq).total_ns;
            let longer_seq = sim.generation_step(&model, b, seq + 1).total_ns;
            prop_assert!(bigger_batch >= base, "{} {}: batch {b}", model.family, sim.config().kind.name());
            prop_assert!(longer_seq >= base, "{} {}: seq {seq}", model.family, sim.config().kind.name());
        }
    }

    /// Prefill latency never falls when the prompt or the batch grows by one,
    /// on every system and model family and at both scales. No slack.
    #[test]
    fn prefill_latency_is_monotone_in_workload(b in 1usize..256, prompt in 1usize..8192) {
        for (model, sim) in every_model_and_system() {
            let base = sim.prefill_latency_ns(&model, b, prompt);
            let bigger_batch = sim.prefill_latency_ns(&model, b + 1, prompt);
            let longer_prompt = sim.prefill_latency_ns(&model, b, prompt + 1);
            prop_assert!(bigger_batch >= base, "{} {}: batch {b}", model.family, sim.config().kind.name());
            prop_assert!(longer_prompt >= base, "{} {}: prompt {prompt}", model.family, sim.config().kind.name());
        }
    }

    /// Energy is positive, finite, and the Pimba system never uses more energy than the
    /// plain GPU for the same workload.
    #[test]
    fn energy_is_sane(f in family(), b in batch()) {
        let model = ModelConfig::preset(f, ModelScale::Small);
        let gpu = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu))
            .step_energy(&model, b, 2048);
        let pimba = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba))
            .step_energy(&model, b, 2048);
        prop_assert!(gpu.total_pj().is_finite() && gpu.total_pj() > 0.0);
        prop_assert!(pimba.total_pj().is_finite() && pimba.total_pj() > 0.0);
        prop_assert!(pimba.total_pj() <= gpu.total_pj() * 1.001);
    }

    /// Memory accounting is monotone in batch and never negative.
    #[test]
    fn memory_is_monotone(f in family(), b in batch(), seq in 256usize..4096) {
        let model = ModelConfig::preset(f, ModelScale::Small);
        let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let small = sim.memory_usage_bytes(&model, b, seq);
        let large = sim.memory_usage_bytes(&model, b + 8, seq);
        prop_assert!(small > 0.0);
        prop_assert!(large >= small);
    }
}
