//! Property-based tests of the serving system: conservation of the latency breakdown,
//! ordering between the system design points, and monotonicity in the workload size.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_models::ops::OpKind;
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

const FAMILIES: [ModelFamily; 7] = [
    ModelFamily::RetNet,
    ModelFamily::Gla,
    ModelFamily::Hgrn2,
    ModelFamily::Mamba2,
    ModelFamily::Zamba2,
    ModelFamily::Opt,
    ModelFamily::Llama,
];

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Gpu,
    SystemKind::GpuQuant,
    SystemKind::GpuPim,
    SystemKind::Pimba,
    SystemKind::NeuPims,
];

/// Every model preset (all seven families at both scales) with the five
/// systems at the matching deployment scale, in [`SYSTEMS`] order.
fn every_model_with_systems() -> Vec<(ModelConfig, Vec<ServingSimulator>)> {
    let mut models = Vec::new();
    for scale in ModelScale::ALL {
        for family in FAMILIES {
            let sims = SYSTEMS
                .iter()
                .map(|&kind| {
                    ServingSimulator::new(match scale {
                        ModelScale::Small => SystemConfig::small_scale(kind),
                        ModelScale::Large => SystemConfig::large_scale(kind),
                    })
                })
                .collect();
            models.push((ModelConfig::preset(family, scale), sims));
        }
    }
    models
}

/// Every (model, system) pair of [`every_model_with_systems`].
fn every_model_and_system() -> Vec<(ModelConfig, ServingSimulator)> {
    every_model_with_systems()
        .into_iter()
        .flat_map(|(model, sims)| sims.into_iter().map(move |sim| (model.clone(), sim)))
        .collect()
}

/// The simulator of `kind` among one model's [`SYSTEMS`].
fn on(sims: &[ServingSimulator], kind: SystemKind) -> &ServingSimulator {
    &sims[SYSTEMS
        .iter()
        .position(|&k| k == kind)
        .expect("a compared system")]
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

    /// Memory use never falls when the batch or the sequence grows by one,
    /// and neither quantizing the state (GPU+Q against GPU) nor Pimba's MX8
    /// state (against GPU+PIM's fp16) ever takes more bytes. No slack.
    #[test]
    fn memory_is_monotone_and_ordered(b in 1usize..256, seq in 1usize..8192) {
        for (model, sims) in every_model_with_systems() {
            for sim in &sims {
                let name = sim.config().kind.name();
                let base = sim.memory_usage_bytes(&model, b, seq);
                prop_assert!(sim.memory_usage_bytes(&model, b + 1, seq) >= base, "{} {name}: batch {b}", model.family);
                prop_assert!(sim.memory_usage_bytes(&model, b, seq + 1) >= base, "{} {name}: seq {seq}", model.family);
            }
            let memory = |kind| on(&sims, kind).memory_usage_bytes(&model, b, seq);
            prop_assert!(memory(SystemKind::GpuQuant) <= memory(SystemKind::Gpu), "{} GPU+Q", model.family);
            prop_assert!(memory(SystemKind::Pimba) <= memory(SystemKind::GpuPim), "{} Pimba", model.family);
        }
    }

    /// An op class is never slower on a system with more PIM capability for
    /// it: Pimba's state update against GPU+PIM's and the GPU's, and NeuPIMs'
    /// and Pimba's attention against the GPU's. No slack.
    #[test]
    fn pim_offload_never_slows_its_op_class(b in 1usize..256, seq in 1usize..8192) {
        for (model, sims) in every_model_with_systems() {
            let op = |kind, class| {
                on(&sims, kind).generation_step(&model, b, seq).latency_of(class)
            };
            let state_update = |kind| op(kind, OpKind::StateUpdate);
            let attention = |kind| op(kind, OpKind::Attention);
            let family = model.family;
            prop_assert!(state_update(SystemKind::Pimba) <= state_update(SystemKind::GpuPim), "{family}: b {b} seq {seq}");
            prop_assert!(state_update(SystemKind::Pimba) <= state_update(SystemKind::Gpu), "{family}: b {b} seq {seq}");
            prop_assert!(attention(SystemKind::NeuPims) <= attention(SystemKind::Gpu), "{family}: b {b} seq {seq}");
            prop_assert!(attention(SystemKind::Pimba) <= attention(SystemKind::Gpu), "{family}: b {b} seq {seq}");
        }
    }

    /// Every part of a step's energy is non-negative, and the total never
    /// falls when the batch or the sequence grows by one. No slack.
    #[test]
    fn step_energy_is_non_negative_and_grows_with_work(b in 1usize..256, seq in 1usize..8192) {
        for (model, sim) in every_model_and_system() {
            let name = sim.config().kind.name();
            let energy = sim.step_energy(&model, b, seq);
            let parts = [
                energy.state_update_io_pj,
                energy.state_update_compute_pj,
                energy.attention_io_pj,
                energy.attention_compute_pj,
                energy.gemm_pj,
                energy.others_pj,
            ];
            prop_assert!(parts.iter().all(|&pj| pj >= 0.0), "{} {name}: {energy:?}", model.family);
            let total = energy.total_pj();
            prop_assert!(sim.step_energy(&model, b + 1, seq).total_pj() >= total, "{} {name}: batch {b}", model.family);
            prop_assert!(sim.step_energy(&model, b, seq + 1).total_pj() >= total, "{} {name}: seq {seq}", model.family);
        }
    }

    /// The op classes of a step sum to its total. Within a relative 1e-12,
    /// not exactly: `total_ns` adds the operators in execution order, and the
    /// per-class sum regroups them.
    #[test]
    fn op_classes_sum_to_the_step_total(b in 1usize..256, seq in 1usize..8192) {
        for (model, sim) in every_model_and_system() {
            let step = sim.generation_step(&model, b, seq);
            let by_class: f64 = OpKind::ALL.iter().map(|&kind| step.latency_of(kind)).sum();
            prop_assert!(
                (by_class - step.total_ns).abs() <= 1e-12 * step.total_ns,
                "{} {}: {by_class} vs {}", model.family, sim.config().kind.name(), step.total_ns
            );
        }
    }
}
