//! Checkpoint-restore preemption: engine mechanics (exact transfer pricing,
//! clamps, conservation) and the memory-pressure eviction policy under a
//! pressured budget — including the paper's asymmetry: a transformer KV
//! cache makes eviction ruinous where a constant SU-LLM state makes it
//! nearly free.

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::engine::{AdmissionMode, Engine, EngineConfig, EngineView, CHECKPOINT_LINK};
use pimba_serve::sched::{
    Action, ContinuousBatching, MemoryPressureEviction, Scheduler, VictimOrder,
};
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memory::MemoryModel;
use pimba_system::serving::ServingSimulator;

fn mamba() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small)
}

fn opt() -> ModelConfig {
    ModelConfig::preset(ModelFamily::Opt, ModelScale::Small)
}

/// `params + slots × (per-request dynamic bytes at the final sequence)` — a
/// budget that fits exactly `slots` completed requests.
fn pressured_capacity(
    sim: &ServingSimulator,
    model: &ModelConfig,
    final_seq: usize,
    slots: usize,
) -> f64 {
    let memory = MemoryModel::new(sim.config(), model);
    let params = memory.usage_bytes(0, 1);
    params + slots as f64 * memory.dynamic_bytes(1, final_seq)
}

/// A decode-heavy burst: short prompts, long outputs (the KV cache grows a
/// lot after admission — the regime live admission overcommits in).
fn pressure_trace(n: usize) -> Trace {
    Trace::from_requests(
        (0..n)
            .map(|i| TraceRequest {
                arrival_ns: i as f64 * 2e6,
                prompt_len: 192 + 32 * (i % 3),
                output_len: 640 + 64 * (i % 5),
                ..TraceRequest::default()
            })
            .collect(),
    )
}

/// With ample capacity the watermark is never approached and the eviction
/// policy (under live admission) is bit-identical to continuous batching
/// under the default final-sequence admission: admissions are batch-cap-
/// bound in both, nothing is ever evicted.
#[test]
fn eviction_policy_without_pressure_degenerates_to_continuous() {
    let model = mamba();
    for kind in [SystemKind::Gpu, SystemKind::Pimba] {
        let sim = ServingSimulator::new(SystemConfig::small_scale(kind));
        let trace = Scenario::chat().generate(25.0, 60, 3);
        let baseline_config = EngineConfig {
            max_batch: 16,
            seq_bucket: 16,
            ..EngineConfig::default()
        };
        let engine = Engine::new(&sim, &model, baseline_config);
        let expected = engine.run(&trace, &mut ContinuousBatching);

        for victims in [VictimOrder::LongestSequence, VictimOrder::Newest] {
            let live_engine = Engine::new(
                &sim,
                &model,
                EngineConfig {
                    admission: AdmissionMode::LiveOccupancy,
                    ..baseline_config
                },
            );
            let got = live_engine.run(&trace, &mut MemoryPressureEviction::new(victims));
            assert_eq!(got, expected, "{kind:?}/{}", victims.name());
            assert_eq!(got.preemption.evictions, 0);
        }
    }
}

/// Misconfiguration guard: selecting the eviction policy *without*
/// `AdmissionMode::LiveOccupancy` must not pay gratuitous checkpoints —
/// final-sequence admission guarantees every occupant fits, so the policy
/// detects the mode and is bit-identical to plain continuous batching even
/// on a pressured budget where live usage brushes the watermarks.
#[test]
fn eviction_policy_under_final_seq_admission_is_exactly_continuous() {
    let model = opt();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let trace = pressure_trace(40);
    let capacity = pressured_capacity(&sim, &model, 960, 6);
    for fast_forward in [true, false] {
        let config = EngineConfig {
            max_batch: 64,
            capacity_bytes: Some(capacity),
            seq_bucket: 16,
            fast_forward,
            ..EngineConfig::default() // AdmissionMode::FinalSeqLen
        };
        let engine = Engine::new(&sim, &model, config);
        let expected = engine.run(&trace, &mut ContinuousBatching);
        let got = engine.run(
            &trace,
            &mut MemoryPressureEviction::new(VictimOrder::LongestSequence),
        );
        assert_eq!(got, expected, "ff={fast_forward}");
        assert_eq!(got.preemption.evictions, 0);
    }
}

/// Under a pressured budget the GPU/OPT cell must actually evict, every
/// eviction must be matched by a resume, every request must complete, and
/// the byte/stall accounting must be self-consistent.
#[test]
fn pressured_kv_cell_evicts_restores_and_completes() {
    let model = opt();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let trace = pressure_trace(40);
    let capacity = pressured_capacity(&sim, &model, 960, 6);
    for victims in [VictimOrder::LongestSequence, VictimOrder::Newest] {
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 64,
                capacity_bytes: Some(capacity),
                seq_bucket: 16,
                admission: AdmissionMode::LiveOccupancy,
                ..EngineConfig::default()
            },
        );
        let result = engine.run(&trace, &mut MemoryPressureEviction::new(victims));
        assert_eq!(result.outcomes.len(), trace.len(), "{}", victims.name());
        for o in &result.outcomes {
            assert!(o.first_token_ns > o.arrival_ns);
            assert!(o.completion_ns >= o.first_token_ns);
        }
        let p = result.preemption;
        assert!(
            p.evictions > 0,
            "{}: the pressured cell must evict",
            victims.name()
        );
        assert_eq!(p.evictions, p.resumes, "everything evicted must resume");
        assert!(p.checkpoint_bytes > 0.0 && p.restore_bytes > 0.0);
        // Restores ship exactly what checkpoints shipped (same requests,
        // same frozen state sizes; only the summation grouping differs).
        let rel = (p.checkpoint_bytes - p.restore_bytes).abs() / p.checkpoint_bytes;
        assert!(
            rel < 1e-9,
            "checkpoint {} vs restore {}",
            p.checkpoint_bytes,
            p.restore_bytes
        );
        assert!(p.checkpoint_stall_ns > 0.0 && p.restore_stall_ns > 0.0);
        assert!(p.checkpoint_stall_ns < result.makespan_ns);
    }
}

/// Evict-longest frees more bytes per transfer than evict-newest on a
/// KV-cache model (the longest sequence carries the largest cache), and the
/// two orders genuinely schedule differently.
#[test]
fn victim_orders_differ_and_longest_ships_more_bytes_per_eviction() {
    let model = opt();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let trace = pressure_trace(40);
    let capacity = pressured_capacity(&sim, &model, 960, 6);
    let run = |victims: VictimOrder| {
        let engine = Engine::new(
            &sim,
            &model,
            EngineConfig {
                max_batch: 64,
                capacity_bytes: Some(capacity),
                seq_bucket: 16,
                admission: AdmissionMode::LiveOccupancy,
                ..EngineConfig::default()
            },
        );
        engine.run(&trace, &mut MemoryPressureEviction::new(victims))
    };
    let longest = run(VictimOrder::LongestSequence);
    let newest = run(VictimOrder::Newest);
    assert_ne!(longest, newest, "victim orders must actually differ");
    let per_eviction = |r: &pimba_serve::metrics::SimResult| {
        r.preemption.checkpoint_bytes / r.preemption.evictions as f64
    };
    assert!(
        per_eviction(&longest) > per_eviction(&newest),
        "longest {} B/evict vs newest {} B/evict",
        per_eviction(&longest),
        per_eviction(&newest)
    );
}

/// Live admission really is more aggressive than final-sequence admission on
/// a growing-KV model: the pressured cell reaches a higher peak batch
/// occupancy (that is the overcommit eviction repays).
#[test]
fn live_admission_overcommits_where_final_admission_queues() {
    let model = opt();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let trace = pressure_trace(40);
    let capacity = pressured_capacity(&sim, &model, 960, 6);
    let base = EngineConfig {
        max_batch: 64,
        capacity_bytes: Some(capacity),
        seq_bucket: 16,
        ..EngineConfig::default()
    };
    let conservative = Engine::new(&sim, &model, base).run(&trace, &mut ContinuousBatching);
    let live = Engine::new(
        &sim,
        &model,
        EngineConfig {
            admission: AdmissionMode::LiveOccupancy,
            ..base
        },
    )
    .run(
        &trace,
        &mut MemoryPressureEviction::new(VictimOrder::LongestSequence),
    );
    assert!(
        live.telemetry.peak_batch_occupancy > conservative.telemetry.peak_batch_occupancy,
        "live peak {} must exceed conservative peak {}",
        live.telemetry.peak_batch_occupancy,
        conservative.telemetry.peak_batch_occupancy
    );
}

/// The same pressured protocol on Pimba serving Mamba-2: the state is
/// constant-size, live accounting equals final accounting, and the policy
/// never needs to evict — the paper's suspend-is-cheap claim in its
/// strongest form (suspension never even happens).
#[test]
fn constant_state_never_triggers_eviction_under_the_same_protocol() {
    let model = mamba();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let trace = pressure_trace(40);
    let capacity = pressured_capacity(&sim, &model, 960, 6);
    let engine = Engine::new(
        &sim,
        &model,
        EngineConfig {
            max_batch: 64,
            capacity_bytes: Some(capacity),
            seq_bucket: 16,
            admission: AdmissionMode::LiveOccupancy,
            ..EngineConfig::default()
        },
    );
    let result = engine.run(
        &trace,
        &mut MemoryPressureEviction::new(VictimOrder::LongestSequence),
    );
    assert_eq!(result.outcomes.len(), trace.len());
    assert_eq!(
        result.preemption.evictions, 0,
        "constant state: no pressure"
    );
}

/// A scripted scheduler exercising the engine's Preempt/Resume mechanics
/// directly: evict one specific running request after its third token, let
/// the rest decode, resume it, and finish. Pins exact transfer pricing and
/// checkpoint-restore (not restart) semantics.
struct ScriptedPreempt {
    victim: usize,
    evicted_once: bool,
    /// The `EvictedRequest` snapshot as seen from the view while the victim
    /// waited: (evicted_at_ns, state_bytes, generated).
    observed: Option<(f64, f64, usize)>,
}

impl Scheduler for ScriptedPreempt {
    fn name(&self) -> &'static str {
        "scripted_preempt"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        if !self.evicted_once {
            if let Some(slot) = view.batch().iter().find(|s| s.id == self.victim) {
                if slot.generated >= 3 {
                    self.evicted_once = true;
                    return Action::Preempt {
                        victims: vec![self.victim],
                    };
                }
            }
        }
        if let Some(evicted) = view.evicted.first() {
            self.observed = Some((
                evicted.evicted_at_ns,
                evicted.state_bytes,
                evicted.slot.generated,
            ));
        }
        // Once the survivors have drained, bring the victim back.
        if view.running == 0 && !view.evicted.is_empty() {
            return Action::Resume { count: 1 };
        }
        let admissible = view.admissible_count();
        if admissible > 0 {
            Action::AdmitAndPrefill { count: admissible }
        } else if view.running > 0 {
            Action::DecodeStep {
                fused_chunk_tokens: 0,
            }
        } else {
            Action::Wait
        }
    }
}

#[test]
fn scripted_preempt_prices_transfers_exactly_and_resumes_not_restarts() {
    let model = opt();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
    let config = EngineConfig {
        max_batch: 8,
        ..EngineConfig::default()
    };
    let engine = Engine::new(&sim, &model, config);
    let trace = Trace::closed_loop(3, 256, 12);
    let mut scheduler = ScriptedPreempt {
        victim: 1,
        evicted_once: false,
        observed: None,
    };
    let result = engine.run(&trace, &mut scheduler);
    assert_eq!(result.outcomes.len(), 3);
    let p = result.preemption;
    assert_eq!((p.evictions, p.resumes), (1, 1));
    // The victim was evicted at generated == 3, i.e. seq = 256 + 3; the
    // checkpoint ships its dynamic state at exactly that length, and the
    // restore ships the same bytes back.
    let memory = MemoryModel::new(sim.config(), &model);
    let expected_bytes = memory.dynamic_bytes(1, 256 + 3);
    assert_eq!(p.checkpoint_bytes, expected_bytes);
    assert_eq!(p.restore_bytes, expected_bytes);
    let expected_stall = CHECKPOINT_LINK.transfer_ns(expected_bytes);
    assert_eq!(p.checkpoint_stall_ns, expected_stall);
    assert_eq!(p.restore_stall_ns, expected_stall);
    // Checkpoint-restore, not restart: the victim completes strictly later
    // than the survivors but still produces exactly its 12 tokens, and its
    // first token predates the eviction (stamped before suspension).
    let victim = result.outcomes.iter().find(|o| o.id == 1).unwrap();
    let survivor = result.outcomes.iter().find(|o| o.id == 0).unwrap();
    assert!(victim.completion_ns > survivor.completion_ns);
    assert!(victim.first_token_ns < survivor.completion_ns);
    // The view's evicted-pool record is faithful: stamped at the eviction
    // instant (after the victim's third token, before the survivors
    // finished), frozen at the suspension state, priced at the shipped size.
    let (evicted_at_ns, state_bytes, generated) = scheduler.observed.expect("victim observed");
    assert!(evicted_at_ns > victim.first_token_ns);
    assert!(evicted_at_ns < survivor.completion_ns);
    assert_eq!(state_bytes, expected_bytes);
    assert_eq!(generated, 3);
}

/// Engine clamps: bogus victims and empty resumes degrade instead of
/// panicking or spinning, and a `Resume` never exceeds the batch cap.
struct Pathological {
    phase: usize,
}

impl Scheduler for Pathological {
    fn name(&self) -> &'static str {
        "pathological"
    }

    fn decide(&mut self, view: &EngineView<'_>) -> Action {
        self.phase += 1;
        match self.phase % 3 {
            // Victims that do not exist.
            0 => Action::Preempt {
                victims: vec![usize::MAX, 12345],
            },
            // Resume with nothing evicted (or absurd counts).
            1 => Action::Resume { count: usize::MAX },
            _ => {
                let admissible = view.admissible_count();
                if admissible > 0 {
                    Action::AdmitAndPrefill { count: admissible }
                } else if view.running > 0 {
                    Action::DecodeStep {
                        fused_chunk_tokens: 0,
                    }
                } else {
                    Action::Wait
                }
            }
        }
    }
}

#[test]
fn engine_degrades_pathological_preempt_and_resume_actions() {
    let model = mamba();
    let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
    let engine = Engine::new(
        &sim,
        &model,
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
    );
    let trace = Scenario::chat().generate(20.0, 30, 9);
    let result = engine.run(&trace, &mut Pathological { phase: 0 });
    assert_eq!(result.outcomes.len(), trace.len());
    assert_eq!(result.preemption.evictions, 0);
    assert_eq!(result.preemption.resumes, 0);
    assert!(result.telemetry.peak_batch_occupancy <= 4);
}
