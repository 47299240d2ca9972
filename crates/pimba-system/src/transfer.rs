//! Inter-replica state-transfer latency: the handoff cost model of
//! disaggregated prefill/decode serving.
//!
//! Disaggregated serving (Splitwise/DistServe-style) runs prefill and decode
//! on separate replica pools: when a prompt finishes prefilling, its decoding
//! context — the SU-LLM recurrent state, plus the KV cache for attention
//! layers — must move to a decode replica over the inter-node fabric. The
//! size of that context is where Pimba's quantized-state advantage compounds:
//! an MX8 Mamba-2 state is a few tens of megabytes per request regardless of
//! context length, while a transformer's fp16 KV cache grows linearly with
//! the prompt and reaches gigabytes — so the same fabric that makes SU-LLM
//! disaggregation nearly free makes transformer disaggregation
//! bandwidth-bound. [`StateTransferModel`] prices one handoff;
//! [`handoff_bytes`] computes what a system/model pair actually ships
//! (bit-identical to the [`memory`](crate::memory) accounting, since it reads
//! the same breakdown).

use crate::config::SystemConfig;
use crate::memory::memory_breakdown;
use pimba_models::config::ModelConfig;

/// Latency model of one prefill→decode state handoff: a fixed per-transfer
/// setup cost plus a bandwidth term over the shipped bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTransferModel {
    /// Link bandwidth in GB/s (1 GB/s = 1 byte/ns, so the bandwidth term is
    /// simply `bytes / link_gbps` nanoseconds).
    pub link_gbps: f64,
    /// Fixed per-handoff latency in microseconds (RDMA setup, control-plane
    /// round trip, destination-side registration).
    pub base_latency_us: f64,
}

impl StateTransferModel {
    /// An A100-class NVLink/NVSwitch fabric: 300 GB/s effective per-direction
    /// bandwidth, 15 µs per-transfer setup.
    pub const fn nvlink() -> Self {
        Self {
            link_gbps: 300.0,
            base_latency_us: 15.0,
        }
    }

    /// Latency in nanoseconds of shipping `bytes` over this link.
    pub fn transfer_ns(&self, bytes: f64) -> f64 {
        assert!(self.link_gbps > 0.0, "link bandwidth must be positive");
        self.base_latency_us * 1e3 + bytes / self.link_gbps
    }
}

impl Default for StateTransferModel {
    fn default() -> Self {
        Self::nvlink()
    }
}

/// Bytes one request's decoding context occupies at `seq_len` on `config` —
/// the recurrent state plus the KV cache, in the system's storage formats,
/// excluding the (replicated, never shipped) parameters. This is exactly the
/// per-request dynamic term of the [`memory`](crate::memory) accounting.
pub fn handoff_bytes(config: &SystemConfig, model: &ModelConfig, seq_len: usize) -> f64 {
    let breakdown = memory_breakdown(config, model, 1, seq_len);
    breakdown.state_bytes + breakdown.kv_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, SystemKind};
    use crate::memory::MemoryModel;
    use pimba_models::config::{ModelFamily, ModelScale};

    #[test]
    fn transfer_latency_composes_base_and_bandwidth() {
        let link = StateTransferModel {
            link_gbps: 100.0,
            base_latency_us: 10.0,
        };
        // 1 GB over 100 GB/s = 10 ms, plus 10 us base.
        let ns = link.transfer_ns(1e9);
        assert!((ns - (10.0e3 + 1e7)).abs() < 1e-6);
        // Zero bytes still pay the setup cost.
        assert_eq!(link.transfer_ns(0.0), 10.0e3);
        assert!(StateTransferModel::nvlink().transfer_ns(1e9) < ns);
    }

    #[test]
    fn handoff_bytes_matches_the_memory_model() {
        for kind in [SystemKind::Gpu, SystemKind::Pimba] {
            let cfg = SystemConfig::small_scale(kind);
            for family in [ModelFamily::Mamba2, ModelFamily::Opt, ModelFamily::Zamba2] {
                let model = ModelConfig::preset(family, ModelScale::Small);
                let mm = MemoryModel::new(&cfg, &model);
                for seq in [1usize, 513, 4096] {
                    assert_eq!(
                        handoff_bytes(&cfg, &model, seq),
                        mm.dynamic_bytes(1, seq),
                        "{kind:?}/{family:?} seq={seq}"
                    );
                }
            }
        }
    }

    #[test]
    fn sullm_state_handoff_is_tiny_versus_transformer_kv() {
        // The paper's disaggregation argument: a Mamba-2 state is
        // context-length-independent and (on Pimba) 8-bit, while the
        // transformer KV cache grows with the prompt in fp16.
        let mamba = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let opt = ModelConfig::preset(ModelFamily::Opt, ModelScale::Small);
        let pimba = SystemConfig::small_scale(SystemKind::Pimba);
        let gpu = SystemConfig::small_scale(SystemKind::Gpu);
        let state = handoff_bytes(&pimba, &mamba, 4096);
        let kv = handoff_bytes(&gpu, &opt, 4096);
        assert!(
            kv > 5.0 * state,
            "kv handoff {kv:.3e} must dwarf state handoff {state:.3e}"
        );
        // And the state handoff does not grow with context.
        assert_eq!(
            handoff_bytes(&pimba, &mamba, 256),
            handoff_bytes(&pimba, &mamba, 8192)
        );
        // Quantization shrinks the shipped state versus the fp16 GPU baseline.
        assert!(handoff_bytes(&pimba, &mamba, 1024) < handoff_bytes(&gpu, &mamba, 1024));
    }
}
