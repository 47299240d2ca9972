//! The exact binary codec ([`MemoValue`]) of traffic grid records, plus the
//! summary codecs the fleet record reuses.
//!
//! This codec is what lets a [`TrafficMemo`](crate::runner::TrafficMemo)'s
//! cells persist across process restarts with the byte-identity guarantee
//! intact: every float is written by bit pattern, so a record reloaded from
//! disk is `==` (and bit-for-bit equal field by field) to the record a fresh
//! simulation would produce. Each top-level value opens with a one-byte
//! schema tag; bumping the tag on a layout change makes old segments load as
//! "undecodable" (skipped) instead of as garbage. A change of the cell keys
//! bumps it too, so records no key can reach any more are dropped at open.

use crate::metrics::{Percentiles, PreemptionStats, TenantSummary, TrafficSummary};
use crate::runner::{GridRecord, TrafficRecord};
use pimba_system::persist::{encode_vec, ByteReader, ByteWriter, MemoValue};

/// Schema tag of the [`TrafficRecord`] codec.
const TRAFFIC_RECORD_SCHEMA: u8 = 2;

/// Encode a [`Percentiles`] triple by f64 bit pattern.
pub(crate) fn encode_percentiles(out: &mut ByteWriter, p: &Percentiles) {
    out.f64(p.p50);
    out.f64(p.p90);
    out.f64(p.p99);
}

/// Decode a [`Percentiles`] triple written by [`encode_percentiles`].
pub(crate) fn decode_percentiles(reader: &mut ByteReader<'_>) -> Option<Percentiles> {
    Some(Percentiles {
        p50: reader.f64()?,
        p90: reader.f64()?,
        p99: reader.f64()?,
    })
}

/// Encode a full [`TrafficSummary`] (all fields, floats by bit pattern).
pub fn encode_summary(out: &mut ByteWriter, s: &TrafficSummary) {
    out.usize(s.completed);
    encode_percentiles(out, &s.ttft_ms);
    encode_percentiles(out, &s.tpot_ms);
    encode_percentiles(out, &s.e2e_ms);
    out.f64(s.throughput_rps);
    out.f64(s.goodput_rps);
    out.f64(s.slo_attainment);
    out.f64(s.mean_batch_occupancy);
    out.usize(s.peak_queue_depth);
    out.f64(s.makespan_s);
}

/// Decode a [`TrafficSummary`] written by [`encode_summary`].
pub fn decode_summary(reader: &mut ByteReader<'_>) -> Option<TrafficSummary> {
    Some(TrafficSummary {
        completed: reader.usize()?,
        ttft_ms: decode_percentiles(reader)?,
        tpot_ms: decode_percentiles(reader)?,
        e2e_ms: decode_percentiles(reader)?,
        throughput_rps: reader.f64()?,
        goodput_rps: reader.f64()?,
        slo_attainment: reader.f64()?,
        mean_batch_occupancy: reader.f64()?,
        peak_queue_depth: reader.usize()?,
        makespan_s: reader.f64()?,
    })
}

/// Encode a per-tenant summary list.
pub fn encode_tenant_summaries(out: &mut ByteWriter, tenants: &[TenantSummary]) {
    encode_vec(out, tenants, |out, t| {
        out.u32(t.tenant);
        encode_summary(out, &t.summary);
    });
}

/// Decode a per-tenant summary list written by [`encode_tenant_summaries`].
pub fn decode_tenant_summaries(reader: &mut ByteReader<'_>) -> Option<Vec<TenantSummary>> {
    reader.vec(|r| {
        Some(TenantSummary {
            tenant: r.u32()?,
            summary: decode_summary(r)?,
        })
    })
}

fn encode_preemption(out: &mut ByteWriter, p: &PreemptionStats) {
    out.u64(p.evictions);
    out.u64(p.resumes);
    out.f64(p.checkpoint_bytes);
    out.f64(p.restore_bytes);
    out.f64(p.checkpoint_stall_ns);
    out.f64(p.restore_stall_ns);
}

fn decode_preemption(reader: &mut ByteReader<'_>) -> Option<PreemptionStats> {
    Some(PreemptionStats {
        evictions: reader.u64()?,
        resumes: reader.u64()?,
        checkpoint_bytes: reader.f64()?,
        restore_bytes: reader.f64()?,
        checkpoint_stall_ns: reader.f64()?,
        restore_stall_ns: reader.f64()?,
    })
}

impl GridRecord for TrafficRecord {
    const SEGMENT: &'static str = "traffic_cells";
}

impl MemoValue for TrafficRecord {
    fn encode(&self, out: &mut ByteWriter) {
        out.u8(TRAFFIC_RECORD_SCHEMA);
        out.usize(self.system);
        out.usize(self.scenario);
        out.f64(self.rate_rps);
        out.usize(self.max_batch);
        encode_summary(out, &self.summary);
        encode_tenant_summaries(out, &self.per_tenant);
        encode_preemption(out, &self.preemption);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
        if reader.u8()? != TRAFFIC_RECORD_SCHEMA {
            return None;
        }
        Some(TrafficRecord {
            system: reader.usize()?,
            scenario: reader.usize()?,
            rate_rps: reader.f64()?,
            max_batch: reader.usize()?,
            summary: decode_summary(reader)?,
            per_tenant: decode_tenant_summaries(reader)?,
            preemption: decode_preemption(reader)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<V: MemoValue>(value: &V) -> V {
        let mut w = ByteWriter::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = V::decode(&mut r).expect("decode");
        assert!(r.is_exhausted(), "codec must consume exactly its bytes");
        decoded
    }

    fn record() -> TrafficRecord {
        TrafficRecord {
            system: 1,
            scenario: 2,
            rate_rps: 24.5,
            max_batch: 42,
            summary: TrafficSummary {
                completed: 150,
                ttft_ms: Percentiles {
                    p50: 0.1 + 0.2,
                    p90: 5.0,
                    p99: f64::MAX,
                },
                tpot_ms: Percentiles::default(),
                e2e_ms: Percentiles {
                    p50: -0.0,
                    p90: 1e-300,
                    p99: 9.9,
                },
                throughput_rps: 3.25,
                goodput_rps: 3.0,
                slo_attainment: 0.92,
                mean_batch_occupancy: 7.5,
                peak_queue_depth: 31,
                makespan_s: 12.0,
            },
            per_tenant: vec![TenantSummary {
                tenant: 0,
                summary: TrafficSummary {
                    completed: 75,
                    ttft_ms: Percentiles::default(),
                    tpot_ms: Percentiles::default(),
                    e2e_ms: Percentiles::default(),
                    throughput_rps: 1.0,
                    goodput_rps: 0.5,
                    slo_attainment: 0.5,
                    mean_batch_occupancy: 1.0,
                    peak_queue_depth: 4,
                    makespan_s: 12.0,
                },
            }],
            preemption: PreemptionStats {
                evictions: 3,
                resumes: 2,
                checkpoint_bytes: 1.5e9,
                restore_bytes: 1.0e9,
                checkpoint_stall_ns: 1e6,
                restore_stall_ns: 2e6,
            },
        }
    }

    #[test]
    fn traffic_record_codec_roundtrips_bit_exactly() {
        let record = record();
        let decoded = roundtrip(&record);
        assert_eq!(decoded, record);
        assert_eq!(
            decoded.summary.e2e_ms.p50.to_bits(),
            (-0.0f64).to_bits(),
            "signed zero survives the disk round trip"
        );
    }

    #[test]
    fn schema_tag_mismatch_is_undecodable_not_garbage() {
        let mut w = ByteWriter::new();
        record().encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = 99; // future schema
        assert!(TrafficRecord::decode(&mut ByteReader::new(&bytes)).is_none());
    }
}
