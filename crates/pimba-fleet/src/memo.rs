//! The [`FleetRecord`] codec and the fleet runner's memo type.
//!
//! [`FleetMemo`] is the shared [`GridMemo`] over fleet records; this module
//! supplies the record's exact binary codec ([`MemoValue`], every float by
//! bit pattern — see [`pimba_serve::codec`] for the schema-tag convention) and
//! its `fleet_cells.seg` segment name, disjoint from the traffic memo's
//! `traffic_cells.seg` so both can share one store directory.

use crate::fault::FaultStats;
use crate::router::RouterKind;
use crate::runner::FleetRecord;
use pimba_serve::codec::{
    decode_summary, decode_tenant_summaries, encode_summary, encode_tenant_summaries,
};
use pimba_serve::runner::{GridMemo, GridRecord};
use pimba_system::persist::{ByteReader, ByteWriter, MemoValue};

/// The memo of [`FleetRunner`](crate::runner::FleetRunner) grids.
pub type FleetMemo = GridMemo<FleetRecord>;

/// Schema tag of the [`FleetRecord`] codec (see [`pimba_serve::codec`] for
/// the tagging convention).
const FLEET_RECORD_SCHEMA: u8 = 3;

fn router_tag(router: RouterKind) -> u8 {
    match router {
        RouterKind::RoundRobin => 0,
        RouterKind::Jsq => 1,
        RouterKind::PowerOfTwo => 2,
        RouterKind::TenantAffinity => 3,
    }
}

fn router_from_tag(tag: u8) -> Option<RouterKind> {
    Some(match tag {
        0 => RouterKind::RoundRobin,
        1 => RouterKind::Jsq,
        2 => RouterKind::PowerOfTwo,
        3 => RouterKind::TenantAffinity,
        _ => return None,
    })
}

impl GridRecord for FleetRecord {
    const SEGMENT: &'static str = "fleet_cells";
}

impl MemoValue for FleetRecord {
    fn encode(&self, out: &mut ByteWriter) {
        out.u8(FLEET_RECORD_SCHEMA);
        out.usize(self.system);
        out.usize(self.scenario);
        out.f64(self.rate_rps);
        out.usize(self.replicas);
        out.u8(router_tag(self.router));
        out.usize(self.max_batch);
        encode_summary(out, &self.summary);
        out.f64(self.goodput_per_replica);
        pimba_system::persist::encode_vec(out, &self.per_replica_completed, |out, &n| out.usize(n));
        encode_tenant_summaries(out, &self.per_tenant);
        let f = &self.fault;
        for n in [
            f.crashes,
            f.restarts,
            f.slowdowns,
            f.link_downs,
            f.migrations,
            f.retries,
            f.timeouts,
            f.black_holed,
            f.lost,
        ] {
            out.u32(n);
        }
        out.f64(f.migrated_bytes);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
        if reader.u8()? != FLEET_RECORD_SCHEMA {
            return None;
        }
        Some(FleetRecord {
            system: reader.usize()?,
            scenario: reader.usize()?,
            rate_rps: reader.f64()?,
            replicas: reader.usize()?,
            router: router_from_tag(reader.u8()?)?,
            max_batch: reader.usize()?,
            summary: decode_summary(reader)?,
            goodput_per_replica: reader.f64()?,
            per_replica_completed: reader.vec(|r| r.usize())?,
            per_tenant: decode_tenant_summaries(reader)?,
            fault: FaultStats {
                crashes: reader.u32()?,
                restarts: reader.u32()?,
                slowdowns: reader.u32()?,
                link_downs: reader.u32()?,
                migrations: reader.u32()?,
                retries: reader.u32()?,
                timeouts: reader.u32()?,
                black_holed: reader.u32()?,
                lost: reader.u32()?,
                migrated_bytes: reader.f64()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FleetGrid, FleetRunner};
    use pimba_models::{ModelConfig, ModelFamily, ModelScale};
    use pimba_serve::runner::persistent_memo;
    use pimba_serve::traffic::Scenario;
    use pimba_system::config::{SystemConfig, SystemKind};
    use std::sync::Arc;

    fn small_grid() -> FleetGrid {
        FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
            .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
            .with_scenarios(vec![Scenario::chat()])
            .with_rates(vec![16.0])
            .with_replica_counts(vec![2])
            .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
            .with_requests_per_cell(12)
            .with_seq_bucket(32)
    }

    #[test]
    fn fleet_record_codec_roundtrips_bit_exactly() {
        let grid = small_grid();
        let records = FleetRunner::new().with_threads(1).run(&grid);
        for record in &records {
            let mut w = ByteWriter::new();
            record.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let decoded = FleetRecord::decode(&mut r).expect("decode");
            assert!(r.is_exhausted(), "codec must consume exactly its bytes");
            assert_eq!(&decoded, record);
            assert_eq!(
                decoded.summary.e2e_ms.p50.to_bits(),
                record.summary.e2e_ms.p50.to_bits()
            );
        }
    }

    #[test]
    fn persistent_fleet_memo_is_warm_and_bit_identical_after_restart() {
        let dir = std::env::temp_dir().join(format!("pimba_fleet_memo_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = small_grid();

        let cold_memo = Arc::new(persistent_memo(&dir).expect("open store"));
        let cold = FleetRunner::new()
            .with_memo(Arc::clone(&cold_memo))
            .run(&grid);
        cold_memo.sync().expect("sync");
        drop(cold_memo);

        // "Restart": a fresh process image would reload the same segments.
        let warm_memo = Arc::new(persistent_memo(&dir).expect("reopen store"));
        let warm = FleetRunner::new()
            .with_memo(Arc::clone(&warm_memo))
            .run(&grid);
        let cells = warm_memo.stats();
        assert_eq!(cells.misses, 0, "every cell must be a warm disk hit");
        assert_eq!(cells.hits as usize, grid.len());
        assert_eq!(warm, cold, "reloaded records are bit-identical");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
