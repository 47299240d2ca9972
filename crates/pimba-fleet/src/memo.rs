//! Content-addressed memoization of fleet what-if grids.
//!
//! A what-if study re-runs a grid with one knob changed — a router swapped,
//! one more rate point, a different replica count — and today re-simulates
//! every cell from scratch even though most cells' inputs are untouched.
//! [`FleetMemo`] makes such grids incremental: every artifact the runner
//! produces is keyed by a [`Fingerprint`] of its *complete* input identity
//! (see [`pimba_system::memo`] for the purity contract) and stored in a
//! concurrent [`MemoStore`], so a re-evaluation only pays for the cells whose
//! inputs actually changed. Three stores cover the runner's three costs:
//!
//! * **traces** — per-(scenario, rate) arrival traces, the shared-prefix fast
//!   path across systems/replica-counts/routers *and* across grids,
//! * **max_batches** — the per-(system, scenario) SLO capacity searches
//!   (`max_batch_within_slo` binary searches, each tens of simulator steps),
//! * **cells** — full [`FleetRecord`]s: a warm hit skips the fleet
//!   co-simulation entirely and returns bytes identical to a cold run (the
//!   simulation is deterministic bit-for-bit in its fingerprinted inputs).
//!
//! Execution knobs that cannot change results — runner thread counts — are
//! deliberately *excluded* from every fingerprint, so a grid evaluated
//! sequentially warms the memo for a parallel re-evaluation and vice versa.

use crate::cluster::FleetCheckpoint;
use crate::fault::FaultStats;
use crate::router::RouterKind;
use crate::runner::FleetRecord;
use pimba_serve::codec::{
    decode_summary, decode_tenant_summaries, encode_summary, encode_tenant_summaries,
};
use pimba_serve::traffic::Trace;
use pimba_system::memo::{Fingerprint, MemoStats, MemoStore};
use pimba_system::persist::{ByteReader, ByteWriter, LoadReport, MemoValue};
use std::path::Path;

pub use pimba_serve::runner::{fold_trace, trace_fingerprint};

/// Schema tag of the [`FleetRecord`] codec (see [`pimba_serve::codec`] for
/// the tagging convention).
const FLEET_RECORD_SCHEMA: u8 = 2;

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

/// The memo of fleet grid evaluations — share one (behind an
/// [`Arc`](std::sync::Arc)) across every [`FleetRunner`](crate::runner::FleetRunner)
/// run that should reuse results.
#[derive(Debug, Default)]
pub struct FleetMemo {
    /// Per-(scenario, rate, request-count, seed) arrival traces.
    pub(crate) traces: MemoStore<Trace>,
    /// Per-(system, scenario) SLO batch-capacity searches.
    pub(crate) max_batches: MemoStore<usize>,
    /// Fully evaluated grid cells.
    pub(crate) cells: MemoStore<FleetRecord>,
    /// Routed-prefix fleet checkpoints (see
    /// [`FleetCheckpoint`](crate::cluster::FleetCheckpoint)): execution
    /// accelerators keyed by (semantic config, trace prefix). **In-memory
    /// only** — [`FleetMemo::persistent`] deliberately does not persist
    /// them; results are what the disk holds, checkpoints are rebuilt warm
    /// within a process.
    pub(crate) checkpoints: MemoStore<FleetCheckpoint>,
}

impl FleetMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A disk-backed memo rooted at `dir` (created if absent): each store
    /// appends to its own crash-safe segment file
    /// (`fleet_{traces,capacity,cells}.seg` — see [`pimba_system::persist`]),
    /// and entries persisted by earlier processes are loaded up front, so
    /// repeated what-ifs across restarts are warm hits returning
    /// bit-identical records. A fleet store can share `dir` with a
    /// [`TrafficMemo`](pimba_serve::runner::TrafficMemo) store — the file
    /// names are disjoint.
    pub fn persistent(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            traces: MemoStore::persistent(&dir.join("fleet_traces.seg"))?,
            max_batches: MemoStore::persistent(&dir.join("fleet_capacity.seg"))?,
            cells: MemoStore::persistent(&dir.join("fleet_cells.seg"))?,
            // Checkpoints stay in memory even for disk-backed memos.
            checkpoints: MemoStore::new(),
        })
    }

    /// Forces persisted entries to stable storage (no-op for in-memory
    /// memos).
    pub fn sync(&self) -> std::io::Result<()> {
        self.traces.sync()?;
        self.max_batches.sync()?;
        self.cells.sync()
    }

    /// `(traces, max_batches, cells)` disk-load reports (`None` entries for
    /// in-memory stores).
    pub fn load_reports(&self) -> (Option<LoadReport>, Option<LoadReport>, Option<LoadReport>) {
        (
            self.traces.load_report(),
            self.max_batches.load_report(),
            self.cells.load_report(),
        )
    }

    /// `(traces, max_batches, cells)` hit/miss counters.
    pub fn stats(&self) -> (MemoStats, MemoStats, MemoStats) {
        (
            self.traces.stats(),
            self.max_batches.stats(),
            self.cells.stats(),
        )
    }

    /// Number of memoized grid cells.
    pub fn cells_stored(&self) -> usize {
        self.cells.len()
    }

    /// Number of stored routed-prefix checkpoints.
    pub fn checkpoints_stored(&self) -> usize {
        self.checkpoints.len()
    }

    /// Hit/miss counters of the routed-prefix checkpoint store.
    pub fn checkpoint_stats(&self) -> MemoStats {
        self.checkpoints.stats()
    }

    /// Every memoized cell fingerprint, sorted by `(hi, lo)` words (a
    /// deterministic enumeration order).
    pub fn cell_keys(&self) -> Vec<Fingerprint> {
        self.cells.keys()
    }

    /// Looks up one memoized cell record by fingerprint (the serving
    /// daemon's `query` verb). Counts as a hit/miss in [`FleetMemo::stats`].
    pub fn cell(&self, key: Fingerprint) -> Option<std::sync::Arc<FleetRecord>> {
        self.cells.get(key)
    }

    /// Per-store `(name, len_bytes, dead_bytes)` of the backing segment
    /// files — all zeros for in-memory memos. Feeds the serving daemon's
    /// `stats` response.
    pub fn segment_stats(&self) -> Vec<(&'static str, u64, u64)> {
        vec![
            (
                "fleet_traces",
                self.traces.len_bytes(),
                self.traces.dead_bytes(),
            ),
            (
                "fleet_capacity",
                self.max_batches.len_bytes(),
                self.max_batches.dead_bytes(),
            ),
            (
                "fleet_cells",
                self.cells.len_bytes(),
                self.cells.dead_bytes(),
            ),
        ]
    }

    /// Compacts every disk-backed store whose dead-byte ratio is at least
    /// `threshold` (see [`MemoStore::compact`]); returns the total bytes
    /// reclaimed. A no-op (`Ok(0)`) for in-memory memos.
    pub fn compact(&self, threshold: f64) -> std::io::Result<u64> {
        Ok(self.traces.compact(threshold)?
            + self.max_batches.compact(threshold)?
            + self.cells.compact(threshold)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{FleetGrid, FleetRunner};
    use pimba_models::{ModelConfig, ModelFamily, ModelScale};
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

        let cold_memo = Arc::new(FleetMemo::persistent(&dir).expect("open store"));
        let cold = FleetRunner::new()
            .with_memo(Arc::clone(&cold_memo))
            .run(&grid);
        cold_memo.sync().expect("sync");
        drop(cold_memo);

        // "Restart": a fresh process image would reload the same segments.
        let warm_memo = Arc::new(FleetMemo::persistent(&dir).expect("reopen store"));
        let warm = FleetRunner::new()
            .with_memo(Arc::clone(&warm_memo))
            .run(&grid);
        let (_, _, cells) = warm_memo.stats();
        assert_eq!(cells.misses, 0, "every cell must be a warm disk hit");
        assert_eq!(cells.hits as usize, grid.len());
        assert_eq!(warm, cold, "reloaded records are bit-identical");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
