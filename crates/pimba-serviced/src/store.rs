//! The daemon's result store: the traffic and fleet memos behind every job.
//!
//! One [`ResultStore`] is shared by all workers for the life of the daemon.
//! In-memory mode answers repeated queries within one process; persistent
//! mode ([`ResultStore::persistent`]) roots both memos' crash-safe segment
//! files in one directory (disjoint file names — see
//! [`GridMemo::persistent`](pimba_serve::runner::GridMemo::persistent)), so identical
//! specs are warm, byte-identical hits across daemon restarts.

use netline::Json;
use pimba_fleet::memo::FleetMemo;
use pimba_serve::runner::TrafficMemo;
use pimba_system::memo::{Fingerprint, MemoStats};
use pimba_system::persist::LoadReport;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The shared traffic + fleet memo pair, optionally disk-backed.
#[derive(Debug)]
pub struct ResultStore {
    /// Traffic-grid memo (traces, capacity searches, cells).
    pub traffic: Arc<TrafficMemo>,
    /// Fleet-grid memo (traces, capacity searches, cells).
    pub fleet: Arc<FleetMemo>,
    dir: Option<PathBuf>,
    drain_compact: Option<f64>,
}

impl ResultStore {
    /// A volatile store: warm within the process, empty after restart.
    pub fn in_memory() -> Self {
        Self {
            traffic: Arc::new(TrafficMemo::new()),
            fleet: Arc::new(FleetMemo::new()),
            dir: None,
            drain_compact: None,
        }
    }

    /// A disk-backed store rooted at `dir` (created if absent). Entries
    /// persisted by earlier processes are loaded up front; corrupt tails are
    /// truncated, not fatal.
    pub fn persistent(dir: &Path) -> std::io::Result<Self> {
        Ok(Self {
            traffic: Arc::new(TrafficMemo::persistent(dir)?),
            fleet: Arc::new(FleetMemo::persistent(dir)?),
            dir: Some(dir.to_path_buf()),
            drain_compact: None,
        })
    }

    /// Opt in to compaction on [`ResultStore::drain`]: segments whose
    /// dead-byte ratio is at least `threshold` (in `[0, 1]`) are rewritten to
    /// live records only when the daemon drains.
    pub fn with_drain_compact(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && (0.0..=1.0).contains(&threshold),
            "drain-compact threshold must be in [0, 1]"
        );
        self.drain_compact = Some(threshold);
        self
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Flushes both memos' segment files to stable storage (no-op for
    /// in-memory stores).
    pub fn sync(&self) -> std::io::Result<()> {
        self.traffic.sync()?;
        self.fleet.sync()
    }

    /// Compacts every disk-backed segment whose dead-byte ratio is at least
    /// `threshold`; returns the total bytes reclaimed (0 for in-memory
    /// stores).
    pub fn compact(&self, threshold: f64) -> std::io::Result<u64> {
        Ok(self.traffic.compact(threshold)? + self.fleet.compact(threshold)?)
    }

    /// The daemon's shutdown hook: compacts if
    /// [`ResultStore::with_drain_compact`] opted in, then flushes to stable
    /// storage.
    pub fn drain(&self) -> std::io::Result<()> {
        if let Some(threshold) = self.drain_compact {
            self.compact(threshold)?;
        }
        self.sync()
    }

    /// Every stored cell fingerprint as `(memo, fingerprint)` pairs — traffic
    /// cells first, each list sorted — for the protocol's `list` command.
    pub fn cell_keys(&self) -> Vec<(&'static str, Fingerprint)> {
        let tag = |memo: &'static str| move |fp| (memo, fp);
        self.traffic
            .cell_keys()
            .into_iter()
            .map(tag("traffic"))
            .chain(self.fleet.cell_keys().into_iter().map(tag("fleet")))
            .collect()
    }

    /// The store's contents as a JSON object for the daemon's `list`
    /// command: per-memo cell counts plus every cell fingerprint rendered as
    /// 32 hex digits, in [`ResultStore::cell_keys`] order.
    pub fn list_json(&self) -> Json {
        let render = |(memo, fp): (&'static str, Fingerprint)| {
            let (hi, lo) = fp.words();
            Json::obj(vec![
                ("memo", Json::str(memo)),
                ("fingerprint", Json::Str(format!("{hi:016x}{lo:016x}"))),
            ])
        };
        Json::obj(vec![
            (
                "traffic_cells",
                Json::Int(self.traffic.cells_stored() as i64),
            ),
            ("fleet_cells", Json::Int(self.fleet.cells_stored() as i64)),
            (
                "cells",
                Json::Arr(self.cell_keys().into_iter().map(render).collect()),
            ),
        ])
    }

    /// Total entries loaded from disk at open (0 for in-memory stores).
    pub fn loaded_entries(&self) -> usize {
        let count = |r: &(Option<LoadReport>, Option<LoadReport>, Option<LoadReport>)| {
            [&r.0, &r.1, &r.2]
                .into_iter()
                .flatten()
                .map(|report| report.records - report.undecodable)
                .sum::<usize>()
        };
        count(&self.traffic.load_reports()) + count(&self.fleet.load_reports())
    }

    /// The store's state as a JSON object for the daemon's `stats` command:
    /// per-memo hit/miss counters plus one `segments` entry per backing
    /// segment file with its size, dead bytes, and dead-byte ratio (all
    /// zeros for in-memory stores) — the inputs an operator needs to judge
    /// when a [`ResultStore::compact`] is worth it.
    pub fn stats_json(&self) -> Json {
        fn stats(label: &str, s: (MemoStats, MemoStats, MemoStats)) -> (String, Json) {
            let one = |m: MemoStats| {
                Json::obj(vec![
                    ("hits", Json::Int(m.hits as i64)),
                    ("misses", Json::Int(m.misses as i64)),
                ])
            };
            (
                label.to_string(),
                Json::obj(vec![
                    ("traces", one(s.0)),
                    ("capacity", one(s.1)),
                    ("cells", one(s.2)),
                ]),
            )
        }
        let mut pairs = vec![
            ("persistent".to_string(), Json::Bool(self.dir.is_some())),
            (
                "loaded_entries".to_string(),
                Json::Int(self.loaded_entries() as i64),
            ),
            (
                "cells_stored".to_string(),
                Json::Int((self.traffic.cells_stored() + self.fleet.cells_stored()) as i64),
            ),
        ];
        pairs.push(stats("traffic", self.traffic.stats()));
        pairs.push(stats("fleet", self.fleet.stats()));
        let segments: Vec<Json> = self
            .traffic
            .segment_stats()
            .into_iter()
            .chain(self.fleet.segment_stats())
            .map(|(name, len_bytes, dead_bytes)| {
                let dead_ratio = if len_bytes > 0 {
                    dead_bytes as f64 / len_bytes as f64
                } else {
                    0.0
                };
                Json::obj(vec![
                    ("name", Json::str(name)),
                    ("len_bytes", Json::Int(len_bytes as i64)),
                    ("dead_bytes", Json::Int(dead_bytes as i64)),
                    ("dead_ratio", Json::Num(dead_ratio)),
                ])
            })
            .collect();
        pairs.push(("segments".to_string(), Json::Arr(segments)));
        Json::Obj(pairs)
    }
}
