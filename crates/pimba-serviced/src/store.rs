//! The daemon's result store: the traffic and fleet memos behind every job.
//!
//! One [`ResultStore`] is shared by all workers for the life of the daemon.
//! In-memory mode answers repeated queries within one process; persistent
//! mode ([`ResultStore::persistent`]) roots both memos' crash-safe cell
//! segments in one directory (`traffic_cells.seg` and `fleet_cells.seg` —
//! see [`persistent_memo`]), so identical specs are warm, byte-identical hits
//! across daemon restarts. The store holds cells only; a job builds the
//! traces of the cells it misses and drops them when it ends. The store never
//! touches other files in its directory: the `*_traces.seg` and
//! `*_capacity.seg` files earlier builds wrote are left as they are, and may
//! be deleted by hand. The store needs no maintenance: each segment drops
//! its dead records when it is opened (see
//! [`MemoStore::persistent`](pimba_system::memo::MemoStore::persistent)), and
//! the daemon's shutdown only syncs.

use netline::Json;
use pimba_fleet::memo::FleetMemo;
use pimba_fleet::runner::FleetRecord;
use pimba_serve::runner::{persistent_memo, GridRecord, TrafficMemo, TrafficRecord};
use pimba_system::memo::{Fingerprint, MemoStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared traffic + fleet memo pair, optionally disk-backed.
#[derive(Debug)]
pub struct ResultStore {
    /// Traffic-grid cell memo.
    pub traffic: Arc<TrafficMemo>,
    /// Fleet-grid cell memo.
    pub fleet: Arc<FleetMemo>,
    dir: Option<PathBuf>,
    /// Distinct live cells loaded at open (0 for in-memory stores).
    loaded: usize,
    /// Failed [`ResultStore::sync`] calls.
    sync_errors: AtomicU64,
}

impl ResultStore {
    /// A volatile store: warm within the process, empty after restart.
    pub fn in_memory() -> Self {
        Self {
            traffic: Arc::new(TrafficMemo::new()),
            fleet: Arc::new(FleetMemo::new()),
            dir: None,
            loaded: 0,
            sync_errors: AtomicU64::new(0),
        }
    }

    /// A disk-backed store rooted at `dir` (created if absent). Cells
    /// persisted by earlier processes are loaded up front; corrupt tails are
    /// truncated, not fatal, and segments holding dead records are rewritten
    /// to their live ones.
    pub fn persistent(dir: &Path) -> std::io::Result<Self> {
        let (traffic, fleet): (TrafficMemo, FleetMemo) =
            (persistent_memo(dir)?, persistent_memo(dir)?);
        Ok(Self {
            loaded: traffic.len() + fleet.len(),
            traffic: Arc::new(traffic),
            fleet: Arc::new(fleet),
            dir: Some(dir.to_path_buf()),
            sync_errors: AtomicU64::new(0),
        })
    }

    /// The backing directory, if persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Flushes both memos' segment files to stable storage (no-op for
    /// in-memory stores). Every failure counts in
    /// [`ResultStore::sync_errors`].
    pub fn sync(&self) -> std::io::Result<()> {
        let synced = self.traffic.sync().and_then(|()| self.fleet.sync());
        if synced.is_err() {
            self.sync_errors.fetch_add(1, Ordering::Relaxed);
        }
        synced
    }

    /// How many [`ResultStore::sync`] calls have failed.
    pub fn sync_errors(&self) -> u64 {
        self.sync_errors.load(Ordering::Relaxed)
    }

    /// How many cell appends have failed across both memos: cells held in
    /// memory but not persisted.
    pub fn append_errors(&self) -> u64 {
        self.traffic.append_errors() + self.fleet.append_errors()
    }

    /// The store's contents as a JSON object for the daemon's `list`
    /// command: per-memo cell counts plus every cell fingerprint rendered as
    /// 32 hex digits, traffic cells first, each memo's sorted.
    pub fn list_json(&self) -> Json {
        let render = |memo: &'static str| {
            move |fp: Fingerprint| {
                let (hi, lo) = fp.words();
                Json::obj(vec![
                    ("memo", Json::str(memo)),
                    ("fingerprint", Json::Str(format!("{hi:016x}{lo:016x}"))),
                ])
            }
        };
        let traffic = self.traffic.keys().into_iter().map(render("traffic"));
        let fleet = self.fleet.keys().into_iter().map(render("fleet"));
        Json::obj(vec![
            ("traffic_cells", Json::Int(self.traffic.len() as i64)),
            ("fleet_cells", Json::Int(self.fleet.len() as i64)),
            ("cells", Json::Arr(traffic.chain(fleet).collect())),
        ])
    }

    /// Distinct live cells loaded from disk at open (0 for in-memory
    /// stores): superseded duplicates and undecodable records, which the
    /// open rewrites away, are not counted.
    pub fn loaded_entries(&self) -> usize {
        self.loaded
    }

    /// The store's state as a JSON object for the daemon's `stats` command:
    /// the loaded cells, failed syncs and appends, per-memo `cells` hit/miss
    /// counters plus one `segments` entry per memo's cell segment with its
    /// name and size (zero for in-memory stores).
    pub fn stats_json(&self) -> Json {
        fn stats(label: &str, m: MemoStats) -> (String, Json) {
            let cells = Json::obj(vec![
                ("hits", Json::Int(m.hits as i64)),
                ("misses", Json::Int(m.misses as i64)),
            ]);
            (label.to_string(), Json::obj(vec![("cells", cells)]))
        }
        let mut pairs = vec![
            ("persistent".to_string(), Json::Bool(self.dir.is_some())),
            (
                "loaded_entries".to_string(),
                Json::Int(self.loaded_entries() as i64),
            ),
            (
                "sync_errors".to_string(),
                Json::Int(self.sync_errors() as i64),
            ),
            (
                "append_errors".to_string(),
                Json::Int(self.append_errors() as i64),
            ),
            (
                "cells_stored".to_string(),
                Json::Int((self.traffic.len() + self.fleet.len()) as i64),
            ),
        ];
        pairs.push(stats("traffic", self.traffic.stats()));
        pairs.push(stats("fleet", self.fleet.stats()));
        let segments: Vec<Json> = [
            (TrafficRecord::SEGMENT, self.traffic.len_bytes()),
            (FleetRecord::SEGMENT, self.fleet.len_bytes()),
        ]
        .into_iter()
        .map(|(name, len_bytes)| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("len_bytes", Json::Int(len_bytes as i64)),
            ])
        })
        .collect();
        pairs.push(("segments".to_string(), Json::Arr(segments)));
        Json::Obj(pairs)
    }
}
