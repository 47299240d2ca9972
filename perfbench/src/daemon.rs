//! The in-process daemon the load goes through: start it over a persistent
//! store, run jobs over one client connection, read the store's counters.

use netline::Json;
use pimba_serviced::{Client, Daemon, DaemonConfig, ResultStore};
use std::io;
use std::path::Path;
use std::time::Instant;

/// A running daemon with the benchmark's one client connection.
pub struct Session {
    daemon: Daemon,
    client: Client,
}

/// When each set-up phase ended.
pub struct Setup {
    pub start: Instant,
    /// `ResultStore::persistent` returned.
    pub loaded: Instant,
    /// The daemon is listening and the client's connection is established.
    /// Up to one 2 ms accept-poll interval may pass before the daemon's accept
    /// loop picks it up; that wait is left out so set-up reads one mode.
    pub ready: Instant,
}

impl Setup {
    /// Open the store, start the daemon, connect.
    pub fn secs(&self) -> f64 {
        (self.ready - self.start).as_secs_f64()
    }
}

/// One job as the client saw it.
pub struct JobRun {
    pub start: Instant,
    /// The `accepted` reply was read.
    pub accepted: Instant,
    /// The first event after `accepted` was read.
    pub first_event: Instant,
    pub end: Instant,
    /// Canonical record lines (empty unless `done`).
    pub lines: Vec<String>,
    /// `done`, another terminal state, or `refused: …`.
    pub state: String,
}

impl JobRun {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn ok(&self) -> bool {
        self.state == "done"
    }
}

/// A daemon with two workers on an ephemeral loopback port.
fn config() -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        default_timeout: None,
    }
}

impl Session {
    /// Opens the store at `dir`, starts the daemon and connects.
    pub fn start(dir: &Path) -> io::Result<(Session, Setup)> {
        let start = Instant::now();
        let store = ResultStore::persistent(dir)?;
        let loaded = Instant::now();
        let daemon = Daemon::start(config(), store)?;
        let client = Client::connect(daemon.addr())?;
        let ready = Instant::now();
        let setup = Setup {
            start,
            loaded,
            ready,
        };
        Ok((Session { daemon, client }, setup))
    }

    /// Submits `spec` and streams it to its terminal event.
    pub fn run(&mut self, spec: &Json) -> io::Result<JobRun> {
        let start = Instant::now();
        let submitted = self.client.submit(spec, 0, None)?;
        let accepted = Instant::now();
        let mut run = JobRun {
            start,
            accepted,
            first_event: accepted,
            end: accepted,
            lines: Vec::new(),
            state: String::new(),
        };
        if let Err(refusal) = submitted {
            run.state = format!("refused: {refusal}");
            return Ok(run);
        }
        let mut first = true;
        loop {
            let event = self.client.next_event()?;
            if first {
                run.first_event = Instant::now();
                first = false;
            }
            match event.get("event").and_then(Json::as_str) {
                Some("record") => {
                    if let Some(data) = event.get("data") {
                        run.lines.push(data.render());
                    }
                }
                Some("progress" | "trace") => {}
                Some(terminal) => {
                    run.end = Instant::now();
                    run.state = terminal.to_string();
                    if !run.ok() {
                        run.lines.clear();
                    }
                    return Ok(run);
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "event without a name",
                    ))
                }
            }
        }
    }

    /// The daemon's `stats` reply.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.client.stats()
    }

    /// Closes the connection and drains the daemon (which syncs the store).
    pub fn stop(self) {
        drop(self.client);
        self.daemon.stop();
    }
}

/// Memo counters and segment sizes read from a `stats` reply.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    pub trace_hits: f64,
    pub trace_lookups: f64,
    pub capacity_hits: f64,
    pub capacity_lookups: f64,
    pub cell_hits: f64,
    pub cell_lookups: f64,
    pub bytes: f64,
}

fn ratio(hits: f64, lookups: f64) -> f64 {
    if lookups > 0.0 {
        hits / lookups
    } else {
        0.0
    }
}

impl StoreStats {
    /// Sums the traffic and fleet memos of a `stats` reply.
    pub fn from_reply(reply: &Json) -> StoreStats {
        let mut s = StoreStats::default();
        let Some(store) = reply.get("store") else {
            return s;
        };
        let count = |memo: &str, kind: &str, field: &str| {
            store
                .get(memo)
                .and_then(|m| m.get(kind))
                .and_then(|k| k.get(field))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        for memo in ["traffic", "fleet"] {
            for (kind, hits, lookups) in [
                ("traces", &mut s.trace_hits, &mut s.trace_lookups),
                ("capacity", &mut s.capacity_hits, &mut s.capacity_lookups),
                ("cells", &mut s.cell_hits, &mut s.cell_lookups),
            ] {
                let h = count(memo, kind, "hits");
                *hits += h;
                *lookups += h + count(memo, kind, "misses");
            }
        }
        s.bytes = store
            .get("segments")
            .and_then(Json::as_arr)
            .map_or(0.0, |segs| {
                segs.iter()
                    .filter_map(|seg| seg.get("len_bytes").and_then(Json::as_f64))
                    .sum()
            });
        s
    }

    pub fn trace_hit_ratio(&self) -> f64 {
        ratio(self.trace_hits, self.trace_lookups)
    }

    pub fn capacity_hit_ratio(&self) -> f64 {
        ratio(self.capacity_hits, self.capacity_lookups)
    }

    pub fn cell_hit_ratio(&self) -> f64 {
        ratio(self.cell_hits, self.cell_lookups)
    }
}
