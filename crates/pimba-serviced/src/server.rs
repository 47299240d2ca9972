//! The daemon: a [`LineServer`] speaking the JSONL line protocol, dispatching
//! into the [`JobQueue`].
//!
//! # Protocol
//!
//! One JSON object per line, both directions. Requests carry a `cmd`:
//!
//! | request | response lines |
//! |---|---|
//! | `{"cmd":"submit","spec":{…},"priority":1,"timeout_ms":60000}` | `{"event":"accepted","job":N}`, one `progress` line per finished cell, then one terminal line: `cancelled`, `timed_out` or `failed`, or for a job that ran to the end one `record` line per cell in grid order followed by `{"event":"done","job":N,"records":R}`. A spec with `"trace":true` puts one `{"event":"trace","job":N,"data":"…"}` line (the run's canonical JSONL event trace, JSON-escaped) between the last `record` and `done`. |
//! | `{"cmd":"cancel","job":N}` | `{"event":"cancelling","job":N}` (or `error`) |
//! | `{"cmd":"status","job":N}` | `{"event":"status","job":N,"state":…,"done":…,"total":…}` |
//! | `{"cmd":"stats"}` | `{"event":"stats","store":{…},"jobs":{…}}` — `store` holds each memo's `traces` and `cells` hit/miss counters, and each cell segment's `name` and `len_bytes`; `jobs` counts the daemon's jobs per state, every state in the fixed order `queued`, `running`, `done`, `failed`, `cancelled`, `timed_out` |
//! | `{"cmd":"metrics"}` | `{"event":"metrics","data":{"metrics":[…]}}` — the queue-wide metrics registry snapshot |
//! | `{"cmd":"query","fingerprint":"…32 hex…"}` | `{"event":"result","memo":…,"fingerprint":…,"data":{…}}` (or `error`) — one stored cell record by fingerprint, as enumerated by `list` |
//! | `{"cmd":"list"}` | `{"event":"list","traffic_cells":N,"fleet_cells":M,"cells":[{"memo":…,"fingerprint":…},…]}` |
//! | `{"cmd":"shutdown"}` | `{"event":"stopping"}`, then the daemon drains |
//!
//! Malformed lines (invalid JSON or invalid UTF-8, with `field` `request`)
//! and invalid specs get structured
//! `{"event":"error","field":…,"message":…}` lines — never a dropped
//! connection, never a panic. A line may arrive in pieces, with pauses
//! longer than the daemon's read poll between them; it is answered once its
//! newline arrives. A submit's `priority` (an integer, default 0)
//! and `timeout_ms` (a positive integer, default the daemon's) are optional;
//! one present with another type or value is such an error, and queues no
//! job. While a submission is streaming, its connection
//! is dedicated to that stream; use a second connection to cancel or poll
//! (`examples/serviced_client.rs` does exactly that).
//!
//! A submission's events leave in batches: whatever the job has published
//! by the time the connection thread wakes goes out in one write. A reader
//! gets the same lines in the same order, possibly several per read. A job's
//! records and trace reach the connection inside its terminal event, so they
//! and the `done` line always leave in one write.
//!
//! `record` events embed the canonical record rendering verbatim:
//! the `data` value's bytes are exactly what [`crate::spec`]'s `render_*`
//! functions produce, which is the byte-identity surface the tests and the
//! CI smoke job gate on.
//!
//! # Shutdown
//!
//! [`Daemon::stop`] (or the `shutdown` command, or a signal in the binary)
//! trips the [`Stopper`]: the accept loop closes, connection threads finish
//! their in-flight streams (running jobs drain), queued-but-unstarted jobs
//! are cancelled, new submissions are rejected with a structured error, and
//! the store is flushed before [`Daemon::stop`] returns.

use crate::queue::{JobEvent, JobId, JobQueue, SubmitError};
use crate::spec::{parse_submission, render_fleet_record, render_traffic_record};
use crate::store::ResultStore;
use netline::{Json, LineConn, LineServer, Stopper};
use pimba_system::memo::Fingerprint;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Default per-job timeout; `None` = unbounded.
    pub default_timeout: Option<Duration>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            default_timeout: None,
        }
    }
}

/// A running daemon: the accept loop on its own thread, the queue's worker
/// pool behind it.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    stopper: Stopper,
    queue: Arc<JobQueue>,
    server_thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds and starts serving `store` per `config`.
    pub fn start(config: DaemonConfig, store: ResultStore) -> io::Result<Daemon> {
        let queue = Arc::new(JobQueue::start(
            store,
            config.workers,
            config.default_timeout,
        ));
        let server = LineServer::bind(config.addr.as_str())?;
        let addr = server.local_addr()?;
        let stopper = server.stopper();
        let queue_for_server = Arc::clone(&queue);
        let conn_stopper = stopper.clone();
        let server_thread = std::thread::spawn(move || {
            server.run(move |conn| {
                handle_connection(conn, &queue_for_server, &conn_stopper);
            });
        });
        Ok(Daemon {
            addr,
            stopper,
            queue,
            server_thread: Some(server_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that triggers graceful shutdown (safe to call from signal
    /// polling loops and tests).
    pub fn stopper(&self) -> Stopper {
        self.stopper.clone()
    }

    /// The job queue (for in-process embedding, e.g. tests).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Requests shutdown and waits for the drain: accept loop and connection
    /// threads first, then the queue's workers, then the store flush.
    pub fn stop(self) {
        let queue = Arc::clone(&self.queue);
        drop(self);
        queue.shutdown();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stopper.stop();
        if let Some(handle) = self.server_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Parses a 32-hex-digit cell fingerprint (exactly as rendered by the `list`
/// command) back into its two words.
fn parse_fingerprint(hex: &str) -> Option<Fingerprint> {
    if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let hi = u64::from_str_radix(&hex[..16], 16).ok()?;
    let lo = u64::from_str_radix(&hex[16..], 16).ok()?;
    Some(Fingerprint::from_words(hi, lo))
}

fn error_line(field: &str, message: &str) -> String {
    Json::obj(vec![
        ("event", Json::str("error")),
        ("field", Json::str(field)),
        ("message", Json::str(message)),
    ])
    .render()
}

fn handle_connection(mut conn: LineConn, queue: &Arc<JobQueue>, stopper: &Stopper) {
    // Poll reads so the thread notices shutdown even on an idle connection.
    if conn
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    loop {
        let line = match conn.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => return, // client closed
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stopper.is_stopped() {
                    return;
                }
                continue;
            }
            // A line that is not UTF-8 was consumed whole: answer it and keep
            // serving.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = conn.write_line(&error_line("request", &e.to_string()));
                continue;
            }
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Json::parse(&line) {
            Ok(value) => value,
            Err(e) => {
                let _ = conn.write_line(&error_line(
                    "request",
                    &format!("invalid JSON: {} at byte {}", e.message, e.pos),
                ));
                continue;
            }
        };
        let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
            let _ = conn.write_line(&error_line("cmd", "missing or non-string 'cmd'"));
            continue;
        };
        match cmd {
            "submit" => handle_submit(&mut conn, queue, &request),
            "cancel" => {
                let Some(id) = request.get("job").and_then(Json::as_i64).filter(|n| *n > 0) else {
                    let _ = conn.write_line(&error_line("job", "missing or invalid job id"));
                    continue;
                };
                let line = if queue.cancel(id as u64) {
                    Json::obj(vec![
                        ("event", Json::str("cancelling")),
                        ("job", Json::Int(id)),
                    ])
                    .render()
                } else {
                    error_line("job", "unknown or already finished job")
                };
                let _ = conn.write_line(&line);
            }
            "status" => {
                let Some(id) = request.get("job").and_then(Json::as_i64).filter(|n| *n > 0) else {
                    let _ = conn.write_line(&error_line("job", "missing or invalid job id"));
                    continue;
                };
                let line = match queue.status(id as u64) {
                    Some((state, done, total)) => Json::obj(vec![
                        ("event", Json::str("status")),
                        ("job", Json::Int(id)),
                        ("state", Json::str(state.name())),
                        ("done", Json::Int(done as i64)),
                        ("total", Json::Int(total as i64)),
                    ])
                    .render(),
                    None => error_line("job", "unknown job"),
                };
                let _ = conn.write_line(&line);
            }
            "stats" => {
                let jobs = Json::Obj(
                    queue
                        .state_counts()
                        .into_iter()
                        .map(|(state, n)| (state.to_string(), Json::Int(n as i64)))
                        .collect(),
                );
                let line = Json::obj(vec![
                    ("event", Json::str("stats")),
                    ("store", queue.store().stats_json()),
                    ("jobs", jobs),
                ])
                .render();
                let _ = conn.write_line(&line);
            }
            "metrics" => {
                // The hub's rendering is already canonical JSON; embed it
                // verbatim (the same concatenation idiom as `record` events).
                let line = format!(
                    "{{\"event\":\"metrics\",\"data\":{}}}",
                    queue.metrics().to_json()
                );
                let _ = conn.write_line(&line);
            }
            "query" => {
                let Some(hex) = request.get("fingerprint").and_then(Json::as_str) else {
                    let _ = conn.write_line(&error_line(
                        "fingerprint",
                        "missing or non-string 'fingerprint'",
                    ));
                    continue;
                };
                let Some(fp) = parse_fingerprint(hex) else {
                    let _ = conn
                        .write_line(&error_line("fingerprint", "must be exactly 32 hex digits"));
                    continue;
                };
                // Embed the canonical record bytes verbatim, like `record`
                // events: a queried cell is byte-identical to its streamed
                // form.
                let line = if let Some(record) = queue.store().traffic.cell(fp) {
                    format!(
                        "{{\"event\":\"result\",\"memo\":\"traffic\",\
                         \"fingerprint\":\"{hex}\",\"data\":{}}}",
                        render_traffic_record(&record)
                    )
                } else if let Some(record) = queue.store().fleet.cell(fp) {
                    format!(
                        "{{\"event\":\"result\",\"memo\":\"fleet\",\
                         \"fingerprint\":\"{hex}\",\"data\":{}}}",
                        render_fleet_record(&record)
                    )
                } else {
                    error_line("fingerprint", "no stored cell under this fingerprint")
                };
                let _ = conn.write_line(&line);
            }
            "list" => {
                let mut pairs = vec![("event".to_string(), Json::str("list"))];
                match queue.store().list_json() {
                    Json::Obj(rest) => pairs.extend(rest),
                    other => pairs.push(("store".to_string(), other)),
                }
                let _ = conn.write_line(&Json::Obj(pairs).render());
            }
            "shutdown" => {
                let _ =
                    conn.write_line(&Json::obj(vec![("event", Json::str("stopping"))]).render());
                stopper.stop();
                return;
            }
            other => {
                let _ = conn.write_line(&error_line("cmd", &format!("unknown command '{other}'")));
            }
        }
    }
}

/// Reads an optional integer field of a request: `Ok(None)` when absent, and
/// the error line to answer when it is present but not an integer accepted
/// by `valid` (`expected` names what is accepted).
fn optional_int(
    request: &Json,
    field: &str,
    valid: fn(i64) -> bool,
    expected: &str,
) -> Result<Option<i64>, String> {
    match request.get(field) {
        None => Ok(None),
        Some(value) => match value.as_i64() {
            Some(n) if valid(n) => Ok(Some(n)),
            _ => Err(error_line(field, &format!("must be {expected}"))),
        },
    }
}

fn handle_submit(conn: &mut LineConn, queue: &Arc<JobQueue>, request: &Json) {
    let priority = match optional_int(request, "priority", |_| true, "an integer") {
        Ok(priority) => priority.unwrap_or(0),
        Err(line) => {
            let _ = conn.write_line(&line);
            return;
        }
    };
    let timeout = match optional_int(request, "timeout_ms", |n| n > 0, "a positive integer") {
        Ok(ms) => ms.map(|n| Duration::from_millis(n as u64)),
        Err(line) => {
            let _ = conn.write_line(&line);
            return;
        }
    };
    let Some(spec) = request.get("spec") else {
        let _ = conn.write_line(&error_line("spec", "missing required field"));
        return;
    };
    let (experiment, trace) = match parse_submission(spec) {
        Ok(submission) => submission,
        Err(e) => {
            let _ = conn.write_line(&error_line(&format!("spec.{}", e.field), &e.message));
            return;
        }
    };
    let (id, events) = match queue.submit(experiment, priority, timeout, trace) {
        Ok(pair) => pair,
        Err(SubmitError::Draining) => {
            let _ = conn.write_line(&error_line("cmd", "daemon is shutting down"));
            return;
        }
    };
    if conn.write_line(&accepted_line(id)).is_err() {
        // Submitter vanished before the ack: nobody is listening, spare the
        // workers.
        queue.cancel(id);
        return;
    }
    // Shutdown during a stream ends it via the terminal event.
    stream_events(conn, queue, id, &events);
}

/// The `accepted` line that opens a submission's stream.
pub fn accepted_line(id: JobId) -> String {
    Json::obj(vec![
        ("event", Json::str("accepted")),
        ("job", Json::Int(id as i64)),
    ])
    .render()
}

/// Renders one job event as its protocol lines, pushed onto `lines` — what
/// the daemon streams to a submitter and the binary's one-shot mode prints.
/// [`JobEvent::Done`] renders as one `record` line per record, then the
/// `trace` line if the job carries a trace, then `done`.
pub fn event_lines(id: JobId, event: &JobEvent, lines: &mut Vec<String>) {
    let job = Json::Int(id as i64);
    let line = match event {
        JobEvent::Progress { done, total } => Json::obj(vec![
            ("event", Json::str("progress")),
            ("job", job),
            ("done", Json::Int(*done as i64)),
            ("total", Json::Int(*total as i64)),
        ]),
        JobEvent::Done { records, trace } => {
            // Embed the canonical bytes verbatim: the envelope is built by
            // concatenation, not re-rendering, so the `data` value is exactly
            // the canonical record line.
            lines.extend(
                records
                    .iter()
                    .map(|data| format!("{{\"event\":\"record\",\"job\":{id},\"data\":{data}}}")),
            );
            // Unlike records, the trace spans many lines — ship it as one
            // JSON-escaped string value (clients recover the exact bytes by
            // unescaping).
            if let Some(data) = trace {
                let data = Json::str(data).render();
                lines.push(format!(
                    "{{\"event\":\"trace\",\"job\":{id},\"data\":{data}}}"
                ));
            }
            Json::obj(vec![
                ("event", Json::str("done")),
                ("job", job),
                ("records", Json::Int(records.len() as i64)),
            ])
        }
        JobEvent::Failed(message) => Json::obj(vec![
            ("event", Json::str("failed")),
            ("job", job),
            ("message", Json::str(message)),
        ]),
        JobEvent::Cancelled => Json::obj(vec![("event", Json::str("cancelled")), ("job", job)]),
        JobEvent::TimedOut => Json::obj(vec![("event", Json::str("timed_out")), ("job", job)]),
    };
    lines.push(line.render());
}

/// Streams a submission's events until the terminal one, after which the
/// queue closes the channel. Every event already queued when one arrives
/// leaves with it in one write. The writer failing (client gone) cancels the
/// job.
fn stream_events(conn: &mut LineConn, queue: &Arc<JobQueue>, id: u64, events: &Receiver<JobEvent>) {
    let mut batch = Vec::new();
    while let Ok(event) = events.recv() {
        event_lines(id, &event, &mut batch);
        for event in events.try_iter() {
            event_lines(id, &event, &mut batch);
        }
        if conn.write_lines(batch.drain(..)).is_err() {
            // Client gone mid-stream: stop wasting cycles on its job.
            queue.cancel(id);
            return;
        }
    }
}
