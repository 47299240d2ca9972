//! A thin typed client over the daemon's line protocol, used by the example,
//! the end-to-end tests and the CI smoke gate.
//!
//! Transient failures — the daemon not yet listening, a connection dropped
//! mid-stream — are retried under [`ClientRetry`]: bounded attempts, capped
//! exponential backoff, and *deterministic* jitter (a pure function of
//! `(seed, attempt)`, so two clients with different seeds desynchronize
//! without any wall-clock randomness). Structured refusals are never
//! retried: a spec the daemon rejected once is rejected forever.

use crate::queue::JobId;
use netline::{Json, LineConn};
use rand::rngs::Pcg32;
use rand::Rng;
use std::io;
use std::net::ToSocketAddrs;
use std::time::Duration;

/// The jitter substream domain (disjoint from the fleet's
/// `streams::RETRY_JITTER` so daemon- and client-side jitter never share a
/// sequence).
const CLIENT_RETRY_STREAM: u64 = 0x0F2C_0004;

/// Bounded retry with capped exponential backoff and deterministic jitter,
/// for [`Client::connect_with_retry`] and [`Client::run_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRetry {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Cap on the exponential backoff (jitter is added on top).
    pub max_backoff: Duration,
    /// Upper bound of the uniform jitter added to each backoff.
    pub jitter: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for ClientRetry {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter: Duration::from_millis(25),
            seed: 0xC11E,
        }
    }
}

impl ClientRetry {
    /// The pause before retry number `attempt` (1-based):
    /// `min(base · 2^(attempt-1), max) + U(0, jitter)`, with the uniform draw
    /// a pure function of `(seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(26);
        let base = self
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff);
        let mut rng = Pcg32::keyed_stream(self.seed, CLIENT_RETRY_STREAM, attempt as u64);
        base + self.jitter.mul_f64(rng.gen_range(0.0f64..1.0))
    }
}

/// A connected protocol client. One in-flight submission per client — open a
/// second client to cancel or poll concurrently.
#[derive(Debug)]
pub struct Client {
    conn: LineConn,
}

/// The collected outcome of a submission that ran to its terminal event.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id the daemon assigned.
    pub(crate) job: JobId,
    /// Canonical record lines, in grid order (empty unless `state == "done"`).
    pub records: Vec<String>,
    /// The run's canonical JSONL event trace, when the spec opted in with
    /// `"trace": true` and the job ran to `done`.
    pub trace: Option<String>,
    /// Number of progress events observed while streaming.
    pub progress_events: usize,
    /// Terminal state name: `done`, `cancelled`, `timed_out` or `failed`.
    pub state: String,
}

/// A request the daemon refused, with the structured error it sent back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// The offending field.
    pub field: String,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for Refusal {}

fn proto_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Client {
    /// Connects to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Ok(Self {
            conn: LineConn::connect(addr)?,
        })
    }

    /// Connects, retrying transient failures under `retry` (the daemon may
    /// still be binding, or a restart may be in flight). Returns the last
    /// error once attempts are exhausted.
    pub fn connect_with_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        retry: &ClientRetry,
    ) -> io::Result<Self> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    attempt += 1;
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(retry.backoff(attempt));
                }
            }
        }
    }

    fn request(&mut self, line: &str) -> io::Result<Json> {
        self.conn.write_line(line)?;
        self.next_event()
    }

    /// Reads and parses the next event line.
    pub fn next_event(&mut self) -> io::Result<Json> {
        let line = self
            .conn
            .read_line()?
            .ok_or_else(|| proto_err("daemon closed the connection"))?;
        Json::parse(&line).map_err(|e| proto_err(format!("bad event line: {e}: {line}")))
    }

    /// Submits a spec; on acceptance returns the job id (events follow on
    /// this connection), on refusal the daemon's structured error.
    pub fn submit(
        &mut self,
        spec: &Json,
        priority: i64,
        timeout_ms: Option<u64>,
    ) -> io::Result<Result<JobId, Refusal>> {
        let mut pairs = vec![
            ("cmd", Json::str("submit")),
            ("priority", Json::Int(priority)),
        ];
        if let Some(t) = timeout_ms {
            pairs.push(("timeout_ms", Json::Int(t as i64)));
        }
        pairs.push(("spec", spec.clone()));
        let reply = self.request(&Json::obj(pairs).render())?;
        match reply.get("event").and_then(Json::as_str) {
            Some("accepted") => {
                let job = reply
                    .get("job")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| proto_err("accepted event without a job id"))?;
                Ok(Ok(job as JobId))
            }
            Some("error") => Ok(Err(Refusal {
                field: reply
                    .get("field")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                message: reply
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            })),
            other => Err(proto_err(format!("unexpected submit reply: {other:?}"))),
        }
    }

    /// Streams a previously accepted submission to its terminal event,
    /// collecting the canonical record lines.
    pub fn collect(&mut self, job: JobId) -> io::Result<JobOutcome> {
        let mut outcome = JobOutcome {
            job,
            records: Vec::new(),
            trace: None,
            progress_events: 0,
            state: String::new(),
        };
        loop {
            let event = self.next_event()?;
            match event.get("event").and_then(Json::as_str) {
                Some("progress") => outcome.progress_events += 1,
                Some("record") => {
                    let data = event
                        .get("data")
                        .ok_or_else(|| proto_err("record event without data"))?;
                    // The daemon embeds canonical bytes and rendering is
                    // parse-stable, so this recovers them exactly.
                    outcome.records.push(data.render());
                }
                Some("trace") => {
                    // The daemon ships the multi-line trace as one escaped
                    // string; parsing recovered the exact original bytes.
                    outcome.trace = event.get("data").and_then(Json::as_str).map(str::to_string);
                }
                Some(terminal @ ("done" | "cancelled" | "timed_out" | "failed")) => {
                    outcome.state = terminal.to_string();
                    return Ok(outcome);
                }
                other => return Err(proto_err(format!("unexpected event: {other:?}"))),
            }
        }
    }

    /// [`Client::submit`] + [`Client::collect`] in one call.
    pub fn run(
        &mut self,
        spec: &Json,
        priority: i64,
        timeout_ms: Option<u64>,
    ) -> io::Result<Result<JobOutcome, Refusal>> {
        match self.submit(spec, priority, timeout_ms)? {
            Ok(job) => Ok(Ok(self.collect(job)?)),
            Err(refusal) => Ok(Err(refusal)),
        }
    }

    /// [`Client::run`] on a fresh connection per attempt, retrying transient
    /// I/O failures (refused connections, streams dropped mid-job) under
    /// `retry`. A memoized daemon makes the re-submit cheap: cells the broken
    /// attempt already computed answer from the store, byte-identically.
    /// Structured [`Refusal`]s return immediately — an invalid spec never
    /// retries.
    pub fn run_with_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        spec: &Json,
        priority: i64,
        timeout_ms: Option<u64>,
        retry: &ClientRetry,
    ) -> io::Result<Result<JobOutcome, Refusal>> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr.clone())
                .and_then(|mut client| client.run(spec, priority, timeout_ms))
            {
                Ok(outcome) => return Ok(outcome),
                Err(e) => {
                    attempt += 1;
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(retry.backoff(attempt));
                }
            }
        }
    }

    /// Enumerates the daemon's stored result fingerprints with per-memo cell
    /// counts.
    pub fn list(&mut self) -> io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("list"))]).render())
    }

    /// Requests cancellation of a job (from a second connection).
    pub fn cancel(&mut self, job: JobId) -> io::Result<Json> {
        self.request(
            &Json::obj(vec![
                ("cmd", Json::str("cancel")),
                ("job", Json::Int(job as i64)),
            ])
            .render(),
        )
    }

    /// Fetches daemon statistics (store + job counts, including per-segment
    /// sizes and dead-byte ratios).
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("stats"))]).render())
    }

    /// Fetches the queue-wide metrics registry snapshot.
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.request(&Json::obj(vec![("cmd", Json::str("metrics"))]).render())
    }

    /// Fetches one stored cell record by its 32-hex-digit fingerprint (as
    /// enumerated by [`Client::list`]).
    pub fn query(&mut self, fingerprint: &str) -> io::Result<Json> {
        self.request(
            &Json::obj(vec![
                ("cmd", Json::str("query")),
                ("fingerprint", Json::str(fingerprint)),
            ])
            .render(),
        )
    }
}
