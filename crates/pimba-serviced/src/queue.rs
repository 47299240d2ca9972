//! The daemon's job queue: a bounded worker pool draining a priority heap of
//! experiments, with per-job cancellation, timeouts, and streamed events.
//!
//! Jobs are ordered by `(priority desc, submission order asc)`. All queue
//! state is one `JobTable` under one mutex. The table has no threads and no
//! atomics: its methods are plain transitions (submit, claim, progress,
//! finish — a cancel finishes a job `cancelled` — and drain), and the caller
//! passes the clock in, so a test drives it through any interleaving.
//! Workers and a condvar wrap it.
//!
//! A job streams [`JobEvent`]s over an `mpsc` channel: progress, then one
//! terminal event — [`JobEvent::Done`] carries the records (and trace) — and
//! the channel closes. A terminal job ignores every later transition.
//! Cancelling a job or passing its deadline ends it at once; a running job's
//! cells stop at the next cell boundary through the cancel flag of the grid
//! runners' [`RunControl`] (finished cells stay in the memo: they are
//! correct).
//!
//! Dropping the queue without [`JobQueue::shutdown`] drains it without
//! waiting: queued jobs end `cancelled`, running jobs run to their end, then
//! each worker exits, and the last one out drops the store.

use crate::spec::Experiment;
use crate::store::ResultStore;
use pimba_system::obs::MetricsHub;
use pimba_system::sweep::{RunAborted, RunControl};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Job identifier, unique within one daemon process, increasing in
/// submission order.
pub type JobId = u64;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the heap, not yet claimed by a worker.
    Queued,
    /// Claimed and executing.
    Running,
    /// Finished; every record was streamed.
    Done,
    /// The runner panicked (the daemon survives; the job does not).
    Failed,
    /// Cancelled by request before completion.
    Cancelled,
    /// Cancelled by its deadline before completion.
    TimedOut,
}

/// Protocol names of the states, in declaration order.
const STATE_NAMES: [&str; 6] = [
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
    "timed_out",
];

impl JobState {
    /// Protocol name of the state.
    pub fn name(&self) -> &'static str {
        STATE_NAMES[*self as usize]
    }
}

/// One streamed job notification.
#[derive(Debug, PartialEq, Eq)]
pub enum JobEvent {
    /// `done` of `total` cells finished.
    Progress {
        /// Cells finished so far.
        done: usize,
        /// Total cells in the experiment.
        total: usize,
    },
    /// Terminal: the job ran to the end.
    Done {
        /// The canonical JSONL record lines (see [`crate::spec`]), in grid
        /// order.
        records: Vec<String>,
        /// The run's canonical JSONL event trace, when the job was submitted
        /// with trace capture (the spec's `"trace": true`).
        trace: Option<String>,
    },
    /// Terminal: the job panicked.
    Failed(String),
    /// Terminal: cancelled by request.
    Cancelled,
    /// Terminal: cancelled by deadline.
    TimedOut,
}

impl JobEvent {
    /// The state a terminal event leaves its job in.
    fn terminal_state(&self) -> Option<JobState> {
        match self {
            JobEvent::Progress { .. } => None,
            JobEvent::Done { .. } => Some(JobState::Done),
            JobEvent::Failed(_) => Some(JobState::Failed),
            JobEvent::Cancelled => Some(JobState::Cancelled),
            JobEvent::TimedOut => Some(JobState::TimedOut),
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is shutting down and no longer accepts jobs.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Draining => write!(f, "daemon is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

struct Job {
    /// Taken by the claim; dropped unrun if the job ends queued.
    experiment: Option<Experiment>,
    trace: bool,
    timeout: Option<Duration>,
    /// Set at the claim from `timeout`.
    deadline: Option<Instant>,
    /// The run's cooperative stop flag, raised when the job ends.
    cancel: Arc<AtomicBool>,
    state: JobState,
    done: usize,
    total: usize,
    finish_seq: Option<u64>,
    /// The submitter's stream; dropped after the terminal event.
    events: Option<Sender<JobEvent>>,
}

/// What a worker takes from the table to run a job.
struct Claim {
    id: JobId,
    experiment: Experiment,
    trace: bool,
    cancel: Arc<AtomicBool>,
}

/// Every piece of queue state, changed only by its transitions.
#[derive(Default)]
struct JobTable {
    /// `(priority, Reverse(id))`: the max-heap pops the highest priority,
    /// then the earliest submission. Entries of jobs that ended while queued
    /// stay until popped.
    heap: BinaryHeap<(i64, Reverse<JobId>)>,
    jobs: HashMap<JobId, Job>,
    /// The last id handed out; ids start at 1.
    last_id: JobId,
    /// Jobs ended so far: the next terminal job's `finish_seq`.
    finished: u64,
    draining: bool,
    /// Jobs per state, indexed by `JobState as usize`.
    counts: [usize; STATE_NAMES.len()],
    /// Worker threads still in their loop.
    workers: usize,
}

impl JobTable {
    fn submit(
        &mut self,
        experiment: Experiment,
        priority: i64,
        timeout: Option<Duration>,
        trace: bool,
    ) -> Result<(JobId, Receiver<JobEvent>), SubmitError> {
        if self.draining {
            return Err(SubmitError::Draining);
        }
        self.last_id += 1;
        let id = self.last_id;
        let (tx, rx) = mpsc::channel();
        let job = Job {
            total: experiment.total_cells(),
            experiment: Some(experiment),
            trace,
            timeout,
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
            state: JobState::Queued,
            done: 0,
            finish_seq: None,
            events: Some(tx),
        };
        self.jobs.insert(id, job);
        self.counts[JobState::Queued as usize] += 1;
        self.heap.push((priority, Reverse(id)));
        Ok((id, rx))
    }

    /// Pops the next queued job and marks it running, its deadline counted
    /// from `now`. `None` when nothing is queued.
    fn claim(&mut self, now: Instant) -> Option<Claim> {
        while let Some((_, Reverse(id))) = self.heap.pop() {
            let job = self.jobs.get_mut(&id).expect("heap entries name jobs");
            if job.state != JobState::Queued {
                continue;
            }
            job.state = JobState::Running;
            job.deadline = job.timeout.map(|t| now + t);
            self.counts[JobState::Queued as usize] -= 1;
            self.counts[JobState::Running as usize] += 1;
            return Some(Claim {
                id,
                experiment: job
                    .experiment
                    .take()
                    .expect("a queued job has its experiment"),
                trace: job.trace,
                cancel: Arc::clone(&job.cancel),
            });
        }
        None
    }

    /// A running job finished `done` of `total` cells at `now`; past its
    /// deadline, it times out instead.
    fn progress(&mut self, id: JobId, done: usize, total: usize, now: Instant) {
        let running = |job: &&mut Job| job.state == JobState::Running;
        let Some(job) = self.jobs.get_mut(&id).filter(running) else {
            return;
        };
        if job.deadline.is_some_and(|deadline| now >= deadline) {
            self.finish(id, JobEvent::TimedOut);
            return;
        }
        job.done = done;
        job.total = total;
        if let Some(events) = &job.events {
            let _ = events.send(JobEvent::Progress { done, total });
        }
    }

    /// Ends a live job with the terminal `event`: stamps its finish order,
    /// raises its stop flag, sends the event and closes the stream. `false`
    /// if the job is unknown or has already ended, which ignores the event.
    fn finish(&mut self, id: JobId, event: JobEvent) -> bool {
        let live = |job: &&mut Job| matches!(job.state, JobState::Queued | JobState::Running);
        let Some(job) = self.jobs.get_mut(&id).filter(live) else {
            return false;
        };
        let state = event.terminal_state().expect("jobs end on terminal events");
        self.counts[job.state as usize] -= 1;
        self.counts[state as usize] += 1;
        job.state = state;
        job.finish_seq = Some(self.finished);
        self.finished += 1;
        job.experiment = None;
        job.cancel.store(true, Ordering::SeqCst);
        if let Some(events) = job.events.take() {
            let _ = events.send(event);
        }
        true
    }

    /// Refuses further submissions and cancels every queued job.
    fn drain(&mut self) {
        self.draining = true;
        while let Some((_, Reverse(id))) = self.heap.pop() {
            self.finish(id, JobEvent::Cancelled);
        }
    }
}

struct Shared {
    table: Mutex<JobTable>,
    /// Signalled when a job is queued, the table drains, or a worker exits.
    available: Condvar,
    store: ResultStore,
    metrics: MetricsHub,
}

impl Shared {
    fn table(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.table
            .lock()
            .expect("no thread panics while changing the job table")
    }
}

/// The priority job queue and its worker pool. Dropping it drains it without
/// waiting for running jobs (see the [module docs](self)); prefer an explicit
/// [`JobQueue::shutdown`], which also flushes the store.
pub struct JobQueue {
    shared: Arc<Shared>,
    default_timeout: Option<Duration>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue")
            .field("jobs", &self.shared.table().jobs.len())
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Starts `workers` worker threads (clamped to ≥ 1) over `store`.
    /// `default_timeout` bounds jobs that do not set their own.
    pub fn start(store: ResultStore, workers: usize, default_timeout: Option<Duration>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            table: Mutex::new(JobTable {
                workers,
                ..JobTable::default()
            }),
            available: Condvar::new(),
            store,
            metrics: MetricsHub::new(),
        });
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared));
        }
        Self {
            shared,
            default_timeout,
        }
    }

    /// The shared result store.
    pub fn store(&self) -> &ResultStore {
        &self.shared.store
    }

    /// The queue-wide metrics registry: every job's run publishes its series
    /// here (labelled per cell), for the protocol's `metrics` command. Being
    /// write-only from the runners, the registry never feeds back into
    /// results (see [`pimba_system::obs`]).
    pub fn metrics(&self) -> &MetricsHub {
        &self.shared.metrics
    }

    /// Enqueues an experiment. Returns the job id and the event stream (the
    /// submitter's subscription). Higher `priority` runs earlier. With
    /// `trace`, a job that runs to the end carries the run's canonical JSONL
    /// event trace in its [`JobEvent::Done`].
    pub fn submit(
        &self,
        experiment: Experiment,
        priority: i64,
        timeout: Option<Duration>,
        trace: bool,
    ) -> Result<(JobId, Receiver<JobEvent>), SubmitError> {
        let timeout = timeout.or(self.default_timeout);
        let submitted = self
            .shared
            .table()
            .submit(experiment, priority, timeout, trace);
        if submitted.is_ok() {
            self.shared.available.notify_one();
        }
        submitted
    }

    /// Requests cancellation. `true` if the job exists and was not already
    /// terminal. The job ends `cancelled` at once; a running job's cells stop
    /// at the next cell boundary.
    pub fn cancel(&self, id: JobId) -> bool {
        self.shared.table().finish(id, JobEvent::Cancelled)
    }

    /// `(state, done, total)` of a job, if it exists.
    pub fn status(&self, id: JobId) -> Option<(JobState, usize, usize)> {
        let table = self.shared.table();
        table
            .jobs
            .get(&id)
            .map(|job| (job.state, job.done, job.total))
    }

    /// The job's position in queue-wide completion order (0 = first job to
    /// reach a terminal state), or `None` while it is still queued/running.
    /// Unlike wall-clock comparisons this is race-free: the sequence is
    /// stamped under the table lock at the terminal transition.
    pub fn finish_seq(&self, id: JobId) -> Option<u64> {
        let table = self.shared.table();
        table.jobs.get(&id).and_then(|job| job.finish_seq)
    }

    /// `(state name, jobs)` for every state in [`JobState`] declaration
    /// order, for the `stats` command.
    pub fn state_counts(&self) -> Vec<(&'static str, usize)> {
        STATE_NAMES
            .into_iter()
            .zip(self.shared.table().counts)
            .collect()
    }

    /// Stops accepting submissions, cancels queued (unstarted) jobs, lets
    /// running jobs finish, waits for every worker to exit, and flushes the
    /// store to stable storage. A failed flush is logged to stderr and
    /// counted in [`ResultStore::sync_errors`].
    pub fn shutdown(&self) {
        let mut table = self.shared.table();
        table.drain();
        self.shared.available.notify_all();
        drop(
            self.shared
                .available
                .wait_while(table, |table| table.workers > 0)
                .expect("no thread panics while changing the job table"),
        );
        if let Err(e) = self.shared.store.sync() {
            eprintln!("pimba-serviced: store sync at shutdown failed: {e}");
        }
    }
}

impl Drop for JobQueue {
    fn drop(&mut self) {
        // A poisoned table has no worker left to wake.
        if let Ok(mut table) = self.shared.table.lock() {
            table.drain();
        }
        self.shared.available.notify_all();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claim = {
            let mut table = shared.table();
            loop {
                if let Some(claim) = table.claim(Instant::now()) {
                    break claim;
                }
                if table.draining {
                    table.workers -= 1;
                    shared.available.notify_all();
                    return;
                }
                table = shared
                    .available
                    .wait(table)
                    .expect("no thread panics while changing the job table");
            }
        };
        run_job(shared, claim);
    }
}

fn run_job(shared: &Arc<Shared>, claim: Claim) {
    let id = claim.id;
    let progress = Arc::clone(shared);
    let control = RunControl::new()
        .with_cancel(claim.cancel)
        .with_metrics(shared.metrics.clone())
        .with_progress(Arc::new(move |done, total| {
            progress.table().progress(id, done, total, Instant::now());
        }));

    // A panicking cell must not take the worker (and the daemon) down with
    // it; the runners' own threads propagate panics to this join point.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        claim
            .experiment
            .run_traced(&shared.store, &control, claim.trace)
    }));

    let event = match outcome {
        Ok(Ok((records, trace))) => JobEvent::Done { records, trace },
        // The run stops only on the flag its job's end raised: the table
        // ignores this.
        Ok(Err(RunAborted)) => JobEvent::Cancelled,
        Err(panic) => JobEvent::Failed(
            panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string()),
        ),
    };
    let completed = matches!(event, JobEvent::Done { .. });
    shared.table().finish(id, event);
    if completed {
        // Results are on the heap already; make them durable eagerly so a
        // crash right after "done" still leaves a warm store.
        if let Err(e) = shared.store.sync() {
            eprintln!("pimba-serviced: job {id}: store sync failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netline::Json;
    use proptest::prelude::*;
    use std::sync::mpsc::TryRecvError;

    /// One transition, as a submitter, a worker or the clock makes it.
    #[derive(Debug, Clone)]
    enum Cmd {
        Submit { priority: i64, timeout_ms: u64 },
        Claim,
        Progress { job: JobId, done: usize },
        Finish { job: JobId, outcome: u8 },
        Cancel { job: JobId },
        Drain,
        Tick { ms: u64 },
    }

    fn cmd() -> impl Strategy<Value = Cmd> {
        prop_oneof![
            (0i64..3, 0u64..4).prop_map(|(priority, timeout_ms)| Cmd::Submit {
                priority,
                timeout_ms
            }),
            Just(Cmd::Claim),
            (1u64..9, 1usize..5).prop_map(|(job, done)| Cmd::Progress { job, done }),
            (1u64..9, 0u8..3).prop_map(|(job, outcome)| Cmd::Finish { job, outcome }),
            (0u64..9).prop_map(|job| Cmd::Cancel { job }),
            // Mostly the clock ticks; a drain, which ends every later
            // submission, comes about once in 56 commands.
            (0u64..8).prop_map(|n| match n {
                0 => Cmd::Drain,
                n => Cmd::Tick { ms: n % 2 + 1 },
            }),
        ]
    }

    /// The terminal event a worker reports for `outcome`.
    fn outcome_event(job: JobId, outcome: u8) -> JobEvent {
        match outcome {
            0 => JobEvent::Done {
                records: vec![format!("record of {job}")],
                trace: job.is_multiple_of(2).then(String::new),
            },
            1 => JobEvent::Failed("panicked".to_string()),
            _ => JobEvent::Cancelled,
        }
    }

    /// The reference model: every job in a vector, its events in a list.
    struct ModelJob {
        priority: i64,
        timeout_ms: u64,
        deadline_ms: Option<u64>,
        state: JobState,
        done: usize,
        finish_seq: Option<u64>,
        events: Vec<JobEvent>,
    }

    #[derive(Default)]
    struct Model {
        jobs: Vec<ModelJob>,
        draining: bool,
        finished: u64,
        now_ms: u64,
    }

    /// What a transition answers its caller.
    #[derive(Debug, PartialEq)]
    enum Reply {
        Submitted(Option<JobId>),
        Claimed(Option<JobId>),
        Cancelled(bool),
        Nothing,
    }

    impl Model {
        fn job(&mut self, id: JobId) -> Option<&mut ModelJob> {
            self.jobs.get_mut((id as usize).checked_sub(1)?)
        }

        /// The queued jobs in claim order: priority desc, then id asc.
        fn queued(&self) -> Vec<JobId> {
            let mut queued: Vec<JobId> = (1..=self.jobs.len() as JobId)
                .filter(|&id| self.jobs[id as usize - 1].state == JobState::Queued)
                .collect();
            queued.sort_by_key(|&id| (Reverse(self.jobs[id as usize - 1].priority), id));
            queued
        }

        fn end(&mut self, id: JobId, event: JobEvent) -> bool {
            let seq = self.finished;
            let Some(job) = self.job(id).filter(|job| job.finish_seq.is_none()) else {
                return false;
            };
            job.state = event.terminal_state().unwrap();
            job.finish_seq = Some(seq);
            job.events.push(event);
            self.finished += 1;
            true
        }

        fn step(&mut self, cmd: &Cmd) -> Reply {
            match *cmd {
                Cmd::Submit { .. } if self.draining => Reply::Submitted(None),
                Cmd::Submit {
                    priority,
                    timeout_ms,
                } => {
                    self.jobs.push(ModelJob {
                        priority,
                        timeout_ms,
                        deadline_ms: None,
                        state: JobState::Queued,
                        done: 0,
                        finish_seq: None,
                        events: Vec::new(),
                    });
                    Reply::Submitted(Some(self.jobs.len() as JobId))
                }
                Cmd::Claim => {
                    let next = self.queued().first().copied();
                    if let Some(id) = next {
                        let now_ms = self.now_ms;
                        let job = self.job(id).unwrap();
                        job.state = JobState::Running;
                        job.deadline_ms = (job.timeout_ms > 0).then_some(now_ms + job.timeout_ms);
                    }
                    Reply::Claimed(next)
                }
                Cmd::Progress { job: id, done } => {
                    let now_ms = self.now_ms;
                    match self.job(id) {
                        Some(job) if job.state == JobState::Running => {
                            if job.deadline_ms.is_some_and(|d| now_ms >= d) {
                                self.end(id, JobEvent::TimedOut);
                            } else {
                                job.done = done;
                                job.events.push(JobEvent::Progress { done, total: 1 });
                            }
                        }
                        _ => {}
                    }
                    Reply::Nothing
                }
                Cmd::Finish { job, outcome } => {
                    self.end(job, outcome_event(job, outcome));
                    Reply::Nothing
                }
                Cmd::Cancel { job } => Reply::Cancelled(self.end(job, JobEvent::Cancelled)),
                Cmd::Drain => {
                    self.draining = true;
                    for id in self.queued() {
                        self.end(id, JobEvent::Cancelled);
                    }
                    Reply::Nothing
                }
                Cmd::Tick { ms } => {
                    self.now_ms += ms;
                    Reply::Nothing
                }
            }
        }
    }

    /// The same transition on the table under test.
    fn apply(
        table: &mut JobTable,
        streams: &mut Vec<Receiver<JobEvent>>,
        start: Instant,
        now_ms: &mut u64,
        cmd: &Cmd,
    ) -> Reply {
        let now = start + Duration::from_millis(*now_ms);
        match *cmd {
            Cmd::Submit {
                priority,
                timeout_ms,
            } => {
                let timeout = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
                let submitted = table.submit(what_if(), priority, timeout, false);
                Reply::Submitted(submitted.ok().map(|(id, events)| {
                    streams.push(events);
                    id
                }))
            }
            Cmd::Claim => Reply::Claimed(table.claim(now).map(|claim| {
                assert!(
                    !claim.cancel.load(Ordering::SeqCst),
                    "claimed a stopped job"
                );
                claim.id
            })),
            Cmd::Progress { job, done } => {
                table.progress(job, done, 1, now);
                Reply::Nothing
            }
            Cmd::Finish { job, outcome } => {
                table.finish(job, outcome_event(job, outcome));
                Reply::Nothing
            }
            Cmd::Cancel { job } => Reply::Cancelled(table.finish(job, JobEvent::Cancelled)),
            Cmd::Drain => {
                table.drain();
                Reply::Nothing
            }
            Cmd::Tick { ms } => {
                *now_ms += ms;
                Reply::Nothing
            }
        }
    }

    fn what_if() -> Experiment {
        let spec = r#"{"kind":"what_if","model":{"family":"mamba2","scale":"small"},
            "systems":["pimba"],"scenarios":["chat"],"rates_rps":[8.0]}"#;
        Experiment::from_json(&Json::parse(spec).unwrap()).unwrap()
    }

    proptest! {
        #[test]
        fn the_table_follows_its_reference_model(cmds in prop::collection::vec(cmd(), 1..60)) {
            let mut model = Model::default();
            let mut table = JobTable::default();
            let mut streams = Vec::new();
            let mut seen: Vec<Vec<JobEvent>> = Vec::new();
            let (start, mut now_ms) = (Instant::now(), 0);
            for (step, cmd) in cmds.iter().enumerate() {
                let want = model.step(cmd);
                let got = apply(&mut table, &mut streams, start, &mut now_ms, cmd);
                prop_assert_eq!(got, want, "step {} {:?}", step, cmd);
                seen.resize_with(streams.len(), Vec::new);
                let mut counts = [0; STATE_NAMES.len()];
                for (i, (stream, job)) in streams.iter().zip(&model.jobs).enumerate() {
                    let id = i as JobId + 1;
                    seen[i].extend(stream.try_iter());
                    // Every event the model expects, in order: so exactly one
                    // terminal event per ended job, and nothing after it.
                    prop_assert_eq!(&seen[i], &job.events, "job {} events after step {}", id, step);
                    let closed = matches!(stream.try_recv(), Err(TryRecvError::Disconnected));
                    prop_assert_eq!(closed, job.finish_seq.is_some(), "job {} stream", id);
                    let entry = &table.jobs[&id];
                    prop_assert_eq!(entry.state, job.state, "job {} state", id);
                    prop_assert_eq!(entry.done, job.done, "job {} done", id);
                    prop_assert_eq!(entry.finish_seq, job.finish_seq, "job {} finish_seq", id);
                    prop_assert_eq!(entry.cancel.load(Ordering::SeqCst), job.finish_seq.is_some());
                    counts[job.state as usize] += 1;
                }
                prop_assert_eq!(table.counts, counts, "state counts after step {}", step);
            }
        }
    }
}
