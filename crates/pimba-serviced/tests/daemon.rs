//! End-to-end daemon tests: byte-identity of served records against direct
//! runner calls, queue priority and cancellation semantics, structured error
//! handling, graceful shutdown, and crash-safety of the on-disk store
//! (including a real kill-9 of the binary mid-job).

use netline::Json;
use pimba_fleet::runner::FleetRunner;
use pimba_serve::runner::TrafficRunner;
use pimba_serviced::client::Client;
use pimba_serviced::queue::{JobEvent, JobQueue, JobState};
use pimba_serviced::server::{Daemon, DaemonConfig};
use pimba_serviced::spec::{render_fleet_record, render_traffic_record, Experiment};
use pimba_serviced::store::ResultStore;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pimba_serviced_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn traffic_spec() -> Json {
    Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[8.0,16.0],
            "requests_per_cell":12,"seed":11}"#,
    )
    .unwrap()
}

fn fleet_spec() -> Json {
    Json::parse(
        r#"{"kind":"fleet_grid","model":{"family":"gla","scale":"small"},
            "systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],
            "replicas":[2],"routers":["round_robin","jsq"],
            "requests_per_cell":12,"seed":11}"#,
    )
    .unwrap()
}

/// A 48-cell grid: long enough that cancellation/timeout (which act at cell
/// granularity) land while cells still remain, on any realistic core count.
fn big_spec() -> Json {
    Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat","reasoning"],
            "rates_rps":[1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0],
            "requests_per_cell":12,"seed":5}"#,
    )
    .unwrap()
}

/// 192 fleet cells of 100000 requests (about 16 s on 2 cores in a release
/// build): a job a cancel lands in long before it could end `done`.
fn long_fleet_spec() -> Json {
    Json::parse(
        r#"{"kind":"fleet_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat","reasoning"],
            "rates_rps":[4.0,8.0,12.0,16.0,20.0,24.0,28.0,32.0],
            "replicas":[2,4],"routers":["round_robin","jsq","po2"],
            "requests_per_cell":100000,"seed":7}"#,
    )
    .unwrap()
}

/// 8 traffic cells of 20000 requests: about a second of cells after the
/// first one reports, in a debug build.
fn slow_spec() -> Json {
    Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat"],
            "rates_rps":[4.0,8.0,12.0,16.0],"requests_per_cell":20000,"seed":5}"#,
    )
    .unwrap()
}

/// Drains a submission's event stream to its terminal event.
fn drain(events: &Receiver<JobEvent>) -> (Vec<String>, &'static str) {
    loop {
        match events
            .recv_timeout(Duration::from_secs(120))
            .expect("event")
        {
            JobEvent::Progress { .. } => {}
            JobEvent::Done { records, .. } => return (records, "done"),
            JobEvent::Failed(_) => return (Vec::new(), "failed"),
            JobEvent::Cancelled => return (Vec::new(), "cancelled"),
            JobEvent::TimedOut => return (Vec::new(), "timed_out"),
        }
    }
}

#[test]
fn served_records_are_byte_identical_to_direct_runs() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Traffic grid: direct run through the same canonical renderer.
    let outcome = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    let Experiment::Traffic(grid) = Experiment::from_json(&traffic_spec()).unwrap() else {
        panic!("traffic spec must parse as a traffic grid");
    };
    let direct: Vec<String> = TrafficRunner::new()
        .run(&grid)
        .iter()
        .map(render_traffic_record)
        .collect();
    assert_eq!(outcome.records, direct);
    assert!(outcome.progress_events > 0, "progress must stream");

    // Fleet grid, same gate.
    let outcome = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    let Experiment::Fleet(grid) = Experiment::from_json(&fleet_spec()).unwrap() else {
        panic!("fleet spec must parse as a fleet grid");
    };
    let direct: Vec<String> = FleetRunner::new()
        .run(&grid)
        .iter()
        .map(render_fleet_record)
        .collect();
    assert_eq!(outcome.records, direct);

    // Identical resubmission: warm memo, still byte-identical.
    let warm = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(warm.records, direct);

    daemon.stop();
}

#[test]
fn higher_priority_jobs_run_first() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);
    // Occupy the single worker (48 cells — far longer than the two submit
    // calls below) so both later submissions stay queued together; the heap
    // then decides their order.
    let blocker = Experiment::from_json(&big_spec()).unwrap();
    let (_, blocker_events) = queue.submit(blocker, 100, None, false).unwrap();

    let low = Experiment::from_json(&traffic_spec()).unwrap();
    let high = Experiment::from_json(&fleet_spec()).unwrap();
    let (low_id, low_events) = queue.submit(low, 0, None, false).unwrap();
    let (high_id, high_events) = queue.submit(high, 5, None, false).unwrap();

    drain(&blocker_events);
    let (_, low_state) = drain(&low_events);
    let (_, high_state) = drain(&high_events);
    assert_eq!((low_state, high_state), ("done", "done"));
    // finish_seq is stamped under the jobs lock at each terminal transition,
    // so comparing it is race-free (unlike wall-clock stamps taken in
    // separately scheduled drain threads).
    assert!(
        queue.finish_seq(high_id).unwrap() < queue.finish_seq(low_id).unwrap(),
        "priority 5 must complete before priority 0 on a single worker"
    );
    queue.shutdown();
}

#[test]
fn cancellation_stops_running_and_queued_jobs() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);

    // Running job: cancel at the first cell boundary.
    let (running_id, running_events) = queue
        .submit(Experiment::from_json(&big_spec()).unwrap(), 0, None, false)
        .unwrap();
    let cancelled = match running_events
        .recv_timeout(Duration::from_secs(120))
        .expect("event")
    {
        JobEvent::Progress { .. } => queue.cancel(running_id),
        // Whole job finished before the first progress event was drained
        // (cancel has nothing left to stop) — the queued-job half below
        // still exercises the path deterministically.
        JobEvent::Done { .. } => false,
        other => panic!("unexpected event {other:?}"),
    };
    if cancelled {
        let (records, state) = drain(&running_events);
        assert_eq!(state, "cancelled");
        assert!(records.is_empty(), "a cancelled run streams no records");
        assert_eq!(queue.status(running_id).unwrap().0, JobState::Cancelled);
    }

    // Queued job behind a blocker: cancelling must terminate it immediately,
    // before any worker touches it.
    let (_, blocker_events) = queue
        .submit(
            Experiment::from_json(&traffic_spec()).unwrap(),
            10,
            None,
            false,
        )
        .unwrap();
    let (queued_id, queued_events) = queue
        .submit(
            Experiment::from_json(&fleet_spec()).unwrap(),
            0,
            None,
            false,
        )
        .unwrap();
    assert!(queue.cancel(queued_id));
    let (records, state) = drain(&queued_events);
    assert_eq!(state, "cancelled");
    assert!(records.is_empty());
    assert_eq!(queue.status(queued_id).unwrap().0, JobState::Cancelled);
    assert!(
        !queue.cancel(queued_id),
        "terminal jobs cannot be cancelled"
    );

    drain(&blocker_events);
    queue.shutdown();
}

#[test]
fn dropping_the_queue_cancels_queued_jobs_and_lets_running_ones_finish() {
    let store = ResultStore::in_memory();
    let memo = std::sync::Arc::clone(&store.traffic);
    let queue = JobQueue::start(store, 1, None);
    let (_, running) = queue
        .submit(Experiment::from_json(&slow_spec()).unwrap(), 0, None, false)
        .unwrap();
    let (_, queued) = queue
        .submit(
            Experiment::from_json(&traffic_spec()).unwrap(),
            0,
            None,
            false,
        )
        .unwrap();
    // The single worker has claimed the first job once it reports a cell;
    // the second waits behind its remaining 7 cells.
    assert!(matches!(
        running.recv_timeout(Duration::from_secs(120)),
        Ok(JobEvent::Progress { .. })
    ));
    drop(queue);
    assert_eq!(drain(&queued).1, "cancelled");
    assert_eq!(drain(&running).1, "done");
    // The worker then exits, and the store goes with it.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while std::sync::Arc::strong_count(&memo) > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "a worker still holds the store"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_one_millisecond_timeout_times_out() {
    let queue = JobQueue::start(ResultStore::in_memory(), 1, None);
    let (id, events) = queue
        .submit(
            Experiment::from_json(&big_spec()).unwrap(),
            0,
            Some(Duration::from_nanos(1)),
            false,
        )
        .unwrap();
    let (_, state) = drain(&events);
    assert_eq!(state, "timed_out");
    assert_eq!(queue.status(id).unwrap().0, JobState::TimedOut);
    queue.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut conn = netline::LineConn::connect(daemon.addr()).unwrap();

    conn.write_line("this is not json").unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("event").unwrap().as_str(), Some("error"));
    assert!(reply
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("invalid JSON"));

    conn.write_line(r#"{"cmd":"frobnicate"}"#).unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("field").unwrap().as_str(), Some("cmd"));

    // Invalid spec: the error names the offending field, and the connection
    // survives to serve the next (valid) request.
    let bad = r#"{"cmd":"submit","spec":{"kind":"traffic_grid",
        "model":{"family":"gpt5","scale":"small"},
        "systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}}"#
        .replace('\n', " ");
    conn.write_line(&bad).unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(
        reply.get("field").unwrap().as_str(),
        Some("spec.model.family")
    );

    let mut client = Client::connect(daemon.addr()).unwrap();
    let outcome = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(outcome.state, "done");
    daemon.stop();
}

#[test]
fn submits_with_a_bad_priority_or_timeout_are_rejected_not_defaulted() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut conn = netline::LineConn::connect(daemon.addr()).unwrap();
    let spec = traffic_spec().render();
    for (extra, field) in [
        (r#""timeout_ms":60000.0"#, "timeout_ms"),
        (r#""timeout_ms":-5"#, "timeout_ms"),
        (r#""timeout_ms":0"#, "timeout_ms"),
        (r#""timeout_ms":"60000""#, "timeout_ms"),
        (r#""priority":"high""#, "priority"),
        (r#""priority":1.5"#, "priority"),
    ] {
        conn.write_line(&format!(r#"{{"cmd":"submit","spec":{spec},{extra}}}"#))
            .unwrap();
        let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
        assert_eq!(
            reply.get("event").unwrap().as_str(),
            Some("error"),
            "{extra}"
        );
        assert_eq!(reply.get("field").unwrap().as_str(), Some(field), "{extra}");
    }

    // The connection survives, and none of the rejected submits was queued:
    // the valid one is the daemon's first job.
    conn.write_line(&format!(
        r#"{{"cmd":"submit","spec":{spec},"priority":2,"timeout_ms":60000}}"#
    ))
    .unwrap();
    let reply = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(reply.get("event").unwrap().as_str(), Some("accepted"));
    assert_eq!(reply.get("job").unwrap().as_i64(), Some(1));
    let terminal = loop {
        let line = Json::parse(&conn.read_line().unwrap().unwrap()).unwrap();
        let event = line.get("event").unwrap().as_str().unwrap().to_string();
        if !matches!(event.as_str(), "progress" | "record") {
            break event;
        }
    };
    assert_eq!(terminal, "done");
    daemon.stop();
}

/// Reads one line off a raw connection, asserting it is whole (ends in
/// `\n`), and parses it.
fn reply(reader: &mut BufReader<std::net::TcpStream>) -> Json {
    let mut line = Vec::new();
    assert!(
        reader.read_until(b'\n', &mut line).unwrap() > 0,
        "connection closed"
    );
    assert_eq!(line.pop(), Some(b'\n'), "every line ends in a newline");
    Json::parse(std::str::from_utf8(&line).unwrap()).unwrap()
}

#[test]
fn a_request_split_across_the_read_poll_is_answered_whole() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // The pause outlasts the daemon's 200 ms read poll: the first half must
    // survive the timed-out read.
    stream.write_all(br#"{"cmd":"sta"#).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    stream.write_all(b"ts\"}\n").unwrap();
    let stats = reply(&mut reader);
    assert_eq!(
        stats.get("event").unwrap().as_str(),
        Some("stats"),
        "{}",
        stats.render()
    );
    daemon.stop();
}

#[test]
fn a_request_that_is_not_utf8_gets_an_error_and_the_connection_survives() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"{\"cmd\":\"st\xffats\"}\n").unwrap();
    let error = reply(&mut reader);
    assert_eq!(error.get("event").unwrap().as_str(), Some("error"));
    assert_eq!(error.get("field").unwrap().as_str(), Some("request"));
    assert_eq!(
        error.get("message").unwrap().as_str(),
        Some("invalid UTF-8 at byte 10")
    );
    stream.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    let stats = reply(&mut reader);
    assert_eq!(stats.get("event").unwrap().as_str(), Some("stats"));
    daemon.stop();
}

/// Submits `spec` over a raw socket and checks the stream line by line:
/// `accepted`, one `progress` per cell in order, the records, the one `trace`
/// line carrying `trace` if the spec asks for a trace, `done`, and nothing
/// after it (the next line answers the following request). Returns the
/// records' `data` bytes.
fn raw_submission(
    stream: &mut std::net::TcpStream,
    reader: &mut BufReader<std::net::TcpStream>,
    spec: &Json,
    cells: usize,
    trace: Option<&str>,
) -> Vec<String> {
    writeln!(stream, r#"{{"cmd":"submit","spec":{}}}"#, spec.render()).unwrap();
    let accepted = reply(reader);
    assert_eq!(accepted.get("event").unwrap().as_str(), Some("accepted"));
    let job = accepted.get("job").unwrap().as_i64().unwrap();
    for done in 1..=cells {
        let progress = reply(reader);
        assert_eq!(
            progress.render(),
            format!(r#"{{"event":"progress","job":{job},"done":{done},"total":{cells}}}"#)
        );
    }
    let prefix = format!(r#"{{"event":"record","job":{job},"data":"#);
    let records = (0..cells)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let data = line
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix("}\n"))
                .unwrap_or_else(|| panic!("not a whole record line: {line:?}"));
            data.to_string()
        })
        .collect();
    if let Some(trace) = trace {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let envelope = format!(r#"{{"event":"trace","job":{job},"data":""#);
        assert!(line.starts_with(&envelope), "not a trace line: {line:?}");
        assert!(line.ends_with("\"}\n"), "not a whole trace line: {line:?}");
        let data = Json::parse(&line).unwrap();
        let data = data.get("data").and_then(Json::as_str).unwrap();
        // Cells register their trace tracks in the order the runner's
        // threads reach them, so only the set of lines is pinned.
        let sorted = |text: &str| {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines.sort();
            lines
        };
        assert_eq!(sorted(data), sorted(trace));
    }
    assert_eq!(
        reply(reader).render(),
        format!(r#"{{"event":"done","job":{job},"records":{cells}}}"#)
    );
    stream.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
    let next = reply(reader);
    assert_eq!(next.get("event").unwrap().as_str(), Some("stats"));
    records
}

#[test]
fn a_raw_stream_carries_every_event_as_one_whole_line() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let Experiment::Fleet(grid) = Experiment::from_json(&fleet_spec()).unwrap() else {
        panic!("fleet spec must parse as a fleet grid");
    };
    let direct: Vec<String> = FleetRunner::new()
        .run(&grid)
        .iter()
        .map(render_fleet_record)
        .collect();
    let cold = raw_submission(&mut stream, &mut reader, &fleet_spec(), direct.len(), None);
    assert_eq!(cold, direct);
    // Warm: every cell is a memo hit, so the records and `done` leave in one
    // burst; the lines must not change.
    let warm = raw_submission(&mut stream, &mut reader, &fleet_spec(), direct.len(), None);
    assert_eq!(warm, direct);
    daemon.stop();

    // Traced, on a cold store so that the trace holds events: the trace line
    // sits between the last record and `done`, and carries the events of a
    // direct traced run.
    let mut traced_spec = fleet_spec();
    let Json::Obj(pairs) = &mut traced_spec else {
        panic!("spec fixtures are objects")
    };
    pairs.push(("trace".to_string(), Json::Bool(true)));
    let (_, trace) = Experiment::from_json(&fleet_spec())
        .unwrap()
        .run_traced(
            &ResultStore::in_memory(),
            &pimba_system::sweep::RunControl::new(),
            true,
        )
        .unwrap();
    let trace = trace.expect("a traced run returns its trace");
    assert!(!trace.is_empty(), "a cold traced run records events");
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let traced = raw_submission(
        &mut stream,
        &mut reader,
        &traced_spec,
        direct.len(),
        Some(&trace),
    );
    assert_eq!(traced, direct);
    daemon.stop();
}

#[test]
fn a_submitter_that_disconnects_mid_stream_gets_its_job_cancelled() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut submitter = netline::LineConn::connect(daemon.addr()).unwrap();
    submitter
        .write_line(&format!(
            r#"{{"cmd":"submit","spec":{}}}"#,
            long_fleet_spec().render()
        ))
        .unwrap();
    let accepted = Json::parse(&submitter.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(accepted.get("event").unwrap().as_str(), Some("accepted"));
    let job = accepted.get("job").unwrap().as_i64().unwrap();
    let progress = Json::parse(&submitter.read_line().unwrap().unwrap()).unwrap();
    assert_eq!(progress.get("event").unwrap().as_str(), Some("progress"));
    drop(submitter);

    // The daemon's write fails within two more cells, and it cancels the job,
    // which has more than a hundred cells left.
    let mut poller = netline::LineConn::connect(daemon.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        poller
            .write_line(&format!(r#"{{"cmd":"status","job":{job}}}"#))
            .unwrap();
        let status = Json::parse(&poller.read_line().unwrap().unwrap()).unwrap();
        match status.get("state").unwrap().as_str().unwrap() {
            "cancelled" => break,
            "queued" | "running" => {}
            other => panic!("job {job} ended {other}, not cancelled"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {job} still runs long after its submitter left"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.stop();
}

#[test]
fn shutdown_drains_inflight_jobs_and_rejects_new_connections() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let addr = daemon.addr();
    let client_thread = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.run(&traffic_spec(), 0, None).unwrap().unwrap()
    });
    // Let the submission land, then stop: the in-flight job must still
    // complete and stream all its records.
    std::thread::sleep(Duration::from_millis(50));
    daemon.stop();
    let outcome = client_thread.join().unwrap();
    assert_eq!(outcome.state, "done");
    assert!(!outcome.records.is_empty());
    assert!(
        Client::connect(addr).is_err(),
        "the listener must be closed after stop"
    );
}

#[test]
fn daemon_restart_serves_warm_byte_identical_records_from_disk() {
    let dir = temp_dir("restart");

    let first = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(first.addr()).unwrap();
    let cold = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(cold.state, "done");
    first.stop();

    // Crash-tolerance: a torn trailing record (half-written at power loss)
    // must not poison the reload.
    use std::io::Write;
    let seg = dir.join("traffic_cells.seg");
    let mut file = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    file.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    drop(file);

    let second = Daemon::start(
        DaemonConfig::default(),
        ResultStore::persistent(&dir).unwrap(),
    )
    .unwrap();
    let mut client = Client::connect(second.addr()).unwrap();
    let warm = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(warm.records, cold.records, "restart must not change a byte");

    // Every cell must have been answered from the store, not re-simulated.
    let stats = client.stats().unwrap();
    let cells = stats
        .get("store")
        .and_then(|s| s.get("traffic"))
        .and_then(|t| t.get("cells"))
        .expect("stats.store.traffic.cells");
    assert_eq!(cells.get("misses").unwrap().as_i64(), Some(0));
    assert_eq!(cells.get("hits").unwrap().as_i64(), Some(4));

    second.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_nine_mid_job_leaves_a_loadable_warm_store() {
    let dir = temp_dir("kill");
    // A grid big enough that SIGKILL lands mid-run: 12 cells, sizeable
    // traces.
    let spec = Json::parse(
        r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},
            "systems":["gpu","pimba"],"scenarios":["chat","reasoning"],
            "rates_rps":[4.0,8.0,16.0],"requests_per_cell":60,"seed":3}"#,
    )
    .unwrap();

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_pimba-serviced"))
        .args(["--listen", "127.0.0.1:0", "--store"])
        .arg(&dir)
        .args(["--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon binary");
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut lines = stdout.lines();
    let listening = lines.next().unwrap().unwrap();
    let event = Json::parse(&listening).unwrap();
    assert_eq!(event.get("event").unwrap().as_str(), Some("listening"));
    let addr = event.get("addr").unwrap().as_str().unwrap().to_string();

    let mut client = Client::connect(addr.as_str()).unwrap();
    let job = client.submit(&spec, 0, None).unwrap().unwrap();
    assert!(job > 0);
    // Wait for the first finished cells to hit the store, then kill -9.
    loop {
        let event = client.next_event().unwrap();
        match event.get("event").and_then(Json::as_str) {
            Some("progress") => {
                let done = event.get("done").unwrap().as_i64().unwrap();
                if done >= 2 {
                    break;
                }
            }
            Some("record") => {}
            Some("done") => break, // machine fast enough to finish; still fine
            other => panic!("unexpected event {other:?}"),
        }
    }
    child.kill().expect("kill -9");
    let _ = child.wait();

    // The store must load despite the unsynced, possibly torn tail, with the
    // finished cells warm.
    let store = ResultStore::persistent(&dir).expect("reload after crash");
    assert!(
        store.loaded_entries() > 0,
        "cells finished before the kill must have been persisted"
    );

    // And a re-run over the reloaded store is byte-identical to a pristine
    // cold run.
    let experiment = Experiment::from_json(&spec).unwrap();
    let resumed = experiment
        .run(&store, &pimba_system::sweep::RunControl::new())
        .unwrap();
    let pristine = experiment
        .run(
            &ResultStore::in_memory(),
            &pimba_system::sweep::RunControl::new(),
        )
        .unwrap();
    assert_eq!(resumed, pristine);
    let (_, cells) = store.traffic.stats();
    assert!(cells.hits > 0, "the resumed run must reuse persisted cells");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_enumerates_stored_fingerprints_with_cell_counts() {
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Empty store: zero counts, empty enumeration.
    let empty = client.list().unwrap();
    assert_eq!(empty.get("event").and_then(Json::as_str), Some("list"));
    assert_eq!(empty.get("traffic_cells").and_then(Json::as_i64), Some(0));
    assert_eq!(empty.get("fleet_cells").and_then(Json::as_i64), Some(0));

    let traffic = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    let fleet = client.run(&fleet_spec(), 0, None).unwrap().unwrap();
    assert_eq!(
        (traffic.state.as_str(), fleet.state.as_str()),
        ("done", "done")
    );

    let listing = client.list().unwrap();
    assert_eq!(
        listing.get("traffic_cells").and_then(Json::as_i64),
        Some(traffic.records.len() as i64)
    );
    assert_eq!(
        listing.get("fleet_cells").and_then(Json::as_i64),
        Some(fleet.records.len() as i64)
    );
    let Some(Json::Arr(cells)) = listing.get("cells") else {
        panic!("list must carry a 'cells' array: {}", listing.render());
    };
    assert_eq!(cells.len(), traffic.records.len() + fleet.records.len());
    let mut fingerprints = Vec::new();
    for cell in cells {
        let memo = cell.get("memo").and_then(Json::as_str).expect("memo tag");
        assert!(
            matches!(memo, "traffic" | "fleet"),
            "unexpected memo {memo}"
        );
        let fp = cell
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint");
        assert_eq!(fp.len(), 32, "fingerprints render as 32 hex digits: {fp}");
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        fingerprints.push((memo.to_string(), fp.to_string()));
    }
    // Deterministic enumeration: traffic first, each memo's keys sorted.
    let traffic_fps: Vec<_> = fingerprints
        .iter()
        .filter(|(m, _)| m == "traffic")
        .collect();
    assert!(fingerprints[..traffic_fps.len()]
        .iter()
        .all(|(m, _)| m == "traffic"));
    assert!(traffic_fps.windows(2).all(|w| w[0].1 <= w[1].1));

    // A second client sees the identical listing.
    let mut other = Client::connect(daemon.addr()).unwrap();
    assert_eq!(other.list().unwrap().render(), listing.render());
    daemon.stop();
}

#[test]
fn trace_metrics_and_query_round_trip_over_the_protocol() {
    // Baseline daemon: plain run, no trace requested.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let plain = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(plain.state, "done");
    assert!(plain.trace.is_none(), "no trace unless the spec opts in");
    daemon.stop();

    // Traced daemon: cold store, so cells actually simulate and record.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut spec = traffic_spec();
    let Json::Obj(pairs) = &mut spec else {
        panic!("spec fixtures are objects")
    };
    pairs.push(("trace".to_string(), Json::Bool(true)));
    let traced = client.run(&spec, 0, None).unwrap().unwrap();
    assert_eq!(traced.state, "done");
    assert_eq!(
        traced.records, plain.records,
        "tracing must not change record bytes"
    );
    let trace = traced.trace.expect("trace must stream when requested");
    assert!(!trace.is_empty(), "a cold traced run records events");
    for line in trace.lines() {
        Json::parse(line).expect("every trace line is valid JSON");
    }

    // Warm resubmission: memoized cells record nothing, but the records are
    // still byte-identical and the (empty) trace envelope still streams.
    let warm = client.run(&spec, 0, None).unwrap().unwrap();
    assert_eq!(warm.records, plain.records);
    assert!(warm.trace.is_some());

    // The queue-wide metrics registry saw the run's serving series.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("event").and_then(Json::as_str), Some("metrics"));
    let series = metrics
        .get("data")
        .and_then(|d| d.get("metrics"))
        .and_then(Json::as_arr)
        .expect("metrics array");
    assert!(
        series
            .iter()
            .any(|s| { s.get("name").and_then(Json::as_str) == Some("serve_requests_completed") }),
        "traffic runs must publish serving metrics: {}",
        metrics.render()
    );

    // query: a stored cell fetched by fingerprint renders to the exact bytes
    // of one streamed record.
    let listing = client.list().unwrap();
    let cells = listing.get("cells").and_then(Json::as_arr).expect("cells");
    let fp = cells
        .iter()
        .find(|c| c.get("memo").and_then(Json::as_str) == Some("traffic"))
        .and_then(|c| c.get("fingerprint"))
        .and_then(Json::as_str)
        .expect("a stored traffic fingerprint");
    let result = client.query(fp).unwrap();
    assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
    assert_eq!(result.get("memo").and_then(Json::as_str), Some("traffic"));
    assert_eq!(result.get("fingerprint").and_then(Json::as_str), Some(fp));
    let data = result.get("data").expect("queried record").render();
    assert!(
        plain.records.contains(&data),
        "queried bytes must be one of the streamed records"
    );

    // Unknown and malformed fingerprints get structured errors.
    let missing = client.query("00000000000000000000000000000000").unwrap();
    assert_eq!(missing.get("event").and_then(Json::as_str), Some("error"));
    let malformed = client.query("not-a-fingerprint").unwrap();
    assert_eq!(malformed.get("event").and_then(Json::as_str), Some("error"));
    assert_eq!(
        malformed.get("field").and_then(Json::as_str),
        Some("fingerprint")
    );

    // stats: one `{name, len_bytes}` entry per memo's cell segment, zero
    // bytes in-memory.
    let stats = client.stats().unwrap();
    let segments = stats
        .get("store")
        .and_then(|s| s.get("segments"))
        .and_then(Json::as_arr)
        .expect("stats.store.segments");
    let names: Vec<&str> = segments
        .iter()
        .filter_map(|seg| seg.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["traffic_cells", "fleet_cells"]);
    for seg in segments {
        let Json::Obj(fields) = seg else {
            panic!("segment entry {seg:?} is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["name", "len_bytes"]);
        assert_eq!(seg.get("len_bytes").and_then(Json::as_i64), Some(0));
    }
    // Every job state, always in the same order: this daemon ran two jobs.
    let Some(Json::Obj(jobs)) = stats.get("jobs") else {
        panic!("stats.jobs is an object: {}", stats.render())
    };
    let jobs: Vec<(&str, i64)> = jobs
        .iter()
        .map(|(state, n)| (state.as_str(), n.as_i64().unwrap()))
        .collect();
    assert_eq!(
        jobs,
        [
            ("queued", 0),
            ("running", 0),
            ("done", 2),
            ("failed", 0),
            ("cancelled", 0),
            ("timed_out", 0)
        ]
    );
    let store = stats.get("store").expect("stats.store");
    assert_eq!(
        store.get("sync_errors").and_then(Json::as_i64),
        Some(0),
        "no store sync failed"
    );
    assert_eq!(
        store.get("append_errors").and_then(Json::as_i64),
        Some(0),
        "no store append failed"
    );
    daemon.stop();
}

#[test]
fn client_retry_reconnects_and_resubmits_after_transient_failures() {
    use pimba_serviced::client::ClientRetry;
    let retry = ClientRetry {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter: Duration::from_millis(1),
        seed: 9,
    };
    // Backoff is deterministic, exponential and capped: same (seed, attempt)
    // always pauses the same time, within [base·2^(n-1), max + jitter].
    for attempt in 1..=6u32 {
        let pause = retry.backoff(attempt);
        assert_eq!(
            pause,
            retry.backoff(attempt),
            "jitter must be a pure function"
        );
        assert!(pause <= retry.max_backoff + retry.jitter);
    }
    assert!(retry.backoff(2) >= Duration::from_millis(2));

    // Connecting to a dead port exhausts the attempts, then reports the error.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    assert!(Client::connect_with_retry(dead, &retry).is_err());

    // Against a live daemon, both retrying entry points succeed and the
    // resubmitted records are byte-identical to a plain run.
    let daemon = Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap();
    let mut client = Client::connect_with_retry(daemon.addr(), &retry).unwrap();
    let direct = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    let retried = Client::run_with_retry(daemon.addr(), &traffic_spec(), 0, None, &retry)
        .unwrap()
        .unwrap();
    assert_eq!(retried.records, direct.records);

    // Structured refusals are not retried: an invalid spec fails fast with
    // the daemon's error, not an exhausted-attempts timeout.
    let bad = Json::parse(r#"{"kind":"warp_grid"}"#).unwrap();
    let refusal = Client::run_with_retry(daemon.addr(), &bad, 0, None, &retry)
        .unwrap()
        .expect_err("invalid spec must be refused");
    assert!(
        refusal.field.starts_with("spec."),
        "refusal names the offending spec field: {refusal}"
    );
    daemon.stop();
}

#[test]
fn restart_compacts_a_bloated_store() {
    use pimba_system::memo::Fingerprint;
    use pimba_system::persist::SegmentFile;
    let dir = temp_dir("restart_compact");

    // Cold run to create the segment files.
    let cold = {
        let daemon = Daemon::start(
            DaemonConfig::default(),
            ResultStore::persistent(&dir).unwrap(),
        )
        .unwrap();
        let mut client = Client::connect(daemon.addr()).unwrap();
        let cold = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
        assert_eq!(cold.state, "done");
        daemon.stop();
        cold
    };

    // Bloat the cell segment with a checksum-valid but undecodable record —
    // the shape open-time compaction reclaims.
    let seg_path = dir.join("traffic_cells.seg");
    let clean = std::fs::metadata(&seg_path).unwrap().len();
    {
        let (mut seg, _) = SegmentFile::open(&seg_path, |_, _| true).unwrap();
        seg.append(Fingerprint::from_words(0xDEAD, 0xBEEF), b"junk")
            .unwrap();
        seg.sync().unwrap();
    }
    assert!(std::fs::metadata(&seg_path).unwrap().len() > clean);

    // Reopening the store rewrites the segment to its live records.
    let store = ResultStore::persistent(&dir).unwrap();
    assert_eq!(store.traffic.load_report().map(|r| r.undecodable), Some(1));
    assert_eq!(
        std::fs::metadata(&seg_path).unwrap().len(),
        clean,
        "open must compact the junk away"
    );

    // The compacted store still answers every cell, byte-identically.
    let daemon = Daemon::start(DaemonConfig::default(), store).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let reread = client.run(&traffic_spec(), 0, None).unwrap().unwrap();
    assert_eq!(reread.records, cold.records);
    let stats = client.stats().unwrap();
    let misses = stats
        .get("store")
        .and_then(|s| s.get("traffic"))
        .and_then(|t| t.get("cells"))
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_i64);
    assert_eq!(
        misses,
        Some(0),
        "every cell must load from the compacted log"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a record-schema bump leaves behind: a store whose only cell record
/// carries an older schema tag. It opens empty (no loaded entries, the
/// segment rewritten to nothing), and `stats` answers.
#[test]
fn a_store_of_old_schema_records_opens_empty() {
    use pimba_system::persist::SegmentFile;
    let dir = temp_dir("old_schema");
    let seg_path = dir.join("traffic_cells.seg");

    // One real traffic cell record, its leading schema tag set one lower.
    {
        let store = ResultStore::persistent(&dir).unwrap();
        Experiment::from_json(&traffic_spec())
            .unwrap()
            .run(&store, &pimba_system::sweep::RunControl::new())
            .unwrap();
    }
    let mut first = None;
    SegmentFile::open(&seg_path, |fp, payload| {
        first.get_or_insert((fp, payload.to_vec()));
        true
    })
    .unwrap();
    let (fp, mut payload) = first.expect("a stored traffic cell");
    payload[0] -= 1;
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut seg, _) = SegmentFile::open(&seg_path, |_, _| true).unwrap();
    seg.append(fp, &payload).unwrap();
    drop(seg);

    let store = ResultStore::persistent(&dir).unwrap();
    assert_eq!(store.loaded_entries(), 0);
    assert_eq!(store.traffic.load_report().map(|r| r.undecodable), Some(1));
    assert_eq!(std::fs::metadata(&seg_path).unwrap().len(), 0);

    let daemon = Daemon::start(DaemonConfig::default(), store).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let stats = client.stats().unwrap();
    let store_stats = stats.get("store").expect("stats.store");
    assert_eq!(
        store_stats.get("loaded_entries").and_then(Json::as_i64),
        Some(0)
    );
    assert_eq!(
        store_stats.get("cells_stored").and_then(Json::as_i64),
        Some(0)
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A superseded duplicate is not a loaded entry: a cell segment seeded with
/// three real cell records under two fingerprints loads two, both at open
/// and in the `stats` verb's `loaded_entries`.
#[test]
fn loaded_entries_counts_a_duplicate_once() {
    use pimba_system::persist::SegmentFile;
    let dir = temp_dir("duplicate_loaded");
    let seg_path = dir.join("traffic_cells.seg");

    // Two real traffic cell records, then a fresh segment holding the first
    // twice.
    {
        let store = ResultStore::persistent(&dir).unwrap();
        Experiment::from_json(&traffic_spec())
            .unwrap()
            .run(&store, &pimba_system::sweep::RunControl::new())
            .unwrap();
    }
    let mut cells = Vec::new();
    SegmentFile::open(&seg_path, |fp, payload| {
        cells.push((fp, payload.to_vec()));
        true
    })
    .unwrap();
    let [(one, first), (two, second), ..] = cells.as_slice() else {
        panic!("at least two stored traffic cells")
    };
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    {
        let (mut seg, _) = SegmentFile::open(&seg_path, |_, _| true).unwrap();
        seg.append(*one, first).unwrap();
        seg.append(*one, first).unwrap();
        seg.append(*two, second).unwrap();
    }

    let store = ResultStore::persistent(&dir).unwrap();
    assert_eq!(store.traffic.load_report().map(|r| r.records), Some(3));
    assert_eq!(store.loaded_entries(), 2);
    assert_eq!(
        store
            .stats_json()
            .get("loaded_entries")
            .and_then(Json::as_i64),
        Some(2)
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shot run whose cell appends fail still prints every record line,
/// then exits 1 naming the failed appends. The binary runs with
/// `RLIMIT_FSIZE` capped below one cell record and `SIGXFSZ` ignored, both
/// set in the child only: the limit is per process, and would break other
/// tests' writes here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn failed_store_appends_fail_the_one_shot_run() {
    use std::os::unix::process::CommandExt;

    const CAP: u64 = 16;
    const RLIMIT_FSIZE: i32 = 1;
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    let dir = temp_dir("append_failure");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, traffic_spec().render()).unwrap();
    let store_dir = dir.join("store");

    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `getrlimit` writes only the struct it is handed.
    assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
    let capped = RLimit {
        cur: CAP,
        max: limit.max,
    };
    let mut command = std::process::Command::new(env!("CARGO_BIN_EXE_pimba-serviced"));
    command
        .arg("--spec")
        .arg(&spec_path)
        .arg("--store")
        .arg(&store_dir);
    // SAFETY: the hook runs between fork and exec and calls only
    // `setrlimit` and `signal`, both async-signal-safe.
    unsafe {
        command.pre_exec(move || {
            if setrlimit(RLIMIT_FSIZE, &capped) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            // Writes past the cap fail with EFBIG instead of killing.
            signal(SIGXFSZ, SIG_IGN);
            Ok(())
        });
    }
    let output = command.output().expect("run the one-shot binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("4 store append(s) failed"),
        "stderr names the failed appends:\n{stderr}"
    );
    assert!(!stderr.contains("sync"), "no sync failed:\n{stderr}");
    let records = stdout
        .lines()
        .filter(|line| line.contains(r#""event":"record""#))
        .count();
    assert_eq!(records, 4, "every cell's record is still printed");
    assert!(stdout
        .lines()
        .last()
        .unwrap_or("")
        .contains(r#""event":"done""#));
    let _ = std::fs::remove_dir_all(&dir);
}
