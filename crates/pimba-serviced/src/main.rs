//! The `pimba-serviced` binary.
//!
//! Two modes:
//!
//! * **one-shot** — `pimba-serviced --spec FILE [--spec FILE …]`: run each
//!   spec file through the queue, print its event stream on stdout exactly
//!   as the daemon streams it (accepted, progress, record, then one terminal
//!   `done`/`failed`/`cancelled`/`timed_out` line), and exit non-zero on any
//!   unreadable or invalid spec (reported on stderr) or job that did not
//!   finish `done`. SIGINT / SIGTERM cancels the running job, prints its
//!   stream through the terminal `cancelled` line, submits no further spec
//!   and exits 1;
//! * **daemon** — `pimba-serviced --listen ADDR`: serve the line protocol
//!   until SIGTERM / ctrl-c / a `shutdown` command, then drain gracefully.
//!
//! Common flags: `--store DIR` (disk-backed result store; omit for
//! in-memory), `--workers N`, `--timeout-ms N` (default per-job timeout).
//!
//! Either mode exits non-zero if any store sync failed, the final one at
//! shutdown included, or any cell failed to append to the store.

use netline::Json;
use pimba_serviced::queue::{JobEvent, JobQueue};
use pimba_serviced::server::{accepted_line, event_line, Daemon, DaemonConfig};
use pimba_serviced::spec::parse_submission;
use pimba_serviced::store::ResultStore;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// Set from the signal handler; polled by both modes.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // std links libc, so the C `signal` symbol is available without a crate.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

struct Args {
    listen: String,
    store_dir: Option<PathBuf>,
    workers: usize,
    timeout: Option<Duration>,
    specs: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pimba-serviced [--listen ADDR] [--store DIR] [--workers N] \
         [--timeout-ms N] [--spec FILE]..."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7979".to_string(),
        store_dir: None,
        workers: 2,
        timeout: None,
        specs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--store" => args.store_dir = Some(PathBuf::from(value("--store"))),
            "--workers" => {
                args.workers = value("--workers").parse().unwrap_or_else(|_| usage());
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms").parse().unwrap_or_else(|_| usage());
                args.timeout = Some(Duration::from_millis(ms));
            }
            "--spec" => args.specs.push(PathBuf::from(value("--spec"))),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn usage_missing(flag: &str) -> String {
    eprintln!("missing value for {flag}");
    usage()
}

fn open_store(dir: &Option<PathBuf>) -> Result<ResultStore, String> {
    match dir {
        Some(dir) => ResultStore::persistent(dir)
            .map_err(|e| format!("cannot open store at {}: {e}", dir.display())),
        None => Ok(ResultStore::in_memory()),
    }
}

fn main() -> ExitCode {
    install_signal_handlers();
    let args = parse_args();
    let store = match open_store(&args.store_dir) {
        Ok(store) => store,
        Err(message) => {
            eprintln!("pimba-serviced: {message}");
            return ExitCode::from(2);
        }
    };
    if store.dir().is_some() {
        eprintln!(
            "pimba-serviced: store loaded {} persisted entries",
            store.loaded_entries()
        );
    }

    if !args.specs.is_empty() {
        return run_one_shot(&args, store);
    }

    let daemon = match Daemon::start(
        DaemonConfig {
            addr: args.listen.clone(),
            workers: args.workers,
            default_timeout: args.timeout,
        },
        store,
    ) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("pimba-serviced: cannot listen on {}: {e}", args.listen);
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        Json::obj(vec![
            ("event", Json::str("listening")),
            ("addr", Json::str(&daemon.addr().to_string())),
        ])
        .render()
    );
    let stopper = daemon.stopper();
    while !STOP.load(Ordering::SeqCst) && !stopper.is_stopped() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("pimba-serviced: draining");
    let queue = Arc::clone(daemon.queue());
    daemon.stop();
    sync_exit_code(queue.store())
}

/// Success, unless a store sync (the final one at shutdown included) or a
/// cell append failed during the run.
fn sync_exit_code(store: &ResultStore) -> ExitCode {
    let (syncs, appends) = (store.sync_errors(), store.append_errors());
    if syncs > 0 {
        eprintln!("pimba-serviced: {syncs} store sync(s) failed");
    }
    if appends > 0 {
        eprintln!("pimba-serviced: {appends} store append(s) failed");
    }
    if syncs + appends == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs spec files through the queue sequentially, printing each job's
/// event stream as the daemon renders it.
fn run_one_shot(args: &Args, store: ResultStore) -> ExitCode {
    let queue = JobQueue::start(store, args.workers, args.timeout);
    let mut failed = false;
    for path in &args.specs {
        if STOP.load(Ordering::SeqCst) {
            break;
        }
        let submitted = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| {
                Json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))
            })
            .and_then(|spec| {
                parse_submission(&spec).map_err(|e| format!("{}: {e}", path.display()))
            })
            .and_then(|(experiment, trace)| {
                queue
                    .submit_traced(experiment, 0, None, trace)
                    .map_err(|e| e.to_string())
            });
        let (id, events) = match submitted {
            Ok(pair) => pair,
            Err(message) => {
                eprintln!("pimba-serviced: {message}");
                failed = true;
                continue;
            }
        };
        println!("{}", accepted_line(id));
        // A signal cancels the job; its stream still runs to the terminal
        // `cancelled` line. The timeout only bounds how long a signal waits
        // for the next event before the cancel is sent.
        let mut cancelled = false;
        loop {
            if !cancelled && STOP.load(Ordering::SeqCst) {
                cancelled = true;
                queue.cancel(id);
            }
            let event = match events.recv_timeout(Duration::from_millis(100)) {
                Ok(event) => event,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            println!("{}", event_line(id, &event));
            if event.is_terminal() {
                failed |= !matches!(event, JobEvent::Done { .. });
                break;
            }
        }
    }
    queue.shutdown();
    if failed || STOP.load(Ordering::SeqCst) {
        ExitCode::FAILURE
    } else {
        sync_exit_code(queue.store())
    }
}
