//! Scenario: drive the what-if daemon end to end — start `pimba-serviced`
//! in-process, submit a serving-traffic grid over the line protocol, stream
//! progress and canonical records, then resubmit the same spec and watch the
//! memoized (and, with `PIMBA_STORE_DIR`, disk-warm) re-run answer instantly
//! and byte-identically.
//!
//! Run with `cargo run --release --example serviced_client`.
//!
//! Environment knobs (used by the CI smoke gate):
//!
//! * `PIMBA_STORE_DIR` — root the daemon's result store at this directory so
//!   the warm path survives process restarts;
//! * `EXPECT_WARM=1` — assert the *first* submission is already answered
//!   entirely from the loaded store (a second invocation on a warmed
//!   `PIMBA_STORE_DIR` must hit this path).

use pimba::netline::Json;
use pimba::serviced::spec::Experiment;
use pimba::serviced::{Client, ClientRetry, Daemon, DaemonConfig, ResultStore};
use pimba::system::sweep::RunControl;
use std::time::Instant;

fn spec() -> Json {
    Json::obj(vec![
        ("kind", Json::str("traffic_grid")),
        (
            "model",
            Json::obj(vec![
                ("family", Json::str("mamba2")),
                ("scale", Json::str("small")),
            ]),
        ),
        (
            "systems",
            Json::Arr(vec![Json::str("gpu"), Json::str("pimba")]),
        ),
        ("scenarios", Json::Arr(vec![Json::str("chat")])),
        (
            "rates_rps",
            Json::Arr(vec![Json::Num(8.0), Json::Num(24.0)]),
        ),
        ("requests_per_cell", Json::Int(40)),
        ("seq_bucket", Json::Int(64)),
        ("seed", Json::Int(7)),
        (
            "slo",
            Json::obj(vec![
                ("ttft_ms", Json::Num(200.0)),
                ("tpot_ms", Json::Num(8.0)),
            ]),
        ),
    ])
}

fn main() {
    let spec = spec();
    let expect_warm = std::env::var_os("EXPECT_WARM").is_some_and(|v| v == "1");
    let store_dir = std::env::var_os("PIMBA_STORE_DIR").map(std::path::PathBuf::from);

    let store = match &store_dir {
        Some(dir) => {
            let store = ResultStore::persistent(dir).expect("open PIMBA_STORE_DIR");
            println!(
                "store {}: {} entries loaded from disk",
                dir.display(),
                store.loaded_entries()
            );
            store
        }
        None => ResultStore::in_memory(),
    };

    let daemon = Daemon::start(
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            default_timeout: None,
        },
        store,
    )
    .expect("start daemon");
    println!("daemon listening on {}", daemon.addr());

    // Submission 1: stream progress and canonical records as they arrive.
    // Connect under the bounded-retry policy (capped exponential backoff,
    // deterministic jitter) so a daemon still binding is not a hard failure.
    let retry = ClientRetry::default();
    let mut client = Client::connect_with_retry(daemon.addr(), &retry).expect("connect");
    let job = client
        .submit(&spec, 0, None)
        .expect("submit")
        .expect("spec accepted");
    println!("job {job} accepted");
    let cold_start = Instant::now();
    let first = client.collect(job).expect("stream");
    let cold_wall = cold_start.elapsed().as_secs_f64();
    assert_eq!(first.state, "done");
    // One progress event per cell, memo hits included: the daemon batches
    // its writes but must neither drop nor merge an event.
    assert_eq!(
        first.progress_events,
        first.records.len(),
        "one progress event per cell"
    );
    println!(
        "job {job}: {} records, {} progress events, {:.1} ms",
        first.records.len(),
        first.progress_events,
        cold_wall * 1e3
    );
    for line in &first.records {
        println!("  {line}");
    }

    // The served records must be byte-identical to a direct in-process run of
    // the same experiment through the same canonical renderer.
    let direct = Experiment::from_json(&spec)
        .expect("parse spec")
        .run(&ResultStore::in_memory(), &RunControl::new())
        .expect("direct run");
    assert_eq!(
        first.records, direct,
        "served records must be byte-identical to a direct run"
    );
    println!("byte-identical to a direct runner call: true");

    // Submission 2: same spec, same daemon — every cell answers from the
    // memo. Submitted through the retrying path (fresh connection per
    // attempt): a stream dropped mid-job would re-submit, and the memo would
    // answer the already-computed cells byte-identically.
    let warm_start = Instant::now();
    let second = Client::run_with_retry(daemon.addr(), &spec, 0, None, &retry)
        .expect("resubmit")
        .expect("spec accepted");
    let warm_wall = warm_start.elapsed().as_secs_f64();
    assert_eq!(second.state, "done");
    assert_eq!(second.records, first.records, "warm re-run diverged");
    assert_eq!(
        second.progress_events,
        second.records.len(),
        "one progress event per cell on the warm re-run"
    );
    println!(
        "warm re-run: {:.2} ms (first run {:.2} ms, byte-identical)",
        warm_wall * 1e3,
        cold_wall * 1e3
    );

    // Enumerate what the store now holds: per-memo cell counts plus every
    // stored result fingerprint.
    let listing = client.list().expect("list");
    let traffic_cells = listing
        .get("traffic_cells")
        .and_then(Json::as_i64)
        .expect("list.traffic_cells");
    assert_eq!(
        traffic_cells as usize,
        first.records.len(),
        "the store must hold exactly the cells this grid computed"
    );
    println!("list: {}", listing.render());

    let stats = client.stats().expect("stats");
    let cell_misses = stats
        .get("store")
        .and_then(|s| s.get("traffic"))
        .and_then(|t| t.get("cells"))
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_i64)
        .expect("stats.store.traffic.cells.misses");
    println!("stats: {}", stats.render());
    if expect_warm {
        assert_eq!(
            cell_misses, 0,
            "EXPECT_WARM=1: every cell must be answered from the loaded store"
        );
        println!("warm restart verified: all cells served from disk");
    }

    daemon.stop();
    println!("daemon drained and stopped");
}
