//! The traced run: one round with spans around every call the benchmark
//! makes, the same jobs run in process on an equally warm store, and the
//! layer-by-layer replay. Gives the per-layer metrics.

use crate::daemon::StoreStats;
use crate::replay::{self, Counts, TableJob, Warmth};
use crate::spans::{self, Span, Tracer};
use crate::util::{mean, median};
use crate::workloads::{fault_round, fresh_dir, E2e, Job, Plan, Workload};
use netline::Json;
use pimba_fleet::runner::FleetRunner;
use pimba_serve::runner::TrafficRunner;
use pimba_serviced::spec::{render_fleet_record, render_traffic_record, Experiment};
use pimba_serviced::ResultStore;
use pimba_system::obs::MetricsHub;
use pimba_system::sweep::RunControl;
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The traced run's result: per-layer metrics, the spans behind them, the
/// wall-time attribution by layer, and the job tally.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
    pub attribution: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-job timings from the in-process phase.
#[derive(Default)]
struct InProcess {
    parse_ms: f64,
    call_ms: f64,
    render_ms: f64,
    records: usize,
}

const FINISH: &str = "runs without a cancel flag finish";

/// Runs one job in process against `store`: parse the spec, call the runner
/// (spanned `runner.call`), render its records. Returns the lines.
fn in_process(
    tracer: &Tracer,
    job_id: u64,
    job: &Job,
    store: &ResultStore,
) -> (Vec<String>, InProcess) {
    let mut t = InProcess::default();
    let start = Instant::now();
    let exp = tracer.span("serviced.spec_parse", None, job_id, |_| {
        let spec = Json::parse(&job.text).expect("benchmark specs are valid JSON");
        Experiment::from_json(&spec).expect("benchmark specs validate")
    });
    let parsed = Instant::now();
    t.parse_ms = (parsed - start).as_secs_f64() * 1e3;
    // As in the daemon's workers: a live metrics registry on every run.
    let control = RunControl::new().with_metrics(MetricsHub::new());
    let (lines, called, rendered) = match &exp {
        Experiment::Traffic(grid) => {
            let runner = TrafficRunner::new().with_memo(Arc::clone(&store.traffic));
            let records = tracer.span("runner.call", None, job_id, |_| {
                runner.run_controlled(grid, &control).expect(FINISH)
            });
            let called = Instant::now();
            let lines: Vec<String> = tracer.span("serviced.render", None, job_id, |_| {
                records.iter().map(render_traffic_record).collect()
            });
            (lines, called, Instant::now())
        }
        Experiment::Fleet(grid) => {
            let runner = FleetRunner::new().with_memo(Arc::clone(&store.fleet));
            let records = tracer.span("runner.call", None, job_id, |_| {
                runner.run_controlled(grid, &control).expect(FINISH)
            });
            let called = Instant::now();
            let lines: Vec<String> = tracer.span("serviced.render", None, job_id, |_| {
                records.iter().map(render_fleet_record).collect()
            });
            (lines, called, Instant::now())
        }
        Experiment::Capacity(_) => {
            // Capacity records are rendered inside `Experiment::run`.
            let lines = tracer.span("runner.call", None, job_id, |_| {
                exp.run(store, &control).expect(FINISH)
            });
            let called = Instant::now();
            (lines, called, called)
        }
    };
    t.call_ms = (called - parsed).as_secs_f64() * 1e3;
    t.render_ms = (rendered - called).as_secs_f64() * 1e3;
    t.records = if matches!(exp, Experiment::Capacity(_)) {
        0
    } else {
        lines.len()
    };
    (lines, t)
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Sum of span durations by name.
fn durations(spans: &[Span]) -> BTreeMap<&str, (f64, usize)> {
    let mut out: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name.as_str()).or_default();
        e.0 += s.ms();
        e.1 += 1;
    }
    out
}

/// The layer a span name belongs to: its first dotted segment.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub fn run_traced(plan: &Plan) -> io::Result<Traced> {
    let mut e2e = E2e::default();
    let fill = if plan.workload == Workload::StoreWarm {
        plan.fill_store(&mut e2e)?
    } else {
        Vec::new()
    };
    let tracer = Tracer::new();
    let counts = Counts::default();
    let warmth = if plan.workload == Workload::StoreWarm {
        Warmth::Warm
    } else {
        Warmth::Cold
    };

    // Job intervals as the client saw them, their in-process twins, and the
    // replay span of each job.
    let mut job_ms: Vec<f64> = Vec::new();
    let mut queue_wait_ms: Vec<f64> = Vec::new();
    let mut inproc: Vec<InProcess> = Vec::new();
    let mut replay_roots: Vec<usize> = Vec::new();
    let mut tables: Vec<TableJob> = Vec::new();
    let mut stats = StoreStats::default();
    let (untraced_ms, round_root);

    if plan.workload == Workload::FleetFault {
        // An untraced round first, for the tracing overhead.
        let start = Instant::now();
        fault_round(plan, &mut e2e);
        untraced_ms = ms(start, Instant::now());

        let start = Instant::now();
        let (calls, setup_start, setup_end) = fault_round(plan, &mut e2e);
        let mut renders = Vec::new();
        for call in &calls {
            let r0 = Instant::now();
            let lines: Vec<String> = call.records.iter().map(render_fleet_record).collect();
            let r1 = Instant::now();
            renders.push((r0, r1));
            job_ms.push(ms(call.start, call.end));
            inproc.push(InProcess {
                call_ms: ms(call.start, call.end),
                render_ms: ms(r0, r1),
                records: lines.len(),
                ..InProcess::default()
            });
        }
        round_root = tracer.record("round", None, 0, start, Instant::now());
        tracer.record("runner.setup", Some(round_root), 0, setup_start, setup_end);
        for (j, (call, (r0, r1))) in calls.iter().zip(renders).enumerate() {
            let job = j as u64 + 1;
            tracer.record("runner.call", Some(round_root), job, call.start, call.end);
            tracer.record("serviced.render", Some(round_root), job, r0, r1);
        }

        for (j, call) in calls.iter().enumerate() {
            let job = j as u64 + 1;
            let r = tracer.span("runner.replay", None, job, |id| {
                tables.extend(replay::replay_fleet_grid(
                    &call.grid, &tracer, id, job, &counts,
                ));
                id
            });
            replay_roots.push(r);
        }
    } else {
        let (untraced, ..) = plan.daemon_round(&fill, false, &mut e2e)?;
        untraced_ms = ms(untraced.start, untraced.end);

        let (out, jobs, order) = plan.daemon_round(&fill, true, &mut e2e)?;
        stats = out.stats.unwrap_or_default();
        let root = tracer.record("round", None, 0, out.start, out.end);
        round_root = root;
        tracer.record(
            "persist.load",
            Some(root),
            0,
            out.setup.start,
            out.setup.loaded,
        );
        tracer.record(
            "serviced.start",
            Some(root),
            0,
            out.setup.loaded,
            out.setup.ready,
        );
        for (j, run) in out.runs.iter().enumerate() {
            let job = j as u64 + 1;
            let span = tracer.record("serviced.job", Some(root), job, run.start, run.end);
            tracer.record(
                "serviced.queue_wait",
                Some(span),
                job,
                run.accepted,
                run.first_event,
            );
            job_ms.push(ms(run.start, run.end));
            queue_wait_ms.push(ms(run.accepted, run.first_event));
        }
        tracer.record("serviced.stop", Some(root), 0, out.stop_start, out.end);

        // The same jobs in process, on a store as warm as the daemon's was.
        let dir = match warmth {
            Warmth::Cold => {
                let dir = plan.out.join("inproc");
                fresh_dir(&dir)?;
                dir
            }
            Warmth::Warm => plan.store_dir(),
        };
        let store = ResultStore::persistent(&dir)?;
        for (j, &i) in order.iter().enumerate() {
            let (lines, t) = in_process(&tracer, j as u64 + 1, &jobs[i], &store);
            if lines != out.runs[j].lines {
                eprintln!("job {}: in-process lines differ from the daemon's", j + 1);
            }
            inproc.push(t);
        }
        tracer.span("persist.sync", None, 0, |_| store.sync())?;
        drop(store);

        for (j, &i) in order.iter().enumerate() {
            let job = j as u64 + 1;
            let r = tracer.span("runner.replay", None, job, |id| {
                tables.extend(replay::replay_experiment(
                    &jobs[i].exp,
                    warmth,
                    &tracer,
                    id,
                    job,
                    &counts,
                ));
                id
            });
            replay_roots.push(r);
        }
    }

    for job in &tables {
        replay::tables(job, &tracer, &counts);
    }

    let all = tracer.spans();
    let shares = spans::self_times(&all);
    let round_wall = all[round_root].ms();
    let d = durations(&all);
    let total = |name: &str| d.get(name).map_or(0.0, |v| v.0);
    let mean_us = |name: &str| d.get(name).map_or(0.0, |&(sum, n)| sum / n as f64 * 1e3);

    // Each job splits into transport, parse, runner self, replayed parts and
    // render; the round's set-up and stop spans are the serviced and persist
    // layers' own; what the round's spans leave uncovered is unattributed.
    let mut attribution: BTreeMap<String, f64> = BTreeMap::new();
    let mut credit =
        |layer: &str, v: f64| *attribution.entry(layer.to_string()).or_insert(0.0) += v;
    let mut transport = Vec::new();
    let mut runner_self = 0.0;
    for (j, &root) in replay_roots.iter().enumerate() {
        let mut parts = 0.0;
        for (s, share) in all.iter().zip(&shares) {
            if s.parent == Some(root) {
                parts += share;
                credit(layer(&s.name), *share);
            }
        }
        let t = &inproc[j];
        let own = t.call_ms - parts;
        runner_self += own;
        credit("runner", own);
        let trip = job_ms[j] - (t.parse_ms + t.call_ms + t.render_ms);
        if plan.workload != Workload::FleetFault {
            transport.push(trip);
            credit("serviced", trip + t.parse_ms);
        }
        credit("serviced", t.render_ms);
    }
    for s in all.iter().filter(|s| s.parent == Some(round_root)) {
        match s.name.as_str() {
            "persist.load" => credit("persist", s.ms()),
            "serviced.start" | "serviced.stop" => credit("serviced", s.ms()),
            "runner.setup" => credit("runner", s.ms()),
            _ => {}
        }
    }
    let unattributed = shares[round_root];
    credit("unattributed", unattributed);

    let load = |n: &std::sync::atomic::AtomicU64| n.load(Ordering::Relaxed) as f64;
    let fleet_ms: f64 = d
        .iter()
        .filter(|(name, _)| name.starts_with("fleet."))
        .map(|(_, v)| v.0)
        .sum();
    let engine_ms = total("engine.run");
    let engine_events = load(&counts.engine_events);
    let fleet_events = load(&counts.fleet_events);
    let records: usize = inproc.iter().map(|t| t.records).sum();
    let render_ms: f64 = inproc.iter().map(|t| t.render_ms).sum();
    let parses: Vec<f64> = inproc
        .iter()
        .filter(|t| t.parse_ms > 0.0)
        .map(|t| t.parse_ms * 1e3)
        .collect();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let metrics = vec![
        ("serviced.queue_wait_ms", median(&queue_wait_ms), "ms"),
        ("serviced.transport_ms", median(&transport), "ms"),
        ("serviced.spec_parse_us", mean(&parses), "us"),
        (
            "serviced.render_us",
            per(render_ms * 1e3, records as f64),
            "us",
        ),
        ("runner.trace_gen_ms", total("runner.trace_gen"), "ms"),
        ("runner.capacity_ms", total("runner.capacity"), "ms"),
        ("runner.self_ms", runner_self, "ms"),
        ("memo.key_us", mean_us("memo.key"), "us"),
        ("memo.cell_hit_ratio", stats.cell_hit_ratio(), "fraction"),
        ("memo.trace_hit_ratio", stats.trace_hit_ratio(), "fraction"),
        (
            "memo.capacity_hit_ratio",
            stats.capacity_hit_ratio(),
            "fraction",
        ),
        ("persist.load_ms", total("persist.load"), "ms"),
        ("persist.sync_ms", total("persist.sync"), "ms"),
        ("persist.bytes", stats.bytes, "bytes"),
        (
            "fleet.run_ms.round_robin",
            total("fleet.run.round_robin"),
            "ms",
        ),
        ("fleet.run_ms.jsq", total("fleet.run.jsq"), "ms"),
        ("fleet.run_ms.po2", total("fleet.run.po2"), "ms"),
        (
            "fleet.run_ms.disaggregated",
            total("fleet.run.disaggregated"),
            "ms",
        ),
        (
            "fleet.faulted_ms.colocated",
            total("fleet.faulted.colocated"),
            "ms",
        ),
        (
            "fleet.faulted_ms.disaggregated",
            total("fleet.faulted.disaggregated"),
            "ms",
        ),
        (
            "fleet.events_per_s",
            per(fleet_events, fleet_ms * 1e-3),
            "1/s",
        ),
        ("fleet.migrations", load(&counts.migrations), "count"),
        ("fleet.lost", load(&counts.lost), "count"),
        ("engine.run_ms", engine_ms, "ms"),
        (
            "engine.ns_per_event",
            per(engine_ms * 1e6, engine_events),
            "ns",
        ),
        ("engine.events", engine_events, "count"),
        ("table.fill_ms", total("table.fill"), "ms"),
        ("table.entries", load(&counts.table_entries), "count"),
        (
            "analytic.step_function_us",
            mean_us("analytic.step_function"),
            "us",
        ),
        ("analytic.attention_us", mean_us("analytic.attention"), "us"),
        ("analytic.prefill_us", mean_us("analytic.prefill"), "us"),
        ("unattributed_ms", unattributed, "ms"),
        ("tracing_overhead_ms", round_wall - untraced_ms, "ms"),
    ];
    Ok(Traced {
        metrics,
        spans: all,
        attribution,
        attempted: e2e.attempted,
        failed: e2e.failed,
    })
}
