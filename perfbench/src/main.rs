//! `perfbench` — one what-if benchmark through the whole pimba stack: an
//! in-process `pimba-serviced` daemon on loopback (two workers, one client
//! connection, one job in flight), its queue and runners, the memo and
//! persistent store, the fleet drivers, the engine, the dense latency tables
//! and the analytic models.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_cold|sweep_cold|store_warm|fleet_fault|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --record-digests > perfbench/digests.txt
//! ```
//!
//! `--trace 0` loops rounds of the workload for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` runs one round with spans, then the same
//! jobs in process and layer by layer, and reports the per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Run records and spans go to `--out`
//! (default `.bench_out`, relative to the working directory).

mod daemon;
mod replay;
mod spans;
mod traced;
mod util;
mod workloads;

use netline::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{canonical_lines, run_e2e, Plan, Workload, VARIANTS};

/// Digests of every workload's canonical record lines, per input variant,
/// recorded with `--record-digests`.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() && !args.record_digests {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn recorded_digest(workload: Workload, variant: u64) -> Option<String> {
    DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload.name() && f.next()?.parse::<u64>().ok()? == variant)
            .then(|| f.next().map(str::to_string))?
    })
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn run_one(args: &Args, workload: Workload) -> std::io::Result<String> {
    let variant = args.seed % VARIANTS;
    let digest = recorded_digest(workload, variant).unwrap_or_default();
    let out = args.out.join(workload.name());
    std::fs::create_dir_all(&out)?;
    let plan = Plan {
        workload,
        variant,
        digest: digest.clone(),
        out: out.clone(),
    };
    let mut samples = Json::Null;
    let (metrics, attempted, failed, spans, attribution) = if args.trace {
        let t = traced::run_traced(&plan)?;
        (
            t.metrics,
            t.attempted,
            t.failed,
            Some(t.spans),
            t.attribution,
        )
    } else {
        let e2e = run_e2e(&plan, args.seconds)?;
        println!(
            "rounds: {}, jobs per round: {}, set-up samples: {}",
            e2e.rounds.len(),
            e2e.rounds.first().map_or(0, |r| r.job_s.len()),
            e2e.setup_s.len()
        );
        samples = e2e.samples_json();
        let metrics = e2e.metrics(util::peak_rss_mb());
        (metrics, e2e.attempted, e2e.failed, None, Default::default())
    };
    let correct = !digest.is_empty() && failed == 0;
    if digest.is_empty() {
        eprintln!(
            "no recorded digest for {} variant {variant}",
            workload.name()
        );
    }

    let tag = format!("seed{}-trace{}", args.seed, u8::from(args.trace));
    let info = [
        ("workload", Json::str(workload.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("variant", Json::Int(variant as i64)),
        ("nproc", Json::Int(util::nproc() as i64)),
        ("commit", Json::Str(util::commit())),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ];
    for (k, v) in &info {
        println!("{k}: {}", v.render());
    }
    println!(
        "error_rate: {} (failed {failed} / attempted {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    if !attribution.is_empty() {
        println!("self time by layer over the traced round (ms):");
        for (layer, ms) in &attribution {
            println!("  {layer:<14} {ms:>12.3}");
        }
    }
    let named: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, *u))
        .collect();
    let line = result_line(correct, attempted, failed, &named);
    let mut record: Vec<(&str, Json)> = info.to_vec();
    record.push(("result", Json::parse(&line).expect("rendered JSON parses")));
    record.push((
        "self_ms_by_layer",
        Json::Obj(
            attribution
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        ),
    ));
    record.push(("samples", samples));
    std::fs::write(
        out.join(format!("{tag}.json")),
        Json::obj(record).render() + "\n",
    )?;
    if let Some(spans) = spans {
        std::fs::write(
            out.join(format!("{tag}.spans.jsonl")),
            spans::to_jsonl(&spans),
        )?;
    }
    Ok(line)
}

/// `--workload all`: every workload in its own process, so each reports its
/// own peak memory; prints their results and one combined line.
fn run_all() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passed: Vec<String> = std::env::args().skip(1).collect();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let mut child_args = passed.clone();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("checked by parse_args");
        child_args[pos + 1] = workload.name().to_string();
        println!("== {}", workload.name());
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let result =
            Json::parse(last).map_err(|_| format!("{} printed no result", workload.name()))?;
        correct &=
            output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(Json::as_i64).unwrap_or(0) as u64;
        failed += result.get("failed").and_then(Json::as_i64).unwrap_or(0) as u64;
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.push((format!("{}.{name}", workload.name()), value, unit));
        }
    }
    let named: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    Ok(result_line(correct, attempted, failed, &named))
}

/// Caps glibc's malloc arenas at two, one per busy thread. With a free hand
/// glibc gives threads arenas of their own as they happen to contend, and the
/// peak resident set then moves by a fifth from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called before
    // this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 2);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas() {}

fn main() -> ExitCode {
    cap_malloc_arenas();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record_digests {
        for workload in Workload::ALL {
            for variant in 0..VARIANTS {
                let lines = canonical_lines(workload, variant);
                println!("{} {variant} {}", workload.name(), util::digest(&lines));
            }
        }
        return ExitCode::SUCCESS;
    }
    let result = if args.workload == "all" {
        run_all()
    } else {
        match Workload::parse(&args.workload) {
            Some(workload) => run_one(&args, workload).map_err(|e| e.to_string()),
            None => Err(format!("unknown workload {}", args.workload)),
        }
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
