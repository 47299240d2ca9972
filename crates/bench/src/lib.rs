//! Shared plumbing for the experiment harness.
//!
//! Every `benches/figXX_*.rs` / `benches/tableX_*.rs` target reproduces one table or
//! figure of the paper: it prints the same rows/series the paper reports and writes a
//! CSV copy under `crates/bench/results/`. This library holds the common helpers
//! (result directory handling, CSV writing, aligned console tables and the standard
//! sets of models/batch sizes used by the evaluation).

use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Median wall-clock seconds of `reps` runs of `f` (exact order statistic via
/// the shared `pimba_system::stats` helper); results are black-boxed so the
/// timed work is not optimized away.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    pimba_system::stats::median(&times).expect("at least one rep")
}

/// `true` when `PIMBA_TRACE` is set (non-empty and not `0`). The recording
/// benches then re-run their grids with tracing + metrics attached and assert
/// the instrumented results byte-identical to the plain run before writing
/// artifacts — so a `PIMBA_TRACE=1` bench invocation regenerates every
/// committed `BENCH_*.json` bit for bit (the observability no-perturbation
/// gate, see `pimba_system::obs`).
pub fn trace_enabled() -> bool {
    env_flag("PIMBA_TRACE")
}

/// `true` when `PIMBA_PROFILE` is set (non-empty and not `0`): the hot-loop
/// bench enables the self-profiler and prints the per-phase wall-time report
/// to stderr after recording.
pub fn profile_enabled() -> bool {
    env_flag("PIMBA_PROFILE")
}

fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Batch sizes swept in the throughput and latency-breakdown figures.
pub const BATCH_SIZES: [usize; 3] = [32, 64, 128];

/// Input/output sequence lengths used by the end-to-end experiments.
pub const SEQ_LEN: usize = 2048;

/// Directory the harness writes CSV and `BENCH_*.json` results into:
/// `results/` under the bench crate's manifest directory, read at run time
/// from `CARGO_MANIFEST_DIR` (cargo sets it when it runs benches and tests).
/// A bench binary built in one checkout and run by cargo in a copy of it
/// therefore writes into the copy. Outside cargo the compile-time directory
/// is used.
pub fn results_dir() -> PathBuf {
    let dir = results_dir_for(std::env::var_os("CARGO_MANIFEST_DIR"));
    fs::create_dir_all(&dir).expect("failed to create results directory");
    dir
}

/// `results/` under the run-time manifest directory, else the compile-time
/// one.
fn results_dir_for(runtime_manifest_dir: Option<std::ffi::OsString>) -> PathBuf {
    runtime_manifest_dir
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("results")
}

/// Writes a CSV file with the given header and rows into the results directory.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut file = fs::File::create(&path).expect("failed to create CSV file");
    writeln!(file, "{}", header.join(",")).expect("failed to write CSV header");
    for row in rows {
        writeln!(file, "{}", row.join(",")).expect("failed to write CSV row");
    }
    println!("\n  -> wrote {}", path.display());
}

/// Prints an aligned console table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The SU-LLM + hybrid model set of Figure 3 (small scale).
pub fn breakdown_models() -> Vec<ModelConfig> {
    [
        ModelFamily::RetNet,
        ModelFamily::Gla,
        ModelFamily::Hgrn2,
        ModelFamily::Mamba2,
        ModelFamily::Zamba2,
    ]
    .iter()
    .map(|&f| ModelConfig::preset(f, ModelScale::Small))
    .collect()
}

/// The full performance model set (Figures 12–14) at the given scale.
pub fn performance_models(scale: ModelScale) -> Vec<ModelConfig> {
    ModelFamily::PERFORMANCE_SET
        .iter()
        .map(|&f| ModelConfig::preset(f, scale))
        .collect()
}

/// Formats a float with the given number of decimals (negative zero is normalized).
pub fn fmt(value: f64, decimals: usize) -> String {
    let value = if value == 0.0 { 0.0 } else { value };
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_sets_have_expected_sizes() {
        assert_eq!(breakdown_models().len(), 5);
        assert_eq!(performance_models(ModelScale::Small).len(), 6);
        assert_eq!(performance_models(ModelScale::Large).len(), 6);
    }

    #[test]
    fn results_dir_follows_the_runtime_manifest_dir() {
        let copy = std::ffi::OsString::from("/elsewhere/crates/bench");
        assert_eq!(
            results_dir_for(Some(copy)),
            PathBuf::from("/elsewhere/crates/bench/results")
        );
        assert_eq!(
            results_dir_for(None),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
        );
    }

    #[test]
    fn results_dir_exists_after_call() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
