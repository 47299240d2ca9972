//! README performance tables are generated from the committed bench
//! artifacts, never typed by hand: each test renders one table from its
//! `results/BENCH_*.json` and fails unless README.md carries it verbatim. On
//! a mismatch the failure prints the rendered table to paste in.

use bench::results_dir;
use netline::Json;

fn artifact(name: &str) -> Json {
    let path = results_dir().join(name);
    let text = std::fs::read_to_string(&path).expect("bench artifact is committed");
    Json::parse(&text).expect("bench artifact is valid JSON")
}

fn num(value: &Json, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("artifact field {key} is a number"))
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("artifact field {key} is a string"))
}

fn list<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    value
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("artifact field {key} is an array"))
}

fn assert_in_readme(table: &str) {
    // `results/` sits in `crates/bench/`, three levels below the README.
    let readme = std::fs::read_to_string(results_dir().join("../../../README.md"))
        .expect("README.md at the workspace root");
    assert!(
        readme.contains(table),
        "README.md does not carry the table rendered from the artifact:\n{table}"
    );
}

/// The `serve_hotloop` table: per-step oracle vs fast-forward engine.
fn hotloop_table(artifact: &Json) -> String {
    let mut table = String::from(
        "| system | model | seq bucket | scenario | policy | per-step | fast-forward | speedup |\n\
         |---|---|---:|---|---|---:|---:|---:|\n",
    );
    for cell in list(artifact, "cells") {
        table += &format!(
            "| {} | {} | {} | {} | {} | {:.2} ms | {:.2} ms | {:.1}× |\n",
            text(cell, "system"),
            text(cell, "model"),
            num(cell, "seq_bucket"),
            text(cell, "scenario"),
            text(cell, "policy"),
            num(cell, "per_step_ms"),
            num(cell, "fast_forward_ms"),
            num(cell, "speedup"),
        );
    }
    table
}

#[test]
fn readme_hotloop_table_matches_its_artifact() {
    assert_in_readme(&hotloop_table(&artifact("BENCH_serve_hotloop.json")));
}

/// The `fleet_parallel` tables: each driver row against the stepped
/// round-robin baseline, then the memo grid's cold → warm study.
fn fleet_parallel_tables(artifact: &Json) -> String {
    let mut table = String::from(
        "| regime | path | router | median | min–max | vs baseline |\n\
         |--------|------|--------|-------:|--------:|------------:|\n",
    );
    for driver in list(artifact, "drivers") {
        let regime = format!(
            "{}, {} @ {} rps",
            text(driver, "scenario"),
            text(driver, "policy"),
            num(driver, "rate_rps"),
        );
        for (i, row) in list(driver, "rows").iter().enumerate() {
            let path = text(row, "path");
            let speedup = match row.get("speedup_vs_stepped_rr").and_then(Json::as_f64) {
                None => "–".to_string(),
                Some(x) if path == "stepped" => format!("{x:.2}×"),
                Some(x) => format!("**{x:.2}×**"),
            };
            let lead = if i == 0 {
                format!("| {regime} |")
            } else {
                "| |".to_string()
            };
            table += &format!(
                "{lead} {} | {} | {:.2} ms | {:.2}–{:.2} ms | {} |\n",
                path,
                text(row, "router"),
                num(row, "median_ms"),
                num(row, "min_ms"),
                num(row, "max_ms"),
                speedup,
            );
        }
    }
    let memo = artifact.get("memo_grid").expect("artifact has a memo_grid");
    table += &format!(
        "\n| study | configuration | median (min–max) | speedup |\n\
         |-------|---------------|------------------|---------|\n\
         | memo grid, cold → warm | {} cells × {} requests, {} rounds | \
         {:.2} ({:.2}–{:.2}) → {:.3} ({:.3}–{:.3}) ms | **{:.1}×** |\n",
        num(memo, "cells"),
        num(memo, "requests_per_cell"),
        num(memo, "rounds"),
        num(memo, "cold_median_ms"),
        num(memo, "cold_min_ms"),
        num(memo, "cold_max_ms"),
        num(memo, "warm_median_ms"),
        num(memo, "warm_min_ms"),
        num(memo, "warm_max_ms"),
        num(memo, "speedup"),
    );
    table
}

#[test]
fn readme_fleet_parallel_tables_match_their_artifact() {
    assert_in_readme(&fleet_parallel_tables(&artifact(
        "BENCH_fleet_parallel.json",
    )));
}
