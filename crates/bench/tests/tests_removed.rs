//! `removed_tests.json` at the workspace root is the ledger of deliberately
//! removed tests: each entry names the test `fn`, the file it lived in, the
//! change that removed it and why. This test fails if a listed test still
//! exists in its file, so a stale ledger breaks `cargo test`.

use netline::Json;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // The bench crate sits in `crates/bench/`, two levels below the root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .filter(|value| !value.is_empty())
        .unwrap_or_else(|| panic!("ledger entry field {key} is a non-empty string"))
}

#[test]
fn removed_tests_are_gone_from_their_files() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("removed_tests.json"))
        .expect("removed_tests.json at the workspace root");
    let ledger = Json::parse(&text).expect("removed_tests.json is valid JSON");
    let entries = ledger.as_arr().expect("the ledger is a JSON array");
    assert!(!entries.is_empty(), "the ledger lists at least one test");
    for entry in entries {
        let (name, file) = (field(entry, "name"), field(entry, "file"));
        field(entry, "reason");
        assert!(
            entry.get("pr").and_then(Json::as_u64).is_some(),
            "{name}: ledger entry field pr is a number"
        );
        // A deleted file holds no test; an existing one must not define it.
        if let Ok(source) = std::fs::read_to_string(root.join(file)) {
            assert!(
                !source.contains(&format!("fn {name}(")),
                "{name} is listed in removed_tests.json but still exists in {file}"
            );
        }
    }
}
