//! Every `pub fn` and `pub const` under `crates/pimba-*/src` must be named in
//! some other `.rs` file of the workspace, `perfbench/` included. An item
//! that only its own file names belongs at `pub(crate)` or below, where
//! `rustc`'s `dead_code` lint can see whether anything uses it. Names on
//! `pub use` and `pub mod` lines do not count: a re-export is not a use.
//!
//! The scan is textual, so a name shared with another item counts as a use;
//! it catches only items that nothing else names at all.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // The bench crate sits in `crates/bench/`, two levels below the root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, skipping build output and hidden folders.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_reexport(line: &str) -> bool {
    let line = line.trim_start();
    line.starts_with("pub use ") || line.starts_with("pub mod ")
}

/// The identifiers of `source`, re-export lines left out.
fn identifiers(source: &str) -> HashSet<&str> {
    source
        .lines()
        .filter(|line| !is_reexport(line))
        .flat_map(|line| line.split(|c: char| !(c.is_alphanumeric() || c == '_')))
        .filter(|word| !word.is_empty())
        .collect()
}

/// The name a line declares when it opens a `pub fn` or `pub const`.
fn pub_item(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    let mut declares = false;
    for keyword in ["const ", "async ", "unsafe ", "fn "] {
        if let Some(after) = rest.strip_prefix(keyword) {
            rest = after;
            declares = true;
        }
    }
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (declares && end > 0).then(|| &rest[..end])
}

#[test]
fn every_pub_fn_and_const_is_named_outside_its_file() {
    let root = workspace_root();
    let mut paths = Vec::new();
    rust_files(&root, &mut paths);
    paths.sort();
    let sources: Vec<(PathBuf, String)> = paths
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable source file");
            (path, source)
        })
        .collect();
    let names: Vec<HashSet<&str>> = sources
        .iter()
        .map(|(_, source)| identifiers(source))
        .collect();

    let mut unnamed = Vec::new();
    let mut checked = 0;
    for (i, (path, source)) in sources.iter().enumerate() {
        let relative = path.strip_prefix(&root).unwrap_or(path);
        let parts: Vec<_> = relative.iter().map(|part| part.to_string_lossy()).collect();
        let in_scope = parts.len() > 3
            && parts[0] == "crates"
            && parts[1].starts_with("pimba-")
            && parts[2] == "src";
        if !in_scope {
            continue;
        }
        for name in source.lines().filter_map(pub_item) {
            checked += 1;
            let named_elsewhere = names
                .iter()
                .enumerate()
                .any(|(j, words)| j != i && words.contains(name));
            if !named_elsewhere {
                unnamed.push(format!("{}: {name}", relative.display()));
            }
        }
    }
    assert!(checked > 100, "the scan found only {checked} pub items");
    assert!(
        unnamed.is_empty(),
        "pub items that no other file names; narrow them to pub(crate):\n{}",
        unnamed.join("\n")
    );
}
