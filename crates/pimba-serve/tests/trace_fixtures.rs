//! On-disk trace robustness: loading damaged JSONL dumps must produce
//! structured errors naming the line (and, where known, the field) — never a
//! panic — and must leave well-formed prefix lines recoverable by the caller
//! if it chooses to pre-truncate.

use pimba_serve::traffic::Trace;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load(name: &str) -> Result<Trace, netline::LineError> {
    Trace::from_jsonl(&std::fs::read_to_string(fixture(name)).unwrap())
}

#[test]
fn garbled_line_reports_its_line_number_and_field() {
    let err = load("garbled_trace.jsonl").expect_err("a garbled value must not parse");
    let message = err.to_string();
    assert!(
        message.contains("line 3"),
        "error must name the offending line: {message}"
    );
    assert!(
        message.contains("prompt_len"),
        "error must name the offending field: {message}"
    );
}

#[test]
fn truncated_trailing_line_reports_its_line_number() {
    let err = load("truncated_trace.jsonl").expect_err("a truncated line must not parse");
    let message = err.to_string();
    assert!(message.contains("line 2"), "{message}");

    // The well-formed prefix is still loadable once the damage is dropped —
    // what a recovery tool would do.
    let text = std::fs::read_to_string(fixture("truncated_trace.jsonl")).unwrap();
    let intact: String = text.lines().take(1).collect();
    let trace = Trace::from_jsonl(&intact).unwrap();
    assert_eq!(trace.requests.len(), 1);
}

#[test]
fn binary_garbage_is_an_io_error_not_a_panic() {
    let err = std::fs::read_to_string(fixture("binary_garbage.jsonl"))
        .expect_err("binary garbage is not UTF-8");
    // Invalid UTF-8 surfaces as InvalidData from the read itself.
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // Decoded lossily, it still parses to a structured error, not a panic.
    let bytes = std::fs::read(fixture("binary_garbage.jsonl")).unwrap();
    assert!(Trace::from_jsonl(&String::from_utf8_lossy(&bytes)).is_err());
}

#[test]
fn structured_error_fields_are_machine_readable() {
    let text = std::fs::read_to_string(fixture("garbled_trace.jsonl")).unwrap();
    let err = Trace::from_jsonl(&text).unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.message.contains("prompt_len"), "{}", err.message);
}
