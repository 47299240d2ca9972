//! One parser, fuzzed once: `netline::Json` and the three JSON Lines readers
//! built on it (`Trace::from_jsonl`, `FaultPlan::from_jsonl` and
//! `obs::parse_jsonl`).
//!
//! * On arbitrary bytes and on single-byte mutations and truncations of
//!   valid dumps, nothing panics, and every error carries a line in range and a byte offset
//!   within that line.
//! * Valid dumps round-trip bit for bit, including `u64::MAX` seeds and ids,
//!   `-0.0`, the smallest subnormal and huge floats.

use netline::{Json, LineError};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba_serve::traffic::{Trace, TraceRequest};
use pimba_system::obs::{parse_jsonl, render_jsonl, TraceEvent, TraceTrack};
use proptest::prelude::*;

/// Floats at the edges of the shortest round-trip formatter.
const EDGE_FLOATS: [f64; 6] = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 1e-5, 123456789.125];

/// Bytes the mutators draw from: JSON structure, number and literal
/// characters, escapes, whitespace, a control byte and one non-ASCII byte.
const ALPHABET: &[u8] = b"{}[]\":,.-+0123456789eEtrufalsn\\u \n\t\x01\xc3";

fn edge_trace() -> Trace {
    let mut requests: Vec<TraceRequest> = EDGE_FLOATS
        .iter()
        .enumerate()
        .map(|(i, &arrival_ns)| TraceRequest {
            arrival_ns,
            prompt_len: 1 + i * 1000,
            output_len: usize::MAX - i,
            tenant: if i % 2 == 0 { 0 } else { u32::MAX },
            priority: (i * 50) as u8,
        })
        .collect();
    requests.sort_by(|a, b| a.arrival_ns.total_cmp(&b.arrival_ns));
    Trace { requests }
}

fn edge_plan() -> FaultPlan {
    let mut plan = FaultPlan::kill_storm(3, 2, 5e-324, 1e300, -0.0)
        .slowdown(0.1 + 0.2, 1, 2.5, 1e-5)
        .link_down(1e300, 5e-324);
    plan.seed = u64::MAX;
    plan.recovery = RecoveryPolicy::RetryOnly;
    plan.retry.max_attempts = u32::MAX;
    plan.retry.timeout_ns = -0.0;
    plan.migration_link.link_gbps = 1e300;
    plan
}

fn edge_tracks() -> Vec<TraceTrack> {
    let events = EDGE_FLOATS
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            TraceEvent::span(
                "ev \"quoted\"\\\n\t\u{1}é",
                t,
                EDGE_FLOATS[5 - i],
                u64::MAX - i as u64,
            )
            .arg("x", -0.0)
            .arg("y", 1e300)
        })
        .collect();
    vec![
        TraceTrack {
            name: "fleet".into(),
            events,
        },
        TraceTrack {
            name: "empty track".into(),
            events: Vec::new(),
        },
        TraceTrack {
            name: "replica 1".into(),
            events: vec![TraceEvent::instant("admit", 5e-324, 0)],
        },
    ]
}

/// The three valid dumps the mutation property starts from.
fn dumps() -> [String; 3] {
    [
        edge_trace().to_jsonl(),
        edge_plan().to_jsonl(),
        render_jsonl(&edge_tracks()),
    ]
}

/// `Debug` renders floats in shortest round-trip form and keeps the sign of
/// zero, so equal `Debug` strings mean bit-identical values.
fn bits<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

/// Checks that `err` points at a real line of `text` and at a byte offset
/// within that line.
fn check_line_error(text: &str, err: &LineError) -> Result<(), TestCaseError> {
    let lines: Vec<&str> = text.lines().collect();
    prop_assert!(err.line >= 1, "line numbers are 1-based: {err}");
    if lines.is_empty() {
        // Only a reader that needs a first line can fail on an empty text.
        prop_assert_eq!(err.line, 1);
        return Ok(());
    }
    prop_assert!(err.line <= lines.len(), "{err} past {} lines", lines.len());
    let line = lines[err.line - 1];
    prop_assert!(
        err.pos <= line.len(),
        "{err} at {} past {}",
        err.pos,
        line.len()
    );
    Ok(())
}

/// Runs the parser and every reader over `text`; none may panic, and every
/// error must locate itself.
fn parse_everything(text: &str) -> Result<(), TestCaseError> {
    if let Err(err) = Json::parse(text) {
        prop_assert!(err.pos <= text.len(), "{err} past {}", text.len());
    }
    if let Err(err) = Trace::from_jsonl(text) {
        check_line_error(text, &err)?;
    }
    if let Err(err) = FaultPlan::from_jsonl(text) {
        check_line_error(text, &err)?;
    }
    if let Err(err) = parse_jsonl(text) {
        check_line_error(text, &err)?;
    }
    Ok(())
}

/// Maps a random byte onto mostly-JSON text so fuzzing reaches past the
/// first character; high bytes stay raw and become U+FFFD.
fn jsonish(bytes: &[u8]) -> String {
    let mapped: Vec<u8> = bytes
        .iter()
        .map(|&b| {
            if b < 0xF0 {
                ALPHABET[b as usize % ALPHABET.len()]
            } else {
                b
            }
        })
        .collect();
    String::from_utf8_lossy(&mapped).into_owned()
}

#[test]
fn valid_dumps_round_trip_bit_for_bit() {
    let trace = edge_trace();
    let dump = trace.to_jsonl();
    let back = Trace::from_jsonl(&dump).expect("trace dump parses");
    assert_eq!(bits(&back), bits(&trace));
    assert_eq!(back.to_jsonl(), dump);

    let plan = edge_plan();
    let dump = plan.to_jsonl();
    assert!(dump.contains("\"seed\":18446744073709551615"), "{dump}");
    let back = FaultPlan::from_jsonl(&dump).expect("fault plan dump parses");
    assert_eq!(bits(&back), bits(&plan));
    assert_eq!(back.to_jsonl(), dump);

    let tracks = edge_tracks();
    let dump = render_jsonl(&tracks);
    assert!(dump.contains("\"id\":18446744073709551615"), "{dump}");
    let back = parse_jsonl(&dump).expect("obs dump parses");
    assert_eq!(bits(&back), bits(&tracks));
    assert_eq!(render_jsonl(&back), dump);

    // Each dump is standard JSON Lines: every line is one object.
    for dump in dumps() {
        for line in dump.lines() {
            assert!(matches!(Json::parse(line), Ok(Json::Obj(_))), "{line}");
        }
    }
}

#[test]
fn integral_floats_are_written_with_a_fraction_and_read_either_way() {
    let trace = Trace::closed_loop(1, 8, 2);
    assert_eq!(
        trace.to_jsonl(),
        "{\"arrival_ns\":0.0,\"prompt_len\":8,\"output_len\":2}\n"
    );
    let bare = "{\"arrival_ns\":0,\"prompt_len\":8,\"output_len\":2}\n";
    assert_eq!(Trace::from_jsonl(bare).unwrap(), trace);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_and_errors_locate_themselves(
        bytes in prop::collection::vec(0u8..=255, 0..160)
    ) {
        parse_everything(&String::from_utf8_lossy(&bytes))?;
        parse_everything(&jsonish(&bytes))?;
    }

    #[test]
    fn single_byte_mutations_and_truncations_of_valid_dumps_never_panic(
        which in 0usize..3,
        at in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let mut bytes = dumps()[which].clone().into_bytes();
        let at = at % bytes.len();
        parse_everything(&String::from_utf8_lossy(&bytes[..at]))?;
        bytes[at] = ALPHABET[byte as usize % ALPHABET.len()];
        parse_everything(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn random_bits_round_trip(
        words in prop::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 1..12)
    ) {
        let words: Vec<u64> = words
            .iter()
            .map(|&(hi, lo)| (u64::from(hi) << 32) | u64::from(lo))
            .collect();
        let float = |w: u64| {
            let x = f64::from_bits(w);
            if x.is_finite() { x } else { f64::from_bits(w >> 12) }
        };
        let trace = Trace::from_requests(
            words
                .iter()
                .map(|&w| TraceRequest {
                    arrival_ns: float(w),
                    prompt_len: w as usize,
                    output_len: (w >> 7) as usize,
                    tenant: w as u32,
                    priority: (w >> 3) as u8,
                })
                .collect(),
        );
        let back = Trace::from_jsonl(&trace.to_jsonl()).expect("trace parses");
        prop_assert_eq!(bits(&back), bits(&trace));

        let mut plan = FaultPlan {
            seed: words[0],
            detection_latency_ns: float(words[0]),
            ..FaultPlan::default()
        };
        for &w in &words {
            plan = plan.slowdown(float(w), w as usize, float(w.rotate_left(17)), float(!w));
        }
        let back = FaultPlan::from_jsonl(&plan.to_jsonl()).expect("plan parses");
        prop_assert_eq!(bits(&back), bits(&plan));

        let events = words
            .iter()
            .map(|&w| TraceEvent::span("e", float(w), float(!w), w).arg("k", float(w >> 1)))
            .collect();
        let tracks = vec![TraceTrack { name: "t".into(), events }];
        let back = parse_jsonl(&render_jsonl(&tracks)).expect("obs parses");
        prop_assert_eq!(bits(&back), bits(&tracks));
    }
}
