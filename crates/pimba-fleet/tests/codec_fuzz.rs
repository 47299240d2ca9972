//! Every reader of outside bytes, fuzzed: `netline::Json` and the three JSON
//! Lines readers built on it (`Trace::from_jsonl`, `FaultPlan::from_jsonl`
//! and `obs::parse_jsonl`), the binary memo codecs (`TrafficRecord` and
//! `FleetRecord` decoding) and the on-disk `SegmentFile` log.
//!
//! * On arbitrary bytes and on single-byte mutations and truncations of
//!   valid dumps, nothing panics, and every error carries a line in range and a byte offset
//!   within that line.
//! * Valid dumps round-trip bit for bit, including `u64::MAX` seeds and ids,
//!   `-0.0`, the smallest subnormal and huge floats.
//! * The binary decoders never panic on arbitrary or mutated bytes, and
//!   reject every truncation of a valid encoding.
//! * A segment file with any byte flipped or any tail cut off still opens:
//!   it replays exactly the records before the damage, in order, and cuts
//!   the file back to them.

use netline::{Json, LineError};
use pimba_fleet::fault::{FaultPlan, RecoveryPolicy};
use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRecord, FleetRunner};
use pimba_models::config::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::traffic::{Scenario, Trace, TraceRequest};
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::Fingerprint;
use pimba_system::obs::{parse_jsonl, render_jsonl, TraceEvent, TraceTrack};
use pimba_system::persist::{ByteReader, ByteWriter, MemoValue, SegmentFile};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

fn encode<T: MemoValue>(value: &T) -> Vec<u8> {
    let mut out = ByteWriter::new();
    value.encode(&mut out);
    out.into_bytes()
}

/// Valid binary encodings of a traffic record and a fleet record, each
/// checked to decode back to its value, consuming every byte.
fn encodings() -> &'static [Vec<u8>; 2] {
    static ENCODINGS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    ENCODINGS.get_or_init(|| {
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        let systems = vec![SystemConfig::small_scale(SystemKind::Pimba)];
        let traffic = TrafficRunner::new().with_threads(1).run(
            &TrafficGrid::new(model.clone())
                .with_systems(systems.clone())
                .with_scenarios(vec![Scenario::chat()])
                .with_rates(vec![20.0])
                .with_requests_per_cell(12)
                .with_seq_bucket(32),
        );
        let fleet = FleetRunner::new().with_threads(1).run(
            &FleetGrid::new(model)
                .with_systems(systems)
                .with_scenarios(vec![Scenario::chat()])
                .with_rates(vec![20.0])
                .with_replica_counts(vec![2])
                .with_routers(vec![RouterKind::Jsq])
                .with_requests_per_cell(12),
        );
        let encodings = [encode(&traffic[0]), encode(&fleet[0])];
        fn round_trip<T: MemoValue + PartialEq + std::fmt::Debug>(bytes: &[u8], value: &T) {
            let mut reader = ByteReader::new(bytes);
            assert_eq!(T::decode(&mut reader).as_ref(), Some(value));
            assert!(reader.is_exhausted(), "decode left bytes unread");
        }
        round_trip(&encodings[0], &traffic[0]);
        round_trip(&encodings[1], &fleet[0]);
        encodings
    })
}

/// Decodes `bytes` as each record type (none may panic); entry `i` is
/// `true` when the type of `encodings()[i]` accepts the bytes.
fn decode_everything(bytes: &[u8]) -> [bool; 2] {
    [
        TrafficRecord::decode(&mut ByteReader::new(bytes)).is_some(),
        FleetRecord::decode(&mut ByteReader::new(bytes)).is_some(),
    ]
}

/// A fresh segment path under the system temp directory, unique per case.
fn segment_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("pimba_codec_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{}.seg", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Opens the segment at `path`, collecting every replayed record; also
/// returns the bytes dropped and the file length after the open.
fn replay(path: &Path) -> (SegmentFile, Vec<(Fingerprint, Vec<u8>)>, u64, u64) {
    let mut seen = Vec::new();
    let (segment, report) = SegmentFile::open(path, |fp, payload| {
        seen.push((fp, payload.to_vec()));
        true
    })
    .expect("a damaged segment still opens");
    assert_eq!(report.records, seen.len());
    assert_eq!(report.undecodable, 0);
    let len_after = std::fs::metadata(path).expect("segment exists").len();
    (segment, seen, report.dropped_bytes, len_after)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_decoders_never_panic_on_arbitrary_bytes(
        which in 0usize..2,
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        decode_everything(&bytes);
        // Behind a valid schema tag the decoders read past the first byte.
        let mut tagged = bytes;
        tagged.insert(0, encodings()[which][0]);
        decode_everything(&tagged);
    }

    #[test]
    fn binary_decoders_survive_mutations_and_reject_truncations(
        which in 0usize..2,
        at in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let valid = &encodings()[which];
        let at = at % valid.len();
        prop_assert!(!decode_everything(&valid[..at])[which], "truncation at {at} decoded");
        let mut mutated = valid.clone();
        mutated[at] = byte;
        decode_everything(&mutated);
    }

    #[test]
    fn damaged_segments_replay_the_intact_prefix_and_cut_the_rest(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..40), 1..6),
        damage in 0u8..2,
        at in 0usize..100_000,
        mask in 1u8..=255,
    ) {
        let path = segment_path();
        let written: Vec<(Fingerprint, Vec<u8>)> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| (Fingerprint::from_words(i as u64, !(i as u64)), payload))
            .collect();
        let mut ends = Vec::new();
        {
            let (mut segment, _) = SegmentFile::open(&path, |_, _| true).expect("create");
            for (fp, payload) in &written {
                segment.append(*fp, payload).expect("append");
                ends.push(segment.len_bytes());
            }
        }
        let mut data = std::fs::read(&path).expect("read segment");
        let at = if damage == 0 {
            let at = at % data.len();
            data[at] ^= mask;
            at
        } else {
            let at = at % (data.len() + 1);
            data.truncate(at);
            at
        };
        // Only records wholly before the flipped byte or the cut survive.
        let intact = ends.iter().take_while(|&&end| end as usize <= at).count();
        std::fs::write(&path, &data).expect("write damaged segment");

        let (mut segment, seen, dropped, len_after) = replay(&path);
        prop_assert_eq!(&seen[..], &written[..intact]);
        prop_assert_eq!(dropped + segment.len_bytes(), data.len() as u64);
        prop_assert_eq!(len_after, segment.len_bytes());

        // The cut log stays appendable and reloads clean.
        let extra = (Fingerprint::from_words(u64::MAX, 0), b"after".to_vec());
        segment.append(extra.0, &extra.1).expect("append after damage");
        drop(segment);
        let (_, seen, dropped, _) = replay(&path);
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(seen.len(), intact + 1);
        prop_assert_eq!(seen.last(), Some(&extra));
        std::fs::remove_file(&path).ok();
    }
}
