//! The daemon's line protocol fuzzed over one live connection to an
//! in-memory daemon: arbitrary newline-free byte lines, valid requests with a
//! field retyped or removed or the command renamed, and submits whose spec is
//! invalid.
//!
//! Every line that is not blank gets exactly one reply line: a normal event,
//! or an `error` whose `field` names `request`, `cmd` or the field at fault.
//! The connection never closes, and a final `stats` succeeds with nothing
//! else left to read. Pinned cases split a line across a pause longer than
//! the daemon's 200 ms read poll.

use netline::Json;
use pimba_serviced::server::{Daemon, DaemonConfig};
use pimba_serviced::store::ResultStore;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

/// One daemon for every case; each case opens its own connection. It holds
/// no jobs: no fuzzed line can submit a valid spec.
fn daemon() -> &'static Daemon {
    static DAEMON: OnceLock<Daemon> = OnceLock::new();
    DAEMON.get_or_init(|| Daemon::start(DaemonConfig::default(), ResultStore::in_memory()).unwrap())
}

/// The commands the daemon knows; a renamed command is none of them.
const COMMANDS: [&str; 9] = [
    "submit", "cancel", "status", "stats", "metrics", "query", "list", "shutdown", "",
];

/// The `field` an error may name for a line of unknown content.
fn known_field(field: &str) -> bool {
    matches!(
        field,
        "request" | "cmd" | "job" | "fingerprint" | "priority" | "timeout_ms"
    ) || field == "spec"
        || field.starts_with("spec.")
}

/// What the reply to one line must be.
#[derive(Debug, Clone)]
enum Expect {
    /// A blank line: no reply at all.
    Nothing,
    /// A normal event, or an error naming a known field.
    Any,
    /// An error naming this field (or, for `spec`, a field inside it).
    Error(&'static str),
}

/// A request field: its name, a valid value, and whether it may be left out.
type Field = (&'static str, Json, bool);

/// Draws values off a tape of random words; an exhausted tape reads zeros.
struct Tape(Vec<u64>);

impl Tape {
    fn next(&mut self, below: u64) -> u64 {
        self.0.pop().unwrap_or(0) % below.max(1)
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.next(options.len() as u64) as usize]
    }

    /// Arbitrary newline-free bytes, biased towards protocol punctuation.
    fn bytes(&mut self) -> Vec<u8> {
        const PIECES: [&[u8]; 12] = [
            b"{",
            b"}",
            b"\"cmd\"",
            b":",
            b",",
            b"\"stats\"",
            b"\"submit\"",
            b" ",
            b"\r",
            b"\xff",
            b"\xc3",
            b"\xc3\xa9",
        ];
        let len = self.next(24);
        let mut out = Vec::new();
        for _ in 0..len {
            match self.next(3) {
                0 => out.extend_from_slice(PIECES[self.next(PIECES.len() as u64) as usize]),
                _ => {
                    let byte = self.next(256) as u8;
                    out.push(if byte == b'\n' { b'x' } else { byte });
                }
            }
        }
        out
    }

    /// A JSON value of another type than the one `field` accepts.
    fn retyped(&mut self, field: &str) -> Json {
        let mut palette = vec![
            Json::Null,
            Json::Bool(true),
            Json::Num(2.5),
            Json::Arr(vec![Json::Int(1)]),
            Json::obj(vec![("family", Json::str("mamba2"))]),
        ];
        match field {
            // Integers, but not positive ones, or strings.
            "job" | "timeout_ms" => {
                palette.extend([Json::Int(0), Json::Int(-3), Json::str("1")]);
            }
            "priority" | "cmd" => palette.push(Json::str("1")),
            // A string of the wrong shape is as bad as another type.
            "fingerprint" => palette.extend([Json::Int(7), Json::str("00ff"), Json::str("")]),
            _ => palette.push(Json::Int(3)),
        }
        if field == "cmd" {
            palette.retain(|v| !matches!(v, Json::Str(_)));
        }
        palette.swap_remove(self.next(palette.len() as u64) as usize)
    }

    /// A command name the daemon does not know.
    fn renamed(&mut self) -> String {
        let base = self.pick(&COMMANDS);
        let name = match self.next(4) {
            0 => base.to_uppercase(),
            1 => format!("{base} "),
            2 => format!("{base}{}", self.next(100)),
            _ => base.chars().rev().collect(),
        };
        if COMMANDS.contains(&name.as_str()) {
            format!("x{name}")
        } else {
            name
        }
    }

    /// A spec `Experiment::from_json` rejects.
    fn invalid_spec(&mut self) -> Json {
        let text = self.pick(&[
            r#"{"kind":"traffic_grid","model":{"family":"gpt5","scale":"small"},"systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
            r#"{"model":{"family":"mamba2","scale":"small"},"systems":["gpu"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
            r#"{"kind":"traffic_grid","model":{"family":"mamba2","scale":"small"},"systems":["gpu"],"scenarios":["chat"],"rates_rps":[]}"#,
            r#"{"kind":"what_if","model":{"family":"mamba2","scale":"small"},"systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[1.0]}"#,
            r#"{"kind":"fleet_grid","model":{"family":"gla","scale":"small"},"systems":["pimba"],"scenarios":["chat"],"rates_rps":[16.0],"replicas":[0],"routers":["jsq"]}"#,
            r#"[1,2]"#,
            r#""spec""#,
        ]);
        Json::parse(text).expect("valid JSON")
    }

    /// A request line and the reply it must get.
    fn line(&mut self) -> (Vec<u8>, Expect) {
        if self.next(3) == 0 {
            let bytes = self.bytes();
            let blank = std::str::from_utf8(&bytes).is_ok_and(|s| s.trim().is_empty());
            return (bytes, if blank { Expect::Nothing } else { Expect::Any });
        }
        // A valid request: its command, its fields (and whether each may be
        // left out), and the error an unmutated one gets, if any.
        let (cmd, fields, fault): (&str, Vec<Field>, Option<&'static str>) = match self.next(7) {
            0 => ("stats", vec![], None),
            1 => ("list", vec![], None),
            2 => ("metrics", vec![], None),
            3 => ("status", vec![("job", Json::Int(1), false)], Some("job")),
            4 => ("cancel", vec![("job", Json::Int(7), false)], Some("job")),
            5 => (
                "query",
                vec![("fingerprint", Json::str(&"0".repeat(32)), false)],
                Some("fingerprint"),
            ),
            _ => (
                "submit",
                vec![
                    ("spec", self.invalid_spec(), false),
                    ("priority", Json::Int(1), true),
                    ("timeout_ms", Json::Int(60_000), true),
                ],
                Some("spec"),
            ),
        };
        let mut members = vec![("cmd".to_string(), Json::str(cmd))];
        members.extend(fields.iter().map(|(k, v, _)| (k.to_string(), v.clone())));
        // Mutate one member: 0 removes it, 1 retypes it, 2 renames the
        // command, 3 leaves the request as it is.
        let at = self.next(members.len() as u64) as usize;
        let expect = match self.next(4) {
            0 => {
                members.remove(at);
                match at.checked_sub(1).map(|i| &fields[i]) {
                    None => Expect::Error("cmd"),
                    Some((_, _, true)) => fault.map_or(Expect::Any, Expect::Error),
                    Some((field, _, false)) => Expect::Error(field),
                }
            }
            1 => {
                let (field, expect) = match at.checked_sub(1) {
                    None => ("cmd", Expect::Error("cmd")),
                    Some(i) => (fields[i].0, Expect::Error(fields[i].0)),
                };
                members[at].1 = self.retyped(field);
                expect
            }
            2 => {
                members[0].1 = Json::str(&self.renamed());
                Expect::Error("cmd")
            }
            _ => fault.map_or(Expect::Any, Expect::Error),
        };
        (Json::Obj(members).render().into_bytes(), expect)
    }
}

/// One raw connection to the shared daemon.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open() -> Conn {
        let stream = TcpStream::connect(daemon().addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).unwrap();
    }

    /// The next reply line, parsed; fails on a closed connection.
    fn reply(&mut self) -> Result<Json, TestCaseError> {
        let mut line = Vec::new();
        let n = self.reader.read_until(b'\n', &mut line).unwrap();
        prop_assert!(n > 0 && line.ends_with(b"\n"), "connection closed");
        let text = String::from_utf8(line).unwrap();
        Json::parse(text.trim_end()).map_err(|e| TestCaseError::fail(format!("{text}: {e:?}")))
    }

    /// A final `stats` succeeds, and nothing else is left to read. The daemon
    /// answers a connection's lines in order on one thread, so a surplus
    /// reply would precede this one: either an earlier check or this read
    /// meets it, or it is already in flight when the short wait runs.
    fn finish(mut self) -> Result<(), TestCaseError> {
        self.send(b"{\"cmd\":\"stats\"}\n");
        let stats = self.reply()?;
        prop_assert_eq!(
            stats.get("event").and_then(Json::as_str),
            Some("stats"),
            "{}",
            stats.render()
        );
        self.stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut rest = Vec::new();
        match self.reader.read_until(b'\n', &mut rest) {
            Err(e) => prop_assert!(
                matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "{e}"
            ),
            Ok(_) => prop_assert!(false, "unexpected bytes after stats: {rest:?}"),
        }
        Ok(())
    }
}

/// Checks one reply against what its line must get.
fn check(line: &[u8], expect: &Expect, reply: &Json) -> Result<(), TestCaseError> {
    let shown = String::from_utf8_lossy(line);
    let event = reply.get("event").and_then(Json::as_str);
    prop_assert!(event.is_some(), "{shown} -> {}", reply.render());
    if event != Some("error") {
        prop_assert!(
            matches!(expect, Expect::Any),
            "{shown} must fail, got {}",
            reply.render()
        );
        return Ok(());
    }
    let field = reply.get("field").and_then(Json::as_str).unwrap_or("");
    let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
    prop_assert!(!message.is_empty(), "{shown} -> {}", reply.render());
    match expect {
        Expect::Nothing => prop_assert!(false, "{shown} is blank"),
        Expect::Any => prop_assert!(known_field(field), "{shown} -> {}", reply.render()),
        Expect::Error("spec") => prop_assert!(
            field == "spec" || field.starts_with("spec."),
            "{shown} -> {}",
            reply.render()
        ),
        Expect::Error(fault) => {
            prop_assert_eq!(field, *fault, "{} -> {}", shown, reply.render())
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_line_gets_one_structured_reply(
        words in prop::collection::vec(0u64..u64::MAX, 0..256),
        lines in 1usize..12,
    ) {
        let mut tape = Tape(words);
        let mut conn = Conn::open();
        for _ in 0..lines {
            let (line, expect) = tape.line();
            let mut framed = line.clone();
            framed.push(b'\n');
            conn.send(&framed);
            if !matches!(expect, Expect::Nothing) {
                let reply = conn.reply()?;
                check(&line, &expect, &reply)?;
            }
        }
        conn.finish()?;
    }
}

/// Lines split across pauses longer than the read poll are answered whole:
/// mid-token, inside a multi-byte UTF-8 character, between `\r` and `\n`,
/// and in a line whose invalid UTF-8 lies on either side of the split.
#[test]
fn lines_split_across_a_pause_are_answered_whole() {
    // Each line in pieces, and the start of its reply.
    let cases: [(&[&[u8]], &str); 4] = [
        (
            &[b"{\"cm", b"d\":\"sta", b"ts\"}\n"],
            r#"{"event":"stats","#,
        ),
        (
            &[b"{\"cmd\":\"list\",\"note\":\"\xc3", b"\xa9\"}\n"],
            r#"{"event":"list","#,
        ),
        (
            &[b"{\"cmd\":\"metrics\"}\r", b"\n"],
            r#"{"event":"metrics","#,
        ),
        (
            &[b"{\"cmd\":", b"\"st\xffats\"}\n"],
            r#"{"event":"error","field":"request","message":"invalid UTF-8 at byte 10"}"#,
        ),
    ];
    let mut conn = Conn::open();
    for (pieces, reply) in cases {
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(300));
            }
            conn.send(piece);
        }
        let got = conn.reply().unwrap().render();
        assert!(got.starts_with(reply), "{got}");
    }
    conn.finish().unwrap();
}
