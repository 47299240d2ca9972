//! `Experiment::from_json` fuzzed: the daemon parses every spec a client
//! sends with it, so it must never panic, and every rejection must name the
//! field at fault.
//!
//! * Arbitrary JSON values, and valid specs with random fields replaced by
//!   arbitrary values, never panic. Every error names a spec field, and
//!   reports "missing required field" exactly when that field is absent.
//! * A valid spec of each kind with one field deleted, retyped or set out of
//!   range is rejected with an error naming that field (or a field inside
//!   it), except that deleting an optional field is accepted.

use netline::Json;
use pimba_serviced::spec::{Experiment, SpecError};
use proptest::prelude::*;

/// What a spec field holds, which decides how it can be broken.
#[derive(Clone, Copy)]
enum Class {
    Str,
    Obj,
    StrList,
    NumList,
    IntList,
    /// A non-negative integer (`seed`).
    Natural,
    /// A positive integer.
    Positive,
    Num,
}

/// Every field path the spec surface knows, its class, and whether it may be
/// left out.
const FIELDS: [(&str, Class, bool); 16] = [
    ("kind", Class::Str, false),
    ("model", Class::Obj, false),
    ("model.family", Class::Str, false),
    ("model.scale", Class::Str, false),
    ("systems", Class::StrList, false),
    ("scenarios", Class::StrList, false),
    ("rates_rps", Class::NumList, false),
    ("replicas", Class::IntList, false),
    ("routers", Class::StrList, false),
    ("requests_per_cell", Class::Positive, true),
    ("seq_bucket", Class::Positive, true),
    ("seed", Class::Natural, true),
    ("policy", Class::Str, true),
    ("slo", Class::Obj, true),
    ("slo.ttft_ms", Class::Num, false),
    ("slo.tpot_ms", Class::Num, false),
];

/// One valid spec per kind, each carrying every field its kind reads.
fn valid_specs() -> Vec<Json> {
    let slo = r#""slo":{"ttft_ms":500.0,"tpot_ms":40.0}"#;
    let knobs = r#""requests_per_cell":10,"seq_bucket":64,"seed":7,"policy":"wfq""#;
    [
        format!(
            r#"{{"kind":"traffic_grid","model":{{"family":"mamba2","scale":"small"}},
                "systems":["gpu","pimba"],"scenarios":["chat"],"rates_rps":[8.0,16],
                {knobs},{slo}}}"#
        ),
        format!(
            r#"{{"kind":"what_if","model":{{"family":"gla","scale":"large"}},
                "systems":["pimba"],"scenarios":["reasoning"],"rates_rps":[4.5],
                {knobs},{slo}}}"#
        ),
        format!(
            r#"{{"kind":"fleet_grid","model":{{"family":"zamba2","scale":"small"}},
                "systems":["neupims"],"scenarios":["chat","summarization"],
                "rates_rps":[16.0],"replicas":[2,4],"routers":["jsq","po2"],
                {knobs},{slo}}}"#
        ),
        format!(
            r#"{{"kind":"slo_capacity","model":{{"family":"retnet","scale":"small"}},
                "systems":["gpu","gpu_pim"],"scenarios":["rag_long_context"],{slo}}}"#
        ),
    ]
    .iter()
    .map(|text| Json::parse(text).expect("valid spec text"))
    .collect()
}

/// The value at a dotted `path`; `"spec"` is the whole document.
fn lookup<'a>(spec: &'a Json, path: &str) -> Option<&'a Json> {
    if path == "spec" {
        return Some(spec);
    }
    path.split('.').try_fold(spec, |json, key| json.get(key))
}

/// The member list holding the last key of `path`, and that key.
fn parent_mut<'a>(spec: &'a mut Json, path: &'a str) -> (&'a mut Vec<(String, Json)>, &'a str) {
    let (outer, key) = match path.split_once('.') {
        Some((outer, key)) => (Some(outer), key),
        None => (None, path),
    };
    let mut json = spec;
    if let Some(outer) = outer {
        let Json::Obj(members) = json else {
            unreachable!()
        };
        json = &mut members.iter_mut().find(|(k, _)| k == outer).unwrap().1;
    }
    match json {
        Json::Obj(members) => (members, key),
        _ => unreachable!("valid specs nest objects only"),
    }
}

/// Checks one `from_json` outcome: every error names a known field, and says
/// "missing required field" exactly when that field is absent.
fn check_error(spec: &Json, result: &Result<Experiment, SpecError>) -> Result<(), TestCaseError> {
    let Err(err) = result else { return Ok(()) };
    prop_assert!(
        err.field == "spec" || FIELDS.iter().any(|(path, ..)| *path == err.field),
        "unknown field in {err}"
    );
    prop_assert!(!err.message.is_empty(), "empty message for {}", err.field);
    let missing = err.message == "missing required field";
    prop_assert_eq!(
        missing,
        lookup(spec, &err.field).is_none(),
        "{} for {}",
        err,
        spec.render()
    );
    Ok(())
}

/// Draws values off a tape of random words; an exhausted tape reads zeros.
struct Tape(Vec<u64>);

impl Tape {
    fn next(&mut self, below: u64) -> u64 {
        self.0.pop().unwrap_or(0) % below.max(1)
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.next(options.len() as u64) as usize]
    }

    /// An arbitrary JSON value at most `depth` levels deep, drawn mostly from
    /// the spec vocabulary so the parser gets past its first checks.
    fn json(&mut self, depth: u32) -> Json {
        let keys: Vec<&str> = FIELDS
            .iter()
            .flat_map(|(path, ..)| path.split('.'))
            .chain(["trace", "x", ""])
            .collect();
        const WORDS: [&str; 16] = [
            "traffic_grid",
            "fleet_grid",
            "slo_capacity",
            "what_if",
            "mamba2",
            "opt",
            "small",
            "large",
            "gpu",
            "pimba",
            "chat",
            "reasoning",
            "jsq",
            "wfq",
            "",
            "bogus\u{0}é",
        ];
        const NUMS: [f64; 10] = [
            0.0,
            -0.0,
            1.5,
            -3.0,
            8.0,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        const INTS: [i64; 8] = [0, 1, 2, 7, -1, 4096, i64::MAX, i64::MIN];
        let leaf_kinds = if depth == 0 { 6 } else { 8 };
        match self.next(leaf_kinds) {
            0 => Json::Null,
            1 => Json::Bool(self.next(2) == 1),
            2 => Json::Int(INTS[self.next(INTS.len() as u64) as usize]),
            3 => match self.next(2) {
                0 => Json::Num(NUMS[self.next(NUMS.len() as u64) as usize]),
                _ => Json::UInt(u64::MAX - self.next(3)),
            },
            4 | 5 => Json::str(self.pick(&WORDS)),
            6 => {
                let len = self.next(4);
                Json::Arr((0..len).map(|_| self.json(depth - 1)).collect())
            }
            _ => {
                let len = self.next(6);
                Json::Obj(
                    (0..len)
                        .map(|_| (self.pick(&keys).to_string(), self.json(depth - 1)))
                        .collect(),
                )
            }
        }
    }
}

/// A value of another JSON type than a field of `class` accepts.
fn retyped(class: Class, choice: usize) -> Json {
    let palette = [
        Json::Null,
        Json::Bool(true),
        Json::Int(3),
        Json::Num(2.5),
        Json::str("chat"),
        Json::Arr(vec![Json::str("pimba")]),
        Json::obj(vec![("family", Json::str("mamba2"))]),
    ];
    let accepts = |v: &Json| {
        matches!(
            (class, v),
            (Class::Str, Json::Str(_))
                | (Class::Obj, Json::Obj(_))
                | (
                    Class::StrList | Class::NumList | Class::IntList,
                    Json::Arr(_)
                )
                | (Class::Natural | Class::Positive, Json::Int(_))
                | (Class::Num, Json::Int(_) | Json::Num(_))
        )
    };
    let wrong: Vec<Json> = palette.into_iter().filter(|v| !accepts(v)).collect();
    wrong[choice % wrong.len()].clone()
}

/// A value of the right JSON type that is out of range for `class`, given
/// the field's current value; `None` for objects, whose range is their
/// members.
fn out_of_range(class: Class, current: &Json, choice: usize) -> Option<Json> {
    let list = |bad: Json| {
        let Json::Arr(items) = current else {
            unreachable!()
        };
        let mut items = items.clone();
        let at = choice % items.len();
        items[at] = bad;
        Json::Arr(items)
    };
    Some(match (class, choice % 3) {
        (Class::Obj, _) => return None,
        (Class::StrList | Class::NumList | Class::IntList, 0) => Json::Arr(Vec::new()),
        (Class::Str, _) => Json::str("bogus"),
        (Class::StrList, _) => list(Json::str("bogus")),
        (Class::NumList, 1) => list(Json::Num(-1.0)),
        (Class::NumList, _) => list(Json::Int(0)),
        (Class::IntList, 1) => list(Json::Int(0)),
        (Class::IntList, _) => list(Json::Num(2.5)),
        (Class::Natural, _) => Json::Int(-1),
        (Class::Positive, 0) => Json::Int(0),
        (Class::Positive, _) => Json::Int(-5),
        (Class::Num, 0) => Json::Num(0.0),
        (Class::Num, _) => Json::Num(-1.0),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_values_never_panic_and_errors_name_their_field(
        words in prop::collection::vec(0u64..u64::MAX, 0..96),
        which in 0usize..5,
        replaced in 1usize..4,
    ) {
        let mut tape = Tape(words);
        let spec = match valid_specs().into_iter().nth(which) {
            None => tape.json(4),
            Some(mut spec) => {
                for _ in 0..replaced {
                    let (path, ..) = FIELDS[tape.next(FIELDS.len() as u64) as usize];
                    if lookup(&spec, path).is_some() {
                        let value = tape.json(3);
                        let (members, key) = parent_mut(&mut spec, path);
                        members.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
                    }
                }
                spec
            }
        };
        let result = Experiment::from_json(&spec);
        check_error(&spec, &result)?;
    }

    #[test]
    fn one_broken_field_is_named_by_the_error(
        which in 0usize..4,
        field in 0usize..FIELDS.len(),
        mutation in 0usize..4,
        choice in 0usize..64,
    ) {
        let mut spec = valid_specs().swap_remove(which);
        let (path, class, optional) = FIELDS[field];
        let Some(current) = lookup(&spec, path).cloned() else {
            return Ok(());
        };
        let is_what_if = spec.get("kind").and_then(Json::as_str) == Some("what_if");
        let (members, key) = parent_mut(&mut spec, path);
        let slot = members.iter().position(|(k, _)| k == key).unwrap();
        match mutation {
            0 => {
                members.remove(slot);
            }
            1 => members[slot].1 = retyped(class, choice),
            2 => match out_of_range(class, &current, choice) {
                Some(bad) => members[slot].1 = bad,
                None => return Ok(()),
            },
            // A what_if takes exactly one value per axis.
            _ => match (&current, is_what_if) {
                (Json::Arr(items), true) => {
                    members[slot].1 = Json::Arr(vec![items[0].clone(), items[0].clone()]);
                }
                _ => return Ok(()),
            },
        }
        let result = Experiment::from_json(&spec);
        check_error(&spec, &result)?;
        match result {
            Ok(_) => prop_assert!(
                mutation == 0 && optional,
                "accepted {path} after mutation {mutation}: {}",
                spec.render()
            ),
            Err(err) => prop_assert!(
                err.field == path || err.field.starts_with(&format!("{path}.")),
                "breaking {path} (mutation {mutation}) blamed {err}"
            ),
        }
    }
}
