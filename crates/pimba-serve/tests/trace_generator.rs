//! Golden traces of the generator: the `trace_fingerprint` of every preset
//! scenario's trace at one (rate, requests, seed), recorded under the
//! current `TRACE_GENERATOR_VERSION`.
//!
//! Memoized grid cells name their trace by the generator's inputs and that
//! version, not by the trace's requests. A change to what
//! `Scenario::generate` produces (a reordered draw, a new distribution, libm
//! drift in `ln`) would otherwise answer new grids with cells simulated on
//! the old traces. When this test fails, bump `TRACE_GENERATOR_VERSION` and
//! re-record both constants below.

use pimba_serve::runner::trace_fingerprint;
use pimba_serve::traffic::{Scenario, TRACE_GENERATOR_VERSION};

/// The generator version the fingerprints below were recorded under.
const RECORDED_VERSION: u64 = 1;

/// `(scenario name, tenant, trace fingerprint words)` at 12 rps, 300
/// requests, seed 0x5EED.
const GOLDEN: [(&str, u32, (u64, u64)); 7] = [
    ("chat", 0, (0x9c4b82ca3d399017, 0x9ad4a646aff527c5)),
    ("summarization", 0, (0x85109c347eef7184, 0x752176dc4316fc97)),
    (
        "rag_long_context",
        0,
        (0x0401fe03ed2590ad, 0x26c6a4d1db2462d7),
    ),
    ("reasoning", 0, (0x61db4cf3743919cc, 0x0b52760498144877)),
    ("chat", 0, (0x7b080e92fe5fd782, 0x139eee49a6585df2)),
    ("summarization", 1, (0xdc8b6ee8c0313a7e, 0x492d92ad6cb8452e)),
    ("reasoning", 2, (0xfc5be212a78d0e55, 0xa7593bea16c52deb)),
];

#[test]
fn preset_traces_match_the_recorded_generator_version() {
    let presets = [
        Scenario::chat(),
        Scenario::summarization(),
        Scenario::rag_long_context(),
        Scenario::reasoning(),
    ];
    let got: Vec<(String, u32, (u64, u64))> = presets
        .into_iter()
        .chain(Scenario::tenant_mix())
        .map(|scenario| {
            let fingerprint = trace_fingerprint(&scenario.generate(12.0, 300, 0x5EED));
            (scenario.name, scenario.tenant, fingerprint.words())
        })
        .collect();
    for ((name, tenant, words), want) in got.iter().zip(&GOLDEN) {
        assert_eq!(
            (name.as_str(), *tenant, *words),
            *want,
            "Scenario::generate changed its output: bump TRACE_GENERATOR_VERSION \
             and re-record this test's constants from\n{got:x?}"
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
    assert_eq!(
        TRACE_GENERATOR_VERSION, RECORDED_VERSION,
        "the generator version moved: re-record this test's constants"
    );
}
