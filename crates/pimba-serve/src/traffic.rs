//! Trace-driven traffic: seeded synthetic arrival processes and workload
//! scenarios.
//!
//! A [`Trace`] is the input of one simulation — a time-sorted list of
//! `(arrival, prompt_len, output_len)` tuples. Traces are either supplied
//! directly (e.g. replayed from production logs) or generated from a
//! [`Scenario`]: an arrival-process shape ([`ArrivalKind`]) combined with
//! prompt/output length distributions. Generation is fully deterministic: every
//! sampling concern (inter-arrival times, on/off window durations, request
//! lengths) draws from its own [`Pcg32`] stream derived from one seed, so
//! regenerating a trace — on any thread, in any order, next to any other trace —
//! reproduces it bit for bit.

use netline::{Json, JsonLines, LineError};
use rand::rngs::Pcg32;
use rand::Rng;

/// One request of a traffic trace.
///
/// `tenant` and `priority` default to 0 — a single-tenant trace (and its JSONL
/// serialization) is unchanged from the pre-tenant schema; multi-tenant
/// scenarios tag requests so schedulers (weighted fair queueing), routers and
/// the per-tenant metrics can tell traffic classes apart.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceRequest {
    /// Wall-clock arrival time in nanoseconds from the trace start.
    pub arrival_ns: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of output tokens the request decodes (always at least 1).
    pub output_len: usize,
    /// Tenant (traffic-class) tag; 0 is the default single-tenant class.
    pub tenant: u32,
    /// Scheduling priority of the tenant class (weighted-fair-queueing weight
    /// = `max(priority, 1)`); 0 means unprioritized.
    pub priority: u8,
}

/// A time-sorted sequence of requests driving one simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The requests, ascending in `arrival_ns`.
    pub requests: Vec<TraceRequest>,
}

impl Trace {
    /// Builds a trace from raw tuples, sorting by arrival time (stable, so
    /// equal-time requests keep their input order).
    pub fn from_requests(mut requests: Vec<TraceRequest>) -> Self {
        requests.sort_by(|a, b| a.arrival_ns.total_cmp(&b.arrival_ns));
        Self { requests }
    }

    /// A closed-loop trace: `batch` identical requests all arriving at t = 0 —
    /// the zero-queueing configuration of the analytic-consistency oracle.
    pub fn closed_loop(batch: usize, prompt_len: usize, output_len: usize) -> Self {
        Self {
            requests: vec![
                TraceRequest {
                    arrival_ns: 0.0,
                    prompt_len,
                    output_len: output_len.max(1),
                    ..TraceRequest::default()
                };
                batch
            ],
        }
    }

    /// Merges several traces into one time-sorted trace (stable: equal-time
    /// requests keep input-trace order, earlier traces first) — the
    /// multi-tenant composition primitive: tag each component trace's
    /// requests with a tenant (see [`Scenario::with_tenant`]) and merge.
    pub(crate) fn merge(traces: &[Trace]) -> Self {
        Self::from_requests(
            traces
                .iter()
                .flat_map(|t| t.requests.iter().copied())
                .collect(),
        )
    }

    /// The distinct tenant tags present, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        let mut tenants: Vec<u32> = self.requests.iter().map(|r| r.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        tenants
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// `(max final sequence, max prompt)` over the requests, each at least 1
    /// — the latency-table sizing hints of an engine run.
    pub fn bounds(&self) -> (usize, usize) {
        self.requests.iter().fold((1, 1), |(seq, prompt), r| {
            (
                seq.max(r.prompt_len + r.output_len),
                prompt.max(r.prompt_len),
            )
        })
    }

    /// Mean offered load in requests/second over the trace span (0 for traces
    /// shorter than two requests).
    pub fn offered_rate_rps(&self) -> f64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) if self.len() > 1 && last.arrival_ns > first.arrival_ns => {
                (self.len() - 1) as f64 / ((last.arrival_ns - first.arrival_ns) * 1e-9)
            }
            _ => 0.0,
        }
    }

    /// Serializes the trace as JSON Lines: one
    /// `{"arrival_ns":…,"prompt_len":…,"output_len":…}` object per request,
    /// in trace order, rendered by [`Json`]. Arrival times use Rust's shortest
    /// round-trip `f64` formatting, so [`Trace::from_jsonl`] reconstructs them
    /// bit for bit — the property that lets a fleet run and a single-replica
    /// run replay the *identical* trace from one file.
    ///
    /// `tenant`/`priority` fields are appended only when non-zero, so a
    /// single-tenant trace serializes to the pre-tenant schema (and
    /// pre-tenant dumps round-trip unchanged).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 64);
        for r in &self.requests {
            let mut fields = vec![
                ("arrival_ns", Json::Num(r.arrival_ns)),
                ("prompt_len", Json::uint(r.prompt_len as u64)),
                ("output_len", Json::uint(r.output_len as u64)),
            ];
            if r.tenant != 0 {
                fields.push(("tenant", Json::uint(r.tenant.into())));
            }
            if r.priority != 0 {
                fields.push(("priority", Json::uint(r.priority.into())));
            }
            Json::obj(fields).render_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSON Lines trace produced by [`Trace::to_jsonl`] (or by any
    /// tool emitting one object per line with the three required fields in
    /// any order; blank lines are skipped). The `tenant` and `priority`
    /// fields are optional and default to 0, so pre-tenant trace files load
    /// unchanged. Requests are re-sorted by arrival time — a no-op for
    /// well-formed dumps — so the result is always a valid trace.
    pub fn from_jsonl(text: &str) -> Result<Self, LineError> {
        let mut requests = Vec::new();
        for line in JsonLines::new("trace", text) {
            let line = line?;
            line.check_keys(&[
                "arrival_ns",
                "prompt_len",
                "output_len",
                "tenant",
                "priority",
            ])?;
            requests.push(TraceRequest {
                arrival_ns: line.req("arrival_ns")?,
                prompt_len: line.req("prompt_len")?,
                output_len: line.req("output_len")?,
                tenant: line.opt("tenant")?.unwrap_or(0),
                priority: line.opt("priority")?.unwrap_or(0),
            });
        }
        Ok(Self::from_requests(requests))
    }
}

/// The shape of an arrival process (the rate is supplied at generation time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: exponential inter-arrival times.
    Poisson,
    /// Bursty on/off arrivals: exponentially-distributed "on" windows of Poisson
    /// arrivals separated by silent "off" windows. The on-rate is scaled up so
    /// the long-run average still matches the requested rate.
    OnOff {
        /// Mean duration of an "on" window, in seconds.
        mean_on_s: f64,
        /// Mean duration of an "off" window, in seconds.
        mean_off_s: f64,
    },
}

/// A canned traffic scenario: arrival shape plus request-length distributions,
/// optionally tagged with the tenant (traffic class) it models.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (used in records and bench output).
    pub name: String,
    /// Arrival-process shape.
    pub arrival: ArrivalKind,
    /// Uniform prompt-length range `[lo, hi)`, in tokens.
    pub prompt_range: (usize, usize),
    /// Uniform output-length range `[lo, hi)`, in tokens.
    pub output_range: (usize, usize),
    /// Tenant tag stamped on every generated request (0 = the default
    /// single-tenant class; tagging never consumes entropy, so a tagged
    /// scenario generates the identical arrival/length sequence).
    pub tenant: u32,
    /// Priority stamped on every generated request (the WFQ weight is
    /// `max(priority, 1)`).
    pub priority: u8,
}

impl Scenario {
    /// Interactive chat: short prompts, short answers, memoryless arrivals.
    pub fn chat() -> Self {
        Self {
            name: "chat".into(),
            arrival: ArrivalKind::Poisson,
            prompt_range: (64, 512),
            output_range: (64, 256),
            tenant: 0,
            priority: 0,
        }
    }

    /// Summarization: long prompts, short outputs (prefill-heavy).
    pub fn summarization() -> Self {
        Self {
            name: "summarization".into(),
            arrival: ArrivalKind::Poisson,
            prompt_range: (1536, 3584),
            output_range: (64, 192),
            tenant: 0,
            priority: 0,
        }
    }

    /// Long-context RAG: very long prompts arriving in bursts (a retrieval tier
    /// fans out and converges), short grounded answers.
    pub fn rag_long_context() -> Self {
        Self {
            name: "rag_long_context".into(),
            arrival: ArrivalKind::OnOff {
                mean_on_s: 2.0,
                mean_off_s: 2.0,
            },
            prompt_range: (2048, 6144),
            output_range: (128, 384),
            tenant: 0,
            priority: 0,
        }
    }

    /// Reasoning-heavy decode: modest prompts, very long chains of thought
    /// (decode-dominated, the regime where state-update offload matters most).
    pub fn reasoning() -> Self {
        Self {
            name: "reasoning".into(),
            arrival: ArrivalKind::Poisson,
            prompt_range: (128, 512),
            output_range: (512, 2048),
            tenant: 0,
            priority: 0,
        }
    }

    /// Tags the scenario with a tenant and priority class (see
    /// [`TraceRequest::tenant`]); generation itself is unaffected.
    pub fn with_tenant(mut self, tenant: u32, priority: u8) -> Self {
        self.tenant = tenant;
        self.priority = priority;
        self
    }

    /// The canned multi-tenant mix: an interactive chat tenant (priority 4),
    /// a summarization tenant (priority 2) and a batch reasoning tenant
    /// (priority 1) — the priority classes the weighted-fair-queueing policy
    /// and the per-tenant SLO metrics are exercised against.
    pub fn tenant_mix() -> Vec<Scenario> {
        vec![
            Self::chat().with_tenant(0, 4),
            Self::summarization().with_tenant(1, 2),
            Self::reasoning().with_tenant(2, 1),
        ]
    }

    /// Mean request length (prompt + output) of the scenario, in tokens — the
    /// sequence-length anchor for capacity planning.
    pub fn mean_total_tokens(&self) -> f64 {
        let mean = |(lo, hi): (usize, usize)| (lo + hi) as f64 / 2.0;
        mean(self.prompt_range) + mean(self.output_range)
    }

    /// Generates `n_requests` arrivals at a mean rate of `rate_rps`
    /// requests/second. Deterministic in `(self, rate_rps, n_requests, seed)`;
    /// arrival times, window durations and lengths draw from independent
    /// [`Pcg32`] streams of `seed`. Any change to its output must bump
    /// [`TRACE_GENERATOR_VERSION`].
    pub fn generate(&self, rate_rps: f64, n_requests: usize, seed: u64) -> Trace {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let mut arrivals_rng = Pcg32::new_stream(seed, 0);
        let mut lengths_rng = Pcg32::new_stream(seed, 1);
        let mut windows_rng = Pcg32::new_stream(seed, 2);

        // Arrivals are Poisson in *active* time; the on/off shape maps active
        // time onto wall time by inserting silent gaps between "on" windows.
        let (active_rate, mean_on_s, mean_off_s) = match self.arrival {
            ArrivalKind::Poisson => (rate_rps, f64::INFINITY, 0.0),
            ArrivalKind::OnOff {
                mean_on_s,
                mean_off_s,
            } => {
                assert!(
                    mean_on_s > 0.0 && mean_off_s >= 0.0,
                    "on/off windows must have positive on-duration"
                );
                (
                    rate_rps * (mean_on_s + mean_off_s) / mean_on_s,
                    mean_on_s,
                    mean_off_s,
                )
            }
        };

        let mut requests = Vec::with_capacity(n_requests);
        let mut active_s = 0.0; // cumulative "on" time consumed
        let mut wall_gap_s = 0.0; // cumulative "off" time inserted so far
        let mut window_end_s = exp_with_mean(&mut windows_rng, mean_on_s);
        for _ in 0..n_requests {
            active_s += exp_with_mean(&mut arrivals_rng, 1.0 / active_rate);
            while active_s >= window_end_s {
                wall_gap_s += exp_with_mean(&mut windows_rng, mean_off_s);
                window_end_s += exp_with_mean(&mut windows_rng, mean_on_s);
            }
            let prompt_len = sample_range(&mut lengths_rng, self.prompt_range).max(1);
            let output_len = sample_range(&mut lengths_rng, self.output_range).max(1);
            requests.push(TraceRequest {
                arrival_ns: (active_s + wall_gap_s) * 1e9,
                prompt_len,
                output_len,
                tenant: self.tenant,
                priority: self.priority,
            });
        }
        Trace { requests }
    }
}

/// The version of [`Scenario::generate`]'s output. Memoized grid cells name
/// their trace by the generator's inputs plus this version, not by the
/// trace's requests, so a change to the generated requests must bump it (the
/// golden test `tests/trace_generator.rs` fails until it does); stores keyed
/// under the old version then miss instead of answering with stale cells.
pub const TRACE_GENERATOR_VERSION: u64 = 1;

/// Generates one merged multi-tenant trace: every scenario of `mix`
/// contributes an equal share of the total arrival rate and of the request
/// count (the first scenarios absorb any remainder), drawn from its own PCG
/// substream of `seed`, and the component traces are time-merged. Requests
/// keep their scenario's tenant/priority tags, so the result drives the
/// weighted-fair-queueing policy and the per-tenant metrics directly.
/// Deterministic in `(mix, rate_rps, n_requests, seed)`.
pub fn generate_tenant_mix(mix: &[Scenario], rate_rps: f64, n_requests: usize, seed: u64) -> Trace {
    assert!(!mix.is_empty(), "a tenant mix needs at least one scenario");
    let k = mix.len();
    let per_tenant_rate = rate_rps / k as f64;
    let traces: Vec<Trace> = mix
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let n = n_requests / k + usize::from(i < n_requests % k);
            let tenant_seed = Pcg32::new_stream(seed, i as u64).next_u64();
            scenario.generate(per_tenant_rate, n, tenant_seed)
        })
        .collect();
    Trace::merge(&traces)
}

/// One exponential draw with the given mean. The degenerate means of the pure
/// Poisson shape are handled exactly: an infinite mean (the never-ending "on"
/// window) returns `INFINITY`, a zero mean (no "off" gap) returns 0 — both
/// without consuming entropy, so the Poisson and on/off variants of a scenario
/// draw identical arrival streams.
fn exp_with_mean(rng: &mut Pcg32, mean: f64) -> f64 {
    if mean == 0.0 {
        return 0.0;
    }
    if mean.is_infinite() {
        return f64::INFINITY;
    }
    let u: f64 = rng.gen_range(0.0f64..1.0);
    -(1.0 - u).ln() * mean
}

fn sample_range(rng: &mut Pcg32, (lo, hi): (usize, usize)) -> usize {
    if hi <= lo + 1 {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All canned presets, in presentation order.
    fn presets() -> Vec<Scenario> {
        vec![
            Scenario::chat(),
            Scenario::summarization(),
            Scenario::rag_long_context(),
            Scenario::reasoning(),
        ]
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let s = Scenario::chat();
        let a = s.generate(10.0, 200, 7);
        let b = s.generate(10.0, 200, 7);
        assert_eq!(a, b);
        let c = s.generate(10.0, 200, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_sorted_and_lengths_in_range() {
        for scenario in presets() {
            let trace = scenario.generate(20.0, 300, 11);
            assert_eq!(trace.len(), 300);
            let mut prev = 0.0;
            for r in &trace.requests {
                assert!(r.arrival_ns >= prev, "{}: arrivals unsorted", scenario.name);
                prev = r.arrival_ns;
                assert!((scenario.prompt_range.0..scenario.prompt_range.1).contains(&r.prompt_len));
                assert!((scenario.output_range.0..scenario.output_range.1).contains(&r.output_len));
            }
        }
    }

    #[test]
    fn poisson_rate_is_roughly_honored() {
        let trace = Scenario::chat().generate(25.0, 4000, 3);
        let rate = trace.offered_rate_rps();
        assert!((20.0..30.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn onoff_matches_mean_rate_but_is_burstier() {
        let smooth = Scenario::chat().generate(25.0, 4000, 5);
        let bursty = Scenario {
            arrival: ArrivalKind::OnOff {
                mean_on_s: 1.0,
                mean_off_s: 3.0,
            },
            ..Scenario::chat()
        }
        .generate(25.0, 4000, 5);
        let rate = bursty.offered_rate_rps();
        assert!((18.0..33.0).contains(&rate), "mean rate {rate}");
        // Burstiness: the coefficient of variation of inter-arrival gaps exceeds
        // the Poisson baseline (~1).
        let cv = |t: &Trace| {
            let gaps: Vec<f64> = t
                .requests
                .windows(2)
                .map(|w| w[1].arrival_ns - w[0].arrival_ns)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(
            cv(&bursty) > 1.3 * cv(&smooth),
            "on/off CV {} vs poisson CV {}",
            cv(&bursty),
            cv(&smooth)
        );
    }

    #[test]
    fn closed_loop_trace_shape() {
        let t = Trace::closed_loop(8, 256, 32);
        assert_eq!(t.len(), 8);
        assert!(t
            .requests
            .iter()
            .all(|r| r.arrival_ns == 0.0 && r.prompt_len == 256 && r.output_len == 32));
        assert_eq!(t.offered_rate_rps(), 0.0);
    }

    /// The JSONL round trip must be exact — same requests, same bits — for
    /// every generator family, so fleet runs and single-replica runs can
    /// replay one shared trace file.
    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        for (i, scenario) in presets().into_iter().enumerate() {
            let trace = scenario.generate(17.3, 250, 1000 + i as u64);
            let restored = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
            assert_eq!(restored, trace, "{} round trip", scenario.name);
        }
        // Awkward but exactly-representable times survive too.
        let trace = Trace::from_requests(vec![
            TraceRequest {
                arrival_ns: 0.1 + 0.2, // 0.30000000000000004
                prompt_len: 1,
                output_len: 1,
                ..TraceRequest::default()
            },
            TraceRequest {
                arrival_ns: 1e17 + 1.0,
                prompt_len: 9999,
                output_len: 1,
                ..TraceRequest::default()
            },
        ]);
        assert_eq!(Trace::from_jsonl(&trace.to_jsonl()).unwrap(), trace);
        assert_eq!(Trace::from_jsonl("").unwrap(), Trace::default());
    }

    /// Tenant/priority tags round-trip exactly, and a tenant-free trace
    /// serializes byte-identically to the pre-tenant schema (no `tenant` or
    /// `priority` keys appear).
    #[test]
    fn jsonl_tenant_fields_round_trip_and_default_away() {
        let tagged = Scenario::chat()
            .with_tenant(3, 7)
            .generate(12.0, 40, 11)
            .to_jsonl();
        assert!(tagged.contains("\"tenant\":3"));
        assert!(tagged.contains("\"priority\":7"));
        let restored = Trace::from_jsonl(&tagged).unwrap();
        assert!(restored.requests.iter().all(|r| r.tenant == 3));
        assert!(restored.requests.iter().all(|r| r.priority == 7));

        let plain = Scenario::chat().generate(12.0, 40, 11);
        let dump = plain.to_jsonl();
        assert!(!dump.contains("tenant") && !dump.contains("priority"));
        assert_eq!(Trace::from_jsonl(&dump).unwrap(), plain);
    }

    #[test]
    fn tagging_never_changes_the_generated_arrivals_or_lengths() {
        let plain = Scenario::reasoning().generate(20.0, 100, 5);
        let tagged = Scenario::reasoning()
            .with_tenant(9, 2)
            .generate(20.0, 100, 5);
        assert_eq!(plain.len(), tagged.len());
        for (a, b) in plain.requests.iter().zip(&tagged.requests) {
            assert_eq!(a.arrival_ns, b.arrival_ns);
            assert_eq!(a.prompt_len, b.prompt_len);
            assert_eq!(a.output_len, b.output_len);
            assert_eq!((b.tenant, b.priority), (9, 2));
        }
    }

    #[test]
    fn tenant_mix_merges_sorted_with_all_tenants_present() {
        let mix = Scenario::tenant_mix();
        let trace = generate_tenant_mix(&mix, 30.0, 91, 17);
        assert_eq!(trace.len(), 91);
        assert!(trace
            .requests
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert_eq!(trace.tenants(), vec![0, 1, 2]);
        // Equal split with the remainder on the first tenant.
        let count = |t: u32| trace.requests.iter().filter(|r| r.tenant == t).count();
        assert_eq!((count(0), count(1), count(2)), (31, 30, 30));
        // Deterministic.
        assert_eq!(generate_tenant_mix(&mix, 30.0, 91, 17), trace);
    }

    #[test]
    fn jsonl_round_trip_through_a_file() {
        let trace = Scenario::chat().generate(10.0, 50, 42);
        let path = std::env::temp_dir().join("pimba_trace_roundtrip_test.jsonl");
        std::fs::write(&path, trace.to_jsonl()).unwrap();
        let restored = Trace::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored, trace);
    }

    #[test]
    fn jsonl_parser_tolerates_field_order_and_reports_errors() {
        let ok = Trace::from_jsonl(
            "{\"output_len\": 3, \"arrival_ns\": 5.5, \"prompt_len\": 7}\n\n{\"arrival_ns\":1,\"prompt_len\":2,\"output_len\":4}\n",
        )
        .unwrap();
        assert_eq!(ok.len(), 2);
        // Re-sorted by arrival.
        assert_eq!(ok.requests[0].arrival_ns, 1.0);
        assert_eq!(ok.requests[1].prompt_len, 7);

        let err = Trace::from_jsonl("{\"arrival_ns\":1,\"prompt_len\":2}").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("output_len"), "{}", err.message);
        let err = Trace::from_jsonl("not json").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        assert!(
            Trace::from_jsonl("{\"arrival_ns\":inf,\"prompt_len\":1,\"output_len\":1}").is_err()
        );
    }

    #[test]
    fn from_requests_sorts() {
        let t = Trace::from_requests(vec![
            TraceRequest {
                arrival_ns: 5.0,
                prompt_len: 1,
                output_len: 1,
                ..TraceRequest::default()
            },
            TraceRequest {
                arrival_ns: 2.0,
                prompt_len: 2,
                output_len: 1,
                ..TraceRequest::default()
            },
        ]);
        assert_eq!(t.requests[0].arrival_ns, 2.0);
        assert_eq!(t.requests[1].arrival_ns, 5.0);
    }
}
