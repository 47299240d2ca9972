//! Deterministic fault injection for fleet co-simulations: the [`FaultPlan`]
//! schedule (replica crashes/restarts, transient slowdowns, handoff-link
//! partitions) plus the recovery knobs layered on top — failure-detection
//! latency, the [`RecoveryPolicy`] choosing between live migration and
//! retry-from-scratch, and the [`RetryPolicy`] bounding re-submission
//! attempts with exponential backoff and deterministic jitter.
//!
//! A plan is pure data: the faulted driver in
//! [`crate::cluster::FleetSim::run_faulted`] folds it into the co-simulation
//! loop, and every byte of the result is a function of
//! `(system, model, trace, config, plan)`. An [empty](FaultPlan::is_empty)
//! plan is not merely equivalent to the fault-free fleet — it schedules no
//! driver events, so the output is byte-identical by construction (asserted
//! by the fault-determinism suite and on every `fleet_fault` bench run).
//!
//! Plans serialize as JSON Lines — one header object carrying the recovery
//! knobs, then one object per fault event — through [`FaultPlan::to_jsonl`] /
//! [`FaultPlan::from_jsonl`], mirroring the trace dump format of
//! `pimba_serve::traffic` and read and written by the same `netline::Json`
//! codec. Malformed dumps produce structured [`LineError`]s naming the
//! offending line and field; structurally
//! valid but semantically impossible plans (replica out of range, negative
//! durations, crash events against a disaggregated fleet) are rejected by
//! [`FaultPlan::validate`] with a [`FaultError`] naming the field.

use crate::router::streams;
use netline::{Json, JsonLine, JsonLines, LineError};
use pimba_system::transfer::StateTransferModel;
use rand::rngs::Pcg32;
use rand::Rng;
use std::fmt;

/// What the recovery stack does with requests lost to a replica crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Nothing: lost requests stay lost (the ablation baseline).
    None,
    /// Every lost request re-enters through the [`RetryPolicy`], restarting
    /// from scratch on a survivor.
    RetryOnly,
    /// Requests with decoded tokens live-migrate: their
    /// `MemoryModel::dynamic_bytes` ship over the plan's migration link and
    /// decoding resumes (`inject_prefilled`) on a survivor at full context.
    /// Requests without progress fall back to the retry path.
    Migrate,
}

impl RecoveryPolicy {
    /// Display / serialization name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::None => "none",
            RecoveryPolicy::RetryOnly => "retry-only",
            RecoveryPolicy::Migrate => "migrate",
        }
    }

    fn parse(value: &str) -> Option<Self> {
        match value {
            "none" => Some(RecoveryPolicy::None),
            "retry-only" => Some(RecoveryPolicy::RetryOnly),
            "migrate" => Some(RecoveryPolicy::Migrate),
            _ => None,
        }
    }
}

/// Bounded re-submission of lost or timed-out requests: capped exponential
/// backoff with deterministic jitter drawn from
/// `Pcg32::keyed_stream(plan.seed, RETRY_JITTER, (id << 8) | attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-submissions allowed per request before it is abandoned.
    pub max_attempts: u32,
    /// Backoff before attempt 1, doubling per attempt.
    pub base_backoff_ns: f64,
    /// Backoff ceiling (pre-jitter).
    pub max_backoff_ns: f64,
    /// Jitter span: each backoff adds `uniform[0, jitter_ns)`.
    pub jitter_ns: f64,
    /// Queue-wait budget per submission: a request still waiting for
    /// admission this long after injection is cancelled and retried. `0`
    /// disables timeouts.
    pub timeout_ns: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ns: 1.0e6,
            max_backoff_ns: 50.0e6,
            jitter_ns: 1.0e6,
            timeout_ns: 0.0,
        }
    }
}

impl RetryPolicy {
    /// The delay before re-submission `attempt` (1-based) of request `id`:
    /// `min(max_backoff, base * 2^(attempt-1)) + uniform[0, jitter)`, the
    /// jitter a pure function of `(seed, id, attempt)`.
    pub fn backoff_ns(&self, seed: u64, id: usize, attempt: u32) -> f64 {
        assert!(attempt >= 1, "backoff is for re-submissions (attempt >= 1)");
        let exp = (attempt - 1).min(52);
        let capped = (self.base_backoff_ns * (1u64 << exp) as f64).min(self.max_backoff_ns);
        let jitter = if self.jitter_ns > 0.0 {
            let stream = ((id as u64) << 8) | u64::from(attempt & 0xFF);
            let mut rng = Pcg32::keyed_stream(seed, streams::RETRY_JITTER, stream);
            rng.gen_range(0.0f64..1.0) * self.jitter_ns
        } else {
            0.0
        };
        capped + jitter
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica dies: in-flight work is lost, queued and running requests
    /// drop, and the front door keeps routing to it (black-holing arrivals)
    /// until the failure detector fires. Colocated fleets only.
    Crash {
        /// Fleet index of the replica to kill.
        replica: usize,
    },
    /// The replica comes back empty (fresh session, fresh scheduler state).
    /// A restart of a live replica is a no-op. Colocated fleets only.
    Restart {
        /// Fleet index of the replica to revive.
        replica: usize,
    },
    /// Transient degradation: every compute latency the replica's engine
    /// would charge is multiplied by `factor` for `duration_ns`. Overlapping
    /// slowdowns on one replica do not stack — the latest wins.
    Slowdown {
        /// Fleet index of the replica to degrade.
        replica: usize,
        /// Compute-latency multiplier (> 1 slows, < 1 speeds up).
        factor: f64,
        /// How long the degradation lasts.
        duration_ns: f64,
    },
    /// The prefill→decode handoff link partitions for `duration_ns`: state
    /// handoffs departing during the outage queue at the link and transfer
    /// once it heals. Disaggregated fleets only.
    LinkDown {
        /// How long the partition lasts.
        duration_ns: f64,
    },
}

/// One fault at one simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes (simulated nanoseconds).
    pub time_ns: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seedable fault schedule plus the recovery stack's knobs.
/// Build one with the chainable helpers
/// ([`crash`](Self::crash) / [`restart`](Self::restart) /
/// [`slowdown`](Self::slowdown) / [`link_down`](Self::link_down)) or load one
/// from JSONL.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults (any order; the driver sorts by time).
    pub events: Vec<FaultEvent>,
    /// Failure-detector lag: how long after a crash the fleet notices. Until
    /// then the router sees the victim's last load snapshot and keeps
    /// feeding it (those requests black-hole into the retry path).
    pub detection_latency_ns: f64,
    /// What happens to requests lost in a crash.
    pub recovery: RecoveryPolicy,
    /// Re-submission bounds, backoff and queue-wait timeout.
    pub retry: RetryPolicy,
    /// The link live-migrated state ships over.
    pub migration_link: StateTransferModel,
    /// Seed of the retry-jitter substreams.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            events: Vec::new(),
            detection_latency_ns: 1.0e6,
            recovery: RecoveryPolicy::Migrate,
            retry: RetryPolicy::default(),
            migration_link: StateTransferModel::nvlink(),
            seed: 0xFA17,
        }
    }
}

impl FaultPlan {
    /// `true` when the plan can have no effect on the simulation — no
    /// scheduled faults and no queue-wait timeout. Such a plan schedules no
    /// driver events, so `run_faulted` executes exactly the fault-free event
    /// sequence — byte-identical to `run` by construction.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.retry.timeout_ns == 0.0
    }

    fn push(mut self, time_ns: f64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { time_ns, kind });
        self
    }

    /// Schedules a crash of `replica` at `time_ns` (chainable).
    pub fn crash(self, time_ns: f64, replica: usize) -> Self {
        self.push(time_ns, FaultKind::Crash { replica })
    }

    /// Schedules a restart of `replica` at `time_ns` (chainable).
    pub fn restart(self, time_ns: f64, replica: usize) -> Self {
        self.push(time_ns, FaultKind::Restart { replica })
    }

    /// Schedules a transient slowdown of `replica` (chainable).
    pub fn slowdown(self, time_ns: f64, replica: usize, factor: f64, duration_ns: f64) -> Self {
        self.push(
            time_ns,
            FaultKind::Slowdown {
                replica,
                factor,
                duration_ns,
            },
        )
    }

    /// Schedules a handoff-link partition (chainable; disaggregated fleets).
    pub fn link_down(self, time_ns: f64, duration_ns: f64) -> Self {
        self.push(time_ns, FaultKind::LinkDown { duration_ns })
    }

    /// A replica-kill storm: `kills` crashes starting at `first_ns`, spaced
    /// `spacing_ns` apart, cycling round-robin over `replicas` replicas, each
    /// victim restarting `downtime_ns` after its crash — the standard
    /// churn workload of the `fleet_fault` bench and the CI smoke test.
    pub fn kill_storm(
        replicas: usize,
        kills: usize,
        first_ns: f64,
        spacing_ns: f64,
        downtime_ns: f64,
    ) -> Self {
        assert!(replicas > 1, "a kill storm needs a survivor");
        let mut plan = Self::default();
        for k in 0..kills {
            let t = first_ns + k as f64 * spacing_ns;
            let victim = k % replicas;
            plan = plan.crash(t, victim).restart(t + downtime_ns, victim);
        }
        plan
    }

    /// Checks the plan against a fleet topology. `replicas` is the total
    /// replica count; `disaggregated` selects which fault kinds are legal
    /// (crash/restart are colocated-only — migrating a split prefill/decode
    /// lifecycle is a roadmap item — and link partitions need a link).
    pub fn validate(&self, replicas: usize, disaggregated: bool) -> Result<(), FaultError> {
        let field_err = |field: &str, message: String| FaultError {
            field: field.to_string(),
            message,
        };
        let finite = |field: &str, value: f64| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(field_err(
                    field,
                    format!("must be finite and >= 0, got {value}"),
                ))
            }
        };
        finite("detection_latency_ns", self.detection_latency_ns)?;
        finite("retry.base_backoff_ns", self.retry.base_backoff_ns)?;
        finite("retry.max_backoff_ns", self.retry.max_backoff_ns)?;
        finite("retry.jitter_ns", self.retry.jitter_ns)?;
        finite("retry.timeout_ns", self.retry.timeout_ns)?;
        if disaggregated && self.retry.timeout_ns > 0.0 {
            return Err(field_err(
                "retry.timeout_ns",
                "queue-wait timeouts are colocated-only".to_string(),
            ));
        }
        for (i, event) in self.events.iter().enumerate() {
            finite(&format!("events[{i}].time_ns"), event.time_ns)?;
            let replica_in_range = |replica: usize| {
                if replica < replicas {
                    Ok(())
                } else {
                    Err(field_err(
                        &format!("events[{i}].replica"),
                        format!("replica {replica} out of range (fleet has {replicas})"),
                    ))
                }
            };
            match event.kind {
                FaultKind::Crash { replica } | FaultKind::Restart { replica } => {
                    if disaggregated {
                        return Err(field_err(
                            &format!("events[{i}].kind"),
                            "crash/restart faults are colocated-only (disaggregated \
                             crash recovery is a roadmap item)"
                                .to_string(),
                        ));
                    }
                    replica_in_range(replica)?;
                }
                FaultKind::Slowdown {
                    replica,
                    factor,
                    duration_ns,
                } => {
                    replica_in_range(replica)?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(field_err(
                            &format!("events[{i}].factor"),
                            format!("must be finite and > 0, got {factor}"),
                        ));
                    }
                    if !(duration_ns.is_finite() && duration_ns > 0.0) {
                        return Err(field_err(
                            &format!("events[{i}].duration_ns"),
                            format!("must be finite and > 0, got {duration_ns}"),
                        ));
                    }
                }
                FaultKind::LinkDown { duration_ns } => {
                    if !disaggregated {
                        return Err(field_err(
                            &format!("events[{i}].kind"),
                            "link_down needs a disaggregated fleet (colocated fleets \
                             have no handoff link)"
                                .to_string(),
                        ));
                    }
                    if !(duration_ns.is_finite() && duration_ns > 0.0) {
                        return Err(field_err(
                            &format!("events[{i}].duration_ns"),
                            format!("must be finite and > 0, got {duration_ns}"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the plan as JSON Lines: one header object with the
    /// recovery knobs, then one object per event in plan order, rendered by
    /// [`Json`]. `f64` fields use Rust's shortest round-trip formatting, so
    /// [`from_jsonl`](Self::from_jsonl) reconstructs the plan bit for bit.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 64);
        Json::obj(vec![
            ("plan", Json::str("fault")),
            ("seed", Json::uint(self.seed)),
            ("detection_latency_ns", Json::Num(self.detection_latency_ns)),
            ("recovery", Json::str(self.recovery.name())),
            ("max_attempts", Json::uint(self.retry.max_attempts.into())),
            ("base_backoff_ns", Json::Num(self.retry.base_backoff_ns)),
            ("max_backoff_ns", Json::Num(self.retry.max_backoff_ns)),
            ("jitter_ns", Json::Num(self.retry.jitter_ns)),
            ("timeout_ns", Json::Num(self.retry.timeout_ns)),
            ("link_gbps", Json::Num(self.migration_link.link_gbps)),
            (
                "link_base_latency_us",
                Json::Num(self.migration_link.base_latency_us),
            ),
        ])
        .render_into(&mut out);
        out.push('\n');
        for e in &self.events {
            let (kind, replica, factor, duration_ns) = match e.kind {
                FaultKind::Crash { replica } => ("crash", Some(replica), None, None),
                FaultKind::Restart { replica } => ("restart", Some(replica), None, None),
                FaultKind::Slowdown {
                    replica,
                    factor,
                    duration_ns,
                } => ("slowdown", Some(replica), Some(factor), Some(duration_ns)),
                FaultKind::LinkDown { duration_ns } => ("link_down", None, None, Some(duration_ns)),
            };
            let mut fields = vec![("time_ns", Json::Num(e.time_ns)), ("kind", Json::str(kind))];
            fields.extend(replica.map(|r| ("replica", Json::uint(r as u64))));
            fields.extend(factor.map(|f| ("factor", Json::Num(f))));
            fields.extend(duration_ns.map(|d| ("duration_ns", Json::Num(d))));
            Json::obj(fields).render_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL plan produced by [`to_jsonl`](Self::to_jsonl) (blank
    /// lines are skipped; header fields may appear in any order and default
    /// when absent). Malformed input produces a [`LineError`] naming the line
    /// and field — never a panic.
    pub fn from_jsonl(text: &str) -> Result<Self, LineError> {
        let mut lines = JsonLines::new(DOC, text);
        let Some(header) = lines.next() else {
            return Err(LineError::new(
                DOC,
                1,
                "plan",
                "missing header line (`{\"plan\":\"fault\",...}`)",
            ));
        };
        let mut plan = parse_header(&header?)?;
        for line in lines {
            plan.events.push(parse_event(&line?)?);
        }
        Ok(plan)
    }
}

/// Fault-and-recovery counters of one faulted fleet run (all zeros on the
/// fault-free path).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Replica crashes that struck a live replica.
    pub crashes: u32,
    /// Replica restarts that revived a dead replica.
    pub restarts: u32,
    /// Slowdown windows applied.
    pub slowdowns: u32,
    /// Handoff-link partitions applied.
    pub link_downs: u32,
    /// Requests live-migrated off a dead replica (each shipped over the
    /// migration link and resumed at full context on a survivor).
    pub migrations: u32,
    /// State bytes shipped by migrations.
    pub migrated_bytes: f64,
    /// Re-submissions through the retry path (crash losses, black-holed
    /// requests and queue-wait timeouts).
    pub retries: u32,
    /// Queue-wait timeouts that cancelled a waiting request.
    pub timeouts: u32,
    /// Requests routed into a dead-but-undetected replica (they re-enter
    /// recovery when the failure detector fires).
    pub black_holed: u32,
    /// Requests abandoned: recovery disabled or retry attempts exhausted.
    pub lost: u32,
}

/// A semantically invalid fault plan, naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Dotted path of the bad field (e.g. `events[3].factor`).
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for FaultError {}

/// The document name fault-plan parse errors carry.
const DOC: &str = "fault plan";

fn parse_header(line: &JsonLine) -> Result<FaultPlan, LineError> {
    line.check_keys(&[
        "plan",
        "seed",
        "detection_latency_ns",
        "recovery",
        "max_attempts",
        "base_backoff_ns",
        "max_backoff_ns",
        "jitter_ns",
        "timeout_ns",
        "link_gbps",
        "link_base_latency_us",
    ])?;
    match line.opt::<String>("plan")?.as_deref() {
        Some("fault") => {}
        Some(other) => return Err(line.error("plan", format!("expected \"fault\", got `{other}`"))),
        None => return Err(line.error("plan", "header must carry `\"plan\":\"fault\"`")),
    }
    let d = FaultPlan::default();
    let recovery = match line.opt::<String>("recovery")? {
        None => d.recovery,
        Some(name) => RecoveryPolicy::parse(&name).ok_or_else(|| {
            line.error(
                "recovery",
                format!("unknown policy `{name}` (expected none | retry-only | migrate)"),
            )
        })?,
    };
    Ok(FaultPlan {
        events: Vec::new(),
        detection_latency_ns: line
            .opt("detection_latency_ns")?
            .unwrap_or(d.detection_latency_ns),
        recovery,
        retry: RetryPolicy {
            max_attempts: line.opt("max_attempts")?.unwrap_or(d.retry.max_attempts),
            base_backoff_ns: line
                .opt("base_backoff_ns")?
                .unwrap_or(d.retry.base_backoff_ns),
            max_backoff_ns: line
                .opt("max_backoff_ns")?
                .unwrap_or(d.retry.max_backoff_ns),
            jitter_ns: line.opt("jitter_ns")?.unwrap_or(d.retry.jitter_ns),
            timeout_ns: line.opt("timeout_ns")?.unwrap_or(d.retry.timeout_ns),
        },
        migration_link: StateTransferModel {
            link_gbps: line.opt("link_gbps")?.unwrap_or(d.migration_link.link_gbps),
            base_latency_us: line
                .opt("link_base_latency_us")?
                .unwrap_or(d.migration_link.base_latency_us),
        },
        seed: line.opt("seed")?.unwrap_or(d.seed),
    })
}

fn parse_event(line: &JsonLine) -> Result<FaultEvent, LineError> {
    line.check_keys(&["time_ns", "kind", "replica", "factor", "duration_ns"])?;
    let time_ns = line.req("time_ns")?;
    let kind = match line.req::<String>("kind")?.as_str() {
        "crash" => FaultKind::Crash {
            replica: line.req("replica")?,
        },
        "restart" => FaultKind::Restart {
            replica: line.req("replica")?,
        },
        "slowdown" => FaultKind::Slowdown {
            replica: line.req("replica")?,
            factor: line.req("factor")?,
            duration_ns: line.req("duration_ns")?,
        },
        "link_down" => FaultKind::LinkDown {
            duration_ns: line.req("duration_ns")?,
        },
        other => {
            return Err(line.error(
                "kind",
                format!("unknown kind `{other}` (expected crash | restart | slowdown | link_down)"),
            ))
        }
    };
    Ok(FaultEvent { time_ns, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        let mut plan = FaultPlan::kill_storm(4, 3, 5.0e6, 2.0e6, 1.5e6)
            .slowdown(1.0e6, 2, 2.5, 3.0e6)
            .link_down(4.0e6, 1.0e6);
        plan.retry.timeout_ns = 40.0e6;
        plan.recovery = RecoveryPolicy::RetryOnly;
        plan.seed = 0xDEAD_BEEF;
        plan
    }

    #[test]
    fn jsonl_round_trips_bit_for_bit() {
        let plan = storm();
        let text = plan.to_jsonl();
        let back = FaultPlan::from_jsonl(&text).expect("round trip");
        assert_eq!(back, plan);
        // Default plan (no events) round-trips too.
        let empty = FaultPlan::default();
        assert_eq!(FaultPlan::from_jsonl(&empty.to_jsonl()).unwrap(), empty);
        assert!(empty.is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn malformed_plans_name_the_field() {
        let cases = [
            ("not json", ""),
            ("{\"plan\":\"trace\"}", "plan"),
            ("{\"seed\":1}", "plan"),
            ("{\"plan\":\"fault\",\"recovery\":\"maybe\"}", "recovery"),
            ("{\"plan\":\"fault\",\"bogus\":1}", "bogus"),
            (
                "{\"plan\":\"fault\"}\n{\"time_ns\":1,\"kind\":\"crash\"}",
                "replica",
            ),
            (
                "{\"plan\":\"fault\"}\n{\"time_ns\":1,\"kind\":\"thump\",\"replica\":0}",
                "kind",
            ),
            (
                "{\"plan\":\"fault\"}\n{\"kind\":\"crash\",\"replica\":0}",
                "time_ns",
            ),
            (
                "{\"plan\":\"fault\"}\n{\"time_ns\":\"soon\",\"kind\":\"crash\",\"replica\":0}",
                "time_ns",
            ),
        ];
        for (text, field) in cases {
            let err = FaultPlan::from_jsonl(text).expect_err(text);
            assert_eq!(err.field, field, "input: {text}");
            // Display names both the line and the field.
            let shown = err.to_string();
            assert!(shown.contains("fault plan line"), "{shown}");
        }
        // Empty input: no header at all.
        assert_eq!(FaultPlan::from_jsonl("").unwrap_err().field, "plan");
    }

    #[test]
    fn validate_names_the_bad_field() {
        let plan = FaultPlan::default().crash(1.0, 9);
        let err = plan.validate(4, false).unwrap_err();
        assert_eq!(err.field, "events[0].replica");

        let plan = FaultPlan::default().slowdown(1.0, 0, -2.0, 5.0);
        assert_eq!(
            plan.validate(4, false).unwrap_err().field,
            "events[0].factor"
        );

        let plan = FaultPlan::default().crash(f64::NAN, 0);
        assert_eq!(
            plan.validate(4, false).unwrap_err().field,
            "events[0].time_ns"
        );

        // Kind/topology mismatches.
        let plan = FaultPlan::default().crash(1.0, 0);
        assert_eq!(plan.validate(4, true).unwrap_err().field, "events[0].kind");
        let plan = FaultPlan::default().link_down(1.0, 2.0);
        assert_eq!(plan.validate(4, false).unwrap_err().field, "events[0].kind");
        assert!(plan.validate(4, true).is_ok());

        let plan = FaultPlan {
            detection_latency_ns: f64::INFINITY,
            ..FaultPlan::default()
        };
        assert_eq!(
            plan.validate(4, false).unwrap_err().field,
            "detection_latency_ns"
        );
        let mut plan = FaultPlan::default();
        plan.retry.timeout_ns = 1.0;
        assert!(plan.validate(4, false).is_ok());
        assert_eq!(
            plan.validate(4, true).unwrap_err().field,
            "retry.timeout_ns"
        );
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let retry = RetryPolicy::default();
        let no_jitter = RetryPolicy {
            jitter_ns: 0.0,
            ..retry
        };
        assert_eq!(no_jitter.backoff_ns(1, 0, 1), 1.0e6);
        assert_eq!(no_jitter.backoff_ns(1, 0, 2), 2.0e6);
        assert_eq!(no_jitter.backoff_ns(1, 0, 3), 4.0e6);
        // The cap binds for large attempts (and the shift never overflows).
        assert_eq!(no_jitter.backoff_ns(1, 0, 60), 50.0e6);
        // Jitter is deterministic per (seed, id, attempt) and bounded.
        let a = retry.backoff_ns(7, 3, 2);
        assert_eq!(a, retry.backoff_ns(7, 3, 2));
        assert!(a >= 2.0e6 && a < 2.0e6 + retry.jitter_ns);
        assert_ne!(a, retry.backoff_ns(7, 4, 2), "ids get their own jitter");
        assert_ne!(a, retry.backoff_ns(8, 3, 2), "seeds shift the jitter");
    }

    #[test]
    fn kill_storm_alternates_victims_and_restarts() {
        let plan = FaultPlan::kill_storm(2, 4, 10.0, 5.0, 2.0);
        assert_eq!(plan.events.len(), 8);
        assert_eq!(plan.events[0].kind, FaultKind::Crash { replica: 0 },);
        assert_eq!(plan.events[1].time_ns, 12.0);
        assert_eq!(plan.events[2].kind, FaultKind::Crash { replica: 1 });
        assert!(plan.validate(2, false).is_ok());
    }
}
