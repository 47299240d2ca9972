//! Fleet-level results: merged per-request outcomes, per-replica reports and
//! aggregate SLO metrics.

use crate::fault::FaultStats;
use pimba_serve::metrics::{
    RequestOutcome, SimResult, SloSpec, TelemetryStats, Throughput, TrafficSummary,
};

/// What a replica did in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Full-lifecycle replica of a colocated fleet.
    Colocated,
    /// Prefill-pool replica of a disaggregated fleet (runs prefill plus the
    /// first decode step, then hands the state off).
    Prefill,
    /// Decode-pool replica of a disaggregated fleet (receives prefilled
    /// state, decodes the remaining tokens).
    Decode,
}

impl ReplicaRole {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaRole::Colocated => "colocated",
            ReplicaRole::Prefill => "prefill",
            ReplicaRole::Decode => "decode",
        }
    }
}

/// One replica's view of the fleet run: its role and its own complete
/// [`SimResult`] — queue/occupancy aggregates and the (stage-local) outcomes
/// of every request it served.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// Replica index within the fleet (pool-local for disaggregated fleets:
    /// prefill replicas first, then decode replicas).
    pub replica: usize,
    /// The replica's role.
    pub role: ReplicaRole,
    /// The replica's own simulation result. For disaggregated roles the
    /// outcomes are *stage-local* (a prefill replica's `completion_ns` is the
    /// handoff point, not the request's end); the fleet-level
    /// [`FleetResult::outcomes`] stitch the stages together.
    pub result: SimResult,
}

impl ReplicaReport {
    /// Requests this replica served (to completion of its stage).
    pub fn completed(&self) -> usize {
        self.result.outcomes.len()
    }
}

/// The result of one fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// End-to-end per-request outcomes, ascending in trace id: arrival is the
    /// trace arrival, `first_token_ns` comes from wherever the first token
    /// was produced (the prefill pool in disaggregated mode) and
    /// `completion_ns` from wherever the last token was produced — so
    /// TTFT/TPOT/E2E include routing, queueing and state-transfer delays.
    pub outcomes: Vec<RequestOutcome>,
    /// Per-replica reports, fleet order (prefill pool before decode pool).
    pub replicas: Vec<ReplicaReport>,
    /// Front-door assignment: the (pool-local) replica each request was
    /// routed to — a colocated replica, or the prefill replica.
    pub assignment: Vec<u32>,
    /// Decode-pool assignment of each request in a disaggregated fleet
    /// (`u32::MAX` for requests that never handed off, i.e. single-token
    /// outputs); empty for colocated fleets.
    pub decode_assignment: Vec<u32>,
    /// Fleet makespan: the latest event time across all replicas, in
    /// nanoseconds.
    pub makespan_ns: f64,
    /// Fault-and-recovery counters (all zeros unless the fleet ran under a
    /// non-empty [`FaultPlan`](crate::fault::FaultPlan)).
    pub fault: FaultStats,
}

impl FleetResult {
    /// Fleet-level telemetry: event counts summed, peaks maxed, and the
    /// time-weighted mean occupancy and queue depth summed across replicas
    /// (replica spans differ slightly, so the sums are the fleet's mean
    /// *occupied slots* and *waiting requests* up to that per-replica
    /// windowing — exact per replica, additive as an approximation).
    pub fn fleet_telemetry(&self) -> TelemetryStats {
        let mut out = TelemetryStats::default();
        for r in &self.replicas {
            let t = &r.result.telemetry;
            out.events += t.events;
            out.peak_queue_depth = out.peak_queue_depth.max(t.peak_queue_depth);
            out.peak_batch_occupancy = out.peak_batch_occupancy.max(t.peak_batch_occupancy);
            out.mean_batch_occupancy += t.mean_batch_occupancy;
            out.mean_queue_depth += t.mean_queue_depth;
        }
        out
    }

    /// Total engine step-events executed across all replicas — the
    /// simulation-work denominator of the fleet benches. Counters live
    /// *outside* the result (like [`SimResult::events`]) so results stay
    /// comparable bit-for-bit across execution modes.
    pub fn events(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.result.telemetry.events)
            .sum()
    }

    /// This run's event throughput over a measured wall-clock duration.
    pub fn throughput(&self, wall_secs: f64) -> Throughput {
        Throughput::new(self.events(), wall_secs)
    }

    /// Aggregate fleet metrics under `slo` — the same [`TrafficSummary`]
    /// shape the single-replica runner reports, computed over the end-to-end
    /// outcomes and the fleet makespan.
    pub fn summary(&self, slo: &SloSpec) -> TrafficSummary {
        TrafficSummary::of(
            &self.outcomes,
            self.makespan_ns,
            &self.fleet_telemetry(),
            slo,
        )
    }

    /// Requests completed per replica, fleet order — the balance/imbalance
    /// fingerprint of a routing policy.
    pub fn per_replica_completed(&self) -> Vec<usize> {
        self.replicas.iter().map(ReplicaReport::completed).collect()
    }

    /// Publishes this result into `hub` as named series under `labels`:
    /// fleet-level gauges (makespan, peaks), per-replica series with a
    /// `replica`/`role` label pair, per-tenant latency histograms (via the
    /// per-replica [`SimResult::export_metrics`]), and the full
    /// [`FaultStats`] vocabulary as counters. No-op when the hub is
    /// disabled; reads the finished result only, so it cannot perturb a
    /// simulation (the `pimba_system::obs` invariant).
    pub fn export_metrics(&self, hub: &pimba_system::obs::MetricsHub, labels: &[(&str, &str)]) {
        if !hub.enabled() {
            return;
        }
        hub.gauge("fleet_makespan_ms", labels, self.makespan_ns / 1e6);
        hub.counter(
            "fleet_requests_completed",
            labels,
            self.outcomes.len() as u64,
        );
        let t = self.fleet_telemetry();
        hub.counter("fleet_events", labels, t.events);
        hub.gauge("fleet_peak_queue_depth", labels, t.peak_queue_depth as f64);
        hub.gauge(
            "fleet_peak_batch_occupancy",
            labels,
            t.peak_batch_occupancy as f64,
        );
        for r in &self.replicas {
            let replica = r.replica.to_string();
            let mut replica_labels: Vec<(&str, &str)> = labels.to_vec();
            replica_labels.push(("replica", &replica));
            replica_labels.push(("role", r.role.name()));
            r.result.export_metrics(hub, &replica_labels);
        }
        let f = &self.fault;
        for (name, value) in [
            ("fleet_fault_crashes", f.crashes),
            ("fleet_fault_restarts", f.restarts),
            ("fleet_fault_slowdowns", f.slowdowns),
            ("fleet_fault_link_downs", f.link_downs),
            ("fleet_fault_migrations", f.migrations),
            ("fleet_fault_retries", f.retries),
            ("fleet_fault_timeouts", f.timeouts),
            ("fleet_fault_black_holed", f.black_holed),
            ("fleet_fault_lost", f.lost),
        ] {
            hub.counter(name, labels, value as u64);
        }
        hub.gauge("fleet_fault_migrated_bytes", labels, f.migrated_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimba_serve::metrics::{PreemptionStats, Telemetry, TenantSlos, TenantSummary};

    fn outcome(id: usize, arrival: f64, first: f64, done: f64) -> RequestOutcome {
        RequestOutcome {
            id,
            arrival_ns: arrival,
            first_token_ns: first,
            completion_ns: done,
            prompt_len: 64,
            output_len: 4,
            ..RequestOutcome::default()
        }
    }

    fn replica(role: ReplicaRole, outcomes: Vec<RequestOutcome>, makespan: f64) -> ReplicaReport {
        let mut telemetry = Telemetry::new();
        telemetry.record(0.0, outcomes.len(), 0);
        telemetry.record(makespan, 0, outcomes.len());
        ReplicaReport {
            replica: 0,
            role,
            result: SimResult {
                outcomes,
                telemetry: telemetry.finish(),
                makespan_ns: makespan,
                preemption: PreemptionStats::default(),
            },
        }
    }

    /// Per-tenant fleet aggregation: outcomes split by tenant, each class
    /// judged against its own SLO.
    #[test]
    fn per_tenant_fleet_summary_splits_classes() {
        let interactive = RequestOutcome {
            tenant: 1,
            ..outcome(0, 0.0, 1.0e6, 2.0e6)
        };
        let batchy = RequestOutcome {
            tenant: 2,
            ..outcome(1, 0.0, 600.0e6, 900.0e6)
        };
        let result = FleetResult {
            outcomes: vec![interactive, batchy],
            replicas: vec![replica(
                ReplicaRole::Colocated,
                vec![interactive, batchy],
                1.0e9,
            )],
            assignment: vec![0, 0],
            decode_assignment: Vec::new(),
            makespan_ns: 1.0e9,
            fault: FaultStats::default(),
        };
        // Tenant 1 interactive (100 ms TTFT), tenant 2 lax (2 s TTFT).
        let slos = TenantSlos::uniform(SloSpec {
            ttft_ms: 100.0,
            tpot_ms: 50.0,
        })
        .with(
            2,
            SloSpec {
                ttft_ms: 2000.0,
                tpot_ms: 200.0,
            },
        );
        let summarize = |slos: &TenantSlos| {
            TenantSummary::per_tenant(
                &result.outcomes,
                result.makespan_ns,
                &result.fleet_telemetry(),
                slos,
                None,
            )
        };
        let per_tenant = summarize(&slos);
        assert_eq!(per_tenant.len(), 2);
        assert_eq!(per_tenant[0].tenant, 1);
        assert_eq!(per_tenant[0].summary.slo_attainment, 1.0);
        assert_eq!(per_tenant[1].tenant, 2);
        // 600 ms TTFT meets the lax objective but would blow the strict one.
        assert_eq!(per_tenant[1].summary.slo_attainment, 1.0);
        let strict = summarize(&TenantSlos::uniform(SloSpec {
            ttft_ms: 100.0,
            tpot_ms: 50.0,
        }));
        assert_eq!(strict[1].summary.slo_attainment, 0.0);
        for r in &result.replicas {
            assert_eq!(r.result.preemption, PreemptionStats::default());
        }
    }

    #[test]
    fn fleet_summary_aggregates_across_replicas() {
        let result = FleetResult {
            outcomes: vec![
                outcome(0, 0.0, 1.0e6, 2.0e6),
                outcome(1, 0.0, 1.0e6, 3.0e6),
                outcome(2, 0.0, 900.0e6, 950.0e6), // SLO-blown TTFT
            ],
            replicas: vec![
                replica(
                    ReplicaRole::Colocated,
                    vec![outcome(0, 0.0, 1.0e6, 2.0e6)],
                    10.0e9,
                ),
                replica(
                    ReplicaRole::Colocated,
                    vec![
                        outcome(1, 0.0, 1.0e6, 3.0e6),
                        outcome(2, 0.0, 900.0e6, 950.0e6),
                    ],
                    10.0e9,
                ),
            ],
            assignment: vec![0, 1, 1],
            decode_assignment: Vec::new(),
            makespan_ns: 10.0e9,
            fault: FaultStats::default(),
        };
        let slo = SloSpec {
            ttft_ms: 100.0,
            tpot_ms: 50.0,
        };
        let s = result.summary(&slo);
        assert_eq!(s.completed, 3);
        assert!((s.slo_attainment - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.throughput_rps, 3.0 / 10.0);
        assert_eq!(result.per_replica_completed(), vec![1, 2]);
        let telemetry = result.fleet_telemetry();
        assert_eq!(telemetry.events, 4);
        assert_eq!(telemetry.peak_queue_depth, 2);
    }

    /// A replica that served zero requests must not break the aggregation —
    /// the empty-population edge the `pimba_system::stats` helpers document.
    #[test]
    fn empty_replica_and_empty_fleet_aggregate_cleanly() {
        let result = FleetResult {
            outcomes: vec![outcome(0, 0.0, 1.0e6, 2.0e6)],
            replicas: vec![
                replica(
                    ReplicaRole::Colocated,
                    vec![outcome(0, 0.0, 1.0e6, 2.0e6)],
                    2.0e6,
                ),
                replica(ReplicaRole::Colocated, Vec::new(), 0.0),
            ],
            assignment: vec![0],
            decode_assignment: Vec::new(),
            makespan_ns: 2.0e6,
            fault: FaultStats::default(),
        };
        let s = result.summary(&SloSpec::default());
        assert_eq!(s.completed, 1);
        assert_eq!(result.per_replica_completed(), vec![1, 0]);
        // The idle replica's own summary hits the empty-percentile path.
        let idle = result.replicas[1].result.summary(&SloSpec::default());
        assert_eq!(idle.completed, 0);
        assert_eq!(idle.ttft_ms.p99, 0.0);

        let empty = FleetResult {
            outcomes: Vec::new(),
            replicas: Vec::new(),
            assignment: Vec::new(),
            decode_assignment: Vec::new(),
            makespan_ns: 0.0,
            fault: FaultStats::default(),
        };
        assert_eq!(empty.summary(&SloSpec::default()).completed, 0);
    }
}
