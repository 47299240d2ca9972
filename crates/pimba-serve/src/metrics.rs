//! Per-request and aggregate serving metrics: TTFT / TPOT / E2E, exact
//! percentiles, goodput, SLO attainment and queue/occupancy aggregates.
//!
//! Conventions (chosen so the event simulator composes exactly from the
//! analytic step models, see the consistency oracle in `tests/oracle.rs`):
//! prefill prepares the prompt state and emits no token; each of the
//! `output_len` decode steps emits one token; **TTFT** is arrival → end of the
//! first decode step, **TPOT** is the mean gap between the remaining
//! `output_len - 1` tokens, **E2E** is arrival → last token.
//!
//! Queue/occupancy telemetry is recorded through a [`Telemetry`] collector that
//! keeps only *exact running aggregates* (event count, peaks, and the
//! time-weighted queue-depth and occupancy integrals), updated at every event.
//! No per-event series is stored, so memory stays flat however long the trace.

use pimba_system::obs::{Histogram, MetricsHub};
use pimba_system::stats::percentile_of_sorted;
use std::collections::BTreeMap;

/// The lifecycle timestamps of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestOutcome {
    /// Index of the request in its trace.
    pub id: usize,
    /// Arrival time in nanoseconds.
    pub arrival_ns: f64,
    /// Completion time of the first decode step that produced a token.
    pub first_token_ns: f64,
    /// Completion time of the last token.
    pub completion_ns: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output length in tokens.
    pub output_len: usize,
    /// Tenant tag of the request (see
    /// [`TraceRequest::tenant`](crate::traffic::TraceRequest::tenant)).
    pub tenant: u32,
    /// Priority class of the request.
    pub priority: u8,
    /// Times the request was re-submitted after being lost to a replica
    /// crash (0 on the fault-free path; set by the fleet fault driver).
    pub retries: u32,
    /// Times the request's in-flight state was live-migrated to another
    /// replica (0 on the fault-free path; set by the fleet fault driver).
    pub migrations: u32,
}

impl RequestOutcome {
    /// Time to first token in nanoseconds.
    pub fn ttft_ns(&self) -> f64 {
        self.first_token_ns - self.arrival_ns
    }

    /// Mean time per output token after the first, in nanoseconds (0 for
    /// single-token outputs).
    pub fn tpot_ns(&self) -> f64 {
        if self.output_len > 1 {
            (self.completion_ns - self.first_token_ns) / (self.output_len - 1) as f64
        } else {
            0.0
        }
    }

    /// End-to-end latency in nanoseconds.
    pub fn e2e_ns(&self) -> f64 {
        self.completion_ns - self.arrival_ns
    }
}

/// Exact whole-run aggregates of the queue/occupancy telemetry, maintained at
/// every simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetryStats {
    /// Event *timestamps* observed: arrivals and completed work items, with
    /// simultaneous events coalesced into one (the engine drains every event
    /// of a timestamp before sampling).
    pub events: u64,
    /// Largest waiting-queue depth observed at any event.
    pub peak_queue_depth: usize,
    /// Largest number of requests holding a batch slot at any event.
    pub peak_batch_occupancy: usize,
    /// Time-weighted mean number of requests holding a batch slot (each
    /// event's occupancy holds until the next event).
    pub mean_batch_occupancy: f64,
    /// Time-weighted mean waiting-queue depth (each event's depth holds until
    /// the next event).
    pub mean_queue_depth: f64,
}

/// A latency under a compute-latency multiplier. The `== 1.0` guard keeps
/// the default path byte-for-byte free of the multiplication.
pub(crate) fn scaled(latency_ns: f64, compute_scale: f64) -> f64 {
    if compute_scale == 1.0 {
        latency_ns
    } else {
        latency_ns * compute_scale
    }
}

/// Consecutive decode-step latencies a telemetry fold advances over, as a
/// latency table reads them: `latencies[0]` holds for the first
/// `first_steps` steps and every later entry for `steps_per_entry` steps
/// (one seq bucket each), each under `compute_scale` (see [`scaled`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepRun<'a> {
    pub(crate) latencies: &'a [f64],
    pub(crate) first_steps: usize,
    pub(crate) steps_per_entry: usize,
    pub(crate) compute_scale: f64,
}

/// The streaming telemetry collector of one engine run: exact aggregates of
/// the queue/occupancy state, updated at every event in constant memory.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    events: u64,
    peak_queue_depth: usize,
    peak_batch_occupancy: usize,
    first_ns: f64,
    last_ns: f64,
    last_queue_depth: usize,
    last_occupancy: usize,
    weighted_queue_ns: f64,
    weighted_occupancy_ns: f64,
}

impl Telemetry {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the engine state at one event. Each integral accumulates in
    /// call order, the previous event's value times the elapsed time, so the
    /// engine's folded decode path can replay the same floating-point
    /// operations.
    pub fn record(&mut self, time_ns: f64, queue_depth: usize, batch_occupancy: usize) {
        if self.events == 0 {
            self.first_ns = time_ns;
        } else {
            let elapsed = time_ns - self.last_ns;
            self.weighted_occupancy_ns += self.last_occupancy as f64 * elapsed;
            self.weighted_queue_ns += self.last_queue_depth as f64 * elapsed;
        }
        self.last_ns = time_ns;
        self.last_queue_depth = queue_depth;
        self.last_occupancy = batch_occupancy;
        self.peak_queue_depth = self.peak_queue_depth.max(queue_depth);
        self.peak_batch_occupancy = self.peak_batch_occupancy.max(batch_occupancy);
        self.events += 1;
    }

    /// Advances the chained timestamp `start_ns + step`, then that plus
    /// the next step, and so on, over the decode-step latencies of `run`,
    /// while it stays strictly below `bound_ns` (at most `max_steps` times),
    /// recording every visited timestamp as one sample at the given queue
    /// depth and occupancy. The accumulation performs exactly the
    /// floating-point operations the same number of [`record`](Self::record)
    /// calls would, so aggregates stay bit-identical to per-step recording;
    /// the first event (which pins the span's start) must already have been
    /// recorded. Returns how many steps were taken and the final timestamp.
    /// The hot decode loop of the serving engine uses this to collapse
    /// event-free step stretches, across seq-bucket crossings, into one
    /// latency-bound float chain.
    pub(crate) fn record_chain_until(
        &mut self,
        start_ns: f64,
        run: StepRun<'_>,
        max_steps: usize,
        bound_ns: f64,
        queue_depth: usize,
        batch_occupancy: usize,
    ) -> (usize, f64) {
        debug_assert!(self.events > 0, "a fold needs the span's first event");
        let (queue, occupancy) = (queue_depth as f64, batch_occupancy as f64);
        // Local accumulation replays `record`'s op sequence: each step adds
        // `last * (t - last_ns)` onto each running sum in order.
        let mut last_queue = self.last_queue_depth as f64;
        let mut last_occupancy = self.last_occupancy as f64;
        let mut weighted_queue = self.weighted_queue_ns;
        let mut weighted = self.weighted_occupancy_ns;
        let mut last_ns = self.last_ns;
        let mut time_ns = start_ns;
        let mut count = 0usize;
        'run: for (i, &raw_ns) in run.latencies.iter().enumerate() {
            let step_ns = scaled(raw_ns, run.compute_scale);
            let steps = if i == 0 {
                run.first_steps
            } else {
                run.steps_per_entry
            };
            for _ in 0..steps.min(max_steps - count) {
                let t_next = time_ns + step_ns;
                if t_next >= bound_ns {
                    break 'run;
                }
                time_ns = t_next;
                let elapsed = t_next - last_ns;
                weighted += last_occupancy * elapsed;
                weighted_queue += last_queue * elapsed;
                last_ns = t_next;
                last_queue = queue;
                last_occupancy = occupancy;
                count += 1;
            }
            if count == max_steps {
                break;
            }
        }
        if count > 0 {
            self.weighted_queue_ns = weighted_queue;
            self.weighted_occupancy_ns = weighted;
            self.last_ns = last_ns;
            self.last_queue_depth = queue_depth;
            self.last_occupancy = batch_occupancy;
            self.peak_queue_depth = self.peak_queue_depth.max(queue_depth);
            self.peak_batch_occupancy = self.peak_batch_occupancy.max(batch_occupancy);
            self.events += count as u64;
        }
        (count, time_ns)
    }

    /// Consumes the collector into its exact aggregates.
    pub fn finish(self) -> TelemetryStats {
        let span_ns = self.last_ns - self.first_ns;
        let mean = |weighted_ns: f64| {
            if self.events > 1 && span_ns > 0.0 {
                weighted_ns / span_ns
            } else {
                0.0
            }
        };
        TelemetryStats {
            events: self.events,
            peak_queue_depth: self.peak_queue_depth,
            peak_batch_occupancy: self.peak_batch_occupancy,
            mean_batch_occupancy: mean(self.weighted_occupancy_ns),
            mean_queue_depth: mean(self.weighted_queue_ns),
        }
    }
}

/// Whole-run counters of the checkpoint-restore preemption machinery: how
/// many decoding requests were evicted/resumed, how many state bytes moved
/// over the checkpoint link, and how long the engine was stalled shipping
/// them. All zeros for preemption-free runs (every pre-preemption policy),
/// so adding the stats changes no existing result.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreemptionStats {
    /// Decoding requests checkpointed out of the batch.
    pub evictions: u64,
    /// Checkpointed requests restored into the batch.
    pub resumes: u64,
    /// State bytes shipped out by checkpoints.
    pub checkpoint_bytes: f64,
    /// State bytes shipped back by restores.
    pub restore_bytes: f64,
    /// Engine time spent blocked on checkpoint transfers, in nanoseconds.
    pub checkpoint_stall_ns: f64,
    /// Engine time spent blocked on restore transfers, in nanoseconds.
    pub restore_stall_ns: f64,
}

impl std::ops::AddAssign for PreemptionStats {
    /// Field-wise sum: the one way per-incarnation and per-replica counters
    /// combine.
    fn add_assign(&mut self, other: Self) {
        self.evictions += other.evictions;
        self.resumes += other.resumes;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.restore_bytes += other.restore_bytes;
        self.checkpoint_stall_ns += other.checkpoint_stall_ns;
        self.restore_stall_ns += other.restore_stall_ns;
    }
}

/// The raw output of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Completed requests, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Simulated span from t = 0 to the last event, in nanoseconds.
    pub makespan_ns: f64,
    /// Exact whole-run queue/occupancy aggregates.
    pub telemetry: TelemetryStats,
    /// Checkpoint-restore eviction counters (all zeros unless a preemptive
    /// policy ran).
    pub preemption: PreemptionStats,
}

/// Wall-clock throughput of one run: simulated events retired per wall-clock
/// second. Kept *outside* [`SimResult`] (derived through
/// [`SimResult::throughput`]) so results stay comparable bit-for-bit across
/// execution modes — wall time varies run to run, the simulation must not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Wall-clock duration of the run, in seconds.
    pub(crate) wall_secs: f64,
    /// Simulated event timestamps retired ([`TelemetryStats::events`] —
    /// identical for a given workload regardless of execution mode, so
    /// events/s comparisons across modes are apples to apples).
    pub events: u64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
}

impl Throughput {
    /// Rates `events` over `wall_secs` of wall-clock time.
    pub fn new(events: u64, wall_secs: f64) -> Self {
        Self {
            wall_secs,
            events,
            events_per_sec: events as f64 / wall_secs,
        }
    }
}

impl SimResult {
    /// Simulated event timestamps this run retired — the deterministic,
    /// mode-invariant work counter behind events/s reporting.
    pub fn events(&self) -> u64 {
        self.telemetry.events
    }

    /// This run's event throughput over a measured wall-clock duration.
    pub fn throughput(&self, wall_secs: f64) -> Throughput {
        Throughput::new(self.events(), wall_secs)
    }

    /// Exports this run into a [`MetricsHub`] as named series under `labels`
    /// (typically a `replica` label from the fleet layer):
    /// completion/retry/migration/preemption counters, telemetry gauges, and
    /// per-tenant TTFT/TPOT/E2E latency histograms in milliseconds. This is
    /// the registry view of the ad-hoc [`TelemetryStats`]/[`PreemptionStats`]
    /// structs; exporting reads the finished result and cannot perturb it.
    ///
    /// The outcomes are first folded per tenant, in outcome order, into
    /// three counter sums and three local [`Histogram`]s; each tenant's
    /// series then reach the hub in one call apiece
    /// ([`MetricsHub::counter`], [`MetricsHub::merge_histogram`]). On series
    /// no earlier export touched, the hub ends up bit-identical to recording
    /// every request in turn.
    pub fn export_metrics(&self, hub: &MetricsHub, labels: &[(&str, &str)]) {
        if !hub.enabled() {
            return;
        }
        hub.counter("serve_events", labels, self.telemetry.events);
        hub.gauge(
            "serve_peak_queue_depth",
            labels,
            self.telemetry.peak_queue_depth as f64,
        );
        hub.gauge(
            "serve_peak_batch_occupancy",
            labels,
            self.telemetry.peak_batch_occupancy as f64,
        );
        hub.gauge(
            "serve_mean_batch_occupancy",
            labels,
            self.telemetry.mean_batch_occupancy,
        );
        hub.gauge("serve_makespan_ms", labels, self.makespan_ns / 1e6);
        hub.counter("serve_evictions", labels, self.preemption.evictions);
        hub.counter("serve_resumes", labels, self.preemption.resumes);
        hub.gauge(
            "serve_checkpoint_stall_ms",
            labels,
            self.preemption.checkpoint_stall_ns / 1e6,
        );
        hub.gauge(
            "serve_restore_stall_ms",
            labels,
            self.preemption.restore_stall_ns / 1e6,
        );
        let mut tenants: BTreeMap<u32, TenantSeries> = BTreeMap::new();
        for o in &self.outcomes {
            let t = tenants.entry(o.tenant).or_default();
            t.completed += 1;
            t.retries += o.retries as u64;
            t.migrations += o.migrations as u64;
            t.ttft_ms.observe(o.ttft_ns() / 1e6);
            t.tpot_ms.observe(o.tpot_ns() / 1e6);
            t.e2e_ms.observe(o.e2e_ns() / 1e6);
        }
        for (tenant, t) in tenants {
            let tenant = tenant.to_string();
            let mut with_tenant: Vec<(&str, &str)> = labels.to_vec();
            with_tenant.push(("tenant", &tenant));
            hub.counter("serve_requests_completed", &with_tenant, t.completed);
            hub.counter("serve_request_retries", &with_tenant, t.retries);
            hub.counter("serve_request_migrations", &with_tenant, t.migrations);
            hub.merge_histogram("serve_ttft_ms", &with_tenant, &t.ttft_ms);
            hub.merge_histogram("serve_tpot_ms", &with_tenant, &t.tpot_ms);
            hub.merge_histogram("serve_e2e_ms", &with_tenant, &t.e2e_ms);
        }
    }
}

/// One tenant's share of a run, folded locally by
/// [`SimResult::export_metrics`] before it touches the hub.
#[derive(Default)]
struct TenantSeries {
    completed: u64,
    retries: u64,
    migrations: u64,
    ttft_ms: Histogram,
    tpot_ms: Histogram,
    e2e_ms: Histogram,
}

/// A latency service-level objective on TTFT and TPOT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Time-to-first-token bound in milliseconds.
    pub ttft_ms: f64,
    /// Time-per-output-token bound in milliseconds.
    pub tpot_ms: f64,
}

impl SloSpec {
    /// Whether `outcome` met both bounds.
    pub(crate) fn met(&self, outcome: &RequestOutcome) -> bool {
        outcome.ttft_ns() <= self.ttft_ms * 1e6 && outcome.tpot_ns() <= self.tpot_ms * 1e6
    }
}

impl Default for SloSpec {
    /// A chat-grade objective: first token within a second, then 20 tokens/s.
    fn default() -> Self {
        Self {
            ttft_ms: 1000.0,
            tpot_ms: 50.0,
        }
    }
}

/// Per-tenant SLO targets: a default objective plus per-tenant overrides —
/// the vocabulary of multi-tenant goodput ("the interactive tenant holds a
/// 200 ms TTFT, the batch tenant only 2 s").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantSlos {
    /// The objective of every tenant without an override.
    pub(crate) default: SloSpec,
    /// `(tenant, objective)` overrides; the first match wins.
    pub(crate) overrides: Vec<(u32, SloSpec)>,
}

impl TenantSlos {
    /// Every tenant held to the same objective.
    pub fn uniform(slo: SloSpec) -> Self {
        Self {
            default: slo,
            overrides: Vec::new(),
        }
    }

    /// Adds (or replaces the effect of) an override for `tenant`.
    pub fn with(mut self, tenant: u32, slo: SloSpec) -> Self {
        self.overrides.retain(|(t, _)| *t != tenant);
        self.overrides.push((tenant, slo));
        self
    }

    /// The objective `tenant` is held to.
    pub(crate) fn for_tenant(&self, tenant: u32) -> SloSpec {
        self.overrides
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, slo)| *slo)
            .unwrap_or(self.default)
    }
}

/// One tenant's aggregate metrics within a multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSummary {
    /// The tenant tag.
    pub tenant: u32,
    /// The tenant's metrics under *its own* SLO. Latency percentiles,
    /// goodput and attainment cover only this tenant's requests;
    /// occupancy/queue fields are engine-wide (the engine runs one shared
    /// batch) and rates are per second of the whole run's makespan.
    pub summary: TrafficSummary,
}

/// Exact p50/p90/p99 of one latency population (nearest-rank order statistics,
/// see [`pimba_system::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes the triple (all zeros for an empty population), sorting
    /// `values` in place. Values equal under `total_cmp` have equal bits, so
    /// an unstable sort yields the same order as a stable one.
    pub(crate) fn of(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        values.sort_unstable_by(f64::total_cmp);
        Self {
            p50: percentile_of_sorted(&values, 50.0),
            p90: percentile_of_sorted(&values, 90.0),
            p99: percentile_of_sorted(&values, 99.0),
        }
    }
}

/// Aggregate metrics of one simulation under one SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// Completed requests.
    pub completed: usize,
    /// TTFT percentiles in milliseconds.
    pub ttft_ms: Percentiles,
    /// TPOT percentiles in milliseconds.
    pub tpot_ms: Percentiles,
    /// End-to-end percentiles in milliseconds.
    pub e2e_ms: Percentiles,
    /// Completed requests per second of makespan.
    pub throughput_rps: f64,
    /// SLO-meeting completed requests per second of makespan.
    pub goodput_rps: f64,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// Time-weighted mean number of requests holding a batch slot.
    pub mean_batch_occupancy: f64,
    /// Largest waiting-queue depth observed.
    pub peak_queue_depth: usize,
    /// Simulated makespan in seconds.
    pub makespan_s: f64,
}

impl TrafficSummary {
    /// Summarizes `outcomes` under `slo` in one pass over borrowed outcomes:
    /// rates are per second of `makespan_ns`, and the occupancy/queue fields
    /// come from `telemetry`. Every run summary is this pass —
    /// [`SimResult::summary`], the per-tenant summaries and the fleet's.
    pub fn of<'o>(
        outcomes: impl IntoIterator<Item = &'o RequestOutcome>,
        makespan_ns: f64,
        telemetry: &TelemetryStats,
        slo: &SloSpec,
    ) -> Self {
        let to_ms = |ns: f64| ns * 1e-6;
        let outcomes = outcomes.into_iter();
        let n = outcomes.size_hint().0;
        let (mut ttft, mut tpot, mut e2e) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        let mut met = 0;
        for o in outcomes {
            ttft.push(to_ms(o.ttft_ns()));
            tpot.push(to_ms(o.tpot_ns()));
            e2e.push(to_ms(o.e2e_ns()));
            met += usize::from(slo.met(o));
        }
        let completed = ttft.len();
        let makespan_s = makespan_ns * 1e-9;
        let per_second = |n: usize| {
            if makespan_s > 0.0 {
                n as f64 / makespan_s
            } else {
                0.0
            }
        };
        TrafficSummary {
            completed,
            ttft_ms: Percentiles::of(ttft),
            tpot_ms: Percentiles::of(tpot),
            e2e_ms: Percentiles::of(e2e),
            throughput_rps: per_second(completed),
            goodput_rps: per_second(met),
            slo_attainment: if completed == 0 {
                0.0
            } else {
                met as f64 / completed as f64
            },
            mean_batch_occupancy: telemetry.mean_batch_occupancy,
            peak_queue_depth: telemetry.peak_queue_depth,
            makespan_s,
        }
    }
}

impl TenantSummary {
    /// Per-tenant summaries of `outcomes`, ascending in tenant tag: each
    /// tenant's outcomes through [`TrafficSummary::of`] under its own
    /// objective from `slos`, with the whole run's makespan and telemetry
    /// (see [`TenantSummary`]). `whole` is the run's own summary and the SLO
    /// it was taken under, when the caller has it: a run whose only tenant
    /// is held to that SLO reuses it, since summarizing the same outcomes in
    /// the same order under the same SLO gives the same bits.
    pub fn per_tenant(
        outcomes: &[RequestOutcome],
        makespan_ns: f64,
        telemetry: &TelemetryStats,
        slos: &TenantSlos,
        whole: Option<(&SloSpec, &TrafficSummary)>,
    ) -> Vec<Self> {
        let mut tenants: Vec<u32> = outcomes.iter().map(|o| o.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        if let (&[tenant], Some((slo, &summary))) = (tenants.as_slice(), whole) {
            if slos.for_tenant(tenant) == *slo {
                return vec![TenantSummary { tenant, summary }];
            }
        }
        tenants
            .into_iter()
            .map(|tenant| TenantSummary {
                tenant,
                summary: TrafficSummary::of(
                    outcomes.iter().filter(|o| o.tenant == tenant),
                    makespan_ns,
                    telemetry,
                    &slos.for_tenant(tenant),
                ),
            })
            .collect()
    }
}

impl SimResult {
    /// Summarizes the run under `slo`.
    pub fn summary(&self, slo: &SloSpec) -> TrafficSummary {
        TrafficSummary::of(&self.outcomes, self.makespan_ns, &self.telemetry, slo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(arrival: f64, first: f64, done: f64, out_len: usize) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            arrival_ns: arrival,
            first_token_ns: first,
            completion_ns: done,
            prompt_len: 128,
            output_len: out_len,
            ..RequestOutcome::default()
        }
    }

    #[test]
    fn request_latency_definitions() {
        let o = outcome(100.0, 600.0, 1600.0, 11);
        assert_eq!(o.ttft_ns(), 500.0);
        assert_eq!(o.tpot_ns(), 100.0);
        assert_eq!(o.e2e_ns(), 1500.0);
        assert_eq!(outcome(0.0, 50.0, 50.0, 1).tpot_ns(), 0.0);
    }

    #[test]
    fn slo_gates_both_axes() {
        let slo = SloSpec {
            ttft_ms: 1.0,
            tpot_ms: 1.0,
        };
        // 0.5 ms TTFT, 0.5 ms TPOT -> met.
        assert!(slo.met(&outcome(0.0, 0.5e6, 1.0e6, 2)));
        // TTFT blown.
        assert!(!slo.met(&outcome(0.0, 2.0e6, 2.5e6, 2)));
        // TPOT blown.
        assert!(!slo.met(&outcome(0.0, 0.5e6, 3.0e6, 2)));
    }

    #[test]
    fn percentiles_of_empty_and_singleton() {
        assert_eq!(Percentiles::of(Vec::new()), Percentiles::default());
        let p = Percentiles::of(vec![4.0]);
        assert_eq!((p.p50, p.p90, p.p99), (4.0, 4.0, 4.0));
    }

    /// The aggregates of feeding `(time_ns, queue_depth, batch_occupancy)`
    /// samples through [`Telemetry::record`] in order.
    fn recorded(samples: &[(f64, usize, usize)]) -> TelemetryStats {
        let mut telemetry = Telemetry::new();
        for &(time_ns, queue_depth, batch_occupancy) in samples {
            telemetry.record(time_ns, queue_depth, batch_occupancy);
        }
        telemetry.finish()
    }

    #[test]
    fn summary_counts_and_rates() {
        let result = SimResult {
            outcomes: vec![
                outcome(0.0, 0.5e6, 1.0e6, 2),  // meets 1ms/1ms SLO
                outcome(0.0, 5.0e6, 20.0e6, 2), // misses
            ],
            telemetry: recorded(&[(0.0, 2, 0), (10.0e6, 0, 2), (20.0e6, 0, 0)]),
            makespan_ns: 20.0e6,
            preemption: PreemptionStats::default(),
        };
        let s = result.summary(&SloSpec {
            ttft_ms: 1.0,
            tpot_ms: 1.0,
        });
        assert_eq!(s.completed, 2);
        assert_eq!(s.slo_attainment, 0.5);
        assert_eq!(s.peak_queue_depth, 2);
        assert_eq!(s.throughput_rps, 2.0 / 0.02);
        assert_eq!(s.goodput_rps, 1.0 / 0.02);
        // Occupancy: 0 for the first half, 2 for the second -> 1.0 mean;
        // queue depth the mirror image.
        assert!((s.mean_batch_occupancy - 1.0).abs() < 1e-12);
        assert!((result.telemetry.mean_queue_depth - 1.0).abs() < 1e-12);
        assert_eq!(s.makespan_s, 0.02);
    }

    #[test]
    fn empty_sim_result_summary_is_all_zeros() {
        let s = SimResult {
            outcomes: vec![],
            makespan_ns: 0.0,
            telemetry: TelemetryStats::default(),
            preemption: PreemptionStats::default(),
        }
        .summary(&SloSpec::default());
        assert_eq!(s.completed, 0);
        assert_eq!(s.slo_attainment, 0.0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.mean_batch_occupancy, 0.0);
    }

    #[test]
    fn tenant_slos_override_and_default() {
        let slos = TenantSlos::uniform(SloSpec {
            ttft_ms: 100.0,
            tpot_ms: 10.0,
        })
        .with(
            2,
            SloSpec {
                ttft_ms: 2000.0,
                tpot_ms: 100.0,
            },
        );
        assert_eq!(slos.for_tenant(0).ttft_ms, 100.0);
        assert_eq!(slos.for_tenant(2).ttft_ms, 2000.0);
        // Replacing an override keeps one entry.
        let replaced = slos.with(
            2,
            SloSpec {
                ttft_ms: 500.0,
                tpot_ms: 50.0,
            },
        );
        assert_eq!(replaced.overrides.len(), 1);
        assert_eq!(replaced.for_tenant(2).ttft_ms, 500.0);
    }

    #[test]
    fn per_tenant_summaries_split_by_tenant_under_their_own_slos() {
        let t0 = RequestOutcome {
            tenant: 0,
            ..outcome(0.0, 0.5e6, 1.0e6, 2) // fast
        };
        let t5_fast = RequestOutcome {
            id: 1,
            tenant: 5,
            ..outcome(0.0, 0.5e6, 1.0e6, 2)
        };
        let t5_slow = RequestOutcome {
            id: 2,
            tenant: 5,
            ..outcome(0.0, 50.0e6, 90.0e6, 2) // 50 ms TTFT
        };
        let result = SimResult {
            outcomes: vec![t5_slow, t0, t5_fast],
            makespan_ns: 100.0e6,
            telemetry: TelemetryStats::default(),
            preemption: PreemptionStats::default(),
        };
        // Tenant 0 held to 1 ms TTFT, tenant 5 to a lax 100 ms.
        let slos = TenantSlos::uniform(SloSpec {
            ttft_ms: 1.0,
            tpot_ms: 50.0,
        })
        .with(
            5,
            SloSpec {
                ttft_ms: 100.0,
                tpot_ms: 50.0,
            },
        );
        let per_tenant = TenantSummary::per_tenant(
            &result.outcomes,
            result.makespan_ns,
            &result.telemetry,
            &slos,
            None,
        );
        assert_eq!(per_tenant.len(), 2);
        assert_eq!(per_tenant[0].tenant, 0);
        assert_eq!(per_tenant[0].summary.completed, 1);
        assert_eq!(per_tenant[0].summary.slo_attainment, 1.0);
        assert_eq!(per_tenant[1].tenant, 5);
        assert_eq!(per_tenant[1].summary.completed, 2);
        // Both tenant-5 requests meet the lax objective.
        assert_eq!(per_tenant[1].summary.slo_attainment, 1.0);
        // Completions across tenants sum to the run total.
        let total: usize = per_tenant.iter().map(|t| t.summary.completed).sum();
        assert_eq!(total, result.outcomes.len());
    }

    #[test]
    fn telemetry_from_timeline_matches_windowed_integration() {
        let samples = [(0.0, 1, 0), (10.0, 0, 4), (30.0, 3, 0)];
        let stats = recorded(&samples);
        // Occupancy 0 for 10 ns, then 4 for 20 ns over a 30 ns span; queue
        // depth 1 for 10 ns, then 0 (the last sample holds no time).
        assert!((stats.mean_batch_occupancy - 4.0 * 20.0 / 30.0).abs() < 1e-12);
        assert!((stats.mean_queue_depth - 10.0 / 30.0).abs() < 1e-12);
        assert_eq!(stats.peak_batch_occupancy, 4);
        assert_eq!(stats.peak_queue_depth, 3);
        assert_eq!(stats.events, 3);
        // Degenerate spans integrate to zero.
        let single = recorded(&samples[..1]);
        assert_eq!(single.mean_batch_occupancy, 0.0);
        assert_eq!(single.mean_queue_depth, 0.0);
    }
}
