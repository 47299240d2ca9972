//! Deterministic observability: event traces, a metrics registry, and
//! simulator self-profiling.
//!
//! The stack's bit-identity gates (see the `pimba-fleet` cluster module docs)
//! make a hard demand on any instrumentation: **observing a run must never
//! change it**. This module meets that demand by construction:
//!
//! * **No perturbation.** Every trace event and metric sample is *derived*
//!   from simulation state — nothing here is read back by the engine, the
//!   routers, the fault layer, or the schedulers. A run with a
//!   [`TraceSink`]/[`MetricsHub`] attached produces byte-identical
//!   `SimResult`/`FleetResult` values to the same run with both disabled
//!   (asserted by `tests/obs_identity.rs` and the CI `obs_smoke` job), which
//!   is exactly the same invariant the empty-`FaultPlan` gate defends for the
//!   fault layer.
//! * **Zero cost when off.** A disabled [`TraceSink`] is a `None` — every
//!   emission site is one branch and the event constructor closure is never
//!   run. Same for a disabled [`MetricsHub`] and for the [`profile_phase`]
//!   guards (no clock read unless profiling was enabled).
//! * **Deterministic output.** Events are stamped in *simulated* nanoseconds,
//!   tracks are registered in driver-thread creation order, and every
//!   exporter renders through `netline::Json` (floats in Rust's shortest
//!   round-trip form) — so traces and metric snapshots are themselves
//!   reproducible artifacts (modulo the optional wall-time channel, which is
//!   confined to the profiler).
//!
//! Three layers:
//!
//! * [`TraceRecorder`] / [`TraceSink`] / [`TraceEvent`] — a per-track event
//!   log of scheduler, router, and fault decisions, exported as a JSONL
//!   stream ([`render_jsonl`], round-tripped by [`parse_jsonl`]) or as
//!   Chrome trace-event JSON ([`TraceRecorder::to_chrome_json`]) that loads directly in
//!   Perfetto / `chrome://tracing` with one timeline track per replica.
//! * [`MetricsHub`] — named counter/gauge/histogram series with sorted
//!   `(key, value)` labels (per-tenant, per-replica), unifying the ad-hoc
//!   `TelemetryStats`/`Throughput`/`FaultStats` structs into one snapshot-able
//!   registry ([`MetricsHub::snapshot`], [`MetricsHub::to_json`]).
//! * [`profile_phase`] and friends — process-global wall-time accounting of
//!   the *simulator's own* phases (routing, stepping, handoff delivery, memo
//!   lookup, persist I/O, metrics export) so benches can report where host
//!   time goes. Wall time never feeds back into simulated time.

use netline::{Json, JsonLines, LineError};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One trace event: an instant (`dur_ns == 0`) or a span, stamped in
/// simulated nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind, e.g. `"admit"`, `"crash"`, `"handoff"`.
    pub name: String,
    /// Simulated start time in nanoseconds.
    pub time_ns: f64,
    /// Span duration in simulated nanoseconds; `0.0` renders as an instant.
    pub(crate) dur_ns: f64,
    /// Subject identifier (request id, replica index, ...), `0` when unused.
    pub id: u64,
    /// Extra numeric payload, in emission order.
    pub(crate) args: Vec<(String, f64)>,
}

impl TraceEvent {
    /// An instant event at `time_ns`.
    pub fn instant(name: &str, time_ns: f64, id: u64) -> Self {
        Self {
            name: name.to_string(),
            time_ns,
            dur_ns: 0.0,
            id,
            args: Vec::new(),
        }
    }

    /// A span covering `[time_ns, time_ns + dur_ns]`.
    pub fn span(name: &str, time_ns: f64, dur_ns: f64, id: u64) -> Self {
        Self {
            dur_ns,
            ..Self::instant(name, time_ns, id)
        }
    }

    /// Appends a numeric argument (builder style).
    pub fn arg(mut self, key: &str, value: f64) -> Self {
        self.args.push((key.to_string(), value));
        self
    }
}

/// The write side of one trace track. Cloning shares the underlying buffer.
///
/// A default-constructed sink is *disabled*: [`TraceSink::emit`] is a single
/// `Option` branch and never runs its closure, so instrumented hot loops pay
/// nothing when tracing is off (the same shape as the engine's
/// `compute_scale == 1.0` fast path). An enabled sink appends to the
/// [`TraceRecorder`] track it was created from and — by construction — is
/// never read by the simulation, so enabling it cannot perturb results.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    buf: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl TraceSink {
    /// A sink that drops everything at zero cost (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` when events emitted here are recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Records `make()` if the sink is enabled; the closure is not run (and
    /// allocates nothing) otherwise.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(buf) = &self.buf {
            buf.lock().expect("trace buffer poisoned").push(make());
        }
    }
}

/// One named track's events, in emission order — the unit of export and of
/// [`parse_jsonl`] round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTrack {
    /// Track name, e.g. `"fleet"` or `"replica 3"`.
    pub name: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
}

/// Shared event buffer of one track (the write side a [`TraceSink`] holds).
type TrackBuf = Arc<Mutex<Vec<TraceEvent>>>;

/// Collects trace events from many [`TraceSink`]s into named tracks
/// (one per replica / logical timeline), registered in creation order so the
/// export layout is deterministic.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    tracks: Mutex<Vec<(String, TrackBuf)>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new track and returns its (enabled) write sink. Tracks
    /// keep their registration order in every export.
    pub fn track(&self, name: &str) -> TraceSink {
        let buf = Arc::new(Mutex::new(Vec::new()));
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .push((name.to_string(), Arc::clone(&buf)));
        TraceSink { buf: Some(buf) }
    }

    /// A snapshot of every track (registration order, events in emission
    /// order).
    pub fn tracks(&self) -> Vec<TraceTrack> {
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .iter()
            .map(|(name, buf)| TraceTrack {
                name: name.clone(),
                events: buf.lock().expect("trace buffer poisoned").clone(),
            })
            .collect()
    }

    /// Total recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks
            .lock()
            .expect("trace tracks poisoned")
            .iter()
            .map(|(_, buf)| buf.lock().expect("trace buffer poisoned").len())
            .sum()
    }

    /// The canonical JSONL export of the current snapshot (see
    /// [`render_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        render_jsonl(&self.tracks())
    }

    /// The Chrome trace-event JSON export of the current snapshot.
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(&self.tracks())
    }
}

// ---------------------------------------------------------------------------
// Exporters + the JSONL round-trip reader
// ---------------------------------------------------------------------------

fn event_json(track: &str, ev: &TraceEvent) -> Json {
    let args = ev
        .args
        .iter()
        .map(|(key, value)| Json::Arr(vec![Json::str(key), Json::Num(*value)]))
        .collect();
    Json::obj(vec![
        ("track", Json::str(track)),
        ("name", Json::str(&ev.name)),
        ("t", Json::Num(ev.time_ns)),
        ("dur", Json::Num(ev.dur_ns)),
        ("id", Json::uint(ev.id)),
        ("args", Json::Arr(args)),
    ])
}

/// Renders tracks as the canonical JSONL stream: one event per line, shaped
/// `{"track":...,"name":...,"t":...,"dur":...,"id":...,"args":[[k,v],...]}`,
/// floats in shortest round-trip form. [`parse_jsonl`] inverts this exactly,
/// so `render → parse → render` is byte-stable.
pub fn render_jsonl(tracks: &[TraceTrack]) -> String {
    // Keeps an empty track visible in the stream (and round-trippable).
    let placeholder = TraceEvent::instant("", 0.0, 0);
    let mut out = String::new();
    for track in tracks {
        let events = if track.events.is_empty() {
            std::slice::from_ref(&placeholder)
        } else {
            &track.events[..]
        };
        for ev in events {
            event_json(&track.name, ev).render_into(&mut out);
            out.push('\n');
        }
    }
    out
}

/// Parses a [`render_jsonl`] stream back into tracks: the exact inverse, so
/// re-rendering the result reproduces the input byte-for-byte (asserted by
/// the round-trip tests). Tracks appear in first-occurrence order; the
/// placeholder line an empty track renders as is folded back into an empty
/// track.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceTrack>, LineError> {
    let mut tracks: Vec<TraceTrack> = Vec::new();
    for line in JsonLines::new("trace", text) {
        let line = line?;
        line.check_keys(&["track", "name", "t", "dur", "id", "args"])?;
        let track: String = line.req("track")?;
        let args = line
            .get("args")
            .and_then(Json::as_arr)
            .and_then(|pairs| {
                pairs
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([Json::Str(key), value]) => Some((key.clone(), value.as_f64()?)),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
            })
            .ok_or_else(|| line.error("args", "expected an array of [key, number] pairs"))?;
        let event = TraceEvent {
            name: line.req("name")?,
            time_ns: line.req("t")?,
            dur_ns: line.req("dur")?,
            id: line.req("id")?,
            args,
        };
        let slot = match tracks.iter_mut().find(|t| t.name == track) {
            Some(slot) => slot,
            None => {
                tracks.push(TraceTrack {
                    name: track,
                    events: Vec::new(),
                });
                tracks.last_mut().expect("just pushed")
            }
        };
        // The placeholder an empty track renders as (empty name, all zeros).
        if event != TraceEvent::instant("", 0.0, 0) {
            slot.events.push(event);
        }
    }
    Ok(tracks)
}

/// Renders tracks as Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// envelope understood by Perfetto and `chrome://tracing`): one `tid` per
/// track with a `thread_name` metadata record, spans as `"ph":"X"` complete
/// events and instants as `"ph":"i"`, timestamps in microseconds. Each
/// record sits on its own line.
pub(crate) fn render_chrome_json(tracks: &[TraceTrack]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let body = out.len();
    let mut push = |record: Json| {
        if out.len() > body {
            out.push_str(",\n");
        }
        record.render_into(&mut out);
    };
    for (tid, track) in tracks.iter().enumerate() {
        let tid = Json::uint(tid as u64);
        push(Json::obj(vec![
            ("ph", Json::str("M")),
            ("pid", Json::Int(0)),
            ("tid", tid.clone()),
            ("name", Json::str("thread_name")),
            ("args", Json::obj(vec![("name", Json::str(&track.name))])),
        ]));
        for ev in &track.events {
            let mut fields = vec![
                ("ph", Json::str(if ev.dur_ns > 0.0 { "X" } else { "i" })),
                ("pid", Json::Int(0)),
                ("tid", tid.clone()),
                ("ts", Json::Num(ev.time_ns / 1000.0)),
            ];
            if ev.dur_ns > 0.0 {
                fields.push(("dur", Json::Num(ev.dur_ns / 1000.0)));
            } else {
                fields.push(("s", Json::str("t")));
            }
            let mut args = vec![("id".to_string(), Json::uint(ev.id))];
            args.extend(ev.args.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
            fields.extend([("name", Json::str(&ev.name)), ("args", Json::Obj(args))]);
            push(Json::obj(fields));
        }
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Number of log2 histogram buckets: bucket 0 holds `v < 1`, bucket `b` holds
/// `2^(b-1) <= v < 2^b`, the last bucket absorbs everything larger.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of non-negative samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Sample count.
    pub(crate) count: u64,
    /// Sum of samples.
    pub(crate) sum: f64,
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
    pub(crate) buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// The bucket index a sample falls into.
    pub(crate) fn bucket_index(value: f64) -> usize {
        // NaN and sub-1 samples (including negatives) land in bucket 0.
        let below_one = value
            .partial_cmp(&1.0)
            .is_none_or(|o| o == std::cmp::Ordering::Less);
        if below_one {
            return 0;
        }
        // Saturating f64→u64 cast, then position of the leading bit.
        let bits = value.min(u64::MAX as f64) as u64;
        (64 - bits.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample (negatives and NaNs land in bucket 0).
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_index(value)] += 1;
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Log2-bucketed distribution.
    Histogram(Histogram),
}

/// One named, labeled series from a [`MetricsHub::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Series name, e.g. `"serve_requests_completed"`.
    pub name: String,
    /// Sorted `(key, value)` labels, e.g. `[("tenant", "0")]`.
    pub(crate) labels: Vec<(String, String)>,
    /// Current value.
    pub(crate) value: MetricValue,
}

/// Appends the injective encoding of the sorted label set of `labels` to
/// `out`: every key and value as its byte length in decimal, `:`, then its
/// bytes, in `(key, value)` order (ties keep call order, as a stable sort
/// would). The length prefixes make any label text safe, separators
/// included. `order` is the sort's working buffer, reused across calls.
fn encode_labels(out: &mut String, order: &mut Vec<usize>, labels: &[(&str, &str)]) {
    order.clear();
    order.extend(0..labels.len());
    // Insertion sort: label sets are short and usually arrive sorted.
    for i in 1..order.len() {
        let mut j = i;
        while j > 0 && labels[order[j - 1]] > labels[order[j]] {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    for &i in order.iter() {
        let (key, value) = labels[i];
        for part in [key, value] {
            push_decimal(out, part.len());
            out.push(':');
            out.push_str(part);
        }
    }
}

/// Appends `n` in decimal, without the formatting machinery.
fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// The labels [`encode_labels`] encoded into `key`, in their sorted order.
fn decode_labels(key: &str) -> Vec<(String, String)> {
    /// Splits the next length-prefixed part off the front of `rest`.
    fn take(rest: &mut &str) -> String {
        let (len, tail) = rest.split_once(':').expect("a length-prefixed label");
        let (part, tail) = tail.split_at(len.parse().expect("a label length"));
        *rest = tail;
        part.to_string()
    }
    let mut rest = key;
    let mut labels = Vec::new();
    while !rest.is_empty() {
        let key = take(&mut rest);
        labels.push((key, take(&mut rest)));
    }
    labels
}

/// The series of a [`MetricsHub`]: by name, then by encoded label set.
#[derive(Debug, Default)]
struct Registry {
    series: BTreeMap<String, HashMap<String, MetricValue>>,
    /// The reused buffers each call sorts and encodes its label set in.
    key: String,
    order: Vec<usize>,
}

impl Registry {
    /// Applies `update` to the series `(name, labels)`, or creates it as
    /// `init()` — the only point that allocates, and only for a new series.
    fn upsert(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricValue,
        update: impl FnOnce(&mut MetricValue),
    ) {
        self.key.clear();
        encode_labels(&mut self.key, &mut self.order, labels);
        match self.series.get_mut(name) {
            Some(by_labels) => match by_labels.get_mut(self.key.as_str()) {
                Some(value) => update(value),
                None => {
                    by_labels.insert(self.key.clone(), init());
                }
            },
            None => {
                let by_labels = HashMap::from([(self.key.clone(), init())]);
                self.series.insert(name.to_string(), by_labels);
            }
        }
    }
}

/// A clone-to-share registry of named metric series. Like [`TraceSink`], a
/// default-constructed hub is disabled and every recording call is a single
/// branch; an enabled hub is only ever *written* by the simulation layers, so
/// attaching one cannot change results.
///
/// Series are stored by name, then by their label set sorted and encoded as
/// one string. Each call encodes its labels into a buffer the registry
/// reuses and allocates only when it creates a series, so updating an
/// existing series is allocation-free. [`MetricsHub::snapshot`] decodes the
/// labels and orders series by name, then labels, so snapshots are
/// deterministic regardless of recording order or thread interleaving.
///
/// Every call takes the registry's one lock, so exporters fold per-sample
/// data locally and publish each series once: a run's per-request latencies
/// are folded per tenant into local [`Histogram`]s and published with
/// [`MetricsHub::merge_histogram`].
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<Mutex<Registry>>>,
}

impl MetricsHub {
    /// An enabled, empty hub.
    pub fn new() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// A hub that drops everything at zero cost (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// `true` when samples recorded here are kept.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn upsert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> MetricValue,
        update: impl FnOnce(&mut MetricValue),
    ) {
        let Some(inner) = &self.inner else { return };
        let mut registry = inner.lock().expect("metrics registry poisoned");
        registry.upsert(name, labels, init, update);
    }

    /// Adds `delta` to a counter series (created at zero).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.upsert(
            name,
            labels,
            || MetricValue::Counter(delta),
            |value| match value {
                MetricValue::Counter(n) => *n += delta,
                other => *other = MetricValue::Counter(delta),
            },
        );
    }

    /// Sets a gauge series to `value`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.upsert(
            name,
            labels,
            || MetricValue::Gauge(value),
            |slot| *slot = MetricValue::Gauge(value),
        );
    }

    /// Records one sample into a histogram series.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let fresh = || {
            let mut h = Histogram::default();
            h.observe(value);
            MetricValue::Histogram(h)
        };
        self.upsert(name, labels, fresh, |slot| match slot {
            MetricValue::Histogram(h) => h.observe(value),
            other => *other = fresh(),
        });
    }

    /// Adds a locally filled histogram into a histogram series in one call:
    /// the bulk form of [`MetricsHub::observe`] for exporters that fold their
    /// samples before touching the registry. An absent series becomes `hist`
    /// as is; an existing histogram series gains its `count`, `sum` and
    /// buckets; a series of another kind is replaced, as `observe` replaces
    /// it.
    ///
    /// Merging into an absent series is bit-identical to observing the same
    /// samples in the same order. Merging into a series that already holds
    /// samples adds the two sums at once, so its `sum` may differ in the last
    /// ulp from observing every sample in turn.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let fresh = || MetricValue::Histogram(hist.clone());
        self.upsert(name, labels, fresh, |slot| match slot {
            MetricValue::Histogram(h) => {
                h.count += hist.count;
                h.sum += hist.sum;
                for (total, n) in h.buckets.iter_mut().zip(&hist.buckets) {
                    *total += n;
                }
            }
            other => *other = fresh(),
        });
    }

    /// A deterministic (name, then labels) ordered snapshot of every series.
    /// Empty for a disabled hub.
    pub fn snapshot(&self) -> Vec<MetricSeries> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let registry = inner.lock().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for (name, by_labels) in &registry.series {
            let start = out.len();
            out.extend(by_labels.iter().map(|(key, value)| MetricSeries {
                name: name.clone(),
                labels: decode_labels(key),
                value: value.clone(),
            }));
            out[start..].sort_unstable_by(|a, b| a.labels.cmp(&b.labels));
        }
        out
    }

    /// Renders the snapshot as one canonical JSON object:
    /// `{"metrics":[{"name":...,"labels":[[k,v],...],"kind":...,...},...]}`.
    /// Histograms list only their non-empty buckets as `[index, count]`
    /// pairs.
    pub fn to_json(&self) -> String {
        render_metrics_json(self.snapshot())
    }
}

/// The canonical JSON of a [`MetricsHub::snapshot`] (see
/// [`MetricsHub::to_json`]).
fn render_metrics_json(snapshot: Vec<MetricSeries>) -> String {
    let series = snapshot.into_iter().map(|series| {
        let labels = series
            .labels
            .into_iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k), Json::Str(v)]))
            .collect();
        let mut fields = vec![
            ("name", Json::Str(series.name)),
            ("labels", Json::Arr(labels)),
        ];
        match series.value {
            MetricValue::Counter(n) => {
                fields.extend([("kind", Json::str("counter")), ("value", Json::uint(n))]);
            }
            MetricValue::Gauge(v) => {
                fields.extend([("kind", Json::str("gauge")), ("value", Json::Num(v))]);
            }
            MetricValue::Histogram(h) => {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(b, &n)| Json::Arr(vec![Json::uint(b as u64), Json::uint(n)]))
                    .collect();
                fields.extend([
                    ("kind", Json::str("histogram")),
                    ("count", Json::uint(h.count)),
                    ("sum", Json::Num(h.sum)),
                    ("buckets", Json::Arr(buckets)),
                ]);
            }
        }
        Json::obj(fields)
    });
    Json::obj(vec![("metrics", Json::Arr(series.collect()))]).render()
}

// ---------------------------------------------------------------------------
// Self-profiling
// ---------------------------------------------------------------------------

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Accumulated wall time of one simulator phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of completed [`profile_phase`] guards.
    pub calls: u64,
    /// Total wall time in nanoseconds.
    pub(crate) wall_ns: u64,
}

fn phase_table() -> &'static Mutex<BTreeMap<&'static str, PhaseStat>> {
    static TABLE: OnceLock<Mutex<BTreeMap<&'static str, PhaseStat>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Turns the process-global phase profiler on. Profiling measures *host* wall
/// time of simulator phases (routing, stepping, handoff delivery, memo
/// lookup, persist I/O, metrics export); it never touches simulated time
/// and cannot change results.
pub fn enable_profiling() {
    PROFILING.store(true, Ordering::Relaxed);
}

/// Turns the phase profiler off (guards created afterwards are free).
pub fn disable_profiling() {
    PROFILING.store(false, Ordering::Relaxed);
}

/// `true` while the phase profiler is on.
#[inline]
pub(crate) fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// RAII guard from [`profile_phase`]: records elapsed wall time into the
/// phase table on drop (only if profiling was on at creation).
#[derive(Debug)]
pub struct PhaseGuard {
    name: &'static str,
    start: Option<std::time::Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut table = phase_table().lock().expect("profile table poisoned");
            let stat = table.entry(self.name).or_default();
            stat.calls += 1;
            stat.wall_ns += elapsed;
        }
    }
}

/// Starts timing `name` until the returned guard drops. When profiling is off
/// (the default) this reads no clock and records nothing.
#[inline]
#[must_use = "the phase is timed until the guard drops"]
pub fn profile_phase(name: &'static str) -> PhaseGuard {
    PhaseGuard {
        name,
        start: profiling_enabled().then(std::time::Instant::now),
    }
}

/// A name-ordered snapshot of every phase recorded since the last
/// [`reset_profiling`].
pub fn profile_report() -> Vec<(&'static str, PhaseStat)> {
    phase_table()
        .lock()
        .expect("profile table poisoned")
        .iter()
        .map(|(&name, &stat)| (name, stat))
        .collect()
}

/// Clears all accumulated phase stats (profiling stays in its current state).
pub fn reset_profiling() {
    phase_table()
        .lock()
        .expect("profile table poisoned")
        .clear();
}

/// A human-readable phase profile table for bench/CLI output, e.g.:
///
/// ```text
/// phase                 calls      wall_ms
/// memo_lookup            1200         3.41
/// routing                 450         0.52
/// ```
pub fn profile_report_text() -> String {
    let report = profile_report();
    let mut out = String::from("phase                    calls      wall_ms\n");
    for (name, stat) in report {
        out.push_str(&format!(
            "{name:<22} {:>8} {:>12.3}\n",
            stat.calls,
            stat.wall_ns as f64 / 1e6
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_sink_never_runs_the_closure() {
        let sink = TraceSink::disabled();
        assert!(!sink.enabled());
        sink.emit(|| unreachable!("disabled sink must not build events"));
    }

    #[test]
    fn tracks_keep_registration_order_and_events() {
        let rec = TraceRecorder::new();
        let fleet = rec.track("fleet");
        let r0 = rec.track("replica 0");
        fleet.emit(|| TraceEvent::instant("route", 10.0, 7).arg("replica", 0.0));
        r0.emit(|| TraceEvent::span("checkpoint", 20.0, 5.0, 7));
        let tracks = rec.tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].name, "fleet");
        assert_eq!(tracks[1].name, "replica 0");
        assert_eq!(tracks[0].events[0].name, "route");
        assert_eq!(tracks[1].events[0].dur_ns, 5.0);
        assert_eq!(rec.event_count(), 2);
    }

    #[test]
    fn jsonl_round_trip_is_byte_stable() {
        let rec = TraceRecorder::new();
        let a = rec.track("fleet \"odd\\name\"");
        let b = rec.track("replica 1");
        rec.track("empty track");
        a.emit(|| TraceEvent::instant("crash", 1234.5, 3).arg("replica", 1.0));
        a.emit(|| {
            TraceEvent::span("migrate", 2000.0, 0.125, 3)
                .arg("bytes", 1.5e9)
                .arg("from", 1.0)
        });
        b.emit(|| TraceEvent::span("fastforward", 0.1, 1e12, u64::MAX));
        let rendered = rec.to_jsonl();
        let parsed = parse_jsonl(&rendered).expect("parse");
        assert_eq!(parsed, rec.tracks());
        assert_eq!(render_jsonl(&parsed), rendered, "re-emit must be stable");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"track\":oops").is_err());
        let err = parse_jsonl("\n{\"wrong\":1}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn chrome_export_contains_spans_instants_and_thread_names() {
        let rec = TraceRecorder::new();
        let t = rec.track("replica 0");
        t.emit(|| TraceEvent::span("restore", 1000.0, 250.0, 9));
        t.emit(|| TraceEvent::instant("admit", 2000.0, 9));
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.0")); // 1000 ns == 1.0 us
        assert!(json.contains("\"dur\":0.25"));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-5.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1.0), 1);
        assert_eq!(Histogram::bucket_index(1.9), 1);
        assert_eq!(Histogram::bucket_index(2.0), 2);
        assert_eq!(Histogram::bucket_index(1024.0), 11);
        assert_eq!(
            Histogram::bucket_index(f64::INFINITY),
            HISTOGRAM_BUCKETS - 1
        );
    }

    #[test]
    fn metrics_snapshot_is_deterministic_and_labeled() {
        let hub = MetricsHub::new();
        hub.counter("fleet_crashes", &[("replica", "1")], 2);
        hub.counter("fleet_crashes", &[("replica", "0")], 1);
        hub.gauge("run_progress", &[], 0.5);
        hub.observe("ttft_ms", &[("tenant", "0")], 3.0);
        hub.observe("ttft_ms", &[("tenant", "0")], 100.0);
        let snap = hub.snapshot();
        let names: Vec<_> = snap
            .iter()
            .map(|s| (s.name.as_str(), s.labels.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("fleet_crashes", vec![("replica".into(), "0".into())]),
                ("fleet_crashes", vec![("replica".into(), "1".into())]),
                ("run_progress", vec![]),
                ("ttft_ms", vec![("tenant".into(), "0".into())]),
            ]
        );
        match &snap[3].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 103.0);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let json = hub.to_json();
        assert!(json.contains("\"kind\":\"counter\",\"value\":1"));
        assert!(json.contains("\"kind\":\"gauge\",\"value\":0.5"));
        assert!(json.contains("\"buckets\":[[2,1],[7,1]]"));
    }

    #[test]
    fn merge_into_an_absent_series_equals_observing_in_order() {
        let samples = [0.1, 3.0, 1e-3, 7.25, 1e9, 0.3, 2.5e-7, 42.0];
        let observed = MetricsHub::new();
        let mut local = Histogram::default();
        for &v in &samples {
            observed.observe("ttft_ms", &[("tenant", "1"), ("cell", "0")], v);
            local.observe(v);
        }
        let merged = MetricsHub::new();
        merged.merge_histogram("ttft_ms", &[("cell", "0"), ("tenant", "1")], &local);
        assert_eq!(merged.snapshot(), observed.snapshot());
        match &merged.snapshot()[0].value {
            MetricValue::Histogram(h) => {
                let sum = samples.iter().fold(0.0, |acc, v| acc + v);
                assert_eq!(h.sum.to_bits(), sum.to_bits());
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(merged.to_json(), observed.to_json());
    }

    #[test]
    fn merge_adds_into_an_existing_histogram() {
        let hub = MetricsHub::new();
        hub.observe("e2e_ms", &[], 3.0);
        let mut local = Histogram::default();
        local.observe(100.0);
        local.observe(0.5);
        hub.merge_histogram("e2e_ms", &[], &local);
        match &hub.snapshot()[0].value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 103.5);
                assert_eq!(h.buckets[0], 1);
                assert_eq!(h.buckets[2], 1);
                assert_eq!(h.buckets[7], 1);
                assert_eq!(h.buckets.iter().sum::<u64>(), 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_replaces_a_series_of_another_kind() {
        let hub = MetricsHub::new();
        hub.counter("x", &[], 5);
        hub.gauge("y", &[], 2.0);
        let mut local = Histogram::default();
        local.observe(4.0);
        hub.merge_histogram("x", &[], &local);
        hub.merge_histogram("y", &[], &local);
        let snap = hub.snapshot();
        assert_eq!(snap.len(), 2);
        for series in snap {
            assert_eq!(series.value, MetricValue::Histogram(local.clone()));
        }
        // The disabled hub drops a merge like any other call.
        let off = MetricsHub::disabled();
        off.merge_histogram("x", &[], &local);
        assert!(off.snapshot().is_empty());
    }

    /// The registry as it was before series were stored by name and then
    /// by encoded labels, kept verbatim as the reference model of
    /// `registry_matches_the_btreemap_reference`.
    mod reference {
        use super::super::{render_metrics_json, Histogram, MetricSeries, MetricValue};
        use std::collections::btree_map::Entry;
        use std::collections::BTreeMap;
        use std::sync::{Arc, Mutex};

        type SeriesKey = (String, Vec<(String, String)>);

        #[derive(Debug, Clone, Default)]
        pub(super) struct MetricsHub {
            inner: Option<Arc<Mutex<BTreeMap<SeriesKey, MetricValue>>>>,
        }

        impl MetricsHub {
            pub(super) fn new() -> Self {
                Self {
                    inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
                }
            }

            fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
                let mut labels: Vec<(String, String)> = labels
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                labels.sort();
                (name.to_string(), labels)
            }

            pub(super) fn counter(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
                let Some(inner) = &self.inner else { return };
                let mut map = inner.lock().expect("metrics registry poisoned");
                match map
                    .entry(Self::key(name, labels))
                    .or_insert(MetricValue::Counter(0))
                {
                    MetricValue::Counter(n) => *n += delta,
                    other => *other = MetricValue::Counter(delta),
                }
            }

            pub(super) fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
                let Some(inner) = &self.inner else { return };
                let mut map = inner.lock().expect("metrics registry poisoned");
                map.insert(Self::key(name, labels), MetricValue::Gauge(value));
            }

            pub(super) fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
                let Some(inner) = &self.inner else { return };
                let mut map = inner.lock().expect("metrics registry poisoned");
                match map
                    .entry(Self::key(name, labels))
                    .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
                {
                    MetricValue::Histogram(h) => h.observe(value),
                    other => {
                        let mut h = Histogram::default();
                        h.observe(value);
                        *other = MetricValue::Histogram(h);
                    }
                }
            }

            pub(super) fn merge_histogram(
                &self,
                name: &str,
                labels: &[(&str, &str)],
                hist: &Histogram,
            ) {
                let Some(inner) = &self.inner else { return };
                let mut map = inner.lock().expect("metrics registry poisoned");
                match map.entry(Self::key(name, labels)) {
                    Entry::Occupied(mut entry) => match entry.get_mut() {
                        MetricValue::Histogram(h) => {
                            h.count += hist.count;
                            h.sum += hist.sum;
                            for (total, n) in h.buckets.iter_mut().zip(&hist.buckets) {
                                *total += n;
                            }
                        }
                        other => *other = MetricValue::Histogram(hist.clone()),
                    },
                    Entry::Vacant(entry) => {
                        entry.insert(MetricValue::Histogram(hist.clone()));
                    }
                }
            }

            pub(super) fn snapshot(&self) -> Vec<MetricSeries> {
                let Some(inner) = &self.inner else {
                    return Vec::new();
                };
                inner
                    .lock()
                    .expect("metrics registry poisoned")
                    .iter()
                    .map(|((name, labels), value)| MetricSeries {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: value.clone(),
                    })
                    .collect()
            }

            pub(super) fn to_json(&self) -> String {
                render_metrics_json(self.snapshot())
            }
        }
    }

    /// Names and label texts that prefix each other, compare differently
    /// as numbers and as strings, are empty, or hold the label encoding's
    /// separator and digits.
    const NAMES: [&str; 4] = ["ttft", "ttft_ms", "t:1", ""];
    const LABEL_TEXT: [&str; 8] = ["cell", "cel", "9", "10", "", ":", "1:x", "tenant"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn registry_matches_the_btreemap_reference(
            ops in prop::collection::vec(0u64..u64::MAX, 1..48),
        ) {
            let hub = MetricsHub::new();
            let reference = reference::MetricsHub::new();
            for op in ops {
                // Each field of the operation comes from its own bits.
                let bits = |shift: u32, modulus: u64| ((op >> shift) % modulus) as usize;
                let name = NAMES[bits(0, NAMES.len() as u64)];
                let labels: Vec<(&str, &str)> = (0..bits(4, 4))
                    .map(|i| {
                        let text = |shift| LABEL_TEXT[bits(shift, LABEL_TEXT.len() as u64)];
                        (text(8 + 8 * i as u32), text(12 + 8 * i as u32))
                    })
                    .collect();
                let value = (op >> 40) as f64 / 4096.0;
                match bits(36, 4) {
                    0 => {
                        hub.counter(name, &labels, op >> 56);
                        reference.counter(name, &labels, op >> 56);
                    }
                    1 => {
                        hub.gauge(name, &labels, value);
                        reference.gauge(name, &labels, value);
                    }
                    2 => {
                        hub.observe(name, &labels, value);
                        reference.observe(name, &labels, value);
                    }
                    _ => {
                        let mut local = Histogram::default();
                        for sample in [value, value * 1e-3, 7.0][..1 + bits(2, 3)].iter() {
                            local.observe(*sample);
                        }
                        hub.merge_histogram(name, &labels, &local);
                        reference.merge_histogram(name, &labels, &local);
                    }
                }
                prop_assert_eq!(hub.snapshot(), reference.snapshot());
                prop_assert_eq!(hub.to_json(), reference.to_json());
            }
        }
    }

    #[test]
    fn label_encoding_is_injective_and_sorted() {
        let encode = |labels: &[(&str, &str)]| {
            let mut key = String::new();
            encode_labels(&mut key, &mut Vec::new(), labels);
            key
        };
        // Concatenations that would collide without length prefixes.
        assert_ne!(encode(&[("a", "b:c")]), encode(&[("a:b", "c")]));
        assert_ne!(encode(&[("1:a", "")]), encode(&[("1", "a")]));
        assert_eq!(
            encode(&[("b", "1"), ("a", "2")]),
            encode(&[("a", "2"), ("b", "1")])
        );
        for labels in [
            &[][..],
            &[("", "")][..],
            &[("x", "2"), ("x", "10"), (":", "3:a")][..],
        ] {
            let mut sorted: Vec<(String, String)> = labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            sorted.sort();
            assert_eq!(decode_labels(&encode(labels)), sorted);
        }
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let hub = MetricsHub::disabled();
        hub.counter("x", &[], 1);
        hub.gauge("y", &[], 2.0);
        hub.observe("z", &[], 3.0);
        assert!(hub.snapshot().is_empty());
        assert_eq!(hub.to_json(), "{\"metrics\":[]}");
    }

    #[test]
    fn profiler_is_free_when_off_and_counts_when_on() {
        reset_profiling();
        {
            let _g = profile_phase("obs_test_phase");
        }
        assert!(profile_report()
            .iter()
            .all(|(name, _)| *name != "obs_test_phase"));
        enable_profiling();
        {
            let _g = profile_phase("obs_test_phase");
        }
        disable_profiling();
        let report = profile_report();
        let stat = report
            .iter()
            .find(|(name, _)| *name == "obs_test_phase")
            .expect("phase recorded");
        assert_eq!(stat.1.calls, 1);
        assert!(profile_report_text().contains("obs_test_phase"));
        reset_profiling();
    }
}
