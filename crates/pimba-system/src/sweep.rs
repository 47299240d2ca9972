//! Parallel grid sweeps over (system × model × batch × seq-len) — the batch-capacity
//! search engine behind the figure benches.
//!
//! The paper's headline results (Figures 12–16 and the ablations) come from
//! evaluating [`ServingSimulator::generation_step`] over large grids. The
//! [`SweepRunner`] evaluates such grids in **seq-invariant rows**: each
//! `(system, model, batch)` row is one
//! [`StepFunction`](crate::serving::StepFunction), so every operator except
//! attention (a model's state-update latency, for example, is independent of
//! the sequence length) is evaluated once and reused across the whole seq-len
//! axis. Rows run inline: starting a worker thread costs about as much as
//! evaluating 500 points, and on no grid measured did two threads beat one.
//! The runner's thread count is
//! used by the traffic and fleet grid runners that embed it, whose cells are
//! fanned out with [`parallel_map`].
//!
//! Results are returned in grid order, and are
//! bit-identical to calling `generation_step` directly on uncached, freshly built
//! simulators — asserted by `tests/sweep_regression.rs`.

use crate::config::SystemConfig;
use crate::serving::{ServingSimulator, StepBreakdown};
use pimba_models::config::ModelConfig;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Cooperative execution control for a long grid run: an optional per-cell
/// progress callback and an optional cancellation flag, polled between cells.
/// The vocabulary a serving daemon needs to stream progress and honor
/// cancellations/timeouts without threading callbacks through every runner
/// signature — both grid runners accept one in their `run_controlled` entry
/// points.
///
/// Cancellation is *cell-granular*: a cell already simulating runs to
/// completion (its result may still be published to a memo — it is correct),
/// but no new cell starts once the flag is up.
#[derive(Clone, Default)]
pub struct RunControl {
    progress: Option<Arc<dyn Fn(usize, usize) + Send + Sync>>,
    cancel: Option<Arc<AtomicBool>>,
    metrics: crate::obs::MetricsHub,
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("progress", &self.progress.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("metrics", &self.metrics.enabled())
            .finish()
    }
}

impl RunControl {
    /// No progress reporting, no cancellation — the behavior of the plain
    /// `run` entry points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a `(cells_done, cells_total)` callback, invoked after every
    /// completed cell (from worker threads, possibly concurrently — the
    /// callback must be cheap and thread-safe).
    pub fn with_progress(mut self, progress: Arc<dyn Fn(usize, usize) + Send + Sync>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Installs a cancellation flag: once `true`, no further cell starts and
    /// the run returns aborted.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// `true` once the cancellation flag (if any) is up.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Installs a live metrics registry: runners publish run-progress gauges
    /// through it (and export their per-run summary series into it), so a
    /// mid-run [`MetricsHub::snapshot`](crate::obs::MetricsHub::snapshot)
    /// sees where a long grid stands. Observability only — attaching a hub
    /// never changes results. Per-cell series come only from cells the run
    /// simulates: a memo hit skips evaluation and so exports nothing.
    pub fn with_metrics(mut self, metrics: crate::obs::MetricsHub) -> Self {
        self.metrics = metrics;
        self
    }

    /// The attached metrics registry (disabled by default).
    pub fn metrics(&self) -> &crate::obs::MetricsHub {
        &self.metrics
    }

    /// Reports one completed cell.
    pub fn report(&self, done: usize, total: usize) {
        if let Some(progress) = &self.progress {
            progress(done, total);
        }
        if self.metrics.enabled() {
            self.metrics
                .gauge("run_progress_cells_done", &[], done as f64);
            self.metrics
                .gauge("run_progress_cells_total", &[], total as f64);
        }
    }
}

/// A controlled run stopped early because its [`RunControl`] cancel flag went
/// up; no partial records are returned (and none of the skipped cells were
/// published to any memo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunAborted;

impl std::fmt::Display for RunAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "grid run cancelled")
    }
}

impl std::error::Error for RunAborted {}

/// Evaluates `total` items with up to `threads` scoped worker threads, returning
/// `eval(0..total)` in index order regardless of the thread count.
///
/// This is the one fork-join fan-out of the workspace (the environment has no
/// crates.io access, so `std::thread::scope` stands in for a `rayon` parallel
/// iterator): `pimba-serve`'s `run_grid` partitions the cells of the traffic
/// and fleet grid runners over it. `eval` must be deterministic per index for
/// the output to be reproducible — the runners guarantee this (and their
/// regression tests assert bit-identical results across thread counts).
pub fn parallel_map<T, F>(total: usize, threads: usize, eval: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, total);
    if threads == 1 {
        return (0..total).map(eval).collect();
    }
    // Dynamic chunk claiming: workers pull fixed-size index chunks off a
    // shared atomic cursor, so a run of expensive items can't strand the
    // other workers idle the way a fixed per-thread partition does. Several
    // chunks per worker keeps the tail balanced; results scatter back into
    // index order on the main thread, so the output is identical to the
    // single-threaded map for any thread count and any claim interleaving
    // (eval is deterministic per index).
    let chunk = total.div_ceil(threads * 4).max(1);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<T>)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (eval, cursor) = (&eval, &cursor);
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, std::sync::atomic::Ordering::Relaxed);
                if start >= total {
                    break;
                }
                let end = (start + chunk).min(total);
                let out: Vec<T> = (start..end).map(eval).collect();
                if tx.send((start, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (start, out) in rx {
            for (offset, value) in out.into_iter().enumerate() {
                results[start + offset] = Some(value);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item evaluated"))
        .collect()
}

/// The cartesian evaluation grid of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// System design points to evaluate.
    pub systems: Vec<SystemConfig>,
    /// Models to serve.
    pub models: Vec<ModelConfig>,
    /// Batch sizes.
    pub batches: Vec<usize>,
    /// Sequence lengths.
    pub seq_lens: Vec<usize>,
}

impl SweepGrid {
    /// An empty grid — identical to [`SweepGrid::default`], the starting point of
    /// the builder chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the system axis.
    pub fn with_systems(mut self, systems: Vec<SystemConfig>) -> Self {
        self.systems = systems;
        self
    }

    /// Replaces the model axis.
    pub fn with_models(mut self, models: Vec<ModelConfig>) -> Self {
        self.models = models;
        self
    }

    /// Replaces the batch-size axis.
    pub fn with_batches(mut self, batches: Vec<usize>) -> Self {
        self.batches = batches;
        self
    }

    /// Replaces the sequence-length axis.
    pub fn with_seq_lens(mut self, seq_lens: Vec<usize>) -> Self {
        self.seq_lens = seq_lens;
        self
    }
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.systems.len() * self.models.len() * self.batches.len() * self.seq_lens.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The (system, model, batch, seq_len) index tuple of flat grid index `i`,
    /// seq-len fastest.
    fn indices(&self, i: usize) -> (usize, usize, usize, usize) {
        let s = i % self.seq_lens.len();
        let rest = i / self.seq_lens.len();
        let b = rest % self.batches.len();
        let rest = rest / self.batches.len();
        let m = rest % self.models.len();
        let sys = rest / self.models.len();
        (sys, m, b, s)
    }
}

/// The evaluation of one grid point.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Index into [`SweepGrid::systems`].
    pub system: usize,
    /// Index into [`SweepGrid::models`].
    pub model: usize,
    /// Batch size evaluated.
    pub batch: usize,
    /// Sequence length evaluated.
    pub seq_len: usize,
    /// Full latency breakdown of one generation step.
    pub step: StepBreakdown,
    /// Token throughput in tokens/s (whole batch).
    pub throughput_tps: f64,
    /// Aggregate device memory in use, in bytes.
    pub memory_bytes: f64,
}

/// Evaluator of [`SweepGrid`]s, and the worker-thread count of the traffic and
/// fleet grid runners that embed it.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using every available core. The core count is read once
    /// per process: daemons build a runner per job, and the query costs a
    /// syscall.
    pub fn new() -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let threads = *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        Self { threads }
    }

    /// Overrides the worker-thread count (clamped to at least 1). Grid
    /// runners that embed this runner fan their cells out over that many
    /// workers; [`SweepRunner::run`] evaluates inline whatever the count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates one `(system, model, batch)` row — the whole seq-len axis —
    /// through a single seq-invariant [`StepFunction`](crate::serving::StepFunction):
    /// every operator except attention is evaluated once per row instead of
    /// once per point, and no workload is constructed in
    /// the per-point loop. Records are bit-identical to evaluating
    /// `generation_step` point by point (`tests/sweep_regression.rs`).
    fn evaluate_row(grid: &SweepGrid, sims: &[ServingSimulator], row: usize) -> Vec<SweepRecord> {
        // A row is one contiguous block of the flat grid order; its first point
        // carries the row's (system, model, batch) coordinates.
        let (sys, m, b, _) = grid.indices(row * grid.seq_lens.len());
        let model = &grid.models[m];
        let batch = grid.batches[b];
        let step_fn = sims[sys].step_function(model, batch);
        grid.seq_lens
            .iter()
            .map(|&seq_len| {
                let step = step_fn.breakdown(seq_len);
                let throughput_tps = batch as f64 / (step.total_ns * 1e-9);
                let memory_bytes = step_fn.memory_bytes(seq_len);
                SweepRecord {
                    system: sys,
                    model: m,
                    batch,
                    seq_len,
                    step,
                    throughput_tps,
                    memory_bytes,
                }
            })
            .collect()
    }

    /// Evaluates every grid point and returns the records in grid order
    /// (seq-len fastest, then batch, model, system).
    pub fn run(&self, grid: &SweepGrid) -> Vec<SweepRecord> {
        if grid.is_empty() {
            return Vec::new();
        }
        // Rows never prefill, so the simulators need no cache.
        let sims: Vec<ServingSimulator> = grid
            .systems
            .iter()
            .map(|config| ServingSimulator::uncached(config.clone()))
            .collect();
        // Rows are evaluated in row order, which is grid order since seq-len
        // is the fastest-varying axis. No worker thread is started: spawning
        // and joining one costs about as much as evaluating 500 points
        // (~0.18 us each), and no grid size measured ran faster on two
        // threads than on one.
        let rows = grid.systems.len() * grid.models.len() * grid.batches.len();
        (0..rows)
            .flat_map(|row| Self::evaluate_row(grid, &sims, row))
            .collect()
    }
}

/// The largest batch size in `1..=max_batch` whose generation-step latency stays
/// within `slo_step_ms` milliseconds per token on `sim`, found by binary search
/// (step latency is monotone in the batch size). Returns `None` when even batch 1
/// misses the SLO.
///
/// This is the per-configuration capacity question behind the paper's Figure 12
/// methodology: "how many concurrent requests can this system serve at a given
/// token-latency target?"
pub fn max_batch_within_slo(
    sim: &ServingSimulator,
    model: &ModelConfig,
    seq_len: usize,
    slo_step_ms: f64,
    max_batch: usize,
) -> Option<usize> {
    let meets =
        |batch: usize| sim.generation_step(model, batch, seq_len).total_ns * 1e-6 <= slo_step_ms;
    if !meets(1) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, max_batch.max(1));
    if meets(hi) {
        return Some(hi);
    }
    // Invariant: lo meets the SLO, hi does not.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use pimba_models::config::{ModelFamily, ModelScale};

    fn small_grid() -> SweepGrid {
        SweepGrid {
            systems: vec![
                SystemConfig::small_scale(SystemKind::Gpu),
                SystemConfig::small_scale(SystemKind::Pimba),
            ],
            models: vec![
                ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small),
                ModelConfig::preset(ModelFamily::Opt, ModelScale::Small),
            ],
            batches: vec![16, 64],
            seq_lens: vec![512, 2048],
        }
    }

    #[test]
    fn grid_indexing_is_a_bijection() {
        let grid = small_grid();
        let mut seen = std::collections::HashSet::new();
        for i in 0..grid.len() {
            assert!(seen.insert(grid.indices(i)));
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn records_come_back_in_grid_order() {
        let grid = small_grid();
        let records = SweepRunner::new().with_threads(3).run(&grid);
        assert_eq!(records.len(), grid.len());
        for (i, record) in records.iter().enumerate() {
            let (sys, m, b, s) = grid.indices(i);
            assert_eq!((record.system, record.model), (sys, m));
            assert_eq!(
                (record.batch, record.seq_len),
                (grid.batches[b], grid.seq_lens[s])
            );
            assert!(record.throughput_tps > 0.0);
            assert!(record.memory_bytes > 0.0);
        }
    }

    #[test]
    fn builder_matches_literal_and_default_is_empty() {
        assert!(SweepGrid::default().is_empty());
        assert!(SweepGrid::new().is_empty());
        let lit = small_grid();
        let built = SweepGrid::new()
            .with_systems(lit.systems.clone())
            .with_models(lit.models.clone())
            .with_batches(lit.batches.clone())
            .with_seq_lens(lit.seq_lens.clone());
        assert_eq!(built.len(), lit.len());
        assert_eq!(built.batches, lit.batches);
        assert_eq!(built.seq_lens, lit.seq_lens);
        let runner = SweepRunner::default();
        assert_eq!(runner.threads(), SweepRunner::new().threads());
        assert_eq!(SweepRunner::new().with_threads(0).threads(), 1);
    }

    #[test]
    fn parallel_map_is_order_preserving_for_any_thread_count() {
        for threads in [0, 1, 2, 3, 7, 64] {
            let out = parallel_map(13, threads, |i| i * i);
            assert_eq!(out, (0..13).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn parallel_map_stays_ordered_under_skewed_per_item_costs() {
        // Heavily skewed work — a few items orders of magnitude more
        // expensive than the rest, in adversarial placements (front-loaded,
        // back-loaded, striped) — must neither reorder results nor deadlock
        // the dynamic chunk claiming.
        let cost = |i: usize| -> u64 {
            let spin = match i {
                0 | 1 => 40_000,          // front-loaded giants
                i if i >= 47 => 40_000,   // back-loaded giants
                i if i % 7 == 3 => 4_000, // striped mediums
                _ => 1,
            };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            i as u64 * 3 + 1
        };
        let expect: Vec<u64> = (0..50).map(cost).collect();
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(50, threads, cost), expect, "{threads} threads");
        }
    }

    #[test]
    fn empty_grid_is_empty_result() {
        let mut grid = small_grid();
        grid.batches.clear();
        assert!(grid.is_empty());
        assert!(SweepRunner::new().run(&grid).is_empty());
    }

    #[test]
    fn slo_search_is_monotone_and_tight() {
        let sim = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        // Pick an SLO between the latency of batch 1 and batch 512 so the search
        // lands strictly inside the range.
        let lo_ms = sim.generation_step(&model, 1, 2048).total_ns * 1e-6;
        let hi_ms = sim.generation_step(&model, 512, 2048).total_ns * 1e-6;
        assert!(hi_ms > lo_ms);
        let slo = (lo_ms + hi_ms) / 2.0;
        let best = max_batch_within_slo(&sim, &model, 2048, slo, 512).unwrap();
        assert!((1..512).contains(&best));
        assert!(sim.generation_step(&model, best, 2048).total_ns * 1e-6 <= slo);
        assert!(sim.generation_step(&model, best + 1, 2048).total_ns * 1e-6 > slo);
        // Impossible SLO -> None; infinitely lax SLO -> max_batch.
        assert_eq!(
            max_batch_within_slo(&sim, &model, 2048, lo_ms / 1e3, 512),
            None
        );
        assert_eq!(
            max_batch_within_slo(&sim, &model, 2048, hi_ms * 1e3, 512),
            Some(512)
        );
    }

    #[test]
    fn pimba_serves_more_batch_than_gpu_at_equal_slo() {
        let model = ModelConfig::preset(ModelFamily::RetNet, ModelScale::Small);
        let gpu = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Gpu));
        let pimba = ServingSimulator::new(SystemConfig::small_scale(SystemKind::Pimba));
        let slo = gpu.generation_step(&model, 64, 2048).total_ns * 1e-6;
        let gpu_cap = max_batch_within_slo(&gpu, &model, 2048, slo, 1024).unwrap();
        let pimba_cap = max_batch_within_slo(&pimba, &model, 2048, slo, 1024).unwrap();
        assert!(
            pimba_cap > gpu_cap,
            "Pimba capacity {pimba_cap} must exceed GPU capacity {gpu_cap}"
        );
    }
}
