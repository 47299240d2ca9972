//! Grid-run plumbing of `pimba-serve`'s grid runner, and the
//! SLO batch-capacity search.
//!
//! [`parallel_map`] is the workspace's one fork-join fan-out, over
//! [`available_cores`] worker threads by default; [`RunControl`] carries a
//! run's progress callback, cancellation flag and metrics hub.
//! [`max_batch_within_slo`] answers the Figure 12 capacity question for one
//! configuration.

use crate::serving::ServingSimulator;
use pimba_models::config::ModelConfig;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Cooperative execution control for a long grid run: an optional per-cell
/// progress callback and an optional cancellation flag, polled between cells.
/// The vocabulary a serving daemon needs to stream progress and honor
/// cancellations/timeouts without threading callbacks through every runner
/// signature — the grid runner accepts one in its `run_controlled` entry
/// point.
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
/// iterator): `pimba-serve`'s `run_grid` partitions the cells of every
/// traffic and fleet grid over it. `eval` must be deterministic per index for
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

/// The number of cores this process may run on: the default worker-thread
/// count of `pimba-serve`'s grid runner. Read once per process, since
/// daemons build a runner per job and the query costs a syscall; at least 1.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
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
    use crate::config::{SystemConfig, SystemKind};
    use pimba_models::config::{ModelFamily, ModelScale};

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
