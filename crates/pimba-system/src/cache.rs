//! The prefill latency cache of the serving simulator, plus the fast hasher
//! the memo and persist layers share.
//!
//! Event-driven traffic and fleet grids re-ask the same whole-prefill latency
//! — same model, batch and prompt length — across cells and replicas. The
//! [`LatencyCache`] memoizes it in one map behind one read-write lock, so one
//! simulator can be shared by the grid worker threads. The engine consults it
//! only when a session's dense prefill table misses, so the lock is taken
//! tens of times per grid cell, not once per step. Decode steps are not cached:
//! [`StepFunction`](crate::serving::StepFunction) and the dense
//! [`table`](crate::table)s already amortize them, and a per-operator lookup
//! costs more than the roofline recompute it would save.
//!
//! # Bit-identical by construction
//!
//! An entry stores the exact `f64` the uncached evaluation produced, and the
//! [`WorkloadKey`] covers every input of that evaluation: every model field,
//! the batch, the prompt length and the storage formats. Everything else that
//! influences a latency (GPU device, tensor-parallel width, …) is fixed per
//! simulator instance, and caches are never shared across differently
//! configured simulators. Cached and uncached runs are therefore bit-identical
//! — asserted by `tests/sweep_regression.rs`.

use pimba_models::config::ModelConfig;
use pimba_models::workload::StorageFormats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// FxHash-style multiply-rotate hasher.
///
/// Used by the prefill cache and by the memo and persist layers, whose keys
/// are fixed-width structs of trusted, non-adversarial integers, so a fast
/// non-cryptographic hash is the right trade over the default SipHash.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.add(tail);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Cache key of one prefill: the model, batch, prompt length and storage
/// formats.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadKey {
    family: pimba_models::config::ModelFamily,
    scale: pimba_models::config::ModelScale,
    n_layers: usize,
    n_attention_layers: usize,
    d_model: usize,
    n_heads: usize,
    dim_head: usize,
    dim_state: usize,
    ffn_mult_bits: u64,
    conv_width: usize,
    vocab_size: usize,
    batch: usize,
    seq_len: usize,
    formats: StorageFormats,
}

impl WorkloadKey {
    /// Builds the key for `model` at the given batch and sequence length.
    pub fn new(model: &ModelConfig, batch: usize, seq_len: usize, formats: StorageFormats) -> Self {
        // Exhaustive destructuring (no `..`): adding a field to `ModelConfig`
        // must fail to compile here, so it cannot be silently left out of the
        // cache key and cause cross-model collisions.
        let &ModelConfig {
            family,
            scale,
            n_layers,
            n_attention_layers,
            d_model,
            n_heads,
            dim_head,
            dim_state,
            ffn_mult,
            conv_width,
            vocab_size,
        } = model;
        Self {
            family,
            scale,
            n_layers,
            n_attention_layers,
            d_model,
            n_heads,
            dim_head,
            dim_state,
            ffn_mult_bits: ffn_mult.to_bits(),
            conv_width,
            vocab_size,
            batch,
            seq_len,
            formats,
        }
    }
}

/// Hit/miss/entry counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored the result).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// Whole-prefill latency memo shared by the simulators of one system
/// configuration, keyed by [`WorkloadKey`] at the prompt length.
///
/// Prefill always runs on the GPU and is a sum over every prefill operator,
/// so one entry saves a whole workload construction plus a kernel-model pass;
/// fleet and traffic grids re-ask the same `(batch, prompt)` prefills across
/// cells and replicas. One read-mostly map behind one lock: the engine asks
/// only when a session's [`PrefillLatencyTable`](crate::table::PrefillLatencyTable)
/// misses, never once per step, so grid workers rarely meet on it. Safe to
/// share across threads; cloning a [`crate::serving::ServingSimulator`]
/// shares its cache.
#[derive(Debug, Default)]
pub struct LatencyCache {
    prefills: RwLock<HashMap<WorkloadKey, f64, FxBuildHasher>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LatencyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a whole-prefill latency (keyed by model/batch/prompt-length/
    /// formats), computing and storing it on a miss. Reads take the shared
    /// lock; a miss computes outside the lock and takes the exclusive lock
    /// only to insert. When misses race on one key, the first insert wins and
    /// every racer returns its value.
    pub fn prefill_latency(&self, key: WorkloadKey, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(&value) = self.prefills.read().expect("cache lock poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        // A racing thread may have inserted the same key meanwhile: keep and
        // return its value, so every read of a key sees the same bits.
        *self
            .prefills
            .write()
            .expect("cache lock poisoned")
            .entry(key)
            .or_insert(value)
    }

    /// Hit/miss/entry counters.
    pub fn prefill_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.prefills.read().expect("cache lock poisoned").len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimba_models::config::{ModelFamily, ModelScale};

    fn key(prompt_len: usize) -> WorkloadKey {
        let model = ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small);
        WorkloadKey::new(&model, 8, prompt_len, StorageFormats::fp16())
    }

    #[test]
    fn second_lookup_hits_and_skips_compute() {
        let cache = LatencyCache::new();
        let a = cache.prefill_latency(key(512), || 42.0);
        let b = cache.prefill_latency(key(512), || panic!("must not recompute"));
        assert_eq!(a.to_bits(), b.to_bits());
        let stats = cache.prefill_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_costs_are_distinct_entries() {
        let cache = LatencyCache::new();
        cache.prefill_latency(key(512), || 1.0);
        cache.prefill_latency(key(1024), || 2.0);
        assert_eq!(cache.prefill_stats().entries, 2);
        assert_eq!(cache.prefill_latency(key(1024), || 0.0), 2.0);
    }

    #[test]
    fn concurrent_lookups_agree_and_count_every_call() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 64;
        const KEYS: usize = 16;
        let cache = LatencyCache::new();
        let start = std::sync::Barrier::new(THREADS);
        // Every thread walks the same keys in the same order from a common
        // start, and a miss computes slowly, so threads race on misses of the
        // same key. Each computes a value that names its thread: every read
        // must still return the first insert's bits.
        let reads: Vec<Vec<(usize, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (cache, start) = (&cache, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..ROUNDS)
                            .map(|round| {
                                let prompt = round % KEYS;
                                let value = cache.prefill_latency(key(prompt), || {
                                    std::thread::sleep(std::time::Duration::from_millis(1));
                                    prompt as f64 + thread as f64 / 8.0
                                });
                                (prompt, value.to_bits())
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen: HashMap<usize, u64> = HashMap::new();
        for (prompt, bits) in reads.into_iter().flatten() {
            assert_eq!(*seen.entry(prompt).or_insert(bits), bits, "prompt {prompt}");
        }
        let stats = cache.prefill_stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * ROUNDS) as u64);
        assert_eq!(stats.entries, KEYS);
    }
}
