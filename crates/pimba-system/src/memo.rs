//! Content-addressed result memoization for what-if grids.
//!
//! A sweep grid re-evaluated with one knob changed re-simulates every cell
//! from scratch today, even though most cells' inputs — trace, system, model,
//! policy, engine knobs — are unchanged. This module provides the two halves
//! of making such grids incremental, in the style of compile-time memoization
//! frameworks (typst's `comemo`): a [`Fingerprint`] builder that folds a
//! cell's *complete* input identity into a 128-bit content address, and a
//! concurrent [`MemoStore`] mapping fingerprints to shared results.
//!
//! Correctness rests on the callers' discipline, stated here once: a stored
//! value must be a **pure function of its fingerprinted inputs**, and the
//! fingerprint must cover *every* input that can change the value (the grid
//! runners fold in the full `Debug` rendering of their configs plus the key
//! of the cell's trace, made from the generator's inputs and version).
//! Simulation outputs are deterministic
//! bit-for-bit, so a hit returns exactly the bytes a fresh simulation would
//! produce — asserted by the warm-grid tests and the `fleet_parallel` bench
//! gate on every run.
//!
//! A store opened with [`MemoStore::persistent`] mirrors its entries into a
//! segment file ([`crate::persist`]). Its open is also its only maintenance:
//! a segment holding superseded duplicates or records of an older schema is
//! rewritten to the live entries right there, with no threshold to tune.

use crate::cache::FxHasher;
use crate::persist::{ByteReader, ByteWriter, LoadReport, MemoValue, SegmentFile};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A 128-bit content address built by folding inputs into two independent
/// [`FxHasher`] streams (one seeded, one not): wide enough that grid-scale
/// collisions are out of reach for the multiply-rotate mixer, cheap enough to
/// hash a million-request trace in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64, u64);

impl Fingerprint {
    /// The two raw 64-bit words — the on-disk identity of a persisted entry.
    pub fn words(self) -> (u64, u64) {
        (self.0, self.1)
    }

    /// Rebuilds a fingerprint from its raw words (the inverse of
    /// [`Fingerprint::words`]; used by the segment-file loader).
    pub fn from_words(hi: u64, lo: u64) -> Self {
        Self(hi, lo)
    }
}

/// Incremental builder of a [`Fingerprint`].
#[derive(Debug, Default)]
pub struct FingerprintBuilder {
    a: FxHasher,
    b: FxHasher,
}

impl FingerprintBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        let mut b = FxHasher::default();
        // Decorrelate the second stream with a fixed salt so the two words
        // are independent functions of the input.
        b.write_u64(0x9E37_79B9_7F4A_7C15);
        Self {
            a: FxHasher::default(),
            b,
        }
    }

    /// Folds raw bytes (also the funnel for `&str`).
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        self.a.write(bytes);
        self.b.write(bytes);
        self
    }

    /// Folds one `u64`.
    pub fn u64(mut self, value: u64) -> Self {
        self.a.write_u64(value);
        self.b.write_u64(value);
        self
    }

    /// Folds one `usize`.
    pub fn usize(self, value: usize) -> Self {
        self.u64(value as u64)
    }

    /// Folds one `f64` by exact bit pattern (distinguishes `-0.0` from
    /// `0.0` — fingerprints address *bits*, not values).
    pub fn f64(self, value: f64) -> Self {
        self.u64(value.to_bits())
    }

    /// Folds a value's `Debug` rendering — the catch-all for config structs,
    /// which render every field and are tiny compared to traces.
    pub fn debug(self, value: &impl std::fmt::Debug) -> Self {
        self.bytes(format!("{value:?}").as_bytes())
    }

    /// Folds another fingerprint, such as the key of a shared input.
    pub fn fingerprint(self, value: Fingerprint) -> Self {
        self.u64(value.0).u64(value.1)
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.a.finish(), self.b.finish())
    }
}

/// Hit/miss counters of one [`MemoStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that had to compute (and then stored the result).
    pub misses: u64,
}

/// A concurrent content-addressed store: [`Fingerprint`] → `Arc<V>`.
///
/// Reads take a shared lock; a miss computes *outside* any lock (concurrent
/// misses of the same key may compute twice — both produce identical bytes
/// by the purity contract, and the first insert wins) and publishes under the
/// write lock. Values return as [`Arc`] clones, so warm hits are
/// allocation-free.
///
/// A store built with [`MemoStore::persistent`] additionally mirrors every
/// published entry into an append-only [`SegmentFile`], and starts pre-warmed
/// with whatever an earlier process persisted — the cross-restart half of the
/// byte-identity guarantee (values round-trip through the exact
/// [`MemoValue`] codec, so a disk hit returns the same bits a fresh
/// simulation would).
#[derive(Debug)]
pub struct MemoStore<V> {
    map: RwLock<HashMap<Fingerprint, Arc<V>, BuildHasherDefault<FxHasher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk: Option<DiskBacking<V>>,
}

/// The disk half of a persistent store: the open segment plus the monomorphic
/// encode hook captured at construction (keeps `MemoStore<V>`'s other methods
/// free of `V: MemoValue` bounds).
struct DiskBacking<V> {
    segment: Mutex<SegmentFile>,
    encode: fn(&V, &mut ByteWriter),
    load: LoadReport,
    /// Appends that failed (the entry stayed in memory only).
    append_errors: AtomicU64,
}

impl<V> std::fmt::Debug for DiskBacking<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskBacking")
            .field("load", &self.load)
            .finish()
    }
}

// Manual impl: the derive would demand `V: Default`, which an empty store
// never needs.
impl<V> Default for MemoStore<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> MemoStore<V> {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk: None,
        }
    }

    /// Opens a store backed by the append-only segment at `path`: entries an
    /// earlier process persisted are loaded up front (corrupt or partial
    /// tails are truncated away — see [`SegmentFile::open`]), and every entry
    /// published from now on is appended. Records whose payload no longer
    /// decodes as `V` are skipped, not fatal. When the load skipped any, or
    /// found a fingerprint recorded twice, the segment is rewritten to the
    /// live entries sorted by fingerprint ([`SegmentFile::rewrite`]), so a
    /// reopened store never carries dead records.
    pub fn persistent(path: &Path) -> std::io::Result<Self>
    where
        V: MemoValue,
    {
        let mut map: HashMap<Fingerprint, Arc<V>, BuildHasherDefault<FxHasher>> =
            HashMap::default();
        let (mut segment, load) = SegmentFile::open(path, |fp, payload| {
            let mut reader = ByteReader::new(payload);
            match V::decode(&mut reader) {
                // Exact consumption: trailing junk means a schema mismatch.
                Some(value) if reader.is_exhausted() => {
                    map.insert(fp, Arc::new(value));
                    true
                }
                _ => false,
            }
        })?;
        if load.undecodable > 0 || map.len() < load.records {
            let mut live: Vec<(Fingerprint, Vec<u8>)> = map
                .iter()
                .map(|(&fp, value)| {
                    let mut writer = ByteWriter::new();
                    value.encode(&mut writer);
                    (fp, writer.into_bytes())
                })
                .collect();
            // Deterministic on-disk order, independent of hash-map iteration.
            live.sort_unstable_by_key(|&(fp, _)| fp.words());
            segment.rewrite(live.into_iter())?;
        }
        Ok(Self {
            map: RwLock::new(map),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk: Some(DiskBacking {
                segment: Mutex::new(segment),
                encode: V::encode,
                load,
                append_errors: AtomicU64::new(0),
            }),
        })
    }

    /// What the persistent backend recovered at open (`None` for in-memory
    /// stores).
    pub fn load_report(&self) -> Option<LoadReport> {
        self.disk.as_ref().map(|d| d.load)
    }

    /// Forces persisted entries to stable storage (no-op for in-memory
    /// stores).
    pub fn sync(&self) -> std::io::Result<()> {
        if let Some(disk) = &self.disk {
            disk.segment.lock().expect("memo segment poisoned").sync()?;
        }
        Ok(())
    }

    /// Total bytes of the backing segment (`0` for in-memory stores) — the
    /// size a `serviced` `stats` response reports per segment.
    pub fn len_bytes(&self) -> u64 {
        match &self.disk {
            Some(disk) => disk
                .segment
                .lock()
                .expect("memo segment poisoned")
                .len_bytes(),
            None => 0,
        }
    }

    /// Appends to the backing segment that failed (`0` for in-memory
    /// stores): entries held in memory but not persisted.
    pub fn append_errors(&self) -> u64 {
        self.disk
            .as_ref()
            .map_or(0, |disk| disk.append_errors.load(Ordering::Relaxed))
    }

    /// The stored value for `key`, if present.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<V>> {
        let _lookup = crate::obs::profile_phase("memo_lookup");
        let found = self
            .map
            .read()
            .expect("memo store poisoned")
            .get(&key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The value for `key`, computing and publishing it on a miss. A
    /// persistent store appends the entry to its segment the moment it wins
    /// publication (the losing side of a concurrent duplicate compute writes
    /// nothing).
    pub fn get_or_insert_with(&self, key: Fingerprint, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(value) = self.get(key) {
            return value;
        }
        let value = Arc::new(compute());
        let mut map = self.map.write().expect("memo store poisoned");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                if let Some(disk) = &self.disk {
                    let mut writer = ByteWriter::new();
                    (disk.encode)(&value, &mut writer);
                    // Best-effort persistence: a full disk degrades the store
                    // to in-memory for this entry rather than failing the
                    // computation that just succeeded; the failure is counted.
                    let appended = disk
                        .segment
                        .lock()
                        .expect("memo segment poisoned")
                        .append(key, &writer.into_bytes());
                    if appended.is_err() {
                        disk.append_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                e.insert(value).clone()
            }
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.read().expect("memo store poisoned").len()
    }

    /// Every stored fingerprint, sorted by its `(hi, lo)` words — a
    /// deterministic enumeration order regardless of hash-map iteration.
    pub fn keys(&self) -> Vec<Fingerprint> {
        let mut keys: Vec<Fingerprint> = self
            .map
            .read()
            .expect("memo store poisoned")
            .keys()
            .copied()
            .collect();
        keys.sort_by_key(|fp| fp.words());
        keys
    }

    /// `true` when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(parts: &[u64]) -> Fingerprint {
        parts
            .iter()
            .fold(FingerprintBuilder::new(), |b, &p| b.u64(p))
            .finish()
    }

    #[test]
    fn fingerprints_are_deterministic_and_input_sensitive() {
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 2, 4]));
        assert_ne!(fp(&[1, 2]), fp(&[2, 1]), "order matters");
        let a = FingerprintBuilder::new().f64(0.0).finish();
        let b = FingerprintBuilder::new().f64(-0.0).finish();
        assert_ne!(a, b, "bit-level addressing distinguishes signed zero");
        assert_ne!(
            FingerprintBuilder::new().debug(&(1, 2)).finish(),
            FingerprintBuilder::new().debug(&(2, 1)).finish()
        );
    }

    #[test]
    fn store_hits_after_first_compute() {
        let store: MemoStore<Vec<u32>> = MemoStore::new();
        let key = fp(&[42]);
        let mut computes = 0;
        for _ in 0..3 {
            let v = store.get_or_insert_with(key, || {
                computes += 1;
                vec![1, 2, 3]
            });
            assert_eq!(*v, vec![1, 2, 3]);
        }
        assert_eq!(computes, 1);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert!(store.get(fp(&[43])).is_none());
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn persistent_store_survives_restart_with_identical_bits() {
        let dir = std::env::temp_dir().join(format!("pimba_memo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist_roundtrip.seg");
        std::fs::remove_file(&path).ok();

        let awkward = 0.1 + 0.2;
        {
            let store: MemoStore<f64> = MemoStore::persistent(&path).unwrap();
            assert_eq!(store.load_report().unwrap().records, 0);
            store.get_or_insert_with(fp(&[1]), || awkward);
            store.get_or_insert_with(fp(&[2]), || -0.0);
            store.sync().unwrap();
        }
        // "Restart": a fresh process image opens the same segment.
        let store: MemoStore<f64> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.dropped_bytes), (2, 0));
        assert_eq!(store.len(), 2);
        let mut computes = 0;
        let v = store.get_or_insert_with(fp(&[1]), || {
            computes += 1;
            awkward
        });
        assert_eq!(computes, 0, "warm disk hit must not recompute");
        assert_eq!(v.to_bits(), awkward.to_bits());
        assert_eq!(store.get(fp(&[2])).unwrap().to_bits(), (-0.0f64).to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persistent_store_tolerates_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("pimba_memo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist_torn.seg");
        std::fs::remove_file(&path).ok();
        {
            let store: MemoStore<u64> = MemoStore::persistent(&path).unwrap();
            store.get_or_insert_with(fp(&[7]), || 77);
        }
        // A crash mid-append leaves a partial record.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x5A; 9]).unwrap();
        }
        let store: MemoStore<u64> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.dropped_bytes), (1, 9));
        assert_eq!(*store.get(fp(&[7])).unwrap(), 77);
        std::fs::remove_file(&path).ok();
    }

    /// A value of any encoded size, for appends that cross a file-size cap.
    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl MemoValue for Blob {
        fn encode(&self, out: &mut ByteWriter) {
            crate::persist::encode_vec(out, &self.0, |w, &b| w.u8(b));
        }
        fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
            reader.vec(|r| r.u8()).map(Blob)
        }
    }

    /// An append that fails part-way must not cost the records appended
    /// after it. The appends run in a child process (this test binary,
    /// re-run on this test alone) whose `RLIMIT_FSIZE` caps files at
    /// `CAP` bytes: the limit is per process, and would break other tests'
    /// writes here. A fits under the cap, B is cut short at it, and C fits
    /// again only once B's partial bytes are cut back off. The parent then
    /// reopens the segment with no cap: A and C load, B does not.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn failed_append_keeps_later_records() {
        use std::os::unix::process::CommandExt;

        const CAP: u64 = 4096;
        const RLIMIT_FSIZE: i32 = 1;
        const SIGXFSZ: i32 = 25;
        const SIG_IGN: usize = 1;
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
            fn signal(signum: i32, handler: usize) -> usize;
        }

        let mut limit = RLimit { cur: 0, max: 0 };
        // SAFETY: `getrlimit` writes only the struct it is handed.
        assert_eq!(unsafe { getrlimit(RLIMIT_FSIZE, &mut limit) }, 0);
        let child = limit.cur == CAP;
        let owner = if child {
            std::os::unix::process::parent_id()
        } else {
            std::process::id()
        };
        let dir = std::env::temp_dir().join(format!("pimba_memo_{owner}"));
        let path = dir.join("append_failure.seg");
        let small = |byte: u8| Blob(vec![byte; 100]);

        if child {
            let store: MemoStore<Blob> = MemoStore::persistent(&path).unwrap();
            store.get_or_insert_with(fp(&[1]), || small(0xA));
            store.get_or_insert_with(fp(&[2]), || Blob(vec![0xB; 2 * CAP as usize]));
            store.get_or_insert_with(fp(&[3]), || small(0xC));
            assert_eq!(store.append_errors(), 1, "only B failed");
            store.sync().unwrap();
            return;
        }

        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).ok();
        let module = module_path!().split_once("::").unwrap().1;
        let mut command = std::process::Command::new(std::env::current_exe().unwrap());
        command.args([
            &format!("{module}::failed_append_keeps_later_records"),
            "--exact",
            "--test-threads=1",
        ]);
        let capped = RLimit {
            cur: CAP,
            max: limit.max,
        };
        // SAFETY: the hook runs between fork and exec and calls only
        // `setrlimit` and `signal`, both async-signal-safe.
        unsafe {
            command.pre_exec(move || {
                if setrlimit(RLIMIT_FSIZE, &capped) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                // Writes past the cap fail with EFBIG instead of killing.
                signal(SIGXFSZ, SIG_IGN);
                Ok(())
            });
        }
        let output = command.output().unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success() && stdout.contains("1 passed"),
            "capped child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );

        let store: MemoStore<Blob> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.dropped_bytes), (2, 0));
        assert_eq!(store.get(fp(&[1])).as_deref(), Some(&small(0xA)));
        assert!(store.get(fp(&[2])).is_none());
        assert_eq!(store.get(fp(&[3])).as_deref(), Some(&small(0xC)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_dead_records_and_preserves_live_bits() {
        use crate::persist::SegmentFile;
        let dir = std::env::temp_dir().join(format!("pimba_memo_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist_compact.seg");
        std::fs::remove_file(&path).ok();

        // Seed a log with a superseded duplicate and an undecodable record
        // (an f64 store expects exactly 8 payload bytes).
        let enc = |v: f64| v.to_bits().to_le_bytes().to_vec();
        let (one, two) = (fp(&[1]), fp(&[2]));
        {
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
            seg.append(one, &enc(1.5)).unwrap();
            seg.append(one, &enc(1.5)).unwrap();
            seg.append(two, &enc(-0.0)).unwrap();
            seg.append(fp(&[3]), b"junk").unwrap();
        }

        // Opening the store rewrites the log to exactly the live entries,
        // sorted by fingerprint, bit for bit.
        let store: MemoStore<f64> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.undecodable), (3, 1));
        assert_eq!(store.len(), 2);
        drop(store);
        let mut live = vec![(one, enc(1.5)), (two, enc(-0.0))];
        live.sort_by_key(|&(fp, _)| fp.words());
        let mut on_disk = Vec::new();
        SegmentFile::open(&path, |fp, payload| {
            on_disk.push((fp, payload.to_vec()));
            true
        })
        .unwrap();
        assert_eq!(on_disk, live);

        // A clean log opens as is: nothing undecodable, no rewrite.
        let len = std::fs::metadata(&path).unwrap().len();
        let store: MemoStore<f64> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.undecodable), (2, 0));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(store.get(one).unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(store.get(two).unwrap().to_bits(), (-0.0f64).to_bits());
        drop(store);

        // A duplicate alone, with every record decodable, is rewritten too.
        {
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
            seg.append(two, &enc(-0.0)).unwrap();
        }
        let store: MemoStore<f64> = MemoStore::persistent(&path).unwrap();
        let report = store.load_report().unwrap();
        assert_eq!((report.records, report.undecodable), (3, 0));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_mixed_keys_converge() {
        let store: std::sync::Arc<MemoStore<u64>> = Default::default();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let key = fp(&[i % 8]);
                        let v = store.get_or_insert_with(key, || (i % 8) * 10);
                        assert_eq!(*v, (i % 8) * 10, "thread {t}");
                    }
                });
            }
        });
        assert_eq!(store.len(), 8);
    }
}
