//! Disk persistence for content-addressed memo stores: a binary value codec
//! and a crash-safe append-only segment file.
//!
//! The [`MemoStore`](crate::memo::MemoStore) answers repeated what-ifs within
//! one process; this module makes the store survive restarts, so a daemon (or
//! a re-invoked bench) starts *warm*. Two pieces:
//!
//! * [`MemoValue`] — an exact binary codec. Every numeric field is written by
//!   bit pattern (`f64::to_bits`, little-endian words), so a value decoded
//!   from disk is **bit-identical** to the value that was encoded: the
//!   byte-identity guarantee of memoized results extends across restarts.
//! * [`SegmentFile`] — an append-only log of `(fingerprint, value)` records,
//!   each self-delimiting and checksummed. Loading scans records in order and
//!   stops at the first truncated or corrupt one (a crash mid-append leaves a
//!   partial tail; power loss can garble it), truncates the file back to the
//!   last good record, and resumes appending from there — so a store is never
//!   poisoned by its own crash. [`SegmentFile::rewrite`] replaces the log
//!   with a given set of records through a temp file and a rename; a memo
//!   store calls it at open when the load found superseded duplicates or
//!   records of an older schema.
//!
//! The segment format, stated once (all integers little-endian):
//!
//! ```text
//! record := fp_hi:u64  fp_lo:u64  len:u64  payload:[u8; len]  check:u64
//! check  := FxHash64(fp_hi ‖ fp_lo ‖ payload)
//! ```

use crate::cache::FxHasher;
use crate::memo::Fingerprint;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Exact binary codec for memo-store values. Implementations must round-trip
/// bit for bit: `decode(encode(v)) == v` with every float compared by bit
/// pattern. Encode through the [`ByteWriter`] helpers and decode through
/// [`ByteReader`] so both sides agree on widths and endianness.
pub trait MemoValue: Sized {
    /// Appends the value's exact binary image to `out`.
    fn encode(&self, out: &mut ByteWriter);
    /// Reconstructs a value, or `None` if the bytes don't parse (corrupt or
    /// from an incompatible schema — the loader just drops such records).
    fn decode(reader: &mut ByteReader<'_>) -> Option<Self>;
}

/// Append-side codec helper: fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends one `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends one `f64` by exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Read-side codec helper over one record's payload. Every reader returns
/// `None` past the end instead of panicking — a corrupt payload aborts the
/// decode, never the load.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// `true` when every byte has been consumed (decoders should check this
    /// via the loader's exact-consumption rule rather than individually).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    /// Reads one `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads one `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads one `usize` (rejects values beyond the platform's range).
    pub fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Reads one `f64` by exact bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed `Vec<T>` (length first, then each element).
    pub fn vec<T>(&mut self, mut element: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let len = self.usize()?;
        // A corrupt length can claim gigabytes; cap the up-front reservation
        // at what the remaining bytes could possibly hold (1 byte/element).
        let mut out = Vec::with_capacity(len.min(self.buf.len() - self.pos));
        for _ in 0..len {
            out.push(element(self)?);
        }
        Some(out)
    }
}

/// Encodes a `Vec<T>` as a length prefix plus each element.
pub fn encode_vec<T>(
    out: &mut ByteWriter,
    items: &[T],
    mut element: impl FnMut(&mut ByteWriter, &T),
) {
    out.usize(items.len());
    for item in items {
        element(out, item);
    }
}

impl MemoValue for u64 {
    fn encode(&self, out: &mut ByteWriter) {
        out.u64(*self);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
        reader.u64()
    }
}

impl MemoValue for f64 {
    fn encode(&self, out: &mut ByteWriter) {
        out.f64(*self);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Option<Self> {
        reader.f64()
    }
}

/// What a [`SegmentFile`] load recovered (and what it had to drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Intact records whose payload decoded (the rest count as
    /// `undecodable`).
    pub records: usize,
    /// Trailing bytes dropped: a partial record from a crash mid-append, or
    /// anything checksum-corrupt from the first bad record on.
    pub dropped_bytes: u64,
    /// Records whose payload failed to decode as the expected value type
    /// (checksum-valid but schema-incompatible; skipped, not fatal).
    pub undecodable: usize,
}

const RECORD_HEADER: usize = 24; // fp_hi + fp_lo + len
const RECORD_CHECK: usize = 8;

fn checksum(fp: Fingerprint, payload: &[u8]) -> u64 {
    let (hi, lo) = fp.words();
    let mut hasher = FxHasher::default();
    hasher.write_u64(hi);
    hasher.write_u64(lo);
    hasher.write(payload);
    hasher.finish()
}

/// Appends one framed record (see the module docs) to `out`.
fn frame(fp: Fingerprint, payload: &[u8], out: &mut Vec<u8>) {
    let (hi, lo) = fp.words();
    out.reserve(RECORD_HEADER + payload.len() + RECORD_CHECK);
    out.extend_from_slice(&hi.to_le_bytes());
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(fp, payload).to_le_bytes());
}

/// A crash-safe append-only log of `(fingerprint, payload)` records — the
/// disk backend of a persistent [`MemoStore`](crate::memo::MemoStore).
///
/// Records superseded by a later append of the same fingerprint, and
/// records whose payload no longer decodes under the current schema, stay in
/// the log until [`SegmentFile::rewrite`] replaces it (the memo store does so
/// when its open finds any).
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    path: PathBuf,
    /// Total on-disk bytes of the (truncated-clean) log.
    len_bytes: u64,
    /// Set when a failed append could not be cut back off the file: the log
    /// may end in a partial record, so nothing more is appended to it.
    stopped: bool,
}

impl SegmentFile {
    /// Opens (creating if absent) the segment at `path`, replays every intact
    /// record into `sink`, truncates any corrupt or partial tail, and returns
    /// the file positioned for appending plus a [`LoadReport`] of what was
    /// recovered. `sink` receives `(fingerprint, payload)` for each record
    /// whose checksum verifies, and returns whether the payload decoded.
    pub fn open(
        path: &Path,
        mut sink: impl FnMut(Fingerprint, &[u8]) -> bool,
    ) -> std::io::Result<(Self, LoadReport)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let mut report = LoadReport::default();
        let mut pos = 0usize;
        while data.len() - pos >= RECORD_HEADER + RECORD_CHECK {
            let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
            let fp = Fingerprint::from_words(word(pos), word(pos + 8));
            let len = word(pos + 16) as usize;
            let Some(end) = pos
                .checked_add(RECORD_HEADER)
                .and_then(|p| p.checked_add(len))
                .and_then(|p| p.checked_add(RECORD_CHECK))
            else {
                break; // absurd length: corrupt header
            };
            if end > data.len() {
                break; // partial tail (crash mid-append)
            }
            let payload = &data[pos + RECORD_HEADER..pos + RECORD_HEADER + len];
            if word(end - RECORD_CHECK) != checksum(fp, payload) {
                break; // corrupt record: everything after it is suspect
            }
            if sink(fp, payload) {
                report.records += 1;
            } else {
                report.undecodable += 1;
            }
            pos = end;
        }
        report.dropped_bytes = (data.len() - pos) as u64;
        if report.dropped_bytes > 0 {
            // Cut the bad tail off so future appends extend a clean log.
            file.set_len(pos as u64)?;
        }
        // Position at the (possibly new) end for appending.
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                len_bytes: pos as u64,
                stopped: false,
            },
            report,
        ))
    }

    /// Appends one record. The write is a single `write_all` of the fully
    /// assembled record, so a crash leaves at most one partial tail record —
    /// exactly what [`SegmentFile::open`] tolerates.
    ///
    /// A write that fails part-way (a full disk, a file-size limit) leaves
    /// no partial record behind: the file is cut back to its last whole
    /// record, so later appends still load after a reopen. If that cut fails
    /// too, this and every later append return an error without writing.
    pub fn append(&mut self, fp: Fingerprint, payload: &[u8]) -> std::io::Result<()> {
        use std::io::{Seek, SeekFrom};
        let _io = crate::obs::profile_phase("persist_io");
        if self.stopped {
            return Err(std::io::Error::other(
                "segment stopped appending after a failed rollback",
            ));
        }
        let mut record = Vec::new();
        frame(fp, payload, &mut record);
        if let Err(err) = self.file.write_all(&record) {
            let rollback = self
                .file
                .set_len(self.len_bytes)
                .and_then(|()| self.file.seek(SeekFrom::Start(self.len_bytes)));
            self.stopped = rollback.is_err();
            return Err(err);
        }
        self.len_bytes += record.len() as u64;
        Ok(())
    }

    /// Total bytes of the log.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Atomically replaces the log with exactly `records`. Crash-safe by
    /// construction: the new log is fully written and fsynced to
    /// `<path>.tmp`, then renamed over the old one — a crash at any instant
    /// leaves either the old log intact or the new one complete, never a
    /// mix. The handle resumes appending to the new log.
    pub fn rewrite(
        &mut self,
        records: impl Iterator<Item = (Fingerprint, Vec<u8>)>,
    ) -> std::io::Result<()> {
        let mut tmp_name = self.path.clone().into_os_string();
        tmp_name.push(".tmp");
        let tmp_path = PathBuf::from(tmp_name);
        let mut log = Vec::new();
        for (fp, payload) in records {
            frame(fp, &payload, &mut log);
        }
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&log)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename is durable only once its directory is synced.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        self.file = file;
        self.len_bytes = log.len() as u64;
        self.stopped = false;
        Ok(())
    }

    /// Forces appended records to stable storage (fsync).
    pub fn sync(&mut self) -> std::io::Result<()> {
        let _io = crate::obs::profile_phase("persist_io");
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::FingerprintBuilder;

    fn fp(n: u64) -> Fingerprint {
        FingerprintBuilder::new().u64(n).finish()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pimba_persist_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("seg")
    }

    fn collect(path: &Path) -> (Vec<(Fingerprint, Vec<u8>)>, LoadReport) {
        let mut seen = Vec::new();
        let (_, report) = SegmentFile::open(path, |fp, payload| {
            seen.push((fp, payload.to_vec()));
            true
        })
        .unwrap();
        (seen, report)
    }

    #[test]
    fn append_reload_roundtrip() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let (mut seg, report) = SegmentFile::open(&path, |_, _| true).unwrap();
            assert_eq!(report, LoadReport::default());
            seg.append(fp(1), b"alpha").unwrap();
            seg.append(fp(2), b"").unwrap();
            seg.append(fp(3), b"gamma-payload").unwrap();
        }
        let (seen, report) = collect(&path);
        assert_eq!(report.records, 3);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(seen[0], (fp(1), b"alpha".to_vec()));
        assert_eq!(seen[1], (fp(2), Vec::new()));
        assert_eq!(seen[2], (fp(3), b"gamma-payload".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_tail_is_dropped_and_log_stays_appendable() {
        let path = temp_path("partial");
        std::fs::remove_file(&path).ok();
        {
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
            seg.append(fp(1), b"keep-me").unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let good_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB; 13]).unwrap();
        }
        let (seen, report) = collect(&path);
        assert_eq!(report.records, 1);
        assert_eq!(report.dropped_bytes, 13);
        assert_eq!(seen.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);

        // The truncated log accepts appends and reloads cleanly.
        {
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
            seg.append(fp(9), b"after-crash").unwrap();
        }
        let (seen, report) = collect(&path);
        assert_eq!(report.records, 2);
        assert_eq!(report.dropped_bytes, 0);
        assert_eq!(seen[1], (fp(9), b"after-crash".to_vec()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_the_load_at_the_last_good_one() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        {
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
            seg.append(fp(1), b"good").unwrap();
            seg.append(fp(2), b"to-be-flipped").unwrap();
        }
        // Flip one payload byte of the second record.
        let mut data = std::fs::read(&path).unwrap();
        let second_payload = RECORD_HEADER + 4 + RECORD_CHECK + RECORD_HEADER;
        data[second_payload] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();

        let (seen, report) = collect(&path);
        assert_eq!(report.records, 1);
        assert!(report.dropped_bytes > 0);
        assert_eq!(seen[0].1, b"good".to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_keeps_exactly_the_given_records_and_stays_appendable() {
        let path = temp_path("rewrite");
        std::fs::remove_file(&path).ok();
        let (mut seg, _) = SegmentFile::open(&path, |_, _| true).unwrap();
        seg.append(fp(1), b"first").unwrap();
        seg.append(fp(2), b"other").unwrap();
        seg.append(fp(1), b"newer-and-longer").unwrap();
        seg.append(fp(9), b"unreadable").unwrap();
        let kept = vec![
            (fp(1), b"newer-and-longer".to_vec()),
            (fp(2), b"other".to_vec()),
        ];
        seg.rewrite(kept.clone().into_iter()).unwrap();
        let framed = |payload: &[u8]| (RECORD_HEADER + payload.len() + RECORD_CHECK) as u64;
        let expected = framed(b"newer-and-longer") + framed(b"other");
        assert_eq!(seg.len_bytes(), expected);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), expected);

        // The rewritten log is a normal log: appendable and reloadable.
        seg.append(fp(3), b"post-rewrite").unwrap();
        drop(seg);
        let (seen, report) = collect(&path);
        assert_eq!(
            report,
            LoadReport {
                records: 3,
                dropped_bytes: 0,
                undecodable: 0
            }
        );
        let mut expected = kept;
        expected.push((fp(3), b"post-rewrite".to_vec()));
        assert_eq!(seen, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_codec_roundtrips_primitives_exactly() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(0.1 + 0.2);
        w.usize(7);
        w.u32(u32::MAX - 1);
        w.u8(250);
        encode_vec(&mut w, &[1.5f64, -2.5], |w, v| w.f64(*v));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f64(), Some(0.1 + 0.2));
        assert_eq!(r.usize(), Some(7));
        assert_eq!(r.u32(), Some(u32::MAX - 1));
        assert_eq!(r.u8(), Some(250));
        assert_eq!(r.vec(|r| r.f64()), Some(vec![1.5, -2.5]));
        assert!(r.is_exhausted());
        assert_eq!(r.u64(), None, "reads past the end return None");
    }
}
