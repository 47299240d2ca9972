//! In-memory spans around the benchmark's calls into each layer, and the
//! wall-time attribution derived from them.
//!
//! A span is (name, start, end, parent, job). Spans are kept in memory and
//! written out as JSONL when the run ends. Attribution sweeps the timeline:
//! in every interval between two span boundaries the wall time goes to the
//! innermost open spans (those with no open child), split evenly when
//! several run at once on different threads. A span's share is therefore its
//! self time, and the shares of all spans sum to the wall time they cover.

use netline::Json;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.run.jsq`.
    pub name: String,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job this span belongs to (0 for set-up and teardown).
    pub job: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-6
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured by the caller; returns its index.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start: self.ns(start),
            end: self.ns(end),
            parent,
            job,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span; `f` receives the span's index so that it can
    /// open children.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start = Instant::now();
        let id = self.record(name, parent, job, start, start);
        let value = f(id);
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[id].end = end;
        value
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time per span index, in milliseconds (see the module docs).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut bounds: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        bounds.push((s.start, true, i));
        bounds.push((s.end, false, i));
    }
    // Closings before openings at equal times keep back-to-back spans apart.
    bounds.sort_by_key(|&(t, open, i)| (t, open, i));
    let mut shares = vec![0.0; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut last = 0u64;
    for (t, opening, i) in bounds {
        if t > last && !open.is_empty() {
            let leaves: Vec<usize> = open
                .iter()
                .copied()
                .filter(|&s| !open.iter().any(|&o| spans[o].parent == Some(s)))
                .collect();
            let dt = (t - last) as f64 * 1e-6 / leaves.len() as f64;
            for s in leaves {
                shares[s] += dt;
            }
        }
        last = t;
        if opening {
            open.push(i);
        } else if let Some(pos) = open.iter().position(|&s| s == i) {
            open.swap_remove(pos);
        }
    }
    shares
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i64));
        out.push_str(
            &Json::obj(vec![
                ("id", Json::Int(id as i64)),
                ("name", Json::str(&s.name)),
                ("start_ns", Json::Int(s.start as i64)),
                ("end_ns", Json::Int(s.end as i64)),
                ("parent", parent),
                ("job", Json::Int(s.job as i64)),
            ])
            .render(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start: start * 1_000_000,
            end: end * 1_000_000,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_excludes_children_and_splits_overlap() {
        let spans = vec![
            span("root", 0, 10, None),
            span("a", 1, 5, Some(0)),
            span("b", 3, 7, Some(0)),
        ];
        let shares = self_times(&spans);
        // root: 0-1 and 7-10; a: 1-3 alone, 3-5 shared; b: 3-5 shared, 5-7.
        assert!((shares[0] - 4.0).abs() < 1e-9);
        assert!((shares[1] - 3.0).abs() < 1e-9);
        assert!((shares[2] - 3.0).abs() < 1e-9);
        assert!((shares.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }
}
