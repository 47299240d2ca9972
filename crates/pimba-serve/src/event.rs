//! The discrete-event core: the engine's single-flight event source.
//!
//! Simulated time is `f64` nanoseconds. Events at equal times pop in insertion
//! order (a monotone sequence number breaks ties), so a simulation is a pure
//! function of its inputs — the foundation of the bit-identical-across-threads
//! guarantee the traffic runner advertises. Every engine run, per-step oracle
//! included, pops from [`SingleFlightEvents`]; the tests hold its pop order
//! to a general binary-heap queue.

use std::cmp::Ordering;

/// What happened at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Request `.0` (an index into the trace) arrived and joins the wait queue.
    Arrival(usize),
    /// The engine's in-flight work item (a prefill batch or one step) finished.
    WorkDone,
}

/// A scheduled event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated timestamp in nanoseconds.
    pub time_ns: f64,
    /// Insertion sequence number — the deterministic tie-breaker.
    seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want earliest-first.
        other
            .time_ns
            .total_cmp(&self.time_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event source of every engine run.
///
/// The serving engine holds at most **one** work item in flight, and every
/// other event is a trace arrival whose timestamp is known before the
/// simulation starts. The binary heap therefore collapses to a cursor over
/// the time-sorted arrival order merged with a single pending-work slot:
/// `pop`/`push` are a comparison and a field write instead of `O(log n)`
/// sift operations against a heap holding every future arrival.
///
/// Ordering is identical to a binary-heap queue loaded with the same arrivals
/// first: arrivals are sorted stably by timestamp (equal times keep trace
/// order, matching the heap's insertion-sequence tie-break), and an arrival
/// ties ahead of a simultaneous `WorkDone` (its insertion sequence is always
/// lower, since all arrivals are pushed before any work completes).
#[derive(Debug)]
pub struct SingleFlightEvents {
    /// Arrival timestamps in pop order.
    times: Vec<f64>,
    /// Trace index of each arrival, parallel to `times`.
    ids: Vec<u32>,
    cursor: usize,
    pending_work_ns: Option<f64>,
}

impl SingleFlightEvents {
    /// Builds the source from arrival times in trace order.
    pub fn new(arrivals: &[f64]) -> Self {
        assert!(
            arrivals.iter().all(|t| t.is_finite()),
            "event times must be finite"
        );
        assert!(arrivals.len() <= u32::MAX as usize, "trace too large");
        let mut ids: Vec<u32> = (0..arrivals.len() as u32).collect();
        ids.sort_by(|&a, &b| arrivals[a as usize].total_cmp(&arrivals[b as usize]));
        let times = ids.iter().map(|&i| arrivals[i as usize]).collect();
        Self {
            times,
            ids,
            cursor: 0,
            pending_work_ns: None,
        }
    }

    /// An empty source for incremental co-simulation: arrivals are appended
    /// one at a time via [`SingleFlightEvents::push_arrival`] as an external
    /// driver (the fleet simulator's front-door router) hands them over.
    pub fn empty() -> Self {
        Self {
            times: Vec::new(),
            ids: Vec::new(),
            cursor: 0,
            pending_work_ns: None,
        }
    }

    /// Appends one arrival. Appended times must be non-decreasing — the
    /// cluster driver injects arrivals in global time order — which keeps the
    /// cursor merge identical to a heap loaded with the same sequence (and,
    /// unlike a heap, preserves the arrival-wins-ties rule even for arrivals
    /// appended *after* the tying work completion was scheduled).
    ///
    /// # Panics
    /// If `time_ns` is not finite or precedes the last appended arrival.
    pub fn push_arrival(&mut self, time_ns: f64, id: usize) {
        assert!(time_ns.is_finite(), "event times must be finite");
        if let Some(&last) = self.times.last() {
            assert!(
                time_ns >= last,
                "arrivals must be appended in time order ({time_ns} < {last})"
            );
        }
        assert!(id <= u32::MAX as usize, "arrival id too large");
        self.times.push(time_ns);
        self.ids.push(id as u32);
    }

    /// Schedules the one in-flight work item's completion.
    ///
    /// # Panics
    /// If a work completion is already pending — the engine's single-flight
    /// invariant would be violated.
    pub fn push_work(&mut self, time_ns: f64) {
        assert!(time_ns.is_finite(), "event times must be finite");
        assert!(
            self.pending_work_ns.is_none(),
            "single-flight violation: a work completion is already pending"
        );
        self.pending_work_ns = Some(time_ns);
    }

    /// Removes and returns the earliest event (arrivals win ties).
    pub fn pop(&mut self) -> Option<Event> {
        let arrival = self.times.get(self.cursor).copied();
        match (arrival, self.pending_work_ns) {
            (Some(a), work) if work.is_none_or(|w| a <= w) => {
                let id = self.ids[self.cursor] as usize;
                self.cursor += 1;
                Some(Event {
                    time_ns: a,
                    seq: self.cursor as u64,
                    kind: EventKind::Arrival(id),
                })
            }
            (_, Some(w)) => {
                self.pending_work_ns = None;
                Some(Event {
                    time_ns: w,
                    seq: u64::MAX,
                    kind: EventKind::WorkDone,
                })
            }
            _ => None,
        }
    }

    /// Pops the earliest event strictly before `horizon_ns` (the co-sim
    /// window: events at or after the horizon may still gain a preceding or
    /// tying arrival from the driver).
    pub fn pop_before(&mut self, horizon_ns: f64) -> Option<Event> {
        match self.peek_time_ns() {
            Some(t) if t < horizon_ns => self.pop(),
            _ => None,
        }
    }

    /// The earliest pending timestamp without removing it.
    pub fn peek_time_ns(&self) -> Option<f64> {
        let arrival = self.times.get(self.cursor).copied();
        match (arrival, self.pending_work_ns) {
            (Some(a), Some(w)) => Some(if a <= w { a } else { w }),
            (Some(a), None) => Some(a),
            (None, w) => w,
        }
    }

    /// Discards the pending work completion, if any — the in-flight work item
    /// dies with a crashing replica. Returns whether a completion was pending.
    pub fn cancel_work(&mut self) -> bool {
        self.pending_work_ns.take().is_some()
    }

    /// Drains every not-yet-popped arrival and returns their trace ids in pop
    /// order. A crashing replica loses the arrivals it had been handed but had
    /// not yet admitted into its event flow; the fault driver re-routes them.
    pub fn drain_pending_arrivals(&mut self) -> Vec<usize> {
        let pending = self.ids[self.cursor..]
            .iter()
            .map(|&i| i as usize)
            .collect();
        self.cursor = self.times.len();
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    /// Earliest-first binary-heap event queue: the reference order.
    #[derive(Default)]
    struct EventQueue {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl EventQueue {
        /// An empty queue.
        fn new() -> Self {
            Self::default()
        }

        /// Schedules `kind` at `time_ns`.
        fn push(&mut self, time_ns: f64, kind: EventKind) {
            assert!(time_ns.is_finite(), "event times must be finite");
            self.heap.push(Event {
                time_ns,
                seq: self.next_seq,
                kind,
            });
            self.next_seq += 1;
        }

        /// Removes and returns the earliest event (ties pop in insertion order).
        fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }

        /// The earliest pending event without removing it.
        fn peek(&self) -> Option<&Event> {
            self.heap.peek()
        }

        /// Number of pending events.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// `true` when no events are pending.
        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::WorkDone);
        q.push(1.0, EventKind::Arrival(0));
        q.push(3.0, EventKind::Arrival(1));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time_ns).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(2.0, EventKind::Arrival(i));
        }
        q.push(1.0, EventKind::WorkDone);
        assert_eq!(q.pop().unwrap().kind, EventKind::WorkDone);
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_times() {
        EventQueue::new().push(f64::NAN, EventKind::WorkDone);
    }

    /// The cursor-based source must replay any arrival pattern in exactly the
    /// order the heap would, including simultaneous arrivals and work ties.
    #[test]
    fn single_flight_matches_heap_order() {
        let arrivals = [5.0, 1.0, 3.0, 3.0, 3.0, 9.0];
        let mut heap = EventQueue::new();
        for (i, &t) in arrivals.iter().enumerate() {
            heap.push(t, EventKind::Arrival(i));
        }
        let mut single = SingleFlightEvents::new(&arrivals);
        let mut work_pushes = 0;
        loop {
            let (a, b) = (heap.pop(), single.pop());
            match (a, b) {
                (Some(x), Some(y)) => {
                    assert_eq!((x.time_ns, x.kind), (y.time_ns, y.kind));
                    // Exercise the work slot: schedule completions that tie
                    // with and precede upcoming arrivals (two rounds only).
                    if (x.time_ns == 1.0 || x.kind == EventKind::WorkDone) && work_pushes < 2 {
                        let t = 3.0 + work_pushes as f64;
                        heap.push(t, EventKind::WorkDone);
                        single.push_work(t);
                        work_pushes += 1;
                    }
                    assert_eq!(
                        heap.peek().map(|e| e.time_ns),
                        single.peek_time_ns(),
                        "peek diverged after {x:?}"
                    );
                }
                (None, None) => break,
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    /// Pops both sources' next event strictly before `horizon_ns`.
    fn pop_both_before(
        heap: &mut EventQueue,
        single: &mut SingleFlightEvents,
        horizon_ns: f64,
    ) -> (Option<Event>, Option<Event>) {
        let from_heap = match heap.peek() {
            Some(e) if e.time_ns < horizon_ns => heap.pop(),
            _ => None,
        };
        (from_heap, single.pop_before(horizon_ns))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The heap is the reference for the single-flight source's order:
        /// unsorted arrivals with many exact ties, single-flight work
        /// completions at or after the last popped time (tying with,
        /// preceding or following pending arrivals) and `pop_before`
        /// horizons, all on a half-unit grid so ties are frequent.
        #[test]
        fn single_flight_matches_heap_order_under_random_scripts(
            arrival_slots in prop::collection::vec(0u8..8, 0..24),
            script in prop::collection::vec((0u8..3, 0u8..12), 0..64),
        ) {
            let arrivals: Vec<f64> = arrival_slots.iter().map(|&t| f64::from(t)).collect();
            let mut heap = EventQueue::new();
            for (i, &t) in arrivals.iter().enumerate() {
                heap.push(t, EventKind::Arrival(i));
            }
            let mut single = SingleFlightEvents::new(&arrivals);
            let (mut last_ns, mut working) = (0.0, false);
            for (op, offset) in script {
                let at_ns = last_ns + f64::from(offset) / 2.0;
                let (expected, got) = match op {
                    0 if !working => {
                        heap.push(at_ns, EventKind::WorkDone);
                        single.push_work(at_ns);
                        working = true;
                        (None, None)
                    }
                    0 | 1 => pop_both_before(&mut heap, &mut single, at_ns),
                    _ => (heap.pop(), single.pop()),
                };
                prop_assert_eq!(
                    expected.map(|e| (e.time_ns, e.kind)),
                    got.map(|e| (e.time_ns, e.kind))
                );
                if let Some(e) = expected {
                    last_ns = e.time_ns;
                    working &= e.kind != EventKind::WorkDone;
                }
                prop_assert_eq!(heap.peek().map(|e| e.time_ns), single.peek_time_ns());
            }
            loop {
                let (expected, got) = (heap.pop(), single.pop());
                prop_assert_eq!(
                    expected.map(|e| (e.time_ns, e.kind)),
                    got.map(|e| (e.time_ns, e.kind))
                );
                if expected.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn single_flight_ties_prefer_arrivals_and_slot_is_exclusive() {
        let mut s = SingleFlightEvents::new(&[2.0, 2.0]);
        s.push_work(2.0);
        assert_eq!(s.pop().unwrap().kind, EventKind::Arrival(0));
        assert_eq!(s.pop().unwrap().kind, EventKind::Arrival(1));
        assert_eq!(s.pop().unwrap().kind, EventKind::WorkDone);
        assert_eq!(s.pop(), None);
        assert_eq!(s.peek_time_ns(), None);
    }

    #[test]
    #[should_panic(expected = "single-flight")]
    fn single_flight_rejects_a_second_pending_work() {
        let mut s = SingleFlightEvents::new(&[1.0]);
        s.push_work(2.0);
        s.push_work(3.0);
    }

    /// Appending arrivals incrementally must replay the same order as
    /// preloading them, including an arrival appended after (and tying with)
    /// a scheduled work completion.
    #[test]
    fn incremental_appends_match_the_preloaded_order() {
        let mut preloaded = SingleFlightEvents::new(&[1.0, 3.0, 3.0, 5.0]);
        let mut incremental = SingleFlightEvents::empty();
        incremental.push_arrival(1.0, 0);
        assert_eq!(incremental.pop().unwrap().kind, EventKind::Arrival(0));
        assert_eq!(preloaded.pop().unwrap().kind, EventKind::Arrival(0));
        // Work scheduled before the tying arrivals are even known.
        incremental.push_work(3.0);
        preloaded.push_work(3.0);
        incremental.push_arrival(3.0, 1);
        incremental.push_arrival(3.0, 2);
        incremental.push_arrival(5.0, 3);
        loop {
            let (a, b) = (preloaded.pop(), incremental.pop());
            match (a, b) {
                (Some(x), Some(y)) => assert_eq!((x.time_ns, x.kind), (y.time_ns, y.kind)),
                (None, None) => break,
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn incremental_appends_reject_time_regressions() {
        let mut s = SingleFlightEvents::empty();
        s.push_arrival(2.0, 0);
        s.push_arrival(1.0, 1);
    }

    /// Crash hooks: cancelling work frees the single-flight slot, and
    /// draining pending arrivals returns exactly the not-yet-popped ids in
    /// pop order, leaving the source empty.
    #[test]
    fn crash_hooks_cancel_work_and_drain_arrivals() {
        let mut s = SingleFlightEvents::new(&[1.0, 2.0, 4.0]);
        assert!(!s.cancel_work(), "nothing pending yet");
        s.push_work(3.0);
        assert_eq!(s.pop().unwrap().kind, EventKind::Arrival(0));
        assert!(s.cancel_work());
        assert_eq!(s.drain_pending_arrivals(), vec![1, 2]);
        assert_eq!(s.pop(), None);
        assert_eq!(s.peek_time_ns(), None);
        // The slot is free again after a cancel.
        s.push_work(5.0);
        assert_eq!(s.pop().unwrap().kind, EventKind::WorkDone);
    }
}
