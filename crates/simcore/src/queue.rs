//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! [`EventQueue`] is a binary heap of entries keyed by the total order
//! `(time, push sequence)`. Simulation outputs depend only on that order,
//! never on the queue's internal layout.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::audit::Audit;
use crate::time::Time;

/// A pending event: fires at `at`, carrying payload `E`.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The order events pop in: time, then push sequence. The sequence is
    /// unique, so the order is total and the pop sequence is a function of
    /// the push/pop script alone.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest-seq)
        // entry is popped first.
        other.key().cmp(&self.key())
    }
}

/// A discrete-event queue: events are popped in time order, and events
/// scheduled for the same instant are popped in the order they were pushed.
///
/// Determinism matters: the whole simulation must replay identically for a
/// given seed, so ties are broken by a monotonically increasing sequence
/// number rather than by internal layout.
///
/// # Example
/// ```
/// use simcore::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(20), "b");
/// q.push(Time::from_ns(10), "a");
/// q.push(Time::from_ns(20), "c");
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "a")));
/// assert_eq!(q.pop(), Some((Time::from_ns(20), "b")));
/// assert_eq!(q.pop(), Some((Time::from_ns(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    /// Time of the most recent pop, for monotonicity auditing.
    last_pop: Option<Time>,
    /// Pops whose time preceded the previous pop's. A well-behaved
    /// simulation never schedules behind its own clock, so this stays 0;
    /// the audit layer flags any other value.
    time_regressions: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            last_pop: None,
            time_regressions: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    pub fn push(&mut self, at: Time, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Records a pop at `at` for the monotonicity audit.
    fn note_pop(&mut self, at: Time) {
        if self.last_pop.is_some_and(|lp| at < lp) {
            self.time_regressions += 1;
        }
        self.last_pop = Some(at);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        self.popped += 1;
        self.note_pop(e.at);
        Some((e.at, e.payload))
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pops *every* event scheduled for the earliest pending instant into
    /// `out` (appending, in push-sequence order) and returns that instant.
    /// Equivalent to popping while [`peek_time`](Self::peek_time) equals the
    /// head time.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Time> {
        let t = self.peek_time()?;
        while self.heap.peek().is_some_and(|e| e.at == t) {
            let e = self.heap.pop().expect("peeked");
            self.popped += 1;
            out.push(e.payload);
        }
        // Every pop of the batch shares `t`, so only the first could run
        // behind the previous pop: one check covers the batch, exactly as
        // per-event popping would have counted it.
        self.note_pop(t);
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped over the queue's lifetime.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Pops that went backwards in time relative to the previous pop. See
    /// [`audit`](Self::audit).
    pub fn time_regressions(&self) -> u64 {
        self.time_regressions
    }

    /// Audits time-monotonicity into `a`: pop times never decreased.
    /// Simulation loops only schedule at or after their current event time
    /// (the reservation-clock rule), so a regression means some handler
    /// scheduled into the past.
    pub fn audit(&self, a: &mut Audit) {
        a.check(
            "simcore",
            "queue-time-monotonicity",
            self.time_regressions == 0,
            || {
                format!(
                    "{} pops ran backwards in time (last pop {:?})",
                    self.time_regressions, self.last_pop
                )
            },
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        q.pop();
        assert_eq!(q.events_processed(), 1);
        q.pop();
        assert_eq!(q.events_processed(), 2);
        assert_eq!(q.pop(), None);
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Time::from_ns(20), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn far_future_events_pop_last() {
        let mut q = EventQueue::new();
        // Spread over eight orders of magnitude of simulated time.
        q.push(Time::from_ms(50), "far");
        q.push(Time::from_ns(1), "near");
        q.push(Time::from_ms(500), "farther");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_behind_last_pop_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(10), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        // Scheduled before the last pop's time.
        q.push(Time::from_ns(5), 2);
        q.push(Time::from_us(20), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn ten_thousand_entries_pop_in_order() {
        let mut q = EventQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            q.push(Time::from_ns((i * 37) % 5000), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = Time::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, n);
    }

    #[test]
    fn prop_pops_sorted() {
        let mut r = SimRng::seed(0x9e1);
        for _ in 0..32 {
            let count = r.below(200) as usize;
            let times: Vec<u64> = (0..count).map(|_| r.below(1_000_000)).collect();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(Time::from_ps(t), i);
            }
            let mut last = Time::ZERO;
            let mut n = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                n += 1;
            }
            assert_eq!(n, times.len());
        }
    }

    #[test]
    fn prop_equal_times_fifo() {
        let mut r = SimRng::seed(0x9e2);
        for _ in 0..16 {
            let n = 1 + r.below(199) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Time::from_ns(42), i);
            }
            for i in 0..n {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }
    }

    /// `pop_batch_into` must drain exactly what repeated `pop` would, in the
    /// same order, across random scripts (including heavy ties).
    #[test]
    fn diff_pop_batch_matches_serial_pops() {
        let mut r = SimRng::seed(0xba7c4);
        for round in 0..32 {
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            let span = if round % 2 == 0 { 50 } else { 1_000_000 };
            let n = 1 + r.below(600) as usize;
            for i in 0..n {
                let at = Time::from_ps(r.below(span));
                a.push(at, i);
                b.push(at, i);
            }
            let mut batch = Vec::new();
            while let Some(t) = a.pop_batch_into(&mut batch) {
                for &payload in &batch {
                    assert_eq!(b.pop(), Some((t, payload)), "round {round}");
                }
                batch.clear();
            }
            assert!(b.is_empty());
            assert_eq!(a.events_processed(), b.events_processed());
            assert_eq!(a.time_regressions(), b.time_regressions());
        }
    }

    #[test]
    fn pop_batch_on_empty_queue_is_none() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn audit_passes_on_monotone_script() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(Time::from_ns(i * 3), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.time_regressions(), 0);
        let mut a = Audit::new();
        q.audit(&mut a);
        assert!(a.ok(), "{:?}", a.violations());
        assert_eq!(a.checks(), 1);
    }

    #[test]
    fn past_pushes_count_regressions() {
        let mut q = EventQueue::new();
        q.push(Time::from_us(10), 0);
        assert_eq!(q.pop(), Some((Time::from_us(10), 0)));
        // Scheduled behind the last pop: the next pop runs backwards.
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.pop(), Some((Time::from_ns(1), 1)));
        assert_eq!(q.time_regressions(), 1);
        let mut a = Audit::new();
        q.audit(&mut a);
        assert!(!a.ok());
        assert_eq!(a.violations()[0].check, "queue-time-monotonicity");
    }
}
