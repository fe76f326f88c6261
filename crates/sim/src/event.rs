//! A deterministic time-ordered event queue.
//!
//! The discrete-event core: events pop in non-decreasing time order,
//! with insertion order breaking ties so simulation is reproducible even
//! when many events share a timestamp (common with symmetric machines).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. NaN times
        // are rejected at push, so `partial_cmp` is never `None` here.
        // It, not `total_cmp`, keeps -0.0 and +0.0 tied, so events at
        // either zero pop in push order.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of `(time, item)` with FIFO tie-breaking.
pub struct TimeQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> TimeQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        TimeQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `item` at `time`.
    ///
    /// # Panics
    /// Panics on NaN time — a NaN timestamp is always an upstream bug.
    pub fn push(&mut self, time: f64, item: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Entry {
            time,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Pop the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drain every event in time order.
    pub fn drain_ordered(&mut self) -> Vec<(f64, T)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.pop() {
            out.push(e);
        }
        out
    }
}

impl<T> Default for TimeQueue<T> {
    fn default() -> Self {
        TimeQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimeQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = TimeQueue::new();
        for i in 0..10 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = q.drain_ordered().into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// -0.0 and +0.0 are one time: events at either pop FIFO, each with
    /// the sign it was pushed with.
    #[test]
    fn signed_zeros_tie_fifo() {
        let mut q = TimeQueue::new();
        for (i, t) in [0.0, -0.0, 0.0, -0.0, -1.0].into_iter().enumerate() {
            q.push(t, i);
        }
        let bits = |(t, i): (f64, usize)| (t.to_bits(), i);
        let popped: Vec<_> = q.drain_ordered().into_iter().map(bits).collect();
        let want = [(-1.0, 4), (0.0, 0), (-0.0, 1), (0.0, 2), (-0.0, 3)].map(bits);
        assert_eq!(popped, want);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = TimeQueue::new();
        q.push(10.0, 'x');
        assert_eq!(q.peek_time(), Some(10.0));
        q.push(5.0, 'y');
        assert_eq!(q.pop(), Some((5.0, 'y')));
        q.push(1.0, 'z');
        assert_eq!(q.pop(), Some((1.0, 'z')));
        assert_eq!(q.pop(), Some((10.0, 'x')));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        TimeQueue::new().push(f64::NAN, ());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = TimeQueue::new();
        assert_eq!(q.len(), 0);
        q.push(1.0, ());
        q.push(2.0, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
