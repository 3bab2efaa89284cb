//! A time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in simulated time.
#[derive(Clone, Debug)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        // Ties broken by insertion order (FIFO).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A queue of events ordered by simulated time.
///
/// Events scheduled at the same instant are delivered in insertion order.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` to fire at absolute time `time`.
    ///
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Time of the earliest pending event.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Remove and return the earliest event if it fires at or before `time`.
    pub fn pop_due(&mut self, time: f64) -> Option<(f64, T)> {
        if self.next_time().is_some_and(|t| t <= time) {
            self.heap.pop().map(|e| (e.time, e.payload))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.next_time(), Some(1.0));
        assert_eq!(q.pop_due(f64::INFINITY), Some((1.0, "a")));
        assert_eq!(q.pop_due(f64::INFINITY), Some((2.0, "b")));
        assert_eq!(q.pop_due(f64::INFINITY), Some((3.0, "c")));
        assert_eq!(q.pop_due(f64::INFINITY), None);
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5.0, 1);
        q.schedule(5.0, 2);
        q.schedule(5.0, 3);
        assert_eq!(q.pop_due(f64::INFINITY).unwrap().1, 1);
        assert_eq!(q.pop_due(f64::INFINITY).unwrap().1, 2);
        assert_eq!(q.pop_due(f64::INFINITY).unwrap().1, 3);
    }

    #[test]
    fn pop_due_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop_due(0.5), None);
        assert_eq!(q.pop_due(1.0), Some((1.0, "a")));
        assert_eq!(q.pop_due(1.5), None);
        assert_eq!(q.pop_due(10.0), Some((2.0, "b")));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }
}
