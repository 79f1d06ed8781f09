//! The pending-event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] stores each event once in a **slab** of recycled slots and
//! orders them with one binary **heap** of 24-byte `(time, insertion, slot)`
//! keys, so a sift never moves an event. Nothing sits beside the heap for
//! near-future deliveries (on message-heavy geo runs most schedules land
//! milliseconds out), and a heap of whole events was slower (DESIGN.md §3.1).
//!
//! Same-instant events pop in insertion order (FIFO); `(time, insertion)` is
//! the simulator's only event order, pinned against a reference heap by
//! `tests/queue_properties.rs` and over whole runs by the golden replays.
//!
//! # Example
//!
//! ```
//! use bamboo_sim::EventQueue;
//! use bamboo_types::SimTime;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime(20), "second");
//! queue.schedule(SimTime(10), "first");
//! queue.schedule(SimTime(20), "third");
//! assert_eq!(queue.pop(), Some((SimTime(10), "first")));
//! assert_eq!(queue.pop(), Some((SimTime(20), "second")));
//! assert_eq!(queue.pop(), Some((SimTime(20), "third")));
//! assert_eq!(queue.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bamboo_types::SimTime;

/// A time-ordered event queue with same-instant FIFO delivery.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Index-stable event storage; `free` recycles vacated slots.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// One key per pending event; insertion numbers are unique, so the slot
    /// never decides the order.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Events ever scheduled; the next event's insertion number.
    scheduled: u64,
    /// Highest live length ever observed (for memory diagnostics).
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            scheduled: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            (self.slab.len() - 1) as u32
        });
        self.slab[slot as usize] = Some(event);
        self.heap.push(Reverse((time, self.scheduled, slot)));
        self.scheduled += 1;
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        let event = self.slab[slot as usize].take().expect("live slot");
        self.free.push(slot);
        Some((time, event))
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `limit`; otherwise leaves the queue untouched and returns `None`.
    ///
    /// This is the only pop the engine uses: it drains the queue up to the
    /// next workload tick (or the end of the run) without a separate peek.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.heap
            .peek()
            .filter(|Reverse((time, _, _))| *time < limit)?;
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Highest number of simultaneously pending events ever observed — the
    /// queue's memory high-water mark, surfaced in run reports.
    pub fn live_high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(20), 2)));
        assert_eq!(q.pop(), Some((SimTime(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.pop_if_before(SimTime(u64::MAX)).is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(40), "d");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(30), "c");
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), Some((SimTime(40), "d")));
    }

    #[test]
    fn a_far_timer_waits_behind_a_stream_of_near_deliveries() {
        let mut q = EventQueue::new();
        // One view-timeout-scale timer scheduled first, then a stream of
        // deliveries leading up to it.
        q.schedule(SimTime(100_000_000), u64::MAX);
        for i in 0..100u64 {
            q.schedule(SimTime(i * 900_000), i);
        }
        for i in 0..100u64 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(t, SimTime(i * 900_000));
            assert_eq!(e, i);
        }
        assert_eq!(q.pop(), Some((SimTime(100_000_000), u64::MAX)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_insert_during_drain_preserves_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 1);
        q.schedule(SimTime(50), 2);
        assert_eq!(q.pop(), Some((SimTime(50), 1)));
        // Insert at the instant currently being drained: must pop after the
        // earlier-seq tie, like the reference heap.
        q.schedule(SimTime(50), 3);
        assert_eq!(q.pop(), Some((SimTime(50), 2)));
        assert_eq!(q.pop(), Some((SimTime(50), 3)));
    }

    #[test]
    fn order_survives_gaps_far_longer_than_any_delivery() {
        let mut q = EventQueue::new();
        // Laps 25 ms apart: gaps far longer than any modelled delivery.
        let span = 25_000_000u64;
        for lap in 0..5u64 {
            let mut expect = Vec::new();
            for i in 0..10u64 {
                let t = lap * span + i * 10_000;
                q.schedule(SimTime(t), (lap, i));
                expect.push((SimTime(t), (lap, i)));
            }
            // Drain each lap before scheduling the next; order must survive
            // the jump exactly.
            let drained: Vec<_> = (0..10).map(|_| q.pop().unwrap()).collect();
            assert_eq!(drained, expect, "lap {lap}");
        }
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 50);
    }

    #[test]
    fn high_water_tracks_peak_live_length() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule(SimTime(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        for i in 0..3u64 {
            q.schedule(SimTime(100 + i), i);
        }
        assert_eq!(q.live_high_water(), 10);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pop_if_before_respects_its_exclusive_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(100_000_000), "far"); // a view-timeout-scale timer
        assert_eq!(q.pop_if_before(SimTime(20)), Some((SimTime(10), "a")));
        // The boundary is exclusive: an event at exactly `limit` stays.
        assert_eq!(q.pop_if_before(SimTime(20)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if_before(SimTime(21)), Some((SimTime(20), "b")));
        // Far events stay put until the limit passes them, then drain.
        assert_eq!(q.pop_if_before(SimTime(50_000_000)), None);
        assert_eq!(
            q.pop_if_before(SimTime(200_000_000)),
            Some((SimTime(100_000_000), "far"))
        );
        assert!(q.pop_if_before(SimTime(u64::MAX)).is_none());
        // A bounded refusal must not disturb later ties or ordering.
        q.schedule(SimTime(30), "1");
        q.schedule(SimTime(30), "2");
        assert_eq!(q.pop_if_before(SimTime(30)), None);
        assert_eq!(q.pop(), Some((SimTime(30), "1")));
        assert_eq!(q.pop(), Some((SimTime(30), "2")));
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.schedule(SimTime(round * 1_000 + i), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // 400 events flowed through, but the slab never grew past the peak
        // of 8 concurrently live events.
        assert!(q.slab.len() <= 8, "slab len {}", q.slab.len());
    }
}
