//! The pending-event queue at the heart of the discrete-event simulator.
//!
//! A simulation schedule is sharply bimodal: the bulk of events are
//! *near-future* deliveries (NIC + link latency, tens to hundreds of
//! microseconds out) while a thin tail of *far* timers (pacemaker view
//! timeouts, scheduled faults) sits orders of magnitude later. A single
//! binary heap pays `O(log n)` comparisons **and** moves whole entries on
//! every operation; the [`EventQueue`] here instead uses a slab-backed
//! two-level structure:
//!
//! * **slab** — every event is stored once in an index-stable arena; the
//!   ordering structures shuffle 4-byte slot indices, never the events
//!   themselves,
//! * **bucket wheel** — near-future events (within ~8 ms) hash into a
//!   circular array of buckets keyed by `time >> BUCKET_SHIFT`; scheduling is
//!   O(1) and popping sorts each bucket once when the cursor reaches it,
//! * **overflow heap** — far events go to a small binary heap of
//!   `(time, seq, slot)` keys and are compared against the wheel at pop time,
//!   so timers neither bloat the wheel nor break ordering.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), exactly like the previous heap-based queue, and that
//! `(time, insertion)` order is the simulator's only event order. The
//! property tests in `tests/queue_properties.rs` pin pop-order equality
//! against a reference binary heap over randomised schedules with ties —
//! for plain pops and for the bounded pops the engine drains with — and the
//! golden-replay suite pins whole-simulation equality.
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

/// log2 of the bucket width in nanoseconds: 8.192 µs buckets, matching the
/// microsecond-scale spread of modelled message deliveries.
const BUCKET_SHIFT: u32 = 13;
/// Number of wheel buckets (power of two). Together with the bucket width
/// this covers a ~8.4 ms near-future horizon; anything later overflows to
/// the far heap.
const NUM_BUCKETS: u64 = 1024;

/// A time-ordered event queue with same-instant FIFO delivery.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Index-stable event storage; `free` recycles vacated slots.
    slab: Vec<Option<Slot<E>>>,
    free: Vec<u32>,
    /// Near-future buckets of slot indices, addressed by absolute bucket
    /// index modulo `NUM_BUCKETS`.
    wheel: Vec<Vec<u32>>,
    /// Live entries currently stored in the wheel.
    wheel_live: usize,
    /// Far events as `(time, seq, slot)` keys — entries beyond the wheel
    /// horizon at schedule time.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Absolute bucket index the pop cursor is currently draining.
    cursor: u64,
    /// Whether the cursor's bucket has been sorted (descending by key, so
    /// pops are `Vec::pop`). Late arrivals into the sorted bucket are
    /// binary-inserted.
    cursor_sorted: bool,
    seq: u64,
    /// Total number of events ever scheduled (for diagnostics).
    scheduled: u64,
    /// Live entries across wheel and overflow.
    len: usize,
    /// Highest live length ever observed (for memory diagnostics).
    high_water: usize,
}

#[derive(Debug, Clone)]
struct Slot<E> {
    time: SimTime,
    seq: u64,
    event: E,
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
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            wheel_live: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            cursor_sorted: false,
            seq: 0,
            scheduled: 0,
            len: 0,
            high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        self.len += 1;
        self.high_water = self.high_water.max(self.len);

        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(Slot { time, seq, event });
                slot
            }
            None => {
                self.slab.push(Some(Slot { time, seq, event }));
                (self.slab.len() - 1) as u32
            }
        };

        // Clamp into the cursor's bucket: the simulator never schedules
        // before "now", but an event landing inside the bucket currently
        // being drained must still sort by its (time, seq) key.
        let bucket = (time.as_nanos() >> BUCKET_SHIFT).max(self.cursor);
        if bucket >= self.cursor + NUM_BUCKETS {
            self.overflow.push(Reverse((time, seq, slot)));
            return;
        }
        let index = (bucket % NUM_BUCKETS) as usize;
        if bucket == self.cursor && self.cursor_sorted {
            // Keep the drained bucket's descending order intact.
            let key = (time, seq);
            let position = self.wheel[index].partition_point(|&s| self.key_of(s) > key);
            self.wheel[index].insert(position, slot);
        } else {
            self.wheel[index].push(slot);
        }
        self.wheel_live += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(None)
    }

    /// Removes and returns the earliest event if it fires strictly before
    /// `limit`; otherwise leaves the queue untouched and returns `None`.
    ///
    /// This is the only pop the engine uses: it drains the queue up to the
    /// next workload tick (or the end of the run) without a separate peek.
    /// A refused pop may still advance the wheel cursor to the refused
    /// event's bucket; anything scheduled earlier afterwards is parked in
    /// that bucket and pops by its own `(time, seq)` key.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(Some(limit))
    }

    fn pop_bounded(&mut self, limit: Option<SimTime>) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let wheel_key = self.advance_to_wheel_min();
        let overflow_key = self.overflow.peek().map(|Reverse((t, s, _))| (*t, *s));

        let (best, from_wheel) = match (wheel_key, overflow_key) {
            (Some(w), Some(o)) => {
                if w < o {
                    (w, true)
                } else {
                    (o, false)
                }
            }
            (Some(w), None) => (w, true),
            (None, Some(o)) => (o, false),
            (None, None) => return None,
        };
        if limit.is_some_and(|l| best.0 >= l) {
            return None;
        }
        let slot = if from_wheel {
            let index = (self.cursor % NUM_BUCKETS) as usize;
            self.wheel_live -= 1;
            self.wheel[index].pop().expect("bucket is non-empty")
        } else {
            let Reverse((_, _, slot)) = self.overflow.pop().expect("overflow is non-empty");
            slot
        };

        let Slot { time, event, .. } = self.slab[slot as usize]
            .take()
            .expect("slot holds a live event");
        self.free.push(slot);
        self.len -= 1;

        // Keep the wheel window anchored at the pop frontier so subsequent
        // schedules land in the right buckets. Jumping is safe: every live
        // wheel entry has time >= the popped minimum, hence an equal or later
        // bucket.
        let bucket = time.as_nanos() >> BUCKET_SHIFT;
        if bucket > self.cursor {
            self.cursor = bucket;
            self.cursor_sorted = false;
        }
        Some((time, event))
    }

    /// Advances the cursor to the first non-empty wheel bucket and returns
    /// the minimum `(time, seq)` key stored there, sorting the bucket on
    /// first touch so subsequent pops are O(1).
    fn advance_to_wheel_min(&mut self) -> Option<(SimTime, u64)> {
        if self.wheel_live == 0 {
            return None;
        }
        while self.wheel[(self.cursor % NUM_BUCKETS) as usize].is_empty() {
            self.cursor += 1;
            self.cursor_sorted = false;
        }
        let index = (self.cursor % NUM_BUCKETS) as usize;
        if !self.cursor_sorted {
            let mut bucket = std::mem::take(&mut self.wheel[index]);
            let slab = &self.slab;
            bucket.sort_unstable_by_key(|&slot| {
                let entry = slab[slot as usize].as_ref().expect("live slot");
                Reverse((entry.time, entry.seq))
            });
            self.wheel[index] = bucket;
            self.cursor_sorted = true;
        }
        let last = *self.wheel[index].last().expect("bucket is non-empty");
        Some(self.key_of(last))
    }

    fn key_of(&self, slot: u32) -> (SimTime, u64) {
        let entry = self.slab[slot as usize].as_ref().expect("live slot");
        (entry.time, entry.seq)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Highest number of simultaneously pending events ever observed — the
    /// memory high-water mark of the queue, surfaced in run reports so sweep
    /// memory use is observable.
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
    fn far_timers_overflow_and_interleave_correctly() {
        let mut q = EventQueue::new();
        // One far timer (beyond the ~8.4 ms wheel horizon) and a stream of
        // near deliveries leading up to it.
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
    fn wheel_wraps_across_many_horizons() {
        let mut q = EventQueue::new();
        let horizon = NUM_BUCKETS << BUCKET_SHIFT;
        for lap in 0..5u64 {
            let mut expect = Vec::new();
            for i in 0..10u64 {
                let t = lap * 3 * horizon + i * 10_000;
                q.schedule(SimTime(t), (lap, i));
                expect.push((SimTime(t), (lap, i)));
            }
            // Drain each lap before scheduling the next, moving the cursor
            // far past previous window positions; order must survive the
            // wrap exactly.
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
        q.schedule(SimTime(100_000_000), "far"); // overflow-heap entry
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
