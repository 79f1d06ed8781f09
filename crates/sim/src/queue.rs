//! The pending-event queue at the heart of the discrete-event simulator.
//!
//! [`EventQueue`] stores each entry once in a **slab** of recycled slots and
//! orders the entries with one binary **heap** of 24-byte `(time, insertion,
//! slot)` keys, so a sift never moves an event. Nothing sits beside the heap
//! for near-future deliveries (on message-heavy geo runs most schedules land
//! milliseconds out), and a heap of whole events was slower (DESIGN.md §3.1).
//!
//! An entry is a plain event or a **fan-out**: one event shared by `k`
//! deliveries — a broadcast — whose insertion numbers `base..base + k` are
//! reserved when it is scheduled. A fan-out holds one heap key, its next
//! delivery's `(time, base + rank)`; a pop re-keys it in place (one
//! sift-down), and its slot never moves. Every delivery keeps the insertion
//! number it would have had as an event of its own, so the queue pops in
//! exactly the order of a heap holding one event per delivery, while its
//! depth is the number of entries.
//!
//! Same-instant events pop in insertion order (FIFO); `(time, insertion)` is
//! the simulator's only event order, pinned against a reference heap by
//! `tests/queue_properties.rs` and over whole runs by the golden replays.
//!
//! # Example
//!
//! ```
//! use bamboo_sim::{EventQueue, Popped};
//! use bamboo_types::SimTime;
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime(20), "second");
//! queue.schedule(SimTime(10), "first");
//! // One entry, two deliveries: to recipient 7 at 30 and to 3 at 15.
//! queue.schedule_fanout("broadcast", &[(SimTime(30), 7), (SimTime(15), 3)]);
//! assert_eq!(queue.len(), 4);
//! assert_eq!(queue.pop(), Some((SimTime(10), Popped::Event("first"))));
//! let Some((SimTime(15), Popped::Delivery { to: 3, slot })) = queue.pop() else {
//!     panic!("the broadcast reaches 3 next");
//! };
//! assert_eq!(*queue.shared(slot), "broadcast");
//! assert_eq!(queue.pop(), Some((SimTime(20), Popped::Event("second"))));
//! assert_eq!(queue.pop(), Some((SimTime(30), Popped::Delivery { to: 7, slot })));
//! assert_eq!(queue.pop(), None);
//! ```

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use bamboo_types::SimTime;

/// What a pop hands out.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<E> {
    /// A plain event, moved out of the queue.
    Event(E),
    /// One delivery of a fan-out. The fan-out's event stays in the queue:
    /// [`EventQueue::shared`] reads it until the next pop.
    Delivery {
        /// The recipient, as given to [`EventQueue::schedule_fanout`].
        to: u32,
        /// The fan-out's slot.
        slot: u32,
    },
}

/// One slab slot: a plain event, or a fan-out's event and the deliveries it
/// has left.
#[derive(Debug, Clone)]
struct Slot<E> {
    event: Option<E>,
    /// A fan-out's pending deliveries as packed keys (see [`pack`]), latest
    /// first, so the next one is the last. Empty, and unallocated, for a
    /// plain event. A delivery's insertion number is its rank plus the
    /// fan-out's first, which the heap key of any delivery gives back.
    deliveries: Vec<u128>,
}

/// A time-ordered event queue with same-instant FIFO delivery.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Index-stable entry storage; `free` recycles vacated slots.
    slab: Vec<Slot<E>>,
    free: Vec<u32>,
    /// One key per entry; insertion numbers are unique, so the slot never
    /// decides the order.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The exhausted fan-out whose event the last pop lent out; its slot is
    /// vacated at the next pop.
    lent: Option<u32>,
    /// The key buffers of exhausted fan-outs, emptied, for the next ones: a
    /// fan-out allocates only when more are pending at once than ever
    /// before.
    spare: Vec<Vec<u128>>,
    /// Deliveries ever scheduled; the next delivery's insertion number.
    scheduled: u64,
    /// Pending deliveries: one per plain event, and what each fan-out has
    /// left.
    pending: usize,
    /// Highest pending count ever observed (for memory diagnostics).
    high_water: usize,
    /// Highest number of heap entries ever observed.
    heap_high_water: usize,
}

/// A fan-out delivery's key: `time << 64 | rank << 32 | recipient`. The
/// rank sits above the recipient, so keys order as `(time, insertion)` do
/// whatever the recipients are.
fn pack(time: SimTime, rank: usize, to: u32) -> u128 {
    u128::from(time.0) << 64 | (rank as u128) << 32 | u128::from(to)
}

/// The time and rank of a packed key.
fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime((key >> 64) as u64), (key >> 32) as u32 as u64)
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
            lent: None,
            spare: Vec::new(),
            scheduled: 0,
            pending: 0,
            high_water: 0,
            heap_high_water: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let slot = self.occupy(event);
        self.push((time, self.scheduled, slot), 1);
    }

    /// Schedules one `event` for several deliveries, each a `(time,
    /// recipient)` pair. The deliveries take consecutive insertion numbers in
    /// the order given, exactly as if each had been scheduled on its own, but
    /// the queue holds the event once, in one entry.
    ///
    /// # Panics
    ///
    /// Panics if `deliveries` is empty or holds 2^32 or more pairs.
    pub fn schedule_fanout(&mut self, event: E, deliveries: &[(SimTime, u32)]) {
        assert!(
            !deliveries.is_empty() && u32::try_from(deliveries.len()).is_ok(),
            "a fan-out has 1..2^32 deliveries"
        );
        let mut keys = self.spare.pop().unwrap_or_default();
        let ranked = deliveries.iter().enumerate();
        keys.extend(ranked.map(|(rank, &(time, to))| pack(time, rank, to)));
        keys.sort_unstable_by_key(|&key| Reverse(key));
        let (time, rank) = unpack(*keys.last().expect("non-empty"));
        let slot = self.occupy(event);
        self.slab[slot as usize].deliveries = keys;
        self.push((time, self.scheduled + rank, slot), deliveries.len());
    }

    /// Puts `event` into a vacant slot.
    fn occupy(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize].event = Some(event);
                slot
            }
            None => {
                self.slab.push(Slot {
                    event: Some(event),
                    deliveries: Vec::new(),
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Enters one entry standing for `deliveries` deliveries into the heap.
    fn push(&mut self, key: (SimTime, u64, u32), deliveries: usize) {
        self.heap.push(Reverse(key));
        self.scheduled += deliveries as u64;
        self.pending += deliveries;
        self.high_water = self.high_water.max(self.pending);
        self.heap_high_water = self.heap_high_water.max(self.heap.len());
    }

    /// Removes and returns the earliest delivery: a plain event, or one
    /// delivery of a fan-out, whose event stays readable through
    /// [`EventQueue::shared`] until the next pop.
    pub fn pop(&mut self) -> Option<(SimTime, Popped<E>)> {
        if let Some(slot) = self.lent.take() {
            let entry = &mut self.slab[slot as usize];
            entry.event = None;
            self.spare.push(std::mem::take(&mut entry.deliveries));
            self.free.push(slot);
        }
        let mut top = self.heap.peek_mut()?;
        let Reverse((time, insertion, slot)) = *top;
        let entry = &mut self.slab[slot as usize];
        self.pending -= 1;
        let Some(key) = entry.deliveries.pop() else {
            PeekMut::pop(top);
            self.free.push(slot);
            let event = entry.event.take().expect("live slot");
            return Some((time, Popped::Event(event)));
        };
        match entry.deliveries.last() {
            // Re-key in place: the sift-down runs when `top` drops.
            Some(&next) => {
                let ((_, rank), (next_time, next_rank)) = (unpack(key), unpack(next));
                *top = Reverse((next_time, insertion - rank + next_rank, slot));
            }
            None => {
                PeekMut::pop(top);
                self.lent = Some(slot);
            }
        }
        Some((
            time,
            Popped::Delivery {
                to: key as u32,
                slot,
            },
        ))
    }

    /// Removes and returns the earliest delivery if it is due strictly
    /// before `limit`; otherwise leaves the queue untouched and returns
    /// `None`.
    ///
    /// This is the only pop the engine uses: it drains the queue up to the
    /// next client window (or the end of the run) without a separate peek.
    pub fn pop_if_before(&mut self, limit: SimTime) -> Option<(SimTime, Popped<E>)> {
        self.heap
            .peek()
            .filter(|Reverse((time, _, _))| *time < limit)?;
        self.pop()
    }

    /// The event of the fan-out in `slot`, as named by the
    /// [`Popped::Delivery`] the last pop returned.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no event.
    pub fn shared(&self, slot: u32) -> &E {
        (self.slab[slot as usize].event.as_ref())
            .expect("a fan-out keeps its event until the next pop")
    }

    /// Number of pending deliveries: a plain event counts one, a fan-out
    /// the deliveries it has left.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Returns true if no deliveries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of deliveries scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Highest number of simultaneously pending deliveries ever observed,
    /// surfaced in run reports.
    pub fn live_high_water(&self) -> usize {
        self.high_water
    }

    /// Highest number of entries ever in the heap at once — the queue's
    /// depth; a fan-out counts once however many deliveries it has left.
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::Popped::{Delivery, Event};
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        assert_eq!(q.pop(), Some((SimTime(10), Event(1))));
        assert_eq!(q.pop(), Some((SimTime(20), Event(2))));
        assert_eq!(q.pop(), Some((SimTime(30), Event(3))));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), Event(i))));
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
        assert_eq!(q.pop(), Some((SimTime(10), Event("a"))));
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(30), "c");
        assert_eq!(q.pop(), Some((SimTime(20), Event("b"))));
        assert_eq!(q.pop(), Some((SimTime(30), Event("c"))));
        assert_eq!(q.pop(), Some((SimTime(40), Event("d"))));
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
            assert_eq!(q.pop(), Some((SimTime(i * 900_000), Event(i))));
        }
        assert_eq!(q.pop(), Some((SimTime(100_000_000), Event(u64::MAX))));
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_insert_during_drain_preserves_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), 1);
        q.schedule(SimTime(50), 2);
        assert_eq!(q.pop(), Some((SimTime(50), Event(1))));
        // Insert at the instant currently being drained: must pop after the
        // earlier-seq tie, like the reference heap.
        q.schedule(SimTime(50), 3);
        assert_eq!(q.pop(), Some((SimTime(50), Event(2))));
        assert_eq!(q.pop(), Some((SimTime(50), Event(3))));
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
                expect.push((SimTime(t), Event((lap, i))));
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
        assert_eq!(q.heap_high_water(), 10);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pop_if_before_respects_its_exclusive_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(100_000_000), "far"); // a view-timeout-scale timer
        assert_eq!(
            q.pop_if_before(SimTime(20)),
            Some((SimTime(10), Event("a")))
        );
        // The boundary is exclusive: an event at exactly `limit` stays.
        assert_eq!(q.pop_if_before(SimTime(20)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_if_before(SimTime(21)),
            Some((SimTime(20), Event("b")))
        );
        // Far events stay put until the limit passes them, then drain.
        assert_eq!(q.pop_if_before(SimTime(50_000_000)), None);
        assert_eq!(
            q.pop_if_before(SimTime(200_000_000)),
            Some((SimTime(100_000_000), Event("far")))
        );
        assert!(q.pop_if_before(SimTime(u64::MAX)).is_none());
        // A bounded refusal must not disturb later ties or ordering.
        q.schedule(SimTime(30), "1");
        q.schedule(SimTime(30), "2");
        assert_eq!(q.pop_if_before(SimTime(30)), None);
        assert_eq!(q.pop(), Some((SimTime(30), Event("1"))));
        assert_eq!(q.pop(), Some((SimTime(30), Event("2"))));
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

    #[test]
    fn a_fanout_ties_with_plain_events_by_insertion_number() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "before");
        // Insertion numbers 1..=3, out of time order.
        q.schedule_fanout("fan", &[(SimTime(5), 9), (SimTime(4), 8), (SimTime(5), 7)]);
        q.schedule(SimTime(5), "after");
        assert_eq!((q.len(), q.heap_high_water()), (5, 3));
        let mut order = Vec::new();
        while let Some((time, popped)) = q.pop() {
            order.push(match popped {
                Event(name) => (time, name, None),
                Delivery { to, slot } => (time, *q.shared(slot), Some(to)),
            });
        }
        let want = [
            (SimTime(4), "fan", Some(8)),
            (SimTime(5), "before", None),
            (SimTime(5), "fan", Some(9)),
            (SimTime(5), "fan", Some(7)),
            (SimTime(5), "after", None),
        ];
        assert_eq!(order, want);
        assert_eq!(
            (q.len(), q.total_scheduled(), q.live_high_water()),
            (0, 5, 5)
        );
    }

    #[test]
    fn an_exhausted_fanout_lends_its_slot_until_the_next_pop_then_recycles_it() {
        let mut q = EventQueue::new();
        q.schedule_fanout('x', &[(SimTime(1), 0), (SimTime(2), 1)]);
        assert!(matches!(
            q.pop(),
            Some((SimTime(1), Delivery { to: 0, .. }))
        ));
        let Some((_, Delivery { to: 1, slot })) = q.pop() else {
            panic!("second delivery");
        };
        // Scheduling while the last delivery is out must not take its slot.
        q.schedule(SimTime(3), 'y');
        assert_eq!(*q.shared(slot), 'x');
        assert_eq!(q.pop(), Some((SimTime(3), Event('y'))));
        // Both slots are vacant now, and the exhausted fan-out's key buffer
        // is kept: the next fan-out, in whichever slot, allocates nothing.
        assert_eq!(q.spare.len(), 1);
        let capacity = q.spare[0].capacity();
        assert!(capacity >= 2 && q.slab.iter().all(|s| s.deliveries.capacity() == 0));
        q.schedule_fanout('z', &[(SimTime(4), 5), (SimTime(4), 6)]);
        assert_eq!((q.slab.len(), q.spare.len()), (2, 0));
        let z = q
            .slab
            .iter()
            .find(|s| s.event == Some('z'))
            .expect("z is queued");
        assert_eq!(z.deliveries.capacity(), capacity);
    }
}
