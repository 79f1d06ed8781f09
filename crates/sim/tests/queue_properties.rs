//! Property tests for the slab-plus-key-heap [`EventQueue`]: over randomised
//! schedules — including same-instant ties, bursts, far timers and
//! interleaved schedule/pop sequences — the pop order must match a reference
//! binary heap of whole events exactly. Deterministic seed grid, so every
//! failure reproduces from the printed seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bamboo_sim::{EventQueue, SimRng};
use bamboo_types::SimTime;

/// The reference implementation: the `BinaryHeap<Reverse<(time, seq)>>`
/// design the slab queue replaced, kept here as the ordering oracle.
#[derive(Default)]
struct ReferenceHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
}

impl ReferenceHeap {
    fn schedule(&mut self, time: SimTime, event: u64) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }
}

/// Draws the next schedule time: a mix of same-instant ties, microsecond
/// deliveries, millisecond ticks and far timers, anchored at `now` so the
/// schedule moves forward like a real simulation.
fn next_time(rng: &mut SimRng, now: SimTime, last_scheduled: SimTime) -> SimTime {
    match rng.choose_index(10) {
        // Exact tie with the most recently scheduled event.
        0 | 1 => last_scheduled.max(now),
        // Near-ties (sub-microsecond apart).
        2 | 3 => SimTime(now.as_nanos() + rng.choose_index(2_000) as u64),
        // Near-future delivery (µs scale).
        4..=7 => SimTime(now.as_nanos() + 1_000 + rng.choose_index(800_000) as u64),
        // Workload-tick scale.
        8 => SimTime(now.as_nanos() + rng.choose_index(2_000_000) as u64),
        // Far timer, at view-timeout scale.
        _ => SimTime(now.as_nanos() + 20_000_000 + rng.choose_index(500_000_000) as u64),
    }
}

#[test]
fn pop_order_matches_reference_heap_over_randomised_schedules() {
    for seed in 0u64..20 {
        let mut rng = SimRng::new(seed * 7919 + 3);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceHeap::default();
        let mut now = SimTime::ZERO;
        let mut last_scheduled = SimTime::ZERO;
        let mut event_id = 0u64;
        let mut live = 0i64;

        for _ in 0..5_000 {
            // Bias towards scheduling while the queue is shallow and towards
            // popping while it is deep, so both regimes are exercised.
            let schedule = live < 5 || rng.choose_index(3) > 0;
            if schedule {
                let burst = 1 + rng.choose_index(4);
                for _ in 0..burst {
                    let time = next_time(&mut rng, now, last_scheduled);
                    last_scheduled = time;
                    queue.schedule(time, event_id);
                    reference.schedule(time, event_id);
                    event_id += 1;
                    live += 1;
                }
            } else {
                let got = queue.pop();
                let want = reference.pop();
                assert_eq!(got, want, "seed {seed}: mid-run pop diverged");
                if let Some((time, _)) = got {
                    assert!(time >= now, "seed {seed}: time went backwards");
                    now = time;
                    live -= 1;
                }
            }
        }
        // Drain both completely; order must stay identical to the end.
        loop {
            let got = queue.pop();
            let want = reference.pop();
            assert_eq!(got, want, "seed {seed}: drain pop diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(queue.is_empty());
        assert_eq!(queue.total_scheduled(), event_id);
    }
}

#[test]
fn bounded_pops_match_the_reference_heap_under_random_limits() {
    // `pop_if_before` is the only pop the engine uses. Limits land below, at
    // and above the current minimum; after a refused pop the engine may
    // schedule ahead of the refused event, and those earlier events must pop
    // first, by their own key.
    for seed in 0u64..20 {
        let mut rng = SimRng::new(seed * 104_729 + 17);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceHeap::default();
        let mut now = SimTime::ZERO;
        let mut last_scheduled = SimTime::ZERO;
        let mut event_id = 0u64;
        let mut schedule =
            |queue: &mut EventQueue<u64>, reference: &mut ReferenceHeap, time: SimTime| {
                queue.schedule(time, event_id);
                reference.schedule(time, event_id);
                event_id += 1;
            };
        let mut refusals = 0u32;
        let mut parked = 0u32;

        for _ in 0..5_000 {
            if reference.heap.len() < 5 || rng.choose_index(2) == 0 {
                let time = next_time(&mut rng, now, last_scheduled);
                last_scheduled = time;
                schedule(&mut queue, &mut reference, time);
                continue;
            }
            let min = reference.heap.peek().expect("non-empty").0 .0;
            let limit = match rng.choose_index(4) {
                // Below the minimum (never below `now`).
                0 => SimTime(now.0 + rng.choose_index((min.0 - now.0) as usize + 1) as u64),
                // Exactly at it: the limit is exclusive, so the pop is refused.
                1 => min,
                // Just above, and far above.
                2 => SimTime(min.0 + 1),
                _ => SimTime(min.0 + 1 + rng.choose_index(50_000_000) as u64),
            };
            let got = queue.pop_if_before(limit);
            let want = if min < limit { reference.pop() } else { None };
            assert_eq!(got, want, "seed {seed}: limit {limit:?}, minimum {min:?}");
            match got {
                Some((time, _)) => {
                    assert!(time >= now, "seed {seed}: time went backwards");
                    now = time;
                }
                None => {
                    refusals += 1;
                    // What a workload tick does after a refusal: schedule
                    // ahead of the event the queue just declined to pop.
                    if min > now && rng.choose_index(2) == 0 {
                        let earlier = now.0 + rng.choose_index((min.0 - now.0) as usize) as u64;
                        schedule(&mut queue, &mut reference, SimTime(earlier));
                        parked += 1;
                    }
                }
            }
        }
        assert!(refusals > 100 && parked > 50, "seed {seed}: vacuous grid");
        loop {
            let got = queue.pop_if_before(SimTime(u64::MAX));
            assert_eq!(got, reference.pop(), "seed {seed}: drain pop diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(queue.is_empty());
    }
}

#[test]
fn high_water_mark_is_exact_under_interleaving() {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut live = 0usize;
    let mut peak = 0usize;
    let mut rng = SimRng::new(5);
    let mut t = 0u64;
    for i in 0..1_000u64 {
        t += rng.choose_index(100_000) as u64;
        queue.schedule(SimTime(t), i);
        live += 1;
        peak = peak.max(live);
        if rng.choose_index(2) == 0 {
            queue.pop().unwrap();
            live -= 1;
        }
    }
    assert_eq!(queue.live_high_water(), peak);
    assert_eq!(queue.len(), live);
}
