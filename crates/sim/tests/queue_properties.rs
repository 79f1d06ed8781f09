//! Property tests for the slab-plus-key-heap [`EventQueue`]: over randomised
//! schedules — including same-instant ties, bursts, far timers, fan-outs
//! and interleaved schedule/pop sequences — the pop order must match a
//! reference binary heap holding one whole event per delivery exactly.
//! Deterministic seed grid, so every failure reproduces from the printed
//! seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bamboo_sim::{EventQueue, Popped, SimRng};
use bamboo_types::SimTime;

/// What one delivery is: the event's id, and its recipient if the event was
/// a fan-out.
type Delivered = (u64, Option<u32>);

/// The reference implementation: the `BinaryHeap<Reverse<(time, seq)>>`
/// design the slab queue replaced, kept here as the ordering oracle. A
/// fan-out is fed in as one event per recipient.
#[derive(Default)]
struct ReferenceHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, Delivered)>>,
    seq: u64,
}

impl ReferenceHeap {
    fn schedule(&mut self, time: SimTime, event: Delivered) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, Delivered)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }
}

/// A queue pop — `pop_if_before(limit)`, or a plain `pop` without a limit —
/// in the reference's terms: a fan-out delivery reads its event through the
/// slot the pop named.
fn pop(queue: &mut EventQueue<u64>, limit: Option<SimTime>) -> Option<(SimTime, Delivered)> {
    let popped = match limit {
        Some(limit) => queue.pop_if_before(limit),
        None => queue.pop(),
    };
    popped.map(|(time, popped)| match popped {
        Popped::Event(event) => (time, (event, None)),
        Popped::Delivery { to, slot } => (time, (*queue.shared(slot), Some(to))),
    })
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
                    reference.schedule(time, (event_id, None));
                    event_id += 1;
                    live += 1;
                }
            } else {
                let got = pop(&mut queue, None);
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
            let got = pop(&mut queue, None);
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
                reference.schedule(time, (event_id, None));
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
            let got = pop(&mut queue, Some(limit));
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
            let got = pop(&mut queue, Some(SimTime(u64::MAX)));
            assert_eq!(got, reference.pop(), "seed {seed}: drain pop diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(queue.is_empty());
    }
}

/// Fan-outs mixed with plain events, drained by the engine's bounded pop:
/// every delivery pops exactly where a reference heap fed one event per
/// recipient puts it, and the queue counts deliveries (`len`,
/// `live_high_water`) and entries (`heap_high_water`) exactly.
#[test]
fn fanouts_mixed_with_plain_events_pop_in_reference_order() {
    for seed in 0u64..20 {
        let mut rng = SimRng::new(seed * 15_485_863 + 29);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut reference = ReferenceHeap::default();
        let mut now = SimTime::ZERO;
        let mut last_scheduled = SimTime::ZERO;
        let mut event_id = 0u64;
        // Deliveries each event has left and had, by id; fan-outs with some
        // but not all of their deliveries popped; and the entry counts the
        // queue must report.
        let mut counts: Vec<(usize, usize)> = Vec::new();
        let mut started = 0usize;
        let (mut entries, mut entry_peak, mut delivery_peak) = (0usize, 0usize, 0usize);
        let (mut refused_at_fanout, mut rekeyed_past_plain, mut mixed_ties) = (0u32, 0u32, 0u32);
        let mut deliveries = Vec::new();

        for _ in 0..5_000 {
            if reference.heap.len() < 5 || rng.choose_index(2) == 0 {
                let fanout = rng.choose_index(3) == 0;
                let recipients = if fanout { 1 + rng.choose_index(8) } else { 1 };
                deliveries.clear();
                for _ in 0..recipients {
                    // Recipients may drop out, as a partition drops them.
                    if fanout && rng.choose_index(4) == 0 {
                        continue;
                    }
                    let time = next_time(&mut rng, now, last_scheduled);
                    last_scheduled = time;
                    // Any recipient ids, in any order: the order given
                    // alone numbers the deliveries.
                    deliveries.push((time, rng.choose_index(1 << 20) as u32));
                }
                if deliveries.is_empty() {
                    continue;
                }
                if fanout {
                    queue.schedule_fanout(event_id, &deliveries);
                } else {
                    queue.schedule(deliveries[0].0, event_id);
                }
                counts.push((deliveries.len(), deliveries.len()));
                for &(time, to) in &deliveries {
                    reference.schedule(time, (event_id, fanout.then_some(to)));
                }
                event_id += 1;
                entries += 1;
                entry_peak = entry_peak.max(entries);
                delivery_peak = delivery_peak.max(reference.heap.len());
            } else {
                let Reverse((min, _, (_, min_to))) = *reference.heap.peek().expect("non-empty");
                let limit = match rng.choose_index(3) {
                    // Exactly at the minimum: the pop is refused.
                    0 => min,
                    1 => SimTime(min.0 + 1),
                    _ => SimTime(min.0 + 1 + rng.choose_index(5_000_000) as u64),
                };
                let got = pop(&mut queue, Some(limit));
                let want = if min < limit { reference.pop() } else { None };
                assert_eq!(got, want, "seed {seed}: limit {limit:?}, minimum {min:?}");
                let Some((time, (id, to))) = got else {
                    refused_at_fanout += u32::from(min_to.is_some());
                    continue;
                };
                assert!(time >= now, "seed {seed}: time went backwards");
                now = time;
                let next = reference.heap.peek();
                if next.is_some_and(|Reverse((t, _, (_, next_to)))| {
                    *t == time && next_to.is_some() != to.is_some()
                }) {
                    mixed_ties += 1;
                }
                let (remaining, total) = &mut counts[id as usize];
                *remaining -= 1;
                match to {
                    // A plain event popped while some fan-out is between
                    // two of its deliveries: that fan-out was re-keyed past
                    // it.
                    None => rekeyed_past_plain += u32::from(started > 0),
                    Some(_) if *remaining + 1 == *total && *remaining > 0 => started += 1,
                    Some(_) if *remaining == 0 && *total > 1 => started -= 1,
                    Some(_) => {}
                }
                if *remaining == 0 {
                    entries -= 1;
                }
            }
            assert_eq!(
                queue.len(),
                reference.heap.len(),
                "seed {seed}: pending deliveries"
            );
        }
        assert!(
            refused_at_fanout > 20 && rekeyed_past_plain > 20 && mixed_ties > 20,
            "seed {seed}: vacuous grid ({refused_at_fanout} refusals at a fan-out's key, \
             {rekeyed_past_plain} re-keys past a plain event, {mixed_ties} mixed ties)"
        );
        assert_eq!(queue.live_high_water(), delivery_peak, "seed {seed}");
        assert_eq!(queue.heap_high_water(), entry_peak, "seed {seed}");
        loop {
            let got = pop(&mut queue, Some(SimTime(u64::MAX)));
            assert_eq!(got, reference.pop(), "seed {seed}: drain pop diverged");
            if got.is_none() {
                break;
            }
        }
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
        assert_eq!(queue.total_scheduled(), reference.seq);
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
