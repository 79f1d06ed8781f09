//! The load generator's bookkeeping: the seeded request stream, open-loop
//! pacing with lateness accounting, and count-crossing latency attribution.
//!
//! None of the backends hands a per-request completion back to the client,
//! only a committed-transaction count. Latency is therefore attributed by
//! **count crossing**: requests are offered in order, each batch remembers
//! the cumulative offered count it ends at and the instant its latency is
//! timed from, and a batch counts as committed at the first observation of
//! the commit counter at or above that cumulative count. Replicas drain
//! their mempools in arrival order and leaders rotate round-robin, so commit
//! order tracks offer order to within a view's worth of blocks.

use std::collections::VecDeque;

use bamboo_core::{OpenLoopWorkload, Workload};
use bamboo_sim::SimRng;
use bamboo_types::{ClientRequest, Config, SimTime};

/// Count-crossing latency attribution plus the window's commit accounting.
pub struct CommitTracker {
    /// `(cumulative offered count at the batch's end, reference instant)`.
    pending: VecDeque<(u64, u64)>,
    offered: u64,
    /// Cumulative count up to which batches have been attributed.
    attributed: u64,
    /// Measurement window `[from, to)` on the driver's clock; only batches
    /// whose reference instant falls inside it yield samples.
    window: (u64, u64),
    /// Transactions offered with a reference instant inside the window.
    pub offered_in_window: u64,
    /// Of those, how many have been seen committed.
    pub committed_of_window: u64,
    /// One latency sample, in ms, per transaction of the window.
    pub samples_ms: Vec<f64>,
    last_committed: u64,
    last_progress_ns: Option<u64>,
    /// Longest stretch inside the window without the counter moving.
    pub max_commit_gap_ns: u64,
}

impl CommitTracker {
    pub fn new(window: (u64, u64)) -> Self {
        Self {
            pending: VecDeque::new(),
            offered: 0,
            attributed: 0,
            window,
            offered_in_window: 0,
            committed_of_window: 0,
            samples_ms: Vec::new(),
            last_committed: 0,
            last_progress_ns: None,
            max_commit_gap_ns: 0,
        }
    }

    /// Total transactions offered so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Records `count` transactions offered together whose latency is timed
    /// from `ref_ns` (the due instant in an open loop, the submit instant in
    /// a closed loop).
    pub fn offer(&mut self, count: u64, ref_ns: u64) {
        if count == 0 {
            return;
        }
        self.offered += count;
        if self.in_window(ref_ns) {
            self.offered_in_window += count;
        }
        self.pending.push_back((self.offered, ref_ns));
    }

    fn in_window(&self, at_ns: u64) -> bool {
        self.window.0 <= at_ns && at_ns < self.window.1
    }

    /// Feeds one reading of the commit counter taken at `now_ns`.
    pub fn observe(&mut self, committed: u64, now_ns: u64) {
        if committed > self.last_committed {
            if let Some(previous) = self.last_progress_ns {
                // A gap counts when any part of it lies inside the window.
                if now_ns > self.window.0 && previous < self.window.1 {
                    self.max_commit_gap_ns = self.max_commit_gap_ns.max(now_ns - previous);
                }
            }
            self.last_progress_ns = Some(now_ns);
            self.last_committed = committed;
        }
        while let Some(&(end, ref_ns)) = self.pending.front() {
            if end > committed {
                break;
            }
            self.pending.pop_front();
            let count = end - self.attributed;
            self.attributed = end;
            if self.in_window(ref_ns) {
                self.committed_of_window += count;
                let latency_ms = now_ns.saturating_sub(ref_ns) as f64 / 1e6;
                self.samples_ms
                    .extend(std::iter::repeat(latency_ms).take(count as usize));
            }
        }
    }
}

/// Fixed-interval open-loop pacing: tick `k` is due at `k * interval`, no
/// matter how late earlier ticks ran, so a stalled generator catches up
/// instead of silently lowering the offered rate.
pub struct Pacer {
    interval_ns: u64,
    next_due_ns: u64,
    /// Worst observed lateness of a tick (how long after its due instant the
    /// generator got to it).
    pub late_max_ns: u64,
}

impl Pacer {
    pub fn new(interval_ns: u64) -> Self {
        Self {
            interval_ns: interval_ns.max(1),
            next_due_ns: 0,
            late_max_ns: 0,
        }
    }

    /// The next tick's due instant.
    pub fn next_due_ns(&self) -> u64 {
        self.next_due_ns
    }

    /// If a tick is due at `now_ns`, books its lateness and returns its due
    /// instant. Call repeatedly: after a stall several ticks are due at once,
    /// and each is late by its own amount.
    pub fn take_due(&mut self, now_ns: u64) -> Option<u64> {
        if now_ns < self.next_due_ns {
            return None;
        }
        let due = self.next_due_ns;
        self.late_max_ns = self.late_max_ns.max(now_ns - due);
        self.next_due_ns += self.interval_ns;
        Some(due)
    }
}

/// One pre-generated, pre-signed client request with its schedule.
pub struct ScheduledRequest {
    /// Offset from the first offered request at which this one is due.
    pub due_ns: u64,
    /// Target replica.
    pub replica: usize,
    pub request: ClientRequest,
}

/// The seeded open-loop request stream of `duration_ns`: Poisson arrivals at
/// the config's rate over its client population, signed when the config says
/// so, each addressed to a uniformly drawn replica. The same seed gives the
/// same stream; the program under test only ever sees the requests.
pub fn request_stream(config: &Config, seed: u64, duration_ns: u64) -> Vec<ScheduledRequest> {
    let rate = config.arrival_rate.expect("open-loop workload has a rate");
    let mut workload = OpenLoopWorkload::new(rate, config.payload_size, config.nodes)
        .with_signing(config.signed_requests);
    if let Some(clients) = config.client_population {
        workload = workload.with_population(clients);
    }
    let mut rng = SimRng::new(seed).derive(u64::MAX);
    let mut arrivals = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.05) as usize);
    workload.arrivals(SimTime::ZERO, SimTime(duration_ns), &mut rng, &mut arrivals);
    arrivals
        .into_iter()
        .map(|arrival| ScheduledRequest {
            due_ns: arrival.issued_at.as_nanos(),
            replica: arrival.replica.index(),
            request: arrival.into_request(),
        })
        .collect()
}

/// The requests of one pacing tick, grouped by target replica.
pub struct Tick {
    pub due_ns: u64,
    pub batches: Vec<Vec<ClientRequest>>,
    /// Due instant of every request of the tick, in offer order.
    pub request_dues: Vec<u64>,
}

/// Groups a schedule into ticks: tick `k` (due at `k * tick_ns`) carries the
/// requests that became due in the interval ending at it.
pub fn into_ticks(stream: Vec<ScheduledRequest>, tick_ns: u64, nodes: usize) -> Vec<Tick> {
    let mut ticks: Vec<Tick> = Vec::new();
    for scheduled in stream {
        let index = scheduled.due_ns.div_ceil(tick_ns) as usize;
        while ticks.len() <= index {
            ticks.push(Tick {
                due_ns: ticks.len() as u64 * tick_ns,
                batches: vec![Vec::new(); nodes],
                request_dues: Vec::new(),
            });
        }
        ticks[index].batches[scheduled.replica].push(scheduled.request);
        ticks[index].request_dues.push(scheduled.due_ns);
    }
    ticks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_commit_when_the_counter_crosses_their_cumulative_count() {
        let mut t = CommitTracker::new((0, u64::MAX));
        t.offer(200, 1_000_000); // ends at 200
        t.offer(200, 2_000_000); // ends at 400
        t.offer(100, 3_000_000); // ends at 500
        t.observe(199, 5_000_000);
        assert!(t.samples_ms.is_empty(), "199 < 200: nothing crossed yet");
        t.observe(450, 9_000_000);
        // Both 200-batches crossed at the same observation.
        assert_eq!(t.samples_ms.len(), 400);
        assert_eq!(t.samples_ms[0], 8.0);
        assert_eq!(t.samples_ms[399], 7.0);
        t.observe(500, 10_000_000);
        assert_eq!(t.samples_ms.len(), 500);
        assert_eq!(t.samples_ms[499], 7.0);
        assert_eq!(t.committed_of_window, 500);
        assert_eq!(t.offered(), 500);
    }

    #[test]
    fn only_batches_referenced_inside_the_window_yield_samples() {
        let mut t = CommitTracker::new((10, 20));
        t.offer(5, 9); // warm-up
        t.offer(7, 10); // first of the window
        t.offer(3, 19);
        t.offer(4, 20); // after the window
        t.observe(19, 1_000_019);
        assert_eq!(t.offered_in_window, 10);
        assert_eq!(t.committed_of_window, 10);
        assert_eq!(t.samples_ms.len(), 10);
    }

    #[test]
    fn commit_gap_is_the_longest_stall_touching_the_window() {
        let mut t = CommitTracker::new((100, 1_000));
        t.offer(1_000, 0);
        t.observe(10, 50);
        t.observe(10, 300); // no progress
        t.observe(20, 400); // gap 350, reaches into the window
        t.observe(30, 450);
        t.observe(40, 2_000); // starts inside the window
        t.observe(50, 9_000); // entirely after it
        assert_eq!(t.max_commit_gap_ns, 1_550);
    }

    #[test]
    fn pacer_books_each_overdue_tick_with_its_own_lateness() {
        let mut p = Pacer::new(2_000);
        assert_eq!(p.take_due(0), Some(0));
        assert_eq!(p.take_due(1_000), None);
        assert_eq!(p.take_due(2_300), Some(2_000));
        assert_eq!(p.late_max_ns, 300);
        // A 7 µs stall: ticks 4 000, 6 000 and 8 000 are all due at 9 100.
        assert_eq!(p.take_due(9_100), Some(4_000));
        assert_eq!(p.take_due(9_100), Some(6_000));
        assert_eq!(p.take_due(9_100), Some(8_000));
        assert_eq!(p.take_due(9_100), None);
        assert_eq!(p.late_max_ns, 5_100);
        assert_eq!(p.next_due_ns(), 10_000);
    }

    #[test]
    fn request_stream_is_a_function_of_the_seed() {
        let config = Config {
            arrival_rate: Some(5_000.0),
            client_population: Some(1_000),
            signed_requests: true,
            payload_size: 16,
            ..Config::default()
        };
        let a = request_stream(&config, 7, 100_000_000);
        let b = request_stream(&config, 7, 100_000_000);
        let c = request_stream(&config, 8, 100_000_000);
        assert!(a.len() > 300 && a.len() < 700, "{}", a.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.due_ns == y.due_ns
            && x.replica == y.replica
            && x.request == y.request));
        assert!(a.iter().zip(&c).any(|(x, y)| x.due_ns != y.due_ns));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|r| r.request.signature.is_some()));
    }
}
