//! Workload generation: the Bamboo client library.
//!
//! Two client models are provided, matching how the paper drives its
//! benchmarks:
//!
//! * [`OpenLoopWorkload`] — transactions arrive according to a Poisson process
//!   with a configurable rate and are sent to a uniformly random replica
//!   (exactly the arrival model assumed by the analytical model of §V). The
//!   figures' curves are produced by sweeping this rate until saturation.
//!   The workload scales to a *population* of millions of distinct clients
//!   ([`OpenLoopWorkload::with_population`]): each arrival draws a client id
//!   uniformly from the population, and in signed mode
//!   ([`OpenLoopWorkload::with_signing`]) the issuing client's key is derived
//!   lazily from that id and the request signed on the spot — O(1) memory in
//!   the population size, and zero heap allocation per arrival (the payload
//!   is a cloned `Arc` template, the signing buffer is reused, and arrivals
//!   are written into a caller-owned buffer).
//! * [`ClosedLoopWorkload`] — a fixed number of concurrent clients (Table I's
//!   `concurrency`), each with one outstanding request: a client issues its
//!   next transaction only after the previous one commits.

use bamboo_crypto::{KeyPair, Signature};
use bamboo_sim::SimRng;
use bamboo_types::{Bytes, ClientRequest, NodeId, SimDuration, SimTime, Transaction, TxId};

/// Base of the simulated open-loop client id space: client `i` of the
/// population is `NodeId(CLIENT_ID_BASE + i)`. Far above any replica id, so
/// client and replica id spaces never collide.
pub const CLIENT_ID_BASE: u64 = 1_000_000;

/// A transaction arrival produced by a workload generator.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// When the client issues the transaction.
    pub issued_at: SimTime,
    /// The replica it is sent to.
    pub replica: NodeId,
    /// The transaction.
    pub transaction: Transaction,
    /// The issuing client's request signature (signed-client mode only).
    pub signature: Option<Signature>,
}

impl Arrival {
    /// Packages the arrival as the wire-level client request.
    pub fn into_request(self) -> ClientRequest {
        ClientRequest {
            transaction: self.transaction,
            signature: self.signature,
        }
    }
}

/// A source of client transactions.
pub trait Workload {
    /// Generates the arrivals issued during `[from, to)`, appending them to
    /// `out` (which the caller clears and reuses across windows, keeping the
    /// generation loop allocation-free in steady state).
    fn arrivals(&mut self, from: SimTime, to: SimTime, rng: &mut SimRng, out: &mut Vec<Arrival>);

    /// Notifies the workload that `tx` committed at `at` (used by closed-loop
    /// clients to issue their next request).
    fn on_commit(&mut self, tx: TxId, at: SimTime);

    /// Total transactions issued so far.
    fn total_issued(&self) -> u64;
}

/// Open-loop Poisson arrivals at a fixed aggregate rate.
#[derive(Clone, Debug)]
pub struct OpenLoopWorkload {
    rate_tx_per_sec: f64,
    replicas: usize,
    /// The legacy anonymous client id, used when no population is configured.
    client: NodeId,
    /// Size of the simulated client population; `None` = one anonymous client
    /// (the historical stream, which also draws nothing extra from the RNG).
    population: Option<u64>,
    /// Sign each request with the issuing client's lazily derived key.
    signing: bool,
    /// Shared payload template: every transaction of a run carries the same
    /// zeroed payload, so per-arrival payloads are `Arc` clones, not fresh
    /// allocations.
    payload: Bytes,
    next_seq: u64,
    /// Time of the next scheduled arrival (carried across windows).
    next_arrival: Option<SimTime>,
}

impl OpenLoopWorkload {
    /// Creates an open-loop workload issuing `rate_tx_per_sec` transactions
    /// per second spread uniformly over `replicas` replicas.
    pub fn new(rate_tx_per_sec: f64, payload_size: usize, replicas: usize) -> Self {
        Self {
            rate_tx_per_sec,
            replicas,
            client: NodeId(CLIENT_ID_BASE),
            population: None,
            signing: false,
            payload: Bytes::zeroed(payload_size),
            next_seq: 0,
            next_arrival: None,
        }
    }

    /// Spreads arrivals over a population of `clients` distinct client ids
    /// (`CLIENT_ID_BASE + 0..clients`), each arrival drawing its issuer
    /// uniformly. Memory stays O(1) in `clients`.
    pub fn with_population(mut self, clients: u64) -> Self {
        self.population = Some(clients.max(1));
        self
    }

    /// Enables per-request signing by the issuing client's derived key.
    pub fn with_signing(mut self, signing: bool) -> Self {
        self.signing = signing;
        self
    }

    /// The configured arrival rate.
    pub fn rate(&self) -> f64 {
        self.rate_tx_per_sec
    }
}

impl Workload for OpenLoopWorkload {
    fn arrivals(&mut self, from: SimTime, to: SimTime, rng: &mut SimRng, out: &mut Vec<Arrival>) {
        if self.rate_tx_per_sec <= 0.0 {
            return;
        }
        let mut cursor = self.next_arrival.unwrap_or_else(|| {
            from + SimDuration::from_secs_f64(rng.exponential(self.rate_tx_per_sec))
        });
        while cursor < to {
            let replica = NodeId(rng.choose_index(self.replicas) as u64);
            // The population draw is gated so the legacy single-client stream
            // consumes exactly the RNG values it always did.
            let client = match self.population {
                Some(clients) => NodeId(CLIENT_ID_BASE + rng.choose_index(clients as usize) as u64),
                None => self.client,
            };
            let tx = Transaction::with_payload(client, self.next_seq, self.payload.clone(), cursor);
            let signature = if self.signing {
                // Lazy per-client key derivation: two streaming hashes, no
                // allocation, no O(population) key table.
                let keypair = KeyPair::client_from_seed(client.as_u64());
                Some(keypair.sign(&ClientRequest::signing_bytes(&tx)))
            } else {
                None
            };
            self.next_seq += 1;
            out.push(Arrival {
                issued_at: cursor,
                replica,
                transaction: tx,
                signature,
            });
            cursor += SimDuration::from_secs_f64(rng.exponential(self.rate_tx_per_sec));
        }
        self.next_arrival = Some(cursor);
    }

    fn on_commit(&mut self, _tx: TxId, _at: SimTime) {}

    fn total_issued(&self) -> u64 {
        self.next_seq
    }
}

/// Closed-loop clients: `concurrency` clients each keep exactly one request in
/// flight.
#[derive(Clone, Debug)]
pub struct ClosedLoopWorkload {
    concurrency: usize,
    payload_size: usize,
    replicas: usize,
    next_seq: u64,
    started: bool,
    /// Requests that became ready when their predecessor committed but have
    /// not been handed to the runner yet.
    ready: Vec<Arrival>,
    /// The sequence number in flight per client slot; slot `i` is client
    /// `2_000_000 + i`, so a committed id names its slot.
    in_flight: Vec<u64>,
}

impl ClosedLoopWorkload {
    /// Creates a closed-loop workload with `concurrency` clients.
    pub fn new(concurrency: usize, payload_size: usize, replicas: usize) -> Self {
        Self {
            concurrency,
            payload_size,
            replicas,
            next_seq: 0,
            started: false,
            ready: Vec::new(),
            in_flight: vec![0; concurrency],
        }
    }

    /// Slot `slot`'s next request, issued at `at` to `replica`.
    fn issue(&mut self, slot: usize, at: SimTime, replica: NodeId) -> Arrival {
        let client = NodeId(2_000_000 + slot as u64);
        self.in_flight[slot] = self.next_seq;
        self.next_seq += 1;
        Arrival {
            issued_at: at,
            replica,
            transaction: Transaction::new(client, self.in_flight[slot], self.payload_size, at),
            signature: None,
        }
    }
}

impl Workload for ClosedLoopWorkload {
    fn arrivals(&mut self, from: SimTime, _to: SimTime, rng: &mut SimRng, out: &mut Vec<Arrival>) {
        if !self.started {
            self.started = true;
            for slot in 0..self.concurrency {
                let replica = NodeId(rng.choose_index(self.replicas) as u64);
                let arrival = self.issue(slot, from, replica);
                out.push(arrival);
            }
        }
        // Hand over requests whose predecessors have committed; re-stamp the
        // replica choice here so it uses the runner's RNG stream.
        for mut arrival in std::mem::take(&mut self.ready) {
            arrival.replica = NodeId(rng.choose_index(self.replicas) as u64);
            out.push(arrival);
        }
    }

    fn on_commit(&mut self, tx: TxId, at: SimTime) {
        let slot = tx.client.as_u64().wrapping_sub(2_000_000) as usize;
        if self.in_flight.get(slot) == Some(&tx.seq) {
            let next = self.issue(slot, at, NodeId(0));
            self.ready.push(next);
        }
    }

    fn total_issued(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(
        wl: &mut dyn Workload,
        from: SimTime,
        to: SimTime,
        rng: &mut SimRng,
    ) -> Vec<Arrival> {
        let mut out = Vec::new();
        wl.arrivals(from, to, rng, &mut out);
        out
    }

    #[test]
    fn open_loop_rate_is_respected() {
        let mut wl = OpenLoopWorkload::new(10_000.0, 0, 4);
        let mut rng = SimRng::new(1);
        let arrivals = collect(
            &mut wl,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(1),
            &mut rng,
        );
        let n = arrivals.len() as f64;
        assert!((n - 10_000.0).abs() < 500.0, "got {n} arrivals");
        assert_eq!(wl.total_issued(), arrivals.len() as u64);
        // All arrivals are inside the window and target valid replicas.
        for a in &arrivals {
            assert!(a.issued_at < SimTime::ZERO + SimDuration::from_secs(1));
            assert!(a.replica.index() < 4);
        }
    }

    #[test]
    fn open_loop_windows_do_not_lose_or_duplicate_arrivals() {
        let mut whole = OpenLoopWorkload::new(5_000.0, 0, 4);
        let mut split = OpenLoopWorkload::new(5_000.0, 0, 4);
        let mut rng_a = SimRng::new(7);
        let mut rng_b = SimRng::new(7);
        let full = collect(
            &mut whole,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(100),
            &mut rng_a,
        );
        let mut pieces = Vec::new();
        for i in 0..10 {
            split.arrivals(
                SimTime::ZERO + SimDuration::from_millis(i * 10),
                SimTime::ZERO + SimDuration::from_millis((i + 1) * 10),
                &mut rng_b,
                &mut pieces,
            );
        }
        assert_eq!(full.len(), pieces.len());
    }

    #[test]
    fn population_mode_is_window_split_invariant_and_diverse() {
        let build = || OpenLoopWorkload::new(5_000.0, 0, 4).with_population(1_000_000);
        let mut whole = build();
        let mut split = build();
        let mut rng_a = SimRng::new(2021);
        let mut rng_b = SimRng::new(2021);
        let full = collect(
            &mut whole,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(100),
            &mut rng_a,
        );
        let mut pieces = Vec::new();
        for i in 0..20 {
            split.arrivals(
                SimTime::ZERO + SimDuration::from_millis(i * 5),
                SimTime::ZERO + SimDuration::from_millis((i + 1) * 5),
                &mut rng_b,
                &mut pieces,
            );
        }
        assert_eq!(full.len(), pieces.len());
        for (a, b) in full.iter().zip(&pieces) {
            assert_eq!(a.transaction.id, b.transaction.id);
            assert_eq!(a.issued_at, b.issued_at);
            assert_eq!(a.replica, b.replica);
        }
        // A million-client population actually spreads issuers.
        let distinct: std::collections::HashSet<NodeId> =
            full.iter().map(|a| a.transaction.id.client).collect();
        assert!(distinct.len() > full.len() / 2, "population not diverse");
        for a in &full {
            assert!(a.transaction.id.client.as_u64() >= CLIENT_ID_BASE);
            assert!(a.transaction.id.client.as_u64() < CLIENT_ID_BASE + 1_000_000);
        }
    }

    #[test]
    fn signed_arrivals_verify_under_the_issuing_clients_key() {
        let mut wl = OpenLoopWorkload::new(2_000.0, 16, 4)
            .with_population(1_000)
            .with_signing(true);
        let mut rng = SimRng::new(7);
        let arrivals = collect(
            &mut wl,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(50),
            &mut rng,
        );
        assert!(!arrivals.is_empty());
        for a in arrivals {
            let request = a.into_request();
            let key =
                KeyPair::client_from_seed(request.transaction.id.client.as_u64()).public_key();
            assert!(request.verify(&key), "arrival must verify at the edge");
        }
    }

    #[test]
    fn payloads_share_one_template_allocation() {
        let mut wl = OpenLoopWorkload::new(5_000.0, 256, 4).with_population(10_000);
        let mut rng = SimRng::new(3);
        let arrivals = collect(
            &mut wl,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_millis(20),
            &mut rng,
        );
        assert!(arrivals.len() > 2);
        let first = arrivals[0].transaction.payload.as_ptr();
        for a in &arrivals {
            assert!(std::ptr::eq(first, a.transaction.payload.as_ptr()));
            assert_eq!(a.transaction.payload.len(), 256);
        }
    }

    #[test]
    fn zero_rate_open_loop_is_silent() {
        let mut wl = OpenLoopWorkload::new(0.0, 0, 4);
        let mut rng = SimRng::new(1);
        assert!(collect(&mut wl, SimTime::ZERO, SimTime(1_000_000_000), &mut rng).is_empty());
    }

    #[test]
    fn closed_loop_keeps_concurrency_in_flight() {
        let mut wl = ClosedLoopWorkload::new(8, 32, 4);
        let mut rng = SimRng::new(2);
        let first = collect(&mut wl, SimTime::ZERO, SimTime(1), &mut rng);
        assert_eq!(first.len(), 8, "one request per client at start");
        // Nothing new until something commits.
        assert!(collect(&mut wl, SimTime(1), SimTime(2), &mut rng).is_empty());
        // Commit two of them: exactly two replacements appear.
        wl.on_commit(first[0].transaction.id, SimTime(500));
        wl.on_commit(first[3].transaction.id, SimTime(600));
        let next = collect(&mut wl, SimTime(700), SimTime(701), &mut rng);
        assert_eq!(next.len(), 2);
        assert_eq!(wl.total_issued(), 10);
        // Unknown commits are ignored.
        wl.on_commit(first[0].transaction.id, SimTime(800));
        assert!(collect(&mut wl, SimTime(900), SimTime(901), &mut rng).is_empty());
    }
}
