//! Memory pool — Bamboo's `Mempool` component.
//!
//! The paper describes the mempool as "a bidirectional queue in which new
//! transactions are inserted from the back while old transactions (from
//! forked blocks) are inserted from the front" (§III-E). Each replica keeps a
//! local pool, so no cross-replica duplication check is needed.
//!
//! The pool enforces a capacity bound (`memsize` from Table I); when full it
//! rejects new arrivals (back-pressure), which is how the open-loop saturation
//! sweep drives the system past collapse — every rejection is counted and
//! surfaced as an admission-control statistic, never a silent drop. The bound
//! limits admission only: memory is sized by what the pool holds, and an
//! unused pool holds no heap at all.
//!
//! # One queue and a count table
//!
//! The pool is one queue, one id set and one capacity. Beside them sits a
//! table of 2,048 counters indexed by eleven bits mixed from both words of
//! the transaction id: how many queued ids fall in each slot. Every replica
//! removes the transactions of every committed block from its pool, and
//! most of those ids were never in
//! it — another replica's clients sent them. A zero counter proves an id
//! absent without hashing it, so the removal sweep skips nearly all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use bamboo_types::{DigestSet, Transaction, TxId};

/// Slots in the count table; a power of two, so [`slot`] is a shift.
const COUNT_SLOTS: usize = 2048;

/// The count-table slot of a transaction id: the top eleven bits of a
/// Fibonacci-hash mix of both words, which spreads consecutive values.
fn slot(id: &TxId) -> usize {
    let mixed = (id.client.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id.seq)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (mixed >> (u64::BITS - COUNT_SLOTS.trailing_zeros())) as usize
}

/// Statistics about mempool activity, used by the benchmarker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions currently buffered.
    pub pending: usize,
    /// Total accepted since creation.
    pub accepted: u64,
    /// Total rejected because the pool was full or the transaction was a
    /// duplicate — the admission-control backpressure counter.
    pub rejected: u64,
    /// Total re-queued from forked blocks.
    pub requeued: u64,
    /// Total handed out in batches.
    pub dispatched: u64,
}

/// A bounded, bidirectional transaction queue.
///
/// # Example
///
/// ```
/// use bamboo_mempool::Mempool;
/// use bamboo_types::{NodeId, SimTime, Transaction};
///
/// let mut pool = Mempool::new(100);
/// for seq in 0..10 {
///     pool.push(Transaction::new(NodeId(1), seq, 0, SimTime::ZERO));
/// }
/// let batch = pool.next_batch(4);
/// assert_eq!(batch.len(), 4);
/// assert_eq!(pool.len(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct Mempool {
    queue: VecDeque<Transaction>,
    /// Ids currently in the queue, to drop duplicate re-submissions.
    in_queue: DigestSet<TxId>,
    /// Queued ids per [`slot`]; empty until the first insert.
    counts: Vec<u32>,
    capacity: usize,
    stats: MempoolStats,
}

impl Mempool {
    /// Creates a pool bounded to `capacity` transactions. An empty pool
    /// allocates nothing: `capacity` is an admission bound, not a size. A
    /// replica holds only what its own clients sent it between two of its
    /// leader turns, usually far below the bound, so the queue and id set
    /// grow with use (amortised doubling; [`Mempool::push_batch`] reserves
    /// for its batch up front).
    pub fn new(capacity: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            in_queue: DigestSet::default(),
            counts: Vec::new(),
            capacity,
            stats: MempoolStats::default(),
        }
    }

    /// [`Mempool::new`], ignoring `_shards`: the pool is one queue. Kept
    /// only for callers that still pass a shard count.
    pub fn with_shards(capacity: usize, _shards: usize) -> Self {
        Self::new(capacity)
    }

    /// Number of buffered transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns true if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Returns true if the pool is at capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Fresh transactions the pool can still admit.
    pub fn remaining_capacity(&self) -> usize {
        self.capacity.saturating_sub(self.queue.len())
    }

    /// Records `id` as queued; false if it already was.
    fn insert_id(&mut self, id: TxId) -> bool {
        if !self.in_queue.insert(id) {
            return false;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; COUNT_SLOTS];
        }
        self.counts[slot(&id)] += 1;
        true
    }

    /// Forgets `id`; false if it was not queued.
    fn remove_id(&mut self, id: &TxId) -> bool {
        let removed = self.in_queue.remove(id);
        if removed {
            self.counts[slot(id)] -= 1;
        }
        removed
    }

    /// Appends a fresh transaction at the back of the queue.
    ///
    /// Returns `false` (and drops the transaction, counting the rejection) if
    /// the pool is full or the transaction is already queued.
    pub fn push(&mut self, tx: Transaction) -> bool {
        // One hash per push: `insert` already reports duplicates, so a
        // separate `contains` pre-check would just re-hash the id.
        if self.is_full() || !self.insert_id(tx.id) {
            self.stats.rejected += 1;
            return false;
        }
        self.queue.push_back(tx);
        self.stats.accepted += 1;
        true
    }

    /// Appends a batch of fresh transactions, reserving queue and id-set
    /// capacity from the batch size up front — the client-ingest hot path
    /// (replicas receive workload arrivals in per-tick batches). Returns how
    /// many were accepted; duplicates and overflow are rejected exactly as
    /// by [`Mempool::push`].
    pub fn push_batch(&mut self, txs: impl IntoIterator<Item = Transaction>) -> usize {
        let txs = txs.into_iter();
        let room = txs.size_hint().0.min(self.remaining_capacity());
        self.queue.reserve(room);
        self.in_queue.reserve(room);
        txs.map(|tx| usize::from(self.push(tx))).sum()
    }

    /// Re-inserts transactions recovered from forked (overwritten) blocks at
    /// the *front* of the queue so they are re-proposed first, exactly as the
    /// paper describes. Re-queued transactions bypass the capacity bound:
    /// they were already accepted once.
    pub fn requeue_front(&mut self, txs: Vec<Transaction>) {
        // Preserve original ordering: push in reverse so the first element of
        // `txs` ends up at the very front.
        for tx in txs.into_iter().rev() {
            if self.insert_id(tx.id) {
                self.queue.push_front(tx);
                self.stats.requeued += 1;
            }
        }
    }

    /// Pops up to `max` transactions from the front — the proposer's
    /// batching strategy ("batch all the transactions in the memory pool if
    /// the amount is less than the target block size").
    pub fn next_batch(&mut self, max: usize) -> Vec<Transaction> {
        let take = max.min(self.queue.len());
        let batch: Vec<Transaction> = self.queue.drain(..take).collect();
        for tx in &batch {
            self.remove_id(&tx.id);
        }
        self.stats.dispatched += batch.len() as u64;
        batch
    }

    /// Removes transactions that have been committed elsewhere (e.g. observed
    /// in a committed block proposed by another replica), preventing
    /// re-proposal. Returns how many were removed.
    pub fn remove_committed<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) -> usize {
        if self.queue.is_empty() {
            return 0;
        }
        // Removing from the set both counts the victims and marks them; one
        // retain sweep then keeps the transactions whose ids are still in it.
        let mut removed = 0usize;
        for id in ids {
            if self.counts[slot(id)] != 0 && self.remove_id(id) {
                removed += 1;
            }
        }
        if removed > 0 {
            let in_queue = &self.in_queue;
            self.queue.retain(|tx| in_queue.contains(&tx.id));
        }
        removed
    }

    /// Returns a snapshot of activity counters.
    pub fn stats(&self) -> MempoolStats {
        MempoolStats {
            pending: self.queue.len(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::{NodeId, SimTime};

    fn tx(seq: u64) -> Transaction {
        Transaction::new(NodeId(1), seq, 0, SimTime::ZERO)
    }

    #[test]
    fn fifo_order_for_fresh_transactions() {
        let mut pool = Mempool::new(10);
        for seq in 0..5 {
            assert!(pool.push(tx(seq)));
        }
        let batch = pool.next_batch(3);
        let seqs: Vec<u64> = batch.iter().map(|t| t.id.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn capacity_bound_rejects_overflow() {
        let mut pool = Mempool::new(3);
        for seq in 0..3 {
            assert!(pool.push(tx(seq)));
        }
        assert!(pool.is_full());
        assert!(!pool.push(tx(99)));
        assert_eq!(pool.stats().rejected, 1);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut pool = Mempool::new(10);
        assert!(pool.push(tx(1)));
        assert!(!pool.push(tx(1)));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn requeued_transactions_jump_the_queue() {
        let mut pool = Mempool::new(10);
        for seq in 0..3 {
            pool.push(tx(seq));
        }
        let forked = vec![tx(100), tx(101)];
        pool.requeue_front(forked);
        let batch = pool.next_batch(10);
        let seqs: Vec<u64> = batch.iter().map(|t| t.id.seq).collect();
        assert_eq!(seqs, vec![100, 101, 0, 1, 2]);
        assert_eq!(pool.stats().requeued, 2);
    }

    #[test]
    fn requeue_bypasses_capacity_but_not_duplicates() {
        let mut pool = Mempool::new(2);
        pool.push(tx(0));
        pool.push(tx(1));
        pool.requeue_front(vec![tx(2), tx(0)]);
        assert_eq!(pool.len(), 3, "tx 2 added despite full pool, tx 0 deduped");
    }

    #[test]
    fn batch_can_be_reinserted_later() {
        let mut pool = Mempool::new(10);
        for seq in 0..4 {
            pool.push(tx(seq));
        }
        let batch = pool.next_batch(4);
        assert!(pool.is_empty());
        // The same transactions can come back (e.g. from a forked block).
        pool.requeue_front(batch);
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn remove_committed_drops_only_matching_ids() {
        let mut pool = Mempool::new(10);
        assert_eq!(pool.remove_committed([tx(1).id].iter()), 0, "empty pool");
        for seq in 0..5 {
            pool.push(tx(seq));
        }
        let victim_ids = [tx(1).id, tx(3).id, tx(77).id];
        let removed = pool.remove_committed(victim_ids.iter());
        assert_eq!(removed, 2);
        let seqs: Vec<u64> = pool.next_batch(10).iter().map(|t| t.id.seq).collect();
        assert_eq!(seqs, vec![0, 2, 4]);
    }

    #[test]
    fn push_batch_reserves_and_matches_per_tx_semantics() {
        let mut batched = Mempool::new(10);
        let accepted = batched.push_batch((0..8).map(tx));
        assert_eq!(accepted, 8);
        // Duplicates inside a later batch are rejected, capacity still binds.
        let accepted = batched.push_batch(vec![tx(7), tx(8), tx(9), tx(10)]);
        assert_eq!(accepted, 2, "tx 7 duplicate, tx 10 over capacity");
        assert!(batched.is_full());

        let mut one_by_one = Mempool::new(10);
        for seq in 0..8 {
            one_by_one.push(tx(seq));
        }
        for t in [tx(7), tx(8), tx(9), tx(10)] {
            one_by_one.push(t);
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(
            batched
                .next_batch(16)
                .iter()
                .map(|t| t.id.seq)
                .collect::<Vec<_>>(),
            one_by_one
                .next_batch(16)
                .iter()
                .map(|t| t.id.seq)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_admission_bound_holds_with_no_pre_size() {
        for capacity in [1usize, 100, 5000] {
            let fresh = Mempool::new(capacity);
            let sizes = (fresh.queue.capacity(), fresh.in_queue.capacity());
            assert_eq!((sizes, fresh.counts.capacity()), ((0, 0), 0));
            for batched in [false, true] {
                let mut pool = Mempool::new(capacity);
                let txs = (0..capacity as u64).map(tx);
                if batched {
                    assert_eq!(pool.push_batch(txs), capacity);
                } else {
                    assert!(txs.into_iter().all(|t| pool.push(t)));
                }
                assert!(pool.is_full());
                assert!(!pool.push(tx(capacity as u64)), "capacity={capacity}");
                assert_eq!(pool.stats().rejected, 1);
                assert_eq!(pool.stats().accepted, capacity as u64);
                let drained: Vec<u64> = pool
                    .next_batch(usize::MAX)
                    .iter()
                    .map(|t| t.id.seq)
                    .collect();
                assert_eq!(drained, (0..capacity as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn stats_track_activity() {
        let mut pool = Mempool::new(2);
        pool.push(tx(0));
        pool.push(tx(1));
        pool.push(tx(2)); // rejected
        pool.next_batch(1);
        let stats = pool.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.dispatched, 1);
        assert_eq!(stats.pending, 1);
    }

    #[test]
    fn the_shard_count_is_inert() {
        // The whole capacity is one bound, whatever count the caller passes:
        // no transaction is turned away while the pool has room.
        for shards in [1usize, 4, 8] {
            let mut pool = Mempool::with_shards(40, shards);
            let accepted = (0..160).filter(|&seq| pool.push(tx(seq))).count();
            assert_eq!(accepted, 40, "shards={shards}");
            let drained: Vec<u64> = pool.next_batch(40).iter().map(|t| t.id.seq).collect();
            assert_eq!(drained, (0..40).collect::<Vec<_>>(), "shards={shards}");
        }
    }

    /// The pool under test beside a reference: one `VecDeque` searched
    /// linearly, no id set and no count table.
    #[derive(Default)]
    struct Reference {
        queue: VecDeque<Transaction>,
        capacity: usize,
        stats: MempoolStats,
    }

    impl Reference {
        fn holds(&self, id: &TxId) -> bool {
            self.queue.iter().any(|tx| tx.id == *id)
        }

        fn push(&mut self, tx: Transaction) -> bool {
            if self.queue.len() >= self.capacity || self.holds(&tx.id) {
                self.stats.rejected += 1;
                return false;
            }
            self.queue.push_back(tx);
            self.stats.accepted += 1;
            true
        }

        fn requeue_front(&mut self, txs: Vec<Transaction>) {
            for tx in txs.into_iter().rev() {
                if !self.holds(&tx.id) {
                    self.queue.push_front(tx);
                    self.stats.requeued += 1;
                }
            }
        }

        fn next_batch(&mut self, max: usize) -> Vec<Transaction> {
            let take = max.min(self.queue.len());
            self.stats.dispatched += take as u64;
            self.queue.drain(..take).collect()
        }

        fn remove_committed(&mut self, ids: &[TxId]) -> usize {
            let before = self.queue.len();
            self.queue.retain(|tx| !ids.contains(&tx.id));
            before - self.queue.len()
        }

        fn stats(&self) -> MempoolStats {
            MempoolStats {
                pending: self.queue.len(),
                ..self.stats
            }
        }
    }

    /// The count slot that [`crowded_ids`] fill.
    const CROWDED_SLOT: usize = 0x2cd;

    /// The first `n` ids of client 2 that [`slot`] maps to
    /// [`CROWDED_SLOT`], so one slot holds many ids and a counter that
    /// drifted would skip a queued one.
    fn crowded_ids(n: usize) -> Vec<TxId> {
        (0..)
            .map(|seq| TxId {
                client: NodeId(2),
                seq,
            })
            .filter(|id| slot(id) == CROWDED_SLOT)
            .take(n)
            .collect()
    }

    #[test]
    fn slots_spread_consecutive_sequences_and_clients() {
        let slots_used = |ids: Vec<TxId>| {
            let mut hit = vec![false; COUNT_SLOTS];
            ids.iter().for_each(|id| hit[slot(id)] = true);
            hit.iter().filter(|&&h| h).count()
        };
        let id = |client, seq| TxId {
            client: NodeId(client),
            seq,
        };
        let n = COUNT_SLOTS as u64;
        assert!(slots_used((0..n).map(|seq| id(7, seq)).collect()) > COUNT_SLOTS / 2);
        assert!(slots_used((0..n).map(|c| id(1_000_000 + c, 7)).collect()) > COUNT_SLOTS / 2);
    }

    #[test]
    fn the_pool_matches_a_linear_reference_over_random_operations() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let ids = |batch: &[Transaction]| batch.iter().map(|t| t.id).collect::<Vec<_>>();
        let crowded = crowded_ids(2 * 64 + 8);
        assert_eq!(crowded.len(), 2 * 64 + 8);
        assert!(crowded.iter().all(|id| slot(id) == CROWDED_SLOT));
        // Every third key is a crowded id, the others client 1's.
        let keyed = |key: u64| {
            if key.is_multiple_of(3) {
                let id = crowded[key as usize];
                Transaction::new(id.client, id.seq, 0, SimTime::ZERO)
            } else {
                tx(key)
            }
        };
        for capacity in 1..=64usize {
            let mut pool = Mempool::new(capacity);
            let mut reference = Reference {
                capacity,
                ..Reference::default()
            };
            // Keys from a small universe, so duplicates, removals of queued
            // ids and removals of absent ids are all frequent.
            let universe = 2 * capacity as u64 + 8;
            let pick = |next: &mut dyn FnMut(u64) -> u64| keyed(next(universe));
            for step in 0..400 {
                let label = format!("capacity {capacity}, step {step}");
                match next(5) {
                    0 => {
                        let t = pick(&mut next);
                        assert_eq!(pool.push(t.clone()), reference.push(t), "{label}");
                    }
                    1 => {
                        let batch: Vec<Transaction> =
                            (0..next(8)).map(|_| pick(&mut next)).collect();
                        let expected: usize = (batch.iter())
                            .map(|t| usize::from(reference.push(t.clone())))
                            .sum();
                        assert_eq!(pool.push_batch(batch), expected, "{label}");
                    }
                    2 => {
                        let batch: Vec<Transaction> =
                            (0..next(4)).map(|_| pick(&mut next)).collect();
                        pool.requeue_front(batch.clone());
                        reference.requeue_front(batch);
                    }
                    3 => {
                        let max = next(capacity as u64 + 4) as usize;
                        let got = pool.next_batch(max);
                        assert_eq!(ids(&got), ids(&reference.next_batch(max)), "{label}");
                    }
                    _ => {
                        let ids: Vec<TxId> = (0..next(12)).map(|_| pick(&mut next).id).collect();
                        let removed = pool.remove_committed(ids.iter());
                        assert_eq!(removed, reference.remove_committed(&ids), "{label}");
                    }
                }
                assert_eq!(pool.len(), reference.queue.len(), "{label}");
                assert_eq!(pool.stats(), reference.stats(), "{label}");
            }
            let rest = pool.next_batch(usize::MAX);
            assert_eq!(ids(&rest), ids(&reference.next_batch(usize::MAX)));
            assert!(pool.counts.iter().all(|&c| c == 0), "capacity {capacity}");
        }
    }
}
