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
//! # Sharding
//!
//! The pool is internally split into `K` independent shards keyed by the
//! leading bits of the transaction id ([`Mempool::with_shards`]). Because a
//! transaction id is a digest, the key is uniform; because the same id always
//! maps to the same shard, per-shard duplicate detection is globally exact.
//! Each shard owns its queue, id set and a capacity slice of `memsize / K`,
//! so shards never contend by construction — the single-threaded analogue of
//! a lock-free sharded pool — and admission control degrades gracefully: one
//! hot shard rejecting does not stall the other `K − 1`. Draining is a
//! deterministic round-robin over the shards with a persistent cursor, so a
//! proposer's batch composition is a pure function of the push history.
//! `K = 1` (the default) is byte-identical to the historical single
//! bidirectional queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use bamboo_types::{DigestSet, Transaction, TxId};

/// Statistics about mempool activity, used by the benchmarker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions currently buffered.
    pub pending: usize,
    /// Total accepted since creation.
    pub accepted: u64,
    /// Total rejected because the pool (shard) was full or the transaction
    /// was a duplicate — the admission-control backpressure counter.
    pub rejected: u64,
    /// Total re-queued from forked blocks.
    pub requeued: u64,
    /// Total handed out in batches.
    pub dispatched: u64,
}

/// One independent slice of the pool: its own queue, id set and capacity.
#[derive(Clone, Debug)]
struct Shard {
    queue: VecDeque<Transaction>,
    /// Ids currently in this shard's queue, to drop duplicate re-submissions.
    in_queue: DigestSet<TxId>,
    capacity: usize,
}

impl Shard {
    /// An empty shard allocates nothing: `capacity` is an admission bound,
    /// not a size. A replica holds only what its own clients sent it between
    /// two of its leader turns, usually far below the bound, so the queue
    /// and id set grow with use (amortised doubling; [`Mempool::push_batch`]
    /// reserves for its batch up front).
    fn new(capacity: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            in_queue: DigestSet::default(),
            capacity,
        }
    }
}

/// A bounded, bidirectional transaction queue, internally sharded by
/// transaction-id bits.
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
    shards: Vec<Shard>,
    /// Round-robin drain cursor: the shard the next [`Mempool::next_batch`]
    /// pop starts at. Persistent across calls so consecutive small batches
    /// drain the shards evenly.
    cursor: usize,
    /// Total buffered transactions across all shards (kept incrementally so
    /// `len` is O(1) regardless of the shard count).
    len: usize,
    stats: MempoolStats,
}

impl Mempool {
    /// Creates an unsharded pool bounded to `capacity` transactions —
    /// equivalent to [`Mempool::with_shards`] with one shard.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Creates a pool of `shards` independent slices with a total bound of
    /// `capacity` transactions; each shard holds at most
    /// `max(1, capacity / shards)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(shards > 0, "mempool needs at least one shard");
        let per_shard = (capacity / shards).max(1);
        Self {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            cursor: 0,
            len: 0,
            stats: MempoolStats::default(),
        }
    }

    /// The shard a transaction id belongs to: the leading 64 bits of the
    /// digest modulo the shard count. Uniform (the id is a hash) and stable
    /// (same id, same shard — which makes per-shard dedup globally exact).
    fn shard_of(&self, id: &TxId) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let lead: [u8; 8] = id.0.as_bytes()[..8].try_into().expect("digest is 32 bytes");
        (u64::from_be_bytes(lead) % self.shards.len() as u64) as usize
    }

    /// Number of buffered transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns true if every shard is at capacity.
    pub fn is_full(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| shard.queue.len() >= shard.capacity)
    }

    /// Remaining capacity summed over all shards. A push can still be
    /// rejected with remaining capacity left when its *own* shard is full.
    pub fn remaining_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.capacity.saturating_sub(shard.queue.len()))
            .sum()
    }

    /// Appends a fresh transaction at the back of its shard's queue.
    ///
    /// Returns `false` (and drops the transaction, counting the rejection) if
    /// the shard is full or the transaction is already queued.
    pub fn push(&mut self, tx: Transaction) -> bool {
        let shard_index = self.shard_of(&tx.id);
        let shard = &mut self.shards[shard_index];
        // One hash per push: `insert` already reports duplicates, so a
        // separate `contains` pre-check would just re-hash the id.
        if shard.queue.len() >= shard.capacity || !shard.in_queue.insert(tx.id) {
            self.stats.rejected += 1;
            return false;
        }
        shard.queue.push_back(tx);
        self.len += 1;
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
        let (hint, _) = txs.size_hint();
        let room = hint
            .min(self.remaining_capacity())
            .div_ceil(self.shards.len());
        for shard in &mut self.shards {
            shard.queue.reserve(room);
            shard.in_queue.reserve(room);
        }
        let mut accepted = 0usize;
        for tx in txs {
            if self.push(tx) {
                accepted += 1;
            }
        }
        accepted
    }

    /// Re-inserts transactions recovered from forked (overwritten) blocks at
    /// the *front* of their shard's queue so they are re-proposed first,
    /// exactly as the paper describes. Re-queued transactions bypass the
    /// capacity bound: they were already accepted once.
    pub fn requeue_front(&mut self, txs: Vec<Transaction>) {
        // Preserve original ordering: push in reverse so the first element of
        // `txs` ends up at the very front of its shard.
        for tx in txs.into_iter().rev() {
            let shard_index = self.shard_of(&tx.id);
            let shard = &mut self.shards[shard_index];
            if shard.in_queue.insert(tx.id) {
                shard.queue.push_front(tx);
                self.len += 1;
                self.stats.requeued += 1;
            }
        }
    }

    /// Pops up to `max` transactions, round-robin across the shards from the
    /// persistent cursor — the proposer's batching strategy ("batch all the
    /// transactions in the memory pool if the amount is less than the target
    /// block size"), generalised to shards deterministically: the batch
    /// composition is a pure function of the push history, independent of
    /// when the shards were drained.
    pub fn next_batch(&mut self, max: usize) -> Vec<Transaction> {
        let take = max.min(self.len);
        let mut batch = Vec::with_capacity(take);
        let shards = self.shards.len();
        while batch.len() < take {
            // Find the next non-empty shard from the cursor. `take ≤ len`
            // guarantees one exists.
            while self.shards[self.cursor].queue.is_empty() {
                self.cursor = (self.cursor + 1) % shards;
            }
            let shard = &mut self.shards[self.cursor];
            let tx = shard.queue.pop_front().expect("shard is non-empty");
            shard.in_queue.remove(&tx.id);
            batch.push(tx);
            self.cursor = (self.cursor + 1) % shards;
        }
        self.len -= batch.len();
        self.stats.dispatched += batch.len() as u64;
        batch
    }

    /// Removes transactions that have been committed elsewhere (e.g. observed
    /// in a committed block proposed by another replica), preventing
    /// re-proposal. Returns how many were removed.
    pub fn remove_committed<'a>(&mut self, ids: impl IntoIterator<Item = &'a TxId>) -> usize {
        // Single pass over the ids: each shard's `in_queue` mirrors its queue
        // membership, so removing from the set both counts the victims and
        // marks them — a shard was touched exactly when its set is now
        // shorter than its queue, and one retain sweep per such shard keeps
        // the ids still in its set.
        let mut removed = 0usize;
        for id in ids {
            let shard_index = self.shard_of(id);
            removed += usize::from(self.shards[shard_index].in_queue.remove(id));
        }
        if removed > 0 {
            for shard in &mut self.shards {
                if shard.in_queue.len() < shard.queue.len() {
                    shard.queue.retain(|tx| shard.in_queue.contains(&tx.id));
                }
            }
            self.len -= removed;
        }
        removed
    }

    /// Returns a snapshot of activity counters.
    pub fn stats(&self) -> MempoolStats {
        MempoolStats {
            pending: self.len,
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
        let seqs: Vec<u64> = batch.iter().map(|t| t.seq).collect();
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
        let seqs: Vec<u64> = batch.iter().map(|t| t.seq).collect();
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
        for seq in 0..5 {
            pool.push(tx(seq));
        }
        let victim_ids = [tx(1).id, tx(3).id, tx(77).id];
        let removed = pool.remove_committed(victim_ids.iter());
        assert_eq!(removed, 2);
        let seqs: Vec<u64> = pool.next_batch(10).iter().map(|t| t.seq).collect();
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
                .map(|t| t.seq)
                .collect::<Vec<_>>(),
            one_by_one
                .next_batch(16)
                .iter()
                .map(|t| t.seq)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_admission_bound_holds_with_no_pre_size() {
        for capacity in [1usize, 100, 5000] {
            let fresh = Mempool::new(capacity);
            let shard = &fresh.shards[0];
            assert_eq!((shard.queue.capacity(), shard.in_queue.capacity()), (0, 0));
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
                let drained: Vec<u64> = pool.next_batch(usize::MAX).iter().map(|t| t.seq).collect();
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
    fn sharded_pool_preserves_every_transaction_exactly_once() {
        for shards in [1usize, 2, 4, 7] {
            let mut pool = Mempool::with_shards(1000, shards);
            for seq in 0..200 {
                assert!(pool.push(tx(seq)), "shards={shards} seq={seq}");
            }
            assert_eq!(pool.len(), 200);
            let mut seen: Vec<u64> = Vec::new();
            while !pool.is_empty() {
                seen.extend(pool.next_batch(17).iter().map(|t| t.seq));
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..200).collect::<Vec<u64>>(), "shards={shards}");
            assert_eq!(pool.stats().dispatched, 200);
        }
    }

    #[test]
    fn sharded_drain_is_deterministic() {
        let drain = |shards: usize| -> Vec<u64> {
            let mut pool = Mempool::with_shards(1000, shards);
            for seq in 0..100 {
                pool.push(tx(seq));
            }
            let mut order = Vec::new();
            while !pool.is_empty() {
                order.extend(pool.next_batch(13).iter().map(|t| t.seq));
            }
            order
        };
        assert_eq!(drain(4), drain(4));
        // One shard is the historical FIFO.
        assert_eq!(drain(1), (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sharded_admission_control_counts_every_rejection() {
        // Per-shard capacity is total / shards; overflow in one shard is
        // rejected (and counted) even while other shards have room.
        for shards in [2usize, 4] {
            let total = 40usize;
            let mut pool = Mempool::with_shards(total, shards);
            let offered = 4 * total as u64;
            for seq in 0..offered {
                pool.push(tx(seq));
            }
            let stats = pool.stats();
            assert_eq!(
                stats.accepted + stats.rejected,
                offered,
                "shards={shards}: every offered tx is accounted"
            );
            assert!(stats.rejected > 0, "shards={shards}: overload must reject");
            assert_eq!(stats.pending as u64, stats.accepted);
            assert!(pool.len() <= total);
        }
    }

    #[test]
    fn sharded_dedup_and_removal_stay_exact() {
        let mut pool = Mempool::with_shards(100, 4);
        for seq in 0..20 {
            pool.push(tx(seq));
        }
        // Same ids land in the same shards, so duplicates are caught.
        for seq in 0..20 {
            assert!(!pool.push(tx(seq)));
        }
        let victims: Vec<TxId> = (0..10).map(|seq| tx(seq).id).collect();
        assert_eq!(pool.remove_committed(victims.iter()), 10);
        assert_eq!(pool.len(), 10);
        let mut left: Vec<u64> = pool.next_batch(20).iter().map(|t| t.seq).collect();
        left.sort_unstable();
        assert_eq!(left, (10..20).collect::<Vec<u64>>());
    }
}
