//! The handoff rule: where a replica sends a copy of each batch it admits,
//! when it hands a copy on once more, and what keeps a transaction with two
//! or three holders from committing twice.
//!
//! A client batch reaches one replica, and waits in that replica's mempool
//! until the replica leads — n/2 views on average under rotation, forever
//! under a static leader that is someone else. So a replica that leads none
//! of the next views also sends a *copy* of each batch it admits to the
//! leader its own next vote helps wake ([`target`]), and keeps the original
//! as the fallback: a lost copy costs only the wait it would have had
//! anyway. Before the replica voted in its current view `v`, its next vote
//! completes the QC that lets `v + 1` propose; after, the one for `v + 2`.
//!
//! A close target can miss: its leader proposes before the copy arrives.
//! The sender sees that when the stamped view's block reaches it without
//! the copy's transactions, and then hands what is still its own on to its
//! current target, once ([`Outbox::rehand`]).
//!
//! With several holders, a transaction must still commit once:
//!
//! * a proposer leaves out what a pending block in its forest carries
//!   (`Mempool::next_batch_excluding`), and commit removes committed ids
//!   from every pool;
//! * a copy is kept only while its receiver has not passed the view it is
//!   meant for ([`receive`]). The sender leads none of the views up to that
//!   one, so its original can only commit in a later view — a copy that
//!   arrives after that commit arrives after its view, and is dropped;
//! * a re-handed copy is stamped at most two views after the missed one:
//!   the first copy's holder proposes again at the earliest one view after
//!   it, and that block is known committed two views later still, after the
//!   re-handed copy's view;
//! * two holders can propose one transaction on two branches, so the loser
//!   gives back only what the winner did not commit ([`requeue_forked`]);
//! * a replica that adopts a snapshot drops what its blocks carry from the
//!   pool ([`forget_committed`]): they were committed without the commit
//!   path that removes them.

use std::collections::VecDeque;

use bamboo_forest::{BlockForest, Ledger};
use bamboo_mempool::Mempool;
use bamboo_pacemaker::LeaderElection;
use bamboo_types::{
    Block, DigestSet, Handoff, Message, NodeId, SharedBlock, Transaction, TxId, View,
};

use crate::runtime::Transport;

/// How many of the newest committed blocks a forked block's transactions are
/// checked against before they go back to the pool: the longest fork whose
/// winner can carry one of them.
const FORK_LOOKBACK: usize = 64;

/// How many views after a missed view a re-handed copy may be stamped. The
/// first copy's holder proposes again in a view after the missed one, and
/// a block is known committed only two views after its own (commit depth
/// two and up, and Streamlet), so every holder drops a re-handed copy once
/// that commit can be known.
const REHAND_SPAN: u64 = 2;

/// The view `me` hands a batch to while at `view`, having last proposed in
/// `proposed_in_view` and last voted in `voted`, and that view's leader:
/// `max(view, voted + 1) + 1`, the view whose proposal `me`'s next vote
/// helps trigger, or `None` when `me` leads one of the views up to it —
/// `view` itself only while it has not proposed in it.
pub fn target(
    election: &LeaderElection,
    me: NodeId,
    view: View,
    proposed_in_view: View,
    voted: View,
) -> Option<(View, NodeId)> {
    let first = if proposed_in_view < view {
        view.as_u64()
    } else {
        view.as_u64() + 1
    };
    let last = view.as_u64().max(voted.as_u64() + 1) + 1;
    if (first..=last).any(|v| election.is_leader(me, View(v))) {
        return None;
    }
    Some((View(last), election.leader_of(View(last))))
}

/// The copies a replica handed off, by the view they are stamped with,
/// until that view's block reaches it. Only ids are kept: what goes on is
/// copied from the pool again. Re-handed copies are not kept: a copy is
/// handed on at most once.
#[derive(Debug, Default)]
pub struct Outbox {
    /// `(stamp, id)` of every copy sent and not yet checked, in the order
    /// sent. A sender's target never moves back, so neither do the stamps.
    sent: VecDeque<(View, TxId)>,
}

impl Outbox {
    /// Records copies sent for `stamp`, forgetting those that can no longer
    /// be handed on: no later target is within [`REHAND_SPAN`] of a stamp
    /// more than that far behind this one.
    fn keep(&mut self, stamp: View, txs: &[Transaction]) {
        let stale = |(sent, _): &(View, TxId)| sent.as_u64() + REHAND_SPAN < stamp.as_u64();
        while self.sent.front().is_some_and(stale) {
            self.sent.pop_front();
        }
        self.sent.extend(txs.iter().map(|tx| (stamp, tx.id)));
    }

    /// Whether a copy stamped with `view` waits for its block.
    pub fn awaits(&self, view: View) -> bool {
        self.sent.iter().any(|(stamp, _)| *stamp == view)
    }

    /// Once the first block of a view copies are stamped with is stored:
    /// hands what that block does not carry, what `mempool` still holds and
    /// what no block of `forest` above the committed head carries to
    /// `target` — only if it is at most [`REHAND_SPAN`] views after the
    /// block's. Counted in [`bamboo_mempool::MempoolStats::rehanded`].
    pub fn rehand(
        &mut self,
        block: &Block,
        mempool: &mut Mempool,
        forest: &BlockForest,
        target: Option<(View, NodeId)>,
        transport: &mut dyn Transport,
    ) {
        let start = self.sent.partition_point(|(stamp, _)| *stamp < block.view);
        let end = self.sent.partition_point(|(stamp, _)| *stamp <= block.view);
        let mut missing: Vec<TxId> = self.sent.drain(start..end).map(|(_, id)| id).collect();
        let Some((view, leader)) = target else {
            return;
        };
        if missing.is_empty() || view.as_u64() > block.view.as_u64() + REHAND_SPAN {
            return;
        }
        // A copy is a few ids and a payload up to a block: the ids still
        // missing stay a sorted list, and the payload is walked from its end,
        // where its leader queued what was handed in last.
        missing.sort_unstable();
        if block
            .payload
            .iter()
            .rev()
            .any(|tx| strike(&mut missing, &tx.id))
        {
            return;
        }
        missing.retain(|id| mempool.holds(id));
        let mut pending = forest.uncommitted_tx_ids();
        if missing.is_empty() || pending.any(|id| strike(&mut missing, id)) {
            return;
        }
        let txs = mempool.copy_rehanded(&missing);
        transport.unicast(leader, Message::Handoff(Handoff { view, txs }));
    }
}

/// Strikes `id` from the sorted `missing`; true once none is left.
fn strike(missing: &mut Vec<TxId>, id: &TxId) -> bool {
    if let Ok(at) = missing.binary_search(id) {
        missing.remove(at);
    }
    missing.is_empty()
}

/// Admits `txs` into `mempool` and, when there is a `target`, unicasts a
/// copy of the accepted ones to its leader as one [`Message::Handoff`] and
/// keeps it in `outbox`.
pub fn admit(
    mempool: &mut Mempool,
    outbox: &mut Outbox,
    target: Option<(View, NodeId)>,
    txs: Vec<Transaction>,
    transport: &mut dyn Transport,
) {
    let Some((stamp, leader)) = target else {
        mempool.push_batch(txs);
        return;
    };
    let txs = mempool.push_batch_and_copy(txs);
    if !txs.is_empty() {
        outbox.keep(stamp, &txs);
        transport.unicast(leader, Message::Handoff(Handoff { view: stamp, txs }));
    }
}

/// Keeps a handed-in copy, unless the receiver, now at `view`, has passed
/// the view the copy was meant for.
pub fn receive(mempool: &mut Mempool, view: View, handoff: &Handoff) {
    if view > handoff.view {
        mempool.drop_handed_in(handoff.txs.len());
    } else {
        mempool.push_handed_in(&handoff.txs);
    }
}

/// Gives the transactions of the `forked` blocks `me` proposed back to the
/// front of `mempool`, except those one of the newest committed blocks
/// carries.
pub fn requeue_forked(
    mempool: &mut Mempool,
    ledger: &Ledger,
    me: NodeId,
    forked: Vec<SharedBlock>,
) {
    let recovered: Vec<Transaction> = (forked.into_iter())
        .filter(|b| b.proposer == me)
        .flat_map(|b| match SharedBlock::try_unwrap(b) {
            // Sole owner (the common case once the forest dropped its
            // handle): move the transactions out.
            Ok(block) => block.payload,
            // Still aliased elsewhere (e.g. by a peer's forest in the
            // threaded runtime): fall back to a copy. Forked blocks are rare.
            Err(shared) => shared.payload.clone(),
        })
        .collect();
    if recovered.is_empty() {
        return;
    }
    let newest = ledger.len().saturating_sub(FORK_LOOKBACK)..ledger.len();
    let committed: DigestSet<TxId> = (newest.filter_map(|index| ledger.get(index)))
        .flat_map(|committed| committed.block.payload.iter().map(|tx| tx.id))
        .collect();
    let lost = recovered
        .into_iter()
        .filter(|tx| !committed.contains(&tx.id));
    mempool.requeue_front(lost.collect());
}

/// Drops from `mempool` what the ledger's blocks from index `from` on carry:
/// the commit path's blocks, and a snapshot's, which commits them without
/// that path.
pub fn forget_committed(mempool: &mut Mempool, ledger: &Ledger, from: usize) {
    let adopted = (from..ledger.len()).filter_map(|index| ledger.get(index));
    mempool.remove_committed(
        adopted.flat_map(|committed| committed.block.payload.iter().map(|tx| &tx.id)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BufferedTransport;
    use bamboo_types::config::LeaderPolicy;
    use bamboo_types::{BlockId, Height, QuorumCert, SimTime};

    fn txs(seqs: std::ops::Range<u64>) -> Vec<Transaction> {
        seqs.map(|seq| Transaction::new(NodeId(100), seq, 0, SimTime::ZERO))
            .collect()
    }

    fn seqs(txs: &[Transaction]) -> Vec<u64> {
        txs.iter().map(|tx| tx.id.seq).collect()
    }

    /// Every leader policy's target, from the rule's own words: the view
    /// after `max(view, voted + 1)`, none if `me` leads a view up to it.
    fn expected(
        election: &LeaderElection,
        me: NodeId,
        view: u64,
        proposed: u64,
        voted: u64,
    ) -> Option<(View, NodeId)> {
        let last = view.max(voted + 1) + 1;
        let first = if proposed < view { view } else { view + 1 };
        let leads = (first..=last).any(|v| election.leader_of(View(v)) == me);
        (!leads).then(|| (View(last), election.leader_of(View(last))))
    }

    #[test]
    fn round_robin_hands_to_the_leader_the_next_vote_wakes() {
        let election = LeaderElection::new(8, LeaderPolicy::RoundRobin);
        let (unproposed, at) = (View(9), View(10));
        // Before seat 7 voted in view 10, its next vote wakes view 11's
        // leader; after, view 12's.
        let before = target(&election, NodeId(7), at, unproposed, View(9));
        assert_eq!(before, Some((View(11), NodeId(3))));
        let after = target(&election, NodeId(7), at, unproposed, View(10));
        assert_eq!(after, Some((View(12), NodeId(4))));
        // A seat that leads any view up to the target keeps the batch.
        for me in [2, 3] {
            assert_eq!(target(&election, NodeId(me), at, unproposed, View(9)), None);
        }
        assert_eq!(target(&election, NodeId(4), at, unproposed, View(10)), None);
        assert!(target(&election, NodeId(4), at, unproposed, View(9)).is_some());
        // Once seat 2 proposed in view 10, view 10 no longer counts.
        assert_eq!(target(&election, NodeId(2), at, at, View(10)), after);
        // A vote watermark ahead of the view (a restored one) moves the
        // target with it.
        let restored = target(&election, NodeId(1), at, unproposed, View(13));
        assert_eq!(restored, Some((View(15), NodeId(7))));
    }

    #[test]
    fn every_leader_policy_is_checked_view_by_view() {
        for policy in [
            LeaderPolicy::RoundRobin,
            LeaderPolicy::Hashed,
            LeaderPolicy::Static(NodeId(2)),
        ] {
            let election = LeaderElection::new(16, policy);
            for view in 1..120u64 {
                for (proposed, voted) in [(view - 1, view - 1), (view, view), (view - 1, view)] {
                    for me in (0..16).map(NodeId) {
                        let got = target(&election, me, View(view), View(proposed), View(voted));
                        let want = expected(&election, me, view, proposed, voted);
                        assert_eq!(got, want, "{policy:?} {me} view {view} voted {voted}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_static_leader_gets_every_batch_and_hands_none_off() {
        let election = LeaderElection::new(4, LeaderPolicy::Static(NodeId(2)));
        for view in 1..20 {
            for voted in [view - 1, view] {
                for me in [0, 1, 3].map(NodeId) {
                    let (_, leader) =
                        target(&election, me, View(view), View(view), View(voted)).unwrap();
                    assert_eq!(leader, NodeId(2));
                }
                let own = target(&election, NodeId(2), View(view), View(view), View(voted));
                assert_eq!(own, None);
            }
        }
    }

    #[test]
    fn admit_keeps_the_original_and_sends_one_copy_of_what_the_pool_took() {
        let (mut pool, mut outbox) = (Mempool::new(4), Outbox::default());
        let mut transport = BufferedTransport::default();
        let ahead = Some((View(9), NodeId(3)));
        admit(&mut pool, &mut outbox, None, txs(0..2), &mut transport);
        assert!(transport.sends.is_empty());
        admit(&mut pool, &mut outbox, ahead, txs(1..6), &mut transport);
        assert_eq!(pool.len(), 4, "the originals stay");
        // Tx 1 was a duplicate and txs 4 and 5 found no room: only 2 and 3.
        assert_eq!(handoffs(&transport), vec![(NodeId(3), View(9), vec![2, 3])]);
        assert_eq!(pool.stats().handed_off, 2);
        assert!(outbox.awaits(View(9)) && !outbox.awaits(View(8)));
        // Nothing accepted, nothing sent.
        admit(&mut pool, &mut outbox, ahead, txs(0..1), &mut transport);
        assert_eq!(transport.sends.len(), 1);
    }

    /// Every handoff `transport` carries: receiver, stamp, sequence numbers.
    fn handoffs(transport: &BufferedTransport) -> Vec<(NodeId, View, Vec<u64>)> {
        (transport.sends.iter())
            .map(|(to, message)| match &**message {
                Message::Handoff(h) => (to.expect("a unicast"), h.view, seqs(&h.txs)),
                other => panic!("{other:?}"),
            })
            .collect()
    }

    /// A block of `view` on `parent`, carrying `txs`.
    fn block_on(parent: &Block, view: u64, txs: Vec<Transaction>) -> Block {
        let qc = QuorumCert::genesis();
        Block::new(
            View(view),
            parent.height.next(),
            parent.id,
            NodeId(0),
            qc,
            txs,
        )
    }

    /// A sender at view 5 that handed txs 0..6 to view 7's leader (seat 3),
    /// with a forest holding genesis.
    fn sent_to_view_7() -> (Mempool, Outbox, BlockForest, BufferedTransport) {
        let (mut pool, mut outbox) = (Mempool::new(20), Outbox::default());
        let mut transport = BufferedTransport::default();
        let ahead = Some((View(7), NodeId(3)));
        admit(&mut pool, &mut outbox, ahead, txs(0..6), &mut transport);
        transport.sends.clear();
        (pool, outbox, BlockForest::new(), transport)
    }

    #[test]
    fn a_copy_its_view_block_carried_is_not_handed_on() {
        let (mut pool, mut outbox, mut forest, mut transport) = sent_to_view_7();
        let block = block_on(&Block::genesis(), 7, txs(0..6));
        forest.insert(block.clone()).unwrap();
        let ahead = Some((View(9), NodeId(5)));
        outbox.rehand(&block, &mut pool, &forest, ahead, &mut transport);
        assert!(transport.sends.is_empty());
        assert_eq!(pool.stats().rehanded, 0);
        assert!(outbox.sent.is_empty(), "checked once");
    }

    #[test]
    fn what_a_view_block_missed_is_handed_on_exactly_once() {
        let (mut pool, mut outbox, mut forest, mut transport) = sent_to_view_7();
        // Tx 5 left the sender's pool and a pending block carries tx 4: of
        // what view 7's block missed, only txs 2 and 3 are handed on.
        pool.remove_committed([txs(5..6)[0].id].iter());
        let pending = block_on(&Block::genesis(), 6, txs(4..5));
        forest.insert(pending.clone()).unwrap();
        let block = block_on(&pending, 7, txs(0..2));
        forest.insert(block.clone()).unwrap();
        let ahead = Some((View(9), NodeId(5)));
        outbox.rehand(&block, &mut pool, &forest, ahead, &mut transport);
        assert_eq!(handoffs(&transport), vec![(NodeId(5), View(9), vec![2, 3])]);
        assert_eq!(pool.stats().rehanded, 2);
        assert_eq!(pool.stats().handed_off, 6, "counted apart");
        // A second block of view 7, and the block of the re-handed copy's
        // own view 9, hand nothing on: a copy goes on at most once.
        let twin = block_on(&pending, 7, Vec::new());
        forest.insert(twin.clone()).unwrap();
        let late = block_on(&block, 9, Vec::new());
        forest.insert(late.clone()).unwrap();
        for b in [&twin, &late] {
            let ahead = Some((View(b.view.as_u64() + 2), NodeId(1)));
            outbox.rehand(b, &mut pool, &forest, ahead, &mut transport);
        }
        assert_eq!(transport.sends.len(), 1);
        assert_eq!(pool.stats().rehanded, 2);
    }

    #[test]
    fn no_copy_is_handed_on_more_than_two_views_past_its_own() {
        let block = block_on(&Block::genesis(), 7, Vec::new());
        // A target three views past, or none (the sender leads one of the
        // views up to it), hands nothing on.
        for ahead in [Some((View(10), NodeId(2))), None] {
            let (mut pool, mut outbox, mut forest, mut transport) = sent_to_view_7();
            forest.insert(block.clone()).unwrap();
            outbox.rehand(&block, &mut pool, &forest, ahead, &mut transport);
            assert!(transport.sends.is_empty(), "{ahead:?}");
            assert_eq!(pool.stats().rehanded, 0);
        }
        // A sender whose target moved more than two views past the copy's
        // forgets it: its target never moves back.
        let (mut pool, mut outbox, mut forest, mut transport) = sent_to_view_7();
        let ahead = Some((View(10), NodeId(2)));
        admit(&mut pool, &mut outbox, ahead, txs(10..11), &mut transport);
        assert_eq!(outbox.sent.len(), 1);
        forest.insert(block.clone()).unwrap();
        let close = Some((View(9), NodeId(1)));
        outbox.rehand(&block, &mut pool, &forest, close, &mut transport);
        assert_eq!(pool.stats().rehanded, 0);
    }

    #[test]
    fn a_copy_that_comes_after_its_view_is_dropped() {
        let mut pool = Mempool::new(10);
        let handoff = Handoff {
            view: View(7),
            txs: txs(0..3),
        };
        receive(&mut pool, View(8), &handoff);
        assert!(pool.is_empty());
        receive(&mut pool, View(7), &handoff);
        receive(&mut pool, View(5), &handoff);
        let stats = pool.stats();
        assert_eq!((stats.handed_in, stats.handoff_dropped), (3, 6));
        assert_eq!((stats.accepted, stats.rejected), (0, 0));
    }

    #[test]
    fn a_forked_block_gives_back_only_what_the_winner_did_not_commit() {
        let block = |proposer: u64, view: u64, txs: Vec<Transaction>| {
            let genesis = (BlockId::GENESIS, QuorumCert::genesis());
            let block = Block::new(
                View(view),
                Height(1),
                genesis.0,
                NodeId(proposer),
                genesis.1,
                txs,
            );
            SharedBlock::new(block)
        };
        let mut ledger = Ledger::new();
        ledger.append([block(1, 4, txs(0..2))], View(5), SimTime::ZERO);
        let mut pool = Mempool::new(10);
        pool.push(txs(9..10).remove(0));
        // Only our own forked block comes back, less what the winner carried.
        let forked = vec![block(2, 4, txs(1..4)), block(3, 4, txs(5..7))];
        requeue_forked(&mut pool, &ledger, NodeId(2), forked);
        assert_eq!(seqs(&pool.next_batch(10)), vec![2, 3, 9]);
        assert_eq!(pool.stats().requeued, 2);
    }

    #[test]
    fn an_adopted_snapshot_clears_what_it_committed_from_the_pool() {
        let mut ledger = Ledger::new();
        let genesis = (BlockId::GENESIS, QuorumCert::genesis());
        let old = Block::new(
            View(1),
            Height(1),
            genesis.0,
            NodeId(1),
            genesis.1.clone(),
            txs(0..2),
        );
        let adopted = Block::new(View(2), Height(2), old.id, NodeId(2), genesis.1, txs(2..4));
        ledger.append(
            [SharedBlock::new(old), SharedBlock::new(adopted)],
            View(3),
            SimTime::ZERO,
        );
        let mut pool = Mempool::new(10);
        pool.push_batch(txs(0..6));
        forget_committed(&mut pool, &ledger, 1);
        assert_eq!(seqs(&pool.next_batch(10)), vec![0, 1, 4, 5]);
    }
}
