//! The handoff rule: where a replica sends a copy of each batch it admits,
//! and what keeps a transaction with two holders from committing twice.
//!
//! A client batch reaches one replica, and waits in that replica's mempool
//! until the replica leads — n/2 views on average under rotation, forever
//! under a static leader that is someone else. So a replica that leads none
//! of the next views also sends a *copy* of each batch it admits to the
//! leader [`HANDOFF_AHEAD`] views ahead, and keeps the original as the
//! fallback: a lost copy costs only the wait it would have had anyway.
//! "The next views" are the current view, unless the replica already
//! proposed in it, and the [`HANDOFF_AHEAD`] views after it.
//!
//! Three views, and a copy rather than a move, come from measurement
//! (DESIGN.md §7.4): two views ahead, copies reach the leader too late on a
//! geo-distributed cluster; a moved batch is lost whenever its one message
//! is.
//!
//! With two holders, a transaction must still commit once:
//!
//! * a proposer leaves out what a pending block in its forest carries
//!   (`Mempool::next_batch_excluding`), and commit removes committed ids
//!   from every pool;
//! * a copy is kept only while its receiver has not passed the view it is
//!   meant for ([`receive`]). The sender leads none of the views up to that
//!   one, so its original can only commit in a later view — a copy that
//!   arrives after that commit arrives after its view, and is dropped;
//! * two holders can propose one transaction on two branches, so the loser
//!   gives back only what the winner did not commit ([`requeue_forked`]);
//! * a replica that adopts a snapshot drops what its blocks carry from the
//!   pool ([`forget_committed`]): they were committed without the commit
//!   path that removes them.

use bamboo_forest::Ledger;
use bamboo_mempool::Mempool;
use bamboo_pacemaker::LeaderElection;
use bamboo_types::{DigestSet, Handoff, Message, NodeId, SharedBlock, Transaction, TxId, View};

use crate::runtime::Transport;

/// How many views ahead of its current view a replica hands a batch to.
pub const HANDOFF_AHEAD: u64 = 3;

/// How many of the newest committed blocks a forked block's transactions are
/// checked against before they go back to the pool: the longest fork whose
/// winner can carry one of them.
const FORK_LOOKBACK: usize = 64;

/// The view `me` hands a batch to while at `view`, having last proposed in
/// `proposed_in_view`, and that view's leader: `view + HANDOFF_AHEAD`, or
/// `None` when `me` leads one of the next views itself.
pub fn target(
    election: &LeaderElection,
    me: NodeId,
    view: View,
    proposed_in_view: View,
) -> Option<(View, NodeId)> {
    let first = if proposed_in_view < view {
        view.as_u64()
    } else {
        view.as_u64() + 1
    };
    let last = view.as_u64() + HANDOFF_AHEAD;
    if (first..=last).any(|v| election.is_leader(me, View(v))) {
        return None;
    }
    Some((View(last), election.leader_of(View(last))))
}

/// Admits `txs` into `mempool` and, when there is a `target`, unicasts a
/// copy of the accepted ones to its leader as one [`Message::Handoff`].
pub fn admit(
    mempool: &mut Mempool,
    target: Option<(View, NodeId)>,
    txs: Vec<Transaction>,
    transport: &mut dyn Transport,
) {
    let Some((view, leader)) = target else {
        mempool.push_batch(txs);
        return;
    };
    let txs = mempool.push_batch_and_copy(txs);
    if !txs.is_empty() {
        transport.unicast(leader, Message::Handoff(Handoff { view, txs }));
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
/// a snapshot commits them without the commit path's `remove_committed`.
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
    use bamboo_types::{Block, BlockId, Height, QuorumCert, SimTime};

    fn txs(seqs: std::ops::Range<u64>) -> Vec<Transaction> {
        seqs.map(|seq| Transaction::new(NodeId(100), seq, 0, SimTime::ZERO))
            .collect()
    }

    fn seqs(txs: &[Transaction]) -> Vec<u64> {
        txs.iter().map(|tx| tx.id.seq).collect()
    }

    #[test]
    fn round_robin_hands_to_the_leader_three_views_ahead() {
        let election = LeaderElection::new(8, LeaderPolicy::RoundRobin);
        let unproposed = View(9);
        // Seat 7 leads none of views 10..=13: it hands to the leader of 13.
        let ahead = Some((View(13), NodeId(5)));
        assert_eq!(target(&election, NodeId(7), View(10), unproposed), ahead);
        // A seat that leads any of the four views keeps the batch.
        for me in 2..=5 {
            assert_eq!(
                target(&election, NodeId(me), View(10), unproposed),
                None,
                "{me}"
            );
        }
        // Once seat 2 proposed in view 10, view 10 no longer counts.
        assert_eq!(target(&election, NodeId(2), View(10), View(10)), ahead);
        assert_eq!(target(&election, NodeId(5), View(10), View(10)), None);
    }

    #[test]
    fn hashed_leaders_are_checked_view_by_view() {
        let election = LeaderElection::new(16, LeaderPolicy::Hashed);
        for view in 1..200u64 {
            let leaders: Vec<NodeId> = (view..=view + 3)
                .map(|v| election.leader_of(View(v)))
                .collect();
            for me in (0..16).map(NodeId) {
                let expected = (!leaders.contains(&me)).then_some((View(view + 3), leaders[3]));
                assert_eq!(target(&election, me, View(view), View(view - 1)), expected);
            }
        }
    }

    #[test]
    fn a_static_leader_gets_every_batch_and_hands_none_off() {
        let election = LeaderElection::new(4, LeaderPolicy::Static(NodeId(2)));
        for view in 1..20 {
            for me in [0, 1, 3].map(NodeId) {
                let (_, leader) = target(&election, me, View(view), View(view)).unwrap();
                assert_eq!(leader, NodeId(2));
            }
            assert_eq!(target(&election, NodeId(2), View(view), View(view)), None);
        }
    }

    #[test]
    fn admit_keeps_the_original_and_sends_one_copy_of_what_the_pool_took() {
        let mut pool = Mempool::new(4);
        let mut transport = BufferedTransport::default();
        admit(&mut pool, None, txs(0..2), &mut transport);
        assert!(transport.sends.is_empty());
        admit(
            &mut pool,
            Some((View(9), NodeId(3))),
            txs(1..6),
            &mut transport,
        );
        assert_eq!(pool.len(), 4, "the originals stay");
        let [(to, message)] = &transport.sends[..] else {
            panic!("one handoff: {:?}", transport.sends);
        };
        assert_eq!(*to, Some(NodeId(3)));
        let Message::Handoff(handoff) = &**message else {
            panic!("{message:?}");
        };
        // Tx 1 was a duplicate and txs 4 and 5 found no room: only 2 and 3.
        assert_eq!((handoff.view, seqs(&handoff.txs)), (View(9), vec![2, 3]));
        assert_eq!(pool.stats().handed_off, 2);
        // Nothing accepted, nothing sent.
        admit(
            &mut pool,
            Some((View(9), NodeId(3))),
            txs(0..1),
            &mut transport,
        );
        assert_eq!(transport.sends.len(), 1);
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
