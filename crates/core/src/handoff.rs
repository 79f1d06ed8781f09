//! The handoff rule: where a replica sends a copy of each batch it admits,
//! when it hands a copy on, and how long a copy lives.
//!
//! A client batch reaches one replica, and waits in that replica's mempool
//! until the replica leads — n/2 views on average under rotation, forever
//! under a static leader that is someone else. So a replica that leads none
//! of the next views also sends a *copy* of each batch it admits to the
//! leader its own next vote helps wake ([`target`]), and keeps the original
//! as the fallback: a lost copy costs only the wait it would have had
//! anyway. Before the replica voted in its current view `v`, its next vote
//! completes the QC that lets `v + 1` propose; after, the one for `v + 2`.
//! Under synchronous epochs no vote wakes a proposal: the leader of `v + 1`
//! proposes at its epoch boundary, half a view timeout after it entered
//! `v + 1`, so a copy sent from `v` reaches it in time whether or not the
//! sender voted in `v`, and a paced replica aims at `v + 1`.
//!
//! A target can miss. Its leader may propose before the copy arrives, or be
//! down. The sender sees either when the stamped view is over for it: the
//! view's first block reaches it without the copy's transactions, or it
//! enters the next view through the view's TC. Then it hands what is still
//! its own on to its current target under a new stamp ([`Copies::settle`]),
//! and again each time the new stamp's view is over without carrying it,
//! for as long as the copy lives.
//!
//! A transaction with several holders can be committed twice; the ledger
//! executes it once ([`bamboo_forest::ExecWindow`]) as long as its carriers
//! are at most [`WINDOW`] blocks apart. DESIGN.md §7.4 argues that bound.
//! It rests on the lifetime of a copy at its sender ([`COPY_LIFETIME`]) and
//! at its holder ([`HELD_LIFETIME`]), and on what takes a transaction out of
//! a pool or keeps it out: commit removes committed ids from every pool, a
//! replica that adopts a snapshot drops what its blocks carry
//! ([`forget_committed`]), a proposer leaves out what a pending block in its
//! forest carries ([`Copies::take_batch`]), and the loser of a fork gives
//! back only what no committed block from [`WINDOW`] below it on carries
//! ([`requeue_forked`]).

use std::collections::VecDeque;

use bamboo_forest::{BlockForest, Ledger, WINDOW};
use bamboo_mempool::Mempool;
use bamboo_pacemaker::LeaderElection;
use bamboo_types::{DigestSet, Handoff, Message, NodeId, SharedBlock, Transaction, TxId, View};

use crate::runtime::Step;

/// How many views past the stamp it was first sent with a copy may still be
/// handed on: a quarter of the execute-once window (DESIGN.md §7.4).
const COPY_LIFETIME: u64 = WINDOW as u64 / 4;

/// How many views past its stamp a holder may still propose a copy handed
/// to it: what the execute-once window leaves after a copy's lifetime and
/// the three views between its first stamp and its first carrier. A held
/// copy still in the pool when its holder proposes later than that is
/// dropped first, so every carrier of a copy is proposed within [`WINDOW`]
/// views, and blocks, of its transaction's first carrier (DESIGN.md §7.4).
const HELD_LIFETIME: u64 = WINDOW as u64 - COPY_LIFETIME - 3;

/// The view `me` hands a batch to while at `view`, having last proposed in
/// `proposed_in_view` and last voted in `voted`, and that view's leader:
/// `max(view, voted + 1) + 1`, the view whose proposal `me`'s next vote
/// helps trigger — or `view + 1` when the protocol is `paced` by
/// synchronous epochs, whose leader proposes at its epoch boundary, not on
/// a vote. `None` when `me` leads one of the views up to it — `view` itself
/// only while it has not proposed in it.
pub fn target(
    election: &LeaderElection,
    me: NodeId,
    view: View,
    proposed_in_view: View,
    voted: View,
    paced: bool,
) -> Option<(View, NodeId)> {
    let first = if proposed_in_view < view {
        view.as_u64()
    } else {
        view.as_u64() + 1
    };
    let last = if paced {
        view.as_u64() + 1
    } else {
        view.as_u64().max(voted.as_u64() + 1) + 1
    };
    if (first..=last).any(|v| election.is_leader(me, View(v))) {
        return None;
    }
    Some((View(last), election.leader_of(View(last))))
}

/// One copy a replica handed off: the view it is stamped with now, the one
/// it was first sent with, and its id. Only ids are kept: what goes on is
/// copied from the pool again.
#[derive(Clone, Copy, Debug)]
struct Sent {
    stamp: View,
    first: View,
    id: TxId,
}

/// The copies a replica handed off, until a view they are stamped with
/// carries them or they need not go on, and the copies handed to it that
/// it still holds.
#[derive(Debug, Default)]
pub struct Copies {
    /// Every copy sent and not yet settled, in stamp order: a sender's
    /// target never moves back, and a copy handed on goes to the back under
    /// its new stamp, the sender's current target.
    sent: VecDeque<Sent>,
    /// Every handed-in copy the pool took, with its stamp, in stamp order,
    /// until it leaves the pool or its holder passes [`HELD_LIFETIME`] views
    /// past the stamp.
    held: VecDeque<(View, TxId)>,
}

impl Copies {
    /// Records copies sent for `stamp`, forgetting those that can no longer
    /// be handed on: a copy stamped more than [`COPY_LIFETIME`] views
    /// behind was first sent at least that far behind too.
    fn keep(&mut self, stamp: View, txs: &[Transaction]) {
        let stale = |sent: &Sent| sent.stamp.as_u64() + COPY_LIFETIME < stamp.as_u64();
        while self.sent.front().is_some_and(stale) {
            self.sent.pop_front();
        }
        let sent = |tx: &Transaction| Sent {
            stamp,
            first: stamp,
            id: tx.id,
        };
        self.sent.extend(txs.iter().map(sent));
    }

    /// Whether a copy stamped with `view` or earlier waits to be settled.
    pub fn awaits(&self, view: View) -> bool {
        self.sent.front().is_some_and(|sent| sent.stamp <= view)
    }

    /// Keeps a handed-in copy, unless the receiver, now at `view`, has passed
    /// the view the copy was meant for, and holds what the pool took.
    pub fn receive(&mut self, mempool: &mut Mempool, view: View, handoff: &Handoff) {
        if view > handoff.view {
            mempool.drop_handed_in(handoff.txs.len());
            return;
        }
        self.expire(view, mempool);
        // Copies come nearly in stamp order: what a holder takes sits at or
        // near the back.
        let mut at = self
            .held
            .partition_point(|(stamp, _)| *stamp <= handoff.view);
        mempool.push_handed_in(&handoff.txs, |id| {
            self.held.insert(at, (handoff.view, id));
            at += 1;
        });
    }

    /// Drops from `mempool` the held copies stamped more than
    /// [`HELD_LIFETIME`] views before `view`, counted in
    /// [`bamboo_mempool::MempoolStats::handoff_dropped`].
    fn expire(&mut self, view: View, mempool: &mut Mempool) {
        let live = |(stamp, _): &(View, TxId)| stamp.as_u64() + HELD_LIFETIME >= view.as_u64();
        let stale = self.held.partition_point(|held| !live(held));
        if stale > 0 {
            let ids: Vec<TxId> = self.held.drain(..stale).map(|(_, id)| id).collect();
            mempool.expire_handed_in(&ids);
        }
    }

    /// The batch of at most `max` transactions `mempool` gives a proposal for
    /// `view`: held copies past their lifetime go first, and what a pending
    /// block of `forest` carries stays queued.
    pub fn take_batch(
        &mut self,
        view: View,
        mempool: &mut Mempool,
        forest: &BlockForest,
        max: usize,
    ) -> Vec<Transaction> {
        self.expire(view, mempool);
        let batch = mempool.next_batch_excluding(max, forest.uncommitted_tx_ids());
        // A copy that left the pool has nothing left to expire.
        self.held.retain(|(_, id)| mempool.holds(id));
        batch
    }

    /// Once `view` is over at the sender — its first block is stored, with
    /// payload `carried`, or its TC is entered, which carries nothing —
    /// hands every copy stamped at or before `view` that `carried` lacks on
    /// to `target` ([`hand_on`] says what goes) and keeps what went under
    /// the new stamp, so the next view that misses it moves it on again.
    /// Counted in [`bamboo_mempool::MempoolStats::rehanded`].
    pub fn settle(
        &mut self,
        view: View,
        carried: &[Transaction],
        mempool: &mut Mempool,
        forest: &BlockForest,
        target: Option<(View, NodeId)>,
        out: &mut Step<'_>,
    ) {
        let due = self.sent.partition_point(|sent| sent.stamp <= view);
        let mut due: Vec<Sent> = self.sent.drain(..due).collect();
        // A copy is a few ids and a payload up to a block: the ids still due
        // stay a sorted list, and the payload is walked from its end, where
        // its leader queued what was handed in last.
        due.sort_unstable_by_key(|sent| sent.id);
        if due.is_empty() || carried.iter().rev().any(|tx| strike(&mut due, &tx.id)) {
            return;
        }
        let handed = hand_on(due, mempool, forest, target, out);
        if let Some((stamp, _)) = target {
            (self.sent).extend(handed.into_iter().map(|sent| Sent { stamp, ..sent }));
        }
    }
}

/// Hands `copies` (sorted by id) on to `target` as one copy: those still
/// within their lifetime, that `mempool` still holds and that no block of
/// `forest` above the committed head carries. Returns what went; nothing
/// goes without a target (the sender leads one of the views up to it).
fn hand_on(
    mut copies: Vec<Sent>,
    mempool: &mut Mempool,
    forest: &BlockForest,
    target: Option<(View, NodeId)>,
    out: &mut Step<'_>,
) -> Vec<Sent> {
    let Some((view, leader)) = target else {
        return Vec::new();
    };
    let live = |sent: &Sent| sent.first.as_u64() + COPY_LIFETIME >= view.as_u64();
    copies.retain(|sent| live(sent) && mempool.holds(&sent.id));
    let mut pending = forest.uncommitted_tx_ids();
    if copies.is_empty() || pending.any(|id| strike(&mut copies, id)) {
        return Vec::new();
    }
    let ids: Vec<TxId> = copies.iter().map(|sent| sent.id).collect();
    let txs = mempool.copy_rehanded(&ids);
    out.unicast(leader, Message::Handoff(Handoff { view, txs }));
    copies
}

/// Strikes `id` from `missing`, sorted by id; true once none is left.
fn strike(missing: &mut Vec<Sent>, id: &TxId) -> bool {
    if let Ok(at) = missing.binary_search_by_key(id, |sent| sent.id) {
        missing.remove(at);
    }
    missing.is_empty()
}

/// Admits `txs` into `mempool` and, when there is a `target`, unicasts a
/// copy of the accepted ones to its leader as one [`Message::Handoff`] and
/// keeps it in `copies`.
pub fn admit(
    mempool: &mut Mempool,
    copies: &mut Copies,
    target: Option<(View, NodeId)>,
    txs: Vec<Transaction>,
    out: &mut Step<'_>,
) {
    let Some((stamp, leader)) = target else {
        mempool.push_batch(txs);
        return;
    };
    let txs = mempool.push_batch_and_copy(txs);
    if !txs.is_empty() {
        copies.keep(stamp, &txs);
        out.unicast(leader, Message::Handoff(Handoff { view: stamp, txs }));
    }
}

/// Gives the transactions of the `forked` blocks `me` proposed back to the
/// front of `mempool`, except those a committed block carries from
/// [`WINDOW`] blocks below the lowest of them (or below the ledger's end,
/// if that is lower) on: a fork pruned long after its winner committed
/// still finds the winner's carriers.
pub fn requeue_forked(
    mempool: &mut Mempool,
    ledger: &Ledger,
    me: NodeId,
    forked: Vec<SharedBlock>,
) {
    let mine = |b: &SharedBlock| b.proposer == me;
    let Some(lowest) = forked.iter().filter(|b| mine(b)).map(|b| b.height).min() else {
        return;
    };
    let recovered: Vec<Transaction> = (forked.into_iter())
        .filter(mine)
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
    // Ledger index i holds height i + 1.
    let anchor = ledger.len().min(lowest.as_u64().saturating_sub(1) as usize);
    let from = anchor.saturating_sub(WINDOW);
    let committed: DigestSet<TxId> = ((from..ledger.len()).filter_map(|index| ledger.get(index)))
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
    use bamboo_sim::CpuModel;
    use bamboo_types::config::LeaderPolicy;
    use bamboo_types::{Block, BlockId, Height, QuorumCert, SimDuration, SimTime};

    /// A free step writing into `transport`.
    fn step(transport: &mut BufferedTransport) -> Step<'_> {
        Step::new(SimTime::ZERO, transport, CpuModel::new(SimDuration::ZERO))
    }

    /// [`admit`] in a free step writing into `transport`.
    fn admit_into(
        pool: &mut Mempool,
        copies: &mut Copies,
        target: Option<(View, NodeId)>,
        txs: Vec<Transaction>,
        transport: &mut BufferedTransport,
    ) {
        admit(pool, copies, target, txs, &mut step(transport));
    }

    fn txs(seqs: std::ops::Range<u64>) -> Vec<Transaction> {
        seqs.map(|seq| Transaction::new(NodeId(100), seq, 0, SimTime::ZERO))
            .collect()
    }

    fn seqs(txs: &[Transaction]) -> Vec<u64> {
        txs.iter().map(|tx| tx.id.seq).collect()
    }

    /// Every leader policy's target, from the rule's own words: the view
    /// after `max(view, voted + 1)`, or after `view` when paced, none if
    /// `me` leads a view up to it.
    fn expected(
        election: &LeaderElection,
        me: NodeId,
        view: u64,
        proposed: u64,
        voted: u64,
        paced: bool,
    ) -> Option<(View, NodeId)> {
        let last = if paced { view } else { view.max(voted + 1) } + 1;
        let first = if proposed < view { view } else { view + 1 };
        let leads = (first..=last).any(|v| election.leader_of(View(v)) == me);
        (!leads).then(|| (View(last), election.leader_of(View(last))))
    }

    /// `target` for seat `me` at view 10 of an eight-seat rotation.
    fn at_10(me: u64, proposed: u64, voted: u64, paced: bool) -> Option<(View, NodeId)> {
        let election = LeaderElection::new(8, LeaderPolicy::RoundRobin);
        target(
            &election,
            NodeId(me),
            View(10),
            View(proposed),
            View(voted),
            paced,
        )
    }

    #[test]
    fn round_robin_hands_to_the_leader_the_next_vote_wakes() {
        // Before seat 7 voted in view 10, its next vote wakes view 11's
        // leader; after, view 12's.
        assert_eq!(at_10(7, 9, 9, false), Some((View(11), NodeId(3))));
        let after = at_10(7, 9, 10, false);
        assert_eq!(after, Some((View(12), NodeId(4))));
        // A seat that leads any view up to the target keeps the batch.
        for me in [2, 3] {
            assert_eq!(at_10(me, 9, 9, false), None);
        }
        assert_eq!(at_10(4, 9, 10, false), None);
        assert!(at_10(4, 9, 9, false).is_some());
        // Once seat 2 proposed in view 10, view 10 no longer counts.
        assert_eq!(at_10(2, 10, 10, false), after);
        // A vote watermark ahead of the view (a restored one) moves the
        // target with it.
        assert_eq!(at_10(1, 9, 13, false), Some((View(15), NodeId(7))));
    }

    #[test]
    fn under_synchronous_epochs_the_copy_goes_to_the_next_view_voted_or_not() {
        // View 11's leader proposes at its epoch boundary, not on seat 7's
        // vote: the copy aims at it before and after seat 7 voted in 10.
        for voted in [9, 10, 13] {
            assert_eq!(at_10(7, 9, voted, true), Some((View(11), NodeId(3))));
        }
        for voted in [9, 10] {
            // View 11's leader keeps its batch, and so does view 10's while
            // it has not proposed; view 12's now hands off.
            assert_eq!(at_10(3, 9, voted, true), None);
            assert_eq!(at_10(2, 9, voted, true), None);
            assert_eq!(at_10(4, 9, voted, true), Some((View(11), NodeId(3))));
        }
        assert_eq!(at_10(2, 10, 10, true), Some((View(11), NodeId(3))));
        // The responsive rule is unchanged: after voting in view 10, view 12.
        assert_eq!(at_10(7, 9, 10, false), Some((View(12), NodeId(4))));
    }

    #[test]
    fn every_leader_policy_is_checked_view_by_view() {
        for policy in [
            LeaderPolicy::RoundRobin,
            LeaderPolicy::Hashed,
            LeaderPolicy::Static(NodeId(2)),
        ] {
            let election = LeaderElection::new(16, policy);
            let views = (1..120u64).flat_map(|view| [(view, false), (view, true)]);
            for (view, paced) in views {
                for (proposed, voted) in [(view - 1, view - 1), (view, view), (view - 1, view)] {
                    let (at, proposed_in) = (View(view), View(proposed));
                    for me in (0..16).map(NodeId) {
                        let got = target(&election, me, at, proposed_in, View(voted), paced);
                        let want = expected(&election, me, view, proposed, voted, paced);
                        assert_eq!(got, want, "{policy:?} {me} {view} {voted} {paced}");
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
                for paced in [false, true] {
                    let aim =
                        |me| target(&election, me, View(view), View(view), View(voted), paced);
                    for me in [0, 1, 3].map(NodeId) {
                        assert_eq!(aim(me).unwrap().1, NodeId(2));
                    }
                    assert_eq!(aim(NodeId(2)), None);
                }
            }
        }
    }

    #[test]
    fn admit_keeps_the_original_and_sends_one_copy_of_what_the_pool_took() {
        let (mut pool, mut copies) = (Mempool::new(4), Copies::default());
        let mut transport = BufferedTransport::default();
        let ahead = Some((View(9), NodeId(3)));
        admit_into(&mut pool, &mut copies, None, txs(0..2), &mut transport);
        assert!(transport.sends.is_empty());
        admit_into(&mut pool, &mut copies, ahead, txs(1..6), &mut transport);
        assert_eq!(pool.len(), 4, "the originals stay");
        // Tx 1 was a duplicate and txs 4 and 5 found no room: only 2 and 3.
        assert_eq!(handoffs(&transport), vec![(NodeId(3), View(9), vec![2, 3])]);
        assert_eq!(pool.stats().handed_off, 2);
        assert!(copies.awaits(View(9)) && !copies.awaits(View(8)));
        // Nothing accepted, nothing sent.
        admit_into(&mut pool, &mut copies, ahead, txs(0..1), &mut transport);
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

    /// A sender's pool, copies, forest and outbox.
    struct Sender {
        pool: Mempool,
        copies: Copies,
        forest: BlockForest,
        transport: BufferedTransport,
    }

    impl Sender {
        /// A sender at view 5 that handed txs 0..6 to view 7's leader (seat
        /// 3), with a forest holding genesis.
        fn sent_to_view_7() -> Self {
            let (mut pool, mut copies) = (Mempool::new(20), Copies::default());
            let mut transport = BufferedTransport::default();
            let ahead = Some((View(7), NodeId(3)));
            admit_into(&mut pool, &mut copies, ahead, txs(0..6), &mut transport);
            transport.sends.clear();
            let forest = BlockForest::new();
            Sender {
                pool,
                copies,
                forest,
                transport,
            }
        }

        /// Stores `block` and settles its view, aiming at `target`.
        fn stores(&mut self, block: &Block, target: Option<(View, NodeId)>) {
            self.forest.insert(block.clone()).unwrap();
            self.settle(block.view.as_u64(), &block.payload, target);
        }

        /// Settles `view`, which carried `carried`, aiming at `target`.
        fn settle(&mut self, view: u64, carried: &[Transaction], target: Option<(View, NodeId)>) {
            let Self {
                pool,
                copies,
                forest,
                transport,
            } = self;
            copies.settle(
                View(view),
                carried,
                pool,
                forest,
                target,
                &mut step(transport),
            );
        }

        /// Every copy kept as sent: stamp, first stamp, sequence number.
        fn kept(&self) -> Vec<(u64, u64, u64)> {
            (self.copies.sent.iter())
                .map(|sent| (sent.stamp.as_u64(), sent.first.as_u64(), sent.id.seq))
                .collect()
        }
    }

    #[test]
    fn a_copy_its_view_block_carried_is_not_handed_on() {
        let mut sender = Sender::sent_to_view_7();
        let block = block_on(&Block::genesis(), 7, txs(0..6));
        sender.stores(&block, Some((View(9), NodeId(5))));
        assert!(sender.transport.sends.is_empty());
        assert_eq!(sender.pool.stats().rehanded, 0);
        assert!(sender.copies.sent.is_empty(), "checked once");
    }

    #[test]
    fn a_copy_moves_on_each_time_a_view_it_is_stamped_with_misses_it() {
        let mut sender = Sender::sent_to_view_7();
        // Tx 5 left the sender's pool and a pending block carries tx 4: of
        // what view 7's block missed, only txs 2 and 3 are handed on.
        sender.pool.remove_committed([txs(5..6)[0].id].iter());
        let pending = block_on(&Block::genesis(), 6, txs(4..5));
        sender.forest.insert(pending.clone()).unwrap();
        let block = block_on(&pending, 7, txs(0..2));
        sender.stores(&block, Some((View(9), NodeId(5))));
        let first = (NodeId(5), View(9), vec![2, 3]);
        assert_eq!(handoffs(&sender.transport), [first]);
        assert_eq!(sender.pool.stats().rehanded, 2);
        assert_eq!(sender.pool.stats().handed_off, 6, "counted apart");
        // What went is kept under its new stamp; its lifetime still counts
        // from its first.
        assert_eq!(sender.kept(), [(9, 7, 2), (9, 7, 3)]);
        assert!(sender.copies.awaits(View(9)) && !sender.copies.awaits(View(8)));
        // A second block of view 7 finds nothing left to settle.
        sender.stores(
            &block_on(&pending, 7, Vec::new()),
            Some((View(10), NodeId(6))),
        );
        assert_eq!(sender.transport.sends.len(), 1);
        // View 9's block carries tx 2 and misses tx 3: tx 3 moves on again.
        sender.stores(&block_on(&block, 9, txs(2..3)), Some((View(11), NodeId(7))));
        let second = (NodeId(7), View(11), vec![3]);
        assert_eq!(handoffs(&sender.transport)[1..], [second]);
        assert_eq!(sender.kept(), [(11, 7, 3)]);
        // View 11 timing out moves it on once more.
        sender.settle(11, &[], Some((View(13), NodeId(1))));
        let third = (NodeId(1), View(13), vec![3]);
        assert_eq!(handoffs(&sender.transport)[2..], [third]);
        assert_eq!(sender.kept(), [(13, 7, 3)]);
        assert_eq!(sender.pool.stats().rehanded, 4);
    }

    #[test]
    fn no_copy_is_handed_on_past_its_lifetime() {
        let block = block_on(&Block::genesis(), 7, Vec::new());
        let far = View(7 + COPY_LIFETIME + 1);
        // No target (the sender leads one of the views up to it), or one
        // past the copy's lifetime, hands nothing on; three views past the
        // missed one does.
        for (ahead, handed) in [
            (None, 0),
            (Some((far, NodeId(2))), 0),
            (Some((View(10), NodeId(2))), 6),
        ] {
            let mut sender = Sender::sent_to_view_7();
            sender.stores(&block, ahead);
            assert_eq!(sender.pool.stats().rehanded, handed, "{ahead:?}");
            assert_eq!(sender.transport.sends.len(), usize::from(handed > 0));
        }
        // A sender whose target moved more than a lifetime past the copy's
        // stamp forgets it: its target never moves back.
        let mut sender = Sender::sent_to_view_7();
        let Sender {
            pool,
            copies,
            transport,
            ..
        } = &mut sender;
        admit_into(pool, copies, Some((far, NodeId(2))), txs(10..11), transport);
        assert_eq!(sender.copies.sent.len(), 1);
        sender.stores(&block, Some((View(9), NodeId(1))));
        assert_eq!(sender.pool.stats().rehanded, 0);
    }

    #[test]
    fn a_copy_whose_view_times_out_goes_to_the_current_target_and_on_again() {
        let mut sender = Sender::sent_to_view_7();
        // Tx 5 left the sender's pool and a pending block carries tx 4.
        sender.pool.remove_committed([txs(5..6)[0].id].iter());
        let pending = block_on(&Block::genesis(), 6, txs(4..5));
        sender.forest.insert(pending).unwrap();
        // View 6 timing out leaves the copy for view 7 where it is.
        sender.settle(6, &[], Some((View(8), NodeId(4))));
        assert!(sender.transport.sends.is_empty() && sender.copies.awaits(View(7)));
        // View 7 timing out hands what is still ours to the current target,
        // and keeps it under the new stamp.
        sender.settle(7, &[], Some((View(9), NodeId(5))));
        let first = vec![(NodeId(5), View(9), vec![0, 1, 2, 3])];
        assert_eq!(handoffs(&sender.transport), first);
        assert!(sender.copies.awaits(View(9)) && !sender.copies.awaits(View(8)));
        // Its view timing out too moves it on again.
        sender.settle(9, &[], Some((View(11), NodeId(7))));
        let second = (NodeId(7), View(11), vec![0, 1, 2, 3]);
        assert_eq!(handoffs(&sender.transport)[1..], [second]);
        assert_eq!(sender.pool.stats().rehanded, 8);
        assert_eq!(sender.pool.stats().handed_off, 6, "counted apart");
        // A timeout with no target (the sender leads one of the views up to
        // it) settles the copy: the sender proposes it itself.
        sender.settle(11, &[], None);
        assert!(sender.copies.sent.is_empty());
        assert_eq!(sender.transport.sends.len(), 2);
    }

    #[test]
    fn a_copy_that_comes_after_its_view_is_dropped() {
        let (mut pool, mut copies) = (Mempool::new(10), Copies::default());
        let handoff = Handoff {
            view: View(7),
            txs: txs(0..3),
        };
        copies.receive(&mut pool, View(8), &handoff);
        assert!(pool.is_empty());
        copies.receive(&mut pool, View(7), &handoff);
        copies.receive(&mut pool, View(5), &handoff);
        let stats = pool.stats();
        assert_eq!((stats.handed_in, stats.handoff_dropped), (3, 6));
        assert_eq!((stats.accepted, stats.rejected), (0, 0));
        assert_eq!(copies.held.len(), 3, "only what the pool took is held");
    }

    #[test]
    fn a_held_copy_is_proposed_at_most_its_lifetime_past_its_stamp() {
        let (mut pool, mut copies) = (Mempool::new(20), Copies::default());
        let forest = BlockForest::new();
        // The holder's own admission, and copies for views 9 and 7 (out of
        // stamp order), of which the pool already holds tx 0.
        pool.push(txs(0..1).remove(0));
        for (view, seqs) in [(9, 3..5), (7, 0..3)] {
            let handoff = Handoff {
                view: View(view),
                txs: txs(seqs),
            };
            copies.receive(&mut pool, View(6), &handoff);
        }
        let stamps: Vec<u64> = copies.held.iter().map(|(v, _)| v.as_u64()).collect();
        assert_eq!(stamps, vec![7, 7, 9, 9]);
        // The holder missed views 7 and 9: at its proposal one view past
        // view 7's lifetime, view 7's copies go and the rest is proposed.
        let late = View(7 + HELD_LIFETIME + 1);
        let batch = copies.take_batch(late, &mut pool, &forest, 10);
        assert_eq!(seqs(&batch), vec![0, 3, 4]);
        assert_eq!(pool.stats().handoff_dropped, 1 + 2);
        // Within its lifetime a held copy is proposed like any other.
        let (mut pool, mut copies) = (Mempool::new(20), Copies::default());
        let handoff = Handoff {
            view: View(7),
            txs: txs(0..2),
        };
        copies.receive(&mut pool, View(7), &handoff);
        let batch = copies.take_batch(View(7 + HELD_LIFETIME), &mut pool, &forest, 10);
        assert_eq!(seqs(&batch), vec![0, 1]);
        // A holder that proposed them drops nothing when they expire.
        copies.take_batch(View(7 + HELD_LIFETIME + 1), &mut pool, &forest, 10);
        assert!(copies.held.is_empty());
        assert_eq!(pool.stats().handoff_dropped, 0);
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

    /// The winner's carrier sits more than [`WINDOW`] blocks below the
    /// ledger's end when its losing twin is pruned: the lookback starts
    /// below the twin, not below the end, so the id does not come back.
    #[test]
    fn a_fork_pruned_long_after_its_winner_committed_gives_back_nothing_committed() {
        let (mut ledger, mut parent) = (Ledger::new(), BlockId::GENESIS);
        for height in 1..=WINDOW as u64 + 10 {
            let payload = if height == 3 { txs(0..2) } else { vec![] };
            let block = Block::new(
                View(height),
                Height(height),
                parent,
                NodeId(1),
                QuorumCert::genesis(),
                payload,
            );
            parent = block.id;
            ledger.append([block], View(height + 2), SimTime::ZERO);
        }
        let twin = Block::new(
            View(4),
            Height(3),
            ledger.get(1).unwrap().block.id,
            NodeId(2),
            QuorumCert::genesis(),
            txs(1..3),
        );
        let mut pool = Mempool::new(10);
        requeue_forked(&mut pool, &ledger, NodeId(2), vec![SharedBlock::new(twin)]);
        assert_eq!(seqs(&pool.next_batch(10)), vec![2]);
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
