//! The `Safety` trait — the paper's Proposing / Voting / State-Updating /
//! Commit rules behind a single interface — and the rule kit the built-in
//! protocols assemble those rules from.
//!
//! The kit is the shared vocabulary of §II: a [`Lock`] that only moves up and
//! admits a proposal that "extends the lock or is newer", the two honest
//! proposing rules ([`propose_on_high_qc`], [`propose_on_certified`]), the
//! longest-notarized-chain voting rule ([`extends_longest_notarized`]), the
//! one-vote-per-view watermark ([`vote_once`]) and the `k`-chain commit rule
//! ([`commit_head`], over [`BlockForest::certified_chain`]). A protocol file
//! keeps only what differs: which block locks, `k`, where votes go, and
//! whether the protocol is responsive.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, NodeId, QuorumCert, Transaction, View};

/// Where a replica sends its vote after accepting a proposal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteDestination {
    /// Send the vote to the leader of the *next* view (HotStuff family).
    NextLeader,
    /// Broadcast the vote to every replica (Streamlet).
    Broadcast,
}

/// Everything the Proposing rule may consult when building a block.
#[derive(Clone, Debug)]
pub struct ProposalInput {
    /// The view the proposal is for.
    pub view: View,
    /// The proposing replica.
    pub proposer: NodeId,
    /// The batch of transactions pulled from the mempool.
    pub payload: Vec<Transaction>,
}

/// The four protocol-specific rules of a chained-BFT protocol.
///
/// Implementations are deliberately small (well under the paper's "each
/// protocol is around 300 LoC") because the heavy machinery lives in the
/// shared modules and the rules themselves come from the kit below.
pub trait Safety: Send {
    /// Where votes are sent.
    fn vote_destination(&self) -> VoteDestination {
        VoteDestination::NextLeader
    }

    /// Whether the protocol echoes proposals and votes to all replicas
    /// (Streamlet does; this is what gives it cubic message complexity).
    fn echo_messages(&self) -> bool {
        false
    }

    /// Whether the protocol is optimistically responsive, i.e. a correct
    /// leader can make progress at network speed without waiting for the
    /// maximum network delay after a view change (§II-B). Used by the
    /// responsiveness experiment (Fig. 15).
    fn is_responsive(&self) -> bool {
        false
    }

    /// Whether the protocol's views are *epochs* in the Streamlet sense:
    /// fixed-duration synchronous rounds that must each cover the maximum
    /// network delay, rather than view numbers that advance as fast as
    /// certificates form. The replica's opt-in `synchronous_epochs` mode
    /// paces the leaders of epoch-based protocols accordingly; the default
    /// responsive approximation advances epochs on QCs.
    fn epoch_based(&self) -> bool {
        false
    }

    /// **Proposing rule** — build the block for `input.view`, or `None` when
    /// no proposal is possible (the parent is not in the forest). Read-only:
    /// it is the one rule an attacker replaces (`crate::Attack`), and an
    /// attacker holding `&dyn Safety` cannot touch the voting state.
    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block>;

    /// **Voting rule** — decide whether to vote for `block`. Implementations
    /// must also maintain whatever "last voted view" state they need; the
    /// replica calls this at most once per received proposal.
    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool;

    /// **State-updating rule** — called whenever a new QC is observed (either
    /// received directly, assembled from votes, or carried inside a block).
    fn update_state(&mut self, qc: &QuorumCert, forest: &BlockForest);

    /// **Commit rule** — called after `update_state` with the same QC; returns
    /// the id of the highest block that can now be committed (its entire
    /// prefix commits with it), or `None` if the rule is not met.
    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId>;

    /// Hook used by the forking attack: the deepest ancestor of the certified
    /// tip that the attacker can build on while still having honest replicas
    /// vote for the proposal. `None` means the protocol's voting rule leaves
    /// no room to fork (the attacker then behaves like an honest proposer).
    fn fork_parent(&self, forest: &BlockForest) -> Option<BlockId> {
        let _ = forest;
        None
    }

    /// The protocol's durable vote watermark: the highest view this replica
    /// has voted in (for height-voting protocols such as OHS, the height is
    /// mapped into the view slot — the watermark semantics are identical).
    /// The replica persists this in a `SafetyRecord` immediately before each
    /// vote leaves the process, so a durable restart can restore it via
    /// [`Safety::restore_voted_view`] and never double-vote.
    fn voted_view(&self) -> View;

    /// Restores the vote watermark after a durable restart: the replica must
    /// never again vote at or below `view` (or the mapped height for
    /// height-voting protocols). Implementations take the max with their
    /// current watermark — restoring can only tighten the rule.
    fn restore_voted_view(&mut self, view: View);
}

// ---- the rule kit -----------------------------------------------------------

/// The locked block (`lBlock`): what a replica refuses to vote against.
/// Starts on genesis and only ever moves up — in *view*, the order
/// [`Lock::admits`] compares against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lock {
    block: BlockId,
    view: View,
}

impl Lock {
    /// The locked block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// State-updating rule: the head of the `depth`-chain the newly certified
    /// block closes becomes the lock, if it is newer (proposed in a higher
    /// view) than the current one. Newer, not taller: once views are lost the
    /// chain forks, and a lock that waited for a *taller* block would sit on a
    /// stale branch with an old view — which `admits` then lets any newer
    /// conflicting proposal past. Unlike a commit, a lock may sit below a view
    /// gap.
    pub fn update(&mut self, qc: &QuorumCert, forest: &BlockForest, depth: usize) {
        match forest.certified_chain(qc.block, depth, false) {
            Some(head) if head.view > self.view => (self.block, self.view) = (head.id, head.view),
            _ => {}
        }
    }

    /// Voting rule of the HotStuff family: `block` extends the locked block,
    /// *or* its parent is newer (carries a higher view) than the lock.
    pub fn admits(&self, block: &Block, forest: &BlockForest) -> bool {
        let parent = forest.get(block.parent);
        forest.extends(block.parent, self.block)
            || parent.map_or(block.justify.view, |p| p.view) > self.view
    }
}

/// The vote watermark (`lvView`): a replica votes at most once per view, and
/// only when the protocol's own rule `admits` the proposal.
pub fn vote_once(last_voted: &mut View, view: View, admits: impl FnOnce() -> bool) -> bool {
    let vote = view > *last_voted && admits();
    if vote {
        *last_voted = view;
    }
    vote
}

/// Voting rule of the longest-chain family (Streamlet): the parent must
/// be notarized and at least as high as the highest notarized block.
pub fn extends_longest_notarized(block: &Block, forest: &BlockForest) -> bool {
    forest.get(block.parent).is_some_and(|parent| {
        forest.is_certified(parent.id) && parent.height >= forest.highest_certified_block().height
    })
}

/// Proposing rule of the HotStuff family: extend the block certified by the
/// highest QC (`hQC`), carrying that QC.
pub fn propose_on_high_qc(input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
    let high_qc = forest.high_qc().clone();
    build_block(input, forest, high_qc.block, high_qc)
}

/// Proposing rule over a certified `parent`, justified by the parent's own
/// QC: the longest-chain family passes the tip of the longest notarized
/// chain, the forking attack an older ancestor.
pub fn propose_on_certified(
    input: &ProposalInput,
    forest: &BlockForest,
    parent: BlockId,
) -> Option<Block> {
    let justify = forest.qc_of(parent).cloned();
    let justify = justify.unwrap_or_else(QuorumCert::genesis);
    build_block(input, forest, parent, justify)
}

/// Commit rule: the head of the `k`-chain the newly certified block closes —
/// `k` certified blocks, each the direct parent of the next **and proposed in
/// adjacent views** (see [`BlockForest::certified_chain`]). The chain keeps
/// no dummy block for a view that produced none, so "direct parent" alone
/// would accept a chain with a view gap, and a competing block certified
/// inside the gap can then be committed by other honest replicas: with a
/// timeout below the link delay that is thousands of conflicting commits.
/// Genesis is certified only by convention, so a chain that reaches down to
/// it commits nothing.
pub fn commit_head(qc: &QuorumCert, forest: &BlockForest, k: usize) -> Option<BlockId> {
    let head = forest.certified_chain(qc.block, k, true)?;
    (!head.is_genesis()).then_some(head.id)
}

/// Forking room: the certified ancestor `depth` blocks below the certified
/// tip — what [`Safety::fork_parent`] returns for a protocol whose lock
/// trails the tip by `depth` blocks.
pub fn fork_target(forest: &BlockForest, depth: usize) -> Option<BlockId> {
    let target = forest.ancestor(forest.highest_certified_block().id, depth)?;
    forest.is_certified(target.id).then_some(target.id)
}

/// The block-assembly step every proposing rule ends in: a block on top of
/// `parent`, carrying `justify` (normally the QC certifying the parent) and
/// the given payload.
///
/// Returns `None` if `parent` is not in the forest.
pub fn build_block(
    input: &ProposalInput,
    forest: &BlockForest,
    parent: BlockId,
    justify: QuorumCert,
) -> Option<Block> {
    let parent_block = forest.get(parent)?;
    Some(Block::new(
        input.view,
        parent_block.height.next(),
        parent,
        input.proposer,
        justify,
        input.payload.clone(),
    ))
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by the protocol unit tests.

    use super::*;
    use bamboo_crypto::KeyPair;
    use bamboo_types::{SimTime, Vote};

    /// Builds a deterministic quorum certificate for `block` at `view` signed
    /// by replicas 0..3 (quorum for n = 4).
    pub fn qc_for(block: BlockId, view: View) -> QuorumCert {
        let keys: Vec<KeyPair> = (0..3).map(KeyPair::from_seed).collect();
        let votes: Vec<Vote> = keys
            .iter()
            .enumerate()
            .map(|(i, kp)| Vote::new(block, view, NodeId(i as u64), kp))
            .collect();
        QuorumCert::from_votes(block, view, &votes)
    }

    /// Extends `parent` with a block proposed in `view`, inserts it into the
    /// forest and returns its id.
    pub fn extend(forest: &mut BlockForest, parent: BlockId, view: u64) -> BlockId {
        let parent_block = forest.get(parent).expect("parent in forest").clone();
        let block = Block::new(
            View(view),
            parent_block.height.next(),
            parent,
            NodeId(view % 4),
            QuorumCert::genesis(),
            vec![Transaction::new(NodeId(7), view, 4, SimTime::ZERO)],
        );
        let id = block.id;
        forest.insert(block).expect("insert");
        id
    }

    /// Extends and immediately certifies a block; returns `(id, qc)`.
    pub fn extend_certified(
        forest: &mut BlockForest,
        parent: BlockId,
        view: u64,
    ) -> (BlockId, QuorumCert) {
        let id = extend(forest, parent, view);
        let qc = qc_for(id, View(view));
        forest.register_qc(qc.clone()).expect("register qc");
        (id, qc)
    }

    /// Builds a certified chain g <- a <- b <- c and returns (forest, [a,b,c]).
    pub fn chain3() -> (BlockForest, Vec<BlockId>) {
        let mut forest = BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, _) = extend_certified(&mut forest, a, 2);
        let (c, _) = extend_certified(&mut forest, b, 3);
        (forest, vec![a, b, c])
    }

    /// The `n`-th draw of a deterministic stream keyed by `seed` (splitmix64),
    /// so generated cases are reproducible from the printed seed.
    pub fn roll(seed: u64, n: u64) -> u64 {
        let mut z = seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A standard proposal input.
    pub fn input(view: u64, proposer: u64) -> ProposalInput {
        ProposalInput {
            view: View(view),
            proposer: NodeId(proposer),
            payload: vec![Transaction::new(NodeId(proposer), view, 8, SimTime::ZERO)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use bamboo_forest::BlockForest;

    #[test]
    fn build_block_links_to_parent_and_carries_payload() {
        let mut forest = BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let inp = input(2, 1);
        let block = build_block(&inp, &forest, a, qc_a.clone()).expect("block");
        assert_eq!(block.parent, a);
        assert_eq!(block.height.as_u64(), 2);
        assert_eq!(block.justify, qc_a);
        assert_eq!(block.view, View(2));
        assert_eq!(block.payload.len(), 1);
    }

    #[test]
    fn a_lock_follows_the_newer_branch_of_a_fork_not_the_taller_one() {
        // g <- a (view 1) <- b (view 2), and a fork g <- c proposed in view 3
        // after two views were lost: c is newer than b but not taller.
        let mut forest = BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        let (c, qc_c) = extend_certified(&mut forest, BlockId::GENESIS, 3);
        let mut lock = Lock::default();
        for (qc, expected) in [(&qc_a, a), (&qc_b, b), (&qc_c, c), (&qc_b, c)] {
            lock.update(qc, &forest, 1);
            assert_eq!(lock.block(), expected);
        }
    }

    #[test]
    fn build_block_fails_for_unknown_parent() {
        let forest = BlockForest::new();
        let ghost = BlockId(bamboo_crypto::Digest::of(b"missing"));
        assert!(build_block(&input(1, 0), &forest, ghost, QuorumCert::genesis()).is_none());
    }
}
