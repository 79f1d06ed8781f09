//! Chained HotStuff (§II-B of the paper).
//!
//! State variables:
//! * `locked` — the head of the highest two-chain (`lBlock`),
//! * `last_voted_view` — the highest view voted in (`lvView`),
//! * the highest QC (`hQC`) is tracked by the shared [`BlockForest`].
//!
//! Rules:
//! * **Proposing**: build on the block certified by `hQC`.
//! * **Voting**: vote iff the block's view is newer than `lvView` and the
//!   block extends the locked block *or* its parent carries a higher view
//!   than the locked block.
//! * **State updating**: on a new QC, the head of the highest two-chain
//!   becomes the locked block.
//! * **Commit**: a three-chain — three certified blocks, each the direct
//!   parent of the next, proposed in adjacent views — commits its head.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{
    commit_head, fork_target, propose_on_high_qc, vote_once, Lock, ProposalInput, Safety,
};

/// Chained HotStuff safety rules.
#[derive(Clone, Debug, Default)]
pub struct HotStuffSafety {
    lock: Lock,
    last_voted_view: View,
}

impl HotStuffSafety {
    /// Creates the initial state: locked on genesis, nothing voted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently locked block (exposed for tests and metrics).
    pub fn locked_block(&self) -> BlockId {
        self.lock.block()
    }
}

impl Safety for HotStuffSafety {
    fn is_responsive(&self) -> bool {
        true
    }

    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_high_qc(input, forest)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        vote_once(&mut self.last_voted_view, block.view, || {
            self.lock.admits(block, forest)
        })
    }

    fn update_state(&mut self, qc: &QuorumCert, forest: &BlockForest) {
        // The newly certified block and its certified direct parent form a
        // two-chain; its head (the parent) becomes the lock.
        self.lock.update(qc, forest, 2);
    }

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        // A three-chain in adjacent views ending at the newly certified block
        // commits its head.
        commit_head(qc, forest, 3)
    }

    fn fork_parent(&self, forest: &BlockForest) -> Option<BlockId> {
        // The attacker overwrites the two uncommitted tail blocks: it builds on
        // the grandparent of the certified tip, which is (at least) the honest
        // replicas' locked block, so the proposal still passes the voting
        // rule (Fig. 5 of the paper).
        fork_target(forest, 2)
    }

    fn voted_view(&self) -> View {
        self.last_voted_view
    }

    fn restore_voted_view(&mut self, view: View) {
        self.last_voted_view = self.last_voted_view.max(view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::testutil::*;
    use crate::safety::{build_block, VoteDestination};

    #[test]
    fn proposes_on_high_qc() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        let hs = HotStuffSafety::new();
        let block = hs.propose(&input(3, 3), &forest).expect("proposal");
        assert_eq!(block.parent, b);
        assert_eq!(block.justify, qc_b);
        assert_eq!(block.height.as_u64(), 3);
    }

    #[test]
    fn votes_once_per_view_and_tracks_last_voted() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut hs = HotStuffSafety::new();
        let block = build_block(&input(2, 2), &forest, a, qc_a).unwrap();
        forest.insert(block.clone()).unwrap();
        assert!(hs.should_vote(&block, &forest));
        assert_eq!(hs.voted_view(), View(2));
        assert!(!hs.should_vote(&block, &forest), "no double voting");
    }

    #[test]
    fn refuses_blocks_conflicting_with_lock() {
        let mut forest = bamboo_forest::BlockForest::new();
        // Build and certify a chain g <- a <- b <- c so the lock moves to b.
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, _) = extend_certified(&mut forest, a, 2);
        let (c, qc_c) = extend_certified(&mut forest, b, 3);
        let mut hs = HotStuffSafety::new();
        hs.update_state(&qc_c, &forest);
        assert_eq!(hs.locked_block(), b);

        // A proposal branching from genesis (conflicting with the lock, with a
        // stale justify) must be rejected...
        let stale = build_block(
            &input(4, 0),
            &forest,
            BlockId::GENESIS,
            QuorumCert::genesis(),
        )
        .unwrap();
        forest.insert(stale.clone()).unwrap();
        assert!(!hs.should_vote(&stale, &forest));

        // ...but a proposal extending the certified tip is accepted.
        let good = build_block(&input(5, 1), &forest, c, qc_c.clone()).unwrap();
        forest.insert(good.clone()).unwrap();
        assert!(hs.should_vote(&good, &forest));
    }

    #[test]
    fn lock_advances_to_head_of_highest_two_chain() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut hs = HotStuffSafety::new();
        hs.update_state(&qc_a, &forest);
        assert_eq!(
            hs.locked_block(),
            BlockId::GENESIS,
            "one-chain does not lock"
        );
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        hs.update_state(&qc_b, &forest);
        assert_eq!(hs.locked_block(), a, "two-chain locks its head");
    }

    #[test]
    fn three_chain_commits_its_head() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut hs = HotStuffSafety::new();
        assert_eq!(hs.try_commit(&qc_a, &forest), None);
        assert_eq!(
            hs.try_commit(&qc_b, &forest),
            None,
            "two-chain is not enough"
        );
        let (_c, qc_c) = extend_certified(&mut forest, b, 3);
        assert_eq!(hs.try_commit(&qc_c, &forest), Some(a));
    }

    #[test]
    fn gap_in_certification_blocks_commit() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        // b is *not* certified.
        let b = extend(&mut forest, a, 2);
        let (_c, qc_c) = extend_certified(&mut forest, b, 3);
        let mut hs = HotStuffSafety::new();
        assert_eq!(hs.try_commit(&qc_c, &forest), None);
    }

    #[test]
    fn fork_parent_targets_grandparent_of_tip() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, _) = extend_certified(&mut forest, a, 2);
        let (_c, _) = extend_certified(&mut forest, b, 3);
        let hs = HotStuffSafety::new();
        assert_eq!(hs.fork_parent(&forest), Some(a));
    }

    #[test]
    fn is_responsive_and_uses_next_leader_votes() {
        let hs = HotStuffSafety::new();
        assert!(hs.is_responsive());
        assert_eq!(hs.vote_destination(), VoteDestination::NextLeader);
        assert!(!hs.echo_messages());
    }
}
