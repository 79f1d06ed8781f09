//! Two-chain HotStuff (2CHS, §II-C of the paper).
//!
//! Identical to HotStuff except that:
//! * the locked block is the head of the highest *one*-chain (the most
//!   recently certified block itself), and
//! * the commit rule needs only a two-chain (in adjacent views),
//!
//! which saves one round of voting at the price of losing optimistic
//! responsiveness: after a view change the leader must wait for the maximal
//! network delay (like Tendermint / Casper).

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{
    commit_head, fork_target, propose_on_high_qc, vote_once, Lock, ProposalInput, Safety,
};

/// Two-chain HotStuff safety rules.
#[derive(Clone, Debug, Default)]
pub struct TwoChainHotStuffSafety {
    lock: Lock,
    last_voted_view: View,
}

impl TwoChainHotStuffSafety {
    /// Creates the initial state: locked on genesis, nothing voted yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently locked block.
    pub fn locked_block(&self) -> BlockId {
        self.lock.block()
    }
}

impl Safety for TwoChainHotStuffSafety {
    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_high_qc(input, forest)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        vote_once(&mut self.last_voted_view, block.view, || {
            self.lock.admits(block, forest)
        })
    }

    fn update_state(&mut self, qc: &QuorumCert, forest: &BlockForest) {
        // The lock is on the one-chain: the newly certified block itself.
        self.lock.update(qc, forest, 1);
    }

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        // A two-chain in adjacent views ending at the newly certified block
        // commits its head.
        commit_head(qc, forest, 2)
    }

    fn fork_parent(&self, forest: &BlockForest) -> Option<BlockId> {
        // The lock sits on the certified tip itself, so the attacker can only
        // rewrite a single block: it builds on the parent of the tip (the
        // voting rule still accepts because that parent has a view no lower
        // than the honest lock only when the tip QC has not been seen by the
        // voters yet; in practice this overwrites at most one block, as the
        // paper observes).
        fork_target(forest, 1)
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
    use crate::safety::build_block;
    use crate::safety::testutil::*;

    #[test]
    fn two_chain_commits_parent_of_certified_tip() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut p = TwoChainHotStuffSafety::new();
        assert_eq!(p.try_commit(&qc_a, &forest), None, "one-chain insufficient");
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        assert_eq!(p.try_commit(&qc_b, &forest), Some(a));
    }

    #[test]
    fn commits_one_round_earlier_than_hotstuff() {
        use crate::hotstuff::HotStuffSafety;
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut two = TwoChainHotStuffSafety::new();
        let mut three = HotStuffSafety::new();
        assert_eq!(two.try_commit(&qc_b, &forest), Some(a));
        assert_eq!(three.try_commit(&qc_b, &forest), None);
    }

    #[test]
    fn lock_moves_to_certified_tip() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut p = TwoChainHotStuffSafety::new();
        p.update_state(&qc_a, &forest);
        assert_eq!(p.locked_block(), a, "lock is on the one-chain head");
    }

    #[test]
    fn voting_respects_lock_and_view_monotonicity() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut p = TwoChainHotStuffSafety::new();
        p.update_state(&qc_a, &forest);

        let good = build_block(&input(2, 2), &forest, a, qc_a).unwrap();
        forest.insert(good.clone()).unwrap();
        assert!(p.should_vote(&good, &forest));

        // Conflicting proposal from genesis is rejected (lock is on `a`).
        let bad = build_block(
            &input(3, 3),
            &forest,
            BlockId::GENESIS,
            QuorumCert::genesis(),
        )
        .unwrap();
        forest.insert(bad.clone()).unwrap();
        assert!(!p.should_vote(&bad, &forest));

        // A stale view is rejected even if it extends the lock.
        let stale = {
            let mut i = input(2, 1);
            i.view = View(1);
            build_block(&i, &forest, a, QuorumCert::genesis()).unwrap()
        };
        assert!(!p.should_vote(&stale, &forest));
    }

    #[test]
    fn fork_parent_overwrites_only_one_block() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, _) = extend_certified(&mut forest, a, 2);
        let (_c, _) = extend_certified(&mut forest, b, 3);
        let p = TwoChainHotStuffSafety::new();
        assert_eq!(
            p.fork_parent(&forest),
            Some(b),
            "parent of tip, not grandparent"
        );
    }

    #[test]
    fn not_responsive() {
        assert!(!TwoChainHotStuffSafety::new().is_responsive());
    }
}
