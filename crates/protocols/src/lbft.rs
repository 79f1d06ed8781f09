//! LBFT-style safety rules (framework extension).
//!
//! LBFT ("Leaderless Byzantine fault tolerant consensus", Niu & Feng 2020) is
//! listed in the paper as one of the protocols prototyped on Bamboo. Its full
//! DAG-based leaderless design is outside the scope of the evaluation; what
//! Bamboo exercises is its *rule surface*: every replica's vote is broadcast
//! (as in Streamlet) while the commit rule is a two-chain (as in 2CHS). This
//! module provides that rule combination so the framework's extension point is
//! demonstrably generic; it is not part of the paper's headline comparison and
//! we document it as an approximation in DESIGN.md.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{
    commit_head, extends_longest_notarized, propose_on_certified, vote_once, ProposalInput, Safety,
    VoteDestination,
};

/// LBFT-style safety rules: broadcast votes + two-chain commit.
#[derive(Clone, Debug, Default)]
pub struct LbftSafety {
    last_voted_view: View,
}

impl LbftSafety {
    /// Creates the initial state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Safety for LbftSafety {
    fn vote_destination(&self) -> VoteDestination {
        VoteDestination::Broadcast
    }

    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_certified(input, forest, forest.highest_certified_block().id)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        vote_once(&mut self.last_voted_view, block.view, || {
            extends_longest_notarized(block, forest)
        })
    }

    fn update_state(&mut self, _qc: &QuorumCert, _forest: &BlockForest) {}

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        commit_head(qc, forest, 2)
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
    fn broadcast_votes_and_two_chain_commit() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut lbft = LbftSafety::new();
        assert_eq!(lbft.vote_destination(), VoteDestination::Broadcast);
        assert_eq!(lbft.try_commit(&qc_b, &forest), Some(a));
    }

    #[test]
    fn votes_follow_longest_certified_chain() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut lbft = LbftSafety::new();
        let good = build_block(&input(2, 2), &forest, a, qc_a).unwrap();
        forest.insert(good.clone()).unwrap();
        assert!(lbft.should_vote(&good, &forest));
        let stale = build_block(
            &input(3, 3),
            &forest,
            BlockId::GENESIS,
            QuorumCert::genesis(),
        )
        .unwrap();
        forest.insert(stale.clone()).unwrap();
        assert!(!lbft.should_vote(&stale, &forest));
    }

    #[test]
    fn proposes_on_certified_tip() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let lbft = LbftSafety::new();
        let block = lbft.propose(&input(2, 1), &forest).unwrap();
        assert_eq!(block.parent, a);
    }
}
