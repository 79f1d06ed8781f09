//! Streamlet (§II-D of the paper).
//!
//! Streamlet follows the longest-notarized-chain principle:
//! * **Proposing**: the leader builds on the tip of the longest notarized
//!   (certified) chain it has seen.
//! * **Voting**: a replica votes for the first proposal of a view only if it
//!   extends the longest notarized chain; votes are *broadcast* to everyone
//!   and every message is echoed, giving O(n³) communication.
//! * **State updating**: maintain the notarized chain (delegated to the shared
//!   block forest).
//! * **Commit**: whenever three blocks proposed in *consecutive views* are all
//!   notarized, the first two of the three (and their ancestors) commit.
//!
//! As in Bamboo, the synchronized 2Δ clock of the original protocol is
//! replaced by the shared pacemaker, which preserves the protocol's structure
//! while making the comparison fair.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{
    commit_head, extends_longest_notarized, propose_on_certified, vote_once, ProposalInput, Safety,
    VoteDestination,
};

/// Streamlet safety rules.
#[derive(Clone, Debug, Default)]
pub struct StreamletSafety {
    last_voted_view: View,
}

impl StreamletSafety {
    /// Creates the initial state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Safety for StreamletSafety {
    fn vote_destination(&self) -> VoteDestination {
        VoteDestination::Broadcast
    }

    fn echo_messages(&self) -> bool {
        true
    }

    // Not responsive (the trait default): Streamlet still relies on timeouts
    // for liveness even though its commit rule is three-chain-shaped (§II-D).

    fn epoch_based(&self) -> bool {
        // Streamlet's rounds are synchronized epochs of fixed duration; a
        // deployment must provision them for the maximal network delay.
        true
    }

    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        // Build on the tip of the longest notarized chain.
        propose_on_certified(input, forest, forest.highest_certified_block().id)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        // Honest replicas only vote for blocks extending the longest
        // notarized chain, so no ancestor both forks the chain and still
        // collects votes: Streamlet is immune to the forking attack in a
        // synchronous network (§IV-A1) and `fork_parent` keeps the trait's
        // "no room" default.
        vote_once(&mut self.last_voted_view, block.view, || {
            extends_longest_notarized(block, forest)
        })
    }

    fn update_state(&mut self, _qc: &QuorumCert, _forest: &BlockForest) {
        // The notarized chain is maintained by the shared block forest; there
        // is no additional protocol-local state to update.
    }

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        // Three notarized blocks in consecutive views commit the first two of
        // the three: committing the middle block commits it and every
        // ancestor, which is exactly "the first two out of the three".
        commit_head(qc, forest, 3)?;
        forest.get(qc.block).map(|tip| tip.parent)
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
    fn proposes_on_longest_notarized_chain() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        // A longer but uncertified fork must be ignored.
        let f1 = extend(&mut forest, a, 3);
        let _f2 = extend(&mut forest, f1, 4);
        let sl = StreamletSafety::new();
        let block = sl.propose(&input(5, 1), &forest).expect("proposal");
        assert_eq!(
            block.parent, b,
            "builds on notarized tip, not longest raw fork"
        );
        assert_eq!(block.justify, qc_b);
    }

    #[test]
    fn votes_only_for_extensions_of_longest_notarized_chain() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut sl = StreamletSafety::new();

        // Extending the notarized tip: accepted.
        let good = build_block(&input(3, 3), &forest, b, qc_b).unwrap();
        forest.insert(good.clone()).unwrap();
        assert!(sl.should_vote(&good, &forest));

        // A forking proposal built on `a` (shorter than the notarized tip `b`)
        // is rejected — this is what makes Streamlet immune to forking.
        let fork = build_block(&input(4, 0), &forest, a, qc_a).unwrap();
        forest.insert(fork.clone()).unwrap();
        assert!(!sl.should_vote(&fork, &forest));
    }

    #[test]
    fn does_not_vote_twice_in_a_view_or_for_uncertified_parents() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut sl = StreamletSafety::new();
        let first = build_block(&input(2, 2), &forest, a, qc_a.clone()).unwrap();
        forest.insert(first.clone()).unwrap();
        assert!(sl.should_vote(&first, &forest));
        assert!(!sl.should_vote(&first, &forest), "same view again");

        // Parent not certified -> reject.
        let dangling = extend(&mut forest, first.id, 3);
        let child = build_block(&input(4, 0), &forest, dangling, QuorumCert::genesis()).unwrap();
        forest.insert(child.clone()).unwrap();
        assert!(!sl.should_vote(&child, &forest));
    }

    #[test]
    fn commit_requires_three_consecutive_views() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, _) = extend_certified(&mut forest, a, 2);
        let (_c, qc_c) = extend_certified(&mut forest, b, 3);
        let mut sl = StreamletSafety::new();
        assert_eq!(
            sl.try_commit(&qc_c, &forest),
            Some(b),
            "commit first two of three"
        );

        // With a view gap there is no commit.
        let mut forest2 = bamboo_forest::BlockForest::new();
        let (x, _) = extend_certified(&mut forest2, BlockId::GENESIS, 1);
        let (y, _) = extend_certified(&mut forest2, x, 2);
        let (_z, qc_z) = extend_certified(&mut forest2, y, 4); // gap: 2 -> 4
        assert_eq!(sl.try_commit(&qc_z, &forest2), None);
    }

    #[test]
    fn two_notarized_blocks_are_not_enough() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut sl = StreamletSafety::new();
        assert_eq!(sl.try_commit(&qc_b, &forest), None);
    }

    #[test]
    fn metadata_matches_paper_description() {
        let sl = StreamletSafety::new();
        assert_eq!(sl.vote_destination(), VoteDestination::Broadcast);
        assert!(sl.echo_messages());
        assert!(!sl.is_responsive());
        assert!(sl.fork_parent(&bamboo_forest::BlockForest::new()).is_none());
    }
}
