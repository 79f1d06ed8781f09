//! Fast-HotStuff-style safety rules (framework extension).
//!
//! Fast-HotStuff (Jalalzai, Niu, Feng 2020) is one of the protocols the paper
//! lists as built on Bamboo but not part of the headline evaluation. Its
//! distinguishing features, reproduced here at the rule level, are:
//!
//! * a **two-chain commit rule** (one round less than HotStuff),
//! * **optimistic responsiveness** in the happy path, achieved by requiring
//!   proposals to extend the block certified by their own `justify` QC, and
//! * forking resistance: a proposal whose parent is not the block its QC
//!   certifies is rejected outright, so a Byzantine leader cannot silently
//!   build on an old ancestor without presenting an (aggregated) proof.
//!
//! The unhappy-path aggregated-QC machinery is carried by the shared
//! pacemaker's timeout certificates.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{commit_head, propose_on_high_qc, vote_once, ProposalInput, Safety};

/// Fast-HotStuff safety rules.
#[derive(Clone, Debug, Default)]
pub struct FastHotStuffSafety {
    last_voted_view: View,
}

impl FastHotStuffSafety {
    /// Creates the initial state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Safety for FastHotStuffSafety {
    fn is_responsive(&self) -> bool {
        true
    }

    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_high_qc(input, forest)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        // The parent must be exactly the block certified by the proposal's own
        // QC — a proposal built on an older ancestor is rejected, which is the
        // rule-level source of Fast-HotStuff's forking resistance (and why
        // `fork_parent` keeps the trait's "no room" default).
        vote_once(&mut self.last_voted_view, block.view, || {
            block.parent == block.justify.block && forest.contains(block.parent)
        })
    }

    // The voting rule consults only the proposal's own QC: there is no lock.
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
    fn rejects_proposals_not_built_on_their_own_qc() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (_b, _qc_b) = extend_certified(&mut forest, a, 2);
        let mut fhs = FastHotStuffSafety::new();
        // Proposal built on `a` but carrying genesis QC: parent != justify.block.
        let forked = build_block(&input(3, 3), &forest, a, QuorumCert::genesis()).unwrap();
        forest.insert(forked.clone()).unwrap();
        assert!(!fhs.should_vote(&forked, &forest));
        // Proper proposal on `a` with qc_a is fine.
        let good = build_block(&input(4, 0), &forest, a, qc_a).unwrap();
        forest.insert(good.clone()).unwrap();
        assert!(fhs.should_vote(&good, &forest));
    }

    #[test]
    fn two_chain_commit_and_responsiveness() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (_b, qc_b) = extend_certified(&mut forest, a, 2);
        let mut fhs = FastHotStuffSafety::new();
        assert_eq!(fhs.try_commit(&qc_b, &forest), Some(a));
        assert!(fhs.is_responsive());
        assert!(fhs.fork_parent(&forest).is_none());
    }
}
