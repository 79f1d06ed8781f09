//! "Original HotStuff" baseline (OHS).
//!
//! Fig. 9 of the paper compares Bamboo's HotStuff against the authors'
//! original C++ `libhotstuff` implementation, which differs in transport,
//! batching strategy and language but not in the protocol rules. We cannot run
//! the C++ code inside this reproduction, so — as documented in DESIGN.md — we
//! substitute an *independently written* HotStuff rule implementation that
//! follows libhotstuff's internal structure (explicit `b_lock` / `b_exec`
//! pointers and a `vheight` watermark, updated in a single `update()` pass)
//! rather than Bamboo's two-chain-head formulation. The runner additionally
//! applies a greedy batching strategy to OHS to mirror the batching difference
//! the paper cites as the source of the (small) performance gap.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, Height, QuorumCert, View};

use crate::safety::{build_block, fork_target, ProposalInput, Safety};

/// Baseline HotStuff implementation structured after libhotstuff.
#[derive(Clone, Debug)]
pub struct OhsSafety {
    /// `vheight`: the height of the last voted block.
    vheight: Height,
    /// `b_lock`: the locked block (updated on a two-chain).
    b_lock: BlockId,
    b_lock_height: Height,
    /// `b_exec`: the last executed (committed) block.
    b_exec: BlockId,
    b_exec_height: Height,
}

impl Default for OhsSafety {
    fn default() -> Self {
        Self::new()
    }
}

impl OhsSafety {
    /// Creates the initial state with all pointers on genesis.
    pub fn new() -> Self {
        Self {
            vheight: Height::GENESIS,
            b_lock: BlockId::GENESIS,
            b_lock_height: Height::GENESIS,
            b_exec: BlockId::GENESIS,
            b_exec_height: Height::GENESIS,
        }
    }

    /// The `b_lock` pointer.
    pub fn locked_block(&self) -> BlockId {
        self.b_lock
    }

    /// The `b_exec` pointer.
    pub fn executed_block(&self) -> BlockId {
        self.b_exec
    }

    /// libhotstuff's `update(b*)`: walk the justify chain b* -> b'' -> b' -> b
    /// and apply the one-/two-/three-chain state transitions in one pass.
    fn update(&mut self, newly_certified: BlockId, forest: &BlockForest) -> Option<BlockId> {
        // b'' := the newly certified block (one-chain: becomes the generic
        // "prepare" stage — nothing to store, hQC lives in the forest).
        let b2 = forest.get(newly_certified)?;
        // b' := parent of b'' (two-chain: pre-commit stage, take the lock).
        let b1 = forest.get(b2.parent)?;
        if forest.is_certified(b1.id) && b1.height > self.b_lock_height {
            self.b_lock = b1.id;
            self.b_lock_height = b1.height;
        }
        // b := parent of b' (three-chain: decide / execute).
        let b0 = forest.get(b1.parent)?;
        if forest.is_certified(b2.id)
            && forest.is_certified(b1.id)
            && forest.is_certified(b0.id)
            && !b0.is_genesis()
            && b0.height > self.b_exec_height
        {
            self.b_exec = b0.id;
            self.b_exec_height = b0.height;
            return Some(b0.id);
        }
        None
    }
}

impl Safety for OhsSafety {
    // OHS votes by height, not view: `vheight` is the watermark. It is
    // mapped into the view slot of the durable `SafetyRecord` — the
    // double-vote guarantee (never vote at or below the watermark again)
    // is the same, only the unit differs.
    fn voted_view(&self) -> View {
        View(self.vheight.as_u64())
    }

    fn restore_voted_view(&mut self, view: View) {
        self.vheight = self.vheight.max(Height(view.as_u64()));
    }

    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        let high_qc = forest.high_qc().clone();
        build_block(input, forest, high_qc.block, high_qc)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        // libhotstuff rule: vote iff block.height > vheight and (block extends
        // b_lock or block.justify certifies a block higher than b_lock).
        if block.height <= self.vheight {
            return false;
        }
        let extends_lock = forest.extends(block.parent, self.b_lock);
        let justify_height = forest
            .get(block.justify.block)
            .map(|b| b.height)
            .unwrap_or(Height::GENESIS);
        if extends_lock || justify_height > self.b_lock_height {
            self.vheight = block.height;
            true
        } else {
            false
        }
    }

    fn update_state(&mut self, qc: &QuorumCert, forest: &BlockForest) {
        // State transitions happen inside update(); commit is reported by
        // try_commit which re-runs the same walk idempotently.
        let _ = self.update(qc.block, forest);
    }

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        // update_state already moved b_exec if a three-chain formed; report it
        // if it is ahead of what the forest has committed.
        let tip = forest.get(qc.block)?;
        let parent = forest.get(tip.parent)?;
        let grandparent = forest.get(parent.parent)?;
        if forest.is_certified(tip.id)
            && forest.is_certified(parent.id)
            && forest.is_certified(grandparent.id)
            && !grandparent.is_genesis()
        {
            Some(grandparent.id)
        } else {
            None
        }
    }

    fn fork_parent(&self, forest: &BlockForest) -> Option<BlockId> {
        fork_target(forest, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotstuff::ChainedSafety;
    use crate::safety::testutil::*;

    #[test]
    fn agrees_with_bamboo_hotstuff_on_a_clean_chain() {
        // Both implementations must commit exactly the same blocks on the same
        // inputs — that is the whole point of the baseline.
        let mut forest = bamboo_forest::BlockForest::new();
        let mut ohs = OhsSafety::new();
        let mut hs = ChainedSafety::new(3);
        let mut parent = BlockId::GENESIS;
        for view in 1..=6u64 {
            let (id, qc) = extend_certified(&mut forest, parent, view);
            ohs.update_state(&qc, &forest);
            hs.update_state(&qc, &forest);
            assert_eq!(
                ohs.try_commit(&qc, &forest),
                hs.try_commit(&qc, &forest),
                "view {view}"
            );
            parent = id;
        }
        assert_eq!(ohs.locked_block(), hs.locked_block());
    }

    #[test]
    fn vheight_prevents_double_voting_at_same_height() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let mut ohs = OhsSafety::new();
        let first = build_block(&input(2, 2), &forest, a, qc_a.clone()).unwrap();
        forest.insert(first.clone()).unwrap();
        assert!(ohs.should_vote(&first, &forest));
        // A competing proposal at the same height is refused.
        let rival = build_block(&input(3, 3), &forest, a, qc_a).unwrap();
        forest.insert(rival.clone()).unwrap();
        assert!(!ohs.should_vote(&rival, &forest));
    }

    #[test]
    fn b_exec_advances_on_three_chain() {
        let mut forest = bamboo_forest::BlockForest::new();
        let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
        let (b, qc_b) = extend_certified(&mut forest, a, 2);
        let (_c, qc_c) = extend_certified(&mut forest, b, 3);
        let mut ohs = OhsSafety::new();
        ohs.update_state(&qc_a, &forest);
        ohs.update_state(&qc_b, &forest);
        assert_eq!(ohs.executed_block(), BlockId::GENESIS);
        ohs.update_state(&qc_c, &forest);
        assert_eq!(ohs.executed_block(), a);
        assert_eq!(ohs.locked_block(), b);
    }
}
