//! Chained HotStuff at commit depth `k` (§II-B and §II-C of the paper):
//! HotStuff is `k` = 3, two-chain HotStuff (2CHS) `k` = 2.
//!
//! State variables:
//! * `locked` — the head of the highest (`k` − 1)-chain (`lBlock`),
//! * `last_voted_view` — the highest view voted in (`lvView`),
//! * the highest QC (`hQC`) is tracked by the shared [`BlockForest`].
//!
//! Rules:
//! * **Proposing**: build on the block certified by `hQC`.
//! * **Voting**: vote iff the block's view is newer than `lvView` and the
//!   block extends the locked block *or* its parent carries a higher view
//!   than the locked block.
//! * **State updating**: on a new QC, the head of the highest
//!   (`k` − 1)-chain becomes the locked block — the parent of the newly
//!   certified block for HotStuff, the block itself for 2CHS.
//! * **Commit**: a `k`-chain — `k` certified blocks, each the direct parent
//!   of the next, proposed in adjacent views — commits its head.
//!
//! Two-chain HotStuff saves one round of voting. The paper's 2CHS pays for it
//! with optimistic responsiveness — after a view change its leader waits out
//! the maximal network delay — which is a deployment option here
//! (`ReplicaOptions::wait_for_timeout_on_view_change`, DESIGN.md §2.4), not a
//! rule.

use bamboo_forest::BlockForest;
use bamboo_types::{Block, BlockId, QuorumCert, View};

use crate::safety::{
    commit_head, fork_target, propose_on_high_qc, vote_once, Lock, ProposalInput, Safety,
};

/// Chained HotStuff safety rules at commit depth `k`.
#[derive(Clone, Debug)]
pub struct ChainedSafety {
    k: usize,
    lock: Lock,
    last_voted_view: View,
}

impl ChainedSafety {
    /// Creates the initial state at commit depth `k` (at least 2: a
    /// one-chain commit is unsafe): locked on genesis, nothing voted yet.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "a {k}-chain commit rule is unsafe");
        Self {
            k,
            lock: Lock::default(),
            last_voted_view: View::default(),
        }
    }

    /// The currently locked block (exposed for tests and metrics).
    pub fn locked_block(&self) -> BlockId {
        self.lock.block()
    }
}

impl Safety for ChainedSafety {
    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_high_qc(input, forest)
    }

    fn should_vote(&mut self, block: &Block, forest: &BlockForest) -> bool {
        vote_once(&mut self.last_voted_view, block.view, || {
            self.lock.admits(block, forest)
        })
    }

    fn update_state(&mut self, qc: &QuorumCert, forest: &BlockForest) {
        self.lock.update(qc, forest, self.k - 1);
    }

    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        commit_head(qc, forest, self.k)
    }

    fn fork_parent(&self, forest: &BlockForest) -> Option<BlockId> {
        // The attacker overwrites the k − 1 uncommitted tail blocks: it builds
        // on the ancestor k − 1 below the certified tip, which is (at least)
        // the honest replicas' locked block, so the proposal still passes the
        // voting rule (Fig. 5 of the paper).
        fork_target(forest, self.k - 1)
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
    use bamboo_forest::ForestError;

    /// The depths `make_protocol` builds: 2CHS and HotStuff.
    const DEPTHS: [usize; 2] = [2, 3];

    /// The test-only one-chain rule (the negative control): it commits a
    /// block as soon as it is certified, and its lock, at depth 0, never
    /// moves off genesis.
    fn one_chain() -> ChainedSafety {
        ChainedSafety {
            k: 1,
            lock: Lock::default(),
            last_voted_view: View::default(),
        }
    }

    /// On a certified chain g <- c1 <- c2 <- c3 <- c4 in views 1..4, each QC
    /// locks the head of the (k − 1)-chain it closes, commits the head of the
    /// k-chain, and leaves k − 1 blocks for a forker to overwrite: 2CHS locks
    /// the tip and commits its parent, one round earlier than HotStuff.
    #[test]
    fn the_depth_sets_the_lock_the_commit_and_the_fork_target() {
        for k in DEPTHS {
            let mut forest = bamboo_forest::BlockForest::new();
            let mut chain = vec![BlockId::GENESIS];
            let mut p = ChainedSafety::new(k);
            assert_eq!(p.fork_parent(&forest), None, "k = {k}: genesis only");
            for view in 1..=4usize {
                let (id, qc) = extend_certified(&mut forest, chain[view - 1], view as u64);
                chain.push(id);
                p.update_state(&qc, &forest);
                // Below genesis there is nothing to lock or commit.
                let below = |depth: usize| view.checked_sub(depth).filter(|&i| i > 0);
                let lock = below(k - 2).map_or(BlockId::GENESIS, |i| chain[i]);
                assert_eq!(p.locked_block(), lock, "k = {k}, view {view}");
                let commit = below(k - 1).map(|i| chain[i]);
                assert_eq!(p.try_commit(&qc, &forest), commit, "k = {k}, view {view}");
                let fork = view.checked_sub(k - 1).map(|i| chain[i]);
                assert_eq!(p.fork_parent(&forest), fork, "k = {k}, view {view}");
            }
        }
    }

    #[test]
    fn proposes_on_high_qc() {
        for k in DEPTHS {
            let mut forest = bamboo_forest::BlockForest::new();
            let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
            let (b, qc_b) = extend_certified(&mut forest, a, 2);
            let block = (ChainedSafety::new(k).propose(&input(3, 3), &forest)).expect("proposal");
            assert_eq!(block.parent, b, "k = {k}");
            assert_eq!(block.justify, qc_b, "k = {k}");
            assert_eq!(block.height.as_u64(), 3, "k = {k}");
        }
    }

    #[test]
    fn votes_once_per_view_and_tracks_last_voted() {
        for k in DEPTHS {
            let mut forest = bamboo_forest::BlockForest::new();
            let (a, qc_a) = extend_certified(&mut forest, BlockId::GENESIS, 1);
            let mut p = ChainedSafety::new(k);
            let block = build_block(&input(2, 2), &forest, a, qc_a).unwrap();
            forest.insert(block.clone()).unwrap();
            assert!(p.should_vote(&block, &forest), "k = {k}");
            assert_eq!(p.voted_view(), View(2), "k = {k}");
            assert!(!p.should_vote(&block, &forest), "k = {k}: no double voting");
            p.restore_voted_view(View(1));
            assert_eq!(p.voted_view(), View(2), "k = {k}: restoring only tightens");
        }
    }

    #[test]
    fn voting_respects_the_lock_and_view_monotonicity() {
        for k in DEPTHS {
            // Certify g <- a <- b <- c so the lock moves off genesis (to b
            // for HotStuff, to c for 2CHS).
            let (mut forest, ids) = chain3();
            let qc_c = forest.qc_of(ids[2]).cloned().unwrap();
            let mut p = ChainedSafety::new(k);
            p.update_state(&qc_c, &forest);
            assert_eq!(p.locked_block(), ids[4 - k], "k = {k}");

            // A proposal branching from genesis (conflicting with the lock,
            // with a stale justify) is rejected...
            let stale_fork = build_block(
                &input(4, 0),
                &forest,
                BlockId::GENESIS,
                QuorumCert::genesis(),
            )
            .unwrap();
            forest.insert(stale_fork.clone()).unwrap();
            assert!(!p.should_vote(&stale_fork, &forest), "k = {k}");

            // ...a proposal extending the certified tip is accepted...
            let good = build_block(&input(5, 1), &forest, ids[2], qc_c.clone()).unwrap();
            forest.insert(good.clone()).unwrap();
            assert!(p.should_vote(&good, &forest), "k = {k}");

            // ...and a stale view is rejected even if it extends the lock.
            let stale_view = build_block(&input(4, 1), &forest, ids[2], qc_c).unwrap();
            assert!(!p.should_vote(&stale_view, &forest), "k = {k}");
        }
    }

    #[test]
    fn gap_in_certification_blocks_commit() {
        for k in DEPTHS {
            let mut forest = bamboo_forest::BlockForest::new();
            let (a, _) = extend_certified(&mut forest, BlockId::GENESIS, 1);
            // b is *not* certified.
            let b = extend(&mut forest, a, 2);
            let (_c, qc_c) = extend_certified(&mut forest, b, 3);
            let mut p = ChainedSafety::new(k);
            assert_eq!(p.try_commit(&qc_c, &forest), None, "k = {k}");
        }
    }

    /// One QC sequence, two certified branches off one parent:
    /// g <- a (view 1) <- b (view 2), then c (view 3) on `a` again — proposed
    /// by a leader that missed b's QC, and voted by replicas that never saw
    /// it either — and c's branch grows in views 4..6. Each step is
    /// (parent, view), the parent an index into the blocks made so far
    /// (0 = genesis).
    const TWO_BRANCHES: [(usize, u64); 6] = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (5, 6)];

    /// Drives `p` through [`TWO_BRANCHES`] over a real forest and commits
    /// every head its commit rule returns. Returns the heads, as indices into
    /// the blocks made, up to the first the forest refuses, and the forest's
    /// verdict on that one.
    fn replay(p: &mut ChainedSafety) -> (Vec<usize>, Result<(), ForestError>) {
        let mut forest = bamboo_forest::BlockForest::new();
        let (mut blocks, mut committed) = (vec![BlockId::GENESIS], Vec::new());
        for (parent, view) in TWO_BRANCHES {
            let (id, qc) = extend_certified(&mut forest, blocks[parent], view);
            blocks.push(id);
            p.update_state(&qc, &forest);
            if let Some(head) = p.try_commit(&qc, &forest) {
                committed.push(blocks.iter().position(|b| *b == head).unwrap());
                if let Err(refused) = forest.commit(head) {
                    return (committed, Err(refused));
                }
            }
        }
        (committed, Ok(()))
    }

    /// The negative control: a one-chain rule commits both branches, b and
    /// then c, and the forest refuses c as a conflicting commit; the two- and
    /// three-chain rules see the same QCs and commit c's branch only, because
    /// the fork breaks the adjacent-view chain through a.
    #[test]
    fn a_one_chain_rule_commits_both_branches_and_deeper_ones_do_not() {
        let mut control = one_chain();
        let (committed, verdict) = replay(&mut control);
        assert_eq!(committed, [1, 2, 3]);
        assert!(matches!(
            verdict,
            Err(ForestError::ConflictingCommit { .. })
        ));
        assert_eq!(
            control.locked_block(),
            BlockId::GENESIS,
            "depth 0 never locks"
        );
        for (k, expected) in [(2, &[1, 3, 4, 5][..]), (3, &[3, 4][..])] {
            let (committed, verdict) = replay(&mut ChainedSafety::new(k));
            assert_eq!(verdict, Ok(()), "k = {k}");
            assert_eq!(committed, expected, "k = {k}");
        }
    }
}
