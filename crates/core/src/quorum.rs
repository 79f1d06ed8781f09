//! The Quorum component: vote collection and QC formation.
//!
//! Bamboo's Quorum component "supports two simple interfaces to collect votes
//! (via the interface voted()) and generate QCs (via certified())" (§III-E).
//! [`QuorumTracker`] is that component: it keeps one tally per block,
//! deduplicates voters, and emits a [`QuorumCert`] exactly once when the
//! threshold is reached.

use bamboo_crypto::Signature;
use bamboo_types::{ids::quorum_threshold, BlockId, DigestMap, QuorumCert, View, Vote};

/// One block's votes.
#[derive(Debug, Clone)]
struct Tally {
    /// The view of the block's first vote; what [`QuorumTracker::prune_below`]
    /// compares.
    view: View,
    /// The votes so far; `None` once the QC has formed, so a certified block
    /// keeps nothing else and drops later votes.
    open: Option<Box<Open>>,
}

/// The votes of a block whose QC has not formed yet.
#[derive(Debug, Clone)]
struct Open {
    /// One bit per node id: who has voted.
    voted: Vec<u64>,
    /// `(voter, signature)` in arrival order, handed to the QC when it forms.
    signatures: Vec<(u64, Signature)>,
}

/// Collects votes and forms quorum certificates.
#[derive(Debug, Clone)]
pub struct QuorumTracker {
    nodes: usize,
    /// Every block with an unpruned vote, certified or not.
    tallies: DigestMap<BlockId, Tally>,
    /// Total votes accepted (for metrics).
    accepted: u64,
    /// Votes dropped as duplicates or stale.
    dropped: u64,
}

impl QuorumTracker {
    /// Creates a tracker for a system of `nodes` replicas.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            tallies: DigestMap::default(),
            accepted: 0,
            dropped: 0,
        }
    }

    /// The vote threshold (`2f + 1`).
    pub fn threshold(&self) -> usize {
        quorum_threshold(self.nodes)
    }

    /// `voted()`: registers a vote, copying its signature only if it counts.
    /// Returns `Some(qc)` the moment the block reaches the threshold (and
    /// never again for the same block).
    pub fn add_vote(&mut self, vote: &Vote) -> Option<QuorumCert> {
        let threshold = quorum_threshold(self.nodes);
        let words = self.nodes.div_ceil(64);
        let tally = self.tallies.entry(vote.block).or_insert_with(|| Tally {
            view: vote.view,
            open: Some(Box::new(Open {
                voted: vec![0; words],
                signatures: Vec::with_capacity(threshold),
            })),
        });
        let (word, bit) = (vote.voter.index() / 64, 1u64 << (vote.voter.index() % 64));
        // A voter outside the validator set fails ingress; it counts nowhere.
        let open = match tally.open.as_deref_mut() {
            Some(open) if open.voted.get(word).is_some_and(|w| w & bit == 0) => open,
            _ => {
                self.dropped += 1;
                return None;
            }
        };
        open.voted[word] |= bit;
        open.signatures.push((vote.voter.as_u64(), vote.signature));
        self.accepted += 1;
        if open.signatures.len() < threshold {
            return None;
        }
        let signatures = std::mem::take(&mut open.signatures);
        tally.open = None;
        Some(QuorumCert {
            block: vote.block,
            view: vote.view,
            // The aggregate sorts by signer, so arrival order does not matter.
            signatures: signatures.into_iter().collect(),
        })
    }

    /// `certified()`: returns true if a QC has been produced for `block`.
    pub fn is_certified(&self, block: BlockId) -> bool {
        self.tallies
            .get(&block)
            .is_some_and(|tally| tally.open.is_none())
    }

    /// Drops the tallies of blocks proposed before `view`; called after
    /// commits to keep memory bounded over long runs.
    pub fn prune_below(&mut self, view: View) {
        self.tallies.retain(|_, tally| tally.view >= view);
    }

    /// Total accepted and dropped vote counts.
    pub fn counters(&self) -> (u64, u64) {
        (self.accepted, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::{Digest, KeyPair};
    use bamboo_types::NodeId;

    fn vote(block: u8, view: u64, voter: u64) -> Vote {
        let kp = KeyPair::from_seed(voter);
        Vote::new(
            BlockId(Digest::of(&[block])),
            View(view),
            NodeId(voter),
            &kp,
        )
    }

    #[test]
    fn qc_forms_exactly_at_threshold() {
        let mut q = QuorumTracker::new(4);
        assert_eq!(q.threshold(), 3);
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 1)).is_none());
        let qc = q.add_vote(&vote(1, 2, 2)).expect("third vote certifies");
        assert_eq!(qc.signer_count(), 3);
        assert_eq!(qc.view, View(2));
        assert!(q.is_certified(BlockId(Digest::of(&[1]))));
    }

    #[test]
    fn the_qc_equals_one_built_from_the_votes() {
        let mut q = QuorumTracker::new(7);
        let votes: Vec<Vote> = [5, 0, 3, 6, 1].map(|voter| vote(1, 4, voter)).into();
        let qc = (votes.iter())
            .find_map(|v| q.add_vote(v))
            .expect("five of seven");
        assert_eq!(qc, QuorumCert::from_votes(votes[0].block, View(4), &votes));
    }

    #[test]
    fn duplicate_voters_do_not_count() {
        let mut q = QuorumTracker::new(4);
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (1, 2));
    }

    #[test]
    fn voters_outside_the_validator_set_do_not_count() {
        let mut q = QuorumTracker::new(4);
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 1)).is_none());
        assert!(q.add_vote(&vote(1, 2, 64)).is_none());
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (2, 1));
    }

    #[test]
    fn votes_after_certification_are_ignored() {
        let mut q = QuorumTracker::new(4);
        q.add_vote(&vote(1, 2, 0));
        q.add_vote(&vote(1, 2, 1));
        assert!(q.add_vote(&vote(1, 2, 2)).is_some());
        assert!(
            q.add_vote(&vote(1, 2, 3)).is_none(),
            "late vote produces no second QC"
        );
    }

    #[test]
    fn separate_blocks_are_tracked_independently() {
        let mut q = QuorumTracker::new(4);
        for voter in 0..2 {
            assert!(q.add_vote(&vote(1, 2, voter)).is_none());
            assert!(q.add_vote(&vote(2, 2, voter)).is_none());
        }
        assert!(q.add_vote(&vote(1, 2, 2)).is_some());
        assert!(!q.is_certified(BlockId(Digest::of(&[2]))));
    }

    #[test]
    fn prune_discards_old_tallies() {
        let mut q = QuorumTracker::new(7);
        q.add_vote(&vote(1, 2, 0));
        q.add_vote(&vote(2, 9, 0));
        q.prune_below(View(5));
        // Block 2 kept voter 0, so four more votes certify it; block 1 lost
        // it and needs a fifth.
        for voter in 1..5 {
            let certified = q.add_vote(&vote(2, 9, voter)).is_some();
            assert_eq!(certified, voter == 4);
            assert!(q.add_vote(&vote(1, 2, voter)).is_none());
        }
        assert!(q.add_vote(&vote(1, 2, 5)).is_some());
    }

    #[test]
    fn larger_systems_need_larger_quorums() {
        let mut q = QuorumTracker::new(32);
        assert_eq!(q.threshold(), 22);
        for voter in 0..21 {
            assert!(q.add_vote(&vote(1, 1, voter)).is_none());
        }
        assert!(q.add_vote(&vote(1, 1, 21)).is_some());
    }
}
