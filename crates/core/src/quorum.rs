//! The Quorum component: vote collection and QC formation.
//!
//! Bamboo's Quorum component "supports two simple interfaces to collect votes
//! (via the interface voted()) and generate QCs (via certified())" (§III-E).
//! [`QuorumTracker`] is that component: it accumulates votes per block,
//! deduplicates voters, and emits a [`QuorumCert`] exactly once when the
//! threshold is reached.

use bamboo_types::{ids::quorum_threshold, BlockId, DigestMap, QuorumCert, View, Vote};

/// Collects votes and forms quorum certificates.
#[derive(Debug, Clone)]
pub struct QuorumTracker {
    nodes: usize,
    /// Pending votes per block.
    votes: DigestMap<BlockId, Vec<Vote>>,
    /// Blocks for which a QC has already been produced.
    certified: DigestMap<BlockId, View>,
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
            votes: DigestMap::default(),
            certified: DigestMap::default(),
            accepted: 0,
            dropped: 0,
        }
    }

    /// The vote threshold (`2f + 1`).
    pub fn threshold(&self) -> usize {
        quorum_threshold(self.nodes)
    }

    /// `voted()`: registers a vote, copying it only if it counts. Returns
    /// `Some(qc)` the moment the block reaches the threshold (and never again
    /// for the same block).
    pub fn add_vote(&mut self, vote: &Vote) -> Option<QuorumCert> {
        if self.certified.contains_key(&vote.block) {
            self.dropped += 1;
            return None;
        }
        let entry = self.votes.entry(vote.block).or_default();
        if entry.iter().any(|v| v.voter == vote.voter) {
            self.dropped += 1;
            return None;
        }
        self.accepted += 1;
        entry.push(vote.clone());
        if entry.len() >= quorum_threshold(self.nodes) {
            let votes = self.votes.remove(&vote.block).expect("entry exists");
            self.certified.insert(vote.block, vote.view);
            return Some(QuorumCert::from_votes(vote.block, vote.view, &votes));
        }
        None
    }

    /// `certified()`: returns true if a QC has been produced for `block`.
    pub fn is_certified(&self, block: BlockId) -> bool {
        self.certified.contains_key(&block)
    }

    /// Number of votes currently buffered for `block`.
    pub fn pending_votes(&self, block: BlockId) -> usize {
        self.votes.get(&block).map(Vec::len).unwrap_or(0)
    }

    /// Drops buffered votes for blocks proposed before `view`; called after
    /// commits to keep memory bounded over long runs.
    pub fn prune_below(&mut self, view: View) {
        self.votes
            .retain(|_, votes| votes.first().map(|v| v.view >= view).unwrap_or(false));
        self.certified.retain(|_, v| *v >= view);
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
    fn duplicate_voters_do_not_count() {
        let mut q = QuorumTracker::new(4);
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(q.add_vote(&vote(1, 2, 0)).is_none());
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (1, 2));
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
        q.add_vote(&vote(1, 2, 0));
        q.add_vote(&vote(2, 2, 0));
        assert_eq!(q.pending_votes(BlockId(Digest::of(&[1]))), 1);
        assert_eq!(q.pending_votes(BlockId(Digest::of(&[2]))), 1);
    }

    #[test]
    fn prune_discards_old_buffers() {
        let mut q = QuorumTracker::new(7);
        q.add_vote(&vote(1, 2, 0));
        q.add_vote(&vote(2, 9, 0));
        q.prune_below(View(5));
        assert_eq!(q.pending_votes(BlockId(Digest::of(&[1]))), 0);
        assert_eq!(q.pending_votes(BlockId(Digest::of(&[2]))), 1);
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
