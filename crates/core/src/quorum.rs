//! The Quorum component: vote collection and QC formation.
//!
//! Bamboo's Quorum component "supports two simple interfaces to collect votes
//! (via the interface voted()) and generate QCs (via certified())" (§III-E).
//! [`QuorumTracker`] is that component: it keeps one tally per block,
//! deduplicates voters, and emits a [`QuorumCert`] exactly once when the
//! threshold is reached. It also keeps the schedule on which a tally's votes
//! are checked: in passes of up to four as they arrive, the short pass
//! first, so the vote that completes the quorum closes a full one
//! ([`Counted::pass`]). The collector's own vote is never checked.

use bamboo_crypto::Signature;
use bamboo_sim::CpuModel;
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
    /// How many of `signatures` need no further check: the collector's own
    /// vote, and every vote a pass took.
    checked: usize,
}

/// What [`QuorumTracker::add_vote`] made of a vote.
#[derive(Debug, Default)]
pub struct Counted {
    /// The votes checked in the pass this vote closes. A pass runs when the
    /// votes still missing from the quorum would fill whole passes of
    /// [`CpuModel::PASS`] — `(q − received) % PASS == 0` — and takes every
    /// vote still unchecked: the first pass is the short one, and the vote
    /// that completes the quorum closes a full pass with nothing queued
    /// ahead of it. Every other vote — one that does not count included —
    /// closes none (0). The collector's own vote counts as checked, so a
    /// certificate's passes sum to its `q` votes less that one, in
    /// `⌈(q − own)/4⌉` passes (one more only when `q % 4 == 1` and the own
    /// vote arrives after the first pass).
    pub pass: usize,
    /// The certificate, the moment the block reaches the threshold (and
    /// never again for the same block).
    pub qc: Option<QuorumCert>,
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

    /// `voted()`: registers a vote, copying its signature only if it counts,
    /// and reports the pass it closes and the QC it forms. An `own` vote —
    /// the collector's, which it signed itself — needs no check.
    pub fn add_vote(&mut self, vote: &Vote, own: bool) -> Counted {
        let threshold = quorum_threshold(self.nodes);
        let words = self.nodes.div_ceil(64);
        let tally = self.tallies.entry(vote.block).or_insert_with(|| Tally {
            view: vote.view,
            open: Some(Box::new(Open {
                voted: vec![0; words],
                signatures: Vec::with_capacity(threshold),
                checked: 0,
            })),
        });
        let (word, bit) = (vote.voter.index() / 64, 1u64 << (vote.voter.index() % 64));
        // A voter outside the validator set fails ingress; it counts nowhere.
        let open = match tally.open.as_deref_mut() {
            Some(open) if open.voted.get(word).is_some_and(|w| w & bit == 0) => open,
            _ => {
                self.dropped += 1;
                return Counted::default();
            }
        };
        open.voted[word] |= bit;
        open.signatures.push((vote.voter.as_u64(), vote.signature));
        open.checked += usize::from(own);
        self.accepted += 1;
        let missing = threshold - open.signatures.len();
        let pass = if missing.is_multiple_of(CpuModel::PASS) {
            open.signatures.len() - open.checked
        } else {
            0
        };
        open.checked += pass;
        if missing > 0 {
            return Counted { pass, qc: None };
        }
        let signatures = std::mem::take(&mut open.signatures);
        tally.open = None;
        Counted {
            pass,
            qc: Some(QuorumCert {
                block: vote.block,
                view: vote.view,
                // The aggregate sorts by signer, so arrival order does not matter.
                signatures: signatures.into_iter().collect(),
            }),
        }
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
        assert!(q.add_vote(&vote(1, 2, 0), false).qc.is_none());
        assert!(q.add_vote(&vote(1, 2, 1), false).qc.is_none());
        let counted = q.add_vote(&vote(1, 2, 2), false);
        assert_eq!(counted.pass, 3, "one pass checks the whole quorum");
        let qc = counted.qc.expect("third vote certifies");
        assert_eq!(qc.signer_count(), 3);
        assert_eq!(qc.view, View(2));
        assert!(q.is_certified(BlockId(Digest::of(&[1]))));
    }

    #[test]
    fn the_qc_equals_one_built_from_the_votes() {
        let mut q = QuorumTracker::new(7);
        let votes: Vec<Vote> = [5, 0, 3, 6, 1].map(|voter| vote(1, 4, voter)).into();
        let qc = (votes.iter())
            .find_map(|v| q.add_vote(v, false).qc)
            .expect("five of seven");
        assert_eq!(qc, QuorumCert::from_votes(votes[0].block, View(4), &votes));
    }

    #[test]
    fn duplicate_voters_do_not_count() {
        let mut q = QuorumTracker::new(4);
        assert!(q.add_vote(&vote(1, 2, 0), false).qc.is_none());
        assert!(q.add_vote(&vote(1, 2, 0), false).qc.is_none());
        assert!(q.add_vote(&vote(1, 2, 0), false).qc.is_none());
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (1, 2));
    }

    #[test]
    fn voters_outside_the_validator_set_do_not_count() {
        let mut q = QuorumTracker::new(4);
        assert!(q.add_vote(&vote(1, 2, 0), false).qc.is_none());
        assert!(q.add_vote(&vote(1, 2, 1), false).qc.is_none());
        assert!(q.add_vote(&vote(1, 2, 64), false).qc.is_none());
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (2, 1));
    }

    #[test]
    fn votes_after_certification_are_ignored() {
        let mut q = QuorumTracker::new(4);
        q.add_vote(&vote(1, 2, 0), false);
        q.add_vote(&vote(1, 2, 1), false);
        assert!(q.add_vote(&vote(1, 2, 2), false).qc.is_some());
        assert!(
            q.add_vote(&vote(1, 2, 3), false).qc.is_none(),
            "late vote produces no second QC"
        );
    }

    #[test]
    fn separate_blocks_are_tracked_independently() {
        let mut q = QuorumTracker::new(4);
        for voter in 0..2 {
            assert!(q.add_vote(&vote(1, 2, voter), false).qc.is_none());
            assert!(q.add_vote(&vote(2, 2, voter), false).qc.is_none());
        }
        assert!(q.add_vote(&vote(1, 2, 2), false).qc.is_some());
        assert!(!q.is_certified(BlockId(Digest::of(&[2]))));
    }

    #[test]
    fn prune_discards_old_tallies() {
        let mut q = QuorumTracker::new(7);
        q.add_vote(&vote(1, 2, 0), false);
        q.add_vote(&vote(2, 9, 0), false);
        q.prune_below(View(5));
        // Block 2 kept voter 0, so four more votes certify it; block 1 lost
        // it and needs a fifth.
        for voter in 1..5 {
            let certified = q.add_vote(&vote(2, 9, voter), false).qc.is_some();
            assert_eq!(certified, voter == 4);
            assert!(q.add_vote(&vote(1, 2, voter), false).qc.is_none());
        }
        assert!(q.add_vote(&vote(1, 2, 5), false).qc.is_some());
    }

    #[test]
    fn a_tally_that_never_certifies_pays_only_the_passes_its_votes_closed() {
        let mut q = QuorumTracker::new(32);
        let charged: Vec<usize> = ((0..21).chain(0..21))
            .map(|voter| q.add_vote(&vote(1, 1, voter), false).pass)
            .collect();
        // Passes close at votes 2, 6, 10, 14 and 18 (22 − r a multiple of
        // four); votes 19–21 wait for the quorum vote's pass.
        assert_eq!(
            charged.iter().sum::<usize>(),
            18,
            "votes 19–21 stay unchecked"
        );
        assert_eq!(charged.iter().filter(|&&pass| pass > 0).count(), 5);
        assert!(!q.is_certified(BlockId(Digest::of(&[1]))));
        assert_eq!(q.counters(), (21, 21));
    }

    #[test]
    fn larger_systems_need_larger_quorums() {
        let mut q = QuorumTracker::new(32);
        assert_eq!(q.threshold(), 22);
        for voter in 0..21 {
            let counted = q.add_vote(&vote(1, 1, voter), false);
            assert!(counted.qc.is_none());
            // Vote 2 closes the short pass; votes 6, 10, …, 18 a full one.
            let pass = match voter + 1 {
                2 => 2,
                r if r % 4 == 2 => 4,
                _ => 0,
            };
            assert_eq!(counted.pass, pass, "vote {}", voter + 1);
        }
        // The quorum vote closes a full pass with the QC.
        let last = q.add_vote(&vote(1, 1, 21), false);
        assert_eq!(
            (last.pass, last.qc.map(|qc| qc.signer_count())),
            (4, Some(22))
        );
    }

    /// Every size's per-vote pass sequence, with the collector's own vote
    /// absent, first or second (on the happy path it arrives right behind
    /// the proposer's): the first pass is the short one, every later one
    /// takes four, the vote that completes the quorum closes a full pass,
    /// and the passes cost `verify_batch(q − own)` in all.
    #[test]
    fn the_short_pass_goes_first_and_the_quorum_vote_closes_a_full_one() {
        let cpu = CpuModel::new(bamboo_types::SimDuration::from_micros(20));
        for n in [4, 7, 8, 32, 64] {
            let q = quorum_threshold(n);
            for own in [None, Some(0), Some(1)] {
                let mut tracker = QuorumTracker::new(n);
                let passes: Vec<usize> = (0..q as u64)
                    .map(|voter| {
                        tracker
                            .add_vote(&vote(1, 1, voter), own == Some(voter))
                            .pass
                    })
                    .collect();
                let checked = q - usize::from(own.is_some());
                let closed: Vec<usize> = passes.iter().copied().filter(|&p| p > 0).collect();
                let case = format!("n = {n}, own vote {own:?}: {passes:?}");
                assert_eq!(closed.iter().sum::<usize>(), checked, "{case}");
                assert!(closed.iter().all(|&p| p <= CpuModel::PASS), "{case}");
                let charged = closed.iter().map(|&p| cpu.verify_batch(p));
                let total = charged.fold(bamboo_types::SimDuration::ZERO, |sum, c| sum + c);
                if n == 7 && own == Some(1) {
                    // q = 5 ≡ 1 (mod 4): vote 1 closed a pass before the own
                    // vote came, so the four others take two passes.
                    assert_eq!(closed, [1, 3], "{case}");
                    continue;
                }
                assert_eq!(total, cpu.verify_batch(checked), "{case}");
                assert_eq!(closed[0], (checked - 1) % CpuModel::PASS + 1, "{case}");
                assert!(closed[1..].iter().all(|&p| p == CpuModel::PASS), "{case}");
                let last = passes[q - 1];
                assert_eq!(last, CpuModel::PASS.min(checked), "{case}");
            }
        }
    }
}
