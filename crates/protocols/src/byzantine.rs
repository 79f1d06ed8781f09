//! Byzantine behaviour: the two performance attacks of §IV-A plus two
//! signature-forgery attacks exercising the authenticated message path, as
//! one [`Attack`] value a replica holds *beside* its honest protocol.
//!
//! The paper's pair are "challenging to detect as the attackers are not
//! violating the protocol from an outsider's view, but could damage
//! performance", and both change only the Proposing rule of an otherwise
//! honest protocol:
//!
//! * **forking** proposes on an older ancestor so that previously proposed
//!   (but uncommitted) blocks get overwritten (Fig. 5),
//! * **silence** withholds the proposal entirely, forcing the other replicas
//!   to time out and breaking the commit rule for the tail blocks (Fig. 6).
//!
//! The forgery pair *does* violate the protocol from an outsider's view and
//! therefore tests a different layer — the cryptographic ingress stage
//! (`bamboo_types::Authenticator`) rather than the consensus rules:
//!
//! * **forged-vote** replaces each outbound vote with a flood of votes
//!   carrying invalid signatures, one minted in every replica's name — the
//!   fake quorum would certify instantly if any replica skipped verification,
//! * **forged-qc** proposes blocks whose justify QC claims quorum
//!   certification with fabricated signatures. The block id stays valid (it
//!   binds the QC's block and view, not its signature bytes), so only
//!   per-signer verification of the aggregate catches the forgery.
//!
//! An [`Attack`] has one entry point per surface an attacker controls:
//! [`Attack::propose`] sees the honest protocol only through `&dyn Safety`
//! (whose voting, state-updating and commit rules all need `&mut`), and
//! [`Attack::wire_votes`] only the vote about to leave. "Attackers keep the
//! honest voting, state and commit rules" is a property of the type.

use bamboo_crypto::KeyPair;
use bamboo_forest::BlockForest;
use bamboo_types::{Block, ByzantineStrategy, NodeId, QuorumCert, Vote};

use crate::safety::{propose_on_certified, ProposalInput, Safety};

/// One replica's Byzantine strategy plus the counters of what it did.
/// [`ByzantineStrategy::Honest`] is the identity on both surfaces.
#[derive(Clone, Debug)]
pub struct Attack {
    strategy: ByzantineStrategy,
    nodes: usize,
    /// A key outside the validator set (ids are < nodes), so nothing it signs
    /// can verify under any validator's public key.
    junk: KeyPair,
    /// Forking proposals actually produced.
    pub forks_attempted: u64,
    /// Proposals withheld by the silence attack.
    pub withheld: u64,
    /// Forged votes put on the wire, or forged-QC proposals produced.
    pub forged: u64,
}

impl Attack {
    /// The attack a replica running `strategy` mounts in a system of `nodes`
    /// replicas (the vote forger mints one vote in every replica's name).
    pub fn new(strategy: ByzantineStrategy, nodes: usize) -> Self {
        Self {
            strategy,
            nodes,
            junk: KeyPair::from_seed(u64::MAX),
            forks_attempted: 0,
            withheld: 0,
            forged: 0,
        }
    }

    /// The Proposing rule as the attacker plays it; `None` withholds the
    /// proposal. Everything but forking, silence and QC forgery proposes
    /// honestly.
    pub fn propose(
        &mut self,
        honest: &dyn Safety,
        input: &ProposalInput,
        forest: &BlockForest,
    ) -> Option<Block> {
        match self.strategy {
            ByzantineStrategy::Forking => {
                // Ask the honest protocol how deep a fork its own voting rule
                // would still accept; fall back to honest proposing when
                // there is no room (e.g. Streamlet, or right after genesis).
                let room = honest.fork_parent(forest);
                let fork = room
                    .filter(|target| *target != forest.high_qc().block)
                    .and_then(|target| propose_on_certified(input, forest, target));
                self.forks_attempted += u64::from(fork.is_some());
                fork.or_else(|| honest.propose(input, forest))
            }
            ByzantineStrategy::Silence => {
                self.withheld += 1;
                None
            }
            ByzantineStrategy::ForgedQc => {
                let block = honest.propose(input, forest)?;
                Some(self.forge_justify(block))
            }
            ByzantineStrategy::Honest | ByzantineStrategy::ForgedVote => {
                honest.propose(input, forest)
            }
        }
    }

    /// Re-issues `block` with fabricated signatures under its justify QC: the
    /// same claim (block, view) and signer indices as the honest certificate,
    /// signed with the junk key. The block keeps its id because the id binds
    /// the justify's block and view only. Nothing is forged over the trusted
    /// genesis certificate — the slot is not wasted on it.
    fn forge_justify(&mut self, block: Block) -> Block {
        if block.justify.is_genesis() {
            return block;
        }
        let msg = Vote::signing_bytes(block.justify.block, block.justify.view);
        let signatures = (block.justify.signatures.signers())
            .map(|signer| (signer, self.junk.sign(&msg)))
            .collect();
        let justify = QuorumCert {
            signatures,
            ..block.justify
        };
        self.forged += 1;
        Block::new(
            block.view,
            block.height,
            block.parent,
            block.proposer,
            justify,
            block.payload,
        )
    }

    /// The votes that leave the process in place of the honest `vote` (which
    /// the replica still counts locally). The vote forger sends one per
    /// replica, minted in its name with the junk key: a replica that skipped
    /// verification would see an instant quorum; with authenticated ingress
    /// they all die at the door and the attacker merely withheld its vote.
    pub fn wire_votes<'a>(&mut self, vote: &'a Vote) -> impl Iterator<Item = Vote> + 'a {
        let own = vote.voter.as_u64();
        let (voters, signature) = if self.strategy == ByzantineStrategy::ForgedVote {
            self.forged += self.nodes as u64;
            let junk = self.junk.sign(&Vote::signing_bytes(vote.block, vote.view));
            (0..self.nodes as u64, junk)
        } else {
            (own..own + 1, vote.signature)
        };
        voters.map(move |voter| Vote {
            voter: NodeId(voter),
            signature,
            ..vote.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotstuff::HotStuffSafety;
    use crate::make_protocol;
    use crate::safety::testutil::*;
    use crate::streamlet::StreamletSafety;
    use crate::twochain::TwoChainHotStuffSafety;
    use bamboo_types::{BlockId, ProtocolKind, View};

    const STRATEGIES: [ByzantineStrategy; 5] = [
        ByzantineStrategy::Honest,
        ByzantineStrategy::Forking,
        ByzantineStrategy::Silence,
        ByzantineStrategy::ForgedVote,
        ByzantineStrategy::ForgedQc,
    ];

    const KINDS: [ProtocolKind; 4] = [
        ProtocolKind::HotStuff,
        ProtocolKind::TwoChainHotStuff,
        ProtocolKind::Streamlet,
        ProtocolKind::OriginalHotStuff,
    ];

    /// Whatever the strategy, an attacker's voting, state-updating and commit
    /// decisions are the honest protocol's: over a generated forest — which
    /// the attacker's own proposals fork — a protocol instance paired with an
    /// [`Attack`] and one without take identical decisions at every step.
    #[test]
    fn every_attack_keeps_the_honest_voting_state_and_commit_rules() {
        for (strategy, kind) in STRATEGIES.iter().flat_map(|s| KINDS.map(|k| (*s, k))) {
            let (mut votes, mut commits) = (0, 0);
            for seed in 0..8u64 {
                let mut forest = BlockForest::new();
                let (mut honest, mut attacker) = (make_protocol(kind), make_protocol(kind));
                let mut attack = Attack::new(strategy, 4);
                for view in 1..=40u64 {
                    let label = format!("{strategy} {kind:?} seed {seed} view {view}");
                    let draw = roll(seed, view);
                    let inp = input(view, view % 4);
                    // The attacker leads roughly every third view.
                    let proposal = if draw.is_multiple_of(3) {
                        attack.propose(&*attacker, &inp, &forest)
                    } else {
                        honest.propose(&inp, &forest)
                    };
                    let Some(block) = proposal else {
                        assert_eq!(strategy, ByzantineStrategy::Silence, "{label}");
                        continue;
                    };
                    forest.insert(block.clone()).expect("insert");
                    let vote = honest.should_vote(&block, &forest);
                    assert_eq!(attacker.should_vote(&block, &forest), vote, "{label}");
                    assert_eq!(attacker.voted_view(), honest.voted_view(), "{label}");
                    votes += u64::from(vote);
                    // Most blocks get certified; the rest leave gaps.
                    if !(draw >> 8).is_multiple_of(5) {
                        let qc = qc_for(block.id, block.view);
                        forest.register_qc(qc.clone()).expect("certify");
                        honest.update_state(&qc, &forest);
                        attacker.update_state(&qc, &forest);
                        let commit = honest.try_commit(&qc, &forest);
                        assert_eq!(attacker.try_commit(&qc, &forest), commit, "{label}");
                        commits += u64::from(commit.is_some());
                    }
                    assert_eq!(
                        attacker.fork_parent(&forest),
                        honest.fork_parent(&forest),
                        "{label}"
                    );
                }
            }
            assert!(
                votes > 40 && commits > 20,
                "{strategy} {kind:?}: vacuous ({votes} votes, {commits} commits)"
            );
        }
    }

    #[test]
    fn forking_hotstuff_builds_on_grandparent_and_honest_replicas_accept() {
        let (mut forest, ids) = chain3();
        let mut attack = Attack::new(ByzantineStrategy::Forking, 4);
        let proposal = attack
            .propose(&HotStuffSafety::new(), &input(4, 0), &forest)
            .expect("proposal");
        assert_eq!(proposal.parent, ids[0], "built on a, overwriting b and c");
        assert_eq!(attack.forks_attempted, 1);

        // An honest HotStuff replica has only seen QCs carried inside blocks:
        // the newest QC it knows certifies `b` (it arrived inside `c`), so its
        // lock is `a` — and it therefore still votes for the forking proposal
        // built on `a`. That is exactly what makes the attack work (Fig. 5).
        let mut honest = HotStuffSafety::new();
        let qc_b = forest.qc_of(ids[1]).cloned().unwrap();
        honest.update_state(&qc_b, &forest);
        assert_eq!(honest.locked_block(), ids[0]);
        forest.insert(proposal.clone()).unwrap();
        assert!(honest.should_vote(&proposal, &forest));
    }

    #[test]
    fn fork_target_follows_the_protocols_lock_depth() {
        let (forest, ids) = chain3();
        let mut attack = Attack::new(ByzantineStrategy::Forking, 4);
        let two_chain = attack
            .propose(&TwoChainHotStuffSafety::new(), &input(4, 0), &forest)
            .expect("proposal");
        assert_eq!(two_chain.parent, ids[1], "built on b, overwriting only c");
        assert_eq!(attack.forks_attempted, 1);
        // Streamlet leaves no room: the attacker proposes honestly.
        let streamlet = attack
            .propose(&StreamletSafety::new(), &input(4, 0), &forest)
            .expect("proposal");
        assert_eq!(streamlet.parent, ids[2], "no fork target exists");
        assert_eq!(attack.forks_attempted, 1);
    }

    #[test]
    fn silence_attacker_never_proposes() {
        let (forest, _) = chain3();
        let mut attack = Attack::new(ByzantineStrategy::Silence, 4);
        let honest = HotStuffSafety::new();
        assert!(attack.propose(&honest, &input(4, 0), &forest).is_none());
        assert!(attack.propose(&honest, &input(5, 0), &forest).is_none());
        assert_eq!(attack.withheld, 2);
    }

    #[test]
    fn forged_vote_flood_covers_every_replica_and_never_verifies() {
        let vote = Vote::new(BlockId::GENESIS, View(3), NodeId(0), &KeyPair::from_seed(0));
        let mut attack = Attack::new(ByzantineStrategy::ForgedVote, 4);
        let flood: Vec<Vote> = attack.wire_votes(&vote).collect();
        assert_eq!(flood.len(), 4, "one forged vote per replica");
        assert_eq!(attack.forged, 4);
        for forged in &flood {
            assert_eq!((forged.block, forged.view), (vote.block, vote.view));
            let claimed_key = KeyPair::from_seed(forged.voter.as_u64()).public_key();
            assert!(
                !forged.verify(&claimed_key),
                "forged vote in {}'s name must not verify",
                forged.voter
            );
        }
        // Every other strategy puts exactly the honest vote on the wire.
        for strategy in STRATEGIES {
            if strategy != ByzantineStrategy::ForgedVote {
                let mut attack = Attack::new(strategy, 4);
                assert_eq!(
                    attack.wire_votes(&vote).collect::<Vec<_>>(),
                    std::slice::from_ref(&vote),
                    "{strategy}"
                );
                assert_eq!(attack.forged, 0);
            }
        }
    }

    #[test]
    fn forged_qc_proposal_keeps_valid_id_but_fails_aggregate_verification() {
        let (forest, _ids) = chain3();
        let mut attack = Attack::new(ByzantineStrategy::ForgedQc, 4);
        let honest = HotStuffSafety::new();
        let proposal = attack
            .propose(&honest, &input(4, 0), &forest)
            .expect("proposal");
        assert_eq!(attack.forged, 1);
        assert!(
            proposal.verify_id(),
            "id binds the QC's block/view, not its signatures"
        );
        assert_eq!(
            proposal.id,
            honest.propose(&input(4, 0), &forest).unwrap().id,
            "same claim as the honest proposal"
        );
        assert!(!proposal.justify.is_genesis());
        let keys: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
        assert!(
            !proposal
                .justify
                .verify(4, |i| keys.get(i as usize).map(|k| k.public_key())),
            "forged justify must fail per-signer verification"
        );
    }

    #[test]
    fn forged_qc_degenerates_to_honest_over_genesis() {
        // Only genesis exists: the honest protocol justifies with the genesis
        // QC, which cannot be meaningfully forged.
        let forest = BlockForest::new();
        let mut attack = Attack::new(ByzantineStrategy::ForgedQc, 4);
        let proposal = attack
            .propose(&HotStuffSafety::new(), &input(1, 0), &forest)
            .expect("proposal");
        assert!(proposal.justify.is_genesis());
        assert_eq!(attack.forged, 0);
    }
}
