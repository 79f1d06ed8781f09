//! Votes, quorum certificates and timeout certificates.

use std::fmt;

use bamboo_crypto::{AggregateSignature, KeyPair, PublicKey, Signature};

use crate::block::BlockId;
use crate::ids::{NodeId, View};

/// A vote cast by one replica for one block in one view.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Vote {
    /// The block being voted for.
    pub block: BlockId,
    /// The view the block was proposed in.
    pub view: View,
    /// The voting replica.
    pub voter: NodeId,
    /// Signature over `(block, view)`.
    pub signature: Signature,
}

impl Vote {
    /// Creates and signs a vote.
    pub fn new(block: BlockId, view: View, voter: NodeId, keypair: &KeyPair) -> Self {
        let signature = keypair.sign(&Self::signing_bytes(block, view));
        Self {
            block,
            view,
            voter,
            signature,
        }
    }

    /// The canonical byte string a vote signs.
    pub fn signing_bytes(block: BlockId, view: View) -> [u8; 40] {
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(block.0.as_bytes());
        buf[32..].copy_from_slice(&view.as_u64().to_be_bytes());
        buf
    }

    /// Verifies the vote's signature against the voter's public key.
    pub fn verify(&self, public_key: &PublicKey) -> bool {
        public_key.verify(&Self::signing_bytes(self.block, self.view), &self.signature)
    }
}

impl fmt::Display for Vote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vote({} for {} @ {})", self.voter, self.block, self.view)
    }
}

/// A quorum certificate: proof that a quorum of replicas voted for `block` in
/// `view`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuorumCert {
    /// The certified block.
    pub block: BlockId,
    /// The view in which the block was certified.
    pub view: View,
    /// Aggregated votes.
    pub signatures: AggregateSignature,
}

impl QuorumCert {
    /// The (trusted, empty) certificate for the genesis block.
    pub fn genesis() -> Self {
        Self {
            block: BlockId::GENESIS,
            view: View::GENESIS,
            signatures: AggregateSignature::new(),
        }
    }

    /// Builds a certificate from collected votes. The caller (the Quorum
    /// component) is responsible for checking the threshold.
    pub fn from_votes(block: BlockId, view: View, votes: &[Vote]) -> Self {
        debug_assert!(votes.iter().all(|v| v.block == block && v.view == view));
        Self {
            block,
            view,
            signatures: votes
                .iter()
                .map(|vote| (vote.voter.as_u64(), vote.signature))
                .collect(),
        }
    }

    /// Returns true if this is the genesis certificate.
    pub fn is_genesis(&self) -> bool {
        self.block.is_genesis() && self.view == View::GENESIS
    }

    /// Number of signers in the certificate.
    pub fn signer_count(&self) -> usize {
        self.signatures.len()
    }

    /// Verifies every signature in the certificate and checks the quorum
    /// threshold for a system of `n` replicas.
    pub fn verify<F>(&self, n: usize, key_of: F) -> bool
    where
        F: Fn(u64) -> Option<PublicKey>,
    {
        if self.is_genesis() {
            return true;
        }
        if self.signer_count() < crate::ids::quorum_threshold(n) {
            return false;
        }
        self.signatures
            .verify(&Vote::signing_bytes(self.block, self.view), key_of)
    }
}

impl fmt::Display for QuorumCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QC({} @ {}, {} sigs)",
            self.block,
            self.view,
            self.signer_count()
        )
    }
}

/// A timeout vote broadcast by a replica that gave up on the current view.
///
/// Carries the sender's highest known QC so the next leader can adopt it, as
/// in the LibraBFT pacemaker the paper adopts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimeoutVote {
    /// The view being abandoned.
    pub view: View,
    /// The sender.
    pub voter: NodeId,
    /// The sender's highest quorum certificate.
    pub high_qc: QuorumCert,
    /// Signature over the view number.
    pub signature: Signature,
}

impl TimeoutVote {
    /// Creates and signs a timeout vote.
    pub fn new(view: View, voter: NodeId, high_qc: QuorumCert, keypair: &KeyPair) -> Self {
        let signature = keypair.sign(&Self::signing_bytes(view));
        Self {
            view,
            voter,
            high_qc,
            signature,
        }
    }

    /// The canonical byte string a timeout vote signs.
    pub fn signing_bytes(view: View) -> [u8; 16] {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(b"timeout!");
        buf[8..].copy_from_slice(&view.as_u64().to_be_bytes());
        buf
    }

    /// Verifies the signature.
    pub fn verify(&self, public_key: &PublicKey) -> bool {
        public_key.verify(&Self::signing_bytes(self.view), &self.signature)
    }
}

/// A timeout certificate: proof that a quorum of replicas timed out in `view`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TimeoutCert {
    /// The abandoned view.
    pub view: View,
    /// Aggregated timeout signatures.
    pub signatures: AggregateSignature,
    /// The highest QC among the contributing timeout votes.
    pub high_qc: QuorumCert,
}

impl TimeoutCert {
    /// Builds a timeout certificate from collected timeout votes; the highest
    /// contained QC (by view) is retained.
    pub fn from_votes(view: View, votes: &[TimeoutVote]) -> Self {
        debug_assert!(votes.iter().all(|v| v.view == view));
        let mut high_qc = QuorumCert::genesis();
        for vote in votes {
            if vote.high_qc.view > high_qc.view {
                high_qc = vote.high_qc.clone();
            }
        }
        Self {
            view,
            signatures: votes
                .iter()
                .map(|vote| (vote.voter.as_u64(), vote.signature))
                .collect(),
            high_qc,
        }
    }

    /// Number of signers.
    pub fn signer_count(&self) -> usize {
        self.signatures.len()
    }

    /// Verifies every signature and the quorum threshold for `n` replicas.
    pub fn verify<F>(&self, n: usize, key_of: F) -> bool
    where
        F: Fn(u64) -> Option<PublicKey>,
    {
        if self.signer_count() < crate::ids::quorum_threshold(n) {
            return false;
        }
        self.signatures
            .verify(&TimeoutVote::signing_bytes(self.view), key_of)
    }
}

impl fmt::Display for TimeoutCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TC({} sigs @ {})", self.signer_count(), self.view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::Digest;

    fn keys(n: u64) -> Vec<KeyPair> {
        (0..n).map(KeyPair::from_seed).collect()
    }

    fn block_id(tag: u8) -> BlockId {
        BlockId(Digest::of(&[tag]))
    }

    #[test]
    fn vote_sign_and_verify() {
        let kps = keys(2);
        let vote = Vote::new(block_id(1), View(3), NodeId(0), &kps[0]);
        assert!(vote.verify(&kps[0].public_key()));
        assert!(!vote.verify(&kps[1].public_key()));
    }

    #[test]
    fn qc_from_votes_reaches_quorum() {
        let kps = keys(4);
        let bid = block_id(7);
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .take(3)
            .map(|(i, kp)| Vote::new(bid, View(2), NodeId(i as u64), kp))
            .collect();
        let qc = QuorumCert::from_votes(bid, View(2), &votes);
        assert_eq!(qc.signer_count(), 3);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        assert!(qc.verify(4, |i| pks.get(i as usize).copied()));
    }

    #[test]
    fn qc_below_threshold_fails_verification() {
        let kps = keys(4);
        let bid = block_id(7);
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .take(2)
            .map(|(i, kp)| Vote::new(bid, View(2), NodeId(i as u64), kp))
            .collect();
        let qc = QuorumCert::from_votes(bid, View(2), &votes);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        assert!(!qc.verify(4, |i| pks.get(i as usize).copied()));
    }

    #[test]
    fn genesis_qc_always_verifies() {
        let qc = QuorumCert::genesis();
        assert!(qc.is_genesis());
        assert!(qc.verify(100, |_| None));
    }

    #[test]
    fn a_certificate_is_independent_of_vote_arrival_order() {
        let kps = keys(22);
        let bid = block_id(3);
        let vote = |i: u64| Vote::new(bid, View(4), NodeId(i), &kps[i as usize]);
        let in_order: Vec<Vote> = (0..22).map(vote).collect();
        let reference = QuorumCert::from_votes(bid, View(4), &in_order);
        let mut reference_bytes = Vec::new();
        crate::wire::encode_qc(&mut reference_bytes, &reference);
        for stride in [3u64, 5, 7, 13] {
            let shuffled: Vec<Vote> = (0..22).map(|i| vote((i * stride + 1) % 22)).collect();
            let qc = QuorumCert::from_votes(bid, View(4), &shuffled);
            assert_eq!(qc, reference, "stride {stride}");
            let mut bytes = Vec::new();
            crate::wire::encode_qc(&mut bytes, &qc);
            assert_eq!(bytes, reference_bytes, "stride {stride}");
        }
    }

    #[test]
    fn a_certificate_is_small_and_its_heap_is_one_small_allocation() {
        assert_eq!(std::mem::size_of::<QuorumCert>(), 56);
        let kps = keys(32);
        let bid = block_id(5);
        let votes: Vec<Vote> = (0..22)
            .map(|i| Vote::new(bid, View(3), NodeId(i), &kps[i as usize]))
            .collect();
        let qc = QuorumCert::from_votes(bid, View(3), &votes);
        // Two reference counts, the 32-byte aggregate and one bitset word.
        let heap = 16 + 32 + 8 * qc.signatures.bitset().len();
        assert!(heap <= 64, "{heap} B");
        // On the wire it is the claim, one bitset word and the aggregate.
        let len = crate::wire::Count::of(|out| crate::wire::encode_qc(out, &qc));
        assert_eq!(len, 32 + 8 + 2 + 8 + 32);
    }

    #[test]
    fn timeout_cert_keeps_highest_qc() {
        let kps = keys(4);
        let low_qc = QuorumCert::from_votes(
            block_id(1),
            View(1),
            &(0..3)
                .map(|i| Vote::new(block_id(1), View(1), NodeId(i), &kps[i as usize]))
                .collect::<Vec<_>>(),
        );
        let high_qc = QuorumCert::from_votes(
            block_id(2),
            View(5),
            &(0..3)
                .map(|i| Vote::new(block_id(2), View(5), NodeId(i), &kps[i as usize]))
                .collect::<Vec<_>>(),
        );
        let votes = vec![
            TimeoutVote::new(View(6), NodeId(0), low_qc, &kps[0]),
            TimeoutVote::new(View(6), NodeId(1), high_qc.clone(), &kps[1]),
            TimeoutVote::new(View(6), NodeId(2), QuorumCert::genesis(), &kps[2]),
        ];
        let tc = TimeoutCert::from_votes(View(6), &votes);
        assert_eq!(tc.high_qc, high_qc);
        assert_eq!(tc.signer_count(), 3);
        let pks: Vec<_> = kps.iter().map(|k| k.public_key()).collect();
        assert!(tc.verify(4, |i| pks.get(i as usize).copied()));
        assert!(!tc.verify(16, |i| pks.get(i as usize).copied()));
    }

    #[test]
    fn timeout_vote_verify_rejects_other_view_signature() {
        let kps = keys(1);
        let tv = TimeoutVote::new(View(3), NodeId(0), QuorumCert::genesis(), &kps[0]);
        assert!(tv.verify(&kps[0].public_key()));
        let mut forged = tv.clone();
        forged.view = View(4);
        assert!(!forged.verify(&kps[0].public_key()));
    }
}
