//! The authenticated ingress stage: verify every inbound message before it
//! reaches the replica state machine.
//!
//! The paper's analytical model makes cryptographic cost (`t_CPU`) a
//! first-class driver of chained-BFT performance, and the attack surface of a
//! real deployment starts at the wire: a replica must not act on a vote, QC or
//! timeout certificate whose signatures it has not checked. This module is
//! the chokepoint that enforces it:
//!
//! * [`Authenticator`] holds the validator set's public keys and verifies
//!   every message variant — proposals (block id + justify QC), votes,
//!   timeout votes (signature + embedded high-QC), timeout certificates and
//!   state transfer — rejecting forgeries with a typed [`AuthError`].
//! * [`VerifiedMessage`] is the proof-of-verification token: it can only be
//!   constructed by [`Authenticator::authenticate`], so any component whose
//!   input type is `VerifiedMessage` is statically guaranteed to never see an
//!   unchecked signature.
//! * [`VerifiedRequests`] is its client-side twin: a client arrival batch
//!   that passed the edge check ([`Authenticator::verify_requests`]), so no
//!   unchecked client signature reaches a mempool either.
//!
//! Certificate checks are *signer-count aware*: the quorum threshold is
//! checked before any signature work, so a sub-quorum certificate is rejected
//! for free, and the per-signer checks go through one reused
//! [`BatchVerifier`], amortising signing-bytes construction across the whole
//! aggregate.
//!
//! Client requests are not messages: they arrive in batches at the edge
//! check ([`Authenticator::verify_requests`]). By default they pass
//! unchecked, since clients are not part of the validator set and transaction
//! authentication is out of scope for the paper's performance study. The
//! opt-in signed-client mode ([`Authenticator::set_signed_clients`], driven
//! by [`crate::Config::signed_requests`]) changes that: each request must
//! carry the issuing client's signature over a fixed 40-byte tuple, the
//! client's public key is re-derived lazily from its id (no O(clients) key
//! table), and whole arrival batches are checked through the same batched
//! pass as quorum certificates ([`Authenticator::verify_client_batch`]).

use std::fmt;

use bamboo_crypto::{BatchVerifier, KeyPair, PublicKey};

use crate::block::Block;
use crate::certificate::{QuorumCert, TimeoutCert, TimeoutVote, Vote};
use crate::ids::{quorum_threshold, NodeId, View};
use crate::message::{ClientRequest, Message, SharedMessage, SyncRequest, SyncResponse};
use crate::transaction::Transaction;

/// Why an inbound message was rejected at the ingress stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthError {
    /// A signer index does not belong to the validator set.
    UnknownSigner(NodeId),
    /// A vote signature does not verify under the voter's public key.
    BadVoteSignature(NodeId),
    /// A block's stored id does not match its header and payload.
    BadBlockId(View),
    /// A certificate carries fewer signers than the quorum threshold.
    SubQuorumCert {
        /// Signers present in the certificate.
        got: usize,
        /// Quorum threshold (`2f + 1`).
        need: usize,
    },
    /// At least one signature inside a quorum certificate is invalid.
    BadQcSignature(View),
    /// A timeout-vote signature does not verify under the voter's key.
    BadTimeoutSignature(NodeId),
    /// At least one signature inside a timeout certificate is invalid.
    BadTcSignature(View),
    /// A sync request's signature does not verify under the requester's key.
    BadSyncSignature(NodeId),
    /// Signed-client mode is on but the request carries no signature.
    UnsignedClientRequest(NodeId),
    /// A client-request signature does not verify under the client's key.
    BadClientSignature(NodeId),
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::UnknownSigner(node) => write!(f, "unknown signer {node}"),
            AuthError::BadVoteSignature(node) => write!(f, "invalid vote signature from {node}"),
            AuthError::BadBlockId(view) => write!(f, "block id mismatch in proposal @ {view}"),
            AuthError::SubQuorumCert { got, need } => {
                write!(f, "sub-quorum certificate: {got} signers, need {need}")
            }
            AuthError::BadQcSignature(view) => write!(f, "invalid QC signature @ {view}"),
            AuthError::BadTimeoutSignature(node) => {
                write!(f, "invalid timeout signature from {node}")
            }
            AuthError::BadTcSignature(view) => write!(f, "invalid TC signature @ {view}"),
            AuthError::BadSyncSignature(node) => {
                write!(f, "invalid sync-request signature from {node}")
            }
            AuthError::UnsignedClientRequest(client) => {
                write!(f, "unsigned client request from {client}")
            }
            AuthError::BadClientSignature(client) => {
                write!(f, "invalid client-request signature from {client}")
            }
        }
    }
}

impl std::error::Error for AuthError {}

/// A message that has passed cryptographic verification.
///
/// The only constructors are [`Authenticator::authenticate`] and
/// [`Authenticator::authenticate_shared`]; holding a `VerifiedMessage` *is*
/// the proof that every signature the message carries has been checked
/// against the validator set.
///
/// The token holds the message behind a [`SharedMessage`] handle, so cloning
/// it — the verify pool verifies a broadcast once and fans the token out to
/// every recipient — is a pointer bump, never an envelope copy. Recipients
/// read the message by reference ([`VerifiedMessage::message`]) and copy
/// only what they keep.
#[derive(Clone, Debug)]
pub struct VerifiedMessage {
    from: NodeId,
    message: SharedMessage,
}

impl VerifiedMessage {
    /// The transport-level sender of the message.
    pub fn sender(&self) -> NodeId {
        self.from
    }

    /// The verified message.
    pub fn message(&self) -> &Message {
        &self.message
    }
}

/// A client arrival batch that has passed the edge check, signatures
/// stripped.
///
/// The only constructor is [`Authenticator::verify_requests`]; holding a
/// `VerifiedRequests` *is* the proof that every transaction it carries was
/// checked under its client's key (or that the authenticator runs in
/// unsigned mode), just as [`VerifiedMessage`] is for replica traffic. The
/// token also records what the check did — how many requests were offered,
/// whether the per-item fallback ran — so the host that admits it can charge
/// the modeled cost of work it did not do itself.
#[derive(Debug)]
pub struct VerifiedRequests {
    transactions: Vec<Transaction>,
    offered: usize,
    signed: bool,
    fell_back: bool,
}

impl VerifiedRequests {
    /// The admitted transactions, in arrival order.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Consumes the token and returns the admitted transactions.
    pub fn into_transactions(self) -> Vec<Transaction> {
        self.transactions
    }

    /// Requests offered at the edge: the admitted plus the rejected.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Requests dropped for a missing or bad signature.
    pub fn rejected(&self) -> usize {
        self.offered - self.transactions.len()
    }

    /// Whether the batch was checked (signed-client mode).
    pub fn signed(&self) -> bool {
        self.signed
    }

    /// Whether the all-or-nothing batch check failed, so every request was
    /// checked again on its own.
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }
}

/// Verifies inbound messages against the validator set's public keys.
///
/// The authenticator owns a reused [`BatchVerifier`], so repeated certificate
/// checks are allocation-free in steady state; methods therefore take
/// `&mut self`. Each thread of a deployment owns its own authenticator
/// (they are cheap: `n` public keys plus buffers).
///
/// # Example
///
/// ```
/// use bamboo_types::{Authenticator, BlockId, Message, NodeId, View, Vote};
/// use bamboo_crypto::KeyPair;
///
/// let mut auth = Authenticator::for_nodes(4);
/// let vote = Vote::new(BlockId::GENESIS, View(1), NodeId(2), &KeyPair::from_seed(2));
/// let verified = auth
///     .authenticate(NodeId(2), Message::Vote(vote.clone()))
///     .expect("honest vote passes");
/// assert_eq!(verified.sender(), NodeId(2));
///
/// // The same vote under the wrong keypair is a forgery and is rejected.
/// let forged = Vote::new(BlockId::GENESIS, View(1), NodeId(2), &KeyPair::from_seed(3));
/// assert!(auth.authenticate(NodeId(2), Message::Vote(forged)).is_err());
/// ```
#[derive(Debug)]
pub struct Authenticator {
    keys: Vec<PublicKey>,
    batch: BatchVerifier,
    /// When true, client requests must carry a valid signature by the issuing
    /// client's (lazily derived) key; when false they pass unchecked.
    signed_clients: bool,
}

impl Authenticator {
    /// Builds the authenticator for the standard validator set of `nodes`
    /// replicas, whose key pairs are derived from their node ids (the same
    /// derivation every replica uses for its own signing key).
    pub fn for_nodes(nodes: usize) -> Self {
        Self::from_keys(
            (0..nodes as u64)
                .map(|i| KeyPair::from_seed(i).public_key())
                .collect(),
        )
    }

    /// Builds the authenticator from an explicit public-key list; key `i`
    /// belongs to node id `i`.
    pub fn from_keys(keys: Vec<PublicKey>) -> Self {
        Self {
            keys,
            batch: BatchVerifier::new(),
            signed_clients: false,
        }
    }

    /// Switches the signed-client mode on or off. Off (the default) keeps the
    /// paper's unauthenticated-client setting; on, every client request must
    /// verify under the issuing client's key.
    pub fn set_signed_clients(&mut self, signed: bool) {
        self.signed_clients = signed;
    }

    /// The issuing client's public key, derived lazily from the client id (the
    /// client keyspace is domain-separated from the validator keyspace, see
    /// [`KeyPair::client_from_seed`]). Two streaming hashes, no allocation, no
    /// per-client state.
    pub fn client_key(client: NodeId) -> PublicKey {
        KeyPair::client_from_seed(client.as_u64()).public_key()
    }

    /// Size of the validator set.
    pub fn nodes(&self) -> usize {
        self.keys.len()
    }

    /// Public key of `node`, if it belongs to the validator set.
    pub fn key_of(&self, node: NodeId) -> Option<PublicKey> {
        self.keys.get(node.index()).copied()
    }

    /// Verifies `message` and wraps it into the [`VerifiedMessage`] proof
    /// token.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AuthError`] describing the first forged or
    /// malformed component found; the message is dropped.
    pub fn authenticate(
        &mut self,
        from: NodeId,
        message: Message,
    ) -> Result<VerifiedMessage, AuthError> {
        self.authenticate_shared(from, SharedMessage::new(message))
    }

    /// Verifies an already-shared envelope and wraps it into the
    /// [`VerifiedMessage`] proof token without copying it.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AuthError`] describing the first forged or
    /// malformed component found; the message is dropped.
    pub fn authenticate_shared(
        &mut self,
        from: NodeId,
        message: SharedMessage,
    ) -> Result<VerifiedMessage, AuthError> {
        self.verify_message(&message)?;
        Ok(VerifiedMessage { from, message })
    }

    /// Runs the per-variant checks of [`Authenticator::authenticate`] without
    /// constructing the proof token.
    ///
    /// # Errors
    ///
    /// Returns the typed [`AuthError`] describing the first forged or
    /// malformed component found.
    pub fn verify_message(&mut self, message: &Message) -> Result<(), AuthError> {
        match message {
            Message::Proposal(block) => self.verify_block(block),
            Message::Vote(vote) => self.verify_vote(vote),
            Message::Timeout(tv) => self.verify_timeout_vote(tv),
            Message::TimeoutCertMsg(tc) => self.verify_timeout_cert(tc),
            Message::SyncRequest(req) => self.verify_sync_request(req),
            Message::SyncResponse(resp) => self.verify_sync_response(resp),
        }
    }

    /// Verifies one client request's signature under the issuing client's
    /// lazily derived key.
    ///
    /// # Errors
    ///
    /// [`AuthError::UnsignedClientRequest`] when the request carries no
    /// signature, [`AuthError::BadClientSignature`] when it does not verify.
    pub fn verify_client_request(&self, req: &ClientRequest) -> Result<(), AuthError> {
        let client = req.transaction.id.client;
        if req.signature.is_none() {
            return Err(AuthError::UnsignedClientRequest(client));
        }
        if !req.verify(&Self::client_key(client)) {
            return Err(AuthError::BadClientSignature(client));
        }
        Ok(())
    }

    /// Verifies a whole client arrival batch in one batched pass.
    ///
    /// Every request signs the same fixed-length 40-byte tuple; the staged
    /// checks share one arena and cost one signature hash each. (The
    /// modeled charge for the batch,
    /// `CpuModel::verify_batch`, is a parameter of the simulated CPU, not a
    /// description of this loop.) All-or-nothing: `true` iff
    /// every request is signed and verifies. Callers that need to salvage the
    /// honest majority of a failing batch fall back to
    /// [`Authenticator::verify_client_request`] per item.
    pub fn verify_client_batch(&mut self, requests: &[ClientRequest]) -> bool {
        let mut all_signed = true;
        for req in requests {
            let Some(signature) = req.signature else {
                all_signed = false;
                break;
            };
            let key = Self::client_key(req.transaction.id.client);
            self.batch.push(
                key,
                &ClientRequest::signing_bytes(&req.transaction),
                signature,
            );
        }
        if !all_signed {
            self.batch.clear();
            return false;
        }
        self.batch.verify_all()
    }

    /// The edge check of one client arrival batch, minting the
    /// [`VerifiedRequests`] token that admission takes.
    ///
    /// In unsigned mode the requests pass as they are. In signed mode the
    /// whole batch is checked in one batched pass
    /// ([`Authenticator::verify_client_batch`]); if that all-or-nothing check
    /// fails, every request is checked again on its own
    /// ([`Authenticator::verify_client_request`]), so forgeries are isolated
    /// and dropped while the honest remainder is kept. Either way the
    /// signatures are stripped: blocks carry bare transactions.
    pub fn verify_requests(&mut self, requests: Vec<ClientRequest>) -> VerifiedRequests {
        let offered = requests.len();
        let signed = self.signed_clients;
        let mut fell_back = false;
        let mut transactions = Vec::with_capacity(offered);
        if !signed || self.verify_client_batch(&requests) {
            transactions.extend(requests.into_iter().map(|r| r.transaction));
        } else {
            fell_back = true;
            for request in requests {
                if self.verify_client_request(&request).is_ok() {
                    transactions.push(request.transaction);
                }
            }
        }
        VerifiedRequests {
            transactions,
            offered,
            signed,
            fell_back,
        }
    }

    /// Verifies a proposal: the block id must bind the header and payload,
    /// and the justify QC must be a valid quorum certificate. The proposer's
    /// authorship is bound through the id (the header includes the proposer),
    /// mirroring how the simulated scheme folds identity into the hash.
    pub fn verify_block(&mut self, block: &Block) -> Result<(), AuthError> {
        if !block.verify_id() {
            return Err(AuthError::BadBlockId(block.view));
        }
        self.verify_qc(&block.justify)
    }

    /// Verifies a single vote signature.
    pub fn verify_vote(&self, vote: &Vote) -> Result<(), AuthError> {
        let key = self
            .key_of(vote.voter)
            .ok_or(AuthError::UnknownSigner(vote.voter))?;
        if !vote.verify(&key) {
            return Err(AuthError::BadVoteSignature(vote.voter));
        }
        Ok(())
    }

    /// Verifies a quorum certificate: signer count against the quorum
    /// threshold first (free), then every signature in one batched pass.
    pub fn verify_qc(&mut self, qc: &QuorumCert) -> Result<(), AuthError> {
        if qc.is_genesis() {
            return Ok(());
        }
        self.check_threshold(qc.signer_count())?;
        let msg = Vote::signing_bytes(qc.block, qc.view);
        let keys = &self.keys;
        self.batch
            .push_aggregate(&msg, &qc.signatures, |i| keys.get(i as usize).copied())
            .map_err(|signer| AuthError::UnknownSigner(NodeId(signer)))?;
        if !self.batch.verify_all() {
            return Err(AuthError::BadQcSignature(qc.view));
        }
        Ok(())
    }

    /// Verifies a timeout vote: the vote signature plus the embedded high-QC
    /// the next leader would adopt.
    pub fn verify_timeout_vote(&mut self, tv: &TimeoutVote) -> Result<(), AuthError> {
        let key = self
            .key_of(tv.voter)
            .ok_or(AuthError::UnknownSigner(tv.voter))?;
        if !tv.verify(&key) {
            return Err(AuthError::BadTimeoutSignature(tv.voter));
        }
        self.verify_qc(&tv.high_qc)
    }

    /// Verifies a timeout certificate: threshold, every timeout signature
    /// (batched), and the embedded high-QC.
    pub fn verify_timeout_cert(&mut self, tc: &TimeoutCert) -> Result<(), AuthError> {
        self.check_threshold(tc.signer_count())?;
        let msg = TimeoutVote::signing_bytes(tc.view);
        let keys = &self.keys;
        self.batch
            .push_aggregate(&msg, &tc.signatures, |i| keys.get(i as usize).copied())
            .map_err(|signer| AuthError::UnknownSigner(NodeId(signer)))?;
        if !self.batch.verify_all() {
            return Err(AuthError::BadTcSignature(tc.view));
        }
        self.verify_qc(&tc.high_qc)
    }

    /// Verifies a sync request's signature over `(head, height)`.
    pub fn verify_sync_request(&self, req: &SyncRequest) -> Result<(), AuthError> {
        let key = self
            .key_of(req.requester)
            .ok_or(AuthError::UnknownSigner(req.requester))?;
        if !req.verify(&key) {
            return Err(AuthError::BadSyncSignature(req.requester));
        }
        Ok(())
    }

    /// Verifies a sync response: every carried block (id binding + justify
    /// QC) and the responder's high-QC. Snapshot bytes are *not* checked here
    /// — their integrity checks are structural and happen when the requester
    /// decodes and installs the snapshot.
    pub fn verify_sync_response(&mut self, resp: &SyncResponse) -> Result<(), AuthError> {
        for block in &resp.blocks {
            self.verify_block(block)?;
        }
        self.verify_qc(&resp.high_qc)
    }

    fn check_threshold(&self, got: usize) -> Result<(), AuthError> {
        let need = quorum_threshold(self.keys.len());
        if got < need {
            return Err(AuthError::SubQuorumCert { got, need });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockId;
    use crate::ids::Height;
    use crate::transaction::Transaction;
    use crate::SimTime;
    use bamboo_crypto::AggregateSignature;

    fn keypairs(n: u64) -> Vec<KeyPair> {
        (0..n).map(KeyPair::from_seed).collect()
    }

    fn quorum_qc(block: BlockId, view: View, kps: &[KeyPair]) -> QuorumCert {
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .take(3)
            .map(|(i, kp)| Vote::new(block, view, NodeId(i as u64), kp))
            .collect();
        QuorumCert::from_votes(block, view, &votes)
    }

    fn block_id(tag: u8) -> BlockId {
        BlockId(bamboo_crypto::Digest::of(&[tag]))
    }

    #[test]
    fn honest_vote_and_qc_pass() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        let vote = Vote::new(block_id(1), View(2), NodeId(1), &kps[1]);
        assert!(auth.verify_vote(&vote).is_ok());
        let qc = quorum_qc(block_id(1), View(2), &kps);
        assert!(auth.verify_qc(&qc).is_ok());
        // Reuse works: the internal batch was cleared.
        assert!(auth.verify_qc(&qc).is_ok());
    }

    #[test]
    fn forged_vote_is_rejected_with_typed_error() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        let forged = Vote::new(block_id(1), View(2), NodeId(1), &kps[2]);
        assert_eq!(
            auth.verify_vote(&forged),
            Err(AuthError::BadVoteSignature(NodeId(1)))
        );
        assert!(auth.authenticate(NodeId(1), Message::Vote(forged)).is_err());
        let unknown = Vote::new(block_id(1), View(2), NodeId(9), &kps[2]);
        assert_eq!(
            auth.verify_vote(&unknown),
            Err(AuthError::UnknownSigner(NodeId(9)))
        );
    }

    #[test]
    fn sub_quorum_qc_is_rejected_before_any_signature_work() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        let votes: Vec<Vote> = kps
            .iter()
            .enumerate()
            .take(2)
            .map(|(i, kp)| Vote::new(block_id(1), View(2), NodeId(i as u64), kp))
            .collect();
        let qc = QuorumCert::from_votes(block_id(1), View(2), &votes);
        assert_eq!(
            auth.verify_qc(&qc),
            Err(AuthError::SubQuorumCert { got: 2, need: 3 })
        );
    }

    #[test]
    fn qc_with_forged_signature_is_rejected() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        let mut sigs = AggregateSignature::new();
        // All three "signatures" minted by replica 3's key under indices 0..2.
        let msg = Vote::signing_bytes(block_id(1), View(2));
        for i in 0..3u64 {
            sigs.add(i, kps[3].sign(&msg));
        }
        let forged = QuorumCert {
            block: block_id(1),
            view: View(2),
            signatures: sigs,
        };
        assert_eq!(
            auth.verify_qc(&forged),
            Err(AuthError::BadQcSignature(View(2)))
        );
    }

    #[test]
    fn genesis_qc_passes_and_timeout_paths_check_embedded_qc() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        assert!(auth.verify_qc(&QuorumCert::genesis()).is_ok());

        let high_qc = quorum_qc(block_id(2), View(3), &kps);
        let tv = TimeoutVote::new(View(4), NodeId(0), high_qc.clone(), &kps[0]);
        assert!(auth.verify_timeout_vote(&tv).is_ok());

        // Same timeout vote, but the embedded QC's signatures are corrupted.
        let mut bad_qc = high_qc.clone();
        let msg = Vote::signing_bytes(block_id(9), View(9));
        let mut sigs = AggregateSignature::new();
        for i in 0..3u64 {
            sigs.add(i, kps[i as usize].sign(&msg));
        }
        bad_qc.signatures = sigs;
        let bad_tv = TimeoutVote::new(View(4), NodeId(0), bad_qc, &kps[0]);
        assert!(auth.verify_timeout_vote(&bad_tv).is_err());

        let tvs: Vec<TimeoutVote> = (0..3)
            .map(|i| TimeoutVote::new(View(4), NodeId(i), high_qc.clone(), &kps[i as usize]))
            .collect();
        let tc = TimeoutCert::from_votes(View(4), &tvs);
        assert!(auth.verify_timeout_cert(&tc).is_ok());
        let sub = TimeoutCert::from_votes(View(4), &tvs[..2]);
        assert!(matches!(
            auth.verify_timeout_cert(&sub),
            Err(AuthError::SubQuorumCert { .. })
        ));
    }

    #[test]
    fn proposal_with_tampered_payload_or_forged_justify_is_rejected() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);
        let justify = quorum_qc(block_id(1), View(1), &kps);
        let good = Block::new(
            View(2),
            Height(2),
            block_id(1),
            NodeId(2),
            justify.clone(),
            vec![Transaction::new(NodeId(9), 0, 16, SimTime::ZERO)],
        );
        assert!(auth.verify_block(&good).is_ok());

        let mut tampered = good.clone();
        tampered
            .payload
            .push(Transaction::new(NodeId(9), 1, 16, SimTime::ZERO));
        assert_eq!(
            auth.verify_block(&tampered),
            Err(AuthError::BadBlockId(View(2)))
        );

        let mut forged_justify = justify;
        let msg = Vote::signing_bytes(block_id(1), View(1));
        let mut sigs = AggregateSignature::new();
        for i in 0..3u64 {
            sigs.add(i, kps[3].sign(&msg));
        }
        forged_justify.signatures = sigs;
        // Rebuilding keeps the id valid (the id binds the justify's block and
        // view, not its signature bytes), so the rejection must come from the
        // QC check — exactly the forged-QC attack surface.
        let forged = Block::new(
            View(2),
            Height(2),
            block_id(1),
            NodeId(2),
            forged_justify,
            good.payload.clone(),
        );
        assert!(forged.verify_id());
        assert_eq!(
            auth.verify_block(&forged),
            Err(AuthError::BadQcSignature(View(1)))
        );
    }

    #[test]
    fn sync_messages_are_verified() {
        let kps = keypairs(4);
        let mut auth = Authenticator::for_nodes(4);

        let req = SyncRequest::new(NodeId(2), block_id(1), Height(5), &kps[2]);
        assert!(auth.verify_sync_request(&req).is_ok());

        // Same request signed with the wrong key is a forgery.
        let forged = SyncRequest::new(NodeId(2), block_id(1), Height(5), &kps[3]);
        assert_eq!(
            auth.verify_sync_request(&forged),
            Err(AuthError::BadSyncSignature(NodeId(2)))
        );
        let unknown = SyncRequest::new(NodeId(9), block_id(1), Height(5), &kps[3]);
        assert_eq!(
            auth.verify_sync_request(&unknown),
            Err(AuthError::UnknownSigner(NodeId(9)))
        );

        // A response is checked block-by-block plus the carried high-QC.
        let justify = quorum_qc(block_id(1), View(1), &kps);
        let good_block = Block::new(
            View(2),
            Height(2),
            block_id(1),
            NodeId(2),
            justify.clone(),
            vec![Transaction::new(NodeId(9), 0, 16, SimTime::ZERO)],
        );
        let resp = SyncResponse {
            responder: NodeId(1),
            snapshot: None,
            blocks: vec![good_block.clone().into()],
            high_qc: justify.clone(),
        };
        assert!(auth.verify_sync_response(&resp).is_ok());
        assert!(auth
            .authenticate(NodeId(1), Message::SyncResponse(resp))
            .is_ok());

        // Corrupting the high-QC fails the response.
        let msg = Vote::signing_bytes(block_id(1), View(1));
        let mut sigs = AggregateSignature::new();
        for i in 0..3u64 {
            sigs.add(i, kps[3].sign(&msg));
        }
        let mut bad_qc = justify;
        bad_qc.signatures = sigs;
        let bad = SyncResponse {
            responder: NodeId(1),
            snapshot: None,
            blocks: vec![good_block.into()],
            high_qc: bad_qc,
        };
        assert_eq!(
            auth.verify_sync_response(&bad),
            Err(AuthError::BadQcSignature(View(1)))
        );
    }

    #[test]
    fn signed_client_mode_verifies_and_rejects_at_the_edge() {
        let mut auth = Authenticator::for_nodes(4);
        auth.set_signed_clients(true);
        let client = NodeId(1_000_321);
        let kp = KeyPair::client_from_seed(client.as_u64());
        let tx = Transaction::new(client, 0, 8, SimTime(5));
        let good = ClientRequest::signed(tx.clone(), &kp);
        assert!(auth.verify_client_request(&good).is_ok());

        // Unsigned requests no longer pass.
        let unsigned = ClientRequest::unsigned(tx.clone());
        assert_eq!(
            auth.verify_client_request(&unsigned),
            Err(AuthError::UnsignedClientRequest(client))
        );

        // A signature minted by a different client is a forgery.
        let forged = ClientRequest::signed(tx, &KeyPair::client_from_seed(7));
        assert_eq!(
            auth.verify_client_request(&forged),
            Err(AuthError::BadClientSignature(client))
        );
        let verified = auth.verify_requests(vec![good, unsigned, forged]);
        assert_eq!((verified.offered(), verified.rejected()), (3, 2));
    }

    #[test]
    fn client_batches_verify_and_fail_on_one_forgery() {
        let mut auth = Authenticator::for_nodes(4);
        auth.set_signed_clients(true);
        // 11 requests.
        let mut batch: Vec<ClientRequest> = (0..11u64)
            .map(|i| {
                let client = NodeId(1_000_000 + i);
                let tx = Transaction::new(client, i, 8, SimTime(i));
                ClientRequest::signed(tx, &KeyPair::client_from_seed(client.as_u64()))
            })
            .collect();
        assert!(auth.verify_client_batch(&batch));
        // The verifier is reusable after a pass.
        assert!(auth.verify_client_batch(&batch));
        // One forged (or one unsigned) request fails the whole batch, and the
        // per-item fallback isolates exactly the culprit.
        batch[6].signature = Some(KeyPair::client_from_seed(999).sign(b"junk"));
        assert!(!auth.verify_client_batch(&batch));
        let bad: Vec<usize> = batch
            .iter()
            .enumerate()
            .filter(|(_, req)| auth.verify_client_request(req).is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, vec![6]);
        batch[6].signature = None;
        assert!(!auth.verify_client_batch(&batch));
    }

    #[test]
    fn errors_render_human_readable() {
        let err = AuthError::SubQuorumCert { got: 2, need: 22 };
        assert!(err.to_string().contains("sub-quorum"));
        assert!(AuthError::UnknownSigner(NodeId(7))
            .to_string()
            .contains("7"));
    }
}
