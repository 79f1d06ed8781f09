//! Wire messages exchanged between replicas and clients.

use std::fmt;
use std::sync::Arc;

use bamboo_crypto::{KeyPair, PublicKey, Signature};

use crate::block::{BlockId, SharedBlock};
use crate::bytes::Bytes;
use crate::certificate::{QuorumCert, TimeoutCert, TimeoutVote, Vote};
use crate::ids::{Height, NodeId, View};
use crate::transaction::Transaction;

/// A shared, immutable handle to a whole message envelope.
///
/// The counterpart of [`SharedBlock`] one layer up: blocks made *proposal
/// payloads* zero-copy, but votes, timeout votes and certificates carry
/// signer sets and aggregate signatures of their own, so cloning a
/// `Message` envelope per broadcast recipient still allocates O(n). Backends
/// that fan one envelope out to many recipients therefore share one
/// `SharedMessage`: the threaded runtime's channels and the verify pool's
/// proof tokens move pointer bumps, the simulator keeps a broadcast's
/// envelope once in its event queue, and recipients read it by reference,
/// copying only what they retain. Messages are immutable once constructed,
/// which is what makes the sharing sound.
pub type SharedMessage = Arc<Message>;

/// A client request carrying one transaction.
///
/// Requests are optionally signed by the issuing client
/// ([`crate::Config::signed_requests`]): the signature covers the fixed-size
/// `(tx id, issued_at)` tuple, so every request signs (and verifies) a
/// 40-byte message and an arrival batch is checked in one batched pass. The
/// signature authenticates ingress only: the
/// replica edge verifies and strips it, and only the bare [`Transaction`]
/// enters the mempool, blocks, and checkpoints.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClientRequest {
    /// The transaction to be ordered.
    pub transaction: Transaction,
    /// The issuing client's signature over [`ClientRequest::signing_bytes`];
    /// `None` in the legacy unauthenticated-client mode.
    pub signature: Option<Signature>,
}

impl ClientRequest {
    /// Wraps a transaction in an unsigned request (the legacy client mode).
    pub fn unsigned(transaction: Transaction) -> Self {
        Self {
            transaction,
            signature: None,
        }
    }

    /// Creates and signs a request with the issuing client's key pair.
    pub fn signed(transaction: Transaction, keypair: &KeyPair) -> Self {
        let signature = keypair.sign(&Self::signing_bytes(&transaction));
        Self {
            transaction,
            signature: Some(signature),
        }
    }

    /// What a client request signs: [`TxId::digest`](crate::TxId::digest) ‖
    /// `issued_at`; not the payload. A request never crosses the wire (there
    /// is no request message), and blocks carry the bare transactions past
    /// the edge check, bound by a block id the votes certify.
    pub fn signing_bytes(transaction: &Transaction) -> [u8; 40] {
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(transaction.id.digest().as_bytes());
        buf[32..].copy_from_slice(&transaction.issued_at.0.to_be_bytes());
        buf
    }

    /// Verifies the request's signature against the issuing client's public
    /// key. Unsigned requests never verify.
    pub fn verify(&self, public_key: &PublicKey) -> bool {
        match &self.signature {
            Some(signature) => {
                public_key.verify(&Self::signing_bytes(&self.transaction), signature)
            }
            None => false,
        }
    }
}

/// A state-transfer request: "my committed head is `head` at `height`; send
/// me what I am missing". Signed by the requester so a Byzantine peer cannot
/// trigger sync floods in someone else's name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncRequest {
    /// The replica asking to be caught up.
    pub requester: NodeId,
    /// The requester's committed head block.
    pub head: BlockId,
    /// Height of that head (genesis = 0 for a fresh / amnesiac replica).
    pub height: Height,
    /// Signature over `(head, height)`.
    pub signature: Signature,
}

impl SyncRequest {
    /// Creates and signs a sync request.
    pub fn new(requester: NodeId, head: BlockId, height: Height, keypair: &KeyPair) -> Self {
        let signature = keypair.sign(&Self::signing_bytes(head, height));
        Self {
            requester,
            head,
            height,
            signature,
        }
    }

    /// The canonical byte string a sync request signs.
    pub fn signing_bytes(head: BlockId, height: Height) -> [u8; 40] {
        let mut buf = [0u8; 40];
        buf[..32].copy_from_slice(head.0.as_bytes());
        buf[32..].copy_from_slice(&height.as_u64().to_be_bytes());
        buf
    }

    /// Verifies the request's signature against the requester's public key.
    pub fn verify(&self, public_key: &PublicKey) -> bool {
        public_key.verify(
            &Self::signing_bytes(self.head, self.height),
            &self.signature,
        )
    }
}

/// A state-transfer response: an optional checkpoint snapshot (when the
/// requester is so far behind that the responder no longer stores the blocks
/// between the two heads) plus a batch of blocks extending it, oldest first,
/// and the responder's high-QC.
///
/// The response carries no signature of its own: every block is
/// self-authenticating (id binds header + payload, justify QC is quorum
/// signed), the high-QC is quorum signed, and snapshot bytes are integrity
/// checked structurally during decode — a forged response either fails the
/// [`crate::Authenticator`] or fails to install.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncResponse {
    /// The replica serving the response.
    pub responder: NodeId,
    /// Encoded checkpoint snapshot (`bamboo_forest::Snapshot` bytes), present
    /// only when the requester must restart from a checkpoint.
    pub snapshot: Option<Bytes>,
    /// Blocks above the snapshot (or above the requester's claimed head),
    /// oldest first; capped per response, the requester re-requests while
    /// still behind.
    pub blocks: Vec<SharedBlock>,
    /// The responder's high-QC, so the requester can catch up its pacemaker
    /// state as well as its chain.
    pub high_qc: QuorumCert,
}

/// A copy of a batch of transactions a replica admitted, for the leader of
/// `view`: the sender hands it the batch so it can propose it before the
/// sender's own turn to lead.
///
/// It carries no signature: the transactions passed the sender's edge check,
/// and the link authenticates the sender. The receiver keeps the copy only
/// while it has not passed `view` — a transaction committed since has been
/// committed in a later view, so a late copy is never proposed again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Handoff {
    /// The view whose leader the copy is meant for.
    pub view: View,
    /// The copied transactions, in admission order.
    pub txs: Vec<Transaction>,
}

/// Every message type exchanged in the system.
///
/// The enum mirrors Bamboo's message handlers: block proposals, votes, the
/// pacemaker's timeout votes and timeout certificates, state transfer, and
/// the handoff of admitted transactions. It holds only what a replica sends
/// another replica; client transactions arrive through the edge check as a
/// `VerifiedRequests` batch, never as a message. A [`Message::Handoff`]
/// carries transactions that already passed some replica's edge check.
///
/// Proposals carry their block as a [`SharedBlock`], so cloning a `Message`
/// for per-peer fan-out never copies the transaction payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// A block proposal broadcast by the view leader.
    Proposal(SharedBlock),
    /// A vote sent to the next leader (HotStuff family) or broadcast
    /// (Streamlet).
    Vote(Vote),
    /// A pacemaker timeout vote, broadcast when a replica's view timer fires.
    Timeout(TimeoutVote),
    /// A timeout certificate forwarded to the next leader.
    TimeoutCertMsg(TimeoutCert),
    /// A state-transfer request from a replica that detected it is behind.
    SyncRequest(SyncRequest),
    /// A state-transfer response: snapshot and/or block suffix.
    SyncResponse(SyncResponse),
    /// A copy of a batch the sender admitted, for a leader a few views ahead.
    Handoff(Handoff),
}

impl Message {
    /// The view the message pertains to, if any.
    pub fn view(&self) -> Option<View> {
        match self {
            Message::Proposal(b) => Some(b.view),
            Message::Vote(v) => Some(v.view),
            Message::Timeout(t) => Some(t.view),
            Message::TimeoutCertMsg(tc) => Some(tc.view),
            Message::Handoff(h) => Some(h.view),
            Message::SyncRequest(_) | Message::SyncResponse(_) => None,
        }
    }

    /// Short human-readable tag for logging.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Proposal(_) => "proposal",
            Message::Vote(_) => "vote",
            Message::Timeout(_) => "timeout",
            Message::TimeoutCertMsg(_) => "timeout-cert",
            Message::SyncRequest(_) => "sync-request",
            Message::SyncResponse(_) => "sync-response",
            Message::Handoff(_) => "handoff",
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.view() {
            Some(view) => write!(f, "{}@{}", self.tag(), view),
            None => write!(f, "{}", self.tag()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockId};
    use crate::time::SimTime;
    use bamboo_crypto::KeyPair;

    fn sample_block() -> Block {
        Block::new(
            View(2),
            crate::ids::Height(1),
            BlockId::GENESIS,
            NodeId(0),
            QuorumCert::genesis(),
            vec![Transaction::new(NodeId(1), 0, 64, SimTime::ZERO)],
        )
    }

    fn sync_request() -> Message {
        Message::SyncRequest(SyncRequest::new(
            NodeId(0),
            BlockId::GENESIS,
            crate::ids::Height::GENESIS,
            &KeyPair::from_seed(0),
        ))
    }

    #[test]
    fn every_variant_has_its_own_tag() {
        let kp = KeyPair::from_seed(0);
        let block = sample_block();
        let vote = Vote::new(block.id, block.view, NodeId(0), &kp);
        let timeout = TimeoutVote::new(View(2), NodeId(0), QuorumCert::genesis(), &kp);
        let tc = TimeoutCert::from_votes(View(2), std::slice::from_ref(&timeout));
        let block = SharedBlock::new(block);
        let messages = [
            Message::Proposal(block.clone()),
            Message::Vote(vote),
            Message::Timeout(timeout),
            Message::TimeoutCertMsg(tc),
            sync_request(),
            Message::SyncResponse(SyncResponse {
                responder: NodeId(1),
                snapshot: Some(Bytes::from(vec![1u8; 64])),
                blocks: vec![block],
                high_qc: QuorumCert::genesis(),
            }),
            Message::Handoff(Handoff {
                view: View(5),
                txs: vec![Transaction::new(NodeId(1), 0, 64, SimTime::ZERO)],
            }),
        ];
        let mut tags: Vec<&str> = messages.iter().map(Message::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), messages.len(), "{tags:?}");
    }

    #[test]
    fn views_are_exposed() {
        let block = sample_block();
        assert_eq!(Message::Proposal(block.into()).view(), Some(View(2)));
        assert_eq!(sync_request().view(), None);
    }

    #[test]
    fn signed_requests_verify_and_reject_tampering() {
        let client = KeyPair::client_from_seed(17);
        let tx = Transaction::new(NodeId(1_000_017), 5, 0, SimTime(42));
        let req = ClientRequest::signed(tx.clone(), &client);
        assert!(req.verify(&client.public_key()));
        assert!(!req.verify(&KeyPair::client_from_seed(18).public_key()));
        assert!(!ClientRequest::unsigned(tx).verify(&client.public_key()));
        let forged = ClientRequest {
            transaction: Transaction::new(NodeId(1_000_017), 6, 0, SimTime(42)),
            signature: req.signature,
        };
        assert!(!forged.verify(&client.public_key()));
    }

    #[test]
    fn display_includes_tag_and_view() {
        let block = sample_block();
        let msg = Message::Proposal(block.into());
        assert_eq!(msg.to_string(), "proposal@v2");
        assert_eq!(sync_request().to_string(), "sync-request");
    }
}
