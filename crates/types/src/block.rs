//! Blocks and block identifiers.

use std::fmt;
use std::sync::Arc;

use bamboo_crypto::{Digest, Sha256};

use crate::certificate::QuorumCert;
use crate::ids::{Height, NodeId, View};
use crate::transaction::Transaction;

/// A shared, immutable handle to a block.
///
/// Proposal payloads dominate message size (a 400-tx block is tens of
/// kilobytes), so blocks travel and are stored behind an `Arc`: broadcasting a
/// proposal to `n - 1` peers and inserting it into every replica's block
/// forest costs `n` pointer bumps instead of `n` payload copies. A block is
/// hashed at construction and never mutated
/// afterwards, which is what makes the sharing sound.
pub type SharedBlock = Arc<Block>;

/// Identifier of a block: the hash of its header.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockId(pub Digest);

impl BlockId {
    /// The id of the genesis block.
    pub const GENESIS: BlockId = BlockId(Digest::ZERO);

    /// Returns true if this is the genesis id.
    pub fn is_genesis(&self) -> bool {
        self.0.is_zero()
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_genesis() {
            write!(f, "B(genesis)")
        } else {
            write!(f, "B({})", self.0.short_hex())
        }
    }
}

/// A block in the chained-BFT blockchain.
///
/// Every block carries the quorum certificate of (one of) its ancestors in the
/// `justify` field — in the happy path this is the QC of its direct parent —
/// plus a batch of transactions and bookkeeping metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Hash of the header (computed at construction time).
    pub id: BlockId,
    /// The view in which the block was proposed (its subscript in the paper's
    /// figures).
    pub view: View,
    /// Height in the block tree (parent height + 1).
    pub height: Height,
    /// Identifier of the parent block.
    pub parent: BlockId,
    /// Replica that proposed the block.
    pub proposer: NodeId,
    /// Quorum certificate carried by the block (the proposer's `hQC`).
    pub justify: QuorumCert,
    /// The batch of transactions ordered by this block.
    pub payload: Vec<Transaction>,
}

impl Block {
    /// Constructs the genesis block. Every replica starts with the same
    /// genesis block and its (empty, trusted) genesis certificate.
    pub fn genesis() -> Self {
        Self {
            id: BlockId::GENESIS,
            view: View::GENESIS,
            height: Height::GENESIS,
            parent: BlockId::GENESIS,
            proposer: NodeId(0),
            justify: QuorumCert::genesis(),
            payload: Vec::new(),
        }
    }

    /// Builds a new block and computes its id.
    pub fn new(
        view: View,
        height: Height,
        parent: BlockId,
        proposer: NodeId,
        justify: QuorumCert,
        payload: Vec<Transaction>,
    ) -> Self {
        let id = Self::compute_id(view, height, parent, proposer, &justify, &payload);
        Self {
            id,
            view,
            height,
            parent,
            proposer,
            justify,
            payload,
        }
    }

    /// Computes the block id from header fields and the payload transaction
    /// ids (a Merkle-style binding simplified to a running hash).
    pub fn compute_id(
        view: View,
        height: Height,
        parent: BlockId,
        proposer: NodeId,
        justify: &QuorumCert,
        payload: &[Transaction],
    ) -> BlockId {
        let mut hasher = Sha256::new();
        hasher.update(b"bamboo-block-v1");
        hasher.update(&view.as_u64().to_be_bytes());
        hasher.update(&height.as_u64().to_be_bytes());
        hasher.update(parent.0.as_bytes());
        hasher.update(&proposer.as_u64().to_be_bytes());
        hasher.update(justify.block.0.as_bytes());
        hasher.update(&justify.view.as_u64().to_be_bytes());
        for tx in payload {
            hasher.update(tx.id.digest().as_bytes());
        }
        BlockId(Digest::from_bytes(hasher.finalize()))
    }

    /// Returns true if this is the genesis block.
    pub fn is_genesis(&self) -> bool {
        self.id.is_genesis()
    }

    /// Number of transactions in the block.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Returns true if the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Verifies that the stored id matches the header contents.
    pub fn verify_id(&self) -> bool {
        if self.is_genesis() {
            return true;
        }
        self.id
            == Self::compute_id(
                self.view,
                self.height,
                self.parent,
                self.proposer,
                &self.justify,
                &self.payload,
            )
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} h={} parent={} txs={}",
            self.id,
            self.view,
            self.height.as_u64(),
            self.parent,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn tx(seq: u64) -> Transaction {
        Transaction::new(NodeId(9), seq, 16, SimTime::ZERO)
    }

    #[test]
    fn genesis_block_is_self_parented() {
        let g = Block::genesis();
        assert!(g.is_genesis());
        assert_eq!(g.parent, BlockId::GENESIS);
        assert_eq!(g.height, Height::GENESIS);
        assert!(g.verify_id());
        assert!(g.is_empty());
    }

    #[test]
    fn block_id_binds_header_and_payload() {
        let qc = QuorumCert::genesis();
        let b1 = Block::new(
            View(1),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            qc.clone(),
            vec![tx(1)],
        );
        let b2 = Block::new(
            View(1),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            qc.clone(),
            vec![tx(2)],
        );
        let b3 = Block::new(
            View(2),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            qc,
            vec![tx(1)],
        );
        assert_ne!(b1.id, b2.id, "payload is bound");
        assert_ne!(b1.id, b3.id, "view is bound");
        assert!(b1.verify_id());
        assert!(b2.verify_id());
    }

    #[test]
    fn tampered_block_fails_verification() {
        let mut b = Block::new(
            View(1),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            QuorumCert::genesis(),
            vec![tx(1)],
        );
        b.payload.push(tx(2));
        assert!(!b.verify_id());
    }

    #[test]
    fn display_mentions_view_and_height() {
        let b = Block::new(
            View(3),
            Height(2),
            BlockId::GENESIS,
            NodeId(1),
            QuorumCert::genesis(),
            vec![],
        );
        let rendered = b.to_string();
        assert!(rendered.contains("v3"));
        assert!(rendered.contains("h=2"));
    }
}
