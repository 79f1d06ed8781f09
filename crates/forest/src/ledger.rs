//! The committed ledger: the linear history handed off by the block forest.
//!
//! Finalized blocks "can be removed from memory to persistent storage for
//! garbage collection" (§II-A). The [`Ledger`] plays that role in the
//! simulation: it records every committed block together with commit-time
//! metadata needed by the chain-growth-rate and block-interval metrics.

use bamboo_crypto::{Digest, Sha256};
use bamboo_types::{Block, BlockId, SharedBlock, SimTime, View};

/// A committed block plus commit metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedBlock {
    /// The block itself (shared with the forest / message path — committing
    /// never copies the payload).
    pub block: SharedBlock,
    /// The view in which the block became committed (not the view it was
    /// proposed in) — the difference is the paper's *block interval*.
    pub committed_in_view: View,
    /// Simulated time of the commit.
    pub committed_at: SimTime,
}

impl CommittedBlock {
    /// Number of views between proposal and commit.
    pub fn block_interval(&self) -> u64 {
        self.committed_in_view
            .as_u64()
            .saturating_sub(self.block.view.as_u64())
    }
}

/// The running form of [`Ledger::chain_fingerprint_prefix`]: absorb committed
/// blocks oldest-first and [`ChainFingerprint::digest`] after any of them is
/// the fingerprint of the prefix absorbed so far. An observer that follows a
/// growing ledger keeps one of these instead of re-hashing from genesis per
/// block, so a whole prefix history costs O(chain), not O(chain²).
#[derive(Clone, Debug)]
pub struct ChainFingerprint(Sha256);

impl ChainFingerprint {
    /// The fingerprint of the empty prefix.
    pub fn new() -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"bamboo-ledger-chain-v1");
        Self(hasher)
    }

    /// Extends the prefix by one committed block.
    pub fn absorb(&mut self, block: &Block) {
        self.0.update(block.id.0.as_bytes());
        self.0.update(&block.view.as_u64().to_be_bytes());
        for tx in &block.payload {
            self.0.update(tx.id.digest().as_bytes());
        }
    }

    /// The fingerprint of the blocks absorbed so far (the running state is
    /// left untouched, so absorbing can continue).
    pub fn digest(&self) -> Digest {
        Digest::from_bytes(self.0.clone().finalize())
    }
}

impl Default for ChainFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// The linear committed history of one replica.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    blocks: Vec<CommittedBlock>,
    committed_txs: u64,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly committed blocks (oldest first). Accepts owned blocks or
    /// [`SharedBlock`] handles; the latter are stored without copying.
    pub fn append<I>(&mut self, blocks: I, committed_in_view: View, committed_at: SimTime)
    where
        I: IntoIterator,
        I::Item: Into<SharedBlock>,
    {
        for block in blocks {
            let block: SharedBlock = block.into();
            self.committed_txs += block.payload.len() as u64;
            self.blocks.push(CommittedBlock {
                block,
                committed_in_view,
                committed_at,
            });
        }
    }

    /// Total number of committed blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns true if nothing has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total number of committed transactions.
    pub fn committed_txs(&self) -> u64 {
        self.committed_txs
    }

    /// The id of the last committed block, or genesis.
    pub fn head(&self) -> BlockId {
        self.blocks
            .last()
            .map(|c| c.block.id)
            .unwrap_or(BlockId::GENESIS)
    }

    /// Iterates over committed blocks oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &CommittedBlock> {
        self.blocks.iter()
    }

    /// The committed block at position `index` (0 = first committed).
    pub fn get(&self, index: usize) -> Option<&CommittedBlock> {
        self.blocks.get(index)
    }

    /// Average block interval (views from proposal to commit) over the whole
    /// ledger — the paper's BI metric (§IV-B2).
    pub fn average_block_interval(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.blocks
            .iter()
            .map(|c| c.block_interval() as f64)
            .sum::<f64>()
            / self.blocks.len() as f64
    }

    /// Verifies the ledger forms a single hash-linked chain and that heights
    /// are strictly increasing; used by integration tests as the cross-replica
    /// consistency check.
    pub fn verify_chain(&self) -> bool {
        let mut prev_id = BlockId::GENESIS;
        let mut prev_height = 0u64;
        for committed in &self.blocks {
            if committed.block.parent != prev_id {
                return false;
            }
            if committed.block.height.as_u64() != prev_height + 1 {
                return false;
            }
            prev_id = committed.block.id;
            prev_height = committed.block.height.as_u64();
        }
        true
    }

    /// A digest over the entire committed history: every block id, proposal
    /// view, commit view, commit time and payload transaction id, in order.
    /// Two ledgers fingerprint equal iff they committed byte-identical
    /// histories — the golden-replay determinism tests pin engine rewrites
    /// against fingerprints recorded from the previous engine.
    pub fn fingerprint(&self) -> Digest {
        let mut hasher = Sha256::new();
        hasher.update(b"bamboo-ledger-v1");
        for committed in &self.blocks {
            hasher.update(committed.block.id.0.as_bytes());
            hasher.update(&committed.block.view.as_u64().to_be_bytes());
            hasher.update(&committed.committed_in_view.as_u64().to_be_bytes());
            hasher.update(&committed.committed_at.as_nanos().to_be_bytes());
            for tx in &committed.block.payload {
                hasher.update(tx.id.digest().as_bytes());
            }
        }
        Digest::from_bytes(hasher.finalize())
    }

    /// A digest over the chain-intrinsic part of the first `len` committed
    /// blocks: block id, proposal view and payload transaction ids — but
    /// *not* the commit-time metadata [`Ledger::fingerprint`] also hashes.
    ///
    /// Commit view and commit time are observer-local (a replica that caught
    /// up through state transfer commits the same blocks at later simulated
    /// times), so [`Ledger::fingerprint`] can never match across replicas.
    /// The chain fingerprint is the cross-replica agreement oracle: two
    /// replicas whose prefixes chain-fingerprint equal committed the same
    /// blocks carrying the same transactions in the same order.
    pub fn chain_fingerprint_prefix(&self, len: usize) -> Digest {
        let mut running = ChainFingerprint::new();
        for committed in self.blocks.iter().take(len) {
            running.absorb(&committed.block);
        }
        running.digest()
    }

    /// [`Ledger::chain_fingerprint_prefix`] over the whole ledger.
    pub fn chain_fingerprint(&self) -> Digest {
        self.chain_fingerprint_prefix(self.blocks.len())
    }

    /// Rebuilds a ledger from decoded committed blocks (snapshot restore).
    /// The committed-transaction counter is recomputed from the payloads.
    pub fn restore(blocks: Vec<CommittedBlock>) -> Self {
        let committed_txs = blocks.iter().map(|c| c.block.payload.len() as u64).sum();
        Self {
            blocks,
            committed_txs,
        }
    }

    /// Returns true if `other` and `self` agree on a common committed prefix
    /// (one may simply be ahead of the other).
    pub fn consistent_with(&self, other: &Ledger) -> bool {
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .all(|(a, b)| a.block.id == b.block.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::{Height, NodeId, QuorumCert, Transaction};

    fn chain(len: u64) -> Vec<Block> {
        let mut blocks = Vec::new();
        let mut parent = BlockId::GENESIS;
        for i in 1..=len {
            let block = Block::new(
                View(i),
                Height(i),
                parent,
                NodeId(0),
                QuorumCert::genesis(),
                vec![Transaction::new(NodeId(1), i, 0, SimTime::ZERO)],
            );
            parent = block.id;
            blocks.push(block);
        }
        blocks
    }

    #[test]
    fn append_tracks_blocks_and_transactions() {
        let mut ledger = Ledger::new();
        ledger.append(chain(3), View(5), SimTime(100));
        assert_eq!(ledger.len(), 3);
        assert_eq!(ledger.committed_txs(), 3);
        assert!(ledger.verify_chain());
        assert!(!ledger.is_empty());
    }

    #[test]
    fn block_interval_measures_commit_lag() {
        let mut ledger = Ledger::new();
        ledger.append(chain(2), View(4), SimTime(100));
        // Block proposed in view 1 committed in view 4 -> interval 3.
        assert_eq!(ledger.get(0).unwrap().block_interval(), 3);
        assert_eq!(ledger.get(1).unwrap().block_interval(), 2);
        assert!((ledger.average_block_interval() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn verify_chain_detects_broken_links() {
        let mut ledger = Ledger::new();
        let mut blocks = chain(3);
        blocks.remove(1); // break the chain
        ledger.append(blocks, View(4), SimTime(0));
        assert!(!ledger.verify_chain());
    }

    #[test]
    fn prefix_consistency() {
        let blocks = chain(4);
        let mut a = Ledger::new();
        let mut b = Ledger::new();
        a.append(blocks.clone(), View(6), SimTime(0));
        b.append(blocks[..2].to_vec(), View(4), SimTime(0));
        assert!(a.consistent_with(&b));
        assert!(b.consistent_with(&a));

        let mut c = Ledger::new();
        let mut other = chain(2);
        other.reverse();
        c.append(other, View(4), SimTime(0));
        assert!(!a.consistent_with(&c));
    }

    #[test]
    fn empty_ledger_defaults() {
        let ledger = Ledger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.head(), BlockId::GENESIS);
        assert_eq!(ledger.average_block_interval(), 0.0);
        assert!(ledger.verify_chain());
    }
}
