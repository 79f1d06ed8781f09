//! The committed ledger: the linear history handed off by the block forest.
//!
//! Finalized blocks "can be removed from memory to persistent storage for
//! garbage collection" (§II-A). The [`Ledger`] plays that role in the
//! simulation: it records every committed block together with commit-time
//! metadata needed by the chain-growth-rate and block-interval metrics.
//! Which of a committed block's transactions *execute* is the
//! [`ExecWindow`]'s rule.

use bamboo_crypto::{Digest, Sha256};
use bamboo_types::{Block, BlockId, DigestMap, DigestSet, SharedBlock, SimTime, TxId, View};

/// `W`: how many of the newest committed blocks a transaction's id is
/// checked against — before it executes ([`ExecWindow`]), and before a
/// forked block gives it back to its proposer's pool.
pub const WINDOW: usize = 128;

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

/// The execute-once rule: a committed transaction executes — is counted,
/// confirmed and staged — only if neither the [`WINDOW`] blocks committed
/// before its own nor an earlier transaction of its own block carries its
/// id. The verdict is a function of the chain, so honest ledgers agree on
/// it, and block ids and fingerprints do not depend on it. The window holds
/// the ids of the newest `WINDOW` blocks it was shown, `O(WINDOW · block)`,
/// never the whole ledger's, and no block: what leaves it is read back from
/// the ledger, whose committed prefix never changes.
#[derive(Debug, Default)]
pub struct ExecWindow {
    /// Every id a transaction of the window's blocks carries.
    ids: DigestSet<TxId>,
    /// How many more transactions of the window's blocks carry an id than
    /// the first: duplicates are rare, so a count per id would mostly say 1.
    again: DigestMap<TxId, u32>,
    /// The window's blocks are the ledger's from index `first` up to `next`,
    /// where it expects its next block.
    first: usize,
    next: usize,
}

impl ExecWindow {
    /// Executes `ledger`'s block at index `at`: sets `executes` to one flag
    /// per transaction of the block, and returns how many were filtered as
    /// duplicates. A block anywhere but right after the last one shown (a
    /// snapshot install or a restart moved the ledger) first rebuilds the
    /// window from the `WINDOW` blocks below `at`.
    pub fn execute(&mut self, ledger: &Ledger, at: usize, executes: &mut Vec<bool>) -> u64 {
        if at != self.next {
            self.ids.clear();
            self.again.clear();
            self.first = at.saturating_sub(WINDOW);
            for index in self.first..at {
                self.push(&ledger.blocks[index].block, executes);
            }
        }
        self.push(&ledger.blocks[at].block, executes);
        self.next = at + 1;
        if self.next - self.first > WINDOW {
            for tx in &ledger.blocks[self.first].block.payload {
                match self.again.get_mut(&tx.id) {
                    Some(1) => {
                        self.again.remove(&tx.id);
                    }
                    Some(count) => *count -= 1,
                    None => {
                        self.ids.remove(&tx.id);
                    }
                }
            }
            self.first += 1;
        }
        executes.iter().filter(|executes| !**executes).count() as u64
    }

    /// Adds `block`'s ids, each of its transactions executing iff no block
    /// in the window and no earlier transaction of its own carries its id.
    fn push(&mut self, block: &Block, executes: &mut Vec<bool>) {
        executes.clear();
        for tx in &block.payload {
            let first = self.ids.insert(tx.id);
            if !first {
                *self.again.entry(tx.id).or_insert(0) += 1;
            }
            executes.push(first);
        }
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

    /// A chain of `len` blocks where block `i` (from 1) carries the ids
    /// `carried(i)`.
    fn carrying(len: u64, carried: impl Fn(u64) -> Vec<u64>) -> Ledger {
        let (mut ledger, mut parent) = (Ledger::new(), BlockId::GENESIS);
        for i in 1..=len {
            let txs = (carried(i).into_iter())
                .map(|seq| Transaction::new(NodeId(1), seq, 0, SimTime::ZERO))
                .collect();
            let block = Block::new(
                View(i),
                Height(i),
                parent,
                NodeId(0),
                QuorumCert::genesis(),
                txs,
            );
            parent = block.id;
            ledger.append([block], View(i + 2), SimTime::ZERO);
        }
        ledger
    }

    #[test]
    fn an_id_twice_within_the_window_executes_once_and_counts_once() {
        // Block 1 carries tx 7 and block 1 + WINDOW, the last block whose
        // window still holds block 1, carries it again with two copies of
        // tx 9. Block 2 carries tx 8, and block 3 + WINDOW, one past its
        // window, carries it again.
        let w = WINDOW as u64;
        let ledger = carrying(w + 3, |i| match i {
            1 => vec![7],
            2 => vec![8],
            i if i == w + 1 => vec![7, 9, 9],
            i if i == w + 3 => vec![8],
            i => vec![1_000 + i],
        });
        let (mut window, mut executes) = (ExecWindow::default(), Vec::new());
        let (mut filtered, mut executed) = (0, Vec::new());
        for at in 0..ledger.len() {
            filtered += window.execute(&ledger, at, &mut executes);
            let payload = &ledger.get(at).unwrap().block.payload;
            let ran = payload.iter().zip(&executes).filter(|(_, e)| **e);
            executed.extend(ran.map(|(tx, _)| tx.id.seq));
        }
        let count = |seq| executed.iter().filter(|&&s| s == seq).count();
        assert_eq!(filtered, 2);
        assert_eq!((count(7), count(9), count(8)), (1, 1, 2));
        assert_eq!(window.next - window.first, WINDOW);
    }

    #[test]
    fn a_window_that_jumps_rebuilds_from_the_ledger_to_the_same_verdict() {
        let (w, half) = (WINDOW as u64, WINDOW as u64 / 2);
        let ledger = carrying(3 * w, |i| vec![i % half, 1_000 + i % (w + half)]);
        let mut walked = (ExecWindow::default(), Vec::new(), Vec::new());
        for at in 0..ledger.len() {
            walked.0.execute(&ledger, at, &mut walked.1);
            walked.2.push(walked.1.clone());
        }
        // A window that first sees the chain at any index (an installed
        // snapshot's tip, a restart's replay) agrees from there on.
        for start in [1, WINDOW - 1, WINDOW, 2 * WINDOW + 3] {
            let (mut window, mut executes) = (ExecWindow::default(), Vec::new());
            for at in start..ledger.len() {
                window.execute(&ledger, at, &mut executes);
                assert_eq!(executes, walked.2[at], "from {start}, at {at}");
            }
        }
        // An id carried half a window back is filtered, one carried a window
        // and a half back executes again.
        assert_eq!(walked.2[10], [true, true]);
        assert_eq!(walked.2[2 * WINDOW + 3], [false, true]);
    }
}
