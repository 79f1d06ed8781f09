//! The block forest data structure.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use bamboo_types::{Block, BlockId, DigestMap, Height, QuorumCert, SharedBlock, TxId};

/// Errors returned by [`BlockForest`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForestError {
    /// The block's parent is not (yet) part of the forest.
    UnknownParent(BlockId),
    /// The block's height is not `parent height + 1`.
    InvalidHeight {
        /// Offending block.
        block: BlockId,
        /// Height carried by the block.
        height: Height,
        /// Expected height (parent height + 1).
        expected: Height,
    },
    /// The block is already present.
    Duplicate(BlockId),
    /// The referenced block does not exist.
    UnknownBlock(BlockId),
    /// A commit was requested for a block that conflicts with the already
    /// committed chain — this indicates a safety violation and is surfaced
    /// loudly instead of being ignored.
    ConflictingCommit {
        /// The block whose commit was requested.
        block: BlockId,
        /// The current committed head.
        committed_head: BlockId,
    },
    /// The block lies below the pruning horizon and was discarded.
    BelowPruneHorizon(BlockId),
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::UnknownParent(id) => write!(f, "unknown parent block {id}"),
            ForestError::InvalidHeight {
                block,
                height,
                expected,
            } => write!(
                f,
                "block {block} carries height {height} but its parent implies {expected}"
            ),
            ForestError::Duplicate(id) => write!(f, "block {id} is already in the forest"),
            ForestError::UnknownBlock(id) => write!(f, "block {id} is not in the forest"),
            ForestError::ConflictingCommit {
                block,
                committed_head,
            } => write!(
                f,
                "commit of {block} conflicts with committed head {committed_head}"
            ),
            ForestError::BelowPruneHorizon(id) => {
                write!(f, "block {id} is below the pruning horizon")
            }
        }
    }
}

impl std::error::Error for ForestError {}

/// Aggregate statistics about the forest, used by metrics and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForestStats {
    /// Number of blocks currently stored (excluding orphans).
    pub stored_blocks: usize,
    /// Number of orphan blocks waiting for their parent.
    pub orphans: usize,
    /// Height of the highest stored block.
    pub max_height: u64,
    /// Height of the committed head.
    pub committed_height: u64,
    /// Number of committed blocks so far (excluding genesis).
    pub committed_blocks: u64,
    /// Number of blocks that were pruned away as members of losing forks.
    pub forked_blocks: u64,
    /// Number of orphans evicted because the orphan buffer hit its cap.
    pub orphans_evicted: u64,
}

#[derive(Clone, Debug)]
struct Vertex {
    block: SharedBlock,
    qc: Option<QuorumCert>,
    children: Vec<BlockId>,
}

/// The block forest: every block the replica knows about, fork structure,
/// certification status, the committed main chain and pruning.
///
/// Blocks are stored as [`SharedBlock`] handles: inserting a block received
/// off the wire, committing a chain suffix, and handing forked blocks back to
/// the mempool all move `Arc` pointers instead of copying payloads.
#[derive(Clone, Debug)]
pub struct BlockForest {
    vertices: DigestMap<BlockId, Vertex>,
    by_height: BTreeMap<u64, Vec<BlockId>>,
    /// Blocks whose parent has not arrived yet, keyed by the missing parent.
    /// Bounded by `ORPHAN_CAP`: a Byzantine peer flooding unresolvable
    /// orphans evicts its own flood, not the replica's memory.
    orphans: DigestMap<BlockId, Vec<SharedBlock>>,
    orphans_evicted: u64,
    /// Highest QC observed so far (`hQC` in the paper's state variables).
    high_qc: QuorumCert,
    /// Block certified by `high_qc`'s view with the greatest height.
    highest_certified: BlockId,
    committed_head: BlockId,
    committed_count: u64,
    forked_count: u64,
    prune_horizon: Height,
}

impl Default for BlockForest {
    fn default() -> Self {
        Self::new()
    }
}

/// Bound on buffered orphan blocks. Generous for any honest reordering
/// window (a few in-flight proposals) while capping what a Byzantine orphan
/// flood can pin in memory.
const ORPHAN_CAP: usize = 1024;

/// Drops `child` from `parent`'s child list, if `parent` is still stored.
/// Pruning calls it for every vertex it removes: only a surviving parent can
/// be left holding a dangling link.
fn unlink_child(vertices: &mut DigestMap<BlockId, Vertex>, parent: BlockId, child: BlockId) {
    if let Some(vertex) = vertices.get_mut(&parent) {
        vertex.children.retain(|c| *c != child);
    }
}

impl BlockForest {
    /// Creates a forest containing only the genesis block (which is committed
    /// and certified by convention).
    pub fn new() -> Self {
        let genesis = SharedBlock::new(Block::genesis());
        let genesis_id = genesis.id;
        let mut vertices = DigestMap::default();
        vertices.insert(
            genesis_id,
            Vertex {
                block: genesis,
                qc: Some(QuorumCert::genesis()),
                children: Vec::new(),
            },
        );
        let mut by_height = BTreeMap::new();
        by_height.insert(0, vec![genesis_id]);
        Self {
            vertices,
            by_height,
            orphans: DigestMap::default(),
            orphans_evicted: 0,
            high_qc: QuorumCert::genesis(),
            highest_certified: genesis_id,
            committed_head: genesis_id,
            committed_count: 0,
            forked_count: 0,
            prune_horizon: Height::GENESIS,
        }
    }

    /// Rebuilds a forest from a snapshot: `root` becomes the committed head
    /// (and the pruning horizon), with the given commit/fork counters carried
    /// over. Uncommitted descendants are re-inserted through
    /// [`BlockForest::insert`] / [`BlockForest::register_qc`] afterwards, so
    /// every structural invariant is re-established by the normal paths.
    pub fn restore(root: SharedBlock, committed_count: u64, forked_count: u64) -> Self {
        if root.is_genesis() {
            let mut forest = Self::new();
            forest.committed_count = committed_count;
            forest.forked_count = forked_count;
            return forest;
        }
        let root_id = root.id;
        let root_height = root.height;
        let mut vertices = DigestMap::default();
        // Pruning always spares the genesis vertex (it anchors genesis-view
        // QCs), so a restored forest carries it too — disconnected from the
        // root, exactly like a long-running forest after deep pruning.
        vertices.insert(
            BlockId::GENESIS,
            Vertex {
                block: SharedBlock::new(Block::genesis()),
                qc: Some(QuorumCert::genesis()),
                children: Vec::new(),
            },
        );
        vertices.insert(
            root_id,
            Vertex {
                block: root,
                qc: None,
                children: Vec::new(),
            },
        );
        let mut by_height = BTreeMap::new();
        by_height.insert(0, vec![BlockId::GENESIS]);
        by_height.insert(root_height.as_u64(), vec![root_id]);
        Self {
            vertices,
            by_height,
            orphans: DigestMap::default(),
            orphans_evicted: 0,
            high_qc: QuorumCert::genesis(),
            highest_certified: root_id,
            committed_head: root_id,
            committed_count,
            forked_count,
            prune_horizon: root_height,
        }
    }

    /// Number of orphan blocks currently buffered.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    /// The buffered orphan closest to the committed chain (minimum height,
    /// ties broken by block id) — the best candidate to anchor a state-sync
    /// request, since its missing ancestry is the longest gap.
    pub fn oldest_orphan(&self) -> Option<&SharedBlock> {
        self.orphans
            .values()
            .flatten()
            .min_by_key(|b| (b.height, b.id))
    }

    /// Evicts orphans while the buffer exceeds its cap. The victim is the
    /// orphan *furthest* above the committed head (maximum height, ties by
    /// id): the most speculative block, and the deterministic choice every
    /// replay reproduces.
    fn enforce_orphan_cap(&mut self) {
        while self.orphan_count() > ORPHAN_CAP {
            let Some(victim) = self
                .orphans
                .values()
                .flatten()
                .max_by_key(|b| (b.height, b.id))
                .map(|b| b.id)
            else {
                return;
            };
            self.orphans.retain(|_, blocks| {
                blocks.retain(|b| b.id != victim);
                !blocks.is_empty()
            });
            self.orphans_evicted += 1;
        }
    }

    /// Returns true if `id` is stored in the forest (orphans excluded).
    pub fn contains(&self, id: BlockId) -> bool {
        self.vertices.contains_key(&id)
    }

    /// Looks a block up by id.
    pub fn get(&self, id: BlockId) -> Option<&Block> {
        self.vertices.get(&id).map(|v| &*v.block)
    }

    /// Looks a block up by id, returning the shared handle so callers can
    /// retain the block without copying its payload.
    pub fn get_shared(&self, id: BlockId) -> Option<&SharedBlock> {
        self.vertices.get(&id).map(|v| &v.block)
    }

    /// Returns the ids of the children of `id`.
    pub fn children(&self, id: BlockId) -> &[BlockId] {
        self.vertices
            .get(&id)
            .map(|v| v.children.as_slice())
            .unwrap_or(&[])
    }

    /// Returns the QC certifying `id`, if the block is certified.
    pub fn qc_of(&self, id: BlockId) -> Option<&QuorumCert> {
        self.vertices.get(&id).and_then(|v| v.qc.as_ref())
    }

    /// Returns true if the block is certified (a *one-chain* in HotStuff
    /// terminology, *notarized* in Streamlet terminology).
    pub fn is_certified(&self, id: BlockId) -> bool {
        self.vertices
            .get(&id)
            .map(|v| v.qc.is_some())
            .unwrap_or(false)
    }

    /// The highest QC observed so far.
    pub fn high_qc(&self) -> &QuorumCert {
        &self.high_qc
    }

    /// The certified block of greatest height (ties broken by view).
    pub fn highest_certified_block(&self) -> &Block {
        &self.vertices[&self.highest_certified].block
    }

    /// The committed head block.
    pub fn committed_head(&self) -> &Block {
        &self.vertices[&self.committed_head].block
    }

    /// Current pruning horizon: blocks strictly below this height are gone.
    pub fn prune_horizon(&self) -> Height {
        self.prune_horizon
    }

    /// Inserts a block.
    ///
    /// Accepts either an owned [`Block`] or an already-shared
    /// [`SharedBlock`]; passing the shared handle (e.g. the one carried by a
    /// proposal message) stores the block without copying its payload.
    ///
    /// Blocks whose parent is unknown are buffered as orphans and attached
    /// automatically once the parent arrives; the call still returns
    /// [`ForestError::UnknownParent`] so callers can decide whether to fetch
    /// the parent.
    ///
    /// # Errors
    ///
    /// * [`ForestError::Duplicate`] if the block is already stored,
    /// * [`ForestError::BelowPruneHorizon`] if it is older than the prune cut,
    /// * [`ForestError::InvalidHeight`] if its height is not parent + 1,
    /// * [`ForestError::UnknownParent`] if the parent is missing (buffered).
    pub fn insert(&mut self, block: impl Into<SharedBlock>) -> Result<(), ForestError> {
        let block: SharedBlock = block.into();
        if block.is_genesis() || self.vertices.contains_key(&block.id) {
            return Err(ForestError::Duplicate(block.id));
        }
        if block.height <= self.prune_horizon && self.prune_horizon > Height::GENESIS {
            return Err(ForestError::BelowPruneHorizon(block.id));
        }
        let parent_id = block.parent;
        let parent_height = match self.vertices.get(&parent_id) {
            Some(parent) => parent.block.height,
            None => {
                self.orphans.entry(parent_id).or_default().push(block);
                self.enforce_orphan_cap();
                return Err(ForestError::UnknownParent(parent_id));
            }
        };
        if block.height != parent_height.next() {
            return Err(ForestError::InvalidHeight {
                block: block.id,
                height: block.height,
                expected: parent_height.next(),
            });
        }
        let id = block.id;
        let height = block.height.as_u64();
        self.vertices.insert(
            id,
            Vertex {
                block,
                qc: None,
                children: Vec::new(),
            },
        );
        self.vertices
            .get_mut(&parent_id)
            .expect("parent checked above")
            .children
            .push(id);
        self.by_height.entry(height).or_default().push(id);

        // Attach any orphans that were waiting for this block.
        if let Some(waiting) = self.orphans.remove(&id) {
            for orphan in waiting {
                // Ignore errors from stale orphans (duplicates, bad heights).
                let _ = self.insert(orphan);
            }
        }
        Ok(())
    }

    /// Records a quorum certificate for a block already in the forest and
    /// updates the high-QC bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::UnknownBlock`] if the certified block is not
    /// stored (the caller should retry once the block arrives).
    pub fn register_qc(&mut self, qc: QuorumCert) -> Result<(), ForestError> {
        let vertex = self
            .vertices
            .get_mut(&qc.block)
            .ok_or(ForestError::UnknownBlock(qc.block))?;
        let certified = (vertex.block.height, vertex.block.view, qc.block);
        let newly_certified = vertex.qc.is_none();
        if newly_certified {
            vertex.qc = Some(qc.clone());
        }
        if qc.view > self.high_qc.view {
            self.high_qc = qc;
        }
        // Incremental max-tracking: a block can only become the highest
        // certified block the moment its first QC lands, so comparing against
        // the current best is enough — no vertex scan, O(1) per QC.
        if newly_certified {
            let best = &self.vertices[&self.highest_certified].block;
            if (certified.0, certified.1) > (best.height, best.view) {
                self.highest_certified = certified.2;
            }
        }
        Ok(())
    }

    /// Adopts `qc` as the high-QC if it is newer, without requiring the
    /// certified block to be stored. State-transfer responses may carry a tip
    /// QC whose block arrives only with the next live proposal; the replica
    /// still must not propose or timeout with an older high-QC.
    pub fn observe_qc(&mut self, qc: QuorumCert) {
        if qc.view > self.high_qc.view {
            self.high_qc = qc;
        }
    }

    /// Recomputes `highest_certified` by scanning all vertices. Only needed
    /// after pruning removes the tracked block (a cold path); every hot-path
    /// update happens incrementally in [`BlockForest::register_qc`].
    fn rescan_highest_certified(&mut self) {
        // The id is part of the key so ties on (height, view) resolve
        // deterministically instead of following the table's iteration order —
        // replays of the same seed must reproduce the same tip.
        if let Some((id, _)) = self
            .vertices
            .iter()
            .filter(|(_, v)| v.qc.is_some())
            .max_by_key(|(id, v)| (v.block.height, v.block.view, **id))
        {
            self.highest_certified = *id;
        } else {
            self.highest_certified = BlockId::GENESIS;
        }
    }

    /// Returns true if `ancestor` is an ancestor of (or equal to) `descendant`
    /// following parent links.
    pub fn extends(&self, descendant: BlockId, ancestor: BlockId) -> bool {
        let mut cursor = descendant;
        loop {
            if cursor == ancestor {
                return true;
            }
            match self.vertices.get(&cursor) {
                Some(v) if !v.block.is_genesis() => cursor = v.block.parent,
                _ => return false,
            }
        }
    }

    /// Walks up from `id` and returns the ancestor at distance `steps`
    /// (0 = the block itself, 1 = parent, ...).
    pub fn ancestor(&self, id: BlockId, steps: usize) -> Option<&Block> {
        let mut cursor = self.vertices.get(&id)?;
        for _ in 0..steps {
            if cursor.block.is_genesis() {
                return None;
            }
            cursor = self.vertices.get(&cursor.block.parent)?;
        }
        Some(&cursor.block)
    }

    /// Returns the chain of blocks from `ancestor` (exclusive) down to `id`
    /// (inclusive), ordered from oldest to newest, as shared handles so
    /// callers can retain the chain without copying payloads. Returns `None`
    /// if `id` does not extend `ancestor`.
    pub fn shared_path_from(&self, ancestor: BlockId, id: BlockId) -> Option<Vec<&SharedBlock>> {
        let mut path = VecDeque::new();
        let mut cursor = id;
        loop {
            if cursor == ancestor {
                return Some(path.into_iter().collect());
            }
            let vertex = self.vertices.get(&cursor)?;
            if vertex.block.is_genesis() {
                return None;
            }
            path.push_front(&vertex.block);
            cursor = vertex.block.parent;
        }
    }

    /// The chain predicate every commit and lock rule is built from: the head
    /// of the `k`-chain ending at `tip` — `k` blocks (including `tip`), each
    /// certified and each the direct parent of the next. HotStuff's
    /// one-/two-/three-chains are `k` = 1, 2, 3; with `consecutive_views` the
    /// blocks must also have been proposed in adjacent views (Streamlet's
    /// commit rule). Genesis is certified by convention and may close a
    /// chain, but nothing lies below it. `None` if no such chain exists.
    pub fn certified_chain(
        &self,
        tip: BlockId,
        k: usize,
        consecutive_views: bool,
    ) -> Option<&Block> {
        let certified = |id: BlockId| self.vertices.get(&id).filter(|v| v.qc.is_some());
        let mut head = certified(tip).filter(|_| k > 0)?;
        for _ in 1..k {
            if head.block.is_genesis() {
                return None;
            }
            let parent = certified(head.block.parent)?;
            if consecutive_views && head.block.view.as_u64() != parent.block.view.as_u64() + 1 {
                return None;
            }
            head = parent;
        }
        Some(&head.block)
    }

    /// Commits `id` and its uncommitted ancestors. Returns shared handles to
    /// the newly committed blocks ordered oldest-first — no payload is copied.
    ///
    /// # Errors
    ///
    /// * [`ForestError::UnknownBlock`] if `id` is not stored,
    /// * [`ForestError::ConflictingCommit`] if `id` does not extend the
    ///   current committed head (a safety violation).
    pub fn commit(&mut self, id: BlockId) -> Result<Vec<SharedBlock>, ForestError> {
        if !self.vertices.contains_key(&id) {
            return Err(ForestError::UnknownBlock(id));
        }
        // One walk from `id` down to the committed head, newest first; a walk
        // that leaves the forest (or reaches genesis) never met the head.
        let mut newly = Vec::new();
        let mut cursor = id;
        while cursor != self.committed_head {
            match self.vertices.get(&cursor) {
                Some(vertex) if !vertex.block.is_genesis() => {
                    newly.push(vertex.block.clone());
                    cursor = vertex.block.parent;
                }
                _ => {
                    return Err(ForestError::ConflictingCommit {
                        block: id,
                        committed_head: self.committed_head,
                    })
                }
            }
        }
        newly.reverse();
        self.committed_head = id;
        self.committed_count += newly.len() as u64;
        Ok(newly)
    }

    /// Prunes every block strictly below `height` that is not an ancestor of
    /// the committed head, plus the committed prefix itself (which is assumed
    /// to have been handed to the [`crate::Ledger`] already). Returns the
    /// *forked* blocks removed — blocks that were overwritten by the committed
    /// chain — so their transactions can be returned to the mempool, matching
    /// Bamboo's behaviour under the forking attack.
    pub fn prune_to(&mut self, height: Height) -> Vec<SharedBlock> {
        if height <= self.prune_horizon {
            return Vec::new();
        }
        let cut = height.as_u64();
        let head = self.committed_head;
        let mut forked = Vec::new();
        // Genesis (height 0) is never pruned, so only heights in `1..cut`
        // can lose a block; when the index has none there is nothing to cut.
        if self.by_height.range(1..cut).next().is_some() {
            // The committed path first, in one walk down from the head: its
            // blocks below the cut go without being reported (the ledger owns
            // the committed history). Whatever the index still lists below
            // the cut afterwards was overwritten by the committed chain.
            let mut cursor = self.vertices[&head].block.parent;
            while let Some(vertex) = self.vertices.get(&cursor) {
                if vertex.block.is_genesis() {
                    break;
                }
                let parent = vertex.block.parent;
                if vertex.block.height.as_u64() < cut {
                    self.vertices.remove(&cursor);
                    unlink_child(&mut self.vertices, parent, cursor);
                }
                cursor = parent;
            }
            // In place, in ascending height order.
            self.by_height.retain(|&h, ids| {
                if h >= cut {
                    return true;
                }
                ids.retain(|&id| {
                    if id == head || id.is_genesis() {
                        // Stays indexed, so a later prune revisits it.
                        return true;
                    }
                    if let Some(vertex) = self.vertices.remove(&id) {
                        unlink_child(&mut self.vertices, vertex.block.parent, id);
                        forked.push(vertex.block);
                    }
                    false
                });
                !ids.is_empty()
            });
        }
        // The highest certified block normally sits at or above the committed
        // head and survives every prune; if a certified losing fork was the
        // tracked maximum, fall back to a rescan (cold path).
        if !self.vertices.contains_key(&self.highest_certified) {
            self.rescan_highest_certified();
        }
        // Orphans below the horizon can never be attached any more.
        self.orphans.retain(|_, blocks| {
            blocks.retain(|b| b.height > height);
            !blocks.is_empty()
        });
        self.forked_count += forked.len() as u64;
        self.prune_horizon = height;
        forked
    }

    /// Convenience wrapper: prune everything below the committed head.
    pub fn prune_to_committed(&mut self) -> Vec<SharedBlock> {
        let height = self.committed_head().height;
        self.prune_to(height)
    }

    /// Returns forest statistics.
    pub fn stats(&self) -> ForestStats {
        ForestStats {
            stored_blocks: self.vertices.len(),
            orphans: self.orphans.values().map(Vec::len).sum(),
            max_height: self
                .by_height
                .keys()
                .next_back()
                .copied()
                .unwrap_or_default(),
            committed_height: self.committed_head().height.as_u64(),
            committed_blocks: self.committed_count,
            forked_blocks: self.forked_count,
            orphans_evicted: self.orphans_evicted,
        }
    }

    /// The ids of every transaction a stored block above the committed head
    /// carries, on any branch: proposed, not (yet) committed. A proposer
    /// leaves them out of its batch.
    pub fn uncommitted_tx_ids(&self) -> impl Iterator<Item = &TxId> {
        let above = self.committed_head().height.as_u64() + 1;
        let ids = self.by_height.range(above..).flat_map(|(_, ids)| ids);
        ids.flat_map(|id| self.vertices[id].block.payload.iter().map(|tx| &tx.id))
    }

    /// Iterates over all stored blocks (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.vertices.values().map(|v| &*v.block)
    }

    /// Number of blocks currently stored.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns true if only genesis is stored.
    pub fn is_empty(&self) -> bool {
        self.vertices.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::KeyPair;
    use bamboo_types::SimTime;
    use bamboo_types::{NodeId, Transaction, View, Vote};

    /// Builds a child of `parent` proposed in `view` and inserts it.
    fn add_child(forest: &mut BlockForest, parent: BlockId, view: u64) -> BlockId {
        let parent_block = forest.get(parent).unwrap().clone();
        let block = Block::new(
            View(view),
            parent_block.height.next(),
            parent,
            NodeId(view % 4),
            QuorumCert::genesis(),
            vec![Transaction::new(NodeId(9), view, 8, SimTime::ZERO)],
        );
        let id = block.id;
        forest.insert(block).unwrap();
        id
    }

    fn certify(forest: &mut BlockForest, id: BlockId, view: u64) {
        let kps: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
        let votes: Vec<Vote> = (0..3)
            .map(|i| Vote::new(id, View(view), NodeId(i), &kps[i as usize]))
            .collect();
        forest
            .register_qc(QuorumCert::from_votes(id, View(view), &votes))
            .unwrap();
    }

    #[test]
    fn new_forest_contains_committed_genesis() {
        let forest = BlockForest::new();
        assert!(forest.contains(BlockId::GENESIS));
        assert!(forest.is_certified(BlockId::GENESIS));
        assert_eq!(forest.committed_head().id, BlockId::GENESIS);
        assert!(forest.is_empty());
    }

    #[test]
    fn insert_builds_parent_child_links() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        assert_eq!(forest.children(BlockId::GENESIS), &[a]);
        assert_eq!(forest.children(a), &[b]);
        assert!(forest.extends(b, BlockId::GENESIS));
        assert!(forest.extends(b, a));
        assert!(!forest.extends(a, b));
        assert_eq!(forest.len(), 3);
    }

    #[test]
    fn duplicate_and_bad_height_are_rejected() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let dup = forest.get(a).unwrap().clone();
        assert_eq!(forest.insert(dup), Err(ForestError::Duplicate(a)));

        let parent = forest.get(a).unwrap().clone();
        let bad = Block::new(
            View(2),
            Height(9),
            a,
            NodeId(0),
            QuorumCert::genesis(),
            vec![],
        );
        assert_eq!(
            forest.insert(bad),
            Err(ForestError::InvalidHeight {
                block: Block::compute_id(
                    View(2),
                    Height(9),
                    a,
                    NodeId(0),
                    &QuorumCert::genesis(),
                    &[]
                ),
                height: Height(9),
                expected: parent.height.next(),
            })
        );
    }

    #[test]
    fn orphans_are_attached_when_parent_arrives() {
        let mut forest = BlockForest::new();
        let parent = Block::new(
            View(1),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            QuorumCert::genesis(),
            vec![],
        );
        let child = Block::new(
            View(2),
            Height(2),
            parent.id,
            NodeId(1),
            QuorumCert::genesis(),
            vec![],
        );
        let child_id = child.id;
        assert_eq!(
            forest.insert(child),
            Err(ForestError::UnknownParent(parent.id))
        );
        assert_eq!(forest.stats().orphans, 1);
        forest.insert(parent).unwrap();
        assert!(forest.contains(child_id), "orphan attached after parent");
        assert_eq!(forest.stats().orphans, 0);
    }

    #[test]
    fn certified_chain_needs_k_directly_linked_certified_blocks() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let c = add_child(&mut forest, b, 3);
        assert!(forest.certified_chain(c, 1, false).is_none());
        certify(&mut forest, a, 1);
        certify(&mut forest, b, 2);
        let head = |tip, k| forest.certified_chain(tip, k, false).map(|h| h.id);
        assert_eq!(head(b, 2), Some(a));
        assert_eq!(head(b, 3), Some(BlockId::GENESIS), "genesis + a + b");
        assert_eq!(head(b, 4), None, "nothing lies below genesis");
        assert_eq!(head(c, 1), None, "c not certified");
        assert_eq!(head(b, 0), None);
        certify(&mut forest, c, 3);
        assert_eq!(
            forest.certified_chain(c, 3, false).map(|h| h.id),
            Some(a),
            "a three-chain's head"
        );
    }

    #[test]
    fn consecutive_view_chain_requires_adjacent_views() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let c = add_child(&mut forest, b, 4); // view gap between b and c
        certify(&mut forest, a, 1);
        certify(&mut forest, b, 2);
        certify(&mut forest, c, 4);
        let head = |tip, k| forest.certified_chain(tip, k, true).map(|h| h.id);
        assert_eq!(head(b, 2), Some(a), "head of the 2-chain is a");
        assert_eq!(head(c, 2), None, "view gap");
        assert_eq!(head(c, 1), Some(c));
        assert!(
            forest.certified_chain(c, 2, false).is_some(),
            "linked anyway"
        );
    }

    #[test]
    fn commit_returns_newly_committed_suffix_in_order() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let c = add_child(&mut forest, b, 3);
        let committed = forest.commit(b).unwrap();
        assert_eq!(
            committed.iter().map(|bk| bk.id).collect::<Vec<_>>(),
            vec![a, b]
        );
        let committed = forest.commit(c).unwrap();
        assert_eq!(
            committed.iter().map(|bk| bk.id).collect::<Vec<_>>(),
            vec![c]
        );
        assert_eq!(forest.commit(c).unwrap(), Vec::<SharedBlock>::new());
        assert_eq!(forest.stats().committed_blocks, 3);
    }

    #[test]
    fn uncommitted_tx_ids_cover_every_branch_above_the_committed_head() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let fork = add_child(&mut forest, a, 3);
        let c = add_child(&mut forest, b, 4);
        let seqs = |forest: &BlockForest| {
            let mut seqs: Vec<u64> = forest.uncommitted_tx_ids().map(|id| id.seq).collect();
            seqs.sort_unstable();
            seqs
        };
        assert_eq!(seqs(&forest), vec![1, 2, 3, 4]);
        forest.commit(b).unwrap();
        // The fork at b's height is not above the head; c is.
        assert_eq!(seqs(&forest), vec![4]);
        forest.prune_to_committed();
        assert!(
            forest.contains(fork),
            "a sibling of the head outlives the prune"
        );
        assert_eq!(seqs(&forest), vec![4]);
        forest.commit(c).unwrap();
        assert_eq!(forest.uncommitted_tx_ids().count(), 0);
    }

    #[test]
    fn conflicting_commit_is_detected() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        // A fork off the genesis block.
        let f = add_child(&mut forest, BlockId::GENESIS, 3);
        forest.commit(b).unwrap();
        match forest.commit(f) {
            Err(ForestError::ConflictingCommit { block, .. }) => assert_eq!(block, f),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn prune_removes_forked_branches_and_reports_them() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let c = add_child(&mut forest, b, 3);
        // Fork at a: this branch loses.
        let f1 = add_child(&mut forest, a, 4);
        let f2 = add_child(&mut forest, f1, 5);
        forest.commit(c).unwrap();
        let forked = forest.prune_to_committed();
        let forked_ids: Vec<BlockId> = forked.iter().map(|bk| bk.id).collect();
        assert!(forked_ids.contains(&f1));
        assert!(!forked_ids.contains(&c), "committed head stays");
        assert!(!forest.contains(a), "pruned committed prefix is dropped");
        assert!(!forest.contains(f1));
        assert!(forest.contains(c));
        assert!(forest.contains(f2), "f2 is above the prune horizon");
        // Inserting an old block after pruning is rejected.
        let stale = Block::new(
            View(9),
            Height(1),
            BlockId::GENESIS,
            NodeId(0),
            QuorumCert::genesis(),
            vec![],
        );
        assert!(matches!(
            forest.insert(stale),
            Err(ForestError::BelowPruneHorizon(_)) | Err(ForestError::UnknownParent(_))
        ));
    }

    #[test]
    fn high_qc_tracks_highest_view() {
        let mut forest = BlockForest::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        certify(&mut forest, b, 2);
        assert_eq!(forest.high_qc().block, b);
        certify(&mut forest, a, 1);
        assert_eq!(forest.high_qc().block, b, "older QC does not replace newer");
        assert_eq!(forest.highest_certified_block().id, b);
    }

    #[test]
    fn register_qc_for_unknown_block_fails() {
        let mut forest = BlockForest::new();
        let ghost = BlockId(bamboo_crypto::Digest::of(b"ghost"));
        assert_eq!(
            forest.register_qc(QuorumCert {
                block: ghost,
                view: View(1),
                signatures: Default::default()
            }),
            Err(ForestError::UnknownBlock(ghost))
        );
    }

    /// Brute-force recomputation of the highest certified block: max over all
    /// certified vertices by `(height, view)` — the specification the
    /// incremental tracking in `register_qc` must match.
    fn brute_force_highest_certified(forest: &BlockForest) -> BlockId {
        forest
            .iter()
            .filter(|b| forest.is_certified(b.id))
            .max_by_key(|b| (b.height, b.view))
            .map(|b| b.id)
            .expect("genesis is always certified")
    }

    #[test]
    fn incremental_highest_certified_matches_brute_force_for_any_qc_order() {
        // A forest with three competing branches off different fork points,
        // so certification order genuinely matters.
        let mut forest = BlockForest::new();
        let mut ids = Vec::new();
        let a = add_child(&mut forest, BlockId::GENESIS, 1);
        let b = add_child(&mut forest, a, 2);
        let c = add_child(&mut forest, b, 3);
        let d = add_child(&mut forest, c, 4);
        // Fork at a (medium branch) and at genesis (short branch).
        let f1 = add_child(&mut forest, a, 5);
        let f2 = add_child(&mut forest, f1, 6);
        let g1 = add_child(&mut forest, BlockId::GENESIS, 7);
        ids.extend([a, b, c, d, f1, f2, g1]);

        // Deterministic Fisher-Yates driven by an splitmix64-style generator
        // (no external randomness: runs must stay reproducible).
        let mut rng_state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            rng_state = rng_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng_state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        for _trial in 0..50 {
            let mut order = ids.clone();
            for i in (1..order.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            // Also vary how many of the blocks get certified at all.
            let take = 1 + (next() % order.len() as u64) as usize;
            let mut trial_forest = forest.clone();
            for id in order.into_iter().take(take) {
                let view = trial_forest.get(id).unwrap().view;
                certify(&mut trial_forest, id, view.as_u64());
                assert_eq!(
                    trial_forest.highest_certified_block().id,
                    brute_force_highest_certified(&trial_forest),
                    "incremental tracking diverged from brute force"
                );
            }
        }
    }
}
