//! Checkpoint snapshots: a compact binary encoding of one replica's durable
//! consensus state — the committed [`Ledger`] plus the uncommitted
//! [`BlockForest`] subtree above it.
//!
//! An image is an **append-only sequence of self-delimiting chunks**. Each
//! chunk carries the ledger entries `[from, to)` committed since the chunk
//! before it plus a small *head*: the uncommitted subtree, root/high QC and
//! forest counters at the time it was cut. Taking a checkpoint therefore
//! costs O(entries since the last one), never O(ledger). A decoder reads the
//! chunks in order and keeps only the newest head; a chunk with `from == 0`
//! supersedes everything before it (the re-base after adopting a peer's
//! state). The one-shot image of [`Snapshot::encode`] is simply the single
//! chunk with `from == 0`.
//!
//! Taking a checkpoint and laying it out are two steps. [`Snapshot::cut`]
//! captures a chunk's contents as shared handles — the ledger entries are
//! the ledger's own `Arc`s, the head a pre-order list of the forest's — plus
//! the length the chunk will encode to, without writing a byte: the body
//! writer [`Cut::encode_into`] lays out is run once into a
//! [`bamboo_types::wire::Count`]. A holder that keeps the cut pays for the
//! bytes only when someone reads them.
//!
//! A committed ledger entry has one layout, written by [`encode_committed`]
//! and read by [`decode_committed`]: a chunk body carries a run of them, and
//! the durable segment log (`bamboo-core`'s storage module) frames one per
//! record.
//!
//! ```text
//! chunk := "BSNP" | u16 version | u32 body_len | u32 crc32(body) | body
//! body  := u64 from | u32 count | count x (block, u64 commit view, u64 commit time)
//!          | u64 committed | u64 forked | opt root QC | u32 root children
//!          | u32 entries | entries x (block, opt QC, u32 children) | high QC
//! ```
//!
//! The head uses a flattened-tree encoding: vertices are emitted in
//! pre-order as `(block, optional QC, child count)` entries, and the decoder
//! rebuilds the tree with an explicit stack of `(parent, remaining children)`
//! frames — no recursion, O(n) both ways. The ledger part is the flat
//! committed history with its commit-time metadata, so a decoded ledger
//! reproduces [`Ledger::fingerprint`] byte-for-byte; the round trip is the
//! integrity check checkpointing and state transfer rely on.
//!
//! The format is deliberately binary (length-prefixed, big-endian, version
//! tagged): digests and signatures are 32 raw bytes, which the in-tree JSON
//! value (f64 numbers) cannot hold losslessly. Every chunk body is covered by
//! a CRC-32, every block id is re-derived from the decoded header and payload
//! and compared against the encoded id, and the ledger must link parent to
//! child across chunk borders, so a corrupted or tampered snapshot fails
//! decoding instead of poisoning the forest.

use bamboo_types::wire::{
    crc32, decode_block, decode_opt_qc, decode_qc, encode_block, encode_opt_qc, encode_qc, put_u16,
    put_u32, put_u64, Count, Sink,
};
use bamboo_types::{Block, BlockId, Height, QuorumCert, SharedBlock, SimTime, View, WireCursor};

use crate::forest::BlockForest;
use crate::ledger::{CommittedBlock, Ledger};

/// Format magic + version. Bump the version for any layout change; decoders
/// reject unknown versions instead of misparsing.
const MAGIC: &[u8; 4] = b"BSNP";
const VERSION: u16 = 3;
/// Bytes in front of a chunk body: magic, version, body length, CRC.
const CHUNK_HEADER_BYTES: usize = 14;

/// Why a snapshot failed to decode.
///
/// Snapshots are read through the workspace-wide canonical codec
/// ([`bamboo_types::wire`]), so the snapshot error *is* the wire error: the
/// same truncation / corruption taxonomy covers checkpoint images, log
/// records and transport frames.
pub type SnapshotError = bamboo_types::WireError;

/// A decoded snapshot: the replica state a checkpoint restores.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The committed history, commit metadata included.
    pub ledger: Ledger,
    /// The forest rooted at the committed head, uncommitted subtree attached.
    pub forest: BlockForest,
}

/// One checkpoint chunk, cut but not laid out: everything the chunk's bytes
/// say, held as shared handles (see the module docs). Cloning one bumps
/// reference counts; [`Cut::encode`] produces the bytes
/// [`Snapshot::encode_chunk`] would have produced when the cut was taken,
/// however the replica's state has moved on since.
#[derive(Clone, Debug)]
pub struct Cut {
    from: u64,
    entries: Vec<CommittedBlock>,
    committed_blocks: u64,
    forked_blocks: u64,
    root_qc: Option<QuorumCert>,
    root_children: u32,
    /// The uncommitted subtree in pre-order: block, its QC, child count.
    head: Vec<(SharedBlock, Option<QuorumCert>, u32)>,
    high_qc: QuorumCert,
    len: usize,
}

// A chunk always carries its header, so a zero length never occurs.
#[allow(clippy::len_without_is_empty)]
impl Cut {
    /// Ledger index of the first entry the chunk carries; 0 re-bases.
    pub fn from(&self) -> u64 {
        self.from
    }

    /// Ledger length once the chunk is applied.
    pub fn to(&self) -> u64 {
        self.from + self.entries.len() as u64
    }

    /// The bytes [`Cut::encode_into`] appends: the header plus the body
    /// writer's count, taken when the chunk was cut.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Lays the chunk out at the end of `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.len);
        out.extend_from_slice(MAGIC);
        put_u16(out, VERSION);
        put_u32(out, (self.len - CHUNK_HEADER_BYTES) as u32);
        out.extend_from_slice(&[0; 4]); // CRC, patched below
        self.encode_body(out);
        let crc = crc32(&out[start + CHUNK_HEADER_BYTES..]);
        out[start + 10..start + CHUNK_HEADER_BYTES].copy_from_slice(&crc.to_be_bytes());
    }

    /// The chunk body: the one writer both [`Cut::encode_into`] and the
    /// length count run.
    fn encode_body(&self, out: &mut impl Sink) {
        put_u64(out, self.from);
        put_u32(out, self.entries.len() as u32);
        for committed in &self.entries {
            encode_committed(out, committed);
        }
        put_u64(out, self.committed_blocks);
        put_u64(out, self.forked_blocks);
        encode_opt_qc(out, self.root_qc.as_ref());
        put_u32(out, self.root_children);
        put_u32(out, self.head.len() as u32);
        for (block, qc, children) in &self.head {
            encode_block(out, block);
            encode_opt_qc(out, qc.as_ref());
            put_u32(out, *children);
        }
        encode_qc(out, &self.high_qc);
    }

    /// The chunk's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        self.encode_into(&mut out);
        out
    }
}

/// One chunk of a checkpoint stream, located by its header alone (the body
/// is neither checksummed nor parsed until [`Snapshot::decode`]).
#[derive(Clone, Copy, Debug)]
pub struct Chunk<'a> {
    /// Ledger index of the first entry the chunk carries.
    pub from: u64,
    /// Ledger length once the chunk is applied.
    pub to: u64,
    /// The whole chunk, header included.
    pub bytes: &'a [u8],
}

/// Splits a checkpoint stream at its chunk borders. A malformed header
/// yields one `Err` and ends the walk.
pub fn chunks(mut rest: &[u8]) -> impl Iterator<Item = Result<Chunk<'_>, SnapshotError>> {
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let chunk = next_chunk(rest);
        rest = chunk.as_ref().map_or(&[], |c| &rest[c.bytes.len()..]);
        Some(chunk)
    })
}

fn next_chunk(stream: &[u8]) -> Result<Chunk<'_>, SnapshotError> {
    let mut cur = WireCursor::new(stream);
    if cur.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = cur.u16()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let body_len = cur.u32()? as usize;
    let _crc = cur.u32()?;
    let mut body = WireCursor::new(cur.take(body_len)?);
    let from = body.u64()?;
    let to = from
        .checked_add(body.u32()? as u64)
        .ok_or(SnapshotError::Corrupt("chunk range overflows"))?;
    Ok(Chunk {
        from,
        to,
        bytes: &stream[..CHUNK_HEADER_BYTES + body_len],
    })
}

impl Snapshot {
    /// Height of the committed head the snapshot was taken at.
    pub fn committed_height(&self) -> Height {
        self.forest.committed_head().height
    }

    /// Encodes `forest` + the whole `ledger` as a one-chunk image.
    pub fn encode(forest: &BlockForest, ledger: &Ledger) -> Vec<u8> {
        Self::cut(forest, ledger, 0).encode()
    }

    /// Encodes one chunk (see [`Snapshot::cut`]).
    pub fn encode_chunk(forest: &BlockForest, ledger: &Ledger, from: usize) -> Vec<u8> {
        Self::cut(forest, ledger, from).encode()
    }

    /// Cuts one chunk: the ledger entries `[from, ledger.len())` plus the
    /// current head. Appended to chunks covering `[0, from)` it completes the
    /// image; with `from == 0` it is the whole image.
    ///
    /// Only the subtree reachable from the committed head is captured:
    /// orphans (unresolvable by definition) and fork remnants disconnected
    /// by pruning are not part of the durable state.
    pub fn cut(forest: &BlockForest, ledger: &Ledger, from: usize) -> Cut {
        let from = from.min(ledger.len());
        let entries: Vec<CommittedBlock> = ledger.iter().skip(from).cloned().collect();
        let stats = forest.stats();
        // Flattened pre-order of the uncommitted subtree. The root (committed
        // head) block itself lives in the ledger (or is genesis), so only its
        // QC and child count are recorded.
        let root = forest.committed_head().id;
        let mut head = Vec::new();
        let mut stack: Vec<BlockId> = forest.children(root).iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            let block = forest.get_shared(id).expect("child links are internal");
            let children = forest.children(id);
            head.push((
                block.clone(),
                forest.qc_of(id).cloned(),
                children.len() as u32,
            ));
            stack.extend(children.iter().rev());
        }
        let mut cut = Cut {
            from: from as u64,
            entries,
            committed_blocks: stats.committed_blocks,
            forked_blocks: stats.forked_blocks,
            root_qc: forest.qc_of(root).cloned(),
            root_children: forest.children(root).len() as u32,
            head,
            high_qc: forest.high_qc().clone(),
            len: 0,
        };
        cut.len = CHUNK_HEADER_BYTES + Count::of(|out| cut.encode_body(out));
        cut
    }

    /// Decodes an image: one or more consecutive chunks starting at
    /// `from == 0`.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] describing the first structural or
    /// integrity violation.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Self::decode_onto(&Ledger::new(), bytes)
    }

    /// Decodes a chunk stream whose first chunk may start inside `base` (a
    /// state-transfer suffix): entries of `base` below that chunk's `from`
    /// are kept, everything above comes from the stream. Verifies every
    /// chunk's CRC and block ids, that each later chunk starts at the running
    /// length (or re-bases at 0), and parent linkage across chunk borders.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] describing the first structural or
    /// integrity violation.
    pub fn decode_onto(base: &Ledger, bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let mut committed: Vec<CommittedBlock> = Vec::new();
        let mut head = None;
        for (index, chunk) in chunks(bytes).enumerate() {
            let chunk = chunk?;
            let body = &chunk.bytes[CHUNK_HEADER_BYTES..];
            let crc = u32::from_be_bytes(chunk.bytes[10..14].try_into().expect("4 bytes"));
            if crc32(body) != crc {
                return Err(SnapshotError::Corrupt("chunk checksum mismatch"));
            }
            let from = chunk.from as usize;
            if from == 0 {
                committed.clear();
            } else if index == 0 && from <= base.len() {
                committed.extend(base.iter().take(from).cloned());
            } else if from != committed.len() {
                return Err(SnapshotError::Corrupt("chunk does not start at ledger end"));
            }
            let mut cur = WireCursor::new(&body[12..]);
            committed.reserve(cur.count(chunk.to - chunk.from, Block::HEADER_BYTES + 8 + 8)?);
            for _ in chunk.from..chunk.to {
                committed.push(decode_committed(&mut cur)?);
            }
            // Only the newest head counts; older ones are skipped unparsed.
            head = Some(cur);
        }
        let mut cur = head.ok_or(SnapshotError::Truncated)?;
        let ledger = Ledger::restore(committed);
        if !ledger.verify_chain() {
            return Err(SnapshotError::Corrupt("ledger is not a linked chain"));
        }

        let committed_count = cur.u64()?;
        let forked_count = cur.u64()?;
        let root: SharedBlock = match ledger.len() {
            0 => SharedBlock::new(Block::genesis()),
            n => ledger.get(n - 1).expect("n > 0").block.clone(),
        };
        let root_id = root.id;
        let mut forest = BlockForest::restore(root, committed_count, forked_count);
        if let Some(root_qc) = decode_opt_qc(&mut cur)? {
            if root_qc.block != root_id && !root_qc.is_genesis() {
                return Err(SnapshotError::Corrupt("root QC certifies another block"));
            }
            let _ = forest.register_qc(root_qc);
        }

        // Explicit-stack rebuild of the pre-order tree: each frame is the
        // parent id plus how many of its children are still to be read.
        let root_children = cur.u32()?;
        let entry_count = cur.u32()?;
        let mut stack: Vec<(BlockId, u32)> = vec![(root_id, root_children)];
        let mut read = 0u32;
        while let Some((parent, remaining)) = stack.pop() {
            if remaining == 0 {
                continue;
            }
            stack.push((parent, remaining - 1));
            let block = decode_block(&mut cur)?;
            if block.parent != parent {
                return Err(SnapshotError::Corrupt("tree entry out of pre-order"));
            }
            let id = block.id;
            let qc = decode_opt_qc(&mut cur)?;
            let children = cur.u32()?;
            read += 1;
            if read > entry_count {
                return Err(SnapshotError::Corrupt("more tree entries than declared"));
            }
            if forest.insert(block).is_err() {
                return Err(SnapshotError::Corrupt("tree entry rejected by forest"));
            }
            if let Some(qc) = qc {
                if forest.register_qc(qc).is_err() {
                    return Err(SnapshotError::Corrupt("QC for absent block"));
                }
            }
            stack.push((id, children));
        }
        if read != entry_count {
            return Err(SnapshotError::Corrupt("fewer tree entries than declared"));
        }

        forest.observe_qc(decode_qc(&mut cur)?);
        if !cur.done() {
            return Err(SnapshotError::Corrupt("trailing bytes after head"));
        }
        Ok(Snapshot { ledger, forest })
    }
}

// ---- committed entries --------------------------------------------------------

/// Writes one committed ledger entry: the block, then its commit view and
/// commit time. A chunk body carries a run of these, and a log record one.
pub fn encode_committed(out: &mut impl Sink, committed: &CommittedBlock) {
    encode_block(out, &committed.block);
    put_u64(out, committed.committed_in_view.as_u64());
    put_u64(out, committed.committed_at.as_nanos());
}

/// Reads one entry [`encode_committed`] wrote.
///
/// # Errors
///
/// Returns the [`SnapshotError`] describing the first structural or
/// integrity violation.
pub fn decode_committed(cur: &mut WireCursor<'_>) -> Result<CommittedBlock, SnapshotError> {
    Ok(CommittedBlock {
        block: SharedBlock::new(decode_block(cur)?),
        committed_in_view: View(cur.u64()?),
        committed_at: SimTime(cur.u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::KeyPair;
    use bamboo_types::{NodeId, Transaction, Vote};

    fn certify(forest: &mut BlockForest, id: BlockId, view: u64) {
        let kps: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
        let votes: Vec<Vote> = (0..3)
            .map(|i| Vote::new(id, View(view), NodeId(i), &kps[i as usize]))
            .collect();
        forest
            .register_qc(QuorumCert::from_votes(id, View(view), &votes))
            .unwrap();
    }

    fn child_of(forest: &BlockForest, parent: BlockId, view: u64, txs: u64) -> Block {
        let parent_block = forest.get(parent).unwrap();
        Block::new(
            View(view),
            parent_block.height.next(),
            parent,
            NodeId(view % 4),
            QuorumCert::genesis(),
            (0..txs)
                .map(|i| Transaction::new(NodeId(9), view * 100 + i, 8, SimTime(view)))
                .collect(),
        )
    }

    /// Builds a (forest, ledger) pair with a committed chain of `committed`
    /// blocks, a live uncommitted suffix and a pruned fork, mirroring what a
    /// running replica holds.
    fn replica_state(committed: u64) -> (BlockForest, Ledger) {
        let mut forest = BlockForest::new();
        let mut ledger = Ledger::new();
        let mut head = BlockId::GENESIS;
        for view in 1..=committed {
            let block = child_of(&forest, head, view, 3);
            head = block.id;
            forest.insert(block).unwrap();
            certify(&mut forest, head, view);
        }
        if committed > 0 {
            let newly = forest.commit(head).unwrap();
            ledger.append(newly, View(committed + 2), SimTime(committed * 1000));
            forest.prune_to_committed();
        }
        // Uncommitted live suffix: two chained blocks plus a fork, one QC.
        let a = child_of(&forest, head, committed + 1, 2);
        let a_id = a.id;
        forest.insert(a).unwrap();
        let b = child_of(&forest, a_id, committed + 2, 1);
        let b_id = b.id;
        forest.insert(b).unwrap();
        let f = child_of(&forest, head, committed + 3, 1);
        forest.insert(f).unwrap();
        certify(&mut forest, a_id, committed + 1);
        assert!(forest.high_qc().block == a_id || committed == 0);
        let _ = b_id;
        (forest, ledger)
    }

    #[test]
    fn round_trip_preserves_fingerprint_and_structure() {
        let (forest, ledger) = replica_state(5);
        let bytes = Snapshot::encode(&forest, &ledger);
        let snapshot = Snapshot::decode(&bytes).expect("round trip");
        assert_eq!(snapshot.ledger.fingerprint(), ledger.fingerprint());
        assert_eq!(
            snapshot.ledger.chain_fingerprint(),
            ledger.chain_fingerprint()
        );
        assert_eq!(snapshot.ledger.committed_txs(), ledger.committed_txs());
        assert_eq!(
            snapshot.forest.committed_head().id,
            forest.committed_head().id
        );
        assert_eq!(snapshot.forest.high_qc(), forest.high_qc());
        assert_eq!(snapshot.forest.stats(), forest.stats());
        // Re-encoding the decoded state is byte-identical: the encoding is
        // canonical.
        assert_eq!(Snapshot::encode(&snapshot.forest, &snapshot.ledger), bytes);
    }

    #[test]
    fn empty_state_round_trips() {
        let forest = BlockForest::new();
        let ledger = Ledger::new();
        let bytes = Snapshot::encode(&forest, &ledger);
        let snapshot = Snapshot::decode(&bytes).expect("empty round trip");
        assert!(snapshot.ledger.is_empty());
        assert!(snapshot.forest.committed_head().is_genesis());
        assert_eq!(snapshot.committed_height(), Height::GENESIS);
    }

    #[test]
    fn property_randomized_forests_round_trip() {
        // Deterministic splitmix64 so the "random" forests replay identically.
        let mut state: u64 = 0x1234_5678_9abc_def0;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for trial in 0..20u64 {
            let committed = next() % 8;
            let (mut forest, ledger) = replica_state(committed);
            // Grow a random uncommitted shape: attach blocks to random
            // existing vertices, certify a random subset.
            let mut ids: Vec<BlockId> = vec![forest.committed_head().id];
            for extra in 0..(next() % 12) {
                let parent = ids[(next() % ids.len() as u64) as usize];
                let view = 100 + trial * 50 + extra;
                let block = child_of(&forest, parent, view, next() % 4);
                let id = block.id;
                forest.insert(block).unwrap();
                ids.push(id);
                if next() % 2 == 0 {
                    certify(&mut forest, id, view);
                }
            }
            let bytes = Snapshot::encode(&forest, &ledger);
            let snapshot = Snapshot::decode(&bytes)
                .unwrap_or_else(|e| panic!("trial {trial} failed to decode: {e}"));
            assert_eq!(snapshot.ledger.fingerprint(), ledger.fingerprint());
            assert_eq!(snapshot.forest.stats(), forest.stats(), "trial {trial}");
            assert_eq!(snapshot.forest.high_qc(), forest.high_qc());
            for id in &ids {
                assert!(snapshot.forest.contains(*id), "trial {trial} lost {id}");
                assert_eq!(
                    snapshot.forest.is_certified(*id),
                    forest.is_certified(*id),
                    "trial {trial} certification of {id}"
                );
            }
            assert_eq!(Snapshot::encode(&snapshot.forest, &snapshot.ledger), bytes);
        }
    }

    /// Commits a chain one block at a time, cutting a chunk whenever the
    /// ledger reaches one of `cuts` and a final one (with a live uncommitted
    /// subtree) at `total`. Returns the chunk stream and the final state.
    fn chunk_stream(cuts: &[u64], total: u64) -> (Vec<u8>, BlockForest, Ledger) {
        let mut forest = BlockForest::new();
        let mut ledger = Ledger::new();
        let mut head = BlockId::GENESIS;
        let mut stream = Vec::new();
        let mut from = 0usize;
        for view in 1..=total {
            let block = child_of(&forest, head, view, 3);
            head = block.id;
            forest.insert(block).unwrap();
            certify(&mut forest, head, view);
            let newly = forest.commit(head).unwrap();
            ledger.append(newly, View(view + 2), SimTime(view * 1000));
            forest.prune_to_committed();
            if cuts.contains(&view) {
                stream.extend(Snapshot::encode_chunk(&forest, &ledger, from));
                from = ledger.len();
            }
        }
        let a = child_of(&forest, head, total + 1, 2);
        let a_id = a.id;
        forest.insert(a).unwrap();
        let fork = child_of(&forest, head, total + 2, 1);
        forest.insert(fork).unwrap();
        certify(&mut forest, a_id, total + 1);
        stream.extend(Snapshot::encode_chunk(&forest, &ledger, from));
        (stream, forest, ledger)
    }

    #[test]
    fn chunk_sequences_decode_to_the_one_shot_image() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for trial in 0..12u64 {
            let total = 8 + trial * 3;
            let cuts: Vec<u64> = (1..total)
                .filter(|_| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(trial + 1);
                    (rng >> 60) < 4
                })
                .collect();
            let (stream, forest, ledger) = chunk_stream(&cuts, total);
            assert_eq!(chunks(&stream).count(), cuts.len() + 1);
            let chunked = Snapshot::decode(&stream)
                .unwrap_or_else(|e| panic!("trial {trial} cuts {cuts:?}: {e}"));
            let whole = Snapshot::decode(&Snapshot::encode(&forest, &ledger)).unwrap();
            assert_eq!(chunked.ledger.fingerprint(), ledger.fingerprint());
            assert_eq!(chunked.ledger.fingerprint(), whole.ledger.fingerprint());
            assert_eq!(chunked.forest.stats(), whole.forest.stats());
            assert_eq!(chunked.forest.high_qc(), whole.forest.high_qc());
            // Same forest shape: re-encoding either as one chunk is identical.
            assert_eq!(
                Snapshot::encode(&chunked.forest, &chunked.ledger),
                Snapshot::encode(&whole.forest, &whole.ledger)
            );
            // A cut's length is what it lays out, re-basing or continuing.
            for from in [0, ledger.len() / 2] {
                let cut = Snapshot::cut(&forest, &ledger, from);
                assert_eq!(cut.from() == 0, from == 0);
                assert_eq!(cut.len(), cut.encode().len(), "trial {trial} from {from}");
            }
        }
    }

    #[test]
    fn suffix_decodes_onto_a_base_and_a_rebase_supersedes() {
        let (stream, _, ledger) = chunk_stream(&[4, 9], 14);
        let parts: Vec<Chunk<'_>> = chunks(&stream).map(Result::unwrap).collect();
        assert_eq!(
            parts.iter().map(|c| (c.from, c.to)).collect::<Vec<_>>(),
            [(0, 4), (4, 9), (9, 14)]
        );
        // A requester at height 6 holds chunk 0 and part of chunk 1.
        let base = Ledger::restore(ledger.iter().take(6).cloned().collect());
        let suffix = &stream[parts[0].bytes.len()..];
        let snap = Snapshot::decode_onto(&base, suffix).expect("suffix onto base");
        assert_eq!(snap.ledger.fingerprint(), ledger.fingerprint());
        // The same suffix has no base to stand on at height 3, or alone.
        let short = Ledger::restore(ledger.iter().take(3).cloned().collect());
        assert!(Snapshot::decode_onto(&short, suffix).is_err());
        assert!(Snapshot::decode(suffix).is_err());
        // A gap between chunks is rejected; a `from == 0` chunk re-bases.
        let gap = [parts[0].bytes, parts[2].bytes].concat();
        assert!(Snapshot::decode(&gap).is_err());
        let (rebase, _, other) = chunk_stream(&[], 5);
        let mixed = [&stream[..], &rebase[..]].concat();
        let snap = Snapshot::decode(&mixed).expect("re-based stream");
        assert_eq!(snap.ledger.fingerprint(), other.fingerprint());
    }

    #[test]
    fn wrong_magic_and_unknown_versions_are_typed_errors() {
        let (bytes, _, _) = chunk_stream(&[2, 5], 7);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Snapshot::decode(&bad_magic).err(),
            Some(SnapshotError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[5] = 9;
        assert!(matches!(
            Snapshot::decode(&bad_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        // A chunk of the layout before the bitset certificates (version 2,
        // per-signer QC entries) is refused by its header, not misparsed.
        let mut parent_version = bytes;
        parent_version[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(
            Snapshot::decode(&parent_version).err(),
            Some(SnapshotError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn forged_entry_count_cannot_force_an_allocation() {
        // A chunk that checksums correctly but declares more entries than
        // its couple of hundred bytes can hold is refused before the ledger
        // reserves anything.
        for count in [1u32 << 20, u32::MAX] {
            let mut forged = Snapshot::encode(&BlockForest::new(), &Ledger::new());
            forged[22..26].copy_from_slice(&count.to_be_bytes());
            let crc = crc32(&forged[CHUNK_HEADER_BYTES..]);
            forged[10..14].copy_from_slice(&crc.to_be_bytes());
            assert_eq!(
                Snapshot::decode(&forged).err(),
                Some(SnapshotError::Truncated)
            );
        }
    }
}
