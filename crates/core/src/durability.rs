//! Durability: what of a replica survives a process death, and how it is
//! read back.
//!
//! [`Disk`] is the one place that knows whether the replica writes a segment
//! log ([`bamboo_types::Config::durable_log`]) or keeps only its checkpoint
//! chunks: the consensus path tells it what happened ([`Disk::log_vote`],
//! [`Disk::log_commits`], [`Disk::checkpoint`]) and the step is charged the
//! modeled cost of whatever that wrote. A restart is
//! [`Disk::crash_and_replay`] — the death simulated against the log, then
//! [`rebuild`], a plain function from the records the disk kept to the state
//! they describe.

use bamboo_forest::{BlockForest, CommittedBlock, ForestError, Ledger, Snapshot};
use bamboo_protocols::{make_protocol, Safety};
use bamboo_types::{Bytes, Config, ProtocolKind, QuorumCert, View};

use crate::metrics::RecoveryStats;
use crate::runtime::Step;
use crate::storage::{
    MemoryBackend, Record, RecordKind, ReplayResult, SegmentBackend, SegmentLog, StorageFault,
};

/// One replica's persistent state.
pub(crate) struct Disk {
    /// The durable segment log. The simulator runs it over the deterministic
    /// in-memory backend; the live backends mount real files.
    log: Option<SegmentLog>,
    /// The checkpoint chunks of a replica *without* a log — the only state
    /// that survives its restarts — kept as cuts by the same store a log's
    /// backend is, laid out only when read. With a log mounted this stays
    /// empty: the log's backend holds the one copy.
    chunks: MemoryBackend,
    /// Committed ledger length the stored chunks cover; the next checkpoint
    /// encodes the entries above it. Zero means the next one re-bases.
    checkpoint_height: u64,
    /// The vote watermark the last log replay restored — the bound every
    /// later vote is checked against.
    restored_voted_view: Option<View>,
}

/// What [`rebuild`] recovered from a [`ReplayResult`].
pub(crate) struct Rebuilt {
    pub forest: BlockForest,
    pub ledger: Ledger,
    /// Fresh protocol rules with the lock re-derived and the vote watermark
    /// restored: `voted_view()` is the highest view any intact safety record
    /// carries.
    pub safety: Box<dyn Safety>,
    /// Ledger length the checkpoint image decoded to (0: none, or
    /// undecodable).
    pub image_height: u64,
}

impl Disk {
    pub fn new(config: &Config) -> Self {
        let log = (config.durable_log)
            .then(|| SegmentLog::in_memory(config.segment_bytes, config.fsync_interval));
        Self {
            log,
            chunks: MemoryBackend::new(),
            checkpoint_height: 0,
            restored_voted_view: None,
        }
    }

    pub fn mount(&mut self, log: SegmentLog) {
        self.log = Some(log);
    }

    pub fn log(&self) -> Option<&SegmentLog> {
        self.log.as_ref()
    }

    pub fn restored_voted_view(&self) -> Option<View> {
        self.restored_voted_view
    }

    pub fn checkpoint_height(&self) -> u64 {
        self.checkpoint_height
    }

    /// Arms a crash-point fault on the log (a no-op without one).
    pub fn arm_fault(&mut self, fault: StorageFault) {
        if let Some(log) = self.log.as_mut() {
            log.schedule_fault(fault);
        }
    }

    /// WAL rule: the watermark (and the QC backing it) must be durable
    /// before the vote can reach the wire — flushed immediately, never
    /// batched. `voted` is the watermark the protocol just advanced to, which
    /// must sit strictly above whatever the last restart restored: a
    /// recovered replica never double-votes.
    pub fn log_vote(&mut self, voted: View, high_qc: &QuorumCert, out: &mut Step<'_>) {
        debug_assert!(
            (self.restored_voted_view).is_none_or(|restored| voted > restored),
            "vote at or below the restored voted-view watermark"
        );
        if let Some(log) = self.log.as_mut() {
            let locked = (!high_qc.is_genesis()).then(|| high_qc.clone());
            let written = log.append_synced(Record::Safety(voted, locked));
            out.cpu += out.model.disk_io(written as usize);
        }
    }

    /// Logs the `newly` entries at the ledger's tail (with their commit
    /// metadata) plus the QC state that drove them, as handles: the log
    /// keeps the ledger's own blocks. Batched per `fsync_interval`.
    pub fn log_commits(
        &mut self,
        ledger: &Ledger,
        newly: usize,
        high_qc: &QuorumCert,
        out: &mut Step<'_>,
    ) {
        let Some(log) = self.log.as_mut() else {
            return;
        };
        let mut written = 0u64;
        for entry in ledger.iter().skip(ledger.len() - newly) {
            written += log.append(Record::Committed(entry.clone()));
        }
        written += log.append(Record::Qc(high_qc.clone()));
        out.cpu += out.model.disk_io(written as usize);
    }

    /// Takes a checkpoint when the committed ledger has grown by at least
    /// `interval` blocks since the last one: cuts one chunk — the entries
    /// committed since, plus the current head — and appends it to the stored
    /// image. With a log the chunk is persisted there and the log cut over to
    /// it: older segments are subsumed and pruned. The step is charged for
    /// the bytes the chunk encodes to; nothing is encoded until it is read.
    pub fn checkpoint(
        &mut self,
        interval: Option<u64>,
        forest: &BlockForest,
        ledger: &Ledger,
        stats: &mut RecoveryStats,
        out: &mut Step<'_>,
    ) {
        let len = ledger.len() as u64;
        if interval.is_none_or(|interval| len < self.checkpoint_height + interval) {
            return;
        }
        let cut = Snapshot::cut(forest, ledger, self.checkpoint_height as usize);
        let bytes = cut.len() as u64;
        out.cpu += out.model.snapshot(cut.len());
        self.checkpoint_height = len;
        stats.checkpoints_taken += 1;
        stats.checkpoint_bytes_written += bytes;
        stats.checkpoint_max_write_bytes = stats.checkpoint_max_write_bytes.max(bytes);
        match self.log.as_mut() {
            Some(log) => {
                let written = log.install_cut(len, cut);
                out.cpu += out.model.disk_io(written as usize);
            }
            None => {
                self.chunks.put_cut(len, cut);
                self.chunks.sync();
            }
        }
    }

    /// The stored chunks describe a state the replica just left (it adopted a
    /// peer's snapshot): the next checkpoint re-bases and supersedes them.
    pub fn rebase(&mut self) {
        self.checkpoint_height = 0;
    }

    /// The stored checkpoint chunks that carry ledger entries at or above
    /// `start`, as one stream of whole chunks capped at `max_bytes` (at least
    /// one chunk), with the ledger length it brings a reader to. Read from
    /// the log's backend when one is mounted (its only holder), from the
    /// chunk store otherwise; only the chunks returned are laid out.
    pub fn suffix(&self, start: u64, max_bytes: usize) -> Option<(Bytes, u64)> {
        let suffix = match &self.log {
            Some(log) => log.checkpoint_suffix(start, max_bytes),
            None => self.chunks.checkpoint_suffix(start, max_bytes),
        };
        suffix.map(|(stream, to)| (Bytes::from(stream), to))
    }

    /// A process death and the reboot after it, as the disk sees them. With
    /// a log the death is simulated against it — buffered writes lost, the
    /// optional crash-point `fault` mauling the durable image — and the
    /// longest valid record prefix is read back; without one the disk is the
    /// checkpoint chunk list alone (empty: genesis) and the same rebuild runs
    /// over no records. Returns the state the disk described; the step is
    /// charged the modeled cost of reading it — replay cost scales with bytes
    /// scanned, so recovery latency is a deterministic simulator output.
    pub fn crash_and_replay(
        &mut self,
        fault: Option<StorageFault>,
        protocol: ProtocolKind,
        stats: &mut RecoveryStats,
        out: &mut Step<'_>,
    ) -> Rebuilt {
        let replay = match self.log.as_mut() {
            Some(log) => {
                if let Some(fault) = fault {
                    log.schedule_fault(fault);
                }
                log.crash();
                let replay = log.replay();
                stats.durable_restarts += 1;
                let cost = out.model.disk_io(replay.bytes_read as usize);
                out.cpu += cost;
                stats.log_replay_nanos += cost.as_nanos();
                replay
            }
            None => ReplayResult {
                checkpoint: self.chunks.checkpoint(),
                ..ReplayResult::default()
            },
        };
        if let Some((_, image)) = &replay.checkpoint {
            out.cpu += out.model.snapshot(image.len());
        }
        let rebuilt = rebuild(&replay, protocol, stats);
        self.checkpoint_height = rebuilt.image_height;
        if self.log.is_some() {
            self.restored_voted_view = Some(rebuilt.safety.voted_view());
        }
        rebuilt
    }
}

/// Rebuilds what a disk's contents describe. The checkpoint image is decoded
/// first (an undecodable one leaves genesis in place); blocks and QCs then
/// keep the longest-valid-prefix rule: the first record that frames but does
/// not apply — a decode failure, or a chain gap left by a dropped fsync —
/// ends their replay, and everything after it counts as discarded. The vote
/// watermark does not: it is the maximum over **every** intact safety record,
/// wherever it sits — the WAL rule made each one true when it was written,
/// and nothing that broke around it makes it less so.
pub(crate) fn rebuild(
    replay: &ReplayResult,
    protocol: ProtocolKind,
    stats: &mut RecoveryStats,
) -> Rebuilt {
    let mut state = Rebuilt {
        forest: BlockForest::new(),
        ledger: Ledger::new(),
        safety: make_protocol(protocol),
        image_height: 0,
    };
    if let Some(snap) =
        (replay.checkpoint.as_ref()).and_then(|(_, image)| Snapshot::decode(image).ok())
    {
        state.image_height = snap.ledger.len() as u64;
        (state.forest, state.ledger) = (snap.forest, snap.ledger);
    }

    let mut voted = View::GENESIS;
    let mut locked_qc: Option<QuorumCert> = None;
    let mut restore = |view: View, qc: Option<QuorumCert>| {
        voted = voted.max(view);
        if qc.is_some() {
            locked_qc = qc;
        }
    };
    stats.corrupt_records_discarded += replay.corrupt_records_discarded;
    let mut broken = false;
    for (kind, payload) in &replay.records {
        let applied = match Record::decode(*kind, payload) {
            Ok(Record::Safety(view, qc)) => {
                restore(view, qc);
                true
            }
            _ if broken => false,
            Ok(Record::Committed(committed)) => replay_committed(&mut state, committed),
            Ok(Record::Qc(qc)) => {
                replay_qc(&mut state, qc);
                true
            }
            Ok(Record::Marker(_)) => true,
            Err(_) => false,
        };
        broken |= !applied;
        if broken {
            stats.corrupt_records_discarded += 1;
        } else {
            stats.records_replayed += 1;
        }
    }
    for payload in &replay.stray_safety_records {
        if let Ok(Record::Safety(view, qc)) = Record::decode(RecordKind::SafetyRecord, payload) {
            restore(view, qc);
        }
    }

    // Restore the safety-critical state: re-derive the lock through the
    // protocol's own state-updating rule, then clamp the vote watermark.
    if let Some(qc) = locked_qc {
        replay_qc(&mut state, qc);
    }
    state.safety.restore_voted_view(voted);
    state
}

/// Re-applies one durable committed-block record. Returns false when the
/// record does not extend the recovered chain — the replay-ending signal.
fn replay_committed(state: &mut Rebuilt, committed: CommittedBlock) -> bool {
    let height = committed.block.height.as_u64();
    if height <= state.ledger.len() as u64 {
        // Already covered by the checkpoint image: the image subsumes every
        // record logged before its marker.
        return true;
    }
    if height != state.ledger.len() as u64 + 1 {
        // A hole (dropped fsync) or a record from a divergent history.
        return false;
    }
    let id = committed.block.id;
    match state.forest.insert(committed.block.clone()) {
        Ok(()) | Err(ForestError::Duplicate(_)) => {}
        Err(_) => return false,
    }
    if !committed.block.justify.is_genesis() {
        let justify = committed.block.justify.clone();
        replay_qc(state, justify);
    }
    match state.forest.commit(id) {
        Ok(newly) => {
            (state.ledger).append(newly, committed.committed_in_view, committed.committed_at);
            state.forest.prune_to_committed();
            true
        }
        Err(_) => false,
    }
}

/// Re-registers a replayed QC: forest certification plus the protocol's
/// state-updating rule, with no pacemaker or commit side effects — the
/// commits come from their own records.
fn replay_qc(state: &mut Rebuilt, qc: QuorumCert) {
    if qc.is_genesis() {
        return;
    }
    if state.forest.register_qc(qc.clone()).is_err() {
        state.forest.observe_qc(qc.clone());
    }
    state.safety.update_state(&qc, &state.forest);
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A committed chain built by hand, one block at a time — no replica, no
    //! cluster.

    use super::*;
    use bamboo_crypto::KeyPair;
    use bamboo_types::{Block, BlockId, Height, NodeId, SimTime, Transaction, Vote};

    impl Disk {
        /// The stored checkpoint image, laid out whole: read back from the
        /// log's backend when one is mounted, from the chunk store
        /// otherwise. Empty when no checkpoint was taken.
        pub(crate) fn image(&self) -> Vec<u8> {
            let image = match &self.log {
                Some(log) => log.checkpoint(),
                None => self.chunks.checkpoint(),
            };
            image.map_or_else(Vec::new, |(_, image)| image)
        }
    }

    /// A record as a replay reads it back: its kind and its payload.
    pub(crate) fn as_read(record: &Record) -> (RecordKind, Vec<u8>) {
        let mut payload = Vec::new();
        record.encode_payload(&mut payload);
        (record.kind(), payload)
    }

    /// Registers a three-of-four QC for stored block `id` in `view`.
    fn certify(forest: &mut BlockForest, id: BlockId, view: View) {
        let votes: Vec<Vote> = (0..3)
            .map(|i| Vote::new(id, view, NodeId(i), &KeyPair::from_seed(i)))
            .collect();
        let qc = QuorumCert::from_votes(id, view, &votes);
        forest.register_qc(qc).expect("block is stored");
    }

    /// Extends the committed chain by one certified block carrying one
    /// transaction of `tx_bytes`, proposed and committed in adjacent views.
    pub fn grow(forest: &mut BlockForest, ledger: &mut Ledger, tx_bytes: usize) {
        let height = ledger.len() as u64 + 1;
        let justify = forest.high_qc().clone();
        let block = Block::new(
            View(height),
            Height(height),
            ledger.head(),
            NodeId(height % 4),
            justify,
            vec![Transaction::new(NodeId(9), height, tx_bytes, SimTime::ZERO)],
        );
        let id = block.id;
        forest.insert(block).expect("extends the committed head");
        certify(forest, id, View(height));
        let newly = forest.commit(id).expect("extends the committed head");
        ledger.append(newly, View(height + 1), SimTime(height * 1_000));
        forest.prune_to_committed();
    }

    /// Hangs `blocks` uncommitted blocks above the committed head, each on
    /// a pseudo-random earlier one (so the head forks), every other one
    /// certified. The same `seed` hangs the same blocks.
    pub fn sprout(forest: &mut BlockForest, blocks: u64, seed: u64) {
        let mut ids = vec![forest.committed_head().id];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for i in 0..blocks {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let parent = ids[(state % ids.len() as u64) as usize];
            let height = forest.get(parent).expect("stored").height.next();
            let view = View(1_000_000 + seed * 1_000 + i);
            let tx = Transaction::new(NodeId(8), view.as_u64(), (i % 3) as usize * 7, SimTime(i));
            let block = Block::new(
                view,
                height,
                parent,
                NodeId(i % 4),
                QuorumCert::genesis(),
                vec![tx],
            );
            let id = block.id;
            forest.insert(block).expect("parent is stored");
            if i % 2 == 0 {
                certify(forest, id, view);
            }
            ids.push(id);
        }
    }

    /// A chain of `len` blocks.
    pub fn chain(len: usize, tx_bytes: usize) -> (BlockForest, Ledger) {
        let (mut forest, mut ledger) = (BlockForest::new(), Ledger::new());
        for _ in 0..len {
            grow(&mut forest, &mut ledger, tx_bytes);
        }
        (forest, ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::runtime::BufferedTransport;
    use bamboo_forest::chunks;
    use bamboo_sim::CpuModel;
    use bamboo_types::{SimDuration, SimTime};
    use std::sync::{Arc, Mutex};

    /// The records a replica logs while committing `ledger[from..]`: each
    /// commit followed by the QC state, with a vote watermark after every
    /// pair.
    fn records(ledger: &Ledger, from: usize) -> Vec<(RecordKind, Vec<u8>)> {
        let mut records = Vec::new();
        for entry in ledger.iter().skip(from) {
            let qc = &entry.block.justify;
            records.push(as_read(&Record::Committed(entry.clone())));
            records.push(as_read(&Record::Qc(qc.clone())));
            records.push(as_read(&Record::Safety(entry.block.view, None)));
        }
        records
    }

    #[test]
    fn a_hole_ends_block_replay_but_not_the_watermark() {
        let (_, ledger) = chain(6, 8);
        let mut records = records(&ledger, 0);
        // A dropped fsync took the three records of block 3.
        records.drain(6..9);
        let replay = ReplayResult {
            records,
            ..ReplayResult::default()
        };
        let mut stats = RecoveryStats::default();
        let rebuilt = rebuild(&replay, ProtocolKind::HotStuff, &mut stats);
        assert_eq!(rebuilt.ledger.len(), 2, "blocks stop at the hole");
        assert!(rebuilt.ledger.consistent_with(&ledger));
        assert_eq!(stats.records_replayed, 6);
        assert_eq!(stats.corrupt_records_discarded, 9, "everything behind it");
        assert_eq!(
            rebuilt.safety.voted_view(),
            View(6),
            "the newest vote on disk"
        );
        assert_eq!(rebuilt.image_height, 0);
    }

    #[test]
    fn records_the_image_covers_are_skipped() {
        let (mut forest, mut ledger) = chain(3, 8);
        let image = Snapshot::encode(&forest, &ledger);
        for _ in 0..2 {
            grow(&mut forest, &mut ledger, 8);
        }
        // The log still holds blocks 2 and 3 from before the cut.
        let replay = ReplayResult {
            checkpoint: Some((3, image)),
            records: records(&ledger, 1),
            ..ReplayResult::default()
        };
        let mut stats = RecoveryStats::default();
        let rebuilt = rebuild(&replay, ProtocolKind::Streamlet, &mut stats);
        assert_eq!(rebuilt.image_height, 3);
        assert_eq!(rebuilt.ledger.len(), 5);
        assert!(rebuilt.ledger.consistent_with(&ledger));
        assert_eq!(rebuilt.ledger.fingerprint(), ledger.fingerprint());
        assert_eq!(
            (stats.records_replayed, stats.corrupt_records_discarded),
            (12, 0)
        );
    }

    #[test]
    fn a_stray_safety_record_raises_the_watermark() {
        let (_, ledger) = chain(2, 8);
        let replay = ReplayResult {
            records: records(&ledger, 0),
            stray_safety_records: vec![
                as_read(&Record::Safety(View(12), None)).1,
                b"not a safety record".to_vec(),
                as_read(&Record::Safety(View(7), None)).1,
            ],
            corrupt_records_discarded: 3,
            ..ReplayResult::default()
        };
        let mut stats = RecoveryStats::default();
        let rebuilt = rebuild(&replay, ProtocolKind::TwoChainHotStuff, &mut stats);
        assert_eq!(rebuilt.safety.voted_view(), View(12));
        assert_eq!(rebuilt.ledger.len(), 2);
        assert_eq!(
            (stats.records_replayed, stats.corrupt_records_discarded),
            (6, 3)
        );
    }

    #[test]
    fn a_cut_is_exactly_the_bytes_it_encodes_to() {
        for (trial, len) in [0usize, 1, 3, 8].into_iter().enumerate() {
            for head in [0u64, 1, 6] {
                let (mut forest, ledger) = chain(len, 8 + trial * 5);
                sprout(&mut forest, head, trial as u64 * 7 + head);
                for from in 0..=len {
                    let cut = Snapshot::cut(&forest, &ledger, from);
                    let bytes = cut.encode();
                    let at = format!("len {len}, head {head}, from {from}");
                    assert_eq!(cut.len(), bytes.len(), "{at}");
                    assert_eq!(cut.from(), from as u64, "{at}");
                    let snap = Snapshot::decode_onto(&ledger, &bytes).expect(&at);
                    assert_eq!(snap.ledger.fingerprint(), ledger.fingerprint(), "{at}");
                    let again = Snapshot::encode_chunk(&snap.forest, &snap.ledger, from);
                    assert_eq!(again, bytes, "{at}: the decoded state cuts back to it");
                }
            }
        }
        // A re-base: state adopted from a peer's image cuts to that image.
        let (mut forest, ledger) = chain(5, 8);
        sprout(&mut forest, 4, 3);
        let image = Snapshot::encode(&forest, &ledger);
        let adopted = Snapshot::decode(&image).expect("own image decodes");
        let cut = Snapshot::cut(&adopted.forest, &adopted.ledger, 0);
        assert_eq!((cut.len(), cut.encode()), (image.len(), image));
    }

    #[test]
    fn a_cut_encodes_what_an_eager_encode_wrote_at_cut_time() {
        for from in [0usize, 2, 4] {
            let (mut forest, mut ledger) = chain(4, 16);
            sprout(&mut forest, 5, from as u64 + 1);
            let cut = Snapshot::cut(&forest, &ledger, from);
            let eager = Snapshot::encode_chunk(&forest, &ledger, from);
            let held: Vec<_> = forest.iter().map(|block| block.id).collect();
            // The chain moves on past the cut: commits prune the forks it
            // holds, and new ones sprout.
            for round in 0..3 {
                grow(&mut forest, &mut ledger, 8);
                sprout(&mut forest, 3, 100 + round);
            }
            assert!(held.iter().any(|id| !forest.contains(*id)), "pruned");
            assert_eq!(cut.encode(), eager, "from {from}");
        }
    }

    #[test]
    fn a_checkpoint_lives_in_the_log_when_one_is_mounted() {
        for durable_log in [false, true] {
            let config = Config {
                nodes: 4,
                durable_log,
                ..Config::default()
            };
            let mut disk = Disk::new(&config);
            let (mut forest, mut ledger) = chain(0, 8);
            let mut stats = RecoveryStats::default();
            let mut wire = BufferedTransport::new();
            let model = CpuModel::new(SimDuration::from_micros(10));
            let mut out = Step::new(SimTime::ZERO, &mut wire, model);
            for _ in 0..9 {
                grow(&mut forest, &mut ledger, 8);
                disk.checkpoint(Some(4), &forest, &ledger, &mut stats, &mut out);
            }
            assert_eq!((stats.checkpoints_taken, disk.checkpoint_height()), (2, 8));
            assert!(out.cpu > SimDuration::ZERO, "cuts are charged to the step");
            // With a log mounted its backend holds the only copy.
            assert_eq!(disk.chunks.checkpoint().is_none(), durable_log);
            let image = disk.image();
            let stored: Vec<_> = chunks(&image).map(Result::unwrap).collect();
            let spans: Vec<_> = stored.iter().map(|c| (c.from, c.to)).collect();
            assert_eq!(spans, [(0, 4), (4, 8)]);
            let (suffix, to) = disk.suffix(4, usize::MAX).expect("second chunk");
            assert_eq!((&suffix[..], to), (stored[1].bytes, 8));
            assert!(disk.suffix(8, usize::MAX).is_none());
        }
    }

    /// The served-suffix walk over the whole laid-out image: the oracle for
    /// [`Disk::suffix`].
    fn suffix_of_image(image: &[u8], start: u64, max_bytes: usize) -> Option<(Bytes, u64)> {
        let mut stream = Vec::new();
        let mut to = start;
        for chunk in chunks(image) {
            let chunk = chunk.ok()?;
            if chunk.to <= start {
                continue;
            }
            if !stream.is_empty() && stream.len() + chunk.bytes.len() > max_bytes {
                break;
            }
            stream.extend_from_slice(chunk.bytes);
            to = chunk.to;
        }
        (!stream.is_empty()).then(|| (Bytes::from(stream), to))
    }

    #[test]
    fn a_served_suffix_is_what_the_image_walk_finds() {
        for durable_log in [false, true] {
            let config = Config {
                nodes: 4,
                durable_log,
                ..Config::default()
            };
            let mut disk = Disk::new(&config);
            let (mut forest, mut ledger) = chain(0, 8);
            let mut stats = RecoveryStats::default();
            let mut wire = BufferedTransport::new();
            let model = CpuModel::new(SimDuration::from_micros(10));
            let mut out = Step::new(SimTime::ZERO, &mut wire, model);
            for block in 1..=18usize {
                grow(&mut forest, &mut ledger, 8 + block * 5);
                disk.checkpoint(Some(4), &forest, &ledger, &mut stats, &mut out);
                if block == 13 {
                    disk.rebase(); // adopted a peer's state: the next cut re-bases
                }
                let image = disk.image();
                let first = chunks(&image).next().and_then(Result::ok);
                let one_chunk = first.map_or(1, |chunk| chunk.bytes.len());
                for start in 0..=disk.checkpoint_height() {
                    for max_bytes in [1, one_chunk, usize::MAX] {
                        let at = format!("log {durable_log}, {block} blocks, {start}, {max_bytes}");
                        let want = suffix_of_image(&image, start, max_bytes);
                        assert_eq!(disk.suffix(start, max_bytes), want, "{at}");
                    }
                }
            }
            assert_eq!(stats.checkpoints_taken, 5, "log {durable_log}");
        }
    }

    /// Keeps every record a log hands it, as handed.
    struct Spy(Arc<Mutex<Vec<Record>>>);

    impl SegmentBackend for Spy {
        fn append(&mut self, _: u64, _: &[u8]) {}
        fn sync(&mut self) {}
        fn drop_buffered(&mut self) {}
        fn crash(&mut self) {}
        fn segments(&self) -> Vec<(u64, Vec<u8>)> {
            Vec::new()
        }
        fn set_segment(&mut self, _: u64, _: Vec<u8>) {}
        fn drop_below(&mut self, _: u64) {}
        fn put_checkpoint(&mut self, _: u64, _: &[u8]) {}
        fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
            None
        }
        fn append_record(&mut self, _: u64, record: &Record) {
            self.0.lock().expect("spy lock").push(record.clone());
        }
    }

    #[test]
    fn a_log_holds_the_ledgers_own_blocks() {
        let held = Arc::new(Mutex::new(Vec::new()));
        let config = Config {
            nodes: 4,
            ..Config::default()
        };
        let mut disk = Disk::new(&config);
        disk.mount(SegmentLog::new(
            Box::new(Spy(Arc::clone(&held))),
            1 << 20,
            8,
        ));
        let (forest, ledger) = chain(3, 8);
        let mut wire = BufferedTransport::new();
        let model = CpuModel::new(SimDuration::from_micros(10));
        let mut out = Step::new(SimTime::ZERO, &mut wire, model);
        disk.log_commits(&ledger, 3, forest.high_qc(), &mut out);
        disk.log_vote(View(4), forest.high_qc(), &mut out);
        assert!(out.cpu > SimDuration::ZERO, "the writes are charged");
        let held = held.lock().expect("spy lock");
        let kinds: Vec<_> = held.iter().map(Record::kind).collect();
        let committed = RecordKind::CommittedBlock;
        let logged = [committed, committed, committed, RecordKind::Qc];
        assert_eq!(kinds, [&logged[..], &[RecordKind::SafetyRecord]].concat());
        for (record, entry) in held.iter().zip(ledger.iter()) {
            let Record::Committed(committed) = record else {
                panic!("not a committed entry: {record:?}");
            };
            let height = entry.block.height;
            assert!(
                Arc::ptr_eq(&committed.block, &entry.block),
                "{height:?} copied"
            );
        }
    }
}
