//! Durable storage: an append-only segment log plus a persisted, append-only
//! list of checkpoint chunks (DESIGN.md §8).
//!
//! The log is the replica's write-ahead record of everything it must not
//! forget across process death: committed blocks, the QCs that drove them,
//! checkpoint markers, and — most importantly — a [`RecordKind::SafetyRecord`]
//! carrying the voted-view watermark and locked QC, flushed *before* any vote
//! leaves the process. On restart the replica replays the latest checkpoint
//! image plus the log tail to rebuild its forest/ledger and restore the
//! safety state, falling back to network sync only for whatever it missed
//! while down. The backend is the only holder of the checkpoint: a replica
//! with a log mounted keeps no second copy and serves state transfer from
//! [`SegmentLog::checkpoint_suffix`]. The in-memory backend holds the
//! replica's records and chunks as the values they encode ([`Record`]s and
//! [`Cut`]s) and lays them out only when they are read.
//!
//! ## Record framing
//!
//! Every record is `[u32 len][u32 crc][u8 kind][payload…]`, big-endian, where
//! `len` counts the payload bytes and `crc` is CRC-32 (IEEE) over the kind
//! byte followed by the payload. The decoder recovers the **longest valid
//! prefix**: the first record that fails the length, kind, or CRC check ends
//! replay — a torn tail is indistinguishable from a crash mid-write, which is
//! exactly what it is. The one exception is the vote watermark: a
//! [`RecordKind::SafetyRecord`] that still frames and passes its CRC *after*
//! the break is reported too (as a stray), because "never vote at or below
//! this view again" is true on its own, whatever order was lost around it.
//!
//! ## Backends and determinism
//!
//! The [`SegmentBackend`] trait splits the byte-shuffling from the framing
//! policy. The simulator uses [`MemoryBackend`], whose explicit
//! durable/buffered split models fsync semantics deterministically (and lets
//! [`StorageFault`]s maul the durable image byte-for-byte reproducibly);
//! the threaded cluster uses [`FileBackend`] over real temp-dir files.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use bamboo_forest::{
    chunks, decode_qc_record, encode_committed_record, encode_qc_record, CommittedBlock, Cut,
    SnapshotError,
};
use bamboo_types::wire::{
    block_encoded_len, crc32_update, encode_opt_qc, opt_qc_encoded_len, qc_encoded_len,
};
use bamboo_types::{QuorumCert, View};

/// Frame overhead per record: `[u32 len][u32 crc][u8 kind]`.
pub const RECORD_HEADER_BYTES: usize = 9;

/// Sanity bound on a single record's payload. Anything larger is treated as
/// framing corruption — a real payload (a block with its QC) is orders of
/// magnitude smaller.
const MAX_PAYLOAD_BYTES: u32 = 64 << 20;

pub use bamboo_types::wire::crc32;

fn crc_of(kind: u8, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &[kind]), payload)
}

// ---- records ----------------------------------------------------------------

/// What a log record carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A committed ledger entry (block + commit metadata), encoded with
    /// [`bamboo_forest::encode_committed_record`].
    CommittedBlock,
    /// A quorum certificate, encoded with [`bamboo_forest::encode_qc_record`].
    Qc,
    /// Marks that the checkpoint image at the recorded height subsumes every
    /// earlier segment. Always the first record of a fresh segment.
    CheckpointMarker,
    /// The pre-vote safety state `{ voted_view, locked_qc }`, flushed before
    /// the vote it covers is sent.
    SafetyRecord,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::CommittedBlock => 1,
            RecordKind::Qc => 2,
            RecordKind::CheckpointMarker => 3,
            RecordKind::SafetyRecord => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::CommittedBlock),
            2 => Some(RecordKind::Qc),
            3 => Some(RecordKind::CheckpointMarker),
            4 => Some(RecordKind::SafetyRecord),
            _ => None,
        }
    }
}

fn frame_into(out: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    out.reserve(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc_of(kind.tag(), payload).to_be_bytes());
    out.push(kind.tag());
    out.extend_from_slice(payload);
}

/// One log record, held as the values its payload encodes — for blocks and
/// QCs, the shared handles the replica already owns. Its framed length is
/// exact without laying it out; [`Record::encode_into`] frames the payload
/// the record codecs produce, the one layout.
#[derive(Clone, Debug)]
pub enum Record {
    /// A committed ledger entry ([`RecordKind::CommittedBlock`]).
    Committed(CommittedBlock),
    /// A quorum certificate ([`RecordKind::Qc`]).
    Qc(QuorumCert),
    /// The height of the checkpoint image ([`RecordKind::CheckpointMarker`]).
    Marker(u64),
    /// The voted view and locked QC ([`RecordKind::SafetyRecord`]).
    Safety(View, Option<QuorumCert>),
}

impl Record {
    /// The kind it is framed under.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::Committed(_) => RecordKind::CommittedBlock,
            Record::Qc(_) => RecordKind::Qc,
            Record::Marker(_) => RecordKind::CheckpointMarker,
            Record::Safety(..) => RecordKind::SafetyRecord,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            Record::Committed(committed) => encode_committed_record(committed),
            Record::Qc(qc) => encode_qc_record(qc),
            Record::Marker(height) => encode_checkpoint_marker(*height),
            Record::Safety(view, locked) => encode_safety_record(*view, locked.as_ref()),
        }
    }

    /// Exactly the bytes [`Record::encode_into`] appends, header included.
    pub fn framed_len(&self) -> usize {
        RECORD_HEADER_BYTES
            + match self {
                Record::Committed(committed) => block_encoded_len(&committed.block) + 8 + 8,
                Record::Qc(qc) => qc_encoded_len(qc),
                Record::Marker(_) => 8,
                Record::Safety(_, locked) => 8 + opt_qc_encoded_len(locked.as_ref()),
            }
    }

    /// Lays the framed record out at the end of `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        frame_into(out, self.kind(), &self.payload());
        debug_assert_eq!(
            out.len() - start,
            self.framed_len(),
            "record length is exact"
        );
    }
}

/// Encodes the pre-vote safety state: `[u64 voted_view][u8 tag][qc…]`.
pub fn encode_safety_record(voted_view: View, locked_qc: Option<&QuorumCert>) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + opt_qc_encoded_len(locked_qc));
    out.extend_from_slice(&voted_view.as_u64().to_be_bytes());
    encode_opt_qc(&mut out, locked_qc);
    out
}

/// Decodes a payload produced by [`encode_safety_record`].
///
/// # Errors
///
/// Returns the [`SnapshotError`] describing the first structural violation.
pub fn decode_safety_record(bytes: &[u8]) -> Result<(View, Option<QuorumCert>), SnapshotError> {
    if bytes.len() < 9 {
        return Err(SnapshotError::Truncated);
    }
    let view = View(u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes")));
    match bytes[8] {
        0 if bytes.len() == 9 => Ok((view, None)),
        0 => Err(SnapshotError::Corrupt("trailing bytes after record")),
        1 => Ok((view, Some(decode_qc_record(&bytes[9..])?))),
        _ => Err(SnapshotError::Corrupt("invalid option tag")),
    }
}

/// Encodes a checkpoint marker payload: the committed height of the image.
pub fn encode_checkpoint_marker(height: u64) -> Vec<u8> {
    height.to_be_bytes().to_vec()
}

/// Decodes a payload produced by [`encode_checkpoint_marker`].
///
/// # Errors
///
/// Returns [`SnapshotError::Truncated`] unless the payload is exactly 8 bytes.
pub fn decode_checkpoint_marker(bytes: &[u8]) -> Result<u64, SnapshotError> {
    let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u64::from_be_bytes(arr))
}

// ---- stream decoding ---------------------------------------------------------

/// The outcome of decoding one segment's byte stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecodedStream {
    /// The longest valid prefix of records, in append order.
    pub records: Vec<(RecordKind, Vec<u8>)>,
    /// Payloads of the CRC-valid [`RecordKind::SafetyRecord`]s found *past*
    /// the first failure, in append order (they also count as `discarded`).
    pub stray_safety_records: Vec<Vec<u8>>,
    /// Records lost past the first failure: the failed record itself plus
    /// every later record whose framing is still walkable (CRC corruption
    /// leaves length fields intact; a torn tail does not). Deterministic, so
    /// a replayed run reproduces the recovery counters exactly.
    pub discarded: u64,
    /// Whether the stream ended exactly on a record boundary with every
    /// check passing.
    pub clean: bool,
}

/// Reads one frame header, returning `(payload_len, crc, kind_tag)` if the
/// declared length fits in the remaining bytes.
fn read_header(rest: &[u8]) -> Option<(usize, u32, u8)> {
    if rest.len() < RECORD_HEADER_BYTES {
        return None;
    }
    let len = u32::from_be_bytes(rest[..4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_BYTES || (len as usize) > rest.len() - RECORD_HEADER_BYTES {
        return None;
    }
    let crc = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
    Some((len as usize, crc, rest[8]))
}

/// One record frame of a segment: where it starts, its kind when the tag is
/// known and the CRC holds, and its payload.
struct Frame<'a> {
    start: usize,
    kind: Option<RecordKind>,
    payload: &'a [u8],
}

/// Walks a segment's record frames from its start, as far as the length
/// fields allow. A tail no header can frame (torn or truncated) is one
/// `None`, which ends the walk.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Option<Frame<'_>>> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let start = pos;
        (start < bytes.len()).then(|| {
            let header = read_header(&bytes[start..]);
            pos = header.map_or(bytes.len(), |(len, ..)| start + RECORD_HEADER_BYTES + len);
            let (_, crc, tag) = header?;
            let payload = &bytes[start + RECORD_HEADER_BYTES..pos];
            let kind = RecordKind::from_tag(tag).filter(|_| crc_of(tag, payload) == crc);
            Some(Frame {
                start,
                kind,
                payload,
            })
        })
    })
}

/// Decodes a segment byte stream into its longest valid prefix of records.
/// Never panics: any framing, kind, or CRC violation ends the valid prefix,
/// after which the walk continues (where framing allows) purely to count the
/// records being discarded.
pub fn decode_records(bytes: &[u8]) -> DecodedStream {
    let mut out = DecodedStream {
        clean: true,
        ..DecodedStream::default()
    };
    for frame in frames(bytes) {
        // An unwalkable tail is a record of unknowable extent: one loss.
        match frame.and_then(|frame| Some((frame.kind?, frame.payload))) {
            Some((kind, payload)) if out.clean => out.records.push((kind, payload.to_vec())),
            valid => {
                if let Some((RecordKind::SafetyRecord, payload)) = valid {
                    out.stray_safety_records.push(payload.to_vec());
                }
                out.clean = false;
                out.discarded += 1;
            }
        }
    }
    out
}

/// The payloads of the safety records among `records`, in order.
fn safety_payloads(records: Vec<(RecordKind, Vec<u8>)>) -> impl Iterator<Item = Vec<u8>> {
    let safety = |(kind, payload)| (kind == RecordKind::SafetyRecord).then_some(payload);
    records.into_iter().filter_map(safety)
}

// ---- fault injection ---------------------------------------------------------

/// A crash-point storage fault, injected deterministically by the scenario
/// engine when a durable restart fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The final durable record is cut mid-write, as if the process died
    /// between `write` and `fsync`.
    TornTail,
    /// The last non-empty segment loses its second half — gross media damage
    /// rather than a torn write.
    TruncateSegment,
    /// One byte of the CRC field of durable record `record` (clamped to the
    /// last record) is flipped.
    CorruptCrc {
        /// Zero-based index of the record, counted across all segments.
        record: u64,
    },
    /// The fsync whose batch contains write index `index` silently fails:
    /// that whole batch never reaches the platter, leaving a record-aligned
    /// hole later appends write past.
    DropFsync {
        /// Zero-based append index of a record in the dropped batch.
        index: u64,
    },
}

// ---- backends ----------------------------------------------------------------

/// Byte-level storage for the segment log: numbered append-only segments plus
/// an append-only list of checkpoint chunks. Implementations distinguish
/// *buffered* writes (lost on crash) from *durable* ones (survive crash) so
/// fsync semantics are explicit.
pub trait SegmentBackend: Send {
    /// Buffers `bytes` at the tail of `segment`, creating it on demand.
    fn append(&mut self, segment: u64, bytes: &[u8]);
    /// Promotes every buffered byte (segments and checkpoint) to durable.
    fn sync(&mut self);
    /// Discards buffered segment bytes without persisting them — the failed
    /// fsync of [`StorageFault::DropFsync`]. File-backed storage cannot
    /// un-write, so only deterministic backends model this.
    fn drop_buffered(&mut self);
    /// Simulates process death: anything not yet durable vanishes.
    fn crash(&mut self);
    /// Durable segments in index order (empty segments omitted).
    fn segments(&self) -> Vec<(u64, Vec<u8>)>;
    /// Overwrites one durable segment's bytes (fault injection).
    fn set_segment(&mut self, segment: u64, bytes: Vec<u8>);
    /// Drops every segment with an index below `segment` (prune).
    fn drop_below(&mut self, segment: u64);
    /// Appends the checkpoint chunk cut at `height` to the stored image
    /// (durable after [`Self::sync`]). Anything but a continuation chunk
    /// (`from > 0`) replaces every chunk stored before it.
    fn put_checkpoint(&mut self, height: u64, bytes: &[u8]);
    /// The durable image — every stored chunk, concatenated — and the height
    /// of its newest chunk, if any. O(image): paid once per restart, never
    /// on the commit path.
    fn checkpoint(&self) -> Option<(u64, Vec<u8>)>;
    /// Appends a chunk that is cut but not yet laid out, with the semantics
    /// of [`Self::put_checkpoint`]. The default lays it out and writes the
    /// bytes; a backend that can keep the cut itself encodes it only when
    /// it is read.
    fn put_cut(&mut self, height: u64, cut: Cut) {
        self.put_checkpoint(height, &cut.encode());
    }
    /// Buffers one record at the tail of `segment`, as [`Self::append`] of
    /// its framed bytes would — which is what the default does. A backend
    /// that can keep the value lays it out only when [`Self::segments`]
    /// reads it.
    fn append_record(&mut self, segment: u64, record: &Record) {
        let mut bytes = Vec::with_capacity(record.framed_len());
        record.encode_into(&mut bytes);
        self.append(segment, &bytes);
    }
    /// The durable chunks that carry ledger entries above `start`, whole and
    /// in order, as one stream capped at `max_bytes` (the first chunk always
    /// goes in), with the ledger length it brings a reader to. `None` when
    /// no chunk reaches above `start`, or a chunk header on the way does
    /// not parse. The default walks [`Self::checkpoint`]; a backend that
    /// keeps cuts lays out only the chunks it returns.
    fn checkpoint_suffix(&self, start: u64, max_bytes: usize) -> Option<(Vec<u8>, u64)> {
        let (_, image) = self.checkpoint()?;
        take_suffix(pieces(&image), start, max_bytes)
    }
}

/// Whether a checkpoint write supersedes the stored image instead of
/// extending it: true for everything except a well-formed continuation chunk
/// (`from > 0`), so a whole image — or an opaque blob — still replaces.
fn rebases(chunk: &[u8]) -> bool {
    !matches!(chunks(chunk).next(), Some(Ok(first)) if first.from > 0)
}

/// One stored checkpoint chunk: the cut a replica handed over, or the bytes
/// a raw [`SegmentBackend::put_checkpoint`] wrote.
#[derive(Debug)]
enum StoredChunk {
    Cut(Cut),
    Bytes(Vec<u8>),
}

impl StoredChunk {
    fn rebases(&self) -> bool {
        match self {
            StoredChunk::Cut(cut) => cut.from() == 0,
            StoredChunk::Bytes(bytes) => rebases(bytes),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StoredChunk::Cut(cut) => cut.encode_into(out),
            StoredChunk::Bytes(bytes) => out.extend_from_slice(bytes),
        }
    }
}

/// Folds stored `(height, chunk)` pairs, oldest first, into the image they
/// form, honouring the supersede rule.
fn concat_image<C: Borrow<StoredChunk>>(
    stored: impl IntoIterator<Item = (u64, C)>,
) -> Option<(u64, Vec<u8>)> {
    stored.into_iter().fold(None, |image, (height, chunk)| {
        let chunk = chunk.borrow();
        let mut bytes = match image {
            Some((_, bytes)) if !chunk.rebases() => bytes,
            _ => Vec::new(),
        };
        chunk.encode_into(&mut bytes);
        Some((height, bytes))
    })
}

/// One chunk of a stored image as a served suffix takes it — a cut, or
/// laid-out bytes — with the ledger length it ends at.
enum Piece<'a> {
    Cut(&'a Cut),
    Bytes(&'a [u8]),
}

/// The chunks of a laid-out stream, each with the ledger length it ends at.
fn pieces(stream: &[u8]) -> impl Iterator<Item = Result<(u64, Piece<'_>), SnapshotError>> {
    chunks(stream).map(|chunk| chunk.map(|chunk| (chunk.to, Piece::Bytes(chunk.bytes))))
}

/// Lays out the chunks that end above `start`, in order, while the stream
/// stays within `max_bytes` (the first always goes in). A chunk that does
/// not parse on the way yields nothing.
fn take_suffix<'a>(
    pieces: impl IntoIterator<Item = Result<(u64, Piece<'a>), SnapshotError>>,
    start: u64,
    max_bytes: usize,
) -> Option<(Vec<u8>, u64)> {
    let (mut stream, mut to) = (Vec::new(), start);
    for piece in pieces {
        let (end, piece) = piece.ok()?;
        if end <= start {
            continue;
        }
        let len = match piece {
            Piece::Cut(cut) => cut.len(),
            Piece::Bytes(bytes) => bytes.len(),
        };
        if !stream.is_empty() && stream.len() + len > max_bytes {
            break;
        }
        match piece {
            Piece::Cut(cut) => cut.encode_into(&mut stream),
            Piece::Bytes(bytes) => stream.extend_from_slice(bytes),
        }
        to = end;
    }
    (!stream.is_empty()).then_some((stream, to))
}

/// One stored stretch of a segment: a record handed over as a value, or
/// bytes laid out already (a raw append, a segment a fault rewrote, a
/// watermark read back from disk). Never empty.
#[derive(Clone, Debug)]
enum StoredRecord {
    Value(Record),
    Bytes(Vec<u8>),
}

impl StoredRecord {
    fn len(&self) -> usize {
        match self {
            StoredRecord::Value(record) => record.framed_len(),
            StoredRecord::Bytes(bytes) => bytes.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StoredRecord::Value(record) => record.encode_into(out),
            StoredRecord::Bytes(bytes) => out.extend_from_slice(bytes),
        }
    }
}

#[derive(Clone, Debug, Default)]
struct SegmentBuf {
    durable: Vec<StoredRecord>,
    buffered: Vec<StoredRecord>,
}

/// Deterministic in-memory backend used by the simulator, and the checkpoint
/// store of a replica without a log. The durable/buffered split makes
/// fsync — and its injected failures — reproducible. A record handed over
/// as a [`Record`] and a chunk handed over as a [`Cut`] are kept as such:
/// the blocks and QCs they name stay the replica's shared handles, and their
/// bytes exist only while [`SegmentBackend::segments`],
/// [`SegmentBackend::checkpoint`] or [`SegmentBackend::checkpoint_suffix`]
/// reads them.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    segments: BTreeMap<u64, SegmentBuf>,
    checkpoint_durable: Vec<(u64, StoredChunk)>,
    checkpoint_buffered: Vec<(u64, StoredChunk)>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SegmentBackend for MemoryBackend {
    fn append(&mut self, segment: u64, bytes: &[u8]) {
        let buf = self.segments.entry(segment).or_default();
        if !bytes.is_empty() {
            buf.buffered.push(StoredRecord::Bytes(bytes.to_vec()));
        }
    }

    fn sync(&mut self) {
        for buf in self.segments.values_mut() {
            buf.durable.append(&mut buf.buffered);
        }
        for (height, chunk) in self.checkpoint_buffered.drain(..) {
            if chunk.rebases() {
                self.checkpoint_durable.clear();
            }
            self.checkpoint_durable.push((height, chunk));
        }
    }

    fn drop_buffered(&mut self) {
        for buf in self.segments.values_mut() {
            buf.buffered.clear();
        }
    }

    fn crash(&mut self) {
        self.drop_buffered();
        self.checkpoint_buffered.clear();
        self.segments.retain(|_, buf| !buf.durable.is_empty());
    }

    fn segments(&self) -> Vec<(u64, Vec<u8>)> {
        let laid_out = |(&seg, buf): (&u64, &SegmentBuf)| {
            let mut bytes = Vec::new();
            for stored in &buf.durable {
                stored.encode_into(&mut bytes);
            }
            (seg, bytes)
        };
        let durable = self
            .segments
            .iter()
            .filter(|(_, buf)| !buf.durable.is_empty());
        durable.map(laid_out).collect()
    }

    fn set_segment(&mut self, segment: u64, bytes: Vec<u8>) {
        let stored = (!bytes.is_empty()).then_some(StoredRecord::Bytes(bytes));
        self.segments.entry(segment).or_default().durable = stored.into_iter().collect();
    }

    fn drop_below(&mut self, segment: u64) {
        self.segments.retain(|&seg, _| seg >= segment);
    }

    fn put_checkpoint(&mut self, height: u64, bytes: &[u8]) {
        let chunk = StoredChunk::Bytes(bytes.to_vec());
        self.checkpoint_buffered.push((height, chunk));
    }

    fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
        concat_image(self.checkpoint_durable.iter().map(|(h, chunk)| (*h, chunk)))
    }

    fn put_cut(&mut self, height: u64, cut: Cut) {
        self.checkpoint_buffered
            .push((height, StoredChunk::Cut(cut)));
    }

    fn append_record(&mut self, segment: u64, record: &Record) {
        let buf = self.segments.entry(segment).or_default();
        buf.buffered.push(StoredRecord::Value(record.clone()));
    }

    fn checkpoint_suffix(&self, start: u64, max_bytes: usize) -> Option<(Vec<u8>, u64)> {
        let mut stored = Vec::new();
        for (_, chunk) in &self.checkpoint_durable {
            match chunk {
                StoredChunk::Cut(cut) => stored.push(Ok((cut.to(), Piece::Cut(cut)))),
                StoredChunk::Bytes(bytes) => stored.extend(pieces(bytes)),
            }
        }
        take_suffix(stored, start, max_bytes)
    }
}

/// Real-file backend used by the threaded cluster: `segment-NNNNNNNN.log`
/// files plus one `checkpoint-HEIGHT.bsnp` file per checkpoint chunk (written
/// once, never rewritten) in one directory, with `File::sync_data` behind
/// [`SegmentBackend::sync`].
///
/// Process death inside the *same* OS instance keeps page-cache writes, so
/// un-fsynced-byte loss (and [`StorageFault::DropFsync`]) cannot be modeled
/// here; crash-point fault injection is the deterministic backend's job.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    active: Option<(u64, fs::File)>,
}

impl FileBackend {
    /// Opens (creating if needed) the storage directory.
    ///
    /// # Errors
    ///
    /// Propagates the `std::io::Error` if the directory cannot be created.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            active: None,
        })
    }

    fn segment_path(&self, segment: u64) -> PathBuf {
        self.dir.join(format!("segment-{segment:08}.log"))
    }

    /// The `<prefix><number><suffix>` files of the directory, by number.
    fn numbered_files(&self, prefix: &str, suffix: &str) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(number) = name
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                out.push((number, entry.path()));
            }
        }
        out.sort_unstable_by_key(|(number, _)| *number);
        out
    }

    fn segment_files(&self) -> Vec<(u64, PathBuf)> {
        self.numbered_files("segment-", ".log")
    }

    fn checkpoint_files(&self) -> Vec<(u64, PathBuf)> {
        self.numbered_files("checkpoint-", ".bsnp")
    }
}

impl SegmentBackend for FileBackend {
    fn append(&mut self, segment: u64, bytes: &[u8]) {
        if self.active.as_ref().map(|(seg, _)| *seg) != Some(segment) {
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.segment_path(segment))
                .expect("open log segment");
            self.active = Some((segment, file));
        }
        let (_, file) = self.active.as_mut().expect("just opened");
        file.write_all(bytes).expect("append to log segment");
    }

    fn sync(&mut self) {
        if let Some((_, file)) = self.active.as_mut() {
            file.sync_data().expect("fsync log segment");
        }
    }

    fn drop_buffered(&mut self) {
        // Files cannot un-write; DropFsync is a deterministic-backend fault.
    }

    fn crash(&mut self) {
        self.active = None;
    }

    fn segments(&self) -> Vec<(u64, Vec<u8>)> {
        self.segment_files()
            .into_iter()
            .filter_map(|(idx, path)| {
                let mut bytes = Vec::new();
                fs::File::open(path)
                    .and_then(|mut f| f.read_to_end(&mut bytes))
                    .ok()?;
                (!bytes.is_empty()).then_some((idx, bytes))
            })
            .collect()
    }

    fn set_segment(&mut self, segment: u64, bytes: Vec<u8>) {
        self.active = None;
        fs::write(self.segment_path(segment), bytes).expect("rewrite log segment");
    }

    fn drop_below(&mut self, segment: u64) {
        for (idx, path) in self.segment_files() {
            if idx < segment {
                let _ = fs::remove_file(path);
            }
        }
    }

    fn put_checkpoint(&mut self, height: u64, bytes: &[u8]) {
        // The log segments this chunk subsumes are pruned right after, so it
        // must be on the platter — file contents, then the directory entry —
        // before this returns.
        let tmp = self.dir.join("checkpoint.tmp");
        let mut file = fs::File::create(&tmp).expect("create checkpoint chunk");
        file.write_all(bytes).expect("write checkpoint chunk");
        file.sync_data().expect("fsync checkpoint chunk");
        let path = self.dir.join(format!("checkpoint-{height:016}.bsnp"));
        fs::rename(&tmp, &path).expect("publish checkpoint chunk");
        fs::File::open(&self.dir)
            .and_then(|dir| dir.sync_all())
            .expect("fsync storage directory");
        if rebases(bytes) {
            for (h, stale) in self.checkpoint_files() {
                if h != height {
                    let _ = fs::remove_file(stale);
                }
            }
        }
    }

    fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
        let files = self.checkpoint_files().into_iter();
        let read = |(height, path): (u64, PathBuf)| {
            Some((height, StoredChunk::Bytes(fs::read(path).ok()?)))
        };
        concat_image(files.filter_map(read))
    }
}

// ---- the segment log ---------------------------------------------------------

/// Everything a replay recovered from durable storage.
#[derive(Clone, Debug, Default)]
pub struct ReplayResult {
    /// The durable checkpoint image `(committed_height, BSNP chunk stream)`,
    /// if any.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// The longest valid prefix of log records, in append order.
    pub records: Vec<(RecordKind, Vec<u8>)>,
    /// Payloads of every CRC-valid [`RecordKind::SafetyRecord`] *outside*
    /// that prefix, in append order — the vote watermark survives a break
    /// in the records around it. Empty for a clean log.
    pub stray_safety_records: Vec<Vec<u8>>,
    /// Records lost to corruption: the record that failed its check plus
    /// every later record (even well-framed ones — ordering is broken past
    /// the first failure).
    pub corrupt_records_discarded: u64,
    /// Total durable bytes scanned (segments + checkpoint image), the input
    /// to the modeled disk-read cost.
    pub bytes_read: u64,
}

/// The append-only segment log: record framing, fsync batching, segment
/// rotation, prune-to-checkpoint, crash-point fault injection, and replay.
pub struct SegmentLog {
    backend: Box<dyn SegmentBackend>,
    segment_bytes: usize,
    fsync_interval: usize,
    active: u64,
    active_len: usize,
    records_appended: u64,
    unsynced_records: usize,
    pending_fault: Option<StorageFault>,
    syncs: u64,
    /// The newest [`RecordKind::SafetyRecord`] in the log — the watermark
    /// [`SegmentLog::install_checkpoint`] carries across the cut: the value
    /// last appended, or the framed bytes a crash read back.
    watermark: Option<StoredRecord>,
}

impl std::fmt::Debug for SegmentLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLog")
            .field("segment_bytes", &self.segment_bytes)
            .field("fsync_interval", &self.fsync_interval)
            .field("active", &self.active)
            .field("records_appended", &self.records_appended)
            .field("syncs", &self.syncs)
            .finish_non_exhaustive()
    }
}

impl SegmentLog {
    /// Wraps `backend` with the given rotation threshold and fsync batching
    /// interval (both clamped to sane minimums).
    pub fn new(
        backend: Box<dyn SegmentBackend>,
        segment_bytes: usize,
        fsync_interval: usize,
    ) -> Self {
        let mut log = Self {
            backend,
            segment_bytes: segment_bytes.max(RECORD_HEADER_BYTES),
            fsync_interval: fsync_interval.max(1),
            active: 0,
            active_len: 0,
            records_appended: 0,
            unsynced_records: 0,
            pending_fault: None,
            syncs: 0,
            watermark: None,
        };
        // Resume appending after any existing durable content (fresh
        // backends scan nothing).
        log.reset_from_durable();
        log
    }

    /// A log over the deterministic in-memory backend (the simulator's).
    pub fn in_memory(segment_bytes: usize, fsync_interval: usize) -> Self {
        Self::new(
            Box::new(MemoryBackend::new()),
            segment_bytes,
            fsync_interval,
        )
    }

    /// A log over real files in `dir` (the threaded cluster's).
    ///
    /// # Errors
    ///
    /// Propagates the `std::io::Error` if the directory cannot be created.
    pub fn on_disk(
        dir: &Path,
        segment_bytes: usize,
        fsync_interval: usize,
    ) -> std::io::Result<Self> {
        Ok(Self::new(
            Box::new(FileBackend::open(dir)?),
            segment_bytes,
            fsync_interval,
        ))
    }

    /// Appends a record, flushing per the fsync batching policy. Returns the
    /// framed byte count (the input to the modeled disk-write cost).
    pub fn append(&mut self, record: Record) -> u64 {
        let bytes = self.write_value(record);
        if self.unsynced_records >= self.fsync_interval {
            self.sync();
        }
        bytes
    }

    /// Appends a record and flushes immediately — the safety-record path:
    /// the vote must not outrun its durable watermark.
    pub fn append_synced(&mut self, record: Record) -> u64 {
        let bytes = self.write_value(record);
        self.sync();
        bytes
    }

    fn write_value(&mut self, record: Record) -> u64 {
        let record = StoredRecord::Value(record);
        let written = self.write(&record);
        if let StoredRecord::Value(Record::Safety(..)) = record {
            self.watermark = Some(record);
        }
        written
    }

    /// Buffers one record at the tail, rotating to a fresh segment first
    /// when it would overflow the active one.
    fn write(&mut self, record: &StoredRecord) -> u64 {
        let len = record.len();
        if self.active_len > 0 && self.active_len + len > self.segment_bytes {
            self.active += 1;
            self.active_len = 0;
        }
        match record {
            StoredRecord::Value(value) => self.backend.append_record(self.active, value),
            StoredRecord::Bytes(bytes) => self.backend.append(self.active, bytes),
        }
        self.active_len += len;
        self.records_appended += 1;
        self.unsynced_records += 1;
        len as u64
    }

    /// Flushes buffered records to durable storage. An armed
    /// [`StorageFault::DropFsync`] whose index falls in this batch makes the
    /// flush silently fail instead — the batch is gone.
    pub fn sync(&mut self) {
        if self.unsynced_records == 0 {
            return;
        }
        if let Some(StorageFault::DropFsync { index }) = self.pending_fault {
            let first_unsynced = self.records_appended - self.unsynced_records as u64;
            if first_unsynced <= index && index < self.records_appended {
                self.backend.drop_buffered();
                self.pending_fault = None;
                self.unsynced_records = 0;
                self.syncs += 1;
                return;
            }
        }
        self.backend.sync();
        self.unsynced_records = 0;
        self.syncs += 1;
    }

    /// Persists a checkpoint chunk and cuts the log over to it: flush, append
    /// the chunk to the stored image, rotate to a fresh segment that opens
    /// with the [`RecordKind::CheckpointMarker`] and a copy of the newest
    /// [`RecordKind::SafetyRecord`] (the vote watermark lives only in the log,
    /// so it must cross the cut), flush again, and only then prune every
    /// older segment. Returns the bytes written for the disk-cost model.
    pub fn install_checkpoint(&mut self, height: u64, chunk: &[u8]) -> u64 {
        self.cut_over(chunk.len(), height, |backend| {
            backend.put_checkpoint(height, chunk);
        })
    }

    /// [`Self::install_checkpoint`] for a chunk that is cut but not laid
    /// out; the backend decides when it becomes bytes
    /// ([`SegmentBackend::put_cut`]). Writes and charges exactly what
    /// installing `cut.encode()` would.
    pub fn install_cut(&mut self, height: u64, cut: Cut) -> u64 {
        self.cut_over(cut.len(), height, |backend| backend.put_cut(height, cut))
    }

    /// The one cut-over sequence behind both installs; `put` stores the
    /// chunk of `chunk_len` bytes.
    fn cut_over(
        &mut self,
        chunk_len: usize,
        height: u64,
        put: impl FnOnce(&mut dyn SegmentBackend),
    ) -> u64 {
        self.sync();
        put(self.backend.as_mut());
        self.active += 1;
        self.active_len = 0;
        let mut written = self.write_value(Record::Marker(height));
        if let Some(watermark) = self.watermark.take() {
            written += self.write(&watermark);
            self.watermark = Some(watermark);
        }
        self.sync();
        self.backend.drop_below(self.active);
        written + chunk_len as u64
    }

    /// The durable checkpoint image (see [`SegmentBackend::checkpoint`]).
    pub fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
        self.backend.checkpoint()
    }

    /// The durable chunks above `start`, capped at `max_bytes` (see
    /// [`SegmentBackend::checkpoint_suffix`]).
    pub fn checkpoint_suffix(&self, start: u64, max_bytes: usize) -> Option<(Vec<u8>, u64)> {
        self.backend.checkpoint_suffix(start, max_bytes)
    }

    /// Arms a crash-point fault. [`StorageFault::DropFsync`] fires at the
    /// [`SegmentLog::sync`] whose batch holds its append index, so it must be
    /// armed before that batch is written — the simulator does so when the
    /// run's fault schedule is registered; armed at the crash it finds
    /// nothing left to drop. The others maul the durable image when
    /// [`SegmentLog::crash`] runs.
    pub fn schedule_fault(&mut self, fault: StorageFault) {
        self.pending_fault = Some(fault);
    }

    /// Simulates process death: buffered bytes vanish, any armed fault is
    /// applied to the durable image, and append bookkeeping is rebuilt from
    /// what actually survived.
    pub fn crash(&mut self) {
        self.backend.crash();
        if let Some(fault) = self.pending_fault.take() {
            self.apply_fault(fault);
        }
        self.reset_from_durable();
    }

    fn apply_fault(&mut self, fault: StorageFault) {
        match fault {
            StorageFault::TornTail => {
                let Some((seg, mut bytes)) = self.last_segment() else {
                    return;
                };
                // Find where the final record starts, then cut partway into
                // it — a write the crash interrupted.
                let last = frames(&bytes).map_while(|frame| frame).last();
                let last_start = last.map_or(0, |frame| frame.start);
                let torn = last_start + (bytes.len() - last_start).div_ceil(2).max(1);
                bytes.truncate(torn.min(bytes.len().saturating_sub(1)));
                self.backend.set_segment(seg, bytes);
            }
            StorageFault::TruncateSegment => {
                let Some((seg, mut bytes)) = self.last_segment() else {
                    return;
                };
                bytes.truncate(bytes.len() / 2);
                self.backend.set_segment(seg, bytes);
            }
            StorageFault::CorruptCrc { record } => {
                let segments = self.backend.segments();
                let total: u64 = segments
                    .iter()
                    .map(|(_, bytes)| decode_records(bytes).records.len() as u64)
                    .sum();
                if total == 0 {
                    return;
                }
                let mut target = record.min(total - 1);
                for (seg, mut bytes) in segments {
                    let here = decode_records(&bytes).records.len() as u64;
                    if target >= here {
                        target -= here;
                        continue;
                    }
                    // Flip a CRC byte of the target record's frame.
                    let frame = frames(&bytes).map_while(|frame| frame).nth(target as usize);
                    let pos = frame.expect("a valid record").start;
                    bytes[pos + 4] ^= 0xA5;
                    self.backend.set_segment(seg, bytes);
                    return;
                }
            }
            // Consumed at sync time; armed-but-unfired means the batch it
            // named was never flushed, so there is nothing to maul.
            StorageFault::DropFsync { .. } => {}
        }
    }

    fn last_segment(&self) -> Option<(u64, Vec<u8>)> {
        self.backend.segments().pop()
    }

    fn reset_from_durable(&mut self) {
        let segments = self.backend.segments();
        self.unsynced_records = 0;
        self.records_appended = 0;
        let mut watermark = None;
        for (_, bytes) in &segments {
            // The newest intact safety record, inside the valid prefix or
            // stray behind a break: the watermark a cut must carry over.
            let decoded = decode_records(bytes);
            self.records_appended += decoded.records.len() as u64;
            let intact = safety_payloads(decoded.records).chain(decoded.stray_safety_records);
            watermark = intact.last().or(watermark);
        }
        self.watermark = watermark.map(|payload| {
            let mut framed = Vec::new();
            frame_into(&mut framed, RecordKind::SafetyRecord, &payload);
            StoredRecord::Bytes(framed)
        });
        match segments.last() {
            Some((seg, bytes)) => {
                self.active = *seg;
                self.active_len = bytes.len();
            }
            None => {
                // Preserve the rotation point: a pruned log must not reuse
                // dropped segment indices.
                self.active_len = 0;
            }
        }
    }

    /// Replays durable state: the checkpoint image (every stored chunk,
    /// concatenated), the longest valid prefix of log records, and the intact
    /// safety records stranded outside that prefix.
    pub fn replay(&self) -> ReplayResult {
        let mut result = ReplayResult {
            checkpoint: self.backend.checkpoint(),
            ..ReplayResult::default()
        };
        if let Some((_, bytes)) = &result.checkpoint {
            result.bytes_read += bytes.len() as u64;
        }
        let mut broken = false;
        for (_, bytes) in self.backend.segments() {
            result.bytes_read += bytes.len() as u64;
            let decoded = decode_records(&bytes);
            result.corrupt_records_discarded += decoded.discarded;
            if broken {
                // Ordering is broken past the first failure: well-framed
                // records in later segments are unusable — except for the
                // vote watermark they carry.
                result.corrupt_records_discarded += decoded.records.len() as u64;
                let stray = &mut result.stray_safety_records;
                stray.extend(safety_payloads(decoded.records));
            } else {
                result.records.extend(decoded.records);
                broken = !decoded.clean;
            }
            let stray = &mut result.stray_safety_records;
            stray.extend(decoded.stray_safety_records);
        }
        result
    }

    /// Total records appended since the log was opened (or last crashed).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Number of flushes performed (batched appends amortise this).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::testutil::{chain, grow, sprout};
    use std::sync::Arc;

    /// Deterministic xorshift — the tests must not depend on external RNGs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Random kinds over random payloads: input for the stream decoder.
    fn random_frames(seed: u64, count: usize) -> Vec<(RecordKind, Vec<u8>)> {
        let mut rng = Rng(seed | 1);
        (0..count)
            .map(|_| {
                let kind = match rng.next() % 4 {
                    0 => RecordKind::CommittedBlock,
                    1 => RecordKind::Qc,
                    2 => RecordKind::CheckpointMarker,
                    _ => RecordKind::SafetyRecord,
                };
                let len = (rng.next() % 200) as usize;
                let payload: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
                (kind, payload)
            })
            .collect()
    }

    /// Random records over a short chain of varied block sizes: entries,
    /// QCs, markers, and safety records with and without a lock.
    fn random_records(seed: u64, count: usize) -> Vec<Record> {
        let mut rng = Rng(seed | 1);
        let (mut forest, mut ledger) = chain(0, 0);
        for _ in 0..5 {
            grow(&mut forest, &mut ledger, (rng.next() % 200) as usize);
        }
        (0..count)
            .map(|_| {
                // Entries past the first carry a real QC, not genesis.
                let entry = ledger
                    .get(1 + (rng.next() % 4) as usize)
                    .expect("five entries");
                let qc = entry.block.justify.clone();
                match rng.next() % 4 {
                    0 => Record::Committed(entry.clone()),
                    1 => Record::Qc(qc),
                    2 => Record::Marker(rng.next()),
                    _ => {
                        Record::Safety(View(rng.next()), rng.next().is_multiple_of(2).then_some(qc))
                    }
                }
            })
            .collect()
    }

    /// What a replay reads back for `records`.
    fn read_back(records: &[Record]) -> Vec<(RecordKind, Vec<u8>)> {
        records.iter().map(|r| (r.kind(), r.payload())).collect()
    }

    fn append_all(log: &mut SegmentLog, records: &[Record]) {
        for record in records {
            log.append(record.clone());
        }
    }

    fn stream_of(records: &[(RecordKind, Vec<u8>)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (kind, payload) in records {
            frame_into(&mut out, *kind, payload);
        }
        out
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trips_randomized_record_sequences() {
        for seed in [1u64, 7, 42, 2021] {
            let records = random_records(seed, 100);
            // Small segments force rotation; batching leaves a buffered tail
            // that an explicit sync must flush.
            let mut log = SegmentLog::in_memory(512, 5);
            append_all(&mut log, &records);
            log.sync();
            log.crash();
            let replay = log.replay();
            assert_eq!(replay.records, read_back(&records), "seed {seed}");
            assert_eq!(replay.corrupt_records_discarded, 0);
            assert!(replay.bytes_read > 0);
        }
    }

    #[test]
    fn unsynced_tail_is_lost_on_crash() {
        let mut log = SegmentLog::in_memory(1 << 20, 100);
        // No sync: interval is 100, so everything is still buffered.
        append_all(&mut log, &random_records(3, 10));
        log.crash();
        assert!(log.replay().records.is_empty());
        assert_eq!(log.records_appended(), 0);
    }

    #[test]
    fn fsync_interval_batches_flushes() {
        let mut log = SegmentLog::in_memory(1 << 20, 4);
        append_all(&mut log, &random_records(9, 8));
        assert_eq!(log.syncs(), 2, "8 records at interval 4");
        let mut synced = SegmentLog::in_memory(1 << 20, 4);
        synced.append_synced(Record::Safety(View(3), None));
        assert_eq!(synced.syncs(), 1, "safety records flush immediately");
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix_at_every_cut() {
        let records = random_frames(11, 20);
        let stream = stream_of(&records);
        for cut in 0..stream.len() {
            let decoded = decode_records(&stream[..cut]);
            assert!(
                decoded.records.len() <= records.len(),
                "cut {cut} produced extra records"
            );
            for (got, want) in decoded.records.iter().zip(records.iter()) {
                assert_eq!(got, want, "cut {cut} diverged");
            }
            if cut < stream.len() {
                assert!(!decoded.clean || decoded.records.len() < records.len());
            }
        }
        assert!(decode_records(&stream).clean);
    }

    #[test]
    fn corrupt_byte_at_every_offset_never_panics() {
        let records = random_frames(13, 8);
        let stream = stream_of(&records);
        for offset in 0..stream.len() {
            let mut mauled = stream.clone();
            mauled[offset] ^= 0xFF;
            let decoded = decode_records(&mauled);
            for (got, want) in decoded.records.iter().zip(records.iter()) {
                if got != want {
                    // A flipped byte may still frame correctly only within
                    // the record it hit; all earlier records must match.
                    break;
                }
            }
            assert!(decoded.records.len() <= records.len());
        }
    }

    #[test]
    fn garbage_suffix_is_discarded() {
        let records = random_frames(17, 6);
        let mut stream = stream_of(&records);
        stream.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03]);
        let decoded = decode_records(&stream);
        assert_eq!(decoded.records, records);
        assert!(!decoded.clean);
    }

    #[test]
    fn torn_tail_fault_drops_only_the_final_record() {
        let records = random_records(19, 12);
        let mut log = SegmentLog::in_memory(1 << 20, 1);
        append_all(&mut log, &records);
        log.schedule_fault(StorageFault::TornTail);
        log.crash();
        let replay = log.replay();
        assert_eq!(replay.records, read_back(&records[..records.len() - 1]));
        assert_eq!(replay.corrupt_records_discarded, 1);
    }

    #[test]
    fn truncate_segment_fault_recovers_a_prefix() {
        let records = random_records(23, 12);
        let mut log = SegmentLog::in_memory(1 << 20, 1);
        append_all(&mut log, &records);
        log.schedule_fault(StorageFault::TruncateSegment);
        log.crash();
        let replay = log.replay();
        assert!(replay.records.len() < records.len());
        assert_eq!(replay.records, read_back(&records[..replay.records.len()]));
        assert!(replay.corrupt_records_discarded >= 1);
    }

    #[test]
    fn corrupt_crc_fault_stops_replay_at_the_record() {
        // One segment, then segments small enough that the break and the
        // records behind it sit in different ones.
        for segment_bytes in [1 << 20, 256] {
            let records = random_records(29, 10);
            let mut log = SegmentLog::in_memory(segment_bytes, 1);
            append_all(&mut log, &records);
            log.schedule_fault(StorageFault::CorruptCrc { record: 4 });
            log.crash();
            let replay = log.replay();
            assert_eq!(replay.records, read_back(&records[..4]));
            // The mauled record plus the five well-framed ones after it.
            assert_eq!(replay.corrupt_records_discarded, 6);
            // The vote watermark is the exception to the prefix rule: the
            // intact safety records behind the break are still reported...
            let stray: Vec<_> = safety_payloads(read_back(&records[5..])).collect();
            assert!(!stray.is_empty(), "the seed logs one behind the break");
            assert_eq!(replay.stray_safety_records, stray);
            // ...and the newest of them is what the next cut carries over.
            log.install_checkpoint(10, b"image");
            let carried = &log.replay().records[1];
            assert_eq!(
                carried,
                &(RecordKind::SafetyRecord, stray[stray.len() - 1].clone())
            );
        }
    }

    #[test]
    fn drop_fsync_fault_leaves_a_record_aligned_hole() {
        let records = random_records(31, 12);
        let mut log = SegmentLog::in_memory(1 << 20, 4);
        log.schedule_fault(StorageFault::DropFsync { index: 5 });
        append_all(&mut log, &records);
        log.crash();
        let replay = log.replay();
        // Batch [4..8) vanished; earlier and later batches survived. The
        // stream still frames cleanly — the hole is semantic, which is why
        // the replica must verify chain linkage during replay.
        let mut expected = read_back(&records[..4]);
        expected.extend(read_back(&records[8..]));
        assert_eq!(replay.records, expected);
        assert_eq!(replay.corrupt_records_discarded, 0);
    }

    #[test]
    fn rotation_spreads_records_across_segments_in_order() {
        let records = random_records(37, 40);
        let mut log = SegmentLog::in_memory(256, 1);
        append_all(&mut log, &records);
        log.crash();
        assert_eq!(log.replay().records, read_back(&records));
    }

    /// The newest safety record among `records` — what a cut carries over.
    fn watermark_of(records: &[(RecordKind, Vec<u8>)]) -> Vec<(RecordKind, Vec<u8>)> {
        let newest = records.iter().rev();
        let mut safety = newest.filter(|(kind, _)| *kind == RecordKind::SafetyRecord);
        safety.next().cloned().into_iter().collect()
    }

    #[test]
    fn checkpoint_prunes_older_segments_and_carries_the_watermark() {
        let mut log = SegmentLog::in_memory(256, 1);
        let pre = random_records(41, 30);
        append_all(&mut log, &pre);
        let image = b"BSNP-image-stand-in".to_vec();
        log.install_checkpoint(30, &image);
        let post = random_records(43, 5);
        append_all(&mut log, &post);
        log.sync();
        log.crash();
        let replay = log.replay();
        assert_eq!(replay.checkpoint, Some((30, image)));
        // Everything before the cut is pruned except the newest safety
        // record, re-appended right behind the marker.
        let mut expected = vec![(RecordKind::CheckpointMarker, encode_checkpoint_marker(30))];
        expected.extend(watermark_of(&read_back(&pre)));
        assert_eq!(expected.len(), 2, "the seed logs a safety record");
        expected.extend(read_back(&post));
        assert_eq!(replay.records, expected, "pre-checkpoint records pruned");
        // The watermark is re-derived from the durable log, so it crosses a
        // restart and the next cut too.
        log.install_checkpoint(31, b"second");
        log.crash();
        assert_eq!(log.replay().records[1..], watermark_of(&expected));
    }

    /// A stand-in continuation chunk: a real header with `from > 0`, so the
    /// backends append it instead of re-basing.
    fn continuation_chunk(from: u64, filler: u8) -> Vec<u8> {
        let mut body = from.to_be_bytes().to_vec();
        body.extend_from_slice(&[0, 0, 0, 1, filler]);
        let mut chunk = b"BSNP\x00\x02".to_vec();
        chunk.extend_from_slice(&(body.len() as u32).to_be_bytes());
        chunk.extend_from_slice(&crc32(&body).to_be_bytes());
        chunk.extend_from_slice(&body);
        assert!(!rebases(&chunk));
        chunk
    }

    #[test]
    fn chunks_append_and_a_rebase_supersedes() {
        let mut log = SegmentLog::in_memory(1 << 20, 1);
        let (base, second, third) = (
            b"opaque base image".to_vec(),
            continuation_chunk(8, 2),
            continuation_chunk(9, 3),
        );
        log.install_checkpoint(8, &base);
        log.install_checkpoint(9, &second);
        log.install_checkpoint(10, &third);
        let image = [&base[..], &second, &third].concat();
        assert_eq!(log.checkpoint(), Some((10, image)));
        log.install_checkpoint(20, &base);
        assert_eq!(log.checkpoint(), Some((20, base)), "stale chunks discarded");
    }

    #[test]
    fn crash_with_the_newest_chunk_buffered_keeps_the_previous_one_and_the_log() {
        let mut log = SegmentLog::in_memory(256, 1);
        let base = b"opaque base image".to_vec();
        log.install_checkpoint(8, &base);
        let post = random_records(53, 12);
        append_all(&mut log, &post);
        // The first half of a cut: the chunk is staged, the process dies
        // before the flush that would make it durable. Nothing it subsumes
        // may have been pruned yet.
        log.sync();
        log.backend.put_checkpoint(9, &continuation_chunk(8, 2));
        log.crash();
        let replay = log.replay();
        assert_eq!(replay.checkpoint, Some((8, base)));
        assert_eq!(replay.records[0].0, RecordKind::CheckpointMarker);
        assert_eq!(replay.records[1..], read_back(&post));
    }

    #[test]
    fn the_memory_backend_keeps_a_record_as_the_handles_it_is_given() {
        let (_, ledger) = chain(1, 8);
        let entry = ledger.get(0).expect("one entry");
        let mut memory = MemoryBackend::new();
        memory.append_record(0, &Record::Committed(entry.clone()));
        memory.sync();
        let held = &memory.segments[&0].durable[..];
        let [StoredRecord::Value(Record::Committed(held))] = held else {
            panic!("a committed record laid out or lost: {held:?}");
        };
        assert!(
            Arc::ptr_eq(&held.block, &entry.block),
            "the block was copied"
        );
    }

    /// The nine required methods over a [`MemoryBackend`], and nothing else:
    /// every defaulted method takes its default, so records and cuts reach
    /// it laid out.
    #[derive(Default)]
    struct BytesOnly(MemoryBackend);

    impl SegmentBackend for BytesOnly {
        fn append(&mut self, segment: u64, bytes: &[u8]) {
            self.0.append(segment, bytes);
        }
        fn sync(&mut self) {
            self.0.sync();
        }
        fn drop_buffered(&mut self) {
            self.0.drop_buffered();
        }
        fn crash(&mut self) {
            self.0.crash();
        }
        fn segments(&self) -> Vec<(u64, Vec<u8>)> {
            self.0.segments()
        }
        fn set_segment(&mut self, segment: u64, bytes: Vec<u8>) {
            self.0.set_segment(segment, bytes);
        }
        fn drop_below(&mut self, segment: u64) {
            self.0.drop_below(segment);
        }
        fn put_checkpoint(&mut self, height: u64, bytes: &[u8]) {
            self.0.put_checkpoint(height, bytes);
        }
        fn checkpoint(&self) -> Option<(u64, Vec<u8>)> {
            self.0.checkpoint()
        }
    }

    /// Asserts two logs hold and read back the same durable state.
    fn assert_same_durable(kept: &SegmentLog, bytes: &SegmentLog, at: &str) {
        let segments = kept.backend.segments();
        assert_eq!(segments, bytes.backend.segments(), "{at}: segments");
        let (kept, bytes) = (kept.replay(), bytes.replay());
        assert_eq!(kept.checkpoint, bytes.checkpoint, "{at}: image");
        assert_eq!(kept.records, bytes.records, "{at}: records");
        assert_eq!(kept.stray_safety_records, bytes.stray_safety_records);
        let counters = |r: &ReplayResult| (r.corrupt_records_discarded, r.bytes_read);
        assert_eq!(counters(&kept), counters(&bytes), "{at}");
    }

    #[test]
    fn a_backend_that_keeps_cuts_reads_back_the_bytes_of_one_that_encodes() {
        use bamboo_forest::Snapshot;

        let faults = [
            None,
            Some(StorageFault::TornTail),
            Some(StorageFault::TruncateSegment),
            Some(StorageFault::CorruptCrc { record: 5 }),
            Some(StorageFault::DropFsync { index: 9 }),
        ];
        for fault in faults {
            // `kept` keeps records and cuts as values, `bytes` is handed
            // their layout; both take the same calls.
            let mut kept = SegmentLog::in_memory(512, 3);
            let mut bytes = SegmentLog::new(Box::new(BytesOnly::default()), 512, 3);
            let at_crash = fault.filter(|f| !matches!(f, StorageFault::DropFsync { .. }));
            if let Some(drop @ StorageFault::DropFsync { .. }) = fault {
                kept.schedule_fault(drop);
                bytes.schedule_fault(drop);
            }
            let (mut forest, mut ledger) = chain(2, 8);
            let mut from = 0;
            for step in 0..10u64 {
                let at = format!("{fault:?}, step {step}");
                grow(&mut forest, &mut ledger, 8);
                grow(&mut forest, &mut ledger, 24);
                sprout(&mut forest, step % 4, step);
                // What a replica logs for two commits: the entries, the QC
                // state, then a vote watermark.
                let qc = forest.high_qc().clone();
                let newly = ledger.iter().skip(ledger.len() - 2).cloned();
                let mut records: Vec<Record> = newly.map(Record::Committed).collect();
                records.push(Record::Qc(qc.clone()));
                records.push(Record::Safety(View(100 + step), Some(qc)));
                for record in records {
                    let written = bytes.append(record.clone());
                    assert_eq!(kept.append(record), written, "{at}");
                }
                assert_eq!(kept.records_appended(), bytes.records_appended(), "{at}");
                if step == 6 {
                    from = 0; // adopted a peer's state: the next cut re-bases
                }
                let cut = Snapshot::cut(&forest, &ledger, from);
                let height = ledger.len() as u64;
                if step == 4 {
                    // Crash with the newest chunk staged but never flushed.
                    bytes.backend.put_cut(height, cut.clone());
                    kept.backend.put_cut(height, cut);
                    kept.crash();
                    bytes.crash();
                    assert_same_durable(&kept, &bytes, &format!("{at}, staged chunk"));
                    continue;
                }
                let written = bytes.install_cut(height, cut.clone());
                assert_eq!(kept.install_cut(height, cut), written, "{at}");
                from = ledger.len();
                // A served sync reads a suffix, a restart the whole image.
                for start in 0..=height {
                    for cap in [1, 2_000, usize::MAX] {
                        let suffix = kept.checkpoint_suffix(start, cap);
                        let want = bytes.checkpoint_suffix(start, cap);
                        assert_eq!(suffix, want, "{at}, suffix from {start} within {cap}");
                    }
                }
                let image = kept.checkpoint().expect("a chunk is stored").1;
                let snap = Snapshot::decode(&image).expect("the image decodes");
                assert_eq!(snap.ledger.fingerprint(), ledger.fingerprint());
                if step % 3 == 2 {
                    if let Some(fault) = at_crash {
                        kept.schedule_fault(fault);
                        bytes.schedule_fault(fault);
                    }
                    kept.crash();
                    bytes.crash();
                    assert_eq!(kept.records_appended(), bytes.records_appended(), "{at}");
                }
                assert_same_durable(&kept, &bytes, &at);
            }
        }
    }

    #[test]
    fn safety_record_codec_round_trips() {
        let (view, qc) = decode_safety_record(&encode_safety_record(View(17), None)).unwrap();
        assert_eq!(view, View(17));
        assert!(qc.is_none());
        let genesis = QuorumCert::genesis();
        let (view, qc) =
            decode_safety_record(&encode_safety_record(View(99), Some(&genesis))).unwrap();
        assert_eq!(view, View(99));
        assert_eq!(qc, Some(genesis));
        assert!(decode_safety_record(&[1, 2, 3]).is_err());
        assert!(decode_checkpoint_marker(&encode_checkpoint_marker(7)).unwrap() == 7);
        assert!(decode_checkpoint_marker(&[0; 7]).is_err());
    }

    #[test]
    fn file_backend_round_trips_through_real_files() {
        let dir = std::env::temp_dir().join(format!(
            "bamboo-storage-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let records = random_records(47, 25);
        {
            let mut log = SegmentLog::on_disk(&dir, 512, 3).expect("open");
            append_all(&mut log, &records);
            log.install_checkpoint(25, b"image");
            append_all(&mut log, &records[..5]);
            log.sync();
        }
        // A brand-new log over the same directory resumes from the files.
        let mut log = SegmentLog::on_disk(&dir, 512, 3).expect("reopen");
        let replay = log.replay();
        assert_eq!(replay.checkpoint, Some((25, b"image".to_vec())));
        assert_eq!(replay.records.len(), 7, "marker + watermark + 5 post");
        assert_eq!(replay.records[1..2], watermark_of(&read_back(&records)));
        assert_eq!(replay.records[2..], read_back(&records[..5]));
        assert_eq!(log.records_appended(), 7);
        // One file per chunk, concatenated on read; a re-base removes them.
        let chunk = continuation_chunk(25, 7);
        log.install_checkpoint(26, &chunk);
        let files = |dir: &Path| {
            let names = std::fs::read_dir(dir).expect("list").flatten();
            names
                .filter(|e| e.file_name().to_string_lossy().ends_with(".bsnp"))
                .count()
        };
        assert_eq!(files(&dir), 2);
        let image = [&b"image"[..], &chunk].concat();
        assert_eq!(log.checkpoint(), Some((26, image)));
        log.install_checkpoint(40, b"rebased");
        assert_eq!(files(&dir), 1);
        assert_eq!(log.checkpoint(), Some((40, b"rebased".to_vec())));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
