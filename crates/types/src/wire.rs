//! The canonical binary encoding of consensus data on the wire and on disk.
//!
//! One byte layout serves three consumers: the checkpoint snapshot image
//! (`bamboo-forest`), the durable segment log records (`bamboo-core`'s
//! storage module) and the TCP transport frames (`bamboo-net`). Everything is
//! length-prefixed big-endian; digests and signatures are 32 raw bytes. The
//! encoding is *canonical* — re-encoding a decoded value is byte-identical —
//! which is what lets fingerprint comparisons and log replay double as
//! integrity checks.
//!
//! Every layout is written once. Each encoder writes into a [`Sink`]: a
//! `Vec<u8>` lays the bytes out, and a [`Count`] only adds up their length.
//! So every size in the workspace — [`encoded_len`], the model's
//! [`block_overhead_len`], a log record's and a checkpoint chunk's length —
//! is the count of the encoder that writes the bytes, never a sum kept
//! beside it.
//!
//! Block ids are re-derived from the decoded header and payload and compared
//! against the encoded id, so a corrupted or tampered block fails decoding
//! instead of poisoning a forest. Signatures are *not* checked here: a forged
//! signature decodes fine and then fails the [`crate::Authenticator`] (wire
//! integrity and authenticity are separate layers).

use std::fmt;

use bamboo_crypto::{AggregateSignature, Signature};

use crate::block::{Block, BlockId, SharedBlock};
use crate::bytes::Bytes;
use crate::certificate::{QuorumCert, TimeoutCert, TimeoutVote, Vote};
use crate::ids::{Height, NodeId, View};
use crate::message::{ClientRequest, Handoff, Message, SyncRequest, SyncResponse};
use crate::time::SimTime;
use crate::transaction::Transaction;

/// Why a byte stream failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// A magic prefix did not match the expected format.
    BadMagic,
    /// A version tag is newer than this decoder understands.
    UnsupportedVersion(u16),
    /// The structure decoded but an integrity check failed.
    Corrupt(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "byte stream truncated"),
            WireError::BadMagic => write!(f, "bad magic prefix"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Corrupt(what) => write!(f, "corrupt encoding: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked reader over an immutable byte slice.
///
/// Every decoder in the workspace reads through this cursor, so truncated
/// input surfaces as a typed [`WireError::Truncated`] everywhere instead of a
/// panic anywhere.
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or fails if fewer remain.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a 32-byte digest or signature.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when fewer than 32 bytes remain.
    pub fn digest32(&mut self) -> Result<[u8; 32], WireError> {
        Ok(self.take(32)?.try_into().unwrap())
    }

    /// True once every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The one rule for a count read off the input: `declared` elements of
    /// at least `min_element_bytes` each must fit in the bytes left, or the
    /// count is [`WireError::Truncated`], so a decoder never reserves more
    /// than its input could hold.
    pub fn count(&self, declared: u64, min_element_bytes: usize) -> Result<usize, WireError> {
        (usize::try_from(declared).ok())
            .filter(|n| n.saturating_mul(min_element_bytes) <= self.remaining())
            .ok_or(WireError::Truncated)
    }
}

// ---- sinks and primitive writers --------------------------------------------

/// Where an encoder writes: a buffer that lays the bytes out, or a [`Count`]
/// that only adds up how many there are.
pub trait Sink {
    /// Writes `bytes` at the end.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it.
#[derive(Debug)]
pub struct Count(usize);

impl Sink for Count {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Count {
    /// The bytes `write` puts, counted without laying them out.
    pub fn of(write: impl FnOnce(&mut Count)) -> usize {
        let mut count = Count(0);
        write(&mut count);
        count.0
    }
}

/// Writes a big-endian `u16`.
pub fn put_u16(out: &mut impl Sink, v: u16) {
    out.put(&v.to_be_bytes());
}

/// Writes a big-endian `u32`.
pub fn put_u32(out: &mut impl Sink, v: u32) {
    out.put(&v.to_be_bytes());
}

/// Writes a big-endian `u64`.
pub fn put_u64(out: &mut impl Sink, v: u64) {
    out.put(&v.to_be_bytes());
}

// ---- CRC-32 (IEEE 802.3, reflected) -----------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][i]` is the register after byte `i` is followed by `k` zero
/// bytes, so eight table lookups fold eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Folds `bytes` into a running CRC-32 register (start from `!0`, finish by
/// inverting) — for checksums spanning several slices. Eight bytes per step,
/// then the tail one byte at a time.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) over `bytes` — the integrity check framing every durable
/// log record and every checkpoint chunk.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

// ---- sizes ------------------------------------------------------------------
//
// Every message size in the workspace is counted here, by the encoders below
// writing into a `Count`: the simulator's NIC, the live seats' byte books,
// the sync counter and the analytical model all charge these lengths.

impl Block {
    /// The bytes [`encode_block`] writes for a header: id, view, height,
    /// parent and proposer, without the justify QC and payload.
    pub const HEADER_BYTES: usize = 32 + 8 + 8 + 32 + 8;
}

impl Transaction {
    /// The bytes [`encode_transaction`] writes beside the payload: client,
    /// sequence number, issue time and the payload's length.
    pub const HEADER_BYTES: usize = 8 + 8 + 8 + 4;
}

/// Exactly the bytes [`encode_message`] writes for `message`: the count of
/// [`encode_message_into`].
pub fn encoded_len(message: &Message) -> usize {
    Count::of(|out| encode_message_into(out, message))
}

/// The bytes a block takes beside its transactions when its justify QC's
/// signers are `nodes` replicas: the count of an empty block whose QC has
/// `nodes` signers (header, a certificate whose bitset has ⌈`nodes`/64⌉
/// words, and the transaction count).
///
/// # Panics
///
/// Panics when `nodes` exceeds [`AggregateSignature::MAX_WORDS`]` · 64`, the
/// most signers a certificate holds.
pub fn block_overhead_len(nodes: usize) -> usize {
    let signatures = (0..nodes as u64).map(|i| (i, Signature::from_bytes([1; 32])));
    let justify = QuorumCert {
        block: BlockId::GENESIS,
        view: View::GENESIS,
        signatures: signatures.collect(),
    };
    let block = Block::new(
        View::GENESIS,
        Height::GENESIS,
        BlockId::GENESIS,
        NodeId(0),
        justify,
        Vec::new(),
    );
    Count::of(|out| encode_block(out, &block))
}

// ---- consensus structures ---------------------------------------------------

/// Encodes a block: id, header fields, justify QC, then the length-prefixed
/// transaction payload.
pub fn encode_block(out: &mut impl Sink, block: &Block) {
    out.put(block.id.0.as_bytes());
    put_u64(out, block.view.as_u64());
    put_u64(out, block.height.as_u64());
    out.put(block.parent.0.as_bytes());
    put_u64(out, block.proposer.as_u64());
    encode_qc(out, &block.justify);
    put_u32(out, block.payload.len() as u32);
    for tx in &block.payload {
        encode_transaction(out, tx);
    }
}

/// Decodes a block and re-derives its id from the decoded contents.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input and
/// [`WireError::Corrupt`] when the encoded id does not match the re-derived
/// one.
pub fn decode_block(cur: &mut WireCursor<'_>) -> Result<Block, WireError> {
    let id = BlockId(bamboo_crypto::Digest::from_bytes(cur.digest32()?));
    let view = View(cur.u64()?);
    let height = Height(cur.u64()?);
    let parent = BlockId(bamboo_crypto::Digest::from_bytes(cur.digest32()?));
    let proposer = NodeId(cur.u64()?);
    let justify = decode_qc(cur)?;
    let tx_count = cur.u32()?;
    let mut payload = Vec::with_capacity(cur.count(tx_count.into(), Transaction::HEADER_BYTES)?);
    for _ in 0..tx_count {
        payload.push(decode_transaction(cur)?);
    }
    let block = Block::new(view, height, parent, proposer, justify, payload);
    if block.id != id {
        return Err(WireError::Corrupt("block id mismatch"));
    }
    Ok(block)
}

/// Encodes a transaction: its id `(client, seq)`, issue time and payload.
/// No digest is emitted; the block's id check recomputes each one.
pub fn encode_transaction(out: &mut impl Sink, tx: &Transaction) {
    put_u64(out, tx.id.client.as_u64());
    put_u64(out, tx.id.seq);
    put_u64(out, tx.issued_at.as_nanos());
    put_u32(out, tx.payload.len() as u32);
    out.put(&tx.payload);
}

/// Decodes a transaction.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input.
pub fn decode_transaction(cur: &mut WireCursor<'_>) -> Result<Transaction, WireError> {
    let client = NodeId(cur.u64()?);
    let seq = cur.u64()?;
    let issued_at = SimTime(cur.u64()?);
    let len = cur.u32()? as usize;
    let bytes = Bytes::from(cur.take(len)?);
    Ok(Transaction::with_payload(client, seq, bytes, issued_at))
}

/// Encodes a quorum certificate: block id, view, then the aggregate
/// signature (`encode_aggregate`).
pub fn encode_qc(out: &mut impl Sink, qc: &QuorumCert) {
    out.put(qc.block.0.as_bytes());
    put_u64(out, qc.view.as_u64());
    encode_aggregate(out, &qc.signatures);
}

/// Decodes a quorum certificate.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input and
/// [`WireError::Corrupt`] on a non-canonical aggregate.
pub fn decode_qc(cur: &mut WireCursor<'_>) -> Result<QuorumCert, WireError> {
    let block = BlockId(bamboo_crypto::Digest::from_bytes(cur.digest32()?));
    let view = View(cur.u64()?);
    let signatures = decode_aggregate(cur)?;
    Ok(QuorumCert {
        block,
        view,
        signatures,
    })
}

/// Encodes an optional QC behind a one-byte presence tag.
pub fn encode_opt_qc(out: &mut impl Sink, qc: Option<&QuorumCert>) {
    match qc {
        Some(qc) => {
            out.put(&[1]);
            encode_qc(out, qc);
        }
        None => out.put(&[0]),
    }
}

/// Decodes an optional QC.
///
/// # Errors
///
/// Returns [`WireError::Corrupt`] on an invalid presence tag and propagates
/// QC decoding errors.
pub fn decode_opt_qc(cur: &mut WireCursor<'_>) -> Result<Option<QuorumCert>, WireError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_qc(cur)?)),
        _ => Err(WireError::Corrupt("invalid option tag")),
    }
}

/// An aggregate as a `u16` word count, the signer-bitset words and the
/// 32-byte aggregate (all zero for no signers).
fn encode_aggregate(out: &mut impl Sink, signatures: &AggregateSignature) {
    put_u16(out, signatures.bitset().len() as u16);
    for &word in signatures.bitset() {
        put_u64(out, word);
    }
    out.put(&signatures.aggregate());
}

/// Refuses a word count over [`AggregateSignature::MAX_WORDS`] before it
/// allocates, and any layout `encode_aggregate` would not write.
fn decode_aggregate(cur: &mut WireCursor<'_>) -> Result<AggregateSignature, WireError> {
    let words = cur.u16()? as usize;
    if words > AggregateSignature::MAX_WORDS {
        return Err(WireError::Corrupt("signer bitset over 1,024 words"));
    }
    let bitset: Vec<u64> = (cur.take(8 * words)?.chunks_exact(8))
        .map(|word| u64::from_be_bytes(word.try_into().expect("8-byte chunk")))
        .collect();
    AggregateSignature::from_parts(&bitset, cur.digest32()?).map_err(WireError::Corrupt)
}

fn encode_vote(out: &mut impl Sink, vote: &Vote) {
    out.put(vote.block.0.as_bytes());
    put_u64(out, vote.view.as_u64());
    put_u64(out, vote.voter.as_u64());
    out.put(vote.signature.as_bytes());
}

fn decode_vote(cur: &mut WireCursor<'_>) -> Result<Vote, WireError> {
    let block = BlockId(bamboo_crypto::Digest::from_bytes(cur.digest32()?));
    let view = View(cur.u64()?);
    let voter = NodeId(cur.u64()?);
    let signature = Signature::from_bytes(cur.digest32()?);
    Ok(Vote {
        block,
        view,
        voter,
        signature,
    })
}

fn encode_timeout_vote(out: &mut impl Sink, tv: &TimeoutVote) {
    put_u64(out, tv.view.as_u64());
    put_u64(out, tv.voter.as_u64());
    encode_qc(out, &tv.high_qc);
    out.put(tv.signature.as_bytes());
}

fn decode_timeout_vote(cur: &mut WireCursor<'_>) -> Result<TimeoutVote, WireError> {
    let view = View(cur.u64()?);
    let voter = NodeId(cur.u64()?);
    let high_qc = decode_qc(cur)?;
    let signature = Signature::from_bytes(cur.digest32()?);
    Ok(TimeoutVote {
        view,
        voter,
        high_qc,
        signature,
    })
}

fn encode_timeout_cert(out: &mut impl Sink, tc: &TimeoutCert) {
    put_u64(out, tc.view.as_u64());
    encode_aggregate(out, &tc.signatures);
    encode_qc(out, &tc.high_qc);
}

fn decode_timeout_cert(cur: &mut WireCursor<'_>) -> Result<TimeoutCert, WireError> {
    let view = View(cur.u64()?);
    let signatures = decode_aggregate(cur)?;
    let high_qc = decode_qc(cur)?;
    Ok(TimeoutCert {
        view,
        signatures,
        high_qc,
    })
}

/// Encodes a client request: the transaction plus an optional signature
/// behind a one-byte presence tag.
pub fn encode_client_request(out: &mut impl Sink, request: &ClientRequest) {
    encode_transaction(out, &request.transaction);
    match &request.signature {
        Some(signature) => {
            out.put(&[1]);
            out.put(signature.as_bytes());
        }
        None => out.put(&[0]),
    }
}

/// Decodes a client request.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input and
/// [`WireError::Corrupt`] on an invalid signature-presence tag.
pub fn decode_client_request(cur: &mut WireCursor<'_>) -> Result<ClientRequest, WireError> {
    let transaction = decode_transaction(cur)?;
    let signature = match cur.u8()? {
        0 => None,
        1 => Some(Signature::from_bytes(cur.digest32()?)),
        _ => return Err(WireError::Corrupt("invalid option tag")),
    };
    Ok(ClientRequest {
        transaction,
        signature,
    })
}

fn encode_sync_request(out: &mut impl Sink, request: &SyncRequest) {
    put_u64(out, request.requester.as_u64());
    out.put(request.head.0.as_bytes());
    put_u64(out, request.height.as_u64());
    out.put(request.signature.as_bytes());
}

fn decode_sync_request(cur: &mut WireCursor<'_>) -> Result<SyncRequest, WireError> {
    let requester = NodeId(cur.u64()?);
    let head = BlockId(bamboo_crypto::Digest::from_bytes(cur.digest32()?));
    let height = Height(cur.u64()?);
    let signature = Signature::from_bytes(cur.digest32()?);
    Ok(SyncRequest {
        requester,
        head,
        height,
        signature,
    })
}

fn encode_sync_response(out: &mut impl Sink, response: &SyncResponse) {
    put_u64(out, response.responder.as_u64());
    match &response.snapshot {
        Some(snapshot) => {
            out.put(&[1]);
            put_u32(out, snapshot.len() as u32);
            out.put(snapshot);
        }
        None => out.put(&[0]),
    }
    put_u32(out, response.blocks.len() as u32);
    for block in &response.blocks {
        encode_block(out, block);
    }
    encode_qc(out, &response.high_qc);
}

fn decode_sync_response(cur: &mut WireCursor<'_>) -> Result<SyncResponse, WireError> {
    let responder = NodeId(cur.u64()?);
    let snapshot = match cur.u8()? {
        0 => None,
        1 => {
            let len = cur.u32()? as usize;
            Some(Bytes::from(cur.take(len)?))
        }
        _ => return Err(WireError::Corrupt("invalid option tag")),
    };
    let block_count = cur.u32()?;
    let mut blocks = Vec::with_capacity(cur.count(block_count.into(), Block::HEADER_BYTES)?);
    for _ in 0..block_count {
        blocks.push(SharedBlock::new(decode_block(cur)?));
    }
    let high_qc = decode_qc(cur)?;
    Ok(SyncResponse {
        responder,
        snapshot,
        blocks,
        high_qc,
    })
}

// ---- message envelope -------------------------------------------------------

const TAG_PROPOSAL: u8 = 1;
const TAG_VOTE: u8 = 2;
// Tags 3 and 4 carried a relayed vote and proposal, which now travel as the
// author's own `Vote` and `Proposal`; retired, not reused.
const TAG_TIMEOUT: u8 = 5;
const TAG_TIMEOUT_CERT: u8 = 6;
// Tags 7–9 carried the standalone-QC and client request/response variants;
// they are retired, not reused, so an old frame is an unknown tag.
const TAG_SYNC_REQUEST: u8 = 10;
const TAG_SYNC_RESPONSE: u8 = 11;
const TAG_HANDOFF: u8 = 12;

fn encode_handoff(out: &mut impl Sink, handoff: &Handoff) {
    put_u64(out, handoff.view.as_u64());
    put_u32(out, handoff.txs.len() as u32);
    for tx in &handoff.txs {
        encode_transaction(out, tx);
    }
}

fn decode_handoff(cur: &mut WireCursor<'_>) -> Result<Handoff, WireError> {
    let view = View(cur.u64()?);
    let count = cur.u32()?;
    let mut txs = Vec::with_capacity(cur.count(count.into(), Transaction::HEADER_BYTES)?);
    for _ in 0..count {
        txs.push(decode_transaction(cur)?);
    }
    Ok(Handoff { view, txs })
}

/// Appends the canonical encoding of a message envelope: a one-byte variant
/// tag followed by the variant body.
pub fn encode_message_into(out: &mut impl Sink, message: &Message) {
    match message {
        Message::Proposal(block) => {
            out.put(&[TAG_PROPOSAL]);
            encode_block(out, block);
        }
        Message::Vote(vote) => {
            out.put(&[TAG_VOTE]);
            encode_vote(out, vote);
        }
        Message::Timeout(tv) => {
            out.put(&[TAG_TIMEOUT]);
            encode_timeout_vote(out, tv);
        }
        Message::TimeoutCertMsg(tc) => {
            out.put(&[TAG_TIMEOUT_CERT]);
            encode_timeout_cert(out, tc);
        }
        Message::SyncRequest(request) => {
            out.put(&[TAG_SYNC_REQUEST]);
            encode_sync_request(out, request);
        }
        Message::SyncResponse(response) => {
            out.put(&[TAG_SYNC_RESPONSE]);
            encode_sync_response(out, response);
        }
        Message::Handoff(handoff) => {
            out.put(&[TAG_HANDOFF]);
            encode_handoff(out, handoff);
        }
    }
}

/// Encodes a message envelope into a fresh buffer of exactly
/// [`encoded_len`] bytes.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(message));
    encode_message_into(&mut out, message);
    out
}

/// Decodes a message envelope, rejecting trailing bytes: messages arrive
/// framed, so slack after the body means the frame and the body disagree.
///
/// # Errors
///
/// Returns the [`WireError`] describing the first structural or integrity
/// violation (unknown tag, truncation, id mismatch, trailing bytes).
pub fn decode_message(bytes: &[u8]) -> Result<Message, WireError> {
    let mut cur = WireCursor::new(bytes);
    let message = match cur.u8()? {
        TAG_PROPOSAL => Message::Proposal(SharedBlock::new(decode_block(&mut cur)?)),
        TAG_VOTE => Message::Vote(decode_vote(&mut cur)?),
        TAG_TIMEOUT => Message::Timeout(decode_timeout_vote(&mut cur)?),
        TAG_TIMEOUT_CERT => Message::TimeoutCertMsg(decode_timeout_cert(&mut cur)?),
        TAG_SYNC_REQUEST => Message::SyncRequest(decode_sync_request(&mut cur)?),
        TAG_SYNC_RESPONSE => Message::SyncResponse(decode_sync_response(&mut cur)?),
        TAG_HANDOFF => Message::Handoff(decode_handoff(&mut cur)?),
        _ => return Err(WireError::Corrupt("unknown message tag")),
    };
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after message"));
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_crypto::KeyPair;

    fn sample_block(txs: u64) -> Block {
        Block::new(
            View(3),
            Height(1),
            BlockId::GENESIS,
            NodeId(2),
            QuorumCert::genesis(),
            (0..txs)
                .map(|i| Transaction::new(NodeId(1_000_000 + i), i, 48, SimTime(i * 10)))
                .collect(),
        )
    }

    fn sample_qc() -> QuorumCert {
        let kps: Vec<KeyPair> = (0..4).map(KeyPair::from_seed).collect();
        let block = sample_block(1);
        let votes: Vec<Vote> = (0..3)
            .map(|i| Vote::new(block.id, block.view, NodeId(i), &kps[i as usize]))
            .collect();
        QuorumCert::from_votes(block.id, block.view, &votes)
    }

    fn sample_handoff() -> Message {
        Message::Handoff(Handoff {
            view: View(12),
            txs: sample_block(2).payload,
        })
    }

    fn every_message() -> Vec<Message> {
        let kp = KeyPair::from_seed(0);
        let block = SharedBlock::new(sample_block(3));
        let vote = Vote::new(block.id, block.view, NodeId(1), &kp);
        let tv = TimeoutVote::new(View(9), NodeId(2), sample_qc(), &kp);
        let tc = TimeoutCert::from_votes(View(9), std::slice::from_ref(&tv));
        vec![
            Message::Proposal(block.clone()),
            Message::Vote(vote),
            Message::Timeout(tv),
            Message::TimeoutCertMsg(tc),
            Message::SyncRequest(SyncRequest::new(
                NodeId(3),
                BlockId::GENESIS,
                Height::GENESIS,
                &kp,
            )),
            Message::SyncResponse(SyncResponse {
                responder: NodeId(0),
                snapshot: Some(Bytes::from(&b"fake snapshot bytes"[..])),
                blocks: vec![block],
                high_qc: sample_qc(),
            }),
            sample_handoff(),
        ]
    }

    #[test]
    fn every_variant_round_trips_canonically() {
        for msg in every_message() {
            let bytes = encode_message(&msg);
            let decoded = decode_message(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", msg.tag()));
            assert_eq!(decoded, msg, "{}", msg.tag());
            // Canonical: re-encoding the decoded value is byte-identical.
            assert_eq!(encode_message(&decoded), bytes, "{}", msg.tag());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in every_message() {
            let mut bytes = encode_message(&msg);
            bytes.push(0);
            assert_eq!(
                decode_message(&bytes).err(),
                Some(WireError::Corrupt("trailing bytes after message")),
                "{}",
                msg.tag()
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(
            decode_message(&[0xee, 1, 2, 3]).err(),
            Some(WireError::Corrupt("unknown message tag"))
        );
        assert_eq!(decode_message(&[]).err(), Some(WireError::Truncated));
    }

    #[test]
    fn retired_tags_are_unknown_whatever_follows() {
        let mut bodies: Vec<Vec<u8>> = every_message().iter().map(encode_message).collect();
        bodies.extend([vec![0], vec![0xff; 200]]);
        for tag in [3u8, 4, 7, 8, 9] {
            for body in &bodies {
                let mut bytes = body.clone();
                bytes[0] = tag;
                assert_eq!(
                    decode_message(&bytes).err(),
                    Some(WireError::Corrupt("unknown message tag")),
                    "tag {tag}"
                );
            }
        }
    }

    #[test]
    fn client_requests_round_trip_signed_and_unsigned() {
        let tx = Transaction::new(NodeId(1_000_007), 4, 16, SimTime(77));
        for request in [
            ClientRequest::unsigned(tx.clone()),
            ClientRequest::signed(tx.clone(), &KeyPair::client_from_seed(7)),
        ] {
            let mut bytes = Vec::new();
            encode_client_request(&mut bytes, &request);
            let mut cur = WireCursor::new(&bytes);
            assert_eq!(decode_client_request(&mut cur).as_ref(), Ok(&request));
            assert!(cur.done());
        }
    }

    #[test]
    fn tampered_block_id_is_rejected() {
        let bytes = encode_message(&Message::Proposal(SharedBlock::new(sample_block(2))));
        let mut tampered = bytes.clone();
        tampered[1] ^= 0xff; // first byte of the block id
        assert!(matches!(
            decode_message(&tampered),
            Err(WireError::Corrupt("block id mismatch"))
        ));
        // Tampering a header field (the view, right after the 32-byte id)
        // changes the re-derived id, so it is caught the same way.
        let mut tampered = bytes;
        tampered[40] ^= 0xff;
        assert!(decode_message(&tampered).is_err());
    }

    /// A QC for `sample_block(0)` whose aggregate is laid out as given: a
    /// declared word count, the words, then the 32-byte aggregate.
    fn raw_qc(declared: u16, words: &[u64], aggregate: [u8; 32]) -> Vec<u8> {
        let block = sample_block(0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(block.id.0.as_bytes());
        put_u64(&mut bytes, block.view.as_u64());
        put_u16(&mut bytes, declared);
        for &word in words {
            put_u64(&mut bytes, word);
        }
        bytes.extend_from_slice(&aggregate);
        bytes
    }

    #[test]
    fn qc_round_trips_at_every_quorum_size() {
        let block = sample_block(0);
        for signers in [1u64, 22, 667] {
            // Votes arrive in no particular order.
            let votes: Vec<Vote> = (0..signers)
                .map(|i| (i * 389 + 17) % signers)
                .map(|i| Vote::new(block.id, block.view, NodeId(i), &KeyPair::from_seed(i)))
                .collect();
            let qc = QuorumCert::from_votes(block.id, block.view, &votes);
            assert_eq!(qc.signer_count() as u64, signers);
            let mut bytes = Vec::new();
            encode_qc(&mut bytes, &qc);
            assert_eq!(
                bytes.len(),
                32 + 8 + 2 + 8 * signers.div_ceil(64) as usize + 32
            );
            let mut cur = WireCursor::new(&bytes);
            assert_eq!(decode_qc(&mut cur).as_ref(), Ok(&qc), "{signers} signers");
            assert!(cur.done());
        }
    }

    #[test]
    fn the_qc_decoder_refuses_non_canonical_aggregates() {
        let decode = |bytes: &[u8]| decode_qc(&mut WireCursor::new(bytes)).err();
        let aggregate = [7; 32];
        assert_eq!(decode(&raw_qc(1, &[0b1011], aggregate)), None);
        assert_eq!(decode(&raw_qc(0, &[], [0; 32])), None);
        for (bytes, why) in [
            (
                raw_qc(2, &[0b1011, 0], aggregate),
                "trailing zero signer word",
            ),
            (raw_qc(1, &[0], aggregate), "trailing zero signer word"),
            (
                raw_qc(0, &[], aggregate),
                "empty signer set carries an aggregate",
            ),
            (
                raw_qc(1, &[0b1011], [0; 32]),
                "signer set without an aggregate",
            ),
        ] {
            assert_eq!(decode(&bytes), Some(WireError::Corrupt(why)));
        }
        // A word count over the cap is refused right after it is read: no
        // word is taken and nothing is allocated, whatever follows.
        for declared in [1_025, u16::MAX] {
            let hostile = raw_qc(declared, &vec![u64::MAX; 1_025], aggregate);
            let mut cur = WireCursor::new(&hostile);
            assert_eq!(
                decode_qc(&mut cur).err(),
                Some(WireError::Corrupt("signer bitset over 1,024 words"))
            );
            assert_eq!(hostile.len() - cur.remaining(), 32 + 8 + 2);
        }
        let full = raw_qc(1_024, &vec![u64::MAX; 1_024], aggregate);
        let qc = decode_qc(&mut WireCursor::new(&full)).unwrap();
        assert_eq!(qc.signer_count(), AggregateSignature::MAX_WORDS * 64);
        // A declared count the input cannot back is a truncation.
        assert_eq!(
            decode(&raw_qc(3, &[1, 2], aggregate)[..60]),
            Some(WireError::Truncated)
        );
    }

    #[test]
    fn a_count_must_fit_in_the_bytes_left() {
        let cur = WireCursor::new(&[0; 12]);
        assert_eq!(cur.count(3, 4), Ok(3), "exactly fits");
        assert_eq!(cur.count(0, 4), Ok(0));
        for declared in [4, 1 << 20, u32::MAX.into(), u64::MAX] {
            assert_eq!(cur.count(declared, 4), Err(WireError::Truncated));
        }
        assert_eq!(cur.count(12, 1), Ok(12));
        assert_eq!(cur.count(u64::MAX, usize::MAX), Err(WireError::Truncated));
    }

    /// Every counted field of a message refuses a count its bytes cannot
    /// hold with `Truncated`, before it reserves anything; a count that
    /// exactly fits decodes.
    #[test]
    fn every_counted_field_refuses_a_count_its_bytes_cannot_hold() {
        let empty_txs: Vec<Transaction> = (0..2)
            .map(|i| Transaction::new(NodeId(1_000_000 + i), i, 0, SimTime(i)))
            .collect();
        let genesis = QuorumCert::genesis();
        let block = Block::new(
            View(3),
            Height(1),
            BlockId::GENESIS,
            NodeId(2),
            genesis.clone(),
            empty_txs.clone(),
        );
        let sync = SyncResponse {
            responder: NodeId(0),
            snapshot: None,
            blocks: vec![SharedBlock::new(sample_block(1)); 2],
            high_qc: sample_qc(),
        };
        let handoff = Handoff {
            view: View(7),
            txs: empty_txs,
        };
        let block_at = 1 + Block::HEADER_BYTES + Count::of(|out| encode_qc(out, &genesis));
        for (message, at, exact) in [
            (Message::Proposal(SharedBlock::new(block)), block_at, true),
            (Message::SyncResponse(sync), 1 + 8 + 1, false),
            (Message::Handoff(handoff), 1 + 8, true),
        ] {
            let bytes = encode_message(&message);
            assert_eq!(bytes[at..at + 4], 2u32.to_be_bytes(), "{}", message.tag());
            assert_eq!(decode_message(&bytes).as_ref(), Ok(&message));
            let counts = [1 << 20, u32::MAX].into_iter();
            for count in counts.chain(exact.then_some(3)) {
                let mut forged = bytes.clone();
                forged[at..at + 4].copy_from_slice(&count.to_be_bytes());
                let refused = decode_message(&forged).err();
                assert_eq!(refused, Some(WireError::Truncated), "{count}");
            }
        }
    }

    /// The textbook bit-at-a-time CRC-32, the reference the table walk must
    /// reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_split() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u8> = (0..=4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bitwise(&data[..len]), "{len}");
        }
        for len in [0usize, 1, 7, 8, 9, 63, 1000, 4096] {
            let whole = crc32_bitwise(&data[..len]);
            for split in (0..=len).step_by(len / 16 + 1).chain([len]) {
                let (a, b) = data[..len].split_at(split);
                assert_eq!(
                    !crc32_update(crc32_update(!0, a), b),
                    whole,
                    "{len}/{split}"
                );
            }
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// `encoded_len` is the one message size: it must be what the codec
    /// writes for every variant, a state transfer carrying checkpoint chunks
    /// and blocks with multi-word certificates included.
    #[test]
    fn encoded_len_is_exact_for_every_message() {
        let mut block = sample_block(5);
        let votes: Vec<Vote> = (0..130)
            .map(|i| Vote::new(block.id, block.view, NodeId(i), &KeyPair::from_seed(i)))
            .collect();
        block.justify = QuorumCert::from_votes(block.id, block.view, &votes);
        let chunks: Vec<u8> = (0..3 * 4096).map(|i| (i % 251) as u8).collect();
        let transfer = Message::SyncResponse(SyncResponse {
            responder: NodeId(1),
            snapshot: Some(Bytes::from(chunks)),
            blocks: vec![
                SharedBlock::new(block.clone()),
                SharedBlock::new(sample_block(0)),
            ],
            high_qc: block.justify.clone(),
        });
        for msg in every_message().into_iter().chain([transfer]) {
            assert_eq!(
                encoded_len(&msg),
                encode_message(&msg).len(),
                "{}",
                msg.tag()
            );
        }
        let proposal = encoded_len(&Message::Proposal(SharedBlock::new(block)));
        let txs = 5 * (Transaction::HEADER_BYTES + 48);
        assert_eq!(proposal, 1 + block_overhead_len(130) + txs);
    }

    /// fig8's offered loads are fractions of the model's saturation rate,
    /// which charges a block this overhead: a layout change that moves it
    /// moves that figure's x-axis, and must fail here first.
    #[test]
    fn block_overhead_is_pinned_at_the_figure_sizes() {
        let sizes = [4, 64, 65, 1000].map(block_overhead_len);
        assert_eq!(sizes, [174, 174, 182, 294]);
        assert_eq!(
            block_overhead_len(0),
            Block::HEADER_BYTES + 32 + 8 + 2 + 32 + 4
        );
    }

    #[test]
    fn cursor_reports_remaining_and_done() {
        let mut cur = WireCursor::new(&[1, 2, 3, 4]);
        assert_eq!(cur.remaining(), 4);
        assert_eq!(cur.u16().unwrap(), 0x0102);
        assert!(!cur.done());
        assert_eq!(cur.remaining(), 2);
        assert_eq!(cur.u16().unwrap(), 0x0304);
        assert!(cur.done());
        assert_eq!(cur.u8().err(), Some(WireError::Truncated));
    }
}
