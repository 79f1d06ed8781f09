//! Length-prefixed stream framing: `[u32 len][u8 kind][payload]`.
//!
//! The layout reuses the storage-record discipline from `bamboo-core`'s
//! segment log — a big-endian length prefix, a one-byte kind tag, an opaque
//! payload — minus the CRC: TCP already provides per-segment integrity, and
//! every consensus payload is structurally verified by the canonical codec
//! ([`bamboo_types::wire`]) on decode anyway (block ids re-derived,
//! signatures checked downstream by the authenticator).
//!
//! The [`FrameDecoder`] is incremental: readers push whatever byte ranges the
//! socket hands them — single bytes, half frames, three frames at once — and
//! pull out complete frames as they materialise. A partial frame simply waits
//! for more bytes; only an unknown kind tag or an oversized length is an
//! error, and both poison the connection (the stream offset can no longer be
//! trusted), mirroring how the storage decoder stops at its first torn
//! record.

use std::fmt;

use bamboo_core::live::{NodeNetStats, PeerStats, SeatStatus};
use bamboo_crypto::{KeyPair, PublicKey, Signature};
use bamboo_types::wire::{put_u16, put_u32, put_u64, WireCursor};
use bamboo_types::{ClientRequest, WireError};

/// Bytes of framing overhead before the payload: 4-byte length + kind tag.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Upper bound on a frame payload, mirroring the storage layer's record
/// bound. Anything larger is treated as stream corruption, not data.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Wire-protocol magic + version carried in every [`FrameKind::Hello`], so a
/// stray connection from an incompatible build is rejected at the first
/// frame instead of misparsing consensus traffic.
pub const HELLO_MAGIC: &[u8; 4] = b"BNET";
/// Protocol version; bump for any framing or codec layout change.
pub const WIRE_VERSION: u16 = 4;

/// The sender id a non-replica (driver or client) connection announces in
/// its hello. Replica ids are dense from zero, so `u64::MAX` can never
/// collide with a validator; its hello carries no proof.
pub const CLIENT_SENDER: u64 = u64::MAX;

/// What a frame carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum FrameKind {
    /// The dialler's first frame: magic, version, the sender's id and its
    /// signature over the connection's [`FrameKind::Challenge`].
    Hello = 1,
    /// A consensus message in the canonical [`bamboo_types::wire`] encoding.
    Msg = 2,
    /// A batch of client requests (the driver's load-injection path).
    ClientBatch = 3,
    /// The id → listen-address table, sent by the multi-process driver once
    /// every replica's port is known (and re-sent after a restart moves one).
    PeerTable = 4,
    /// A status probe carrying an opaque token; the receiver answers with a
    /// [`FrameKind::StatusReply`] echoing it (round-trip latency probe).
    Status = 5,
    /// The reply to a status probe: token echo plus commit progress.
    StatusReply = 6,
    /// Orderly shutdown request from the driver.
    Shutdown = 7,
    /// The acceptor's first frame: a fresh 32-byte nonce the dialler's hello
    /// must sign.
    Challenge = 8,
}

impl FrameKind {
    /// Decodes a kind tag.
    pub fn from_u8(tag: u8) -> Option<FrameKind> {
        match tag {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Msg),
            3 => Some(FrameKind::ClientBatch),
            4 => Some(FrameKind::PeerTable),
            5 => Some(FrameKind::Status),
            6 => Some(FrameKind::StatusReply),
            7 => Some(FrameKind::Shutdown),
            8 => Some(FrameKind::Challenge),
            _ => None,
        }
    }
}

/// Why a byte stream stopped decoding. Both cases mean the connection can no
/// longer be trusted and must be dropped (the peer will reconnect).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The kind tag is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::UnknownKind(tag) => write!(f, "unknown frame kind 0x{tag:02x}"),
            FrameError::Oversized(len) => write!(f, "frame payload of {len} bytes exceeds bound"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One complete frame pulled out of the stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The payload bytes (everything after the 5-byte header).
    pub payload: Vec<u8>,
}

/// Appends one framed payload to `out`.
pub fn frame_into(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    out.push(kind as u8);
    out.extend_from_slice(payload);
}

/// Encodes one framed payload into a fresh buffer.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame_into(&mut out, kind, payload);
    out
}

/// An incremental frame decoder over an arbitrary byte-chunk stream.
///
/// Bytes arrive via [`FrameDecoder::push`] in whatever chunks the socket
/// produces; [`FrameDecoder::next_frame`] yields complete frames and `None`
/// while the tail is still partial. Consumed bytes are compacted away
/// periodically so the buffer stays proportional to the unconsumed tail, not
/// the connection's lifetime.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

/// Compact the buffer once this many consumed bytes accumulate at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pulls the next complete frame, or `None` while the tail is partial.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] when the header names an unknown kind or an
    /// oversized payload; the stream offset is unrecoverable after either.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_be_bytes(pending[..4].try_into().unwrap());
        if len as usize > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized(len));
        }
        let kind = FrameKind::from_u8(pending[4]).ok_or(FrameError::UnknownKind(pending[4]))?;
        let total = FRAME_HEADER_BYTES + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[FRAME_HEADER_BYTES..total].to_vec();
        self.start += total;
        Ok(Some(Frame { kind, payload }))
    }
}

// ---- control-frame payload codecs -------------------------------------------

/// What a hello's proof signs: the connection's challenge, the claimed id
/// and the tag of the cluster it claims a seat in, so a proof is good for
/// one connection, one identity and one cluster only (seats of different
/// clusters share keys, and a freed port can be reused by another cluster).
fn hello_claim(challenge: &[u8; 32], sender: u64, cluster: u64) -> Vec<u8> {
    let (sender, cluster) = (sender.to_be_bytes(), cluster.to_be_bytes());
    [&b"bamboo-hello"[..], challenge, &sender, &cluster].concat()
}

/// Encodes a hello payload: magic, version, sender id, and the proof —
/// replica `sender`'s signature over `challenge` and `cluster`
/// ([`KeyPair::from_seed`] of its id, the key its consensus messages carry).
/// A [`CLIENT_SENDER`] hello carries an all-zero proof.
pub fn encode_hello(sender: u64, cluster: u64, challenge: &[u8; 32]) -> Vec<u8> {
    let proof = if sender == CLIENT_SENDER {
        Signature::from_bytes([0; 32])
    } else {
        KeyPair::from_seed(sender).sign(&hello_claim(challenge, sender, cluster))
    };
    let mut out = Vec::with_capacity(46);
    out.extend_from_slice(HELLO_MAGIC);
    put_u16(&mut out, WIRE_VERSION);
    put_u64(&mut out, sender);
    out.extend_from_slice(proof.as_bytes());
    out
}

/// Decodes a hello payload into the claimed sender id and its proof,
/// checking magic and version.
///
/// # Errors
///
/// Returns [`WireError::BadMagic`] / [`WireError::UnsupportedVersion`] for
/// incompatible peers and [`WireError::Truncated`] / [`WireError::Corrupt`]
/// for malformed payloads.
pub fn decode_hello(payload: &[u8]) -> Result<(u64, Signature), WireError> {
    let mut cur = WireCursor::new(payload);
    if cur.take(4)? != HELLO_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let sender = cur.u64()?;
    let proof = Signature::from_bytes(cur.digest32()?);
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after hello"));
    }
    Ok((sender, proof))
}

/// Reads one whole frame from a blocking stream, with the decoder's checks.
///
/// # Errors
///
/// Fails on a read error or timeout, or with
/// [`std::io::ErrorKind::InvalidData`] for a frame the decoder refuses.
pub fn read_frame(stream: &mut impl std::io::Read) -> std::io::Result<Frame> {
    let invalid = |e: FrameError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut header = [0u8; FRAME_HEADER_BYTES];
    stream.read_exact(&mut header)?;
    let mut decoder = FrameDecoder::new();
    decoder.push(&header);
    if let Some(frame) = decoder.next_frame().map_err(invalid)? {
        return Ok(frame);
    }
    let len = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    let mut payload = vec![0; len as usize];
    stream.read_exact(&mut payload)?;
    decoder.push(&payload);
    Ok(decoder
        .next_frame()
        .map_err(invalid)?
        .expect("a whole frame"))
}

/// Reads the acceptor's challenge: the first frame of every connection,
/// one 32-byte nonce.
///
/// # Errors
///
/// Fails like [`read_frame`], or with [`std::io::ErrorKind::InvalidData`]
/// when the first frame is anything else.
pub fn read_challenge(stream: &mut impl std::io::Read) -> std::io::Result<[u8; 32]> {
    let frame = read_frame(stream)?;
    let nonce = (frame.kind == FrameKind::Challenge).then_some(frame.payload);
    let not_a_challenge = || std::io::Error::from(std::io::ErrorKind::InvalidData);
    nonce
        .and_then(|nonce| nonce.try_into().ok())
        .ok_or_else(not_a_challenge)
}

/// Whether `proof` is `key`'s signature over this connection's `challenge`,
/// the claimed `sender` and the acceptor's own `cluster` tag.
pub fn hello_proves(
    key: &PublicKey,
    challenge: &[u8; 32],
    sender: u64,
    cluster: u64,
    proof: &Signature,
) -> bool {
    key.verify(&hello_claim(challenge, sender, cluster), proof)
}

/// Encodes a peer table: `(replica id, listen address)` entries. Addresses
/// travel as UTF-8 strings (the `SocketAddr` display form), which round-trips
/// both IPv4 and IPv6 without a bespoke binary layout.
pub fn encode_peer_table(peers: &[(u64, std::net::SocketAddr)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + peers.len() * 32);
    put_u32(&mut out, peers.len() as u32);
    for (id, addr) in peers {
        put_u64(&mut out, *id);
        let text = addr.to_string();
        put_u16(&mut out, text.len() as u16);
        out.extend_from_slice(text.as_bytes());
    }
    out
}

/// Decodes a peer table.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input and
/// [`WireError::Corrupt`] when an address fails to parse or bytes trail the
/// table.
pub fn decode_peer_table(payload: &[u8]) -> Result<Vec<(u64, std::net::SocketAddr)>, WireError> {
    let mut cur = WireCursor::new(payload);
    let count = cur.u32()? as usize;
    let mut peers = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let id = cur.u64()?;
        let len = cur.u16()? as usize;
        let text = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| WireError::Corrupt("peer address is not UTF-8"))?;
        let addr = text
            .parse()
            .map_err(|_| WireError::Corrupt("peer address failed to parse"))?;
        peers.push((id, addr));
    }
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after peer table"));
    }
    Ok(peers)
}

/// Encodes a batch of client requests.
pub fn encode_client_batch(requests: &[ClientRequest]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + requests.len() * 64);
    put_u32(&mut out, requests.len() as u32);
    for request in requests {
        bamboo_types::wire::encode_client_request(&mut out, request);
    }
    out
}

/// Decodes a batch of client requests.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on short input and
/// [`WireError::Corrupt`] on malformed requests or trailing bytes.
pub fn decode_client_batch(payload: &[u8]) -> Result<Vec<ClientRequest>, WireError> {
    let mut cur = WireCursor::new(payload);
    let count = cur.u32()? as usize;
    let mut requests = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        requests.push(bamboo_types::wire::decode_client_request(&mut cur)?);
    }
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after client batch"));
    }
    Ok(requests)
}

/// A replica's answer to a status probe.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusReply {
    /// The probe token, echoed back (lets one connection carry overlapping
    /// probes and still match replies to requests).
    pub token: u64,
    /// The replica's progress, probed prefix fingerprint and books, less
    /// its commit latency: that is on a clock no other process shares
    /// (DESIGN.md §9.3).
    pub status: SeatStatus,
    /// The replica's network counters.
    pub net: NodeNetStats,
}

/// Encodes a status probe. `prefix_len` of 0 asks for the fingerprint of the
/// replica's full committed chain; a positive value asks for the fingerprint
/// of the first `prefix_len` committed blocks (clamped to the chain length) —
/// the cross-process agreement oracle: probe everyone for their length, take
/// the minimum, probe again at that prefix and compare fingerprints.
pub fn encode_status(token: u64, prefix_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, token);
    put_u64(&mut out, prefix_len);
    out
}

/// Decodes a status probe into `(token, prefix_len)`.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Corrupt`] on a malformed
/// probe.
pub fn decode_status(payload: &[u8]) -> Result<(u64, u64), WireError> {
    let mut cur = WireCursor::new(payload);
    let token = cur.u64()?;
    let prefix_len = cur.u64()?;
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after status"));
    }
    Ok((token, prefix_len))
}

/// A status reply's fixed-width fields in wire order, whole words first,
/// then floats as their bit patterns: the token, the seat's progress, each
/// group of its books once (host counters, mempool, wire and lifetime,
/// utilization with the two view clocks; not the commit latency), its
/// network counters. Both halves of the codec walk these lists.
fn words(reply: &mut StatusReply) -> (Vec<&mut u64>, Vec<&mut f64>) {
    let (status, net) = (&mut reply.status, &mut reply.net);
    let books = &mut status.books;
    let (c, load) = (&mut books.counters, &mut books.utilization);
    let mut ints = vec![
        &mut reply.token,
        &mut status.committed_txs,
        &mut status.committed_blocks,
        &mut status.view,
        &mut c.safety_violations,
        &mut c.rejected_messages,
        &mut c.client_auth_rejections,
        &mut c.timeout_view_changes,
        &mut c.records_replayed,
        &mut c.mempool.pending,
        &mut c.mempool.accepted,
        &mut c.mempool.rejected,
        &mut c.mempool.requeued,
        &mut c.mempool.dispatched,
        &mut c.mempool.handed_off,
        &mut c.mempool.handed_in,
        &mut c.mempool.handoff_dropped,
        &mut c.mempool.rehanded,
        &mut books.messages,
        &mut books.bytes,
        &mut books.lifetime.0,
        &mut load.busiest.0,
        &mut net.node,
        &mut net.accepted_connections,
        &mut net.refused_hellos,
        &mut net.verify_accepted,
        &mut net.verify_rejected,
    ];
    let mut floats = vec![&mut load.u_max, &mut load.leader_share];
    for clock in [&mut load.view_qc, &mut load.view_timeout] {
        ints.push(&mut clock.count);
        floats.extend([&mut clock.mean_ms, &mut clock.p50_ms]);
        floats.extend([&mut clock.p99_ms, &mut clock.max_ms]);
    }
    (ints, floats)
}

/// Encodes a status reply: its fixed-width fields (`words`), the probed
/// prefix fingerprint, and one entry per peer link.
pub fn encode_status_reply(reply: &StatusReply) -> Vec<u8> {
    let mut reply = reply.clone();
    let mut out = Vec::with_capacity(400 + reply.net.peers.len() * 48);
    let (ints, floats) = words(&mut reply);
    let bits = floats.into_iter().map(|float| float.to_bits());
    for word in ints.into_iter().map(|int| *int).chain(bits) {
        put_u64(&mut out, word);
    }
    out.extend_from_slice(&reply.status.chain_fingerprint);
    put_u64(&mut out, reply.net.peers.len() as u64);
    for (peer, p) in &reply.net.peers {
        let words = [*peer, p.attempts, p.connects, p.frames_sent, p.bytes_sent];
        for word in words.into_iter().chain([p.dropped]) {
            put_u64(&mut out, word);
        }
    }
    out
}

/// Decodes a status reply.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Corrupt`] on a malformed
/// reply.
pub fn decode_status_reply(payload: &[u8]) -> Result<StatusReply, WireError> {
    let mut cur = WireCursor::new(payload);
    let mut reply = StatusReply::default();
    let (ints, floats) = words(&mut reply);
    for int in ints {
        *int = cur.u64()?;
    }
    for float in floats {
        *float = f64::from_bits(cur.u64()?);
    }
    reply.status.chain_fingerprint = cur.digest32()?;
    for _ in 0..cur.u64()? {
        let peer = cur.u64()?;
        let (attempts, connects) = (cur.u64()?, cur.u64()?);
        let stats = PeerStats {
            attempts,
            connects,
            reconnects: connects.saturating_sub(1),
            frames_sent: cur.u64()?,
            bytes_sent: cur.u64()?,
            dropped: cur.u64()?,
        };
        reply.net.peers.push((peer, stats));
    }
    if !cur.done() {
        return Err(WireError::Corrupt("trailing bytes after status reply"));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::metrics::{HostCounters, LatencyStats, MempoolStats, SeatBooks, Utilization};
    use bamboo_types::{NodeId, SimDuration};

    #[test]
    fn frames_round_trip_through_the_decoder() {
        let mut stream = Vec::new();
        frame_into(
            &mut stream,
            FrameKind::Hello,
            &encode_hello(3, 11, &[7; 32]),
        );
        frame_into(&mut stream, FrameKind::Msg, b"payload");
        frame_into(&mut stream, FrameKind::Shutdown, &[]);
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        let hello = decoder.next_frame().unwrap().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        let (sender, proof) = decode_hello(&hello.payload).unwrap();
        assert_eq!(sender, 3);
        let key = KeyPair::from_seed(3).public_key();
        assert!(hello_proves(&key, &[7; 32], 3, 11, &proof));
        assert!(
            !hello_proves(&key, &[8; 32], 3, 11, &proof),
            "another challenge"
        );
        assert!(
            !hello_proves(&key, &[7; 32], 2, 11, &proof),
            "another claim"
        );
        assert!(
            !hello_proves(&key, &[7; 32], 3, 12, &proof),
            "another cluster"
        );
        let msg = decoder.next_frame().unwrap().unwrap();
        assert_eq!(msg.kind, FrameKind::Msg);
        assert_eq!(msg.payload, b"payload");
        let shutdown = decoder.next_frame().unwrap().unwrap();
        assert_eq!(shutdown.kind, FrameKind::Shutdown);
        assert!(shutdown.payload.is_empty());
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn unknown_kind_and_oversized_length_poison_the_stream() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&[0, 0, 0, 1, 0xee, 42]);
        assert_eq!(decoder.next_frame(), Err(FrameError::UnknownKind(0xee)));
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_be_bytes());
        decoder.push(&[FrameKind::Msg as u8]);
        assert_eq!(decoder.next_frame(), Err(FrameError::Oversized(u32::MAX)));
    }

    #[test]
    fn hello_rejects_wrong_magic_and_version() {
        let mut bad_magic = encode_hello(1, 0, &[0; 32]);
        bad_magic[0] = b'X';
        assert_eq!(decode_hello(&bad_magic), Err(WireError::BadMagic));
        let mut bad_version = encode_hello(1, 0, &[0; 32]);
        bad_version[5] = 99;
        assert_eq!(
            decode_hello(&bad_version),
            Err(WireError::UnsupportedVersion(99))
        );
        assert_eq!(decode_hello(&[]), Err(WireError::Truncated));
        // A build from before the bitset certificates (version 2, per-signer
        // QC entries) is refused at its hello.
        let mut parent = encode_hello(1, 0, &[0; 32]);
        parent[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert_eq!(decode_hello(&parent), Err(WireError::UnsupportedVersion(2)));
    }

    #[test]
    fn peer_table_round_trips() {
        let peers: Vec<(u64, std::net::SocketAddr)> = vec![
            (0, "127.0.0.1:4000".parse().unwrap()),
            (1, "127.0.0.1:4001".parse().unwrap()),
            (2, "[::1]:9000".parse().unwrap()),
        ];
        let bytes = encode_peer_table(&peers);
        assert_eq!(decode_peer_table(&bytes).unwrap(), peers);
        assert!(decode_peer_table(&bytes[..bytes.len() - 1]).is_err());
    }

    fn stats(count: u64, mean_ms: f64) -> LatencyStats {
        LatencyStats {
            count,
            mean_ms,
            p50_ms: mean_ms * 0.9,
            p99_ms: mean_ms * 3.0,
            max_ms: mean_ms * 4.0,
        }
    }

    #[test]
    fn status_reply_round_trips() {
        let link = PeerStats {
            attempts: 3,
            connects: 2,
            reconnects: 1,
            frames_sent: 40,
            bytes_sent: 4000,
            dropped: 5,
        };
        let reply = StatusReply {
            token: 7,
            status: SeatStatus {
                committed_txs: 1234,
                committed_blocks: 56,
                view: 78,
                chain_fingerprint: [9u8; 32],
                books: SeatBooks {
                    counters: HostCounters {
                        safety_violations: 1,
                        rejected_messages: 3,
                        client_auth_rejections: 4,
                        timeout_view_changes: 2,
                        records_replayed: 5,
                        mempool: MempoolStats {
                            pending: 11,
                            accepted: 700,
                            rejected: 12,
                            requeued: 13,
                            dispatched: 690,
                            handed_off: 10,
                            handed_in: 9,
                            handoff_dropped: 1,
                            rehanded: 3,
                        },
                    },
                    messages: 300,
                    bytes: 45_000,
                    lifetime: SimDuration(2_500_000_000),
                    utilization: Utilization {
                        busiest: NodeId(2),
                        u_max: 0.125,
                        leader_share: 0.3,
                        view_qc: stats(40, 1.5),
                        view_timeout: stats(2, 50.25),
                    },
                    // On the seat's own clock: never on the frame.
                    latency: LatencyStats::default(),
                },
            },
            net: NodeNetStats {
                node: 2,
                peers: vec![(0, link), (1, PeerStats::default())],
                accepted_connections: 6,
                refused_hellos: 1,
                verify_accepted: 900,
                verify_rejected: 8,
            },
        };
        let bytes = encode_status_reply(&reply);
        assert_eq!(decode_status_reply(&bytes).unwrap(), reply);
        assert!(decode_status_reply(&bytes[..bytes.len() - 1]).is_err());
        // Every group of the books is on the frame once, in its own words.
        let mut moved = reply.clone();
        moved.status.books.utilization.view_timeout.p99_ms += 1.0;
        let moved = encode_status_reply(&moved);
        assert_eq!(moved.len(), bytes.len());
        assert_ne!(moved, bytes);
        // The commit latency stays off the frame.
        let mut timed = reply.clone();
        timed.status.books.latency = stats(7, 3.0);
        assert_eq!(encode_status_reply(&timed), bytes);
        assert_eq!(decode_status(&encode_status(99, 4)).unwrap(), (99, 4));
    }
}
