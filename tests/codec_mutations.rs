//! One byte-mutation driver for every codec of untrusted bytes: every strict
//! prefix of a valid encoding, every byte set to every other value and every
//! 4-byte window set to `u32::MAX` (a forged count or length). Each codec
//! family judges these mutants with its own oracle; none may panic.

use std::ops::Range;

use bamboo::core::storage::*;
use bamboo::crypto::{KeyPair, Signature};
use bamboo::forest::*;
use bamboo::net::frame::*;
use bamboo::net::PeerStats;
use bamboo::types::wire::*;
use bamboo::types::*;

/// One change to a valid encoding.
#[derive(Clone, Debug)]
enum Mutation {
    /// Only the first `n` bytes arrive.
    Cut(usize),
    /// The bytes in the range are overwritten: one byte set to another
    /// value, or a 4-byte window set to `u32::MAX`.
    Write(Range<usize>),
}

/// Every mutant of `bytes`, beside the mutation that made it; a window that
/// is already `u32::MAX` makes none.
fn mutants(bytes: &[u8]) -> impl Iterator<Item = (Mutation, Vec<u8>)> + '_ {
    let write = move |at: usize, with: &[u8]| {
        let mut mutant = bytes.to_vec();
        mutant[at..at + with.len()].copy_from_slice(with);
        (Mutation::Write(at..at + with.len()), mutant)
    };
    let cuts = (0..bytes.len()).map(|n| (Mutation::Cut(n), bytes[..n].to_vec()));
    let others = move |at: usize| (0..=u8::MAX).filter(move |&v| v != bytes[at]);
    let sets = (0..bytes.len()).flat_map(move |at| others(at).map(move |v| write(at, &[v])));
    let windows = (0..bytes.len().saturating_sub(3)).filter(|&at| bytes[at..at + 4] != [0xFF; 4]);
    let maxes = windows.map(move |at| write(at, &[0xFF; 4]));
    cuts.chain(sets).chain(maxes)
}

type Res<T> = Result<T, WireError>;

/// The canonical codecs' oracle: `value`'s encoding round-trips, its every
/// strict prefix fails, and every overwrite fails or decodes to a value that
/// re-encodes to exactly the bytes it consumed. Returns the overwrites that
/// decoded.
fn assert_mutations_fail_or_round_trip<T>(
    value: &T,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&mut WireCursor) -> Res<T>,
) -> Vec<Range<usize>> {
    let round_trip = |bytes: &[u8]| {
        let mut cur = WireCursor::new(bytes);
        let value = decode(&mut cur).ok()?;
        Some((encode(&value), bytes.len() - cur.remaining()))
    };
    let bytes = encode(value);
    assert_eq!(round_trip(&bytes), Some((bytes.clone(), bytes.len())));
    let mut accepted = Vec::new();
    for (mutation, mutant) in mutants(&bytes) {
        match (mutation, round_trip(&mutant)) {
            (Mutation::Cut(n), decoded) => assert_eq!(decoded, None, "{n}-byte prefix"),
            (Mutation::Write(_), None) => {}
            (Mutation::Write(span), Some((out, read))) => {
                assert_eq!(out, mutant[..read], "{span:?}");
                accepted.push(span);
            }
        }
    }
    accepted
}

/// A decoder of a whole payload, as one that reads through a cursor.
fn whole<T>(decode: fn(&[u8]) -> Res<T>) -> impl Fn(&mut WireCursor) -> Res<T> {
    move |cur| decode(cur.take(cur.remaining())?)
}

/// An encoder that appends, as one that returns its bytes.
fn fresh<T>(encode: fn(&mut Vec<u8>, &T)) -> impl Fn(&T) -> Vec<u8> {
    move |value| {
        let mut out = Vec::new();
        encode(&mut out, value);
        out
    }
}

/// The stream of `parts` laid end to end, and where each part starts.
fn concat(parts: impl Iterator<Item = Vec<u8>>) -> (Vec<u8>, Vec<usize>) {
    let (mut stream, mut starts) = (Vec::new(), Vec::new());
    for part in parts {
        starts.push(stream.len());
        stream.extend(part);
    }
    (stream, starts)
}

fn txs(count: u64) -> Vec<Transaction> {
    let tx = |i| Transaction::new(NodeId(1_000_000 + i), i, 8, SimTime(i * 10));
    (0..count).map(tx).collect()
}

/// A quorum of three of four replicas over `(block, view)`.
fn quorum(block: BlockId, view: View) -> QuorumCert {
    let vote = |i| Vote::new(block, view, NodeId(i), &KeyPair::from_seed(i));
    QuorumCert::from_votes(block, view, &(0..3).map(vote).collect::<Vec<_>>())
}

/// A block certifying `parent`, in `view`, carrying `count` transactions.
fn child(parent: &Block, view: u64, count: u64) -> SharedBlock {
    let (height, proposer) = (parent.height.next(), NodeId(view % 4));
    let (view, justify, txs) = (View(view), quorum(parent.id, parent.view), txs(count));
    Block::new(view, height, parent.id, proposer, justify, txs).into()
}

fn every_message() -> Vec<Message> {
    let (kp, block) = (KeyPair::from_seed(0), child(&Block::genesis(), 3, 2));
    let high_qc = quorum(block.id, block.view);
    let tv = TimeoutVote::new(View(9), NodeId(2), high_qc.clone(), &kp);
    let sync = SyncRequest::new(NodeId(3), block.id, block.height, &kp);
    let (responder, blocks) = (NodeId(0), vec![block.clone()]);
    let snapshot = Some(Bytes::from(&b"chunk bytes"[..]));
    let transfer = SyncResponse {
        responder,
        snapshot,
        blocks,
        high_qc,
    };
    let (view, txs) = (View(12), txs(2));
    vec![
        Message::Vote(Vote::new(block.id, block.view, NodeId(1), &kp)),
        Message::Proposal(block),
        Message::Timeout(tv.clone()),
        Message::TimeoutCertMsg(TimeoutCert::from_votes(View(9), &[tv])),
        Message::SyncRequest(sync),
        Message::SyncResponse(transfer),
        Message::Handoff(Handoff { view, txs }),
    ]
}

fn client_requests() -> Vec<ClientRequest> {
    let [a, b]: [Transaction; 2] = txs(2).try_into().unwrap();
    let signed = ClientRequest::signed(b, &KeyPair::client_from_seed(7));
    vec![ClientRequest::unsigned(a), signed]
}

fn committed() -> CommittedBlock {
    let mut ledger = Ledger::new();
    ledger.append([child(&Block::genesis(), 3, 2)], View(5), SimTime(5));
    ledger.get(0).unwrap().clone()
}

#[test]
fn every_canonical_codec_fails_or_round_trips() {
    // Every message variant, certificates and client requests.
    let message = whole(decode_message);
    for m in every_message() {
        let accepted = assert_mutations_fail_or_round_trip(&m, encode_message, &message);
        assert!(!accepted.is_empty(), "{}", m.tag());
    }
    let qc = committed().block.justify.clone();
    let encode = fresh(encode_qc);
    let accepted = assert_mutations_fail_or_round_trip(&qc, &encode, decode_qc);
    // Every value of the claim, the bitset and the aggregate decodes (the
    // authenticator judges it) except the one that zeroes the bitset's last
    // word; no other value of the word count does.
    let sets = accepted.iter().filter(|span| span.len() == 1).count();
    assert_eq!(sets, 255 * encode(&qc).len() - 2 * 255 - 1);
    let opt = |out: &mut Vec<u8>, qc: &Option<QuorumCert>| encode_opt_qc(out, qc.as_ref());
    for qc in [None, Some(qc)] {
        assert_mutations_fail_or_round_trip(&qc, fresh(opt), decode_opt_qc);
    }
    for request in client_requests() {
        let encode = fresh(encode_client_request);
        assert_mutations_fail_or_round_trip(&request, encode, decode_client_request);
    }
    // The frame control payloads.
    let frame = |nonce: &[u8; 32]| encode_frame(FrameKind::Challenge, nonce);
    let challenge = |cur: &mut WireCursor| {
        let refused = |_| WireError::Corrupt("not a challenge");
        read_challenge(&mut cur.take(FRAME_HEADER_BYTES + 32)?).map_err(refused)
    };
    assert_mutations_fail_or_round_trip(&[7; 32], frame, challenge);
    // A hello's proof signs the challenge: the oracle lays out what it decoded.
    let hello = |(sender, proof): &(u64, Signature)| {
        let head = [&HELLO_MAGIC[..], &WIRE_VERSION.to_be_bytes()].concat();
        let tail = [&sender.to_be_bytes()[..], proof.as_bytes()].concat();
        [head, tail].concat()
    };
    for sender in [3, CLIENT_SENDER] {
        let decoded = decode_hello(&encode_hello(sender, 11, &[7; 32])).unwrap();
        assert_mutations_fail_or_round_trip(&decoded, hello, whole(decode_hello));
    }
    let [a, b] = ["127.0.0.1:4000", "[::1]:9000"].map(|addr| addr.parse().unwrap());
    let table = |peers: &Vec<_>| encode_peer_table(peers);
    assert_mutations_fail_or_round_trip(&vec![(0, a), (1, b)], table, whole(decode_peer_table));
    let batch = |requests: &Vec<_>| encode_client_batch(requests);
    assert_mutations_fail_or_round_trip(&client_requests(), batch, whole(decode_client_batch));
    let status = |&(token, prefix_len): &(u64, u64)| encode_status(token, prefix_len);
    assert_mutations_fail_or_round_trip(&(99, 4), status, whole(decode_status));
    let mut reply = StatusReply::default();
    reply.net.peers = vec![(0, PeerStats::default()), (1, PeerStats::default())];
    assert_mutations_fail_or_round_trip(&reply, encode_status_reply, whole(decode_status_reply));
    // The segment log's record payloads, each read back by its kind.
    let committed = committed();
    let qc = committed.block.justify.clone();
    let payload = fresh(|out: &mut Vec<u8>, record: &Record| record.encode_payload(out));
    for record in [
        Record::Committed(committed),
        Record::Qc(qc.clone()),
        Record::Marker(2),
        Record::Safety(View(4), None),
        Record::Safety(View(4), Some(qc)),
    ] {
        let kind = record.kind();
        let decode = |cur: &mut WireCursor| Record::decode(kind, cur.take(cur.remaining())?);
        assert_mutations_fail_or_round_trip(&record, &payload, decode);
    }
}

#[test]
fn a_frame_stream_yields_whole_frames_and_fails_at_once_on_a_bad_header() {
    // One frame of every kind, in tag order.
    let payloads = [
        encode_hello(3, 11, &[7; 32]),
        encode_message(&every_message()[0]),
        encode_client_batch(&client_requests()),
        encode_peer_table(&[(0, "127.0.0.1:4000".parse().unwrap())]),
        encode_status(99, 4),
        encode_status_reply(&StatusReply::default()),
        Vec::new(),
        vec![7; 32],
    ];
    let frame = |(kind, payload)| Frame { kind, payload };
    let kinds = (1..).map_while(FrameKind::from_u8);
    let frames: Vec<Frame> = kinds.zip(payloads).map(frame).collect();
    let (stream, starts) = concat(frames.iter().map(|f| encode_frame(f.kind, &f.payload)));
    // The frames wholly before offset `at`, or the index of the one holding it.
    let before = |at| starts.partition_point(|&start| start <= at) - 1;
    let drain = |d: &mut FrameDecoder| std::iter::from_fn(|| d.next_frame().unwrap()).collect();
    for (mutation, mutant) in mutants(&stream) {
        let mut decoder = FrameDecoder::new();
        let span = match mutation {
            // A cut yields exactly the whole frames before it, and the rest
            // of the stream, in slices of any size, completes the torn one.
            Mutation::Cut(cut) => {
                decoder.push(&mutant);
                let mut decoded: Vec<Frame> = drain(&mut decoder);
                assert_eq!(decoded, frames[..before(cut)], "cut {cut}");
                for slice in stream[cut..].chunks(cut % 8 + 1) {
                    decoder.push(slice);
                    decoded.extend(drain(&mut decoder));
                }
                assert_eq!((decoded, decoder.buffered()), (frames.clone(), 0));
                continue;
            }
            Mutation::Write(span) => span,
        };
        // The frames before the damaged one arrive intact, and its header
        // alone decides: an oversized length or an unknown kind fails before
        // a payload byte arrives.
        let hit = before(span.start);
        let body = starts[hit] + FRAME_HEADER_BYTES;
        decoder.push(&mutant[..starts[hit]]);
        assert_eq!(drain(&mut decoder), frames[..hit].to_vec(), "{span:?}");
        decoder.push(&mutant[starts[hit]..body]);
        let len = u32::from_be_bytes(mutant[starts[hit]..body - 1].try_into().unwrap());
        let (kind, next) = (mutant[body - 1], decoder.next_frame());
        if len as usize > MAX_FRAME_PAYLOAD {
            assert_eq!(next, Err(FrameError::Oversized(len)), "{span:?}");
        } else if FrameKind::from_u8(kind).is_none() {
            assert_eq!(next, Err(FrameError::UnknownKind(kind)), "{span:?}");
        }
        decoder.push(&mutant[body..]);
        while let Ok(Some(_)) = decoder.next_frame() {}
    }
}

#[test]
fn a_chunked_snapshot_decodes_only_at_a_chunk_border_and_refuses_every_overwrite() {
    // Five certified blocks on the committed head, all but the last two (an
    // uncommitted fork) committed, cut into a chunk after views 1, 2 and 5;
    // beside each chunk border, the one-shot image of the state it was cut from.
    let (mut forest, mut ledger, mut from) = (BlockForest::new(), Ledger::new(), 0);
    let (mut stream, mut images) = (Vec::new(), Vec::new());
    for view in 1..=5 {
        let block = child(forest.committed_head(), view, view % 2);
        forest.insert(block.clone()).unwrap();
        forest.register_qc(quorum(block.id, View(view))).unwrap();
        if view <= 3 {
            let newly = forest.commit(block.id).unwrap();
            ledger.append(newly, View(view + 2), SimTime(view * 1000));
            forest.prune_to_committed();
        }
        if view < 3 || view == 5 {
            stream.extend(Snapshot::encode_chunk(&forest, &ledger, from));
            from = ledger.len();
            images.push((stream.len(), Snapshot::encode(&forest, &ledger)));
        }
    }
    let image = |snapshot: Snapshot| Snapshot::encode(&snapshot.forest, &snapshot.ledger);
    let one_shot = |bytes: &[u8]| Snapshot::decode(bytes).ok().map(image);
    assert_eq!(one_shot(&stream).as_ref(), Some(&images[2].1));
    for (mutation, mutant) in mutants(&stream) {
        // A cut at a chunk border is the older image a crash before the
        // newest chunk was durable leaves behind. Header checks, or the CRC
        // over the body, refuse every overwrite.
        let border = match mutation {
            Mutation::Cut(cut) => images.iter().find(|(end, _)| *end == cut),
            Mutation::Write(_) => None,
        };
        let expected = border.map(|(_, image)| image);
        assert_eq!(one_shot(&mutant).as_ref(), expected, "{mutation:?}");
    }
}

#[test]
fn a_damaged_segment_keeps_exactly_the_records_before_the_damage() {
    let qc = committed().block.justify.clone();
    let records = [
        Record::Safety(View(3), None),
        Record::Committed(committed()),
        Record::Qc(qc.clone()),
        Record::Safety(View(4), Some(qc)),
        Record::Marker(2),
        Record::Safety(View(6), None),
    ];
    let encode = fresh(|out: &mut Vec<u8>, record: &Record| record.encode_into(out));
    let (stream, starts) = concat(records.iter().map(encode));
    let before = |at| starts.partition_point(|&start| start <= at) - 1;
    let intact = decode_records(&stream);
    assert!(intact.clean && intact.records.len() == records.len());
    let want = intact.records;
    for (mutation, mutant) in mutants(&stream) {
        let decoded = decode_records(&mutant);
        let found: Vec<&Vec<u8>> = decoded.stray_safety_records.iter().collect();
        let span = match mutation {
            // A torn tail keeps the whole records before the cut, and loses
            // one unless the cut falls on a record border.
            Mutation::Cut(cut) => {
                let (torn, got) = (!starts.contains(&cut), (decoded.clean, decoded.discarded));
                assert_eq!(decoded.records, want[..before(cut)], "cut {cut}");
                assert_eq!((got, found.len()), ((!torn, torn.into()), 0), "cut {cut}");
                continue;
            }
            Mutation::Write(span) => span,
        };
        // The valid prefix ends at the first damaged record. Behind it only
        // intact safety records come back, as strays: every one of them while
        // the walk keeps its footing, that is while no length field was hit.
        let (hit, last) = (before(span.start), before(span.end - 1));
        assert_eq!((&decoded.records[..], decoded.clean), (&want[..hit], false));
        let safety = (last + 1..want.len()).filter(|&i| want[i].0 == RecordKind::SafetyRecord);
        let mut strays = safety.map(|i| &want[i].1);
        if (hit..=last).all(|i| span.start >= starts[i] + 4 || span.end <= starts[i]) {
            let all = (strays.collect(), (want.len() - hit) as u64);
            assert_eq!((found, decoded.discarded), all, "{span:?}");
        } else {
            assert!(found.iter().all(|s| strays.any(|t| t == *s)), "{span:?}");
        }
    }
}
