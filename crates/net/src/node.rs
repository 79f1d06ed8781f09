//! One socket-backed replica: a TCP listener, reader threads feeding a
//! per-node [`VerifyPool`], per-peer writer threads, and the consensus loop
//! in between.
//!
//! The thread model is a strict send/receive split so the consensus thread
//! never blocks on a socket:
//!
//! * **readers** (one per accepted connection) challenge the dialler, block
//!   on `read`, feed a [`FrameDecoder`], and hand decoded consensus messages
//!   to the node's verify pool — signature checking happens off the
//!   consensus thread, and the replica only ever receives
//!   [`bamboo_types::VerifiedMessage`] proof tokens, exactly like the channel
//!   link;
//! * **writers** (one per peer, owned by [`PeerSender`]) drain bounded
//!   queues of pre-encoded frames and own all connect/reconnect logic;
//! * the **consensus thread** runs [`run_live_node`], the one live driver —
//!   deadlines, crash/recover, start-up gate and commit accounting included;
//!   the only code of its own is the `SocketLink`, which realises sends as
//!   frame enqueues and knows which peer addresses are still missing.
//!
//! A connection is trusted with a replica id only on proof: the acceptor
//! opens it with a fresh [`FrameKind::Challenge`], and a hello claiming
//! replica `X` must carry `X`'s signature over that challenge. A claim
//! without it is dropped and counted ([`NodeNetStats::refused_hellos`]).
//!
//! Unlike the channel link, verification here is per-*node*, not
//! per-cluster: a broadcast is verified once per receiving replica (each
//! replica trusts only its own ingress), which is the honest cost of a real
//! deployment and exactly what the paper's testbed pays.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

use bamboo_core::live::{
    run_live_node, Link, LiveEvent, LiveStatus, NodeNetStats, SeatBoot, SeatEnd, SeatStatus,
};
use bamboo_core::runtime::{NodeHost, RecoverMode};
use bamboo_core::verify::{VerifyHandle, VerifyPool};
use bamboo_types::wire::{encode_message_into, encoded_len};
use bamboo_types::{Authenticator, ClientRequest, Message, NodeId};

use crate::frame::{
    decode_client_batch, decode_hello, decode_peer_table, decode_status, encode_frame,
    encode_status_reply, hello_proves, put_frame_header, FrameDecoder, FrameKind, StatusReply,
    CLIENT_SENDER, FRAME_HEADER_BYTES,
};
use crate::peer::{BackoffPolicy, PeerSender};

/// Verify workers per node. One per node keeps the thread count of an
/// n-replica loopback cluster at roughly 4n (replica + acceptor + n−1
/// writers + readers) while still moving signature checks off the consensus
/// thread.
pub const DEFAULT_NODE_VERIFY_WORKERS: usize = 1;

/// The TCP backend's [`Link`]: sends become pre-encoded frames in the
/// per-peer outbound queues, and the node is ready once every peer's listen
/// address is known.
struct SocketLink {
    shared: Arc<Shared>,
    known: Vec<bool>,
}

/// A consensus message as a frame, written once: the header, then the
/// message straight behind it in the same buffer, which the peer queues
/// share as it is.
fn message_frame(message: &Message) -> Arc<Vec<u8>> {
    let len = encoded_len(message);
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + len);
    put_frame_header(&mut frame, FrameKind::Msg, len);
    encode_message_into(&mut frame, message);
    Arc::new(frame)
}

impl Link for SocketLink {
    fn unicast(&mut self, to: NodeId, message: Message) {
        // Unicasts to non-replica destinations (client responses) have no
        // socket here; the cluster measures commits via status probes.
        if let Some(Some(peer)) = self.shared.peers.get(to.index()) {
            peer.send(message_frame(&message));
        }
    }

    fn broadcast(&mut self, message: Message) {
        // Encode once; every peer queue gets a pointer bump of the same
        // frame allocation (this node's own slot is empty).
        let frame = message_frame(&message);
        for peer in self.shared.peers.iter().flatten() {
            peer.send(Arc::clone(&frame));
        }
    }

    fn ready(&self) -> bool {
        self.known.iter().all(|&known| known)
    }

    fn set_peers(&mut self, table: &[(u64, SocketAddr)]) {
        for &(peer, addr) in table {
            if let Some(Some(link)) = self.shared.peers.get(peer as usize) {
                link.set_addr(addr);
                self.known[peer as usize] = true;
            }
        }
    }
}

/// What a node's threads share.
struct Shared {
    id: NodeId,
    /// The cluster's tag, which a hello's proof must cover.
    cluster: u64,
    status: LiveStatus,
    peers: Vec<Option<PeerSender>>,
    /// The validator set's keys, which check a hello's proof.
    keys: Authenticator,
    accepted: AtomicU64,
    refused: AtomicU64,
    verify: Box<dyn Fn() -> (u64, u64) + Send + Sync>,
    stop: AtomicBool,
}

impl Shared {
    fn net_stats(&self) -> NodeNetStats {
        let (verify_accepted, verify_rejected) = (self.verify)();
        let peers = self.peers.iter().enumerate();
        NodeNetStats {
            node: self.id.as_u64(),
            peers: peers
                .filter_map(|(index, peer)| peer.as_ref().map(|p| (index as u64, p.stats())))
                .collect(),
            accepted_connections: self.accepted.load(Ordering::Acquire),
            refused_hellos: self.refused.load(Ordering::Acquire),
            verify_accepted,
            verify_rejected,
        }
    }

    /// A nonce no other connection of any node gets: the node, the
    /// connection's number and the wall clock, hashed.
    fn challenge(&self, connection: u64) -> [u8; 32] {
        let since = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH);
        let seed = format!("{}-{connection}-{since:?}", self.id);
        *bamboo_crypto::hash_two(b"bamboo-hello-challenge", seed.as_bytes()).as_bytes()
    }
}

/// A running socket-backed replica.
pub struct TcpNode {
    /// The listener's address, which the node dials once to wake its
    /// acceptor at shutdown.
    addr: SocketAddr,
    events: Sender<LiveEvent>,
    replica: JoinHandle<NodeHost>,
    accept: JoinHandle<()>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shared: Arc<Shared>,
    verify: VerifyPool,
}

/// The readers' receive timeout; bounds shutdown latency.
const POLL_TICK: Duration = Duration::from_millis(20);

impl TcpNode {
    /// Spawns `host` as `seat` on a pre-bound listener: it accepts hellos
    /// signed for the seat's cluster and runs on the seat's clock. It knows
    /// none of its peers' addresses yet: consensus starts once a peer table
    /// ([`TcpNode::set_peers`], or a [`FrameKind::PeerTable`] frame) has
    /// named them all — through `NodeHost::start`, or through
    /// `NodeHost::restart` in mode `restart` when that is set.
    pub fn spawn(
        host: NodeHost,
        listener: TcpListener,
        seat: &SeatBoot<'_>,
        verify_workers: usize,
        backoff: BackoffPolicy,
        restart: Option<RecoverMode>,
    ) -> std::io::Result<Self> {
        let (addr, cluster, epoch) = (listener.local_addr()?, seat.cluster, seat.epoch);
        let id = host.replica().id();
        let nodes = host.replica().config().nodes;
        let (events, receiver) = channel::<LiveEvent>();
        let deliver_events = events.clone();
        let verify = VerifyPool::new(nodes, verify_workers.max(1), move |_to, verified| {
            // `_to` is always this node: readers submit unicast-to-self.
            let _ = deliver_events.send(LiveEvent::Verified(verified));
        });
        let peer = || PeerSender::spawn(id.as_u64(), cluster, None, backoff);
        let shared = Arc::new(Shared {
            id,
            cluster,
            status: LiveStatus::default(),
            peers: (0..nodes).map(|i| (i != id.index()).then(peer)).collect(),
            keys: Authenticator::for_nodes(nodes),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            verify: Box::new(verify.tally()),
            stop: AtomicBool::new(false),
        });
        let readers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (handle, events) = (verify.handle(), events.clone());
            let (shared, readers) = (Arc::clone(&shared), Arc::clone(&readers));
            std::thread::spawn(move || run_acceptor(listener, events, handle, shared, readers))
        };
        let replica = {
            let known = (0..nodes).map(|index| index == id.index()).collect();
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut link = SocketLink {
                    shared: Arc::clone(&shared),
                    known,
                };
                run_live_node(host, &mut link, &receiver, epoch, &shared.status, restart)
            })
        };
        Ok(Self {
            addr,
            events,
            replica,
            accept,
            readers,
            shared,
            verify,
        })
    }

    /// Submits a batch of client requests directly (same-process path; a
    /// driver in another process sends [`FrameKind::ClientBatch`] frames).
    pub fn submit(&self, requests: Vec<ClientRequest>) {
        let _ = self.events.send(LiveEvent::Client(requests));
    }

    /// The node's status ([`LiveStatus::snapshot`]).
    pub fn status(&self, prefix_len: u64) -> SeatStatus {
        self.shared.status.snapshot(prefix_len)
    }

    /// Points the node's outbound links at its peers' listen addresses.
    pub fn set_peers(&self, table: Vec<(u64, SocketAddr)>) {
        let _ = self.events.send(LiveEvent::Peers(table));
    }

    /// Stops the consensus loop and waits until it has sent its last frame.
    /// The sockets stay up until [`TcpNode::join`], so a peer still running
    /// loses nothing to this node meanwhile.
    pub fn halt(&self) {
        let _ = self.events.send(LiveEvent::Shutdown);
        while !self.replica.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stops every thread (consensus, acceptor, readers, writers, verify
    /// workers) and returns the final host, status and network counters.
    pub fn join(self) -> SeatEnd {
        let _ = self.events.send(LiveEvent::Shutdown);
        self.wait()
    }

    /// Blocks until something else stops the consensus loop — a
    /// [`FrameKind::Shutdown`] frame from the cluster's driver — then tears
    /// down and reports, like [`TcpNode::join`].
    pub fn wait(self) -> SeatEnd {
        let host = self.replica.join().expect("consensus thread panicked");
        self.shared.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let readers = std::mem::take(&mut *self.readers.lock().expect("readers lock poisoned"));
        for reader in readers {
            let _ = reader.join();
        }
        // Drained before the counters are read, so they are final.
        self.verify.shutdown();
        SeatEnd {
            status: Some(self.shared.status.snapshot(0)),
            net: Some(self.shared.net_stats()),
            host: Some(host),
        }
    }
}

fn run_acceptor(
    listener: TcpListener,
    events: Sender<LiveEvent>,
    verify: VerifyHandle,
    shared: Arc<Shared>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Blocking: a dialler is challenged at once. The node's own connection
    // at shutdown wakes the loop to see `stop`.
    for stream in listener.incoming() {
        let Some(stream) = stream.ok().filter(|_| !shared.stop.load(Ordering::Acquire)) else {
            break;
        };
        let connection = shared.accepted.fetch_add(1, Ordering::AcqRel);
        let challenge = shared.challenge(connection);
        let (events, verify) = (events.clone(), verify.clone());
        let shared = Arc::clone(&shared);
        let reader =
            std::thread::spawn(move || run_reader(stream, challenge, &events, &verify, &shared));
        readers.lock().expect("readers lock poisoned").push(reader);
    }
}

/// One connection's receive loop: challenge the dialler, then read, decode
/// frames and dispatch. The first frame must be a hello that proves its
/// claim; anything malformed drops the connection (the peer's writer
/// reconnects on its backoff schedule).
fn run_reader(
    mut stream: TcpStream,
    challenge: [u8; 32],
    events: &Sender<LiveEvent>,
    verify: &VerifyHandle,
    shared: &Shared,
) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    if stream
        .write_all(&encode_frame(FrameKind::Challenge, &challenge))
        .is_err()
    {
        return;
    }
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut sender: Option<u64> = None;
    'conn: while !shared.stop.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => break 'conn,
            };
            match (frame.kind, sender) {
                (FrameKind::Hello, None) => {
                    let Ok((claim, proof)) = decode_hello(&frame.payload) else {
                        break 'conn;
                    };
                    let key = shared.keys.key_of(NodeId(claim));
                    let proven = key.is_some_and(|key| {
                        hello_proves(&key, &challenge, claim, shared.cluster, &proof)
                    });
                    if claim != CLIENT_SENDER && !proven {
                        shared.refused.fetch_add(1, Ordering::AcqRel);
                        break 'conn;
                    }
                    sender = Some(claim);
                }
                // Every other frame requires an established identity first,
                // and an identity is established once.
                (_, None) | (FrameKind::Hello | FrameKind::Challenge, Some(_)) => break 'conn,
                (FrameKind::Msg, Some(from)) => {
                    match bamboo_types::wire::decode_message(&frame.payload) {
                        // The proven sender is attached here; the verify pool
                        // still checks every signature the message carries.
                        Ok(message) => verify.submit_unicast(NodeId(from), NodeId(from), message),
                        Err(_) => break 'conn,
                    }
                }
                (FrameKind::ClientBatch, Some(_)) => match decode_client_batch(&frame.payload) {
                    Ok(requests) => {
                        let _ = events.send(LiveEvent::Client(requests));
                    }
                    Err(_) => break 'conn,
                },
                (FrameKind::PeerTable, Some(from)) => {
                    // Peer tables come from the driver, not from replicas.
                    if from != CLIENT_SENDER {
                        break 'conn;
                    }
                    match decode_peer_table(&frame.payload) {
                        Ok(table) => {
                            let _ = events.send(LiveEvent::Peers(table));
                        }
                        Err(_) => break 'conn,
                    }
                }
                (FrameKind::Status, Some(_)) => match decode_status(&frame.payload) {
                    Ok((token, prefix_len)) => {
                        let reply = StatusReply {
                            token,
                            status: shared.status.snapshot(prefix_len),
                            net: shared.net_stats(),
                        };
                        let reply =
                            encode_frame(FrameKind::StatusReply, &encode_status_reply(&reply));
                        if stream.write_all(&reply).is_err() {
                            break 'conn;
                        }
                    }
                    Err(_) => break 'conn,
                },
                (FrameKind::StatusReply, Some(_)) => {
                    // Replicas probe nobody; stray replies are ignored.
                }
                (FrameKind::Shutdown, Some(_)) => {
                    let _ = events.send(LiveEvent::Shutdown);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_hello, read_challenge};
    use bamboo_crypto::KeyPair;
    use bamboo_types::wire::encode_message;
    use bamboo_types::{
        Block, BlockId, Bytes, Config, Handoff, Height, ProtocolKind, QuorumCert, SimTime,
        SyncRequest, SyncResponse, TimeoutCert, TimeoutVote, Transaction, View, Vote,
    };
    use std::time::Instant;

    #[test]
    fn a_message_frame_is_the_frame_of_its_encoding() {
        let kp = KeyPair::from_seed(0);
        let txs: Vec<Transaction> = (0..3)
            .map(|i| Transaction::new(NodeId(1_000_000 + i), i, 16, SimTime(i)))
            .collect();
        let block = Block::new(
            View(3),
            Height(1),
            BlockId::GENESIS,
            NodeId(2),
            QuorumCert::genesis(),
            txs.clone(),
        );
        let vote = Vote::new(block.id, block.view, NodeId(1), &kp);
        let high_qc = QuorumCert::from_votes(block.id, block.view, std::slice::from_ref(&vote));
        let tv = TimeoutVote::new(View(9), NodeId(2), high_qc.clone(), &kp);
        let messages = [
            Message::Proposal(block.clone().into()),
            Message::Vote(vote),
            Message::Timeout(tv.clone()),
            Message::TimeoutCertMsg(TimeoutCert::from_votes(View(9), &[tv])),
            Message::SyncRequest(SyncRequest::new(NodeId(3), block.id, block.height, &kp)),
            Message::SyncResponse(SyncResponse {
                responder: NodeId(0),
                snapshot: Some(Bytes::from(&b"chunk bytes"[..])),
                blocks: vec![block.into()],
                high_qc,
            }),
            Message::Handoff(Handoff {
                view: View(12),
                txs,
            }),
        ];
        for message in &messages {
            let expected = encode_frame(FrameKind::Msg, &encode_message(message));
            assert_eq!(
                &message_frame(message)[..],
                &expected[..],
                "{}",
                message.tag()
            );
        }
    }

    /// Dials `addr`, answers the challenge with `hello(challenge)` and a
    /// status probe; returns whether the probe was answered.
    fn answered(addr: SocketAddr, hello: impl Fn(&[u8; 32]) -> Vec<u8>) -> bool {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let challenge = read_challenge(&mut stream).unwrap();
        let mut bytes = encode_frame(FrameKind::Hello, &hello(&challenge));
        bytes.extend(encode_frame(
            FrameKind::Status,
            &crate::frame::encode_status(1, 0),
        ));
        stream.write_all(&bytes).unwrap();
        let mut reply = [0u8; 5];
        stream.read_exact(&mut reply).is_ok() && reply[4] == FrameKind::StatusReply as u8
    }

    #[test]
    fn a_hello_claiming_another_replica_without_its_key_is_refused_and_counted() {
        let config = Config {
            nodes: 4,
            ..Config::default()
        };
        let seat = SeatBoot {
            id: NodeId(0),
            protocol: ProtocolKind::HotStuff,
            config: &config,
            dir: None,
            cluster: 77,
            epoch: Instant::now(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let backoff = BackoffPolicy::default();
        let node = TcpNode::spawn(seat.host(), listener, &seat, 1, backoff, None).unwrap();
        // Replica 2's key signing a claim to be replica 1.
        let forged = |challenge: &[u8; 32]| {
            let mut hello = encode_hello(2, 77, challenge);
            hello[6..14].copy_from_slice(&1u64.to_be_bytes());
            hello
        };
        assert!(!answered(addr, forged));
        // Replica 1's own proof, but for another cluster, or replayed from an
        // earlier connection's challenge.
        assert!(!answered(addr, |challenge| encode_hello(1, 78, challenge)));
        assert!(!answered(addr, |_| encode_hello(1, 77, &[0; 32])));
        // Honest connections, and an honest reconnect, still get in.
        for _ in 0..2 {
            assert!(answered(addr, |challenge| encode_hello(1, 77, challenge)));
        }
        let stats = node.join().net.expect("a socket seat counts its links");
        assert_eq!((stats.refused_hellos, stats.accepted_connections), (3, 5));
    }
}
