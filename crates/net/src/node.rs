//! One socket-backed replica: a TCP listener, reader threads feeding a
//! per-node [`VerifyPool`], per-peer writer threads, and the consensus loop
//! in between.
//!
//! The thread model is a strict send/receive split so the consensus thread
//! never blocks on a socket:
//!
//! * **readers** (one per accepted connection) block on `read`, feed a
//!   [`FrameDecoder`], and hand decoded consensus messages to the node's
//!   verify pool — signature checking happens off the consensus thread, and
//!   the replica only ever receives [`bamboo_types::VerifiedMessage`] proof
//!   tokens, exactly like the threaded backend;
//! * **writers** (one per peer, owned by [`PeerSender`]) drain bounded
//!   queues of pre-encoded frames and own all connect/reconnect logic;
//! * the **consensus thread** runs [`run_live_node`], the one live driver it
//!   shares with the threaded cluster — deadlines, crash/recover, start-up
//!   gate and commit accounting included; the only code of its own is the
//!   `SocketLink`, which realises sends as frame enqueues and knows which
//!   peer addresses are still missing.
//!
//! Unlike the in-process backends, verification here is per-*node*, not
//! per-cluster: a broadcast is verified once per receiving replica (each
//! replica trusts only its own ingress), which is the honest cost of a real
//! deployment and exactly what the paper's testbed pays.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bamboo_core::live::{run_live_node, Link, LiveEvent, LiveStatus};
use bamboo_core::runtime::NodeHost;
use bamboo_core::verify::{VerifyHandle, VerifyPool};
use bamboo_types::wire::encode_message;
use bamboo_types::{ClientRequest, Message, NodeId};

use crate::frame::{
    decode_client_batch, decode_hello, decode_peer_table, decode_status, encode_frame,
    encode_status_reply, FrameDecoder, FrameKind, StatusReply, CLIENT_SENDER,
};
use crate::peer::{BackoffPolicy, PeerSender, PeerStats};

/// Verify workers per node. One per node keeps the thread count of an
/// n-replica loopback cluster at roughly 4n (replica + acceptor + n−1
/// writers + readers) while still moving signature checks off the consensus
/// thread.
pub const DEFAULT_NODE_VERIFY_WORKERS: usize = 1;

/// Per-node network counters, per peer link plus ingress totals.
#[derive(Clone, Debug)]
pub struct NodeNetStats {
    /// The reporting replica.
    pub node: u64,
    /// Outbound link counters, one entry per remote peer.
    pub peers: Vec<(u64, PeerStats)>,
    /// Inbound connections accepted by this node's listener (initial
    /// connects and peer reconnects alike).
    pub accepted_connections: u64,
    /// Messages this node's verify pool accepted.
    pub verify_accepted: u64,
    /// Messages this node's verify pool rejected as forged or malformed.
    pub verify_rejected: u64,
}

impl NodeNetStats {
    /// Total outbound reconnects across all peer links.
    pub fn reconnects(&self) -> u64 {
        self.peers.iter().map(|(_, s)| s.reconnects).sum()
    }

    /// Total bytes written across all peer links.
    pub fn bytes_sent(&self) -> u64 {
        self.peers.iter().map(|(_, s)| s.bytes_sent).sum()
    }

    /// Total frames dropped across all peer links.
    pub fn dropped(&self) -> u64 {
        self.peers.iter().map(|(_, s)| s.dropped).sum()
    }
}

/// Everything a [`TcpNode`] hands back when it stops.
pub struct TcpNodeReport {
    /// The final host (ledger, forest, recovery stats, rejection counters).
    pub host: NodeHost,
    /// The node's network counters.
    pub stats: NodeNetStats,
}

/// Answers a status probe from the node's published progress. `prefix_len`
/// of 0 means "the full chain as of now"; a longer prefix than the node has
/// committed is clamped to its chain.
fn status_reply(status: &LiveStatus, token: u64, prefix_len: u64) -> StatusReply {
    let blocks = status.committed_blocks();
    let want = if prefix_len == 0 {
        blocks
    } else {
        prefix_len.min(blocks)
    };
    StatusReply {
        token,
        committed_txs: status.committed_txs(),
        committed_blocks: blocks,
        view: status.view(),
        chain_fingerprint: status.chain_prefix(want).unwrap_or_default(),
    }
}

/// The TCP backend's [`Link`]: sends become pre-encoded frames in the
/// per-peer outbound queues, and the node is ready once every peer's listen
/// address is known.
struct SocketLink {
    peers: Arc<Vec<Option<PeerSender>>>,
    known: Vec<bool>,
}

fn message_frame(message: &Message) -> Arc<[u8]> {
    encode_frame(FrameKind::Msg, &encode_message(message)).into()
}

impl Link for SocketLink {
    fn unicast(&mut self, to: NodeId, message: Message) {
        // Unicasts to non-replica destinations (client responses) have no
        // socket here; a real deployment would route them to the client's
        // connection, the loopback harness measures commits via status
        // probes instead.
        if let Some(Some(peer)) = self.peers.get(to.index()) {
            peer.send(message_frame(&message));
        }
    }

    fn broadcast(&mut self, message: Message) {
        // Encode once; every peer queue gets a pointer bump of the same
        // frame allocation (this node's own slot is empty).
        let frame = message_frame(&message);
        for peer in self.peers.iter().flatten() {
            peer.send(Arc::clone(&frame));
        }
    }

    fn ready(&self) -> bool {
        self.known.iter().all(|&known| known)
    }

    fn set_peers(&mut self, table: &[(u64, SocketAddr)]) {
        for &(peer, addr) in table {
            if let Some(Some(link)) = self.peers.get(peer as usize) {
                link.set_addr(addr);
                self.known[peer as usize] = true;
            }
        }
    }
}

/// A running socket-backed replica.
pub struct TcpNode {
    id: NodeId,
    local_addr: SocketAddr,
    events: Sender<LiveEvent>,
    replica: Option<JoinHandle<NodeHost>>,
    accept: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
    peers: Arc<Vec<Option<PeerSender>>>,
    verify: Option<VerifyPool>,
    status: Arc<LiveStatus>,
    accepted: Arc<AtomicU64>,
}

/// Poll interval of the (non-blocking) accept loop and the readers' receive
/// timeout; bounds shutdown latency.
const POLL_TICK: Duration = Duration::from_millis(20);

impl TcpNode {
    /// Spawns `host` as a replica on a pre-bound listener. `peer_addrs[i]` is
    /// replica `i`'s listen address when already known (same-process
    /// clusters know all of them upfront; multi-process replicas start with
    /// none and learn them from the driver's peer table). Consensus starts
    /// once every peer address is known.
    pub fn spawn(
        host: NodeHost,
        listener: TcpListener,
        peer_addrs: Vec<Option<SocketAddr>>,
        verify_workers: usize,
        backoff: BackoffPolicy,
    ) -> std::io::Result<Self> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let id = host.replica().id();
        let nodes = host.replica().config().nodes;
        assert_eq!(peer_addrs.len(), nodes, "one address slot per replica");
        let (events, receiver) = channel::<LiveEvent>();
        let peers: Arc<Vec<Option<PeerSender>>> = Arc::new(
            (0..nodes)
                .map(|index| {
                    (index != id.index())
                        .then(|| PeerSender::spawn(id.as_u64(), peer_addrs[index], backoff))
                })
                .collect(),
        );
        let status = Arc::new(LiveStatus::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let readers = Arc::new(Mutex::new(Vec::new()));

        let deliver_events = events.clone();
        let verify = VerifyPool::new(nodes, verify_workers.max(1), move |_to, verified| {
            // `_to` is always this node: readers submit unicast-to-self.
            let _ = deliver_events.send(LiveEvent::Verified(verified));
        });

        let accept = {
            let handle = verify.handle();
            let events = events.clone();
            let stop = Arc::clone(&stop);
            let status = Arc::clone(&status);
            let accepted = Arc::clone(&accepted);
            let readers = Arc::clone(&readers);
            std::thread::spawn(move || {
                run_acceptor(listener, events, handle, stop, status, accepted, readers)
            })
        };

        let replica = {
            let known = (0..nodes)
                .map(|index| index == id.index() || peer_addrs[index].is_some())
                .collect();
            let peers = Arc::clone(&peers);
            let status = Arc::clone(&status);
            std::thread::spawn(move || {
                let mut link = SocketLink { peers, known };
                run_live_node(host, &mut link, &receiver, Instant::now(), &status)
            })
        };

        Ok(Self {
            id,
            local_addr,
            events,
            replica: Some(replica),
            accept: Some(accept),
            readers,
            stop,
            peers,
            verify: Some(verify),
            status,
            accepted,
        })
    }

    /// The replica's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The address the node's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Submits a batch of client requests directly (same-process path; the
    /// multi-process driver sends [`FrameKind::ClientBatch`] frames instead).
    pub fn submit(&self, requests: Vec<ClientRequest>) {
        let _ = self.events.send(LiveEvent::Client(requests));
    }

    /// Transactions this replica has committed.
    pub fn committed_txs(&self) -> u64 {
        self.status.committed_txs()
    }

    /// Points this node's outbound link for `peer` at a new address (a
    /// restarted replica binds a fresh port).
    pub fn update_peer(&self, peer: NodeId, addr: SocketAddr) {
        let _ = self
            .events
            .send(LiveEvent::Peers(vec![(peer.as_u64(), addr)]));
    }

    /// Asks the consensus loop to stop (idempotent; `join` also sends it).
    pub fn request_shutdown(&self) {
        let _ = self.events.send(LiveEvent::Shutdown);
    }

    /// Stops every thread (consensus, acceptor, readers, writers, verify
    /// workers) and returns the final host and counters.
    pub fn join(self) -> TcpNodeReport {
        self.finish(true)
    }

    /// Blocks until something else stops the consensus loop — a
    /// [`FrameKind::Shutdown`] frame from the driver in multi-process mode —
    /// then tears down and reports, like [`TcpNode::join`] but without
    /// initiating the shutdown itself.
    pub fn wait(self) -> TcpNodeReport {
        self.finish(false)
    }

    fn finish(mut self, request_shutdown: bool) -> TcpNodeReport {
        if request_shutdown {
            let _ = self.events.send(LiveEvent::Shutdown);
        }
        let host = self
            .replica
            .take()
            .expect("join called once")
            .join()
            .expect("consensus thread panicked");
        self.stop.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("readers lock poisoned"));
        for reader in readers {
            let _ = reader.join();
        }
        let peer_stats: Vec<(u64, PeerStats)> = self
            .peers
            .iter()
            .enumerate()
            .filter_map(|(index, peer)| peer.as_ref().map(|p| (index as u64, p.stats())))
            .collect();
        let (verify_accepted, verify_rejected) =
            self.verify.take().expect("join called once").shutdown();
        let stats = NodeNetStats {
            node: self.id.as_u64(),
            peers: peer_stats,
            accepted_connections: self.accepted.load(Ordering::Acquire),
            verify_accepted,
            verify_rejected,
        };
        TcpNodeReport { host, stats }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_acceptor(
    listener: TcpListener,
    events: Sender<LiveEvent>,
    verify: VerifyHandle,
    stop: Arc<AtomicBool>,
    status: Arc<LiveStatus>,
    accepted: Arc<AtomicU64>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                accepted.fetch_add(1, Ordering::Release);
                let events = events.clone();
                let verify = verify.clone();
                let stop = Arc::clone(&stop);
                let status = Arc::clone(&status);
                let reader =
                    std::thread::spawn(move || run_reader(stream, events, verify, stop, status));
                readers.lock().expect("readers lock poisoned").push(reader);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => break,
        }
    }
}

/// One connection's receive loop: read, decode frames, dispatch. The first
/// frame must be a hello; anything malformed drops the connection (the peer's
/// writer reconnects on its backoff schedule).
fn run_reader(
    mut stream: TcpStream,
    events: Sender<LiveEvent>,
    verify: VerifyHandle,
    stop: Arc<AtomicBool>,
    status: Arc<LiveStatus>,
) {
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut sender: Option<u64> = None;
    'conn: while !stop.load(Ordering::Acquire) {
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
                (FrameKind::Hello, _) => match decode_hello(&frame.payload) {
                    Ok(id) => sender = Some(id),
                    Err(_) => break 'conn,
                },
                // Every other frame requires an established identity first.
                (_, None) => break 'conn,
                (FrameKind::Msg, Some(from)) => {
                    match bamboo_types::wire::decode_message(&frame.payload) {
                        // The claimed sender is attached here and *proved* by
                        // the verify pool: a forged identity fails the
                        // signature check against that identity's key.
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
                        let reply = encode_frame(
                            FrameKind::StatusReply,
                            &encode_status_reply(&status_reply(&status, token, prefix_len)),
                        );
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
