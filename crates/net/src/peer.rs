//! Per-peer outbound connections: one writer thread per peer draining a
//! bounded queue, with retry/backoff connection establishment and automatic
//! reconnect.
//!
//! The send side of the transport's send/receive split: consensus threads
//! enqueue pre-encoded frames ([`PeerSender::send`] is a bounded `try_send`
//! plus an atomic bump — it never blocks and never touches a socket), and the
//! writer thread owns all the slow, fallible work: connecting with
//! exponential backoff, writing, and noticing death. A broadcast writes the
//! frame once into one buffer, shared as an `Arc<Vec<u8>>` so the buffer the
//! encoder wrote is the one the writers send (no second copy), and every
//! peer queue gets a pointer bump, extending the workspace's encode-once
//! discipline across the socket boundary.
//!
//! While a peer is down, frames addressed to it are dropped and counted
//! rather than buffered without bound: chained-BFT tolerates message loss by
//! construction (views time out, state transfer backfills), so the honest
//! failure mode is bounded memory plus a drop counter, not an unbounded
//! queue that turns one dead peer into an OOM.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bamboo_core::live::PeerStats;

use crate::frame::{encode_frame, encode_hello, read_challenge, FrameKind};

/// Exponential-backoff schedule for connection attempts: delays double from
/// `initial` to `max` and reset to `initial` after a successful connect.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Delay after the first failed attempt.
    pub initial: Duration,
    /// Ceiling the doubling stops at.
    pub max: Duration,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            initial: Duration::from_millis(10),
            max: Duration::from_secs(1),
        }
    }
}

impl BackoffPolicy {
    /// The delay following `current`: doubled, capped at `max`.
    pub fn next(&self, current: Duration) -> Duration {
        (current * 2).min(self.max)
    }
}

/// How long one connection attempt may block the writer thread.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Writer wake-up granularity while the outbound queue is idle; bounds both
/// reconnect-attempt latency and shutdown latency.
const DRAIN_TICK: Duration = Duration::from_millis(10);
/// Outbound frames a peer queue holds before sends start dropping.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

#[derive(Default)]
struct PeerCounters {
    attempts: AtomicU64,
    connects: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    dropped: AtomicU64,
}

impl PeerCounters {
    fn snapshot(&self) -> PeerStats {
        let connects = self.connects.load(Ordering::Acquire);
        PeerStats {
            attempts: self.attempts.load(Ordering::Acquire),
            connects,
            reconnects: connects.saturating_sub(1),
            frames_sent: self.frames_sent.load(Ordering::Acquire),
            bytes_sent: self.bytes_sent.load(Ordering::Acquire),
            dropped: self.dropped.load(Ordering::Acquire),
        }
    }
}

/// The sending half of one peer link.
///
/// Cheap to share behind an `Arc`; dropping the last clone of the internal
/// queue sender (via [`PeerSender::shutdown`] or dropping the whole struct)
/// is what tells the writer thread to exit.
pub struct PeerSender {
    queue: SyncSender<Arc<Vec<u8>>>,
    addr: Arc<Mutex<Option<SocketAddr>>>,
    counters: Arc<PeerCounters>,
    writer: Option<JoinHandle<()>>,
}

impl PeerSender {
    /// Spawns the writer thread for one peer. `self_id` is claimed in the
    /// hello that answers every connection's challenge, with replica
    /// `self_id`'s signature for the cluster tagged `cluster` as proof;
    /// `addr` may start `None` (a seat learns its peers' addresses from the
    /// cluster's peer table) and the writer waits until one is set.
    pub fn spawn(
        self_id: u64,
        cluster: u64,
        addr: Option<SocketAddr>,
        policy: BackoffPolicy,
    ) -> Self {
        let (queue, receiver) = sync_channel::<Arc<Vec<u8>>>(DEFAULT_QUEUE_CAPACITY);
        let addr = Arc::new(Mutex::new(addr));
        let counters = Arc::new(PeerCounters::default());
        let writer_addr = Arc::clone(&addr);
        let writer_counters = Arc::clone(&counters);
        let writer = std::thread::spawn(move || {
            let claim = (self_id, cluster);
            run_writer(claim, receiver, &writer_addr, &writer_counters, policy)
        });
        Self {
            queue,
            addr,
            counters,
            writer: Some(writer),
        }
    }

    /// Enqueues one pre-encoded frame. Never blocks: a full queue (slow or
    /// dead peer) drops the frame and bumps the drop counter.
    pub fn send(&self, frame: Arc<Vec<u8>>) {
        match self.queue.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.counters.dropped.fetch_add(1, Ordering::Release);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Points the link at a (new) listen address. The writer picks it up on
    /// its next connect attempt; an existing connection to the old address
    /// keeps draining until it fails.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().expect("peer addr lock poisoned") = Some(addr);
    }

    /// Snapshot of the link's counters.
    pub fn stats(&self) -> PeerStats {
        self.counters.snapshot()
    }

    /// Stops the writer thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_writer();
    }

    fn stop_writer(&mut self) {
        // Replacing the queue sender with a dead one drops the original, so
        // the writer's receive loop sees Disconnected and exits.
        let (dead, _) = sync_channel(1);
        self.queue = dead;
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

impl Drop for PeerSender {
    fn drop(&mut self) {
        self.stop_writer();
    }
}

fn run_writer(
    claim: (u64, u64),
    receiver: Receiver<Arc<Vec<u8>>>,
    addr: &Mutex<Option<SocketAddr>>,
    counters: &PeerCounters,
    policy: BackoffPolicy,
) {
    let mut conn: Option<TcpStream> = None;
    let mut backoff = policy.initial;
    let mut next_attempt = Instant::now();
    loop {
        let frame = match receiver.recv_timeout(DRAIN_TICK) {
            Ok(frame) => Some(frame),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Connection establishment with retry/backoff. Attempted even while
        // the queue is idle, so a link is typically up before the first
        // frame wants out, and a dead peer is re-dialled on the backoff
        // schedule rather than on traffic; and attempted before a frame goes
        // out, so a link whose address just arrived does not drop it.
        if conn.is_none() && Instant::now() >= next_attempt {
            let target = *addr.lock().expect("peer addr lock poisoned");
            if let Some(target) = target {
                counters.attempts.fetch_add(1, Ordering::Release);
                match try_connect(&target, claim) {
                    Ok((stream, written)) => {
                        counters.connects.fetch_add(1, Ordering::Release);
                        counters.bytes_sent.fetch_add(written, Ordering::Release);
                        conn = Some(stream);
                        backoff = policy.initial;
                    }
                    Err(_) => {
                        next_attempt = Instant::now() + backoff;
                        backoff = policy.next(backoff);
                    }
                }
            }
        }
        let Some(frame) = frame else {
            continue;
        };
        match conn.as_mut() {
            Some(stream) => {
                if stream.write_all(&frame).is_ok() {
                    counters.frames_sent.fetch_add(1, Ordering::Release);
                    counters
                        .bytes_sent
                        .fetch_add(frame.len() as u64, Ordering::Release);
                } else {
                    // The connection died mid-write; drop it (and this
                    // frame — the stream offset is unknown, resending
                    // could tear a frame) and fall back to the dialler.
                    conn = None;
                    counters.dropped.fetch_add(1, Ordering::Release);
                    next_attempt = Instant::now() + backoff;
                    backoff = policy.next(backoff);
                }
            }
            None => {
                counters.dropped.fetch_add(1, Ordering::Release);
            }
        }
    }
}

/// Dials `target`, reads its challenge and answers with a signed hello.
fn try_connect(target: &SocketAddr, claim: (u64, u64)) -> std::io::Result<(TcpStream, u64)> {
    let mut stream = TcpStream::connect_timeout(target, CONNECT_TIMEOUT)?;
    // Consensus messages are small and latency-sensitive; never Nagle them.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(CONNECT_TIMEOUT))?;
    let challenge = read_challenge(&mut stream)?;
    let (self_id, cluster) = claim;
    let hello = encode_frame(
        FrameKind::Hello,
        &encode_hello(self_id, cluster, &challenge),
    );
    stream.write_all(&hello)?;
    Ok((stream, hello.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Accepts the writer's connection and challenges it, as a node does.
    fn accept_challenged(listener: &TcpListener) -> TcpStream {
        let (mut conn, _) = listener.accept().unwrap();
        let challenge = encode_frame(FrameKind::Challenge, &[5; 32]);
        conn.write_all(&challenge).unwrap();
        conn
    }

    /// The bytes of a hello frame.
    const HELLO_FRAME: usize = 51;

    fn read_exact_timeout(stream: &mut TcpStream, buf: &mut [u8]) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.read_exact(buf).unwrap();
    }

    #[test]
    fn connects_sends_hello_then_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = PeerSender::spawn(7, 0, Some(addr), BackoffPolicy::default());
        let mut conn = accept_challenged(&listener);
        sender.send(encode_frame(FrameKind::Msg, b"hi").into());
        let mut bytes = vec![0u8; HELLO_FRAME + 7];
        read_exact_timeout(&mut conn, &mut bytes);
        let mut decoder = crate::frame::FrameDecoder::new();
        decoder.push(&bytes);
        let hello = decoder.next_frame().unwrap().unwrap();
        assert_eq!(hello.kind, FrameKind::Hello);
        let (claim, proof) = crate::frame::decode_hello(&hello.payload).unwrap();
        let key = bamboo_crypto::KeyPair::from_seed(7).public_key();
        assert!(claim == 7 && crate::frame::hello_proves(&key, &[5; 32], 7, 0, &proof));
        let msg = decoder.next_frame().unwrap().unwrap();
        assert_eq!(msg.payload, b"hi");
        // The bytes land on our socket before the writer thread bumps its
        // counters; poll instead of asserting a single snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sender.stats().frames_sent < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = sender.stats();
        assert_eq!(stats.connects, 1);
        assert_eq!(stats.reconnects, 0);
        assert_eq!(stats.frames_sent, 1);
        assert!(stats.bytes_sent >= HELLO_FRAME as u64);
        sender.shutdown();
    }

    #[test]
    fn reconnects_with_backoff_after_listener_moves() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = PeerSender::spawn(
            1,
            0,
            Some(addr),
            BackoffPolicy {
                initial: Duration::from_millis(5),
                max: Duration::from_millis(50),
            },
        );
        let conn = accept_challenged(&listener);
        // Kill the first connection *and* the listener: subsequent attempts
        // fail (counting attempts > connects) until a new listener appears
        // on a different port and the address is updated.
        drop(conn);
        drop(listener);
        // Push frames until the writer notices the dead socket.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sender.stats().dropped == 0 && Instant::now() < deadline {
            sender.send(encode_frame(FrameKind::Msg, b"x").into());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sender.stats().dropped > 0, "dead socket noticed");
        let relocated = TcpListener::bind("127.0.0.1:0").unwrap();
        sender.set_addr(relocated.local_addr().unwrap());
        let mut conn = accept_challenged(&relocated);
        let mut hello = vec![0u8; HELLO_FRAME];
        read_exact_timeout(&mut conn, &mut hello);
        // The hello lands on our socket before the writer thread bumps its
        // counters; poll instead of asserting a single snapshot.
        let deadline = Instant::now() + Duration::from_secs(5);
        while sender.stats().connects < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = sender.stats();
        assert_eq!(stats.connects, 2);
        assert_eq!(stats.reconnects, 1);
        assert!(
            stats.attempts >= stats.connects,
            "failed dials are counted: {stats:?}"
        );
        sender.shutdown();
    }

    #[test]
    fn frames_drop_while_peer_is_down_instead_of_blocking() {
        let sender = PeerSender::spawn(0, 0, None, BackoffPolicy::default());
        for _ in 0..10 {
            sender.send(encode_frame(FrameKind::Msg, b"void").into());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while sender.stats().dropped < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(sender.stats().dropped, 10);
        assert_eq!(sender.stats().connects, 0);
        sender.shutdown();
    }
}
