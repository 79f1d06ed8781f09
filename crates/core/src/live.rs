//! The one live-node driver shared by every wall-clock backend.
//!
//! The threaded cluster ([`crate::threaded`]) and the TCP backend
//! (`bamboo-net`) run the same replica on the same clock with the same
//! timers; the only thing that differs is how an outbound message leaves the
//! node. This module owns everything they have in common:
//!
//! * [`Link`] — the backend-specific send half (channel + verify pool, or
//!   frame enqueue on a socket writer), plus the readiness/peer-table hook
//!   that gates start-up on multi-process deployments;
//! * [`LiveEvent`] — what the outside world can tell a running node;
//! * [`run_live_node`] — the event loop: fire due deadlines (the runtime's
//!   `Deadlines`), sleep to the next one, honour crash/recover, and book
//!   every step into the node's [`LiveStatus`];
//! * [`LiveStatus`] — commit progress plus the prefix-fingerprint history,
//!   readable from any thread while the node runs (the status probe of the
//!   TCP backend and the prefix oracle of both).
//!
//! Cluster-level plumbing that both backends also share lives here too: the
//! per-cluster durable-log directory ([`ClusterStorage`]), the round-robin
//! request generator ([`RoundRobinLoad`]), the commit poll behind both
//! clusters' `run_until_committed` ([`poll_commits`]) and the assembly of the
//! final [`ClusterReport`].

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bamboo_crypto::KeyPair;
use bamboo_forest::{ChainFingerprint, Ledger};
use bamboo_types::{
    ClientRequest, Config, Message, NodeId, ProtocolKind, SimTime, Transaction, VerifiedMessage,
    View,
};

use crate::observe;
use crate::replica::{Replica, ReplicaOptions};
use crate::runtime::{Deadlines, NodeHost, RecoverMode, Transport};
use crate::storage::SegmentLog;

/// The backend-specific send half of a live node.
pub trait Link {
    /// Deliver `message` to a single replica.
    fn unicast(&mut self, to: NodeId, message: Message);

    /// Deliver `message` to every replica except the sender.
    fn broadcast(&mut self, message: Message);

    /// Whether every peer is reachable. The loop holds `NodeHost::start`
    /// back until this is true (multi-process replicas boot before the
    /// driver has collected all ports).
    fn ready(&self) -> bool {
        true
    }

    /// Applies a [`LiveEvent::Peers`] update. In-process links have no
    /// addresses and ignore it.
    fn set_peers(&mut self, _table: &[(u64, SocketAddr)]) {}
}

/// Events delivered to a running node's loop.
pub enum LiveEvent {
    /// A message a verify pool already authenticated.
    Verified(VerifiedMessage),
    /// A batch of client requests; the host runs the edge verification stage
    /// before the transactions reach the mempool.
    Client(Vec<ClientRequest>),
    /// Fault injection: the node stops processing everything (messages,
    /// timers, client traffic) until a `Recover` arrives.
    Crash,
    /// Fault injection: a crashed node comes back.
    Recover(RecoverMode),
    /// Link control: peer listen addresses (from the multi-process driver, or
    /// a cluster-side restart notification).
    Peers(Vec<(u64, SocketAddr)>),
    /// Stop the loop and hand the host back.
    Shutdown,
}

/// The live backends' [`Transport`]: deadlines stay with the loop, messages
/// go out through the backend's link.
struct LiveTransport<'a> {
    deadlines: Deadlines,
    link: &'a mut dyn Link,
}

impl Transport for LiveTransport<'_> {
    fn unicast(&mut self, to: NodeId, message: Message) {
        self.link.unicast(to, message);
    }

    fn broadcast(&mut self, message: Message) {
        self.link.broadcast(message);
    }

    fn arm_timer(&mut self, view: View, deadline: SimTime) {
        self.deadlines.timers.push((view, deadline));
    }

    fn schedule_proposal(&mut self, view: View, at: SimTime) {
        self.deadlines.proposals.push((view, at));
    }

    fn arm_sync_timer(&mut self, deadline: SimTime) {
        self.deadlines.sync_timers.push(deadline);
    }
}

/// The running chain fingerprint plus its value after every block so far.
struct PrefixHistory {
    running: ChainFingerprint,
    /// `prefixes[l]` is the chain fingerprint of the first `l` blocks.
    prefixes: Vec<[u8; 32]>,
}

/// One node's commit progress, written by its loop after every step and
/// readable from any thread.
pub struct LiveStatus {
    committed_txs: AtomicU64,
    committed_blocks: AtomicU64,
    view: AtomicU64,
    chain: Mutex<PrefixHistory>,
}

impl Default for LiveStatus {
    fn default() -> Self {
        let running = ChainFingerprint::new();
        let prefixes = vec![*running.digest().as_bytes()];
        Self {
            committed_txs: AtomicU64::new(0),
            committed_blocks: AtomicU64::new(0),
            view: AtomicU64::new(0),
            chain: Mutex::new(PrefixHistory { running, prefixes }),
        }
    }
}

impl LiveStatus {
    /// Transactions in the node's committed ledger.
    pub fn committed_txs(&self) -> u64 {
        self.committed_txs.load(Ordering::Acquire)
    }

    /// Blocks in the node's committed ledger.
    pub fn committed_blocks(&self) -> u64 {
        self.committed_blocks.load(Ordering::Acquire)
    }

    /// The node's current view.
    pub fn view(&self) -> u64 {
        self.view.load(Ordering::Acquire)
    }

    /// [`Ledger::chain_fingerprint_prefix`] of the first `len` blocks the
    /// node ever committed, or `None` if it has not committed that many.
    pub fn chain_prefix(&self, len: u64) -> Option<[u8; 32]> {
        let chain = self.chain.lock().expect("fingerprint lock poisoned");
        chain.prefixes.get(len as usize).copied()
    }

    /// The single accounting path: publishes the replica's view and ledger
    /// after a step. The prefix history is extended by a running hash —
    /// one clone-and-finalise per new block — and follows the ledger
    /// wherever it jumps (a snapshot install, a durable replay). History is
    /// never retracted: an amnesia restart re-commits the same prefix.
    fn book(&self, view: View, ledger: &Ledger) {
        self.view.store(view.as_u64(), Ordering::Release);
        let len = ledger.len() as u64;
        // Only the node's own loop writes, so it can read its last value
        // back relaxed; transactions only change when blocks do.
        if len == self.committed_blocks.load(Ordering::Relaxed) {
            return;
        }
        {
            let mut chain = self.chain.lock().expect("fingerprint lock poisoned");
            let PrefixHistory { running, prefixes } = &mut *chain;
            for committed in ledger.iter().skip(prefixes.len() - 1) {
                running.absorb(&committed.block);
                prefixes.push(*running.digest().as_bytes());
            }
        }
        // Released after the history grew: a reader that acquires a block
        // count finds the prefix entry for it.
        self.committed_txs
            .store(ledger.committed_txs(), Ordering::Release);
        self.committed_blocks.store(len, Ordering::Release);
    }
}

/// Upper bound on how long a node sleeps when it has nothing armed; keeps
/// shutdown latency bounded even if no timer is pending.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Runs `host` until [`LiveEvent::Shutdown`] (or every sender is gone) and
/// hands it back. Time is nanoseconds since `clock`.
///
/// The node boots once `link.ready()`: through `NodeHost::start`, or — when
/// its mounted durable log already holds state, i.e. this is a process
/// coming back — through a durable `NodeHost::restart`. While crashed it
/// processes nothing: inbound traffic is dropped on the floor and armed
/// deadlines do not fire.
pub fn run_live_node(
    mut host: NodeHost,
    link: &mut dyn Link,
    events: &Receiver<LiveEvent>,
    clock: Instant,
    status: &LiveStatus,
) -> NodeHost {
    let now = || SimTime(clock.elapsed().as_nanos() as u64);
    let deadlines = Deadlines::default();
    let mut transport = LiveTransport { deadlines, link };
    let (mut started, mut crashed) = (false, false);
    loop {
        let current = now();
        let active = started && !crashed;
        let due = if active {
            transport.deadlines.pop_due(current)
        } else {
            None
        };
        if !started && transport.link.ready() {
            started = true;
            let log = host.replica().storage();
            if log.is_some_and(|log| log.records_appended() > 0 || log.checkpoint().is_some()) {
                host.restart(RecoverMode::Restart(None), current, &mut transport);
            } else {
                host.start(current, &mut transport);
            }
        } else if let Some(event) = due {
            host.handle(event, current, &mut transport);
        } else {
            // Block on the channel, but never sleep past the next deadline.
            let until = transport.deadlines.next_deadline().filter(|_| active);
            let wait = until.map_or(IDLE_WAIT, |deadline| {
                Duration::from_nanos(deadline.as_nanos().saturating_sub(current.as_nanos()))
                    .min(IDLE_WAIT)
            });
            match events.recv_timeout(wait) {
                Ok(LiveEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Ok(LiveEvent::Peers(table)) => transport.link.set_peers(&table),
                Ok(LiveEvent::Crash) => crashed = true,
                Ok(LiveEvent::Recover(mode)) if crashed => {
                    crashed = false;
                    // A restart invalidates deadlines armed for pre-crash
                    // views; a resume keeps them.
                    if mode != RecoverMode::Resume {
                        transport.deadlines.clear();
                        host.restart(mode, now(), &mut transport);
                    }
                }
                // A crashed node hears nothing; a running one cannot recover.
                Ok(_) if crashed => {}
                Ok(LiveEvent::Recover(_)) => {}
                Ok(LiveEvent::Verified(verified)) => {
                    host.deliver(&verified, now(), &mut transport);
                }
                Ok(LiveEvent::Client(requests)) => {
                    host.handle_client_batch(requests, now(), &mut transport);
                }
            }
        }
        let replica = host.replica();
        status.book(replica.current_view(), replica.ledger());
        transport.deadlines.prune_stale(replica.current_view());
    }
    host
}

/// Polls `committed` every 10 ms until it reaches `min_txs` or `max_wait`
/// elapses; returns whether it did.
pub fn poll_commits(min_txs: u64, max_wait: Duration, committed: impl Fn() -> u64) -> bool {
    let deadline = Instant::now() + max_wait;
    loop {
        let reached = committed() >= min_txs;
        if reached || Instant::now() >= deadline {
            return reached;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Summary of one live run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Committed blocks per replica (indexed by node id; 0 for a replica
    /// that was down at shutdown).
    pub committed_blocks: Vec<usize>,
    /// Committed transactions in the longest ledger.
    pub committed_txs: u64,
    /// Highest view reached across replicas.
    pub max_view: u64,
    /// Whether all honest ledgers were pairwise consistent at shutdown.
    pub ledgers_consistent: bool,
    /// Conflicting-commit events observed across all replicas (must be 0).
    pub safety_violations: u64,
    /// Timeout-driven view changes summed across replicas.
    pub timeout_view_changes: u64,
    /// Messages rejected by the authentication stage as forged or malformed.
    pub auth_rejections: u64,
    /// Signed client requests rejected at the replica edge as forged
    /// (signed-client mode only; always 0 otherwise).
    pub client_auth_rejections: u64,
}

/// Assembles the final report from the hosts the node loops handed back
/// (`None` for a seat that was down at shutdown) and the forgeries the
/// cluster's verify pool(s) rejected.
pub fn cluster_report<'a>(
    config: &Config,
    hosts: impl IntoIterator<Item = Option<&'a NodeHost>>,
    pool_rejections: u64,
) -> ClusterReport {
    let hosts: Vec<Option<&NodeHost>> = hosts.into_iter().collect();
    let live = || hosts.iter().flatten();
    let replicas: Vec<&Replica> = live().map(|h| h.replica()).collect();
    let audit = observe::audit(config, live().copied());
    let ledger_len = |h: &Option<&NodeHost>| h.map_or(0, |h| h.replica().ledger().len());
    ClusterReport {
        committed_blocks: hosts.iter().map(ledger_len).collect(),
        committed_txs: replicas
            .iter()
            .map(|r| r.ledger().committed_txs())
            .max()
            .unwrap_or(0),
        max_view: replicas
            .iter()
            .map(|r| r.current_view().as_u64())
            .max()
            .unwrap_or(0),
        ledgers_consistent: audit.forks == 0,
        safety_violations: audit.safety_violations,
        timeout_view_changes: replicas.iter().map(|r| r.timeout_view_changes()).sum(),
        auth_rejections: audit.rejected_messages + pool_rejections,
        client_auth_rejections: audit.client_auth_rejections,
    }
}

/// Distinguishes the storage roots of clusters spawned by the same process
/// (tests spawn several), on top of the per-process component.
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// The durable-log directories of one in-process cluster: a unique temp root
/// with one sub-directory of real segment files per node, mirroring a
/// process with a local disk. Empty unless [`Config::durable_log`] is set;
/// the root is removed when the cluster drops this.
pub struct ClusterStorage {
    root: Option<PathBuf>,
}

impl ClusterStorage {
    /// Picks the root for a cluster running `config`.
    pub fn for_config(config: &Config) -> Self {
        let root = config.durable_log.then(|| {
            let seq = CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("bamboo-cluster-{}-{seq}", std::process::id()))
        });
        let storage = Self { root };
        // A dead process with our pid may have left its logs behind.
        storage.remove();
        storage
    }

    fn remove(&self) {
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }

    /// The shared boot path: a fresh host for seat `id`, with the default
    /// in-memory log swapped for real files in the node's own directory. A
    /// directory that already holds a log (the seat was killed and is being
    /// restarted) resumes at its durable append position, and
    /// [`run_live_node`] boots it through a durable restart.
    pub fn boot_host(&self, id: NodeId, protocol: ProtocolKind, config: Config) -> NodeHost {
        let (segment_bytes, fsync_interval) = (config.segment_bytes, config.fsync_interval);
        let mut host = NodeHost::new(id, protocol, config, ReplicaOptions::default());
        if let Some(root) = &self.root {
            let dir = root.join(format!("node-{}", id.as_u64()));
            let log = SegmentLog::on_disk(&dir, segment_bytes, fsync_interval)
                .expect("create durable-log directory");
            host.replica_mut().set_storage(log);
        }
        host
    }
}

impl Drop for ClusterStorage {
    fn drop(&mut self) {
        self.remove();
    }
}

/// The round-robin request generator every live cluster driver submits
/// through: one client whose sequence numbers continue across calls, so no
/// two requests of a run share a transaction id.
pub struct RoundRobinLoad {
    nodes: usize,
    /// The client's signing key in signed-client mode.
    keypair: Option<KeyPair>,
    next_seq: AtomicU64,
}

impl RoundRobinLoad {
    const CLIENT: NodeId = NodeId(999);

    /// A generator for a cluster of `nodes` replicas; with `signed` every
    /// request carries the client's signature so it passes the edge check.
    pub fn new(nodes: usize, signed: bool) -> Self {
        Self {
            nodes,
            keypair: signed.then(|| KeyPair::client_from_seed(Self::CLIENT.as_u64())),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The next `count` requests of `payload` bytes, each paired with the
    /// seat it goes to: sequence number modulo cluster size, skewed to the
    /// next seat for which `is_live` holds (requests are dropped while no
    /// seat is live).
    pub fn next_requests(
        &self,
        count: u64,
        payload: usize,
        issued_at: SimTime,
        is_live: impl Fn(usize) -> bool,
    ) -> Vec<(usize, ClientRequest)> {
        let first = self.next_seq.fetch_add(count, Ordering::Relaxed);
        let requests = (first..first + count).filter_map(|seq| {
            let target = (seq % self.nodes as u64) as usize;
            let seat = (0..self.nodes)
                .map(|offset| (target + offset) % self.nodes)
                .find(|&seat| is_live(seat))?;
            let tx = Transaction::new(Self::CLIENT, seq, payload, issued_at);
            let request = match &self.keypair {
                Some(keypair) => ClientRequest::signed(tx, keypair),
                None => ClientRequest::unsigned(tx),
            };
            Some((seat, request))
        });
        requests.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_forest::CommittedBlock;
    use bamboo_types::{Block, BlockId, Height, QuorumCert, SharedBlock, TxId};
    use std::collections::HashSet;

    #[test]
    fn commit_poll_returns_at_once_when_met_and_false_past_the_deadline() {
        let started = Instant::now();
        assert!(poll_commits(5, Duration::from_secs(60), || 5));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "no wait when met"
        );

        let reads = std::cell::Cell::new(0);
        let started = Instant::now();
        let stalled = || {
            reads.set(reads.get() + 1);
            4
        };
        assert!(!poll_commits(5, Duration::from_millis(30), stalled));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(reads.get() > 1, "the counter is polled, not read once");
    }

    #[test]
    fn round_robin_sequence_continues_across_calls() {
        for signed in [false, true] {
            let load = RoundRobinLoad::new(4, signed);
            let mut requests = load.next_requests(10, 8, SimTime(1), |_| true);
            requests.extend(load.next_requests(10, 8, SimTime(2), |_| true));
            let ids: HashSet<TxId> = requests.iter().map(|(_, r)| r.transaction.id).collect();
            assert_eq!(
                ids.len(),
                20,
                "signed={signed}: a transaction id was reused"
            );
            let seats: Vec<usize> = requests.iter().map(|&(seat, _)| seat).collect();
            assert_eq!(seats[..6], [0, 1, 2, 3, 0, 1]);
            assert_eq!(seats[10], 2, "the second call continues the rotation");
        }
    }

    #[test]
    fn round_robin_skews_past_dead_seats() {
        let load = RoundRobinLoad::new(4, false);
        let seats: Vec<usize> = load
            .next_requests(4, 8, SimTime::ZERO, |seat| seat != 2)
            .into_iter()
            .map(|(seat, _)| seat)
            .collect();
        assert_eq!(seats, [0, 1, 3, 3]);
        assert!(load
            .next_requests(4, 8, SimTime::ZERO, |_| false)
            .is_empty());
    }

    fn committed_chain(len: u64) -> Vec<CommittedBlock> {
        let mut parent = BlockId::GENESIS;
        (1..=len)
            .map(|i| {
                let txs = (0..i % 3)
                    .map(|t| Transaction::new(NodeId(7), i * 10 + t, 4, SimTime::ZERO))
                    .collect();
                let justify = QuorumCert::genesis();
                let block = Block::new(View(i), Height(i), parent, NodeId(0), justify, txs);
                parent = block.id;
                CommittedBlock {
                    block: SharedBlock::new(block),
                    committed_in_view: View(i + 2),
                    committed_at: SimTime(i),
                }
            })
            .collect()
    }

    #[test]
    fn booked_prefix_history_matches_the_ledger_oracle() {
        let chain = committed_chain(80);
        let full = Ledger::restore(chain.clone());
        let status = LiveStatus::default();
        assert_eq!(
            status.chain_prefix(0),
            Some(*full.chain_fingerprint_prefix(0).as_bytes())
        );
        // Commits land in uneven steps; between 17 and 60 blocks the ledger
        // jumps the way a snapshot install replaces it; the dip to 40 is an
        // amnesia restart, which must not retract or re-hash history.
        for len in [1, 2, 5, 17, 60, 61, 40, 64, 80] {
            let ledger = Ledger::restore(chain[..len].to_vec());
            status.book(View(len as u64 + 2), &ledger);
            assert_eq!(status.committed_blocks(), len as u64);
            assert_eq!(status.committed_txs(), ledger.committed_txs());
            assert_eq!(status.view(), len as u64 + 2);
        }
        for len in 0..=80 {
            assert_eq!(
                status.chain_prefix(len as u64),
                Some(*full.chain_fingerprint_prefix(len).as_bytes()),
                "prefix {len} diverged from the from-genesis recompute"
            );
        }
        assert_eq!(status.chain_prefix(81), None);
    }
}
