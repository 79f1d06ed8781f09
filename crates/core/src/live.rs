//! The one live cluster: every wall-clock backend is a [`LiveCluster`] over a
//! [`SeatLink`] — in-process channels ([`crate::threaded::Channels`]),
//! loopback sockets or child processes (`bamboo-net`).
//!
//! Whatever the link, every seat runs [`run_live_node`] — one replica, clock,
//! deadline book and observer — and the cluster spells its verbs
//! once: `submit`, `submit_round_robin`, `committed_txs` (the floor over the
//! seats that are up), `run_until_committed`, `check_prefix_agreement`,
//! `crash`, `recover`, `probe` and `shutdown[_with_hosts]`. A link says only
//! how a seat boots and stops and how requests and probes reach it. A crash
//! stops a seat; in-process links keep its host for the restart, a child
//! process keeps only its files.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use bamboo_crypto::KeyPair;
use bamboo_forest::{ChainFingerprint, Ledger};
use bamboo_types::{
    ClientRequest, Config, Message, NodeId, ProtocolKind, SimTime, Transaction, VerifiedMessage,
    View,
};

use crate::metrics::SeatBooks;
pub use crate::metrics::{ClusterReport, NodeNetStats, PeerStats};
use crate::observe::{fold_seats, SeatBook, StepView};
use crate::replica::ReplicaOptions;
use crate::runtime::{BufferedTransport, Deadlines, NodeHost, RecoverMode, ReplicaEvent};
use crate::storage::SegmentLog;

/// The backend-specific send half of a live node.
pub trait Link {
    /// Deliver `message` to a single replica.
    fn unicast(&mut self, to: NodeId, message: Message);

    /// Deliver `message` to every replica except the sender.
    fn broadcast(&mut self, message: Message);

    /// Whether every peer is reachable; the node boots once it is (a socket
    /// seat first needs every peer's address).
    fn ready(&self) -> bool {
        true
    }

    /// Applies a [`LiveEvent::Peers`] update.
    fn set_peers(&mut self, _table: &[(u64, SocketAddr)]) {}
}

/// Events delivered to a running node's loop.
pub enum LiveEvent {
    /// A message a verify pool already authenticated.
    Verified(VerifiedMessage),
    /// A batch of client requests; the host runs the edge verification stage
    /// before the transactions reach the mempool.
    Client(Vec<ClientRequest>),
    /// The peers' listen addresses.
    Peers(Vec<(u64, SocketAddr)>),
    /// Stop the loop and hand the host back.
    Shutdown,
}

/// One seat's progress and books, as a probe reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeatStatus {
    /// Transactions in the seat's committed ledger.
    pub committed_txs: u64,
    /// Blocks in the seat's committed ledger.
    pub committed_blocks: u64,
    /// The seat's current view.
    pub view: u64,
    /// [`Ledger::chain_fingerprint_prefix`] of the probed prefix.
    pub chain_fingerprint: [u8; 32],
    /// The seat's books since its boot.
    pub books: SeatBooks,
}

/// One node's status, written by its loop after every step and readable
/// from any thread.
pub struct LiveStatus(Mutex<Published>);

struct Published {
    status: SeatStatus,
    /// The running chain fingerprint; `prefixes[l]` is its value after the
    /// first `l` blocks the node ever committed.
    running: ChainFingerprint,
    prefixes: Vec<[u8; 32]>,
    /// From the boot on: the seat's books, and the epoch of its clock.
    book: Option<(SeatBook, Instant)>,
}

impl Default for LiveStatus {
    fn default() -> Self {
        let running = ChainFingerprint::new();
        let prefixes = vec![*running.digest().as_bytes()];
        let status = SeatStatus::default();
        Self(Mutex::new(Published {
            status,
            running,
            prefixes,
            book: None,
        }))
    }
}

/// Wall time since `epoch`, as the replica's clock reads it.
fn clock(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_nanos() as u64)
}

impl LiveStatus {
    /// The node's status, fingerprinting the first `prefix_len` blocks it
    /// ever committed: 0 asks for its whole chain, and a prefix longer than
    /// its history is clamped to it.
    pub fn snapshot(&self, prefix_len: u64) -> SeatStatus {
        let published = self.0.lock().expect("status lock poisoned");
        let (status, prefixes) = (published.status, &published.prefixes);
        let want = if prefix_len == 0 {
            status.committed_blocks
        } else {
            prefix_len
        };
        let chain_fingerprint = prefixes[(want as usize).min(prefixes.len() - 1)];
        let books = (published.book.as_ref()).map(|(book, epoch)| book.books(clock(*epoch)));
        SeatStatus {
            chain_fingerprint,
            books: books.unwrap_or_default(),
            ..status
        }
    }

    /// Opens the seat's books at its boot, on the clock of `epoch`.
    fn open(&self, book: SeatBook, epoch: Instant) {
        self.0.lock().expect("status lock poisoned").book = Some((book, epoch));
    }

    /// The single accounting path, after every step: the step to the seat's
    /// observer, then view and ledger. Nothing is published before the
    /// books open: a restarting seat's host is still what the crash left.
    fn publish(&self, host: &NodeHost, step: &StepView) {
        let mut published = self.0.lock().expect("status lock poisoned");
        let Some((book, _)) = &mut published.book else {
            return;
        };
        book.on_step(step, host);
        let replica = host.replica();
        published.book(replica.current_view(), replica.ledger());
    }
}

impl Published {
    /// Books view and ledger. The prefix history is extended by a running
    /// hash — one clone-and-finalise per new block — and follows the ledger
    /// wherever it jumps (a snapshot install, a durable replay); it is never
    /// retracted: a restart re-commits the same prefix.
    fn book(&mut self, view: View, ledger: &Ledger) {
        let Published {
            status,
            running,
            prefixes,
            ..
        } = self;
        for committed in ledger.iter().skip(prefixes.len() - 1) {
            running.absorb(&committed.block);
            prefixes.push(*running.digest().as_bytes());
        }
        status.committed_txs = ledger.committed_txs();
        status.committed_blocks = ledger.len() as u64;
        status.view = view.as_u64();
    }
}

/// Upper bound on how long a node sleeps when it has nothing armed; keeps
/// shutdown latency bounded even if no timer is pending.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// What the loop hands its host next: one step each.
enum Call {
    Boot(Option<RecoverMode>),
    Fire(ReplicaEvent),
    Deliver(VerifiedMessage),
    Admit(Vec<ClientRequest>),
}

/// Runs `host` until [`LiveEvent::Shutdown`] (or every sender is gone) and
/// hands it back. Time is nanoseconds since `epoch`, the cluster's clock.
///
/// The node boots once `link.ready()`: through `NodeHost::start`, or — a seat
/// coming back — through `NodeHost::restart` in mode `restart`. Messages
/// that reach it before wait for the boot, and it publishes nothing until
/// then: its host may still be what a crash left behind. From the boot on,
/// every step is timed on the wall clock and shown to the seat's observer
/// as the `StepView` the simulator would build.
pub fn run_live_node(
    mut host: NodeHost,
    link: &mut dyn Link,
    events: &Receiver<LiveEvent>,
    epoch: Instant,
    status: &LiveStatus,
    mut restart: Option<RecoverMode>,
) -> NodeHost {
    let nodes = host.replica().config().nodes;
    let (mut out, mut deadlines) = (BufferedTransport::new(), Deadlines::default());
    let (mut booted, mut early, mut confirmed) = (false, VecDeque::new(), Vec::new());
    loop {
        let current = clock(epoch);
        let call = if !booted && link.ready() {
            booted = true;
            let replica = host.replica();
            let book = SeatBook::new(replica.config(), replica.id(), current);
            status.open(book, epoch);
            Call::Boot(restart.take())
        } else if let Some(verified) = booted.then(|| early.pop_front()).flatten() {
            Call::Deliver(verified)
        } else if let Some(event) = deadlines.pop_due(current) {
            // Nothing is armed before the boot.
            Call::Fire(event)
        } else {
            // Block on the channel, but never sleep past the next deadline.
            let until = deadlines.next_deadline();
            let wait = until.map_or(IDLE_WAIT, |deadline| {
                Duration::from_nanos(deadline.as_nanos().saturating_sub(current.as_nanos()))
                    .min(IDLE_WAIT)
            });
            match events.recv_timeout(wait) {
                Ok(LiveEvent::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Ok(LiveEvent::Peers(table)) => {
                    link.set_peers(&table);
                    continue;
                }
                Ok(LiveEvent::Verified(verified)) if !booted => {
                    early.push_back(verified);
                    continue;
                }
                Ok(LiveEvent::Verified(verified)) => Call::Deliver(verified),
                Ok(LiveEvent::Client(requests)) => Call::Admit(requests),
            }
        };
        let start = clock(epoch);
        let report = match call {
            Call::Boot(Some(mode)) => host.restart(mode, start, &mut out),
            Call::Boot(None) => host.start(start, &mut out),
            Call::Fire(event) => host.handle(event, start, &mut out),
            Call::Deliver(verified) => host.deliver(&verified, start, &mut out),
            Call::Admit(requests) => host.handle_client_batch(requests, start, &mut out),
        };
        // The step's effects, as the simulator ends a step: sends onto the
        // link (at once: a live step's CPU is the wall clock's, so a mark
        // has passed), deadlines into the book.
        let sends = out.tally_sends(nodes, |to, message, _, _| {
            match (to, Arc::unwrap_or_clone(message)) {
                (Some(to), message) => link.unicast(to, message),
                (None, message) => link.broadcast(message),
            }
            clock(epoch)
        });
        deadlines.absorb(&mut out, host.replica().current_view());
        let finish = clock(epoch);
        // No response leg is modeled: a commit is confirmed as it happens.
        let txs = report.committed.iter().map(|block| block.payload.len());
        confirmed.clear();
        confirmed.resize(txs.sum(), finish);
        let step = StepView {
            replica: host.replica(),
            start,
            finish,
            committed: finish,
            report: &report,
            sends,
            confirmed: &confirmed,
        };
        status.publish(&host, &step);
    }
    host
}

/// Polls `committed` every 10 ms until it reaches `min_txs` or `max_wait`
/// elapses; returns whether it did.
fn poll_commits(min_txs: u64, max_wait: Duration, committed: impl Fn() -> u64) -> bool {
    let deadline = Instant::now() + max_wait;
    loop {
        let reached = committed() >= min_txs;
        if reached || Instant::now() >= deadline {
            return reached;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Distinguishes the clusters one process spawns (tests spawn several).
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// What sets one cluster's seats apart: a tag no other live cluster shares,
/// and — under [`Config::durable_log`] — a temp root with one directory of
/// real segment files per seat, outliving a crashed seat and removed when
/// the cluster drops this.
struct ClusterHome {
    root: Option<PathBuf>,
    tag: u64,
    /// The cluster's clock: its seats run on it and its requests are
    /// stamped on it.
    epoch: Instant,
}

impl ClusterHome {
    fn for_config(config: &Config) -> Self {
        let (pid, seq) = (
            std::process::id(),
            CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed),
        );
        let root = std::env::temp_dir().join(format!("bamboo-cluster-{pid}-{seq}"));
        // A dead process with our pid may have left its logs behind.
        let _ = std::fs::remove_dir_all(&root);
        let since = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH);
        let nanos = since.map_or(0, |since| since.as_nanos() as u64);
        // 48 bits, exact in a JSON number.
        let tag = (nanos ^ u64::from(pid) << 32 ^ seq) & ((1 << 48) - 1);
        let root = config.durable_log.then_some(root);
        let epoch = Instant::now();
        Self { root, tag, epoch }
    }

    fn seat<'a>(&self, config: &'a Config, protocol: ProtocolKind, id: NodeId) -> SeatBoot<'a> {
        let dir = (self.root.as_ref()).map(|root| root.join(format!("node-{}", id.as_u64())));
        let (cluster, epoch) = (self.tag, self.epoch);
        SeatBoot {
            id,
            protocol,
            config,
            dir,
            cluster,
            epoch,
        }
    }
}

impl Drop for ClusterHome {
    fn drop(&mut self) {
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// What a link needs to boot one seat.
pub struct SeatBoot<'a> {
    /// The seat.
    pub id: NodeId,
    /// The protocol the cluster runs.
    pub protocol: ProtocolKind,
    /// The cluster's configuration.
    pub config: &'a Config,
    /// The seat's durable-log directory, under [`Config::durable_log`].
    pub dir: Option<PathBuf>,
    /// The cluster's tag: a socket seat accepts a peer's hello only if it
    /// was signed for this tag.
    pub cluster: u64,
    /// The cluster's clock, which the seat runs on. A seat process runs on
    /// a clock of its own (DESIGN.md §9.3).
    pub epoch: Instant,
}

impl SeatBoot<'_> {
    /// A fresh host for the seat, its log in real files in its directory
    /// when it has one. A directory that already holds a log (the seat's
    /// process was killed) resumes at its durable append position.
    pub fn host(&self) -> NodeHost {
        let config = self.config.clone();
        let (segment_bytes, fsync_interval) = (config.segment_bytes, config.fsync_interval);
        let mut host = NodeHost::new(self.id, self.protocol, config, ReplicaOptions::default());
        if let Some(dir) = &self.dir {
            let log = SegmentLog::on_disk(dir, segment_bytes, fsync_interval)
                .expect("create durable-log directory");
            host.replica_mut().set_storage(log);
        }
        host
    }
}

/// The round-robin request generator of a live cluster: one client whose
/// sequence numbers continue across calls, so no two requests of a run
/// share a transaction id.
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
    /// next seat for which `is_live` holds (dropped while no seat is live).
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

/// What a link hands back for a seat it stopped.
#[derive(Default)]
pub struct SeatEnd {
    /// The seat's final status, if it could still give one.
    pub status: Option<SeatStatus>,
    /// Its network counters, where it had sockets.
    pub net: Option<NodeNetStats>,
    /// Its host, where it lived in this process.
    pub host: Option<NodeHost>,
}

/// How a [`LiveCluster`] reaches its seats.
pub trait SeatLink: Sized {
    /// A running seat.
    type Seat;
    /// What [`LiveCluster::shutdown_with_hosts`] hands back on this link:
    /// the report and the final hosts, in the shape its callers read.
    type Finished;

    /// Boots a seat — from `host`, the one a crash left behind, when there
    /// is one — and restarts it in mode `restart` when that is set.
    ///
    /// # Errors
    /// Fails when the seat's listener, process or connection cannot be set
    /// up, or with [`io::ErrorKind::Unsupported`] for a restart the link
    /// cannot model.
    fn boot(
        &mut self,
        seat: &SeatBoot<'_>,
        host: Option<NodeHost>,
        restart: Option<RecoverMode>,
    ) -> io::Result<Self::Seat>;

    /// Tells every running seat where the others listen.
    ///
    /// # Errors
    /// Fails when a seat cannot be told.
    fn announce(&mut self, _seats: &[Option<Self::Seat>]) -> io::Result<()> {
        Ok(())
    }

    /// Hands a batch of client requests to a seat.
    fn submit(&self, seat: &Self::Seat, requests: Vec<ClientRequest>);

    /// Reads a seat's status ([`LiveStatus::snapshot`]).
    ///
    /// # Errors
    /// Fails when the seat does not answer.
    fn probe(&self, seat: &Self::Seat, prefix_len: u64) -> io::Result<SeatStatus>;

    /// Quiets a seat at shutdown, before any seat stops: its loop has sent
    /// its last frame, or its counters are read now. A seat still running
    /// while a peer stops counts every frame to that peer as dropped. A link
    /// that books no loss need not halt.
    fn halt(&self, _seat: &mut Self::Seat) {}

    /// Stops a seat: gracefully at shutdown, once every seat is halted, or
    /// killed in a crash.
    fn stop(&mut self, seat: Self::Seat, crash: bool) -> SeatEnd;

    /// Books what the link itself counted, once every seat has stopped.
    fn close(self, _report: &mut ClusterReport) {}

    /// Shapes the final report and hosts (`None` where no host is in hand).
    fn finished(report: ClusterReport, hosts: Vec<Option<NodeHost>>) -> Self::Finished;
}

/// An argument list [`LiveCluster::spawn`] accepts on link `L`, and what it
/// returns there: each link implements the list its callers have always
/// passed. [`LiveCluster::spawn_on`] is the one general constructor.
pub trait SpawnArgs<L: SeatLink> {
    /// The spawned cluster, or the error of a link whose boot can fail.
    type Output;

    /// Spawns the cluster.
    fn spawn(self) -> Self::Output;
}

/// A running cluster of `config.nodes` seats over the link `L`.
pub struct LiveCluster<L: SeatLink> {
    config: Config,
    protocol: ProtocolKind,
    link: L,
    /// `None` for a crashed seat.
    seats: Vec<Option<L::Seat>>,
    /// The host a crash left behind, per seat, for its restart.
    kept: Vec<Option<NodeHost>>,
    /// Network counters of seats a crash tore down.
    retired: Vec<NodeNetStats>,
    load: RoundRobinLoad,
    home: ClusterHome,
}

impl<L: SeatLink> LiveCluster<L> {
    /// Boots one seat per replica over `link` and tells them where the
    /// others listen, so consensus starts.
    ///
    /// # Errors
    /// Fails with [`io::ErrorKind::InvalidInput`] before any seat boots if
    /// [`Config::validate`] refuses `config`, and otherwise if a seat cannot
    /// boot or be told its peers.
    pub fn spawn_on(mut link: L, config: Config, protocol: ProtocolKind) -> io::Result<Self> {
        (config.validate()).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let home = ClusterHome::for_config(&config);
        let seats = (0..config.nodes as u64)
            .map(|id| link.boot(&home.seat(&config, protocol, NodeId(id)), None, None))
            .map(|seat| seat.map(Some))
            .collect::<io::Result<Vec<_>>>()?;
        link.announce(&seats)?;
        Ok(Self {
            load: RoundRobinLoad::new(config.nodes, config.signed_requests),
            kept: (0..config.nodes).map(|_| None).collect(),
            retired: Vec::new(),
            config,
            protocol,
            link,
            seats,
            home,
        })
    }

    /// Spawns a cluster over `L` with the default link from the argument
    /// list the link accepts ([`SpawnArgs`]): `(config, protocol)` on the
    /// channel link, `(protocol, config)` on the socket link.
    pub fn spawn<A, B>(a: A, b: B) -> <(A, B) as SpawnArgs<L>>::Output
    where
        (A, B): SpawnArgs<L>,
    {
        (a, b).spawn()
    }

    fn up(&self, id: NodeId) -> Option<&L::Seat> {
        self.seats.get(id.index()).and_then(Option::as_ref)
    }

    fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.seats.len() as u64)
            .map(NodeId)
            .filter(|&id| self.up(id).is_some())
    }

    /// Hands a batch of client requests (signed or not) to seat `id`; they
    /// are lost while it is down.
    pub fn submit(&self, id: NodeId, requests: Vec<ClientRequest>) {
        if let Some(seat) = self.up(id) {
            self.link.submit(seat, requests);
        }
    }

    /// [`LiveCluster::submit`] under the name the benchmark package calls.
    pub fn submit_requests(&self, id: NodeId, requests: Vec<ClientRequest>) {
        self.submit(id, requests);
    }

    /// Submits `count` transactions of `payload` bytes round-robin across the
    /// seats that are up, continuing the sequence numbers of earlier calls;
    /// in signed-client mode each request carries its client's signature.
    pub fn submit_round_robin(&self, count: u64, payload: usize) {
        let now = clock(self.home.epoch);
        let is_live = |seat: usize| self.up(NodeId(seat as u64)).is_some();
        for (seat, request) in self.load.next_requests(count, payload, now, is_live) {
            self.submit(NodeId(seat as u64), vec![request]);
        }
    }

    /// Seat `id`'s status, fingerprinting its first `prefix_len` committed
    /// blocks (0: its whole chain).
    ///
    /// # Errors
    /// Fails if the seat is down or does not answer.
    pub fn probe(&self, id: NodeId, prefix_len: u64) -> io::Result<SeatStatus> {
        let down = || io::Error::new(io::ErrorKind::NotConnected, format!("seat {id} is down"));
        self.link.probe(self.up(id).ok_or_else(down)?, prefix_len)
    }

    /// The smallest committed-transaction count across the seats that are up
    /// (one that does not answer counts 0): the whole-cluster progress
    /// floor, held down by a lagging or freshly restarted seat until it has
    /// caught up.
    pub fn committed_txs(&self) -> u64 {
        let committed = |id| self.probe(id, 0).map_or(0, |status| status.committed_txs);
        self.live().map(committed).min().unwrap_or(0)
    }

    /// [`LiveCluster::committed_txs`] under the name the benchmark package
    /// calls.
    pub fn committed_txs_floor(&self) -> u64 {
        self.committed_txs()
    }

    /// Runs until every seat that is up has committed at least `min_txs`
    /// transactions or `max_wait` elapses; returns whether the floor was
    /// reached. A progress poll, not a fixed sleep: wall-clock progress
    /// depends on scheduler pressure.
    pub fn run_until_committed(&self, min_txs: u64, max_wait: Duration) -> bool {
        poll_commits(min_txs, max_wait, || self.committed_txs())
    }

    /// The live prefix oracle, compared without stopping the cluster: every
    /// honest seat that is up must hold a prefix of the longest chain among
    /// them. Returns the shortest of those chains' lengths, or the first seat
    /// that breaks the rule or does not answer.
    pub fn check_prefix_agreement(&self) -> Result<u64, NodeId> {
        let honest = (self.live()).filter(|&id| self.config.attacks.iter().all(|a| a.node != id));
        let chains = honest
            .map(|id| self.probe(id, 0).map(|status| (id, status)).map_err(|_| id))
            .collect::<Result<Vec<_>, _>>()?;
        let Some(&(longest, _)) = chains.iter().max_by_key(|(_, s)| s.committed_blocks) else {
            return Ok(0);
        };
        for (id, status) in chains.iter().filter(|(_, s)| s.committed_blocks > 0) {
            let reference = self.probe(longest, status.committed_blocks);
            if reference.map_err(|_| longest)?.chain_fingerprint != status.chain_fingerprint {
                return Err(*id);
            }
        }
        Ok(chains
            .iter()
            .map(|(_, s)| s.committed_blocks)
            .min()
            .unwrap_or(0))
    }

    /// Crashes seat `id`: its threads, sockets and timers stop until
    /// [`LiveCluster::recover`]. A seat that is already down stays down.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(seat) = self.seats[id.index()].take() {
            let end = self.link.stop(seat, true);
            self.kept[id.index()] = end.host;
            self.retired.extend(end.net);
        }
    }

    /// Brings crashed seat `id` back, restarting from what its disk kept —
    /// its own durable segment log under [`Config::durable_log`], its
    /// checkpoint chunks otherwise — plus state transfer for the rest. A
    /// seat that is up is left alone.
    ///
    /// # Errors
    /// [`io::ErrorKind::Unsupported`] for [`RecoverMode::Resume`] — a crashed
    /// seat has no threads or timers left to resume — or for a storage
    /// fault on a killed process's files; else the seat's boot failure.
    pub fn recover(&mut self, id: NodeId, mode: RecoverMode) -> io::Result<()> {
        if self.seats[id.index()].is_some() {
            return Ok(());
        }
        if mode == RecoverMode::Resume {
            let why = "a crashed live seat can only restart";
            return Err(io::Error::new(io::ErrorKind::Unsupported, why));
        }
        let boot = self.home.seat(&self.config, self.protocol, id);
        let kept = self.kept[id.index()].take();
        self.seats[id.index()] = Some(self.link.boot(&boot, kept, Some(mode))?);
        self.link.announce(&self.seats)
    }

    /// Stops every seat and returns the final report.
    pub fn shutdown(self) -> ClusterReport {
        self.finish().0
    }

    /// Like [`LiveCluster::shutdown`], but also hands back the final hosts of
    /// seats that live in this process, for inspection beyond the report.
    pub fn shutdown_with_hosts(self) -> L::Finished {
        let (report, hosts) = self.finish();
        L::finished(report, hosts)
    }

    fn finish(self) -> (ClusterReport, Vec<Option<NodeHost>>) {
        let consistent = self.check_prefix_agreement().is_ok();
        let Self {
            mut link,
            mut seats,
            kept,
            retired,
            home: _home,
            ..
        } = self;
        // Every seat goes quiet before the first one stops, so shutdown
        // books no loss.
        for seat in seats.iter_mut().flatten() {
            link.halt(seat);
        }
        let (mut statuses, mut nets, mut hosts) = (Vec::new(), Vec::new(), Vec::new());
        for (seat, kept) in seats.into_iter().zip(kept) {
            let end = seat.map_or(
                SeatEnd {
                    host: kept,
                    ..SeatEnd::default()
                },
                |seat| link.stop(seat, false),
            );
            statuses.push(end.status);
            nets.extend(end.net);
            hosts.push(end.host);
        }
        nets.extend(retired);
        let mut report = fold_seats(&statuses, nets, consistent);
        // Sampled after every seat stopped, so work still queued in a shared
        // verify pool when the seats went down is counted too.
        link.close(&mut report);
        (report, hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_forest::CommittedBlock;
    use bamboo_types::{
        Block, BlockId, ByzantineStrategy, Height, QuorumCert, SeatAttack, SharedBlock, TxId,
    };
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

    #[test]
    fn silenced_leader_cannot_hang_a_channel_cluster() {
        // Seat 0 never proposes. Without real view timers the cluster would
        // stall in every view seat 0 leads; with them, seats time out and
        // keep committing, past view 4 — seat 0's first leadership slot.
        let config = Config {
            nodes: 4,
            block_size: 20,
            timeout: bamboo_types::SimDuration::from_millis(30),
            attacks: SeatAttack::first_seats(1, ByzantineStrategy::Silence),
            ..Config::default()
        };
        let cluster = crate::ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
        cluster.submit_round_robin(400, 16);
        let committed = cluster.run_until_committed(100, Duration::from_secs(20));
        assert!(committed, "committed {} txs", cluster.committed_txs());
        let report = cluster.shutdown();
        assert!(report.timeout_view_changes > 0, "views change by timeout");
        // Seat 0 leads every fourth view: the observer seat's view clock
        // files those under the timeout.
        let clock = report.utilization;
        assert!(clock.view_timeout.count > 0, "{clock:?}");
        assert!(report.max_view > 4, "stuck at view {}", report.max_view);
        assert!(report.ledgers_consistent);
        assert_eq!(report.safety_violations, 0);
    }

    /// A link that counts the seats it boots, over another link.
    struct Counted<L>(L, Arc<AtomicU64>);

    impl<L: SeatLink> SeatLink for Counted<L> {
        type Seat = L::Seat;
        type Finished = L::Finished;

        fn boot(
            &mut self,
            seat: &SeatBoot<'_>,
            host: Option<NodeHost>,
            restart: Option<RecoverMode>,
        ) -> io::Result<L::Seat> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.boot(seat, host, restart)
        }
        fn submit(&self, seat: &L::Seat, requests: Vec<ClientRequest>) {
            self.0.submit(seat, requests)
        }
        fn probe(&self, seat: &L::Seat, prefix_len: u64) -> io::Result<SeatStatus> {
            self.0.probe(seat, prefix_len)
        }
        fn stop(&mut self, seat: L::Seat, crash: bool) -> SeatEnd {
            self.0.stop(seat, crash)
        }
        fn finished(report: ClusterReport, hosts: Vec<Option<NodeHost>>) -> L::Finished {
            L::finished(report, hosts)
        }
    }

    #[test]
    fn an_invalid_config_is_refused_before_any_seat_boots() {
        let too_many_faulty = Config {
            attacks: SeatAttack::first_seats(2, ByzantineStrategy::Silence),
            ..Config::default()
        };
        let no_seats = Config {
            nodes: 0,
            ..Config::default()
        };
        for config in [too_many_faulty, no_seats] {
            let boots = Arc::new(AtomicU64::new(0));
            let link = Counted(crate::threaded::Channels::new(4, 1), boots.clone());
            let refused = LiveCluster::spawn_on(link, config.clone(), ProtocolKind::HotStuff);
            let error = refused.err().expect("an invalid config spawns no cluster");
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{config:?}");
            let reason = config.validate().unwrap_err().to_string();
            assert_eq!(error.to_string(), reason);
            assert_eq!(boots.load(Ordering::Relaxed), 0, "{reason}: a seat booted");
        }
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
            status.snapshot(0).chain_fingerprint,
            *full.chain_fingerprint_prefix(0).as_bytes()
        );
        // Commits land in uneven steps; between 17 and 60 blocks the ledger
        // jumps the way a snapshot install replaces it; the dip to 40 is an
        // amnesia restart, which must not retract or re-hash history.
        for len in [1, 2, 5, 17, 60, 61, 40, 64, 80] {
            let ledger = Ledger::restore(chain[..len].to_vec());
            let mut published = status.0.lock().unwrap();
            published.book(View(len as u64 + 2), &ledger);
            drop(published);
            let seat = status.snapshot(0);
            assert_eq!(seat.committed_blocks, len as u64);
            assert_eq!(seat.committed_txs, ledger.committed_txs());
            assert_eq!(seat.view, len as u64 + 2);
            assert_eq!(
                seat.chain_fingerprint,
                *ledger.chain_fingerprint().as_bytes()
            );
        }
        for len in 1..=80 {
            assert_eq!(
                status.snapshot(len as u64).chain_fingerprint,
                *full.chain_fingerprint_prefix(len).as_bytes(),
                "prefix {len} diverged from the from-genesis recompute"
            );
        }
        let clamped = status.snapshot(81).chain_fingerprint;
        assert_eq!(clamped, *full.chain_fingerprint().as_bytes());
    }
}
