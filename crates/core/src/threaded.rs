//! A live, multi-threaded in-process cluster.
//!
//! The deterministic simulator is what the benchmarks use; this module
//! provides the complementary "real concurrency" deployment mode that the
//! original Bamboo gets from its Go-channel transport: every replica runs on
//! its own OS thread, messages travel over `std::sync::mpsc` channels, and
//! time is the real wall clock.
//!
//! The threaded cluster is a thin backend over the shared live driver
//! ([`crate::live`]): every replica thread runs [`run_live_node`] — the same
//! loop, deadline book and commit accounting as the TCP backend — and the
//! only backend-specific code is the (private) `PoolLink`, which hands
//! outbound messages to the cluster's verify pool. Because the view timers
//! are real, a stalled or silenced leader cannot hang the cluster: every
//! replica times out, broadcasts its timeout vote, and the view advances
//! without requiring any message traffic to keep the loop turning.
//!
//! Inbound consensus messages are authenticated before they reach a replica:
//! links submit raw messages to a cluster-level [`VerifyPool`], the pool's
//! workers check every signature off the consensus threads, and replicas only
//! ever receive [`bamboo_types::VerifiedMessage`] proof tokens (a broadcast is
//! verified once, not once per recipient).

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bamboo_types::{ClientRequest, Config, Message, NodeId, ProtocolKind, SimTime, Transaction};

use crate::live::{
    cluster_report, poll_commits, run_live_node, ClusterReport, ClusterStorage, Link, LiveEvent,
    LiveStatus, RoundRobinLoad,
};
use crate::runtime::{NodeHost, RecoverMode};
use crate::verify::{VerifyHandle, VerifyPool};

/// The threaded backend's [`Link`]: outbound messages go to the cluster's
/// verification pool, which delivers proof tokens into the peer channels.
struct PoolLink {
    id: NodeId,
    verify: VerifyHandle,
}

impl Link for PoolLink {
    fn unicast(&mut self, to: NodeId, message: Message) {
        self.verify.submit_unicast(self.id, to, message);
    }

    fn broadcast(&mut self, message: Message) {
        // One submission: the pool verifies once and fans the proof token
        // out to every peer, instead of n - 1 redundant verifications.
        self.verify.submit_broadcast(self.id, message);
    }
}

/// Verification workers a cluster spawns unless told otherwise. Two workers
/// keep signature checking off the consensus threads while staying light
/// enough for test machines; see `spawn_with_verify_workers` to tune.
pub const DEFAULT_VERIFY_WORKERS: usize = 2;

/// A running in-process cluster of replica threads.
pub struct ThreadedCluster {
    config: Config,
    senders: Vec<Sender<LiveEvent>>,
    handles: Vec<JoinHandle<NodeHost>>,
    verify_pool: VerifyPool,
    started_at: Instant,
    /// Per-replica commit progress, published by the replica threads.
    statuses: Vec<Arc<LiveStatus>>,
    load: RoundRobinLoad,
    /// Per-node durable-log directories; removed when the cluster is dropped.
    _storage: ClusterStorage,
}

impl ThreadedCluster {
    /// Spawns `config.nodes` replica threads running `protocol`, with the
    /// default verification pool ([`DEFAULT_VERIFY_WORKERS`] crypto workers).
    pub fn spawn(config: Config, protocol: ProtocolKind) -> Self {
        Self::spawn_with_verify_workers(config, protocol, DEFAULT_VERIFY_WORKERS)
    }

    /// Spawns the cluster with an explicit verification-pool size (at least
    /// one worker, the same rule as the TCP backend's per-node pools).
    pub fn spawn_with_verify_workers(
        config: Config,
        protocol: ProtocolKind,
        verify_workers: usize,
    ) -> Self {
        let nodes = config.nodes;
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..nodes).map(|_| channel()).unzip();
        let peers: Vec<Sender<LiveEvent>> = senders.clone();
        let verify_pool = VerifyPool::new(nodes, verify_workers.max(1), move |to, verified| {
            if let Some(sender) = peers.get(to.index()) {
                let _ = sender.send(LiveEvent::Verified(verified));
            }
        });
        let started_at = Instant::now();
        let storage = ClusterStorage::for_config(&config);
        let statuses: Vec<Arc<LiveStatus>> = (0..nodes).map(|_| Arc::default()).collect();
        let handles = receivers
            .into_iter()
            .zip(&statuses)
            .enumerate()
            .map(|(index, (receiver, status))| {
                let id = NodeId(index as u64);
                let host = storage.boot_host(id, protocol, config.clone());
                let verify = verify_pool.handle();
                let status = Arc::clone(status);
                std::thread::spawn(move || {
                    let mut link = PoolLink { id, verify };
                    run_live_node(host, &mut link, &receiver, started_at, &status)
                })
            })
            .collect();
        Self {
            load: RoundRobinLoad::new(nodes, config.signed_requests),
            config,
            senders,
            handles,
            verify_pool,
            started_at,
            statuses,
            _storage: storage,
        }
    }

    fn send(&self, replica: NodeId, event: LiveEvent) {
        if let Some(sender) = self.senders.get(replica.index()) {
            let _ = sender.send(event);
        }
    }

    /// Submits a batch of unsigned client transactions to a replica. In
    /// signed-client mode ([`Config::signed_requests`]) these are rejected at
    /// the replica edge — use [`ThreadedCluster::submit_requests`] with
    /// properly signed requests instead.
    pub fn submit(&self, replica: NodeId, txs: Vec<Transaction>) {
        self.submit_requests(
            replica,
            txs.into_iter().map(ClientRequest::unsigned).collect(),
        );
    }

    /// Submits a batch of client requests (signed or not) to a replica.
    pub fn submit_requests(&self, replica: NodeId, requests: Vec<ClientRequest>) {
        self.send(replica, LiveEvent::Client(requests));
    }

    /// Crashes a replica: it stops processing messages, timers and client
    /// traffic until [`ThreadedCluster::recover`] is called for it.
    pub fn crash(&self, replica: NodeId) {
        self.send(replica, LiveEvent::Crash);
    }

    /// Recovers a crashed replica in the given `mode`: resuming from the
    /// state it crashed with, or restarting from what its disk kept — its
    /// own durable segment log under [`Config::durable_log`], its checkpoint
    /// chunks otherwise — plus state transfer for the rest.
    pub fn recover(&self, replica: NodeId, mode: RecoverMode) {
        self.send(replica, LiveEvent::Recover(mode));
    }

    /// Convenience: submits `count` transactions of `payload` bytes
    /// round-robin across all replicas, continuing the sequence numbers of
    /// earlier calls. In signed-client mode each request is signed with the
    /// issuing client's derived key, so the batches pass the edge check.
    pub fn submit_round_robin(&self, count: u64, payload: usize) {
        let now = SimTime(self.started_at.elapsed().as_nanos() as u64);
        for (seat, request) in self.load.next_requests(count, payload, now, |_| true) {
            self.submit_requests(NodeId(seat as u64), vec![request]);
        }
    }

    /// Committed transactions observed so far (at replica 0).
    pub fn committed_txs(&self) -> u64 {
        self.statuses[0].committed_txs()
    }

    /// The live prefix oracle: every honest replica's fingerprint of the
    /// shortest committed prefix among them, compared without stopping the
    /// cluster. Returns the agreed prefix length, or the first replica that
    /// disagrees with its predecessor.
    pub fn check_prefix_agreement(&self) -> Result<u64, NodeId> {
        let is_honest = |&index: &usize| !self.config.is_byzantine(NodeId(index as u64));
        let honest: Vec<usize> = (0..self.statuses.len()).filter(is_honest).collect();
        let blocks = |&index: &usize| self.statuses[index].committed_blocks();
        let shared = honest.iter().map(blocks).min().unwrap_or(0);
        let prefix = |index: usize| self.statuses[index].chain_prefix(shared);
        match honest.windows(2).find(|w| prefix(w[0]) != prefix(w[1])) {
            Some(pair) => Err(NodeId(pair[1] as u64)),
            None => Ok(shared),
        }
    }

    /// Lets the cluster run for `duration` of wall-clock time.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Runs until replica 0 has observed at least `min_txs` committed
    /// transactions or `max_wait` elapses; returns whether the target was
    /// reached. Prefer this over a fixed [`ThreadedCluster::run_for`] in
    /// tests — wall-clock progress depends on scheduler pressure, so a fixed
    /// window flakes on loaded machines while a progress poll does not.
    pub fn run_until_committed(&self, min_txs: u64, max_wait: Duration) -> bool {
        poll_commits(min_txs, max_wait, || self.committed_txs())
    }

    /// Stops every replica thread (and the verify pool) and returns the
    /// final report.
    pub fn shutdown(self) -> ClusterReport {
        self.shutdown_with_hosts().0
    }

    /// Like [`ThreadedCluster::shutdown`], but also hands back the final
    /// [`NodeHost`]s so tests and experiments can inspect per-replica state —
    /// ledgers, chain fingerprints, recovery statistics — beyond what the
    /// summary report carries.
    pub fn shutdown_with_hosts(self) -> (ClusterReport, Vec<NodeHost>) {
        for sender in &self.senders {
            let _ = sender.send(LiveEvent::Shutdown);
        }
        let hosts: Vec<NodeHost> = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect();
        // Replica threads are gone, so every link-held pool handle is dropped
        // and the workers can drain and exit; the rejection total is sampled
        // only after the drain, so forgeries still queued in the pool when
        // the replicas stopped are counted too.
        let (_accepted, rejected) = self.verify_pool.shutdown();
        let report = cluster_report(&self.config, hosts.iter().map(Some), rejected);
        (report, hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::{ByzantineStrategy, SimDuration};

    #[test]
    fn threaded_cluster_commits_and_stays_consistent() {
        let config = Config::builder()
            .nodes(4)
            .block_size(20)
            .timeout(SimDuration::from_millis(50))
            .build()
            .unwrap();
        let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
        cluster.submit_round_robin(400, 16);
        // Poll for progress instead of sleeping a fixed window: wall-clock
        // progress depends on scheduler pressure, and a fixed sleep flakes on
        // loaded CI runners.
        assert!(
            cluster.run_until_committed(40, Duration::from_secs(20)),
            "cluster committed {} txs before the deadline",
            cluster.committed_txs()
        );
        let report = cluster.shutdown();
        assert!(report.max_view > 2, "views advanced: {}", report.max_view);
        assert!(
            report.committed_blocks.iter().any(|&c| c > 0),
            "some replica committed blocks: {:?}",
            report.committed_blocks
        );
        assert!(report.ledgers_consistent);
        assert_eq!(report.safety_violations, 0);
    }

    #[test]
    fn silenced_leader_cannot_hang_the_cluster() {
        // Node 0 runs the silence strategy: it never proposes. Without real
        // view timers the cluster would stall forever in every view node 0
        // leads; with them, replicas time out and keep committing.
        let mut config = Config::builder()
            .nodes(4)
            .block_size(20)
            .timeout(SimDuration::from_millis(30))
            .build()
            .unwrap();
        config.byzantine_strategy = ByzantineStrategy::Silence;
        config.byz_nodes = 1;
        let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
        cluster.submit_round_robin(400, 16);
        // Five committed blocks at replica 0 means the cluster moved past
        // view 4 — node 0's first leadership slot — which under silence is
        // only possible via a timeout-driven view change.
        assert!(
            cluster.run_until_committed(100, Duration::from_secs(20)),
            "cluster committed {} txs before the deadline",
            cluster.committed_txs()
        );
        let report = cluster.shutdown();
        assert!(
            report.timeout_view_changes > 0,
            "view changes must happen via timeouts"
        );
        assert!(
            report.max_view > 4,
            "views must advance past the silent leader: {}",
            report.max_view
        );
        assert!(
            report.committed_blocks.iter().any(|&c| c > 0),
            "cluster must keep committing: {:?}",
            report.committed_blocks
        );
        assert!(report.ledgers_consistent);
        assert_eq!(report.safety_violations, 0);
    }
}
