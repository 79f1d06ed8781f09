//! Same-process loopback TCP cluster: N [`TcpNode`]s, each with its own
//! listener on `127.0.0.1`, exchanging real frames over real sockets.
//!
//! This is the multi-listener test mode the multi-process pipeline builds
//! on: every thread, socket and frame is identical to the per-process
//! deployment, only the address table is known upfront instead of being
//! distributed by the driver. Tests use it to exercise connect, reconnect
//! and catch-up without process management flakiness.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use bamboo_core::live::{
    cluster_report, poll_commits, ClusterReport, ClusterStorage, RoundRobinLoad,
};
use bamboo_core::runtime::NodeHost;
use bamboo_types::{Config, NodeId, ProtocolKind, SimTime};

use crate::node::{NodeNetStats, TcpNode, DEFAULT_NODE_VERIFY_WORKERS};
use crate::peer::BackoffPolicy;

/// A [`ClusterReport`] extended with the per-node network counters the
/// in-process backends have no equivalent for.
#[derive(Debug)]
pub struct TcpClusterReport {
    /// The protocol-level summary, same shape as the threaded backend's.
    pub cluster: ClusterReport,
    /// Per-node connection/reconnect/bytes counters, including nodes that
    /// were killed and replaced during the run (their counters are frozen at
    /// kill time and listed alongside the replacements').
    pub nodes: Vec<NodeNetStats>,
}

impl TcpClusterReport {
    /// Total outbound reconnects across the whole cluster.
    pub fn total_reconnects(&self) -> u64 {
        self.nodes.iter().map(NodeNetStats::reconnects).sum()
    }

    /// Total bytes written across the whole cluster.
    pub fn total_bytes_sent(&self) -> u64 {
        self.nodes.iter().map(NodeNetStats::bytes_sent).sum()
    }

    /// Total frames dropped at send queues across the whole cluster.
    pub fn total_dropped(&self) -> u64 {
        self.nodes.iter().map(NodeNetStats::dropped).sum()
    }
}

/// A loopback TCP cluster of socket-backed replicas in one process.
pub struct TcpCluster {
    config: Config,
    protocol: ProtocolKind,
    nodes: Vec<Option<TcpNode>>,
    addrs: Vec<SocketAddr>,
    retired: Vec<NodeNetStats>,
    started_at: Instant,
    load: RoundRobinLoad,
    verify_workers: usize,
    backoff: BackoffPolicy,
    /// Per-node durable-log directories ([`Config::durable_log`]): they
    /// outlive a killed node, so its replacement restarts from its own log.
    storage: ClusterStorage,
}

impl TcpCluster {
    /// Binds one listener per replica on `127.0.0.1:0` and spawns every node
    /// with the full address table, so consensus starts immediately.
    ///
    /// # Errors
    /// Fails if a listener cannot bind or a node cannot spawn.
    pub fn spawn(protocol: ProtocolKind, config: Config) -> std::io::Result<Self> {
        Self::spawn_with(
            protocol,
            config,
            DEFAULT_NODE_VERIFY_WORKERS,
            BackoffPolicy::default(),
        )
    }

    /// [`TcpCluster::spawn`] with explicit verify-worker count and backoff
    /// policy (tests shrink the backoff to keep reconnect runs fast).
    ///
    /// # Errors
    /// Fails if a listener cannot bind or a node cannot spawn.
    pub fn spawn_with(
        protocol: ProtocolKind,
        config: Config,
        verify_workers: usize,
        backoff: BackoffPolicy,
    ) -> std::io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..config.nodes)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<_>>()?;
        let mut cluster = Self {
            load: RoundRobinLoad::new(config.nodes, config.signed_requests),
            storage: ClusterStorage::for_config(&config),
            config,
            protocol,
            nodes: Vec::with_capacity(addrs.len()),
            addrs,
            retired: Vec::new(),
            started_at: Instant::now(),
            verify_workers,
            backoff,
        };
        for (index, listener) in listeners.into_iter().enumerate() {
            let node = cluster.spawn_node(NodeId(index as u64), listener)?;
            cluster.nodes.push(Some(node));
        }
        Ok(cluster)
    }

    /// Boots seat `id` on `listener` with the current address table. A seat
    /// whose durable-log directory already holds a log restarts from it.
    fn spawn_node(&self, id: NodeId, listener: TcpListener) -> std::io::Result<TcpNode> {
        let host = self
            .storage
            .boot_host(id, self.protocol, self.config.clone());
        let peer_addrs = self.addrs.iter().copied().map(Some).collect();
        TcpNode::spawn(
            host,
            listener,
            peer_addrs,
            self.verify_workers,
            self.backoff,
        )
    }

    /// Submits `count` transactions of `payload` bytes round-robin across
    /// the live replicas, continuing the sequence numbers of earlier calls.
    /// In signed-client mode each request carries the issuing client's
    /// signature so it passes the edge check.
    pub fn submit_round_robin(&mut self, count: u64, payload: usize) {
        let now = SimTime(self.started_at.elapsed().as_nanos() as u64);
        let is_live = |seat: usize| self.nodes[seat].is_some();
        for (seat, request) in self.load.next_requests(count, payload, now, is_live) {
            if let Some(node) = &self.nodes[seat] {
                node.submit(vec![request]);
            }
        }
    }

    /// The smallest committed-transaction count across live replicas — the
    /// whole-cluster progress floor (a lagging or freshly restarted replica
    /// holds it down until catch-up completes).
    pub fn committed_txs_floor(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(TcpNode::committed_txs)
            .min()
            .unwrap_or(0)
    }

    /// Runs until **every** live replica has committed at least `min_txs`
    /// transactions or `max_wait` elapses; returns whether the floor was
    /// reached. Polling the floor (not a single observer) makes this double
    /// as the catch-up oracle after a restart.
    pub fn run_until_committed(&self, min_txs: u64, max_wait: Duration) -> bool {
        poll_commits(min_txs, max_wait, || self.committed_txs_floor())
    }

    /// Stops replica `id` and tears down its listener. Peers keep trying to
    /// reconnect on their backoff schedule; frames queued for the dead node
    /// are dropped and counted, never buffered unboundedly. The node's
    /// network counters are frozen into the final report.
    ///
    /// # Panics
    /// Panics if the replica is already down.
    pub fn kill(&mut self, id: NodeId) {
        let node = self.nodes[id.index()].take().expect("replica already down");
        let report = node.join();
        self.retired.push(report.stats);
    }

    /// Replaces a killed replica with a fresh one on a **new** port (the
    /// standard library exposes no `SO_REUSEADDR`, so rebinding the old
    /// address races with the kernel's TIME_WAIT) and tells every live peer
    /// the new address. The replacement restarts from its own durable log when
    /// the cluster runs with [`Config::durable_log`], from genesis otherwise,
    /// and catches up on the rest through the sync protocol.
    ///
    /// # Errors
    /// Fails if the new listener cannot bind or the node cannot spawn.
    ///
    /// # Panics
    /// Panics if the replica is still running.
    pub fn restart(&mut self, id: NodeId) -> std::io::Result<()> {
        assert!(self.nodes[id.index()].is_none(), "replica still running");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        self.addrs[id.index()] = addr;
        let node = self.spawn_node(id, listener)?;
        for peer in self.nodes.iter().flatten() {
            peer.update_peer(id, addr);
        }
        self.nodes[id.index()] = Some(node);
        Ok(())
    }

    /// Stops every node and builds the final report.
    pub fn shutdown(self) -> TcpClusterReport {
        self.shutdown_with_hosts().0
    }

    /// Like [`TcpCluster::shutdown`], but also hands back the live replicas'
    /// final [`NodeHost`]s (`None` for slots killed and never restarted) so
    /// tests can compare chain fingerprints directly.
    pub fn shutdown_with_hosts(mut self) -> (TcpClusterReport, Vec<Option<NodeHost>>) {
        let mut hosts: Vec<Option<NodeHost>> = Vec::with_capacity(self.nodes.len());
        let mut stats = std::mem::take(&mut self.retired);
        for node in self.nodes.drain(..) {
            match node {
                Some(node) => {
                    let report = node.join();
                    stats.push(report.stats);
                    hosts.push(Some(report.host));
                }
                None => hosts.push(None),
            }
        }
        let pool_rejections = stats.iter().map(|node| node.verify_rejected).sum();
        let cluster = cluster_report(
            &self.config,
            hosts.iter().map(Option::as_ref),
            pool_rejections,
        );
        (
            TcpClusterReport {
                cluster,
                nodes: stats,
            },
            hosts,
        )
    }
}
