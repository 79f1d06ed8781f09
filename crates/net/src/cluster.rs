//! The loopback-socket link: a [`LiveCluster`] whose seats are [`TcpNode`]s
//! of this process, each with its own listener on `127.0.0.1`, exchanging
//! real frames over real sockets.
//!
//! Every thread, socket and frame is the one a seat in its own process runs
//! ([`crate::process`]); only the seats' lifecycle stays in this process,
//! which lets tests exercise connect, reconnect and catch-up without
//! process-management flakiness. A crash tears a seat's threads and sockets
//! down — peers see dead connections and redial on their backoff schedule —
//! and the cluster keeps its host for the restart.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::Deref;

use bamboo_core::live::{
    ClusterReport, LiveCluster, SeatBoot, SeatEnd, SeatLink, SeatStatus, SpawnArgs,
};
use bamboo_core::runtime::{NodeHost, RecoverMode};
use bamboo_types::{ClientRequest, Config, ProtocolKind};

use crate::node::{TcpNode, DEFAULT_NODE_VERIFY_WORKERS};
use crate::peer::BackoffPolicy;

/// The loopback-socket link.
pub struct Sockets {
    verify_workers: usize,
    backoff: BackoffPolicy,
    /// Every seat's port, bound at the first boot and taken by its node.
    listeners: Vec<Option<TcpListener>>,
    addrs: Vec<Option<SocketAddr>>,
}

impl Sockets {
    /// The link for `nodes` seats, each node with `verify_workers` verify
    /// workers and dialling its peers on `backoff` (tests shrink it to keep
    /// reconnect runs fast).
    pub fn new(nodes: usize, verify_workers: usize, backoff: BackoffPolicy) -> Self {
        Self {
            verify_workers,
            backoff,
            listeners: Vec::new(),
            addrs: vec![None; nodes],
        }
    }

    fn bind(&mut self, index: usize) -> io::Result<TcpListener> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        self.addrs[index] = Some(listener.local_addr()?);
        Ok(listener)
    }

    fn table(&self) -> Vec<(u64, SocketAddr)> {
        let addrs = self.addrs.iter().enumerate();
        addrs
            .filter_map(|(id, addr)| addr.map(|addr| (id as u64, addr)))
            .collect()
    }
}

impl SeatLink for Sockets {
    type Seat = TcpNode;
    type Finished = (TcpClusterReport, Vec<Option<NodeHost>>);

    /// The first boot binds every seat's port, so the nodes know each other
    /// and start together, as one deployment's would; a restarted seat binds
    /// a fresh port — the standard library exposes no `SO_REUSEADDR`, so
    /// rebinding the old one races with the kernel's TIME_WAIT.
    fn boot(
        &mut self,
        seat: &SeatBoot<'_>,
        host: Option<NodeHost>,
        restart: Option<RecoverMode>,
    ) -> io::Result<TcpNode> {
        if self.listeners.is_empty() {
            let nodes = self.addrs.len();
            let bound = (0..nodes).map(|index| self.bind(index).map(Some));
            self.listeners = bound.collect::<io::Result<_>>()?;
        }
        let index = seat.id.index();
        let listener = match self.listeners[index].take() {
            Some(listener) => listener,
            None => self.bind(index)?,
        };
        let host = host.unwrap_or_else(|| seat.host());
        let (workers, backoff) = (self.verify_workers, self.backoff);
        let node = TcpNode::spawn(host, listener, seat, workers, backoff, restart)?;
        node.set_peers(self.table());
        Ok(node)
    }

    fn announce(&mut self, seats: &[Option<TcpNode>]) -> io::Result<()> {
        for node in seats.iter().flatten() {
            node.set_peers(self.table());
        }
        Ok(())
    }

    fn submit(&self, node: &TcpNode, requests: Vec<ClientRequest>) {
        node.submit(requests);
    }

    fn probe(&self, node: &TcpNode, prefix_len: u64) -> io::Result<SeatStatus> {
        Ok(node.status(prefix_len))
    }

    fn halt(&self, node: &mut TcpNode) {
        node.halt();
    }

    fn stop(&mut self, node: TcpNode, _crash: bool) -> SeatEnd {
        node.join()
    }

    fn finished(report: ClusterReport, hosts: Vec<Option<NodeHost>>) -> Self::Finished {
        (TcpClusterReport { cluster: report }, hosts)
    }
}

/// A loopback TCP cluster of socket-backed replicas in one process.
pub type TcpCluster = LiveCluster<Sockets>;

impl SpawnArgs<Sockets> for (ProtocolKind, Config) {
    type Output = io::Result<TcpCluster>;

    /// Spawns one node per replica with the default verify workers and
    /// backoff.
    fn spawn(self) -> io::Result<TcpCluster> {
        let (protocol, config) = self;
        let link = Sockets::new(
            config.nodes,
            DEFAULT_NODE_VERIFY_WORKERS,
            BackoffPolicy::default(),
        );
        LiveCluster::spawn_on(link, config, protocol)
    }
}

/// The socket link's [`ClusterReport`] as the benchmark package reads it: a
/// `cluster` field, and everything else through [`Deref`].
#[derive(Debug)]
pub struct TcpClusterReport {
    /// The report.
    pub cluster: ClusterReport,
}

impl Deref for TcpClusterReport {
    type Target = ClusterReport;

    fn deref(&self) -> &ClusterReport {
        &self.cluster
    }
}
