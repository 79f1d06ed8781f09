//! The channel link: a [`LiveCluster`] whose seats are threads of this
//! process, talking over `std::sync::mpsc` channels — the "real concurrency"
//! counterpart of the simulator that the original Bamboo gets from its
//! Go-channel transport.
//!
//! Every seat runs [`run_live_node`] on its own OS thread on the wall clock,
//! so a stalled or silenced leader cannot hang the cluster: the view timers
//! fire without any message traffic. Outbound messages go to one
//! cluster-level [`VerifyPool`], whose workers check every signature off the
//! consensus threads and deliver [`bamboo_types::VerifiedMessage`] proof
//! tokens (a broadcast is verified once, not once per recipient).

use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use bamboo_types::{ClientRequest, Config, Message, NodeId, ProtocolKind};

use crate::live::{
    run_live_node, ClusterReport, Link, LiveCluster, LiveEvent, LiveStatus, SeatBoot, SeatEnd,
    SeatLink, SeatStatus, SpawnArgs,
};
use crate::runtime::{NodeHost, RecoverMode};
use crate::verify::{VerifyHandle, VerifyPool};

/// A seat's [`Link`]: outbound messages go to the cluster's verification
/// pool, which delivers proof tokens into the peer channels.
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
/// enough for test machines; pass another count to [`Channels::new`] to tune.
pub const DEFAULT_VERIFY_WORKERS: usize = 2;

/// The in-process link: one thread and one event channel per seat, and one
/// verify pool for the cluster.
pub struct Channels {
    senders: Vec<Sender<LiveEvent>>,
    /// Each seat's inbox while no thread holds it.
    inboxes: Vec<Option<Receiver<LiveEvent>>>,
    pool: VerifyPool,
}

impl Channels {
    /// The link for `nodes` seats, with a verify pool of `verify_workers`
    /// workers (at least one, the same rule as a socket seat's pool).
    pub fn new(nodes: usize, verify_workers: usize) -> Self {
        let (senders, inboxes): (Vec<Sender<LiveEvent>>, Vec<_>) =
            (0..nodes).map(|_| channel()).unzip();
        let peers = senders.clone();
        let pool = VerifyPool::new(nodes, verify_workers.max(1), move |to, verified| {
            if let Some(sender) = peers.get(to.index()) {
                let _ = sender.send(LiveEvent::Verified(verified));
            }
        });
        Self {
            senders,
            inboxes: inboxes.into_iter().map(Some).collect(),
            pool,
        }
    }
}

/// One running seat of the channel link.
pub struct ChannelSeat {
    id: NodeId,
    thread: JoinHandle<(NodeHost, Receiver<LiveEvent>)>,
    status: Arc<LiveStatus>,
}

impl SeatLink for Channels {
    type Seat = ChannelSeat;
    type Finished = (ClusterReport, Vec<NodeHost>);

    fn boot(
        &mut self,
        seat: &SeatBoot<'_>,
        host: Option<NodeHost>,
        restart: Option<RecoverMode>,
    ) -> io::Result<ChannelSeat> {
        let id = seat.id;
        let inbox = self.inboxes[id.index()]
            .take()
            .expect("a seat boots once at a time");
        if restart.is_some() {
            // What reached the seat while it was down is lost with it.
            while inbox.try_recv().is_ok() {}
        }
        let host = host.unwrap_or_else(|| seat.host());
        let (verify, epoch) = (self.pool.handle(), seat.epoch);
        let status = Arc::new(LiveStatus::default());
        let published = Arc::clone(&status);
        let thread = std::thread::spawn(move || {
            let mut link = PoolLink { id, verify };
            let host = run_live_node(host, &mut link, &inbox, epoch, &published, restart);
            (host, inbox)
        });
        Ok(ChannelSeat { id, thread, status })
    }

    fn submit(&self, seat: &ChannelSeat, requests: Vec<ClientRequest>) {
        let _ = self.senders[seat.id.index()].send(LiveEvent::Client(requests));
    }

    fn probe(&self, seat: &ChannelSeat, prefix_len: u64) -> io::Result<SeatStatus> {
        Ok(seat.status.snapshot(prefix_len))
    }

    fn stop(&mut self, seat: ChannelSeat, _crash: bool) -> SeatEnd {
        let _ = self.senders[seat.id.index()].send(LiveEvent::Shutdown);
        let (host, inbox) = seat.thread.join().expect("replica thread panicked");
        self.inboxes[seat.id.index()] = Some(inbox);
        SeatEnd {
            status: Some(seat.status.snapshot(0)),
            net: None,
            host: Some(host),
        }
    }

    fn close(self, report: &mut ClusterReport) {
        // Every seat thread is gone, so every pool handle is dropped and the
        // workers drain and exit: forgeries still queued are counted too.
        let rejected = self.pool.shutdown().1;
        report.run.rejected_messages += rejected;
        report.auth_rejections += rejected;
    }

    fn finished(report: ClusterReport, hosts: Vec<Option<NodeHost>>) -> Self::Finished {
        (report, hosts.into_iter().flatten().collect())
    }
}

/// A running in-process cluster of replica threads.
pub type ThreadedCluster = LiveCluster<Channels>;

impl SpawnArgs<Channels> for (Config, ProtocolKind) {
    type Output = ThreadedCluster;

    /// Spawns `config.nodes` replica threads running `protocol`, with the
    /// default verification pool ([`DEFAULT_VERIFY_WORKERS`] crypto workers).
    /// Panics if [`Config::validate`] refuses `config`.
    fn spawn(self) -> ThreadedCluster {
        let (config, protocol) = self;
        let link = Channels::new(config.nodes, DEFAULT_VERIFY_WORKERS);
        LiveCluster::spawn_on(link, config, protocol)
            .expect("channel seats fail to boot only on an invalid config")
    }
}
