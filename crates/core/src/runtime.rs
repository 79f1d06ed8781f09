//! The shared runtime spine of every deployment mode.
//!
//! A [`crate::Replica`] is a pure state machine: it consumes verified
//! messages, admitted transactions and [`ReplicaEvent`]s (local deadlines),
//! and writes each effect — a message to send, a timer to arm, a delayed
//! proposal to schedule — into the [`Transport`] its host hands it, the
//! moment it decides on it. Everything that differs between the
//! deterministic simulator and the live backends is *how* those effects are
//! realised — which is exactly what the trait captures. There are two
//! implementations:
//!
//! * the simulator buffers the effects (via [`BufferedTransport`]) and maps
//!   messages onto its discrete-event queue with modelled latency, NIC and
//!   CPU delays,
//! * the live backends (threaded cluster, TCP) share one: the driver in
//!   [`crate::live`] checks the deadlines against the wall clock and sends
//!   messages through the backend's [`crate::live::Link`]; both keep the
//!   deadlines in one book, `Deadlines`, pruned after every step.
//!
//! The [`NodeHost`] is the common driver: it owns the replica, feeds inputs
//! and the backend's `Transport` into it, and hands the backend the step's
//! [`StepReport`] (CPU time consumed plus newly committed blocks) for
//! accounting.
//!
//! The host is also the **authenticated ingress stage**, and the replica has
//! no other door:
//!
//! * a message reaches the replica only as a [`VerifiedMessage`], through
//!   [`NodeHost::deliver`]. Only an [`Authenticator`] mints that proof token
//!   — on the live backends' [`crate::verify::VerifyPool`] workers, so
//!   crypto pipelines with consensus, or once per unique envelope in the
//!   simulator, which fans the verdict out. A forgery is booked through
//!   [`NodeHost::reject_forged`] instead;
//! * client transactions reach the mempool only as [`VerifiedRequests`],
//!   through [`NodeHost::admit`] (or [`NodeHost::handle_client_batch`],
//!   which runs the edge check first). A [`Message::Handoff`] carries a
//!   copy of a batch another replica already admitted that way;
//! * [`NodeHost::handle`] takes a [`ReplicaEvent`], which is nothing but a
//!   local deadline coming due.
//!
//! No unchecked signature can reach the replica, by type.

use bamboo_sim::CpuModel;
use bamboo_types::{
    Authenticator, ClientRequest, Config, Message, NodeId, ProtocolKind, SharedBlock,
    SharedMessage, SimDuration, SimTime, VerifiedMessage, VerifiedRequests, View,
};

use crate::replica::{Replica, ReplicaOptions};
use crate::storage::StorageFault;

/// The local deadlines a replica consumes: the effects it armed through
/// [`Transport`] coming due. Messages and client transactions are not events;
/// they reach the replica only with a proof token, through
/// [`NodeHost::deliver`] and [`NodeHost::admit`].
#[derive(Clone, Debug)]
pub enum ReplicaEvent {
    /// A previously armed view timer fired.
    TimerFired {
        /// The view the timer was armed for.
        view: View,
    },
    /// A delayed proposal slot arrived (used when the protocol waits for the
    /// timeout after a view change, Fig. 15's second setting).
    ProposeNow {
        /// The view the proposal was scheduled for.
        view: View,
    },
    /// A previously armed sync timer fired (gap-detection debounce or a
    /// retry deadline for an outstanding state-transfer request).
    SyncTimer,
}

/// One replica's armed deadlines, as absolute times on the node's clock.
#[derive(Default)]
pub(crate) struct Deadlines {
    pub timers: Vec<(View, SimTime)>,
    pub proposals: Vec<(View, SimTime)>,
    pub sync_timers: Vec<SimTime>,
}

impl Deadlines {
    /// Earliest pending deadline of any kind.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let views = self.timers.iter().chain(&self.proposals).map(|&(_, d)| d);
        views.chain(self.sync_timers.iter().copied()).min()
    }

    /// Removes one deadline that has passed and returns the event it fires:
    /// view timers first (they are what keeps a cluster moving when a leader
    /// is silent), then delayed proposals, then sync timers.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ReplicaEvent> {
        if let Some(index) = self.timers.iter().position(|&(_, d)| d <= now) {
            let (view, _) = self.timers.swap_remove(index);
            return Some(ReplicaEvent::TimerFired { view });
        }
        if let Some(index) = self.proposals.iter().position(|&(_, d)| d <= now) {
            let (view, _) = self.proposals.swap_remove(index);
            return Some(ReplicaEvent::ProposeNow { view });
        }
        let index = self.sync_timers.iter().position(|&d| d <= now)?;
        self.sync_timers.swap_remove(index);
        Some(ReplicaEvent::SyncTimer)
    }

    /// Drops timers and proposals for views the replica has already left, so
    /// the lists stay bounded over long runs. Sync timers are view-less and
    /// self-consume on firing.
    pub fn prune_stale(&mut self, current_view: View) {
        self.timers.retain(|&(view, _)| view >= current_view);
        self.proposals.retain(|&(view, _)| view >= current_view);
    }

    /// Drops every armed deadline.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Takes the deadlines a step armed into the book.
    pub fn absorb(&mut self, effects: &mut BufferedTransport) {
        self.timers.append(&mut effects.timers);
        self.proposals.append(&mut effects.proposals);
        self.sync_timers.append(&mut effects.sync_timers);
    }
}

/// Backend-provided effect sink for a single replica.
///
/// All methods are invoked while the replica handles one event; the backend
/// decides delivery timing (once the step is done: at once on the live
/// links, modelled by the simulator). `deadline`/`at` are absolute times on
/// the backend's clock — simulated time for the simulator, nanoseconds since
/// the seat's epoch (`SeatBoot::epoch`) for the live backends.
pub trait Transport {
    /// Deliver `message` to a single replica.
    fn unicast(&mut self, to: NodeId, message: Message);

    /// Deliver `message` to every replica except the sender.
    fn broadcast(&mut self, message: Message);

    /// Arm a view timer that must fire at `deadline` unless the view has
    /// advanced past `view` by then.
    fn arm_timer(&mut self, view: View, deadline: SimTime);

    /// Schedule a delayed proposal slot for `view` at time `at` (used by the
    /// non-responsive wait-for-timeout deployment of Fig. 15).
    fn schedule_proposal(&mut self, view: View, at: SimTime);

    /// Arm a sync timer (state-transfer debounce/retry) for `deadline`.
    /// Unlike view timers these carry no view: the replica decides on firing
    /// whether anything is still missing.
    fn arm_sync_timer(&mut self, deadline: SimTime);
}

/// How a crashed node comes back — the one spelling of the recovery mode
/// shared by the simulator's fault schedule ([`crate::NodeFault`]), scenario
/// specs and the live cluster ([`crate::live::LiveCluster::recover`], which
/// restarts only: a crashed live seat has nothing left to resume).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverMode {
    /// Resume from the in-memory state the node crashed with: a network
    /// blip, not a process death. The node catches up through the QCs
    /// embedded in the traffic it starts receiving again.
    Resume,
    /// Discard in-memory state and restart from what the node's disk kept
    /// ([`Replica::restart`]): a machine that rebooted. With
    /// [`Config::durable_log`] that is the segment log plus the persisted
    /// checkpoint image — optionally after a crash-point [`StorageFault`]
    /// mangled the log — and only what the log did not cover is
    /// state-transferred back. Without a log the disk is the checkpoint
    /// chunks alone (whatever [`Config::checkpoint_interval`] last persisted,
    /// or nothing: genesis), the fault has nothing to maul, and the whole
    /// lost history comes back over the network.
    Restart(Option<StorageFault>),
}

/// What one event step produced, beside the effects it wrote into the
/// backend's [`Transport`].
#[derive(Debug, Default)]
pub struct StepReport {
    /// CPU time the replica consumed handling the event.
    pub cpu: SimDuration,
    /// Blocks that became committed during the step (oldest first), as
    /// shared handles into the replica's forest/ledger storage.
    pub committed: Vec<SharedBlock>,
}

/// One step in progress: the instant it runs at, the effect sink the host
/// handed in, and the account the host gets back. Every replica handler takes
/// one, so an effect has exactly one spelling — a [`Transport`] call.
pub(crate) struct Step<'a> {
    pub now: SimTime,
    pub transport: &'a mut dyn Transport,
    /// What the replica's work costs; `cpu` is the bill so far.
    pub model: CpuModel,
    pub cpu: SimDuration,
    pub committed: Vec<SharedBlock>,
}

impl<'a> Step<'a> {
    pub fn new(now: SimTime, transport: &'a mut dyn Transport, model: CpuModel) -> Self {
        Self {
            now,
            transport,
            model,
            cpu: SimDuration::ZERO,
            committed: Vec::new(),
        }
    }

    pub fn finish(self) -> StepReport {
        StepReport {
            cpu: self.cpu,
            committed: self.committed,
        }
    }
}

/// The shared node-host driver: one replica behind the authenticated ingress
/// stage.
///
/// [`crate::SimRunner`] and the live driver ([`crate::live::run_live_node`])
/// drive their replicas exclusively through this type, so the runtimes cannot
/// drift apart in how replica output is interpreted.
pub struct NodeHost {
    replica: Replica,
    /// The ingress verifier holding the validator set's public keys.
    authenticator: Authenticator,
    /// Models the CPU cost of *failed* verifications and of the client edge
    /// check (accepted messages are charged by the replica itself, whose
    /// modeled costs mirror the real checks).
    cpu: CpuModel,
    /// Messages dropped at ingress because a signature, certificate or block
    /// id failed verification.
    auth_rejections: u64,
    /// Client requests dropped at ingress because their client signature
    /// failed verification (signed-client mode only).
    client_auth_rejections: u64,
}

impl NodeHost {
    /// Creates a host for a fresh replica.
    pub fn new(
        id: NodeId,
        protocol: ProtocolKind,
        config: Config,
        options: ReplicaOptions,
    ) -> Self {
        Self::from_replica(Replica::new(id, protocol, config, options))
    }

    /// Wraps an already-constructed replica.
    pub fn from_replica(replica: Replica) -> Self {
        let config = replica.config();
        let mut authenticator = Authenticator::for_nodes(config.nodes);
        authenticator.set_signed_clients(config.signed_requests);
        // Share the replica's model so per-replica CPU overrides (the
        // heterogeneous-CPU scenario knob) also price rejected messages.
        let cpu = replica.cpu_model();
        Self {
            replica,
            authenticator,
            cpu,
            auth_rejections: 0,
            client_auth_rejections: 0,
        }
    }

    /// The hosted replica.
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Mutable access to the hosted replica (for run-time reconfiguration
    /// such as timeout changes).
    pub fn replica_mut(&mut self) -> &mut Replica {
        &mut self.replica
    }

    /// Messages dropped at the ingress stage so far.
    pub fn auth_rejections(&self) -> u64 {
        self.auth_rejections
    }

    /// Client requests dropped at the edge for a bad signature so far.
    pub fn client_auth_rejections(&self) -> u64 {
        self.client_auth_rejections
    }

    /// Boots the replica: arms the first view timer and, if it leads the
    /// first view, proposes.
    pub fn start(&mut self, now: SimTime, transport: &mut dyn Transport) -> StepReport {
        self.replica.start(now, transport)
    }

    /// Fires one local deadline at the replica.
    pub fn handle(
        &mut self,
        event: ReplicaEvent,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        self.replica.handle(event, now, transport)
    }

    /// Feeds a batch of client requests through the edge verification stage
    /// ([`Authenticator::verify_requests`]) and into the replica's mempool
    /// ([`NodeHost::admit`]).
    pub fn handle_client_batch(
        &mut self,
        requests: Vec<ClientRequest>,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        let verified = self.authenticator.verify_requests(requests);
        self.admit(verified, now, transport)
    }

    /// Admits a client batch that passed the edge check — here or on another
    /// thread, the simulator's tick producer — into the replica's mempool.
    ///
    /// The step is charged the check as if it had run at this replica's own
    /// busy server: in signed-client mode one batched pass
    /// ([`CpuModel::verify_batch`]), plus a second, sequential pass
    /// ([`CpuModel::verify`]) when the check dropped a request — the model
    /// of an all-or-nothing batch check that falls back to checking every
    /// request on its own. The requests the check dropped are
    /// counted in [`NodeHost::client_auth_rejections`]. Admitting costs
    /// nothing beyond the check. It writes at most one effect: a
    /// [`Message::Handoff`] copy of the admitted batch to the leader three
    /// views ahead, when this replica leads none of the next views (the rule
    /// is `handoff.rs`'s; `now` keeps the shape every entry point shares).
    pub fn admit(
        &mut self,
        requests: VerifiedRequests,
        _now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        let mut cpu = SimDuration::ZERO;
        if requests.signed() {
            cpu = self.cpu.verify_batch(requests.offered());
            if requests.rejected() > 0 {
                cpu += self.cpu.verify(requests.offered());
            }
        }
        self.client_auth_rejections += requests.rejected() as u64;
        self.replica.admit(requests.into_transactions(), transport);
        StepReport {
            cpu,
            committed: Vec::new(),
        }
    }

    /// Feeds a verified message into the replica by reference, with the
    /// envelope's sender — the only way a message reaches it; the replica
    /// clones only what it keeps. Every backend verifies before it calls
    /// this — the live backends' verify pools, the simulator's verify-once
    /// broadcast fan-out — and the [`VerifiedMessage`] token can only be
    /// minted by an [`Authenticator`], so the no-unchecked-input invariant
    /// holds by construction.
    pub fn deliver(
        &mut self,
        verified: &VerifiedMessage,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        self.replica
            .receive(verified.sender(), verified.message(), now, transport)
    }

    /// [`NodeHost::deliver`] for a token the caller owns.
    pub fn handle_verified(
        &mut self,
        verified: VerifiedMessage,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        self.deliver(&verified, now, transport)
    }

    /// Brings the hosted replica back from a crash in the given `mode`; the
    /// restart effects — the immediate state-transfer request and the fresh
    /// view timer — reach the backend's transport like any other step's.
    /// [`RecoverMode::Resume`] restarts nothing: the replica carries on with
    /// the state it crashed with and the report is empty.
    pub fn restart(
        &mut self,
        mode: RecoverMode,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        match mode {
            RecoverMode::Resume => StepReport::default(),
            RecoverMode::Restart(fault) => self.replica.restart(now, fault, transport),
        }
    }

    /// Books a message that failed verification (the simulator verifies each
    /// unique envelope once and fans the verdict out): counts the rejection
    /// at this replica and charges the modeled cost of the verification work
    /// that exposed the forgery, exactly as if the check had run here (a
    /// flood of forgeries is not free to fend off — it consumes the target's
    /// CPU budget, which is exactly how the paper's model would account it).
    pub fn reject_forged(&mut self, message: &Message) -> StepReport {
        self.auth_rejections += 1;
        StepReport {
            cpu: verification_cost(&self.cpu, message),
            committed: Vec::new(),
        }
    }
}

/// The modeled `t_CPU` cost of the verification work that exposes a
/// forgery, mirroring what the replica would have been charged had the
/// message been accepted: proposals use the paper's flat aggregate-check
/// charge (Eq. 4, see `CpuModel::process_proposal` for the rationale),
/// pacemaker certificates are charged per signer. Used for rejected
/// messages only — the replica's own modeled costs cover accepted ones.
fn verification_cost(cpu: &CpuModel, message: &Message) -> SimDuration {
    let signatures = match message {
        Message::Proposal(_) => 2,
        Message::Vote(_) => 1,
        Message::Timeout(tv) => 1 + tv.high_qc.signer_count(),
        Message::TimeoutCertMsg(tc) => tc.signer_count() + tc.high_qc.signer_count(),
        Message::SyncRequest(_) => 1,
        // Per-block id/justify checks plus the aggregate high-QC check — the
        // same work the replica is charged for an accepted response.
        Message::SyncResponse(resp) => 2 * resp.blocks.len() + resp.high_qc.signer_count().max(1),
        // Carries no signature, so it is never forged.
        Message::Handoff(_) => 0,
    };
    cpu.verify(signatures)
}

/// A [`Transport`] that simply records every effect, in order.
///
/// Backends whose delivery timing depends on the *total* CPU cost of the step
/// (the simulator charges outbound messages only once the sender's CPU is
/// free) buffer effects here and map them onto their event queue afterwards.
/// Each message is wrapped into its [`SharedMessage`] envelope exactly once
/// here, so a backend fanning a broadcast out to `n − 1` recipients shares
/// one envelope instead of copying it. Also convenient in tests.
#[derive(Debug, Default)]
pub struct BufferedTransport {
    /// Buffered sends; `None` destination means broadcast.
    pub sends: Vec<(Option<NodeId>, SharedMessage)>,
    /// Buffered timer arms.
    pub timers: Vec<(View, SimTime)>,
    /// Buffered delayed proposals.
    pub proposals: Vec<(View, SimTime)>,
    /// Buffered sync-timer arms.
    pub sync_timers: Vec<SimTime>,
}

impl BufferedTransport {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the buffer, keeping its allocations. Backends that absorb one
    /// event at a time (the simulator) keep a single transport and clear it
    /// between events instead of reallocating.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.proposals.clear();
        self.sync_timers.clear();
    }
}

impl Transport for BufferedTransport {
    fn unicast(&mut self, to: NodeId, message: Message) {
        self.sends.push((Some(to), SharedMessage::new(message)));
    }

    fn broadcast(&mut self, message: Message) {
        self.sends.push((None, SharedMessage::new(message)));
    }

    fn arm_timer(&mut self, view: View, deadline: SimTime) {
        self.timers.push((view, deadline));
    }

    fn schedule_proposal(&mut self, view: View, at: SimTime) {
        self.proposals.push((view, at));
    }

    fn arm_sync_timer(&mut self, deadline: SimTime) {
        self.sync_timers.push(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::Transaction;

    fn config(nodes: usize) -> Config {
        Config::builder()
            .nodes(nodes)
            .block_size(10)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn deadlines_fire_view_timers_before_proposals_before_sync_timers() {
        let mut deadlines = Deadlines::default();
        deadlines.sync_timers.push(SimTime(5));
        deadlines.proposals.push((View(2), SimTime(7)));
        deadlines.timers.push((View(3), SimTime(30)));
        deadlines.timers.push((View(2), SimTime(9)));
        assert_eq!(deadlines.next_deadline(), Some(SimTime(5)));
        assert!(
            deadlines.pop_due(SimTime(4)).is_none(),
            "nothing is due yet"
        );

        let fired: Vec<ReplicaEvent> =
            std::iter::from_fn(|| deadlines.pop_due(SimTime(10))).collect();
        assert!(matches!(
            fired[..],
            [
                ReplicaEvent::TimerFired { view: View(2) },
                ReplicaEvent::ProposeNow { view: View(2) },
                ReplicaEvent::SyncTimer
            ]
        ));
        assert_eq!(deadlines.next_deadline(), Some(SimTime(30)));

        deadlines.proposals.push((View(3), SimTime(40)));
        deadlines.sync_timers.push(SimTime(50));
        deadlines.prune_stale(View(4));
        assert_eq!(
            deadlines.next_deadline(),
            Some(SimTime(50)),
            "pruning drops left views but keeps view-less sync timers"
        );
        deadlines.clear();
        assert_eq!(deadlines.next_deadline(), None);
    }

    #[test]
    fn host_start_routes_timer_into_transport() {
        let mut host = NodeHost::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            config(4),
            ReplicaOptions::default(),
        );
        let mut transport = BufferedTransport::new();
        let report = host.start(SimTime::ZERO, &mut transport);
        assert!(report.cpu.is_zero());
        assert_eq!(transport.timers.len(), 1);
        assert_eq!(transport.timers[0].0, View(1));
        assert!(transport.sends.is_empty(), "non-leader does not propose");
    }

    #[test]
    fn leader_proposal_is_broadcast_through_transport() {
        let mut host = NodeHost::new(
            NodeId(1),
            ProtocolKind::HotStuff,
            config(4),
            ReplicaOptions::default(),
        );
        let requests: Vec<ClientRequest> = (0..5)
            .map(|i| ClientRequest::unsigned(Transaction::new(NodeId(9), i, 8, SimTime::ZERO)))
            .collect();
        let mut transport = BufferedTransport::new();
        host.handle_client_batch(requests, SimTime::ZERO, &mut transport);
        assert!(
            transport.sends.is_empty(),
            "node 1 leads view 1: it hands nothing off"
        );
        // Node 1 leads view 1.
        let report = host.start(SimTime::ZERO, &mut transport);
        assert!(report.cpu > SimDuration::ZERO, "proposing costs CPU");
        assert!(transport
            .sends
            .iter()
            .any(|(to, m)| to.is_none() && matches!(**m, Message::Proposal(_))));
    }

    /// Three requests from one client, the middle one `forged` (signed under
    /// another client's key) if asked.
    fn client_requests(forged: bool) -> Vec<ClientRequest> {
        let client = NodeId(crate::CLIENT_ID_BASE + 3);
        (0..3u64)
            .map(|seq| {
                let signer = if forged && seq == 1 { 4 } else { 3 };
                let key = bamboo_crypto::KeyPair::client_from_seed(crate::CLIENT_ID_BASE + signer);
                ClientRequest::signed(Transaction::new(client, seq, 8, SimTime(1_000)), &key)
            })
            .collect()
    }

    /// A host that has not started (node 3 leads no early view), in signed
    /// or unsigned client mode, and what it charges for the check alone:
    /// admitting transactions into the mempool costs nothing.
    fn edge_host(signed: bool) -> (NodeHost, Authenticator, CpuModel) {
        let mut config = config(4);
        config.signed_requests = signed;
        let host = NodeHost::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            config,
            Default::default(),
        );
        let mut edge = Authenticator::from_keys(Vec::new());
        edge.set_signed_clients(signed);
        let cpu = host.replica().cpu_model();
        (host, edge, cpu)
    }

    #[test]
    fn verify_requests_admits_an_honest_batch_in_one_batched_pass() {
        let (mut host, edge, cpu) = edge_host(true);
        let verified = edge.verify_requests(client_requests(false));
        assert!(verified.signed());
        assert_eq!((verified.transactions().len(), verified.rejected()), (3, 0));
        let report = host.admit(verified, SimTime::ZERO, &mut BufferedTransport::new());
        assert_eq!(report.cpu, cpu.verify_batch(3));
        assert_eq!(host.replica().mempool_len(), 3);
        assert_eq!(host.client_auth_rejections(), 0);
    }

    #[test]
    fn verify_requests_isolates_one_forgery_of_three_and_both_passes_are_charged() {
        let (mut host, edge, cpu) = edge_host(true);
        let verified = edge.verify_requests(client_requests(true));
        assert!(verified.signed());
        assert_eq!((verified.offered(), verified.rejected()), (3, 1));
        let seqs: Vec<u64> = verified.transactions().iter().map(|tx| tx.id.seq).collect();
        assert_eq!(seqs, [0, 2], "the honest requests survive, in order");
        let report = host.admit(verified, SimTime::ZERO, &mut BufferedTransport::new());
        assert_eq!(report.cpu, cpu.verify_batch(3) + cpu.verify(3));
        assert_eq!(host.replica().mempool_len(), 2);
        assert_eq!(host.client_auth_rejections(), 1);
        // The all-in-one path charges and counts the same.
        let (mut inline, _, _) = edge_host(true);
        let direct = inline.handle_client_batch(
            client_requests(true),
            SimTime(2_000),
            &mut BufferedTransport::new(),
        );
        assert_eq!(direct.cpu, report.cpu);
        assert_eq!(inline.client_auth_rejections(), 1);
    }

    #[test]
    fn verify_requests_in_unsigned_mode_passes_everything_for_free() {
        let (mut host, edge, _) = edge_host(false);
        let verified = edge.verify_requests(client_requests(true));
        assert!(!verified.signed());
        assert_eq!((verified.transactions().len(), verified.rejected()), (3, 0));
        let report = host.admit(verified, SimTime::ZERO, &mut BufferedTransport::new());
        assert!(report.cpu.is_zero());
        assert_eq!(host.replica().mempool_len(), 3);
        assert_eq!(host.client_auth_rejections(), 0);
    }

    #[test]
    fn timer_fired_event_produces_timeout_broadcast() {
        let mut host = NodeHost::new(
            NodeId(2),
            ProtocolKind::HotStuff,
            config(4),
            ReplicaOptions::default(),
        );
        let mut transport = BufferedTransport::new();
        host.start(SimTime::ZERO, &mut transport);
        let report = host.handle(
            ReplicaEvent::TimerFired { view: View(1) },
            SimTime(200_000_000),
            &mut transport,
        );
        assert!(report.committed.is_empty());
        assert!(transport
            .sends
            .iter()
            .any(|(to, m)| to.is_none() && matches!(**m, Message::Timeout(_))));
    }
}
