//! The shared runtime spine of every deployment mode.
//!
//! A [`crate::Replica`] is a pure state machine: it consumes verified
//! messages, admitted transactions and [`ReplicaEvent`]s (local deadlines),
//! and writes each effect — a message to send, a timer to arm, a delayed
//! proposal to schedule — into the [`BufferedTransport`] its host hands it,
//! the moment it decides on it. The buffer is the one effect sink, on either
//! clock; what differs between the deterministic simulator and the live
//! backends is only how a step's buffered effects are realised, and every
//! host step ends through the same epilogue:
//!
//! * the sends go through `BufferedTransport::tally_sends`, which hands
//!   each to the backend's delivery code in emission order — the simulator
//!   maps it onto its discrete-event queue with modelled latency, NIC and
//!   CPU delays, the live driver in [`crate::live`] onto the backend's
//!   [`crate::live::Link`] — and counts them the one way every report does;
//! * the deadlines go into the replica's one book, `Deadlines`, whose
//!   `absorb` also prunes it to the replica's view; the simulator fires it
//!   through one wake-up per replica, the live driver against the wall
//!   clock.
//!
//! The [`NodeHost`] is the common driver: it owns the replica, feeds inputs
//! and the backend's buffer into it, and hands the backend the step's
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
    ids::quorum_threshold, wire, Authenticator, ClientRequest, Config, Message, NodeId,
    ProtocolKind, SharedBlock, SharedMessage, SimDuration, SimTime, VerifiedMessage,
    VerifiedRequests, View,
};

use crate::replica::{Replica, ReplicaOptions};
use crate::storage::StorageFault;

/// The local deadlines a replica consumes: the effects it armed in its
/// [`BufferedTransport`] coming due. Messages and client transactions are not events;
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

/// One replica's armed deadlines, as absolute times on the node's clock, and
/// the view the book was last pruned to.
#[derive(Default)]
pub(crate) struct Deadlines {
    pub timers: Vec<(View, SimTime)>,
    pub proposals: Vec<(View, SimTime)>,
    pub sync_timers: Vec<SimTime>,
    view: View,
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

    /// Drops every armed deadline.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Ends a step on the book: takes the deadlines the step armed, then
    /// drops the timers and proposals of views before `view` — the replica's
    /// view after the step — so the book stays bounded over long runs (sync
    /// timers are view-less and consume themselves on firing). A step that
    /// armed nothing in the view the book was last pruned to would change
    /// nothing, and is skipped. Returns whether the book took the step.
    pub fn absorb(&mut self, effects: &mut BufferedTransport, view: View) -> bool {
        let armed = effects.timers.len() + effects.proposals.len() + effects.sync_timers.len();
        if armed == 0 && view == self.view {
            return false;
        }
        self.timers.append(&mut effects.timers);
        self.proposals.append(&mut effects.proposals);
        self.sync_timers.append(&mut effects.sync_timers);
        self.timers.retain(|&(armed, _)| armed >= view);
        self.proposals.retain(|&(armed, _)| armed >= view);
        self.view = view;
        true
    }
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
/// host's [`BufferedTransport`].
#[derive(Debug, Default)]
pub struct StepReport {
    /// CPU time the replica consumed handling the event.
    pub cpu: SimDuration,
    /// Blocks that became committed during the step (oldest first), as
    /// shared handles into the replica's forest/ledger storage.
    pub committed: Vec<SharedBlock>,
    /// The bill when the step's last commit record was written — after its
    /// log write, before any checkpoint it cut and the vote that follows —
    /// so the simulator confirms the commits at `start + commit_mark`, not
    /// at the step's end. Zero when the step committed nothing.
    pub commit_mark: SimDuration,
}

/// One step in progress: the instant it runs at, the effect buffer the host
/// handed in, and the account the host gets back. Every replica handler takes
/// one, so an effect has exactly one spelling — a [`BufferedTransport`] call,
/// or, for a send, a call here, which stamps it with the bill so far.
pub(crate) struct Step<'a> {
    pub now: SimTime,
    pub transport: &'a mut BufferedTransport,
    /// What the replica's work costs; `cpu` is the bill so far.
    pub model: CpuModel,
    pub cpu: SimDuration,
    pub committed: Vec<SharedBlock>,
    /// The bill when the last commit record was written
    /// ([`StepReport::commit_mark`]).
    pub commit_mark: SimDuration,
}

impl<'a> Step<'a> {
    pub fn new(now: SimTime, transport: &'a mut BufferedTransport, model: CpuModel) -> Self {
        Self {
            now,
            transport,
            model,
            cpu: SimDuration::ZERO,
            committed: Vec::new(),
            commit_mark: SimDuration::ZERO,
        }
    }

    /// Sends `message` to a single replica once the CPU has done the work
    /// billed so far.
    pub fn unicast(&mut self, to: NodeId, message: Message) {
        self.transport.send(Some(to), message, self.cpu);
    }

    /// Sends `message` to every replica except the sender once the CPU has
    /// done the work billed so far.
    pub fn broadcast(&mut self, message: Message) {
        self.transport.send(None, message, self.cpu);
    }

    pub fn finish(self) -> StepReport {
        StepReport {
            cpu: self.cpu,
            committed: self.committed,
            commit_mark: self.commit_mark,
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
    /// Admission steps ([`NodeHost::admit`] calls), and the client requests
    /// they took.
    admissions: u64,
    admitted_requests: u64,
    /// Per validator, whether a vote forged in its name was caught here.
    caught: Vec<bool>,
}

impl NodeHost {
    /// Creates a host for a fresh replica.
    pub fn new(
        id: NodeId,
        protocol: ProtocolKind,
        config: Config,
        options: ReplicaOptions,
    ) -> Self {
        let mut authenticator = Authenticator::for_nodes(config.nodes);
        authenticator.set_signed_clients(config.signed_requests);
        let caught = vec![false; config.nodes];
        let replica = Replica::new(id, protocol, config, options);
        // Rejected messages are priced on the replica's own `t_CPU` (a
        // heterogeneous-CPU seat's included).
        let cpu = replica.cpu_model();
        Self {
            replica,
            authenticator,
            cpu,
            auth_rejections: 0,
            client_auth_rejections: 0,
            admissions: 0,
            admitted_requests: 0,
            caught,
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

    /// Admission steps so far, one per [`NodeHost::admit`] call, and the
    /// client requests they took ([`VerifiedRequests::offered`]: a request
    /// the edge rejected counts).
    pub fn admissions(&self) -> (u64, u64) {
        (self.admissions, self.admitted_requests)
    }

    /// Boots the replica: arms the first view timer and, if it leads the
    /// first view, proposes.
    pub fn start(&mut self, now: SimTime, transport: &mut BufferedTransport) -> StepReport {
        self.replica.start(now, transport)
    }

    /// Fires one local deadline at the replica.
    pub fn handle(
        &mut self,
        event: ReplicaEvent,
        now: SimTime,
        transport: &mut BufferedTransport,
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
        transport: &mut BufferedTransport,
    ) -> StepReport {
        let verified = self.authenticator.verify_requests(requests);
        self.admit(verified, now, transport)
    }

    /// Admits a client batch that passed the edge check — here or on another
    /// thread, the simulator's client producer — into the replica's mempool.
    ///
    /// The step is charged the check as if it had run at this replica's own
    /// busy server: in signed-client mode one batched pass
    /// ([`CpuModel::verify_batch`]), plus a second, sequential pass
    /// ([`CpuModel::verify`]) when the check dropped a request — the model
    /// of an all-or-nothing batch check that falls back to checking every
    /// request on its own. The requests the check dropped are
    /// counted in [`NodeHost::client_auth_rejections`]. Admitting costs
    /// nothing beyond the check. It writes at most one effect: a
    /// [`Message::Handoff`] copy of the admitted batch to the leader of the
    /// view `handoff::target` names — the one this replica's next vote helps
    /// wake, or the next view when synchronous epochs pace the protocol —
    /// when this replica leads none of the views up to it. The target is read
    /// off the replica's view and vote, not the clock; the copy leaves once
    /// the check is done.
    pub fn admit(
        &mut self,
        requests: VerifiedRequests,
        now: SimTime,
        transport: &mut BufferedTransport,
    ) -> StepReport {
        let mut out = Step::new(now, transport, self.cpu);
        if requests.signed() {
            out.cpu += self.cpu.verify_batch(requests.offered());
            if requests.rejected() > 0 {
                out.cpu += self.cpu.verify(requests.offered());
            }
        }
        self.client_auth_rejections += requests.rejected() as u64;
        self.admissions += 1;
        self.admitted_requests += requests.offered() as u64;
        self.replica.admit(requests.into_transactions(), &mut out);
        out.finish()
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
        transport: &mut BufferedTransport,
    ) -> StepReport {
        self.replica
            .receive(verified.sender(), verified.message(), now, transport)
    }

    /// [`NodeHost::deliver`] for a token the caller owns.
    pub fn handle_verified(
        &mut self,
        verified: VerifiedMessage,
        now: SimTime,
        transport: &mut BufferedTransport,
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
        transport: &mut BufferedTransport,
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
    ///
    /// A quorum's votes are checked in passes of up to four as they
    /// arrive, so the first vote forged in a validator's name fails a pass and pays its
    /// fallback, one check per vote of the pass — `min(4, q)` of them; the
    /// optimistic verifier then checks that validator's votes one at a
    /// time, and each later forgery pays one.
    pub fn reject_forged(&mut self, message: &Message) -> StepReport {
        self.auth_rejections += 1;
        let first = match message {
            Message::Vote(vote) => (self.caught.get_mut(vote.voter.index()))
                .is_some_and(|caught| !std::mem::replace(caught, true)),
            _ => false,
        };
        let cpu = if first {
            self.cpu
                .verify(CpuModel::PASS.min(quorum_threshold(self.caught.len())))
        } else {
            verification_cost(&self.cpu, message)
        };
        StepReport {
            cpu,
            ..StepReport::default()
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
        // A vote in the name of a validator already caught forging, checked
        // on its own (`NodeHost::reject_forged` prices the first).
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

/// The one effect sink: every effect a replica decides on, recorded in
/// order, on either clock.
///
/// A host realises the effects once the step is done. Each send carries its
/// *mark*: the step's CPU bill when the replica buffered it, so the
/// simulator puts it on the wire the moment the sender's CPU reaches it
/// (`start + mark`), not at the step's end; the live backends send at once.
/// `deadline`/`at` are absolute times on the backend's clock — simulated
/// time for the simulator, nanoseconds since the seat's epoch
/// (`SeatBoot::epoch`) for the live backends. Each message is wrapped into
/// its [`SharedMessage`] envelope exactly once here, so a backend fanning a
/// broadcast out to `n − 1` recipients shares one envelope instead of
/// copying it.
#[derive(Debug, Default)]
pub struct BufferedTransport {
    /// Buffered sends; `None` destination means broadcast.
    pub sends: Vec<(Option<NodeId>, SharedMessage)>,
    /// Each buffered send's mark, in the same order.
    marks: Vec<SimDuration>,
    /// Buffered timer arms.
    pub timers: Vec<(View, SimTime)>,
    /// Buffered delayed proposals.
    pub proposals: Vec<(View, SimTime)>,
    /// Buffered sync-timer arms.
    pub sync_timers: Vec<SimTime>,
}

/// What a step put on the wire, as every report books it.
#[derive(Debug, Default)]
pub(crate) struct SendTally {
    /// Messages, one per recipient (a recipient behind a dropped link
    /// included): a broadcast counts `n − 1`, a unicast one.
    pub messages: u64,
    /// Their bytes, each message's encoded length once per recipient.
    pub bytes: u64,
    /// The last proposal the step sent, a relay included, and the instant
    /// it left.
    pub proposed: Option<(SharedBlock, SimTime)>,
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
        self.marks.clear();
        self.timers.clear();
        self.proposals.clear();
        self.sync_timers.clear();
    }

    /// Buffers `message` for `to` (`None`: every replica but the sender),
    /// to leave once the step's CPU has done `mark` of work ([`Step::unicast`]
    /// and [`Step::broadcast`] stamp the bill so far).
    pub(crate) fn send(&mut self, to: Option<NodeId>, message: Message, mark: SimDuration) {
        // A host that drains `sends` itself leaves their marks behind.
        self.marks.truncate(self.sends.len());
        self.sends.push((to, SharedMessage::new(message)));
        self.marks.push(mark);
    }

    /// Arm a view timer that must fire at `deadline` unless the view has
    /// advanced past `view` by then.
    pub fn arm_timer(&mut self, view: View, deadline: SimTime) {
        self.timers.push((view, deadline));
    }

    /// Schedule a delayed proposal slot for `view` at time `at` (used by the
    /// non-responsive wait-for-timeout deployment of Fig. 15).
    pub fn schedule_proposal(&mut self, view: View, at: SimTime) {
        self.proposals.push((view, at));
    }

    /// Arm a sync timer (state-transfer debounce/retry) for `deadline`.
    /// Unlike view timers these carry no view: the replica decides on firing
    /// whether anything is still missing.
    pub fn arm_sync_timer(&mut self, deadline: SimTime) {
        self.sync_timers.push(deadline);
    }

    /// Drains the step's sends in emission order into the backend's
    /// delivery code, `send(to, message, encoded_len, mark)` (`to` is `None`
    /// for a broadcast), which returns the instant the message left, and
    /// tallies them for a cluster of `nodes` replicas.
    pub(crate) fn tally_sends(
        &mut self,
        nodes: usize,
        mut send: impl FnMut(Option<NodeId>, SharedMessage, usize, SimDuration) -> SimTime,
    ) -> SendTally {
        let mut tally = SendTally::default();
        for ((to, message), mark) in self.sends.drain(..).zip(self.marks.drain(..)) {
            let bytes = wire::encoded_len(&message);
            let recipients = to.map_or(nodes as u64 - 1, |_| 1);
            tally.messages += recipients;
            tally.bytes += recipients * bytes as u64;
            let block = match &*message {
                Message::Proposal(block) => Some(block.clone()),
                _ => None,
            };
            let sent = send(to, message, bytes, mark);
            if let Some(block) = block {
                tally.proposed = Some((block, sent));
            }
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::{Block, BlockId, Height, QuorumCert, Transaction};

    fn config(nodes: usize) -> Config {
        Config {
            nodes,
            block_size: 10,
            seed: 1,
            ..Config::default()
        }
    }

    #[test]
    fn deadlines_fire_view_timers_before_proposals_before_sync_timers() {
        let (mut deadlines, mut step) = (Deadlines::default(), BufferedTransport::new());
        step.arm_sync_timer(SimTime(5));
        step.schedule_proposal(View(2), SimTime(7));
        step.arm_timer(View(3), SimTime(30));
        step.arm_timer(View(2), SimTime(9));
        assert!(deadlines.absorb(&mut step, View(2)));
        let left = step.timers.len() + step.proposals.len() + step.sync_timers.len();
        assert_eq!(left, 0, "the book takes every deadline the step armed");
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

        step.schedule_proposal(View(3), SimTime(40));
        step.arm_sync_timer(SimTime(50));
        assert!(deadlines.absorb(&mut step, View(3)));
        // A timer of a view the replica has left, planted by hand: a step
        // that arms nothing in the view the book was pruned to neither takes
        // nor prunes, so it stays.
        deadlines.timers.push((View(2), SimTime(20)));
        assert!(!deadlines.absorb(&mut BufferedTransport::new(), View(3)));
        assert_eq!(
            deadlines.timers,
            [(View(3), SimTime(30)), (View(2), SimTime(20))]
        );
        assert_eq!(deadlines.proposals, [(View(3), SimTime(40))]);
        assert_eq!(deadlines.sync_timers, [SimTime(50)]);

        assert!(deadlines.absorb(&mut BufferedTransport::new(), View(4)));
        assert_eq!(
            deadlines.next_deadline(),
            Some(SimTime(50)),
            "a view change drops left views but keeps view-less sync timers"
        );
        deadlines.clear();
        assert_eq!(deadlines.next_deadline(), None);
    }

    #[test]
    fn the_tally_counts_each_recipient_and_keeps_the_last_proposal() {
        let block = |proposer| {
            let (parent, qc) = (BlockId::GENESIS, QuorumCert::genesis());
            let block = Block::new(View(1), Height(1), parent, NodeId(proposer), qc, Vec::new());
            Message::Proposal(SharedBlock::new(block))
        };
        let (own, relayed) = (block(1), block(2));
        let key = bamboo_crypto::KeyPair::from_seed(2);
        let vote = Message::Vote(bamboo_types::Vote::new(
            BlockId::GENESIS,
            View(1),
            NodeId(1),
            &key,
        ));
        // Node 1 of four: its own proposal to every peer, another
        // proposer's to itself (a relay), a vote to node 2, each after 10 µs
        // more work.
        let mut out = BufferedTransport::new();
        let mut step = Step::new(SimTime(5), &mut out, CpuModel::new(SimDuration::ZERO));
        let us = SimDuration::from_micros;
        step.cpu = us(10);
        step.broadcast(own.clone());
        step.cpu = us(20);
        step.unicast(NodeId(1), relayed.clone());
        step.cpu = us(30);
        step.unicast(NodeId(2), vote.clone());
        assert_eq!(step.finish().cpu, us(30));
        let mut seen = Vec::new();
        let tally = out.tally_sends(4, |to, message, bytes, mark| {
            seen.push((to, Message::clone(&message), bytes, mark));
            SimTime(5) + mark
        });
        let len = |message: &Message| wire::encoded_len(message);
        let expected = [
            (None, own.clone(), len(&own), us(10)),
            (Some(NodeId(1)), relayed.clone(), len(&relayed), us(20)),
            (Some(NodeId(2)), vote.clone(), len(&vote), us(30)),
        ];
        assert_eq!(
            seen, expected,
            "every send, in emission order, with its mark"
        );
        assert!(out.sends.is_empty());
        assert_eq!(tally.messages, 3 + 1 + 1);
        let bytes = 3 * len(&own) + len(&relayed) + len(&vote);
        assert_eq!(tally.bytes, bytes as u64);
        let Message::Proposal(last) = &relayed else {
            unreachable!()
        };
        assert_eq!(tally.proposed, Some((last.clone(), SimTime(5) + us(20))));
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
        assert_eq!(host.replica().mempool_stats().pending, 3);
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
        assert_eq!(host.replica().mempool_stats().pending, 2);
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
        assert_eq!(host.replica().mempool_stats().pending, 3);
        assert_eq!(host.client_auth_rejections(), 0);
    }

    fn forged(voter: u64) -> Message {
        let key = bamboo_crypto::KeyPair::from_seed(voter + 1);
        let block = bamboo_types::BlockId(bamboo_crypto::Digest::of(b"forged"));
        Message::Vote(bamboo_types::Vote::new(block, View(2), NodeId(voter), &key))
    }

    #[test]
    fn a_voters_first_forged_vote_fails_a_pass_and_later_ones_cost_one_check() {
        let (mut host, _, cpu) = edge_host(false);
        let mut charged = |voter: u64| host.reject_forged(&forged(voter)).cpu;
        // n = 4: a quorum is three votes, all in its one pass.
        assert_eq!(charged(0), cpu.verify(3));
        assert_eq!(charged(0), cpu.verify(1));
        assert_eq!(charged(1), cpu.verify(3));
        assert_eq!(charged(0), cpu.verify(1));
        assert_eq!(charged(1), cpu.verify(1));
        // A name outside the validator set has no batch to fail.
        assert_eq!(charged(64), cpu.verify(1));
        assert_eq!(host.auth_rejections(), 6);
        // n = 32: a quorum is 22 votes, but a pass checks four.
        let mut host = NodeHost::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            config(32),
            Default::default(),
        );
        assert_eq!(host.reject_forged(&forged(5)).cpu, cpu.verify(4));
        assert_eq!(host.reject_forged(&forged(5)).cpu, cpu.verify(1));
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
