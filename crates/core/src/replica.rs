//! The replica node: Bamboo's `Replica` assembled from the shared modules.
//!
//! A [`Replica`] is a pure state machine. It consumes [`ReplicaEvent`]s
//! (delivered messages, timer expirations, client requests) and returns a
//! [`HandleResult`] describing what should happen next: messages to send,
//! timers to arm, CPU time consumed, and blocks that became committed. All
//! time, networking and randomness live in the runner, which is what makes the
//! same replica code usable both on the deterministic simulator and on the
//! threaded runtime.

use bamboo_crypto::{DigestMap, KeyPair};
use bamboo_forest::{
    chunks, decode_committed_record, decode_qc_record, encode_committed_record, encode_qc_record,
    BlockForest, ForestError, Ledger, Snapshot,
};
use bamboo_mempool::{Mempool, MempoolStats};
use bamboo_pacemaker::{LeaderElection, Pacemaker, PacemakerAction};
use bamboo_protocols::{make_protocol, Attack, ProposalInput, Safety, VoteDestination};
use bamboo_sim::CpuModel;
use bamboo_types::{
    BlockId, Bytes, Config, Height, Message, NodeId, ProtocolKind, QuorumCert, SharedBlock,
    SimDuration, SimTime, SyncRequest, SyncResponse, TimeoutCert, Transaction, View, Vote,
};

use crate::quorum::QuorumTracker;
use crate::storage::{self, RecordKind, ReplayResult, SegmentLog, StorageFault};

/// Where an outbound message should be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Destination {
    /// A single replica.
    Node(NodeId),
    /// Every replica except the sender.
    AllReplicas,
}

/// An outbound message produced by a replica.
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Where to send it.
    pub to: Destination,
    /// The message.
    pub message: Message,
}

/// Events consumed by a replica.
#[derive(Clone, Debug)]
pub enum ReplicaEvent {
    /// A message delivered by the network.
    Message {
        /// The sending node.
        from: NodeId,
        /// The delivered message.
        message: Message,
    },
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
    /// A batch of client transactions arrived at this replica.
    ClientRequests(Vec<Transaction>),
    /// A previously armed sync timer fired (gap-detection debounce or a
    /// retry deadline for an outstanding state-transfer request).
    SyncTimer,
}

/// Everything a replica wants done after handling one event.
#[derive(Debug, Default)]
pub struct HandleResult {
    /// Messages to put on the network.
    pub outbound: Vec<Outbound>,
    /// View timers to arm: `(view, absolute deadline)`.
    pub timers: Vec<(View, SimTime)>,
    /// Delayed proposals to schedule: `(view, absolute time)`.
    pub delayed_proposals: Vec<(View, SimTime)>,
    /// Sync timers to arm (absolute deadlines). Distinct from view timers:
    /// firing one must never trigger view-change logic.
    pub sync_timers: Vec<SimTime>,
    /// CPU time consumed handling the event.
    pub cpu: SimDuration,
    /// Blocks that became committed while handling the event (oldest first).
    /// Shared handles — the payload lives once, in the forest/ledger.
    pub committed: Vec<SharedBlock>,
}

impl HandleResult {
    fn send(&mut self, to: Destination, message: Message) {
        self.outbound.push(Outbound { to, message });
    }
}

/// Per-replica behavioural options that are not part of the shared [`Config`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaOptions {
    /// After a timeout-driven view change, wait for the view timeout before
    /// proposing instead of proposing as soon as the TC arrives. This models
    /// the non-responsive deployment of Fig. 15 ("t100" setting).
    pub wait_for_timeout_on_view_change: bool,
    /// From this simulated time on, the replica withholds every proposal (used
    /// to crash a node mid-run in the responsiveness experiment).
    pub silence_from: Option<SimTime>,
    /// Overrides the shared `t_CPU` (`Config::cpu_delay`) for this replica —
    /// the scenario engine's heterogeneous-CPU knob: a cluster can mix fast
    /// and slow machines while every node still shares one [`Config`].
    pub cpu_delay_override: Option<SimDuration>,
    /// Model synchronous epochs faithfully for epoch-based protocols
    /// (Streamlet): a leader entering an epoch proposes only half a view
    /// timeout after entry (the epoch length `2Δ̂`, with the timeout playing
    /// `4Δ̂`), instead of as soon as the previous epoch certifies. Off by
    /// default — the responsive approximation the rest of the benchmarks
    /// use; WAN scenarios switch it on to expose the synchrony cost of
    /// heterogeneous delays.
    pub synchronous_epochs: bool,
}

/// Maximum number of ledger blocks shipped in one [`SyncResponse`]. A lagging
/// replica that is further behind than this converges over several
/// request/response rounds rather than in one unboundedly large message.
const SYNC_BATCH: usize = 256;

/// Cap on the snapshot part of one [`SyncResponse`], counted in whole
/// checkpoint chunks (at least one is always sent): far below the transport's
/// 64 MiB frame cap, and the requester re-requests the rest.
const SYNC_SNAPSHOT_BYTES: usize = 8 << 20;

/// Counters and timestamps describing checkpointing and state transfer on one
/// replica. Exposed to the runners so crash-recovery experiments can report
/// how long catch-up took and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints taken by this replica.
    pub checkpoints_taken: u64,
    /// Total checkpoint chunk bytes this replica encoded and stored.
    pub checkpoint_bytes_written: u64,
    /// The largest single checkpoint chunk — flat in the ledger length
    /// unless the replica had to re-base.
    pub checkpoint_max_write_bytes: u64,
    /// Sync requests this replica sent while catching up.
    pub sync_requests_sent: u64,
    /// Sync responses this replica served to lagging peers.
    pub sync_responses_served: u64,
    /// Total wire bytes of sync responses this replica received.
    pub sync_bytes_received: u64,
    /// Snapshots installed wholesale (replacing local forest + ledger).
    pub snapshots_installed: u64,
    /// Blocks received through state transfer (excludes snapshot contents).
    pub blocks_synced: u64,
    /// When this replica last restarted with amnesia, if ever.
    pub restarted_at: Option<SimTime>,
    /// When the last catch-up episode finished (orphan-free after a sync
    /// install). Cleared whenever a new episode begins, so after the run it
    /// marks the end of the final episode.
    pub caught_up_at: Option<SimTime>,
    /// Durable restarts this replica performed (replaying its own log).
    pub durable_restarts: u64,
    /// Log records successfully replayed across durable restarts.
    pub records_replayed: u64,
    /// Log records discarded as corrupt (torn, CRC-failed, or off the
    /// recovered chain) across durable restarts.
    pub corrupt_records_discarded: u64,
    /// Modeled time spent replaying the durable log, in nanoseconds (an
    /// integer so the stats stay `Eq` and fingerprint-comparable).
    pub log_replay_nanos: u64,
}

/// A Bamboo replica.
pub struct Replica {
    id: NodeId,
    protocol: ProtocolKind,
    config: Config,
    options: ReplicaOptions,
    keypair: KeyPair,
    election: LeaderElection,
    forest: BlockForest,
    mempool: Mempool,
    pacemaker: Pacemaker,
    /// The honest protocol rules — every replica runs them, attackers too.
    safety: Box<dyn Safety>,
    /// What a Byzantine replica does instead on the two surfaces an attacker
    /// controls: the proposal it makes and the votes it puts on the wire
    /// (DESIGN.md §2.4). The identity for honest replicas.
    attack: Attack,
    quorum: QuorumTracker,
    ledger: Ledger,
    cpu: CpuModel,
    /// Last view in which this replica proposed (guards double proposing).
    proposed_in_view: View,
    /// QCs whose block has not arrived yet.
    pending_qcs: DigestMap<BlockId, QuorumCert>,
    /// A leader's proposal waiting for the block of a pending QC: entering a
    /// view off votes alone (they can outrun the proposal broadcast on slow
    /// or heterogeneous links) must not fork from a stale high-QC.
    deferred_proposal: Option<View>,
    /// Conflicting-commit events observed (must stay zero in a correct run).
    safety_violations: u64,
    /// The checkpoint chunks of a replica *without* a durable log — the only
    /// state that survives an amnesia restart (it models the disk image).
    /// With a log mounted this stays empty: the backend holds the one copy.
    checkpoint_chunks: Vec<Bytes>,
    /// Committed ledger length the stored chunks cover; the next checkpoint
    /// encodes the entries above it. Zero means the next one re-bases.
    checkpoint_height: u64,
    /// True while this replica is actively state-transferring. A syncing
    /// replica neither votes nor proposes: it cannot evaluate the safety
    /// rules against a chain it does not yet have.
    syncing: bool,
    /// Whether a sync timer (debounce or retry) is currently armed; keeps the
    /// timer traffic to at most one outstanding deadline.
    sync_timer_armed: bool,
    /// Consecutive sync attempts in the current episode (drives backoff and
    /// deterministic peer rotation).
    sync_attempts: u64,
    /// Recovery bookkeeping for the metrics layer.
    recovery: RecoveryStats,
    /// The durable segment log (`Config::durable_log`). The simulator runs
    /// it over the deterministic in-memory backend; the threaded cluster
    /// swaps in real temp-dir files via [`Replica::set_storage`].
    storage: Option<SegmentLog>,
    /// The vote watermark restored by the last durable restart — the bound
    /// the no-double-vote assertion checks every later vote against.
    restored_voted_view: Option<View>,
}

impl Replica {
    /// Creates a replica. Byzantine behaviour is selected from the config: if
    /// `config.is_byzantine(id)` the configured strategy attacks beside the
    /// protocol.
    pub fn new(
        id: NodeId,
        protocol: ProtocolKind,
        config: Config,
        options: ReplicaOptions,
    ) -> Self {
        let strategy = if config.is_byzantine(id) {
            config.byzantine_strategy
        } else {
            bamboo_types::ByzantineStrategy::Honest
        };
        let election = LeaderElection::new(config.nodes, config.leader_policy);
        let cpu_delay = options.cpu_delay_override.unwrap_or(config.cpu_delay);
        let cpu = CpuModel::new(cpu_delay).with_per_tx(SimDuration::from_nanos(400));
        let storage = config
            .durable_log
            .then(|| SegmentLog::in_memory(config.segment_bytes, config.fsync_interval));
        Self {
            id,
            protocol,
            keypair: KeyPair::from_seed(id.as_u64()),
            election,
            forest: BlockForest::new(),
            mempool: Mempool::with_shards(config.mempool_size, config.mempool_shards),
            pacemaker: Pacemaker::new(id, config.nodes, config.timeout),
            safety: make_protocol(protocol),
            attack: Attack::new(strategy, config.nodes),
            quorum: QuorumTracker::new(config.nodes),
            ledger: Ledger::new(),
            cpu,
            proposed_in_view: View::GENESIS,
            pending_qcs: DigestMap::default(),
            deferred_proposal: None,
            safety_violations: 0,
            checkpoint_chunks: Vec::new(),
            checkpoint_height: 0,
            syncing: false,
            sync_timer_armed: false,
            sync_attempts: 0,
            recovery: RecoveryStats::default(),
            storage,
            restored_voted_view: None,
            config,
            options,
        }
    }

    /// The replica's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration the replica was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The CPU cost model this replica charges its work against (the shared
    /// `t_CPU` unless [`ReplicaOptions::cpu_delay_override`] replaced it).
    pub fn cpu_model(&self) -> CpuModel {
        self.cpu
    }

    /// The replica's current view.
    pub fn current_view(&self) -> View {
        self.pacemaker.current_view()
    }

    /// The committed ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The block forest (exposed for metrics and tests).
    pub fn forest(&self) -> &BlockForest {
        &self.forest
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Mempool admission/flow counters (accepted, rejected, requeued,
    /// dispatched, pending) — the run report folds these across replicas so
    /// admission-control backpressure is never silent.
    pub fn mempool_stats(&self) -> MempoolStats {
        self.mempool.stats()
    }

    /// Number of timeout-driven view changes so far.
    pub fn timeout_view_changes(&self) -> u64 {
        self.pacemaker.timeout_view_changes()
    }

    /// Number of conflicting-commit events observed (0 in a correct run).
    pub fn safety_violations(&self) -> u64 {
        self.safety_violations
    }

    /// Changes the pacemaker timeout at run time.
    pub fn set_timeout(&mut self, timeout: SimDuration) {
        self.pacemaker.set_timeout(timeout);
    }

    /// Whether the protocol run by this replica is optimistically responsive.
    pub fn is_responsive(&self) -> bool {
        self.safety.is_responsive()
    }

    /// Checkpoint and state-transfer counters for the metrics layer.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Replaces the durable storage backend. The threaded cluster points
    /// replicas at real temp-dir files with this; under `Config::durable_log`
    /// the default is the deterministic in-memory backend.
    pub fn set_storage(&mut self, storage: SegmentLog) {
        self.storage = Some(storage);
    }

    /// The durable segment log, when one is attached.
    pub fn storage(&self) -> Option<&SegmentLog> {
        self.storage.as_ref()
    }

    /// The vote watermark restored by the last durable restart, if any —
    /// every vote after recovery must be strictly above it.
    pub fn restored_voted_view(&self) -> Option<View> {
        self.restored_voted_view
    }

    /// Starts the replica: arms the first view timer and, if it leads view 1,
    /// proposes the first block.
    pub fn start(&mut self, now: SimTime) -> HandleResult {
        let mut out = HandleResult::default();
        self.apply_pacemaker_action(self.pacemaker.arm_timer(now), now, &mut out);
        if self.election.is_leader(self.id, self.current_view()) {
            self.do_propose(self.current_view(), now, &mut out);
        }
        out
    }

    /// Handles one event.
    pub fn handle(&mut self, event: ReplicaEvent, now: SimTime) -> HandleResult {
        let mut out = HandleResult::default();
        match event {
            ReplicaEvent::ClientRequests(txs) => {
                self.mempool.push_batch(txs);
            }
            ReplicaEvent::TimerFired { view } => {
                let actions =
                    self.pacemaker
                        .on_timer(view, self.forest.high_qc().clone(), &self.keypair);
                out.cpu += self.cpu.sign();
                for action in actions {
                    self.apply_pacemaker_action(action, now, &mut out);
                }
            }
            ReplicaEvent::ProposeNow { view } => {
                if view == self.current_view() && self.proposed_in_view < view {
                    if self.high_qc_is_pending() {
                        // The block behind our newest QC is still in flight —
                        // the same stale-parent fork the QC-driven path
                        // defers on can reach a paced (epoch/timeout-waited)
                        // proposal slot too. Wait for the block instead.
                        self.deferred_proposal = Some(view);
                    } else {
                        self.do_propose(view, now, &mut out);
                    }
                }
            }
            ReplicaEvent::Message { from: _, message } => match message {
                Message::Proposal(block) => self.on_proposal(block, false, now, &mut out),
                Message::ProposalEcho(block) => self.on_proposal(block, true, now, &mut out),
                Message::Vote(vote) => self.on_vote(vote, false, now, &mut out),
                Message::VoteEcho(vote) => self.on_vote(vote, true, now, &mut out),
                Message::Timeout(tv) => {
                    // One signature for the timeout vote itself plus one per
                    // signer of the embedded high-QC: the ingress stage really
                    // checks both, and the paper's cost model charges `t_CPU`
                    // per signature verified.
                    out.cpu += self.cpu.verify(1 + tv.high_qc.signer_count());
                    self.register_qc(tv.high_qc.clone(), now, &mut out);
                    let actions = self.pacemaker.on_timeout_vote(tv, now);
                    for action in actions {
                        self.apply_pacemaker_action(action, now, &mut out);
                    }
                }
                Message::TimeoutCertMsg(tc) => {
                    // Per-signer cost for the TC aggregate plus the embedded
                    // high-QC it carries, mirroring the real ingress checks.
                    out.cpu += self
                        .cpu
                        .verify(tc.signer_count() + tc.high_qc.signer_count());
                    self.register_qc(tc.high_qc.clone(), now, &mut out);
                    let actions = self.pacemaker.on_timeout_cert(tc, now);
                    for action in actions {
                        self.apply_pacemaker_action(action, now, &mut out);
                    }
                }
                Message::NewView(qc) => {
                    out.cpu += self.cpu.verify(qc.signer_count());
                    self.register_qc(qc, now, &mut out);
                }
                Message::Request(req) => {
                    self.mempool.push(req.transaction);
                }
                Message::Response(_) => {}
                Message::SyncRequest(req) => self.on_sync_request(req, &mut out),
                Message::SyncResponse(resp) => self.on_sync_response(resp, now, &mut out),
            },
            ReplicaEvent::SyncTimer => self.on_sync_timer(now, &mut out),
        }
        out
    }

    // ---- internal handlers --------------------------------------------

    fn on_proposal(
        &mut self,
        block: SharedBlock,
        echoed: bool,
        now: SimTime,
        out: &mut HandleResult,
    ) {
        // Flat aggregate charge for the justify QC: the happy-path block
        // service time follows the paper's Eq. 4 (see
        // `CpuModel::process_proposal` for the rationale); pacemaker
        // certificates below are charged per signer because Eq. 4 does not
        // cover them.
        out.cpu += self.cpu.process_proposal(block.len());
        // Id integrity is enforced at ingress (NodeHost / the verify pool)
        // before any block reaches this point; re-hashing the full payload
        // here would double the real cost of every delivery.
        debug_assert!(block.verify_id(), "unverified block reached the replica");
        let justify = block.justify.clone();
        let block_id = block.id;
        let block_view = block.view;

        // Echo the proposal once (Streamlet's O(n^3) behaviour). The echo
        // shares the same allocation as the stored block — a pointer bump.
        if self.safety.echo_messages() && !echoed && !self.forest.contains(block_id) {
            out.send(
                Destination::AllReplicas,
                Message::ProposalEcho(block.clone()),
            );
        }

        // Store the block (orphans are buffered inside the forest). Inserting
        // the shared handle keeps the payload un-copied.
        match self.forest.insert(block.clone()) {
            Ok(()) => {
                if let Some(qc) = self.pending_qcs.remove(&block_id) {
                    self.register_qc(qc, now, out);
                }
            }
            Err(ForestError::Duplicate(_)) => {}
            Err(_) => {
                // Unknown parent (buffered as orphan) or stale: still process
                // the carried QC so the pacemaker keeps moving.
            }
        }

        // The QC carried by the proposal is new information.
        self.register_qc(justify, now, out);

        // Gap detection: a proposal whose ancestry we cannot resolve sits in
        // the orphan buffer. Arm a debounced sync timer rather than firing a
        // request immediately — on a healthy network the missing parent is
        // usually just reordered and arrives before the debounce expires, in
        // which case the timer fires as a strict no-op (no CPU, no sends).
        if self.forest.orphan_count() > 0 && !self.sync_timer_armed {
            self.sync_timer_armed = true;
            out.sync_timers.push(now + self.pacemaker.timeout() / 4);
        }

        // Voting rule. A syncing replica never votes: it cannot evaluate the
        // safety rules against ancestry it does not have yet.
        if !self.syncing
            && self.forest.contains(block_id)
            && self.safety.should_vote(&block, &self.forest)
        {
            // A recovered replica must never double-vote: `should_vote` just
            // advanced the protocol's watermark to this block, which must sit
            // strictly above whatever the durable restart restored.
            debug_assert!(
                self.restored_voted_view
                    .is_none_or(|restored| self.safety.voted_view() > restored),
                "vote at or below the restored voted-view watermark"
            );
            if let Some(log) = self.storage.as_mut() {
                // WAL rule: the watermark (and the QC backing it) must be
                // durable before the vote can reach the wire — flushed
                // immediately, never batched.
                let high_qc = self.forest.high_qc();
                let payload = storage::encode_safety_record(
                    self.safety.voted_view(),
                    (!high_qc.is_genesis()).then_some(high_qc),
                );
                let written = log.append_synced(RecordKind::SafetyRecord, &payload);
                out.cpu += self.cpu.disk_io(written as usize);
            }
            out.cpu += self.cpu.sign();
            let vote = Vote::new(block_id, block_view, self.id, &self.keypair);
            // Where the vote goes, and whether it also counts here: a vote
            // to the next leader is ours only if we are that leader (then
            // nothing leaves the process); a broadcast vote always is.
            let next_leader = self.election.leader_of(block_view.next());
            let (to, ours) = match self.safety.vote_destination() {
                VoteDestination::NextLeader => {
                    (Destination::Node(next_leader), next_leader == self.id)
                }
                VoteDestination::Broadcast => (Destination::AllReplicas, true),
            };
            // The wire is the attacker's second surface: a vote forger sends
            // a flood in place of the honest vote. The honest vote is still
            // the one counted locally, so forging can only corrupt what goes
            // on the wire — where the receivers' ingress verification catches
            // it.
            if to != Destination::Node(self.id) {
                for wire in self.attack.wire_votes(&vote) {
                    out.send(to, Message::Vote(wire));
                }
            }
            if ours {
                self.on_vote(vote, true, now, out);
            }
        }

        // A proposal deferred on a pending QC can go out once the missing
        // block (usually this very proposal) has been stored.
        self.maybe_release_deferred(now, out);
    }

    /// `already_local` is true when the vote is our own or an echo — those are
    /// not echoed again.
    fn on_vote(&mut self, vote: Vote, already_local: bool, now: SimTime, out: &mut HandleResult) {
        out.cpu += self.cpu.verify(1);
        if self.safety.echo_messages() && !already_local {
            out.send(Destination::AllReplicas, Message::VoteEcho(vote.clone()));
        }
        if let Some(qc) = self.quorum.add_vote(vote) {
            // Assembling the QC from votes that were each already verified
            // (and charged) on arrival is pure aggregation — no additional
            // signature check happens, so no additional `t_CPU` is charged.
            // The seed double-charged here.
            self.register_qc(qc, now, out);
        }
    }

    /// Registers a QC everywhere it matters: forest, safety state, commit
    /// rule, pacemaker.
    fn register_qc(&mut self, qc: QuorumCert, now: SimTime, out: &mut HandleResult) {
        if qc.is_genesis() {
            return;
        }
        match self.forest.register_qc(qc.clone()) {
            Ok(()) => {}
            Err(ForestError::UnknownBlock(_)) => {
                self.pending_qcs.insert(qc.block, qc.clone());
            }
            Err(_) => {}
        }

        self.safety.update_state(&qc, &self.forest);
        if let Some(commit_id) = self.safety.try_commit(&qc, &self.forest) {
            // The commit is learned in the view after the certifying QC's view
            // (that is when the QC reaches the replicas), which is the
            // convention behind the paper's block-interval metric.
            let learned_in = qc.view.next().max(self.current_view());
            self.commit(commit_id, learned_in, now, out);
        }

        let actions = self.pacemaker.on_qc(&qc, now);
        for action in actions {
            self.apply_pacemaker_action(action, now, out);
        }
    }

    fn apply_pacemaker_action(
        &mut self,
        action: PacemakerAction,
        now: SimTime,
        out: &mut HandleResult,
    ) {
        match action {
            PacemakerAction::ScheduleTimer { view, deadline } => {
                out.timers.push((view, deadline));
            }
            PacemakerAction::BroadcastTimeout(tv) => {
                out.send(Destination::AllReplicas, Message::Timeout(tv.clone()));
                // Our own timeout vote counts towards our own TC.
                let actions = self.pacemaker.on_timeout_vote(tv, now);
                for action in actions {
                    self.apply_pacemaker_action(action, now, out);
                }
            }
            PacemakerAction::NewView { new_view, tc } => {
                self.enter_view(new_view, tc, now, out);
            }
        }
    }

    fn enter_view(
        &mut self,
        view: View,
        tc: Option<TimeoutCert>,
        now: SimTime,
        out: &mut HandleResult,
    ) {
        let via_timeout = tc.is_some();
        if let Some(tc) = tc {
            // Forward the TC to the new leader so it can adopt the highest QC
            // even if it did not form the TC itself.
            let leader = self.election.leader_of(view);
            if leader != self.id {
                out.send(Destination::Node(leader), Message::TimeoutCertMsg(tc));
            }
        }
        if self.election.is_leader(self.id, view) && self.proposed_in_view < view {
            if via_timeout && self.options.wait_for_timeout_on_view_change {
                out.delayed_proposals
                    .push((view, now + self.pacemaker.timeout()));
            } else if self.options.synchronous_epochs && self.safety.epoch_based() {
                // Synchronous epochs: the proposal goes out at the epoch
                // boundary (half the view timeout, so the liveness timer at
                // the full timeout still backstops a lost proposal), not as
                // soon as the previous epoch certifies.
                out.delayed_proposals
                    .push((view, now + self.pacemaker.timeout() / 2));
            } else if self.high_qc_is_pending() {
                // The certification that advanced us refers to a block still
                // in flight (on slow links, votes can outrun the proposal
                // broadcast to the next leader). Proposing now would fork
                // from a stale parent — a wasted view under one-chain locks
                // like 2CHS, which refuse the fork. Wait for the block; the
                // view timer still bounds the wait, so liveness is untouched.
                self.deferred_proposal = Some(view);
            } else {
                self.do_propose(view, now, out);
            }
        }
        // Keep the quorum tracker bounded.
        if view.as_u64() > 64 {
            self.quorum.prune_below(View(view.as_u64() - 64));
        }
    }

    /// True when a quorum certificate newer than anything in the forest is
    /// parked in `pending_qcs` — i.e. we know of a certification whose block
    /// has not arrived, so our high-QC is stale.
    fn high_qc_is_pending(&self) -> bool {
        let registered = self.forest.high_qc().view;
        self.pending_qcs.values().any(|qc| qc.view > registered)
    }

    /// Releases a deferred leader proposal once the block behind the pending
    /// QC has arrived (or drops it if the view has passed).
    fn maybe_release_deferred(&mut self, now: SimTime, out: &mut HandleResult) {
        let Some(view) = self.deferred_proposal else {
            return;
        };
        if view < self.current_view() {
            self.deferred_proposal = None;
            return;
        }
        if self.proposed_in_view < view && !self.high_qc_is_pending() {
            self.deferred_proposal = None;
            self.do_propose(view, now, out);
        }
    }

    fn do_propose(&mut self, view: View, now: SimTime, out: &mut HandleResult) {
        if self.syncing {
            // A catching-up leader proposing would fork from stale state; the
            // view timer moves leadership on without it.
            return;
        }
        if let Some(from) = self.options.silence_from {
            if now >= from {
                return;
            }
        }
        self.proposed_in_view = view;
        let payload = self.mempool.next_batch(self.config.block_size);
        let payload_len = payload.len();
        let input = ProposalInput {
            view,
            proposer: self.id,
            payload,
        };
        match self.attack.propose(&*self.safety, &input, &self.forest) {
            Some(block) => {
                out.cpu += self.cpu.assemble_block(payload_len);
                // Wrap the block in its shared handle exactly once; the
                // broadcast clone and the local store below are pointer bumps.
                let block = SharedBlock::new(block);
                out.send(Destination::AllReplicas, Message::Proposal(block.clone()));
                self.on_proposal(block, true, now, out);
            }
            None => {
                // Silence attack (or no proposal possible): give the batch
                // back so the transactions are not lost.
                self.mempool.requeue_front(input.payload);
            }
        }
    }

    fn commit(
        &mut self,
        id: BlockId,
        committed_in_view: View,
        now: SimTime,
        out: &mut HandleResult,
    ) {
        match self.forest.commit(id) {
            Ok(newly) => {
                if newly.is_empty() {
                    return;
                }
                self.ledger.append(newly.clone(), committed_in_view, now);
                // Drop committed transactions we might still hold, and recover
                // transactions from forked branches that lost.
                for block in &newly {
                    self.mempool
                        .remove_committed(block.payload.iter().map(|tx| &tx.id));
                }
                let forked = self.forest.prune_to_committed();
                let recovered: Vec<Transaction> = forked
                    .into_iter()
                    .filter(|b| b.proposer == self.id)
                    .flat_map(|b| match SharedBlock::try_unwrap(b) {
                        // Sole owner (the common case once the forest dropped
                        // its handle): move the transactions out.
                        Ok(block) => block.payload,
                        // Still aliased elsewhere (e.g. by a peer's forest in
                        // the threaded runtime): fall back to a copy. Forked
                        // blocks are rare — this is the attack path only.
                        Err(shared) => shared.payload.clone(),
                    })
                    .collect();
                if !recovered.is_empty() {
                    self.mempool.requeue_front(recovered);
                }
                let committed_len = newly.len();
                out.committed.extend(newly);
                if let Some(log) = self.storage.as_mut() {
                    // Log the new committed entries (with their commit
                    // metadata, straight from the ledger tail) plus the QC
                    // state that drove them. Batched per `fsync_interval`.
                    let start = self.ledger.len() - committed_len;
                    let payloads: Vec<Vec<u8>> = self
                        .ledger
                        .iter()
                        .skip(start)
                        .map(encode_committed_record)
                        .collect();
                    let high_qc = encode_qc_record(self.forest.high_qc());
                    let mut written = 0u64;
                    for payload in &payloads {
                        written += log.append(RecordKind::CommittedBlock, payload);
                    }
                    written += log.append(RecordKind::Qc, &high_qc);
                    out.cpu += self.cpu.disk_io(written as usize);
                }
                self.maybe_checkpoint(out);
            }
            Err(ForestError::ConflictingCommit { .. }) => {
                self.safety_violations += 1;
            }
            Err(_) => {}
        }
    }

    // ---- checkpointing and state transfer ------------------------------

    /// Takes a checkpoint when the committed ledger has grown by at least
    /// `checkpoint_interval` blocks since the last one: encodes one chunk —
    /// the entries committed since, plus the current head — and appends it to
    /// the stored image. Off (`None`) by default, so runs without the knob
    /// are byte-identical to before.
    fn maybe_checkpoint(&mut self, out: &mut HandleResult) {
        let Some(interval) = self.config.checkpoint_interval else {
            return;
        };
        let len = self.ledger.len() as u64;
        if len < self.checkpoint_height + interval {
            return;
        }
        let rebase = self.checkpoint_height == 0;
        let chunk =
            Snapshot::encode_chunk(&self.forest, &self.ledger, self.checkpoint_height as usize);
        out.cpu += self.cpu.snapshot(chunk.len());
        self.checkpoint_height = len;
        self.recovery.checkpoints_taken += 1;
        self.recovery.checkpoint_bytes_written += chunk.len() as u64;
        self.recovery.checkpoint_max_write_bytes =
            (self.recovery.checkpoint_max_write_bytes).max(chunk.len() as u64);
        match self.storage.as_mut() {
            Some(log) => {
                // Persist the chunk and cut the log over to it: older
                // segments are subsumed and pruned.
                let written = log.install_checkpoint(len, &chunk);
                out.cpu += self.cpu.disk_io(written as usize);
            }
            None => {
                if rebase {
                    self.checkpoint_chunks.clear();
                }
                self.checkpoint_chunks.push(Bytes::from(chunk));
            }
        }
    }

    /// The stored checkpoint image: read back from the log's backend when one
    /// is mounted (its only holder), the in-memory chunk list otherwise.
    /// Empty when no checkpoint was taken. O(image) — restart and serve only.
    fn checkpoint_image(&self) -> Vec<u8> {
        match &self.storage {
            Some(log) => log.checkpoint().map_or_else(Vec::new, |(_, image)| image),
            None => self.checkpoint_chunks.concat(),
        }
    }

    /// The stored checkpoint chunks that carry ledger entries at or above
    /// `start`, as one stream capped at [`SYNC_SNAPSHOT_BYTES`], with the
    /// ledger length it brings the requester to.
    fn checkpoint_suffix(&self, start: u64) -> Option<(Bytes, u64)> {
        let image = self.checkpoint_image();
        let mut stream = Vec::new();
        let mut to = start;
        for chunk in chunks(&image) {
            let chunk = chunk.ok()?;
            if chunk.to <= start {
                continue;
            }
            if !stream.is_empty() && stream.len() + chunk.bytes.len() > SYNC_SNAPSHOT_BYTES {
                break;
            }
            stream.extend_from_slice(chunk.bytes);
            to = chunk.to;
        }
        (!stream.is_empty()).then(|| (Bytes::from(stream), to))
    }

    /// Debounce/retry timer. If the gap healed through live traffic before
    /// the deadline this is a strict no-op (zero CPU, zero sends), so healthy
    /// runs are unperturbed by the detection machinery.
    fn on_sync_timer(&mut self, now: SimTime, out: &mut HandleResult) {
        self.sync_timer_armed = false;
        if !self.syncing && self.forest.orphan_count() == 0 {
            return;
        }
        self.send_sync_request(now, out);
    }

    /// Starts (or retries) a catch-up episode: sends a signed request for our
    /// missing suffix to a deterministically chosen peer and arms a retry
    /// timer with linear backoff.
    fn send_sync_request(&mut self, now: SimTime, out: &mut HandleResult) {
        if self.config.nodes <= 1 {
            // No peers to sync from.
            self.syncing = false;
            return;
        }
        if !self.syncing {
            // A new episode begins: the previous caught-up mark no longer
            // describes the final state.
            self.recovery.caught_up_at = None;
        }
        self.syncing = true;
        let target = self.sync_target();
        self.sync_attempts += 1;
        self.recovery.sync_requests_sent += 1;
        out.cpu += self.cpu.sign();
        let request = SyncRequest::new(
            self.id,
            self.ledger.head(),
            Height(self.ledger.len() as u64),
            &self.keypair,
        );
        out.send(Destination::Node(target), Message::SyncRequest(request));
        // Linear backoff, capped: a lost response costs one more round trip.
        let backoff = SimDuration::from_nanos(
            self.pacemaker.timeout().as_nanos() * self.sync_attempts.min(8),
        );
        self.sync_timer_armed = true;
        out.sync_timers.push(now + backoff);
    }

    /// Deterministic peer choice: the first attempt asks the proposer of the
    /// oldest buffered orphan (it certainly holds the missing ancestry);
    /// retries rotate through the validator set, skipping ourselves.
    fn sync_target(&self) -> NodeId {
        if self.sync_attempts == 0 {
            if let Some(orphan) = self.forest.oldest_orphan() {
                if orphan.proposer != self.id {
                    return orphan.proposer;
                }
            }
        }
        let n = self.config.nodes as u64;
        let mut candidate = (self.id.as_u64() + 1 + self.sync_attempts) % n;
        if candidate == self.id.as_u64() {
            candidate = (candidate + 1) % n;
        }
        NodeId(candidate)
    }

    /// Serves a state-transfer request from local state. If the requester is
    /// behind our latest checkpoint (or on a chain we do not recognise), the
    /// response leads with the checkpoint chunks above its height — all of
    /// them for an unrecognised chain — capped at [`SYNC_SNAPSHOT_BYTES`];
    /// the committed suffix above those and the uncommitted main path follow,
    /// capped at [`SYNC_BATCH`] blocks.
    fn on_sync_request(&mut self, req: SyncRequest, out: &mut HandleResult) {
        out.cpu += self.cpu.verify(1);
        if req.requester == self.id {
            return;
        }
        self.recovery.sync_responses_served += 1;
        // Where in our ledger does the requester's claimed head sit?
        let claimed = req.height.as_u64() as usize;
        let on_our_chain = claimed == 0
            || (claimed <= self.ledger.len()
                && self.ledger.get(claimed - 1).map(|c| c.block.id) == Some(req.head));
        let mut start = if on_our_chain { claimed } else { 0 };
        let mut snapshot = None;
        if (start as u64) < self.checkpoint_height {
            if let Some((bytes, to)) = self.checkpoint_suffix(start as u64) {
                out.cpu += self.cpu.snapshot(bytes.len());
                snapshot = Some(bytes);
                start = to as usize;
            }
        }
        let mut blocks: Vec<SharedBlock> = self
            .ledger
            .iter()
            .skip(start)
            .take(SYNC_BATCH)
            .map(|c| c.block.clone())
            .collect();
        if blocks.len() < SYNC_BATCH {
            // Room left in the batch: append the uncommitted main path so the
            // requester can rejoin live consensus immediately.
            let head = self.forest.committed_head().id;
            let tip = self.forest.highest_certified_block().id;
            if let Some(path) = self.forest.shared_path_from(head, tip) {
                blocks.extend(path.into_iter().take(SYNC_BATCH - blocks.len()).cloned());
            }
        }
        let response = SyncResponse {
            responder: self.id,
            snapshot,
            blocks,
            high_qc: self.forest.high_qc().clone(),
        };
        out.send(
            Destination::Node(req.requester),
            Message::SyncResponse(response),
        );
    }

    /// Installs a state-transfer response: adopt the snapshot chunks (decoded
    /// onto our own ledger — they may start inside it) if they take us ahead
    /// of everything we have, then replay the block suffix through the normal
    /// insert/QC path so commits fire through the protocol's own commit rule.
    fn on_sync_response(&mut self, resp: SyncResponse, now: SimTime, out: &mut HandleResult) {
        if !self.syncing {
            // Unsolicited or duplicate response after we already caught up.
            return;
        }
        self.recovery.sync_bytes_received += resp.wire_size() as u64;
        if let Some(bytes) = &resp.snapshot {
            out.cpu += self.cpu.snapshot(bytes.len());
            if let Ok(snap) = Snapshot::decode_onto(&self.ledger, bytes) {
                if snap.ledger.len() > self.ledger.len() {
                    self.forest = snap.forest;
                    self.ledger = snap.ledger;
                    self.pending_qcs.clear();
                    self.deferred_proposal = None;
                    self.recovery.snapshots_installed += 1;
                    // Our stored chunks describe the state we just left: the
                    // next checkpoint re-bases (`from == 0`) and supersedes
                    // them.
                    self.checkpoint_height = 0;
                }
            }
        }
        self.recovery.blocks_synced += resp.blocks.len() as u64;
        for block in resp.blocks {
            out.cpu += self.cpu.process_proposal(block.len());
            let justify = block.justify.clone();
            // Duplicates and orphans are handled inside the forest; either
            // way the carried QC is registered below.
            let _ = self.forest.insert(block);
            self.register_qc(justify, now, out);
        }
        self.register_qc(resp.high_qc, now, out);
        if self.forest.orphan_count() == 0 {
            // Nothing unresolvable remains: the episode is over. If we are
            // still behind the live tip, the next proposal will orphan and
            // re-arm the machinery with a fresher head.
            self.syncing = false;
            self.sync_attempts = 0;
            self.recovery.caught_up_at = Some(now);
        }
    }

    /// Restarts this replica after a process death: every in-memory structure
    /// is discarded and rebuilt from what the disk kept.
    ///
    /// With a durable log mounted ([`Config::durable_log`]) the death is
    /// simulated against it — buffered writes lost, the optional crash-point
    /// `fault` mauling the durable image — and the replica replays its
    /// persisted checkpoint image plus the log's longest valid record prefix,
    /// then restores the voted-view/locked-QC safety state from **every**
    /// intact safety record so it can never double-vote. Without a log the
    /// disk is the checkpoint chunk list alone (empty: restart from genesis)
    /// and the same replay runs over no records.
    ///
    /// Either way the replica then asks the network for the history its disk
    /// did not cover — *before* arming the view timer, so the syncing flag
    /// suppresses proposing from stale state — and the combined effects are
    /// returned.
    pub fn restart(&mut self, now: SimTime, fault: Option<StorageFault>) -> HandleResult {
        let mut out = HandleResult::default();
        let replay = match self.storage.as_mut() {
            Some(log) => {
                if let Some(fault) = fault {
                    log.schedule_fault(fault);
                }
                log.crash();
                let replay = log.replay();
                self.recovery.durable_restarts += 1;
                // The modeled disk read: replay cost scales with bytes
                // scanned, so recovery latency is a deterministic simulator
                // output.
                let replay_cost = self.cpu.disk_io(replay.bytes_read as usize);
                out.cpu += replay_cost;
                self.recovery.log_replay_nanos += replay_cost.as_nanos();
                replay
            }
            None => {
                let image = self.checkpoint_image();
                ReplayResult {
                    checkpoint: (!image.is_empty()).then_some((self.checkpoint_height, image)),
                    ..ReplayResult::default()
                }
            }
        };
        self.reset_volatile(now);

        if let Some((_, image)) = &replay.checkpoint {
            // An undecodable image leaves the genesis state in place.
            out.cpu += self.cpu.snapshot(image.len());
            if let Ok(snap) = Snapshot::decode(image) {
                self.forest = snap.forest;
                self.ledger = snap.ledger;
                self.checkpoint_height = self.ledger.len() as u64;
            }
        }

        // The vote watermark is the maximum over every intact safety record,
        // wherever it sits: the WAL rule made each one true when it was
        // written, and nothing that broke around it makes it less so.
        let mut voted = View::GENESIS;
        let mut locked_qc: Option<QuorumCert> = None;
        let mut restore = |payload: &[u8]| match storage::decode_safety_record(payload) {
            Ok((view, qc)) => {
                voted = voted.max(view);
                if qc.is_some() {
                    locked_qc = qc;
                }
                true
            }
            Err(_) => false,
        };
        // Blocks and QCs keep the longest-valid-prefix rule: the first record
        // that frames but does not apply — a decode failure, or a chain gap
        // left by a dropped fsync — ends their replay, and everything after
        // it counts as discarded (safety records too, though the watermark
        // they carry is kept).
        self.recovery.corrupt_records_discarded += replay.corrupt_records_discarded;
        let mut broken = false;
        for (kind, payload) in &replay.records {
            let applied = match kind {
                RecordKind::SafetyRecord => restore(payload),
                _ if broken => false,
                RecordKind::CommittedBlock => self.replay_committed(payload),
                RecordKind::Qc => decode_qc_record(payload)
                    .map(|qc| self.replay_qc(qc))
                    .is_ok(),
                RecordKind::CheckpointMarker => storage::decode_checkpoint_marker(payload).is_ok(),
            };
            broken |= !applied;
            if broken {
                self.recovery.corrupt_records_discarded += 1;
            } else {
                self.recovery.records_replayed += 1;
            }
        }
        for payload in &replay.stray_safety_records {
            restore(payload);
        }

        // Restore the safety-critical state: re-derive the lock through the
        // protocol's own state-updating rule, then clamp the vote watermark.
        if let Some(qc) = locked_qc {
            self.replay_qc(qc);
        }
        if self.storage.is_some() {
            self.safety.restore_voted_view(voted);
            self.restored_voted_view = Some(self.safety.voted_view());
        }

        self.send_sync_request(now, &mut out);
        let startup = self.start(now);
        out.cpu += startup.cpu;
        out.outbound.extend(startup.outbound);
        out.timers.extend(startup.timers);
        out.delayed_proposals.extend(startup.delayed_proposals);
        out.sync_timers.extend(startup.sync_timers);
        out.committed.extend(startup.committed);
        out
    }

    /// Arms a crash-point fault on the mounted log ahead of the crash it
    /// belongs to (a no-op without a log). [`StorageFault::DropFsync`] needs
    /// this: the fsync it fails happens while the replica is still writing,
    /// long before the restart that exposes the hole.
    pub fn arm_storage_fault(&mut self, fault: StorageFault) {
        if let Some(log) = self.storage.as_mut() {
            log.schedule_fault(fault);
        }
    }

    /// Discards every in-memory structure a process death loses — forest and
    /// ledger back to genesis, fresh safety rules, mempool, pacemaker, quorum
    /// tracker and sync state — and stamps the restart for the recovery
    /// audit. What an attacker did so far is a counter and survives.
    fn reset_volatile(&mut self, now: SimTime) {
        self.forest = BlockForest::new();
        self.ledger = Ledger::new();
        self.checkpoint_height = 0;
        self.safety = make_protocol(self.protocol);
        self.mempool = Mempool::with_shards(self.config.mempool_size, self.config.mempool_shards);
        self.pacemaker = Pacemaker::new(self.id, self.config.nodes, self.config.timeout);
        self.quorum = QuorumTracker::new(self.config.nodes);
        self.proposed_in_view = View::GENESIS;
        self.pending_qcs.clear();
        self.deferred_proposal = None;
        self.syncing = false;
        self.sync_timer_armed = false;
        self.sync_attempts = 0;
        self.recovery.restarted_at = Some(now);
        self.recovery.caught_up_at = None;
    }

    /// Re-applies one durable committed-block record. Returns false when the
    /// record does not extend the recovered chain — the replay-ending signal.
    fn replay_committed(&mut self, payload: &[u8]) -> bool {
        let Ok(committed) = decode_committed_record(payload) else {
            return false;
        };
        let height = committed.block.height.as_u64();
        if height <= self.ledger.len() as u64 {
            // Already covered by the checkpoint image: the image subsumes
            // every record logged before its marker.
            return true;
        }
        if height != self.ledger.len() as u64 + 1 {
            // A hole (dropped fsync) or a record from a divergent history.
            return false;
        }
        let id = committed.block.id;
        match self.forest.insert(committed.block.clone()) {
            Ok(()) | Err(ForestError::Duplicate(_)) => {}
            Err(_) => return false,
        }
        if !committed.block.justify.is_genesis() {
            let justify = committed.block.justify.clone();
            self.replay_qc(justify);
        }
        match self.forest.commit(id) {
            Ok(newly) => {
                self.ledger
                    .append(newly, committed.committed_in_view, committed.committed_at);
                self.forest.prune_to_committed();
                true
            }
            Err(_) => false,
        }
    }

    /// Re-registers a replayed QC: forest certification plus the protocol's
    /// state-updating rule, with no pacemaker or commit side effects — the
    /// commits come from their own records.
    fn replay_qc(&mut self, qc: QuorumCert) {
        if qc.is_genesis() {
            return;
        }
        if self.forest.register_qc(qc.clone()).is_err() {
            self.forest.observe_qc(qc.clone());
        }
        self.safety.update_state(&qc, &self.forest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_types::SimTime;

    fn config(nodes: usize) -> Config {
        Config::builder()
            .nodes(nodes)
            .block_size(10)
            .seed(1)
            .build()
            .unwrap()
    }

    fn txs(n: u64, client: u64) -> Vec<Transaction> {
        (0..n)
            .map(|i| Transaction::new(NodeId(client), i, 16, SimTime::ZERO))
            .collect()
    }

    fn drive(protocol: ProtocolKind, views: u64) -> Vec<Replica> {
        drive_with(config(4), protocol, views, |_| {})
    }

    /// Drives a 4-replica in-memory cluster with zero network delay by
    /// delivering every outbound message immediately, until every replica
    /// reached `views`. `after_step` sees each replica right after each event
    /// it handled.
    fn drive_with(
        cfg: Config,
        protocol: ProtocolKind,
        views: u64,
        after_step: impl FnMut(&Replica),
    ) -> Vec<Replica> {
        drive_cluster(cluster(cfg, protocol), views, after_step)
    }

    fn cluster(cfg: Config, protocol: ProtocolKind) -> Vec<Replica> {
        (0..4)
            .map(|i| Replica::new(NodeId(i), protocol, cfg.clone(), ReplicaOptions::default()))
            .collect()
    }

    fn drive_cluster(
        mut replicas: Vec<Replica>,
        views: u64,
        mut after_step: impl FnMut(&Replica),
    ) -> Vec<Replica> {
        // Seed every replica's mempool.
        for (i, replica) in replicas.iter_mut().enumerate() {
            replica.handle(
                ReplicaEvent::ClientRequests(txs(200, 100 + i as u64)),
                SimTime::ZERO,
            );
        }
        let mut inbox: Vec<(NodeId, ReplicaEvent)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut startup: Vec<(NodeId, HandleResult)> = Vec::new();
        for replica in replicas.iter_mut() {
            let result = replica.start(now);
            startup.push((replica.id(), result));
        }
        let route =
            |from: NodeId, result: HandleResult, inbox: &mut Vec<(NodeId, ReplicaEvent)>| {
                for outbound in result.outbound {
                    match outbound.to {
                        Destination::Node(node) => inbox.push((
                            node,
                            ReplicaEvent::Message {
                                from,
                                message: outbound.message.clone(),
                            },
                        )),
                        Destination::AllReplicas => {
                            for node in 0..4u64 {
                                if NodeId(node) != from {
                                    inbox.push((
                                        NodeId(node),
                                        ReplicaEvent::Message {
                                            from,
                                            message: outbound.message.clone(),
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            };
        for (from, result) in startup {
            route(from, result, &mut inbox);
        }
        // Round-based delivery until enough views pass.
        for _ in 0..(views * 40) {
            if inbox.is_empty() {
                break;
            }
            now += bamboo_types::SimDuration::from_micros(100);
            let batch = std::mem::take(&mut inbox);
            for (to, event) in batch {
                let result = replicas[to.index()].handle(event, now);
                after_step(&replicas[to.index()]);
                route(to, result, &mut inbox);
            }
            if replicas.iter().all(|r| r.current_view().as_u64() >= views) {
                break;
            }
        }
        replicas
    }

    fn checkpointing(interval: u64, durable_log: bool) -> Config {
        Config::builder()
            .nodes(4)
            .block_size(10)
            .seed(1)
            .checkpoint_interval(interval)
            .durable_log(durable_log)
            .build()
            .unwrap()
    }

    const ALL_PROTOCOLS: [ProtocolKind; 6] = [
        ProtocolKind::HotStuff,
        ProtocolKind::TwoChainHotStuff,
        ProtocolKind::Streamlet,
        ProtocolKind::FastHotStuff,
        ProtocolKind::Lbft,
        ProtocolKind::OriginalHotStuff,
    ];

    /// The highest vote watermark the durable log would restore.
    fn durable_voted_view(replica: &Replica) -> View {
        let replay = replica.storage().expect("durable log").replay();
        (replay.records.iter())
            .filter(|(kind, _)| *kind == RecordKind::SafetyRecord)
            .map(|(_, payload)| storage::decode_safety_record(payload).unwrap().0)
            .fold(View::GENESIS, View::max)
    }

    #[test]
    fn vote_watermark_survives_every_checkpoint_cut() {
        // A cut prunes every older segment, the newest SafetyRecord with
        // them; Streamlet commits from `on_vote`, so no vote follows in the
        // same step to rewrite it. Whatever the protocol, a crash right after
        // any cut must still restore the live watermark.
        for protocol in ALL_PROTOCOLS {
            let mut cuts = [0u64; 4];
            let mut checked = 0;
            drive_with(checkpointing(2, true), protocol, 24, |replica| {
                let taken = replica.recovery_stats().checkpoints_taken;
                if taken > std::mem::replace(&mut cuts[replica.id().index()], taken) {
                    assert_eq!(
                        durable_voted_view(replica),
                        replica.safety.voted_view(),
                        "{protocol:?}: watermark lost at checkpoint {taken}"
                    );
                    checked += 1;
                }
            });
            assert!(checked > 8, "{protocol:?}: only {checked} cuts checked");
        }
    }

    /// DESIGN §8.3's invariant is "the durable watermark is ≥ any vote ever
    /// sent" — and it is only worth something if the *reader* returns it. An
    /// early CRC flip or an early record-aligned hole ends block/QC replay
    /// within the first few records; the newest safety record, intact further
    /// down the log, must still be the watermark the restart restores.
    #[test]
    fn restart_restores_the_newest_intact_watermark_past_a_break() {
        let cfg = Config::builder()
            .nodes(4)
            .block_size(10)
            .seed(1)
            .durable_log(true)
            .fsync_interval(4)
            .build()
            .unwrap();
        for protocol in ALL_PROTOCOLS {
            for (label, hole, flip) in [
                (
                    "early hole",
                    Some(StorageFault::DropFsync { index: 5 }),
                    None,
                ),
                (
                    "early CRC flip",
                    None,
                    Some(StorageFault::CorruptCrc { record: 3 }),
                ),
            ] {
                let mut replicas = cluster(cfg.clone(), protocol);
                if let Some(hole) = hole {
                    replicas[2].arm_storage_fault(hole);
                }
                let mut victim = drive_cluster(replicas, 30, |_| {}).remove(2);
                // Every vote was preceded by a flushed safety record, so the
                // live watermark is the highest one on disk.
                let on_disk = victim.safety.voted_view();
                assert!(on_disk >= View(20), "{protocol:?}: ran to {on_disk:?}");
                victim.restart(SimTime(1_000_000_000), flip);
                let stats = victim.recovery_stats();
                assert!(
                    stats.corrupt_records_discarded > stats.records_replayed,
                    "{protocol:?} {label}: the break was not early: {stats:?}"
                );
                assert_eq!(
                    victim.restored_voted_view(),
                    Some(on_disk),
                    "{protocol:?} {label}: a vote intact on disk was forgotten"
                );
            }
        }
    }

    /// One state-transfer round: `lagging` asks `server` and installs the
    /// reply.
    fn sync_round(lagging: &mut Replica, server: &mut Replica, now: SimTime) {
        let mut out = HandleResult::default();
        lagging.send_sync_request(now, &mut out);
        for request in out.outbound {
            let from = lagging.id();
            let message = request.message;
            let served = server.handle(ReplicaEvent::Message { from, message }, now);
            for reply in served.outbound {
                let from = server.id();
                let message = reply.message;
                lagging.handle(ReplicaEvent::Message { from, message }, now);
            }
        }
    }

    #[test]
    fn adopting_a_peer_snapshot_rebases_and_discards_stale_chunks() {
        for durable_log in [false, true] {
            let cfg = checkpointing(4, durable_log);
            // The same deterministic run, stopped early and late: replica 3
            // of the short run is a lagging copy of the long run's.
            let mut lagging = drive_with(cfg.clone(), ProtocolKind::HotStuff, 44, |_| {}).remove(3);
            let mut server = drive_with(cfg, ProtocolKind::HotStuff, 60, |_| {}).remove(1);
            let stale = lagging.checkpoint_image();
            let behind = lagging.ledger().len() as u64;
            assert!(chunks(&stale).count() >= 2, "lagging replica cut chunks");
            assert!(
                server.checkpoint_height >= behind + 8,
                "two checkpoints behind"
            );
            let full_image = Snapshot::encode(server.forest(), server.ledger()).len() as u64;

            let now = SimTime(1_000_000_000);
            sync_round(&mut lagging, &mut server, now);
            let stats = lagging.recovery_stats();
            assert_eq!(stats.snapshots_installed, 1);
            // Bounded transfer: only the chunks above our height came over.
            assert!(stats.sync_bytes_received < full_image, "suffix, not image");
            assert!(lagging.ledger().consistent_with(server.ledger()));
            assert!(lagging.ledger().len() as u64 >= server.checkpoint_height);

            // The next checkpoint re-bases: one `from == 0` chunk replaces
            // everything stored before the adoption.
            while lagging.checkpoint_height == 0 {
                sync_round(&mut lagging, &mut server, now);
                lagging.maybe_checkpoint(&mut HandleResult::default());
            }
            let image = lagging.checkpoint_image();
            let stored: Vec<_> = chunks(&image).map(Result::unwrap).collect();
            assert_eq!(stored.len(), 1, "stale chunks discarded");
            // With a log mounted its backend holds the only copy.
            assert_eq!(lagging.checkpoint_chunks.is_empty(), durable_log);
            assert_eq!(
                (stored[0].from, stored[0].to),
                (0, lagging.checkpoint_height)
            );
            let restored = Snapshot::decode(&image).expect("re-based image decodes");
            assert!(restored.ledger.consistent_with(server.ledger()));
            assert_eq!(restored.ledger.len() as u64, lagging.checkpoint_height);
        }
    }

    #[test]
    fn hotstuff_cluster_commits_blocks_and_agrees() {
        let replicas = drive(ProtocolKind::HotStuff, 12);
        for replica in &replicas {
            assert_eq!(replica.safety_violations(), 0);
            assert!(replica.ledger().verify_chain());
            assert!(
                replica.ledger().len() > 3,
                "replica {} committed only {} blocks",
                replica.id(),
                replica.ledger().len()
            );
        }
        for pair in replicas.windows(2) {
            assert!(pair[0].ledger().consistent_with(pair[1].ledger()));
        }
    }

    #[test]
    fn two_chain_hotstuff_cluster_commits() {
        let replicas = drive(ProtocolKind::TwoChainHotStuff, 12);
        assert!(replicas.iter().all(|r| r.ledger().len() > 3));
        assert!(replicas.iter().all(|r| r.safety_violations() == 0));
    }

    #[test]
    fn streamlet_cluster_commits() {
        let replicas = drive(ProtocolKind::Streamlet, 12);
        assert!(replicas.iter().all(|r| r.ledger().len() > 2));
        assert!(replicas.iter().all(|r| r.safety_violations() == 0));
        for pair in replicas.windows(2) {
            assert!(pair[0].ledger().consistent_with(pair[1].ledger()));
        }
    }

    #[test]
    fn client_requests_land_in_mempool_and_blocks() {
        let cfg = config(4);
        let mut replica = Replica::new(
            NodeId(1),
            ProtocolKind::HotStuff,
            cfg,
            ReplicaOptions::default(),
        );
        replica.handle(ReplicaEvent::ClientRequests(txs(25, 7)), SimTime::ZERO);
        assert_eq!(replica.mempool_len(), 25);
        // Node 1 leads view 1: starting it proposes a block with 10 txs.
        let result = replica.start(SimTime::ZERO);
        assert_eq!(replica.mempool_len(), 15);
        let proposal = result
            .outbound
            .iter()
            .find_map(|o| match &o.message {
                Message::Proposal(b) => Some(b.clone()),
                _ => None,
            })
            .expect("leader proposed");
        assert_eq!(proposal.len(), 10);
    }

    #[test]
    fn non_leader_start_only_arms_timer() {
        let cfg = config(4);
        let mut replica = Replica::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            cfg,
            ReplicaOptions::default(),
        );
        let result = replica.start(SimTime::ZERO);
        assert!(result.outbound.is_empty());
        assert_eq!(result.timers.len(), 1);
        assert_eq!(result.timers[0].0, View(1));
    }

    #[test]
    fn timer_expiry_produces_timeout_broadcast() {
        let cfg = config(4);
        let mut replica = Replica::new(
            NodeId(2),
            ProtocolKind::HotStuff,
            cfg,
            ReplicaOptions::default(),
        );
        replica.start(SimTime::ZERO);
        let result = replica.handle(
            ReplicaEvent::TimerFired { view: View(1) },
            SimTime(200_000_000),
        );
        assert!(result
            .outbound
            .iter()
            .any(|o| matches!(o.message, Message::Timeout(_))));
    }

    #[test]
    fn silence_from_option_mutes_proposals() {
        let cfg = config(4);
        let mut replica = Replica::new(
            NodeId(1),
            ProtocolKind::HotStuff,
            cfg,
            ReplicaOptions {
                silence_from: Some(SimTime::ZERO),
                ..Default::default()
            },
        );
        replica.handle(ReplicaEvent::ClientRequests(txs(25, 7)), SimTime::ZERO);
        let result = replica.start(SimTime::ZERO);
        assert!(result.outbound.is_empty(), "silenced leader never proposes");
        assert_eq!(replica.mempool_len(), 25, "batch returned to the pool");
    }
}
