//! The replica node: Bamboo's `Replica` assembled from the shared modules.
//!
//! A [`Replica`] is a pure state machine. It consumes verified messages and
//! admitted client transactions — both only through its
//! [`crate::NodeHost`], which holds the proof tokens — and the local
//! deadlines of [`ReplicaEvent`], writes what should happen next — messages
//! to send, timers to arm — into the [`Transport`] its host hands it, and
//! returns a [`StepReport`]: CPU time consumed and blocks that became
//! committed. All time, networking and randomness live in the runner, which
//! is what makes the same replica code usable both on the deterministic
//! simulator and on the live backends.
//!
//! The replica is three machines. This file is the consensus step (proposal,
//! vote, QC, commit, view change); `sync.rs` is state transfer and
//! `durability.rs` is the disk. The step asks the other two questions
//! and tells them what happened; it never reads their state.

use bamboo_crypto::{DigestMap, KeyPair};
use bamboo_forest::{BlockForest, ForestError, Ledger};
use bamboo_mempool::{Mempool, MempoolStats};
use bamboo_pacemaker::{LeaderElection, Pacemaker};
use bamboo_protocols::{make_protocol, Attack, ProposalInput, Safety, VoteDestination};
use bamboo_sim::CpuModel;
use bamboo_types::{
    BlockId, Config, Height, Message, NodeId, ProtocolKind, QuorumCert, SharedBlock, SimDuration,
    SimTime, SyncRequest, SyncResponse, TimeoutCert, Transaction, View, Vote,
};

use crate::durability::Disk;
use crate::metrics::RecoveryStats;
use crate::quorum::QuorumTracker;
pub use crate::runtime::ReplicaEvent;
use crate::runtime::{Step, StepReport, Transport};
use crate::storage::{SegmentLog, StorageFault};
use crate::sync::{self, SyncState};

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
    /// State transfer: the catch-up episode, if one is running.
    sync: SyncState,
    /// What survives a process death.
    disk: Disk,
    /// Recovery bookkeeping for the metrics layer.
    recovery: RecoveryStats,
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
        Self {
            id,
            protocol,
            keypair: KeyPair::from_seed(id.as_u64()),
            election,
            forest: BlockForest::new(),
            mempool: Mempool::new(config.mempool_size),
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
            sync: SyncState::default(),
            disk: Disk::new(&config),
            recovery: RecoveryStats::default(),
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

    /// Checkpoint and state-transfer counters for the metrics layer.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Replaces the durable storage backend. The threaded cluster points
    /// replicas at real temp-dir files with this; under `Config::durable_log`
    /// the default is the deterministic in-memory backend.
    pub fn set_storage(&mut self, storage: SegmentLog) {
        self.disk.mount(storage);
    }

    /// The durable segment log, when one is attached.
    pub fn storage(&self) -> Option<&SegmentLog> {
        self.disk.log()
    }

    /// The vote watermark restored by the last durable restart, if any —
    /// every vote after recovery must be strictly above it.
    pub fn restored_voted_view(&self) -> Option<View> {
        self.disk.restored_voted_view()
    }

    /// Arms a crash-point fault on the mounted log ahead of the crash it
    /// belongs to (a no-op without a log). [`StorageFault::DropFsync`] needs
    /// this: the fsync it fails happens while the replica is still writing,
    /// long before the restart that exposes the hole.
    pub fn arm_storage_fault(&mut self, fault: StorageFault) {
        self.disk.arm_fault(fault);
    }

    /// Starts the replica: arms the first view timer and, if it leads view 1,
    /// proposes the first block.
    pub fn start(&mut self, now: SimTime, transport: &mut dyn Transport) -> StepReport {
        let mut out = Step::new(now, transport, self.cpu);
        self.boot(&mut out);
        out.finish()
    }

    fn boot(&mut self, out: &mut Step<'_>) {
        let view = self.current_view();
        out.transport
            .arm_timer(view, out.now + self.pacemaker.timeout());
        if self.election.is_leader(self.id, view) {
            self.do_propose(view, out);
        }
    }

    /// Handles one local deadline, writing its effects into `transport`.
    pub fn handle(
        &mut self,
        event: ReplicaEvent,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        let mut step = Step::new(now, transport, self.cpu);
        let out = &mut step;
        match event {
            ReplicaEvent::TimerFired { view } => {
                let high_qc = self.forest.high_qc().clone();
                let vote = self.pacemaker.on_timer(view, high_qc, &self.keypair);
                if let Some(vote) = vote {
                    // Only a timer that gives up on its view signs anything.
                    out.cpu += self.cpu.sign();
                    // Our own timeout vote counts towards our own TC.
                    let tc = self.pacemaker.on_timeout_vote(&vote);
                    out.transport.broadcast(Message::Timeout(vote));
                    if let Some(tc) = tc {
                        self.enter_view(tc.view.next(), Some(tc), out);
                    }
                }
            }
            ReplicaEvent::ProposeNow { view } => {
                // A paced (epoch/timeout-waited) proposal slot defers on a
                // block in flight just as the QC-driven path does.
                if view == self.current_view() && self.proposed_in_view < view {
                    self.propose_or_defer(view, out);
                }
            }
            ReplicaEvent::SyncTimer => {
                if self.sync.timer_fired(&self.forest) {
                    self.send_sync_request(out);
                }
            }
        }
        step.finish()
    }

    /// Admits client transactions that passed the edge check into the
    /// mempool; admitting writes no effect.
    pub(crate) fn admit(&mut self, txs: Vec<Transaction>) {
        self.mempool.push_batch(txs);
    }

    /// Handles one message delivered from `from` by reference, cloning only
    /// what the replica keeps: a broadcast's recipients share one envelope.
    pub(crate) fn receive(
        &mut self,
        from: NodeId,
        message: &Message,
        now: SimTime,
        transport: &mut dyn Transport,
    ) -> StepReport {
        let mut step = Step::new(now, transport, self.cpu);
        self.on_message(from, message, &mut step);
        step.finish()
    }

    // ---- internal handlers --------------------------------------------

    fn on_message(&mut self, from: NodeId, message: &Message, out: &mut Step<'_>) {
        match message {
            // `from_author`: honest replicas send only their own proposals and
            // votes, so one from anyone else is already a relay.
            Message::Proposal(block) => self.on_proposal(block, from == block.proposer, out),
            Message::Vote(vote) => self.on_vote(vote, from == vote.voter, out),
            Message::Timeout(tv) => {
                // One signature for the timeout vote itself plus one per
                // signer of the embedded high-QC: the ingress stage really
                // checks both, and the paper's cost model charges `t_CPU`
                // per signature verified.
                out.cpu += self.cpu.verify(1 + tv.high_qc.signer_count());
                self.register_qc(&tv.high_qc, out);
                if let Some(tc) = self.pacemaker.on_timeout_vote(tv) {
                    self.enter_view(tc.view.next(), Some(tc), out);
                }
            }
            Message::TimeoutCertMsg(tc) => {
                // Per-signer cost for the TC aggregate plus the embedded
                // high-QC it carries, mirroring the real ingress checks.
                let signers = tc.signer_count() + tc.high_qc.signer_count();
                out.cpu += self.cpu.verify(signers);
                self.register_qc(&tc.high_qc, out);
                if self.pacemaker.on_timeout_cert(tc) {
                    self.enter_view(tc.view.next(), Some(tc.clone()), out);
                }
            }
            Message::SyncRequest(req) => {
                let (ledger, forest, stats) = (&self.ledger, &self.forest, &mut self.recovery);
                sync::answer(req, self.id, ledger, forest, &self.disk, stats, out);
            }
            Message::SyncResponse(resp) => self.on_sync_response(resp, out),
        }
    }

    fn on_proposal(&mut self, block: &SharedBlock, from_author: bool, out: &mut Step<'_>) {
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
        let block_id = block.id;
        let block_view = block.view;

        // Relay a proposal from its author once (Streamlet's O(n^3)
        // behaviour): the very message, sharing the block — a pointer bump.
        if self.safety.echo_messages() && from_author && !self.forest.contains(block_id) {
            out.transport.broadcast(Message::Proposal(block.clone()));
        }

        // Store the block (orphans are buffered inside the forest). Inserting
        // the shared handle keeps the payload un-copied.
        if self.forest.insert(block.clone()).is_ok() {
            if let Some(qc) = self.pending_qcs.remove(&block_id) {
                self.register_qc(&qc, out);
            }
        }

        // The QC carried by the proposal is new information — also when the
        // block itself was a duplicate, an orphan or stale: the pacemaker
        // keeps moving.
        self.register_qc(&block.justify, out);

        // A proposal whose ancestry we cannot resolve now sits in the orphan
        // buffer: let state transfer watch the gap.
        let debounce = self.pacemaker.timeout() / 4;
        self.sync.watch(&self.forest, debounce, out);

        // Voting rule. A syncing replica never votes: it cannot evaluate the
        // safety rules against ancestry it does not have yet.
        if !self.sync.blocks_voting()
            && self.forest.contains(block_id)
            && self.safety.should_vote(block, &self.forest)
        {
            // `should_vote` just advanced the protocol's watermark to this
            // block; it goes to disk before the vote goes anywhere.
            let voted = self.safety.voted_view();
            self.disk.log_vote(voted, self.forest.high_qc(), out);
            out.cpu += self.cpu.sign();
            let vote = Vote::new(block_id, block_view, self.id, &self.keypair);
            // Where the vote goes (`None`: everywhere), and whether it also
            // counts here: a vote to the next leader is ours only if we are
            // that leader (then nothing leaves the process); a broadcast vote
            // always is.
            let next_leader = self.election.leader_of(block_view.next());
            let (to, ours) = match self.safety.vote_destination() {
                VoteDestination::NextLeader => (Some(next_leader), next_leader == self.id),
                VoteDestination::Broadcast => (None, true),
            };
            // The wire is the attacker's second surface: a vote forger sends
            // a flood in place of the honest vote. The honest vote is still
            // the one counted locally, so forging can only corrupt what goes
            // on the wire — where the receivers' ingress verification catches
            // it.
            if to != Some(self.id) {
                for wire in self.attack.wire_votes(&vote) {
                    match to {
                        Some(leader) => out.transport.unicast(leader, Message::Vote(wire)),
                        None => out.transport.broadcast(Message::Vote(wire)),
                    }
                }
            }
            if ours {
                self.on_vote(&vote, false, out);
            }
        }

        // A proposal deferred on a pending QC can go out once the missing
        // block (usually this very proposal) has been stored.
        self.maybe_release_deferred(out);
    }

    /// Only a vote `from_author` — neither a relay nor our own — may be
    /// relayed.
    fn on_vote(&mut self, vote: &Vote, from_author: bool, out: &mut Step<'_>) {
        out.cpu += self.cpu.verify(1);
        if self.safety.echo_messages() && from_author {
            out.transport.broadcast(Message::Vote(vote.clone()));
        }
        if let Some(qc) = self.quorum.add_vote(vote) {
            // Assembling the QC from votes that were each already verified
            // (and charged) on arrival is pure aggregation — no additional
            // signature check happens, so no additional `t_CPU` is charged.
            // The seed double-charged here.
            self.register_qc(&qc, out);
        }
    }

    /// Registers a QC everywhere it matters: forest, safety state, commit
    /// rule, pacemaker.
    fn register_qc(&mut self, qc: &QuorumCert, out: &mut Step<'_>) {
        if qc.is_genesis() {
            return;
        }
        if let Err(ForestError::UnknownBlock(_)) = self.forest.register_qc(qc.clone()) {
            self.pending_qcs.insert(qc.block, qc.clone());
        }

        self.safety.update_state(qc, &self.forest);
        if let Some(commit_id) = self.safety.try_commit(qc, &self.forest) {
            // The commit is learned in the view after the certifying QC's view
            // (that is when the QC reaches the replicas), which is the
            // convention behind the paper's block-interval metric.
            let learned_in = qc.view.next().max(self.current_view());
            self.commit(commit_id, learned_in, out);
        }

        if self.pacemaker.on_qc(qc) {
            self.enter_view(qc.view.next(), None, out);
        }
    }

    /// Acts on the pacemaker having just entered `view` (through `tc`, or a
    /// QC when `None`): forwards the TC, proposes if we lead, and arms the
    /// view's timer last.
    fn enter_view(&mut self, view: View, tc: Option<TimeoutCert>, out: &mut Step<'_>) {
        let via_timeout = tc.is_some();
        if let Some(tc) = tc {
            // Forward the TC to the new leader so it can adopt the highest QC
            // even if it did not form the TC itself.
            let leader = self.election.leader_of(view);
            if leader != self.id {
                out.transport.unicast(leader, Message::TimeoutCertMsg(tc));
            }
        }
        if self.election.is_leader(self.id, view) && self.proposed_in_view < view {
            if via_timeout && self.options.wait_for_timeout_on_view_change {
                let at = out.now + self.pacemaker.timeout();
                out.transport.schedule_proposal(view, at);
            } else if self.options.synchronous_epochs && self.safety.epoch_based() {
                // Synchronous epochs: the proposal goes out at the epoch
                // boundary (half the view timeout, so the liveness timer at
                // the full timeout still backstops a lost proposal), not as
                // soon as the previous epoch certifies.
                let at = out.now + self.pacemaker.timeout() / 2;
                out.transport.schedule_proposal(view, at);
            } else {
                self.propose_or_defer(view, out);
            }
        }
        // Keep the quorum tracker bounded.
        if view.as_u64() > 64 {
            self.quorum.prune_below(View(view.as_u64() - 64));
        }
        out.transport
            .arm_timer(view, out.now + self.pacemaker.timeout());
    }

    /// Proposes for `view` — unless the certification that advanced us refers
    /// to a block still in flight (on slow links, votes can outrun the
    /// proposal broadcast to the next leader). Proposing then would fork from
    /// a stale parent — a wasted view under one-chain locks like 2CHS, which
    /// refuse the fork. Wait for the block; the view timer still bounds the
    /// wait, so liveness is untouched.
    fn propose_or_defer(&mut self, view: View, out: &mut Step<'_>) {
        if self.high_qc_is_pending() {
            self.deferred_proposal = Some(view);
        } else {
            self.do_propose(view, out);
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
    fn maybe_release_deferred(&mut self, out: &mut Step<'_>) {
        let Some(view) = self.deferred_proposal else {
            return;
        };
        if view < self.current_view() {
            self.deferred_proposal = None;
            return;
        }
        if self.proposed_in_view < view && !self.high_qc_is_pending() {
            self.deferred_proposal = None;
            self.do_propose(view, out);
        }
    }

    fn do_propose(&mut self, view: View, out: &mut Step<'_>) {
        if self.sync.blocks_voting() {
            // A catching-up leader proposing would fork from stale state; the
            // view timer moves leadership on without it.
            return;
        }
        if let Some(from) = self.options.silence_from {
            if out.now >= from {
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
                out.transport.broadcast(Message::Proposal(block.clone()));
                self.on_proposal(&block, false, out);
            }
            None => {
                // Silence attack (or no proposal possible): give the batch
                // back so the transactions are not lost.
                self.mempool.requeue_front(input.payload);
            }
        }
    }

    fn commit(&mut self, id: BlockId, committed_in_view: View, out: &mut Step<'_>) {
        match self.forest.commit(id) {
            Ok(newly) => {
                if newly.is_empty() {
                    return;
                }
                self.ledger
                    .append(newly.iter().cloned(), committed_in_view, out.now);
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
                let (forest, ledger, committed_len) = (&self.forest, &self.ledger, newly.len());
                if out.committed.is_empty() {
                    out.committed = newly;
                } else {
                    out.committed.extend(newly);
                }
                let (disk, stats) = (&mut self.disk, &mut self.recovery);
                disk.log_commits(ledger, committed_len, forest.high_qc(), out);
                disk.checkpoint(self.config.checkpoint_interval, forest, ledger, stats, out);
            }
            Err(ForestError::ConflictingCommit { .. }) => {
                self.safety_violations += 1;
            }
            Err(_) => {}
        }
    }

    // ---- state transfer and restart ------------------------------------

    /// Starts (or retries) a catch-up episode for the suffix our ledger lacks.
    fn send_sync_request(&mut self, out: &mut Step<'_>) {
        let height = Height(self.ledger.len() as u64);
        let request = SyncRequest::new(self.id, self.ledger.head(), height, &self.keypair);
        let (nodes, timeout) = (self.config.nodes, self.pacemaker.timeout());
        let (sync, forest, stats) = (&mut self.sync, &self.forest, &mut self.recovery);
        sync.request(request, nodes, forest, timeout, stats, out);
    }

    /// Installs a state-transfer response: adopt the snapshot chunks if they
    /// take us ahead of everything we have, then replay the block suffix
    /// through the normal insert/QC path so commits fire through the
    /// protocol's own commit rule.
    fn on_sync_response(&mut self, resp: &SyncResponse, out: &mut Step<'_>) {
        let (forest, ledger, stats) = (&mut self.forest, &mut self.ledger, &mut self.recovery);
        match (self.sync).install(resp, forest, ledger, &mut self.disk, stats, out) {
            None => return,
            Some(false) => {}
            Some(true) => {
                self.pending_qcs.clear();
                self.deferred_proposal = None;
            }
        }
        for block in &resp.blocks {
            out.cpu += self.cpu.process_proposal(block.len());
            // Duplicates and orphans are handled inside the forest; either
            // way the carried QC is registered below.
            let _ = self.forest.insert(block.clone());
            self.register_qc(&block.justify, out);
        }
        self.register_qc(&resp.high_qc, out);
        self.sync.settle(&self.forest, out.now, &mut self.recovery);
    }

    /// Restarts this replica after a process death: every in-memory structure
    /// is discarded and rebuilt from what the disk kept — with
    /// [`Config::durable_log`] the checkpoint image plus the log's longest
    /// valid record prefix, after the optional crash-point `fault` mauled it;
    /// without a log the checkpoint chunks alone (none: genesis). The replica
    /// then asks the network for the history its disk did not cover —
    /// *before* arming the view timer, so the running sync episode suppresses
    /// proposing from stale state.
    pub fn restart(
        &mut self,
        now: SimTime,
        fault: Option<StorageFault>,
        transport: &mut dyn Transport,
    ) -> StepReport {
        let mut out = Step::new(now, transport, self.cpu);
        let (protocol, stats) = (self.protocol, &mut self.recovery);
        let rebuilt = self.disk.crash_and_replay(fault, protocol, stats, &mut out);
        // Everything else starts afresh, except what is not process state:
        // the disk, the recovery audit, and the counters of what went wrong
        // or what an attacker did so far.
        let fresh = Self::new(self.id, self.protocol, self.config.clone(), self.options);
        let dead = std::mem::replace(self, fresh);
        (self.disk, self.recovery, self.attack) = (dead.disk, dead.recovery, dead.attack);
        self.safety_violations = dead.safety_violations;
        (self.forest, self.ledger, self.safety) = (rebuilt.forest, rebuilt.ledger, rebuilt.safety);
        self.recovery.restarted_at = Some(now);
        self.recovery.caught_up_at = None;

        self.send_sync_request(&mut out);
        self.boot(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::BufferedTransport;
    use bamboo_forest::{chunks, Snapshot};
    use bamboo_types::{SharedMessage, TimeoutVote};

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

    /// Moves what one step of `from` sent into the recipients' inboxes,
    /// each entry `(from, to, message)`.
    fn deliver(
        from: NodeId,
        wire: &mut BufferedTransport,
        inbox: &mut Vec<(NodeId, NodeId, SharedMessage)>,
    ) {
        for (to, message) in wire.sends.drain(..) {
            let recipients = match to {
                Some(to) => to.0..to.0 + 1,
                None => 0..4,
            };
            for node in recipients.map(NodeId) {
                if to.is_some() || node != from {
                    inbox.push((from, node, message.clone()));
                }
            }
        }
    }

    fn drive_cluster(
        mut replicas: Vec<Replica>,
        views: u64,
        mut after_step: impl FnMut(&Replica),
    ) -> Vec<Replica> {
        let mut wire = BufferedTransport::new();
        let mut inbox: Vec<(NodeId, NodeId, SharedMessage)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (i, replica) in replicas.iter_mut().enumerate() {
            // Seed every replica's mempool.
            replica.admit(txs(200, 100 + i as u64));
        }
        for replica in replicas.iter_mut() {
            replica.start(now, &mut wire);
            deliver(replica.id(), &mut wire, &mut inbox);
        }
        // Round-based delivery until enough views pass.
        for _ in 0..(views * 40) {
            if inbox.is_empty() {
                break;
            }
            now += bamboo_types::SimDuration::from_micros(100);
            let batch = std::mem::take(&mut inbox);
            for (from, to, message) in batch {
                replicas[to.index()].receive(from, &message, now, &mut wire);
                after_step(&replicas[to.index()]);
                deliver(to, &mut wire, &mut inbox);
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

    const ALL_PROTOCOLS: [ProtocolKind; 4] = [
        ProtocolKind::HotStuff,
        ProtocolKind::TwoChainHotStuff,
        ProtocolKind::Streamlet,
        ProtocolKind::OriginalHotStuff,
    ];

    /// The highest vote watermark the durable log would restore.
    fn durable_voted_view(replica: &Replica) -> View {
        use crate::storage::{decode_safety_record, RecordKind};
        let replay = replica.storage().expect("durable log").replay();
        (replay.records.iter())
            .filter(|(kind, _)| *kind == RecordKind::SafetyRecord)
            .map(|(_, payload)| decode_safety_record(payload).unwrap().0)
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
                victim.restart(SimTime(1_000_000_000), flip, &mut BufferedTransport::new());
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
        let (mut asked, mut served) = (BufferedTransport::new(), BufferedTransport::new());
        lagging.send_sync_request(&mut Step::new(now, &mut asked, lagging.cpu));
        for (_, request) in std::mem::take(&mut asked.sends) {
            server.receive(lagging.id, &request, now, &mut served);
            for (_, reply) in served.sends.drain(..) {
                lagging.receive(server.id, &reply, now, &mut asked);
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
            let stale = lagging.disk.image();
            let behind = lagging.ledger().len() as u64;
            assert!(chunks(&stale).count() >= 2, "lagging replica cut chunks");
            let cut = server.disk.checkpoint_height();
            assert!(cut >= behind + 8, "two checkpoints behind");
            let full_image = Snapshot::encode(server.forest(), server.ledger()).len() as u64;

            let now = SimTime(1_000_000_000);
            sync_round(&mut lagging, &mut server, now);
            let stats = lagging.recovery_stats();
            assert_eq!(stats.snapshots_installed, 1);
            // Bounded transfer: only the chunks above our height came over.
            assert!(stats.sync_bytes_received < full_image, "suffix, not image");
            assert!(lagging.ledger().consistent_with(server.ledger()));
            assert!(lagging.ledger().len() as u64 >= cut);

            // The next checkpoint re-bases: one `from == 0` chunk replaces
            // everything stored before the adoption.
            while lagging.disk.checkpoint_height() == 0 {
                sync_round(&mut lagging, &mut server, now);
                let (forest, ledger, stats) =
                    (&lagging.forest, &lagging.ledger, &mut lagging.recovery);
                let mut wire = BufferedTransport::new();
                let out = &mut Step::new(now, &mut wire, lagging.cpu);
                (lagging.disk).checkpoint(Some(4), forest, ledger, stats, out);
            }
            let image = lagging.disk.image();
            let stored: Vec<_> = chunks(&image).map(Result::unwrap).collect();
            assert_eq!(stored.len(), 1, "stale chunks discarded");
            let rebased = lagging.disk.checkpoint_height();
            assert_eq!((stored[0].from, stored[0].to), (0, rebased));
            let restored = Snapshot::decode(&image).expect("re-based image decodes");
            assert!(restored.ledger.consistent_with(server.ledger()));
            assert_eq!(restored.ledger.len() as u64, rebased);
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

    fn replica(id: u64, protocol: ProtocolKind) -> Replica {
        Replica::new(NodeId(id), protocol, config(4), ReplicaOptions::default())
    }

    /// Node 1's proposal for view 1.
    fn first_proposal(protocol: ProtocolKind) -> Message {
        let (mut leader, mut wire) = (replica(1, protocol), BufferedTransport::new());
        leader.admit(txs(10, 7));
        leader.start(SimTime::ZERO, &mut wire);
        (wire.sends.iter())
            .find(|(_, message)| matches!(**message, Message::Proposal(_)))
            .map(|(_, message)| Message::clone(message))
            .expect("node 1 leads view 1")
    }

    /// What `replica` sends, in order, when `message` arrives from `from`.
    fn sends(
        replica: &mut Replica,
        from: u64,
        message: &Message,
    ) -> Vec<(Option<NodeId>, SharedMessage)> {
        let mut wire = BufferedTransport::new();
        replica.receive(NodeId(from), message, SimTime(1_000), &mut wire);
        wire.sends
    }

    /// Whether a send of replica `id` passes on a message someone else wrote.
    fn relays(id: u64) -> impl Fn(&(Option<NodeId>, SharedMessage)) -> bool {
        move |(_, message)| match &**message {
            Message::Proposal(block) => block.proposer != NodeId(id),
            Message::Vote(vote) => vote.voter != NodeId(id),
            _ => false,
        }
    }

    /// A relay is the author's own message re-broadcast: a Streamlet replica
    /// relays a proposal or a vote once, and only when it came from its
    /// author.
    #[test]
    fn streamlet_relays_once_what_comes_from_its_author() {
        let proposal = first_proposal(ProtocolKind::Streamlet);
        let [mut follower, mut other, mut fresh] =
            [2, 3, 0].map(|i| replica(i, ProtocolKind::Streamlet));

        // From its proposer: one relay, the very proposal, as the first effect.
        let sent = sends(&mut follower, 1, &proposal);
        assert_eq!(sent[0], (None, SharedMessage::new(proposal.clone())));
        assert_eq!(
            sent.iter().filter(|send| relays(2)(send)).count(),
            1,
            "{sent:?}"
        );
        let vote = (sent.iter())
            .find_map(|(_, message)| match &**message {
                Message::Vote(vote) => Some(Message::Vote(vote.clone())),
                _ => None,
            })
            .expect("the follower votes");
        // The same proposal again, or from another sender: no relay.
        assert!(!sends(&mut follower, 1, &proposal).iter().any(relays(2)));
        assert!(!sends(&mut other, 2, &proposal).iter().any(relays(3)));

        // A vote from its voter: one relay, the same vote; from another
        // sender: none.
        let relayed = sends(&mut other, 2, &vote);
        assert_eq!(relayed, [(None, SharedMessage::new(vote.clone()))]);
        assert!(sends(&mut fresh, 3, &vote).is_empty());
    }

    #[test]
    fn hotstuff_never_relays() {
        let proposal = first_proposal(ProtocolKind::HotStuff);
        let Message::Proposal(block) = &proposal else {
            unreachable!("a proposal")
        };
        let mut follower = replica(3, ProtocolKind::HotStuff);
        assert!(!sends(&mut follower, 1, &proposal).iter().any(relays(3)));
        let vote = Vote::new(block.id, block.view, NodeId(0), &KeyPair::from_seed(0));
        assert!(sends(&mut follower, 0, &Message::Vote(vote)).is_empty());
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
        let mut wire = BufferedTransport::new();
        replica.admit(txs(25, 7));
        assert_eq!(replica.mempool_len(), 25);
        // Node 1 leads view 1: starting it proposes a block with 10 txs.
        replica.start(SimTime::ZERO, &mut wire);
        assert_eq!(replica.mempool_len(), 15);
        let proposal = (wire.sends.iter())
            .find_map(|(_, message)| match &**message {
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
        let mut wire = BufferedTransport::new();
        replica.start(SimTime(5), &mut wire);
        assert!(wire.sends.is_empty());
        assert_eq!(
            wire.timers,
            [(View(1), SimTime(5) + replica.config().timeout)]
        );
    }

    #[test]
    fn a_timeout_certificate_enters_the_next_view_and_arms_its_timer() {
        let cfg = config(4);
        let mut replica = Replica::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            cfg,
            ReplicaOptions::default(),
        );
        let mut wire = BufferedTransport::new();
        replica.start(SimTime::ZERO, &mut wire);
        wire.clear();
        let now = SimTime(1_000);
        for voter in 0..3 {
            let key = KeyPair::from_seed(voter);
            let vote = TimeoutVote::new(View(1), NodeId(voter), QuorumCert::genesis(), &key);
            replica.receive(NodeId(voter), &Message::Timeout(vote), now, &mut wire);
        }
        assert_eq!(replica.current_view(), View(2));
        assert_eq!(replica.timeout_view_changes(), 1);
        assert_eq!(wire.timers, [(View(2), now + replica.config().timeout)]);
        // The TC goes on to view 2's leader.
        let forwarded = (wire.sends.iter())
            .any(|(to, m)| *to == Some(NodeId(2)) && matches!(**m, Message::TimeoutCertMsg(_)));
        assert!(forwarded);
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
        let mut wire = BufferedTransport::new();
        replica.start(SimTime::ZERO, &mut wire);
        let fired = ReplicaEvent::TimerFired { view: View(1) };
        let report = replica.handle(fired, SimTime(200_000_000), &mut wire);
        assert!((wire.sends.iter()).any(|(_, message)| matches!(**message, Message::Timeout(_))));
        assert_eq!(report.cpu, replica.cpu.sign(), "the timeout vote is signed");
    }

    /// A timer for a view the replica has left signs nothing, so it costs
    /// nothing and writes nothing.
    #[test]
    fn a_timer_for_a_left_view_is_free_and_silent() {
        let mut replica = Replica::new(
            NodeId(3),
            ProtocolKind::HotStuff,
            config(4),
            ReplicaOptions::default(),
        );
        let mut wire = BufferedTransport::new();
        replica.start(SimTime::ZERO, &mut wire);
        let qc = QuorumCert {
            block: Default::default(),
            view: View(1),
            signatures: Default::default(),
        };
        assert!(replica.pacemaker.on_qc(&qc), "the replica leaves view 1");
        wire.clear();
        let fired = ReplicaEvent::TimerFired { view: View(1) };
        let report = replica.handle(fired, SimTime(200_000_000), &mut wire);
        assert!(report.cpu.is_zero(), "charged {:?}", report.cpu);
        assert!(wire.sends.is_empty() && wire.timers.is_empty());
        assert!(wire.proposals.is_empty() && wire.sync_timers.is_empty());
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
        let mut wire = BufferedTransport::new();
        replica.admit(txs(25, 7));
        replica.start(SimTime::ZERO, &mut wire);
        assert!(wire.sends.is_empty(), "silenced leader never proposes");
        assert_eq!(replica.mempool_len(), 25, "batch returned to the pool");
    }
}
