//! The replica node: Bamboo's `Replica` assembled from the shared modules.
//!
//! A [`Replica`] is a pure state machine. It consumes verified messages and
//! admitted client transactions — both only through its
//! [`crate::NodeHost`], which holds the proof tokens — and the local
//! deadlines of [`ReplicaEvent`], writes what should happen next — messages
//! to send, timers to arm — into the [`BufferedTransport`] its host hands
//! it, and returns a [`StepReport`]: CPU time consumed and blocks that became
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
    Block, BlockId, ByzantineStrategy, Config, Message, NodeId, ProtocolKind, QuorumCert,
    SharedBlock, SimDuration, SimTime, TimeoutCert, Transaction, VerifiedMessage, View, Vote,
};

use crate::durability::Disk;
use crate::handoff;
use crate::metrics::RecoveryStats;
use crate::quorum::QuorumTracker;
pub use crate::runtime::ReplicaEvent;
use crate::runtime::{BufferedTransport, Step, StepReport};
use crate::storage::{SegmentLog, StorageFault};
use crate::sync::{self, SyncState};

mod recovery;

/// The id check of a received proposal's block (`VerifiedMessage::block_checked`).
type BlockCheck<'a> = &'a dyn Fn(&Block) -> bool;

/// Per-replica behavioural options that are not part of the shared [`Config`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaOptions {
    /// After a timeout-driven view change, wait for the view timeout before
    /// proposing instead of proposing as soon as the TC arrives. This models
    /// the non-responsive deployment of Fig. 15 ("t100" setting).
    pub wait_for_timeout_on_view_change: bool,
    /// Model synchronous epochs for epoch-based protocols (Streamlet): a
    /// leader proposes half a view timeout after entering an epoch (the
    /// epoch `2Δ̂`, the timeout `4Δ̂`), not as soon as the previous epoch
    /// certifies. Off by default (the responsive approximation); WAN
    /// scenarios switch it on to expose the synchrony cost of heterogeneous
    /// delays.
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
    copies: handoff::Copies,
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
    /// Creates replica `id` in the role its seat's entry in
    /// [`Config::attacks`] gives it (honest without one), charging its work
    /// at `config.cpu_delay`.
    pub fn new(
        id: NodeId,
        protocol: ProtocolKind,
        config: Config,
        options: ReplicaOptions,
    ) -> Self {
        let election = LeaderElection::new(config.nodes, config.leader_policy);
        let cpu = CpuModel::new(config.cpu_delay).with_per_tx(SimDuration::from_nanos(400));
        let role = config.attacks.iter().find(|attack| attack.node == id);
        let strategy = role.map_or(ByzantineStrategy::Honest, |role| role.strategy);
        let from = role.map_or(SimTime::ZERO, |role| role.from);
        Self {
            id,
            protocol,
            keypair: KeyPair::from_seed(id.as_u64()),
            election,
            forest: BlockForest::new(),
            mempool: Mempool::new(config.mempool_size),
            copies: handoff::Copies::default(),
            pacemaker: Pacemaker::new(id, config.nodes, config.timeout),
            safety: make_protocol(protocol),
            attack: Attack::new(strategy, config.nodes, from),
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

    /// The CPU cost model this replica charges its work against (its
    /// config's `t_CPU`).
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

    /// Mempool admission, handoff and flow counters; the run report folds
    /// them across replicas, so backpressure is never silent.
    pub fn mempool_stats(&self) -> MempoolStats {
        self.mempool.stats()
    }

    /// Number of timeout-driven view changes so far.
    pub fn timeout_view_changes(&self) -> u64 {
        self.pacemaker.timeout_view_changes()
    }

    /// The replica's Byzantine strategy and what it did (the identity for an
    /// honest replica).
    pub fn attack(&self) -> &Attack {
        &self.attack
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
    pub fn start(&mut self, now: SimTime, transport: &mut BufferedTransport) -> StepReport {
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
        transport: &mut BufferedTransport,
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
                    out.broadcast(Message::Timeout(vote));
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
    /// mempool, and hands a copy to a leader ahead (`handoff.rs`).
    pub(crate) fn admit(&mut self, txs: Vec<Transaction>, out: &mut Step<'_>) {
        let ahead = self.handoff_target();
        handoff::admit(&mut self.mempool, &mut self.copies, ahead, txs, out);
    }

    /// Where a copy goes from here (`handoff::target`).
    fn handoff_target(&self) -> Option<(View, NodeId)> {
        let (view, voted) = (self.current_view(), self.safety.voted_view());
        let (me, proposed, paced) = (self.id, self.proposed_in_view, self.epoch_paced());
        handoff::target(&self.election, me, view, proposed, voted, paced)
    }

    /// Whether a leader proposes at its epoch boundary, not on a QC (DESIGN.md §4.4).
    fn epoch_paced(&self) -> bool {
        self.options.synchronous_epochs && self.safety.epoch_based()
    }

    /// Handles one verified message by reference, cloning only what the
    /// replica keeps: a broadcast's recipients share one envelope, and the
    /// one id check of a proposal's block (`VerifiedMessage::block_checked`).
    pub(crate) fn deliver(
        &mut self,
        verified: &VerifiedMessage,
        now: SimTime,
        transport: &mut BufferedTransport,
    ) -> StepReport {
        let mut step = Step::new(now, transport, self.cpu);
        let (from, message) = (verified.sender(), verified.message());
        self.on_message(from, message, &|_| verified.block_checked(), &mut step);
        step.finish()
    }

    // ---- internal handlers --------------------------------------------

    fn on_message(
        &mut self,
        from: NodeId,
        message: &Message,
        block_checked: BlockCheck<'_>,
        out: &mut Step<'_>,
    ) {
        match message {
            // `from_author`: honest replicas send only their own proposals and
            // votes, so one from anyone else is already a relay.
            Message::Proposal(block) => {
                self.on_proposal(block, from == block.proposer, block_checked, out)
            }
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
            Message::Handoff(h) => {
                (self.copies).receive(&mut self.mempool, self.pacemaker.current_view(), h)
            }
        }
    }

    /// A received proposal, checked in the two halves of Eq. 4's flat charge
    /// (`CpuModel::process_proposal`). The ingress checked its QC; the
    /// commit that QC completes needs nothing else of the block, so it is
    /// made before the block's id — the proposer's binding and every
    /// transaction — is checked. Two steps keep the whole check first: one
    /// that relays the block (the relay goes to every other replica as soon
    /// as the block is checked, ahead of any commit records), and one whose
    /// block's own QC is already waiting (that QC commits further once the
    /// block is stored). The pacemaker moves on the QC after the check, so
    /// every send leaves where it would after the whole check.
    fn on_proposal(
        &mut self,
        block: &SharedBlock,
        from_author: bool,
        block_checked: BlockCheck<'_>,
        out: &mut Step<'_>,
    ) {
        // Relay a proposal from its author once (Streamlet's O(n^3)
        // behaviour), if new: the very message, a pointer bump.
        let relay = self.safety.echo_messages() && from_author && !self.forest.contains(block.id);
        let early = !relay && !self.pending_qcs.contains_key(&block.id);
        out.cpu += self.cpu.proposal_qc();
        let committed = early && self.certify(&block.justify, false, out);
        out.cpu += self.cpu.proposal_block(block.len());
        if !block_checked(block) {
            // A block whose id does not bind goes no further; a QC already
            // acted on, which was checked, stands.
            if early {
                self.settle(&block.justify, committed, out);
            }
            return;
        }
        if relay {
            out.broadcast(Message::Proposal(block.clone()));
        }
        let stored = self.store(block, out);
        if early {
            self.settle(&block.justify, committed, out);
        } else {
            self.register_qc(&block.justify, out);
        }
        self.adopt(block, stored, out);
    }

    /// Stores a proposal and registers a QC that waited for it: true if it
    /// is attached.
    fn store(&mut self, block: &SharedBlock, out: &mut Step<'_>) -> bool {
        // Store the block (orphans are buffered inside the forest). Inserting
        // the shared handle keeps the payload un-copied.
        let stored = self.forest.insert(block.clone()).is_ok();
        if stored {
            if let Some(qc) = self.pending_qcs.remove(&block.id) {
                self.register_qc(&qc, out);
            }
        }
        stored
    }

    /// Acts on a stored proposal, checked or our own (nothing to check):
    /// watches for a gap in its ancestry, votes, and passes on what waited.
    fn adopt(&mut self, block: &SharedBlock, stored: bool, out: &mut Step<'_>) {
        let (block_id, block_view) = (block.id, block.view);
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
                for wire in self.attack.wire_votes(out.now, &vote) {
                    match to {
                        Some(leader) => out.unicast(leader, Message::Vote(wire)),
                        None => out.broadcast(Message::Vote(wire)),
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
        // What a copy for this view missed goes on, after the vote (`handoff.rs`).
        if stored && self.copies.awaits(block_view) {
            let (aim, pool, forest) = (self.handoff_target(), &mut self.mempool, &self.forest);
            (self.copies).settle(block_view, &block.payload, pool, forest, aim, out);
        }
    }

    /// Only a vote `from_author` — neither a relay nor our own — may be
    /// relayed. A quorum's votes are checked in passes of up to four as
    /// they arrive (`CpuModel::verify_batch`, `quorum::Counted`): a vote
    /// pays for the pass it closes — the short pass first, so the vote that
    /// completes the quorum pays for a full one before the proposal its QC
    /// releases — and any other vote — a second copy, a vote for a
    /// certified block — is dropped unchecked. Our own vote, signed here, is
    /// never checked.
    fn on_vote(&mut self, vote: &Vote, from_author: bool, out: &mut Step<'_>) {
        if self.safety.echo_messages() && from_author {
            out.broadcast(Message::Vote(vote.clone()));
        }
        let counted = self.quorum.add_vote(vote, vote.voter == self.id);
        out.cpu += self.cpu.verify_batch(counted.pass);
        if let Some(qc) = counted.qc {
            self.register_qc(&qc, out);
        }
    }

    /// Registers a QC everywhere it matters: forest, safety state, commit
    /// rule, pacemaker.
    fn register_qc(&mut self, qc: &QuorumCert, out: &mut Step<'_>) {
        self.certify(qc, true, out);
        self.advance(qc, out);
    }

    /// A QC's first half: the forest, the safety state and the commit rule;
    /// true if it committed. A commit cuts the checkpoint it makes due only
    /// if `cut`; otherwise the caller cuts it (`Replica::disk_checkpoint`)
    /// once the step's block is stored, so the image holds what it would.
    fn certify(&mut self, qc: &QuorumCert, cut: bool, out: &mut Step<'_>) -> bool {
        if qc.is_genesis() {
            return false;
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
            if self.commit(commit_id, learned_in, out) {
                if cut {
                    self.disk_checkpoint(out);
                }
                return true;
            }
        }
        false
    }

    /// A QC's second half: the pacemaker.
    fn advance(&mut self, qc: &QuorumCert, out: &mut Step<'_>) {
        if !qc.is_genesis() && self.pacemaker.on_qc(qc) {
            self.enter_view(qc.view.next(), None, out);
        }
    }

    /// Ends what `certify(qc, false, ..)` began: the checkpoint its commit
    /// made due, then the pacemaker.
    fn settle(&mut self, qc: &QuorumCert, committed: bool, out: &mut Step<'_>) {
        if committed {
            self.disk_checkpoint(out);
        }
        self.advance(qc, out);
    }

    /// Acts on the pacemaker having just entered `view` (through `tc`, or a
    /// QC when `None`): forwards the TC, proposes if we lead, and arms the
    /// view's timer last.
    fn enter_view(&mut self, view: View, tc: Option<TimeoutCert>, out: &mut Step<'_>) {
        let via_timeout = tc.is_some();
        if let Some(tc) = tc {
            // Copies for a view that timed out go on (`handoff.rs`).
            let (aim, pool, forest) = (self.handoff_target(), &mut self.mempool, &self.forest);
            (self.copies).settle(tc.view, &[], pool, forest, aim, out);
            // Forward the TC to the new leader: it adopts the TC's high QC.
            let leader = self.election.leader_of(view);
            if leader != self.id {
                out.unicast(leader, Message::TimeoutCertMsg(tc));
            }
        }
        if self.election.is_leader(self.id, view) && self.proposed_in_view < view {
            if via_timeout && self.options.wait_for_timeout_on_view_change {
                let at = out.now + self.pacemaker.timeout();
                out.transport.schedule_proposal(view, at);
            } else if self.epoch_paced() {
                // The liveness timer at the full timeout still backstops a
                // proposal lost at the epoch boundary.
                let at = out.now + self.pacemaker.timeout() / 2;
                out.transport.schedule_proposal(view, at);
            } else {
                self.propose_or_defer(view, out);
            }
        }
        // Keep the quorum tracker bounded.
        (self.quorum).prune_below(View(view.as_u64().saturating_sub(64)));
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
        self.proposed_in_view = view;
        // Stale held copies go; what a pending block carries stays (`handoff.rs`).
        let (pool, forest, max) = (&mut self.mempool, &self.forest, self.config.block_size);
        let payload = self.copies.take_batch(view, pool, forest, max);
        let payload_len = payload.len();
        let input = ProposalInput {
            view,
            proposer: self.id,
            payload,
        };
        match (self.attack).propose(out.now, &*self.safety, &input, &self.forest) {
            Some(block) => {
                out.cpu += self.cpu.assemble_block(payload_len);
                // One shared handle: the broadcast and the store are pointer
                // bumps. The proposer built the block and its QC from checked
                // votes, so it stores the block and votes without checking.
                let block = SharedBlock::new(block);
                out.broadcast(Message::Proposal(block.clone()));
                let stored = self.store(&block, out);
                self.register_qc(&block.justify, out);
                self.adopt(&block, stored, out);
            }
            None => {
                // Silence attack (or no proposal possible): give the batch
                // back so the transactions are not lost.
                self.mempool.requeue_front(input.payload);
            }
        }
    }

    /// Commits `id` and what it extends: true if anything was new.
    fn commit(&mut self, id: BlockId, committed_in_view: View, out: &mut Step<'_>) -> bool {
        match self.forest.commit(id) {
            Ok(newly) => {
                if newly.is_empty() {
                    return false;
                }
                self.ledger
                    .append(newly.iter().cloned(), committed_in_view, out.now);
                // Drop committed transactions we might still hold, and recover
                // transactions from forked branches that lost.
                let from = self.ledger.len() - newly.len();
                handoff::forget_committed(&mut self.mempool, &self.ledger, from);
                let forked = self.forest.prune_to_committed();
                handoff::requeue_forked(&mut self.mempool, &self.ledger, self.id, forked);
                let (forest, ledger, committed_len) = (&self.forest, &self.ledger, newly.len());
                if out.committed.is_empty() {
                    out.committed = newly;
                } else {
                    out.committed.extend(newly);
                }
                let disk = &mut self.disk;
                disk.log_commits(ledger, committed_len, forest.high_qc(), out);
                // The commit is confirmed once it is logged; a checkpoint
                // cut is housekeeping behind it (`Replica::certify`).
                out.commit_mark = out.cpu;
                true
            }
            Err(ForestError::ConflictingCommit { .. }) => {
                self.safety_violations += 1;
                false
            }
            Err(_) => false,
        }
    }

    /// Cuts a checkpoint if the commits since the last one make it due.
    fn disk_checkpoint(&mut self, out: &mut Step<'_>) {
        let (interval, stats) = (self.config.checkpoint_interval, &mut self.recovery);
        (self.disk).checkpoint(interval, &self.forest, &self.ledger, stats, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_forest::{chunks, Snapshot};
    use bamboo_types::{ids::quorum_threshold, SeatAttack, SharedMessage, TimeoutVote};

    impl Replica {
        /// [`Replica::deliver`] for a bare message: a proposal's block id is
        /// hashed here.
        fn receive(
            &mut self,
            from: NodeId,
            message: &Message,
            now: SimTime,
            transport: &mut BufferedTransport,
        ) -> StepReport {
            let mut step = Step::new(now, transport, self.cpu);
            self.on_message(from, message, &Block::verify_id, &mut step);
            step.finish()
        }
    }

    fn config(nodes: usize) -> Config {
        Config {
            nodes,
            block_size: 10,
            seed: 1,
            ..Config::default()
        }
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
    /// each entry `(from, to, message)`, and returns each send with its
    /// mark.
    fn deliver(
        from: NodeId,
        wire: &mut BufferedTransport,
        inbox: &mut Vec<(NodeId, NodeId, SharedMessage)>,
    ) -> Vec<(SharedMessage, SimDuration)> {
        let mut marked = Vec::new();
        wire.tally_sends(4, |to, message, _, mark| {
            let recipients = match to {
                Some(to) => to.0..to.0 + 1,
                None => 0..4,
            };
            for node in recipients.map(NodeId) {
                if to.is_some() || node != from {
                    inbox.push((from, node, message.clone()));
                }
            }
            marked.push((message, mark));
            SimTime::ZERO
        });
        marked
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
            admit(replica, txs(200, 100 + i as u64), &mut wire);
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
        Config {
            nodes: 4,
            block_size: 10,
            seed: 1,
            checkpoint_interval: Some(interval),
            durable_log,
            ..Config::default()
        }
    }

    /// The highest vote watermark the durable log would restore.
    fn durable_voted_view(replica: &Replica) -> View {
        use crate::storage::Record;
        let replay = replica.storage().expect("durable log").replay();
        let voted = |(kind, payload): &(_, Vec<u8>)| match Record::decode(*kind, payload) {
            Ok(Record::Safety(view, _)) => Some(view),
            _ => None,
        };
        (replay.records.iter().filter_map(voted)).fold(View::GENESIS, View::max)
    }

    #[test]
    fn vote_watermark_survives_every_checkpoint_cut() {
        // A cut prunes every older segment, the newest SafetyRecord with
        // them; Streamlet commits from `on_vote`, so no vote follows in the
        // same step to rewrite it. Whatever the protocol, a crash right after
        // any cut must still restore the live watermark.
        for protocol in ProtocolKind::evaluated() {
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
        let cfg = Config {
            nodes: 4,
            block_size: 10,
            seed: 1,
            durable_log: true,
            fsync_interval: 4,
            ..Config::default()
        };
        for protocol in ProtocolKind::evaluated() {
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

    /// Admits `txs` at `replica` in a step of its own, writing into `wire`.
    fn admit(replica: &mut Replica, txs: Vec<Transaction>, wire: &mut BufferedTransport) {
        let cpu = replica.cpu;
        replica.admit(txs, &mut Step::new(SimTime::ZERO, wire, cpu));
    }

    /// The proposer built its block, and the QC the block carries from
    /// votes it checked: proposing costs assembling the block and signing
    /// the proposer's own vote, nothing for checking either. A follower pays
    /// `process_proposal` for the same block, and its vote's signature.
    #[test]
    fn a_proposer_pays_nothing_to_check_its_own_block() {
        for protocol in ProtocolKind::evaluated() {
            let (mut leader, mut wire) = (replica(1, protocol), BufferedTransport::new());
            admit(&mut leader, txs(10, 7), &mut wire);
            let proposing = leader.start(SimTime::ZERO, &mut wire).cpu;
            let cpu = leader.cpu;
            assert_eq!(
                proposing,
                cpu.assemble_block(10) + cpu.sign(),
                "{protocol:?}"
            );
            assert_eq!(
                leader.safety.voted_view(),
                View(1),
                "{protocol:?}: it voted"
            );

            let proposal = first_proposal(protocol);
            let mut follower = replica(2, protocol);
            let mut wire = BufferedTransport::new();
            let checking = (follower.receive(NodeId(1), &proposal, SimTime(1), &mut wire)).cpu;
            assert_eq!(
                checking,
                cpu.process_proposal(10) + cpu.sign(),
                "{protocol:?}"
            );
            assert_eq!(
                follower.safety.voted_view(),
                View(1),
                "{protocol:?}: it voted"
            );
        }
    }

    /// A replica commits on a received proposal once it has checked the QC
    /// the proposal carries, one aggregate: the rest of the block — the
    /// proposer's signature, the transactions — is checked after the
    /// commit (and, under a durable log, after its records are written).
    /// A Streamlet relay leaves once the whole block is checked, ahead of
    /// any commit records; a vote leaves once the whole block is checked and
    /// the commit and the vote are logged.
    #[test]
    fn a_commit_on_a_proposal_waits_for_its_qc_not_for_the_rest_of_the_block() {
        for (cfg, logged) in [(config(4), false), (checkpointing(2, true), true)] {
            for protocol in ProtocolKind::evaluated() {
                let seen = commits_on_proposals(cfg.clone(), protocol, logged);
                let (commits, votes, relays) = seen;
                assert!(votes > 0, "{protocol:?}");
                if protocol == ProtocolKind::Streamlet {
                    // Relays in steps that commit: node 3 learns QCs from
                    // proposals first.
                    assert!(relays > 0, "{protocol:?} logged {logged}");
                } else {
                    assert!(commits > 0, "{protocol:?} logged {logged}");
                }
            }
        }
    }

    /// Drives a 4-seat cluster and checks the marks of every step on a
    /// proposal from its author: `(commits, votes, relays)` checked, the
    /// relays counted only in steps that commit. Under Streamlet every vote
    /// reaches node 3 two rounds late, so it commits on the QCs proposals
    /// carry.
    fn commits_on_proposals(cfg: Config, protocol: ProtocolKind, logged: bool) -> (u32, u32, u32) {
        let mut replicas = cluster(cfg, protocol);
        let cpu = replicas[0].cpu;
        let mut wire = BufferedTransport::new();
        let mut inbox: Vec<(NodeId, NodeId, SharedMessage)> = Vec::new();
        for replica in replicas.iter_mut() {
            admit(replica, txs(200, 100 + replica.id().0), &mut wire);
        }
        for replica in replicas.iter_mut() {
            replica.start(SimTime::ZERO, &mut wire);
            deliver(replica.id(), &mut wire, &mut inbox);
        }
        let (mut commits, mut votes, mut relays) = (0, 0, 0);
        let mut held = Vec::new();
        for round in 1..=40 {
            let now = SimTime(round * 100_000);
            let mut batch: Vec<_> = std::mem::take(&mut inbox)
                .into_iter()
                .map(|e| (true, e))
                .collect();
            let (due, later) = held.into_iter().partition(|(at, _)| *at <= round);
            held = later;
            // `fresh`: not held yet; a vote is held once.
            batch.extend(due.into_iter().map(|(_, entry)| (false, entry)));
            for (fresh, (from, to, message)) in batch {
                let late = protocol == ProtocolKind::Streamlet && to == NodeId(3);
                if fresh && late && matches!(*message, Message::Vote(_)) {
                    held.push((round + 2, (from, to, message)));
                    continue;
                }
                let replica = &mut replicas[to.index()];
                let report = replica.receive(from, &message, now, &mut wire);
                let sent = deliver(to, &mut wire, &mut inbox);
                let Message::Proposal(block) = &*message else {
                    continue;
                };
                if block.proposer != from {
                    continue;
                }
                let checked = cpu.process_proposal(block.len());
                let mut voted = None;
                for (sent, mark) in &sent {
                    match &**sent {
                        Message::Proposal(relayed) if relayed.proposer != to => {
                            assert_eq!(*mark, checked, "{protocol:?}: a relay");
                            relays += u32::from(!report.committed.is_empty());
                        }
                        Message::Vote(vote) if vote.block == block.id => {
                            // Unlogged, nothing comes between the check and
                            // the signature.
                            assert!(*mark >= checked + cpu.sign(), "{protocol:?}");
                            assert!(logged || *mark == checked + cpu.sign(), "{protocol:?}");
                            voted = Some(*mark);
                            votes += 1;
                        }
                        _ => {}
                    }
                }
                // A vote counted here may complete a certificate and commit
                // after it: only a replica that sends its vote away commits
                // on the proposal's QC alone.
                let sends_vote_away = replica.safety.vote_destination()
                    == VoteDestination::NextLeader
                    && replica.election.leader_of(block.view.next()) != to;
                if sends_vote_away && !report.committed.is_empty() {
                    let mark = report.commit_mark;
                    if logged {
                        // The commit's records follow the QC; the rest of
                        // the block and the vote follow them.
                        assert!(mark > cpu.proposal_qc(), "{protocol:?}");
                        let vote = voted.expect("a vote after the commit");
                        let rest = cpu.proposal_block(block.len()) + cpu.sign();
                        assert!(mark + rest < vote, "{protocol:?}");
                    } else {
                        assert_eq!(mark, cpu.proposal_qc(), "{protocol:?}");
                    }
                    commits += 1;
                }
            }
        }
        (commits, votes, relays)
    }

    /// A block whose id does not bind is dropped once the replica has acted
    /// on its QC: the whole check is paid, nothing is stored or sent.
    #[test]
    fn a_block_that_does_not_bind_is_checked_and_dropped() {
        for protocol in ProtocolKind::evaluated() {
            let Message::Proposal(block) = first_proposal(protocol) else {
                unreachable!("a proposal")
            };
            let mut tampered = Block::clone(&block);
            tampered.payload.pop();
            let mut follower = replica(2, protocol);
            let mut wire = BufferedTransport::new();
            let proposal = Message::Proposal(SharedBlock::new(tampered));
            let report = follower.receive(NodeId(1), &proposal, SimTime(1), &mut wire);
            let cpu = follower.cpu;
            assert_eq!(report.cpu, cpu.process_proposal(9), "{protocol:?}");
            assert!(wire.sends.is_empty(), "{protocol:?}");
            assert!(!follower.forest.contains(block.id), "{protocol:?}");
            assert_eq!(follower.safety.voted_view(), View(0), "{protocol:?}");
        }
    }

    /// Node 1's proposal for view 1.
    fn first_proposal(protocol: ProtocolKind) -> Message {
        let (mut leader, mut wire) = (replica(1, protocol), BufferedTransport::new());
        admit(&mut leader, txs(10, 7), &mut wire);
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

    /// A quorum's votes are checked in passes of up to four as they arrive,
    /// the short pass first: a vote that closes a pass pays one, the vote
    /// that completes the quorum closes a full one, and every other vote
    /// pays nothing — a relayed copy, a second copy of a counted vote, a
    /// vote after the QC, the collector's own. The passes sum to one batched
    /// check of the certificate less its own vote. What comes from its
    /// author is relayed once all the same (Streamlet).
    #[test]
    fn a_quorum_is_checked_four_to_a_pass_as_its_votes_arrive() {
        for protocol in ProtocolKind::evaluated() {
            let Message::Proposal(block) = first_proposal(protocol) else {
                unreachable!("a proposal")
            };
            // The votes that pay a pass: at n = 4 only the quorum's; at
            // n = 32 (q = 22) vote 2 closes the short pass and every fourth
            // vote after it a full one. Vote 4 is node 3's own: it needs no
            // check.
            for (n, paying) in [(4, &[3][..]), (32, &[2, 6, 10, 14, 18, 22])] {
                // Node 3 leads neither view 1 nor view 2: the QC is all it does.
                let options = ReplicaOptions::default();
                let mut tally = Replica::new(NodeId(3), protocol, config(n), options);
                let (cpu, echoes) = (tally.cpu_model(), tally.safety.echo_messages());
                let mut step = |from: u64, voter: u64| {
                    let key = KeyPair::from_seed(voter);
                    let vote = Message::Vote(Vote::new(block.id, block.view, NodeId(voter), &key));
                    let mut wire = BufferedTransport::new();
                    let cpu = tally
                        .receive(NodeId(from), &vote, SimTime(1_000), &mut wire)
                        .cpu;
                    let relayed = wire.sends == [(None, SharedMessage::new(vote))];
                    assert_eq!(
                        relayed,
                        echoes && from == voter,
                        "{protocol:?}: {from} {voter}"
                    );
                    assert_eq!(wire.sends.len(), usize::from(relayed), "{protocol:?}");
                    cpu
                };
                let (free, pass) = (SimDuration::ZERO, cpu.verify_batch(CpuModel::PASS));
                let q = quorum_threshold(n) as u64;
                let mut total = free;
                for voter in 0..q {
                    let paid = step(voter, voter);
                    let pays = paying.contains(&(voter + 1));
                    let want = if pays { pass } else { free };
                    assert_eq!(paid, want, "{protocol:?} n = {n}: vote {}", voter + 1);
                    total += paid;
                    assert_eq!(step(voter + 1, voter), free, "{protocol:?}: a relayed copy");
                }
                // Node 3's own vote is among the quorum's when q > 3.
                let own = usize::from(q > 3);
                let checked = cpu.verify_batch(q as usize - own);
                assert_eq!(total, checked, "{protocol:?} n = {n}");
                assert_eq!(step(q, q), free, "{protocol:?}: a vote after the QC");
                assert_eq!(step(q + 1, q), free, "{protocol:?}: a vote after the QC");
                assert_eq!(step(0, 0), free, "{protocol:?}: a counted vote again");
            }
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
        let mut wire = BufferedTransport::new();
        admit(&mut replica, txs(25, 7), &mut wire);
        assert_eq!(replica.mempool_stats().pending, 25);
        // Node 1 leads view 1: starting it proposes a block with 10 txs.
        replica.start(SimTime::ZERO, &mut wire);
        assert_eq!(replica.mempool_stats().pending, 15);
        let proposal = (wire.sends.iter())
            .find_map(|(_, message)| match &**message {
                Message::Proposal(b) => Some(b.clone()),
                _ => None,
            })
            .expect("leader proposed");
        assert_eq!(proposal.len(), 10);
    }

    /// A handed-in copy of what a pending block carries stays queued: the
    /// next proposer leaves it out.
    #[test]
    fn a_proposer_leaves_out_what_a_pending_block_carries() {
        let proposal = first_proposal(ProtocolKind::HotStuff);
        let Message::Proposal(block) = &proposal else {
            unreachable!("a proposal")
        };
        let (mut next, mut wire) = (replica(2, ProtocolKind::HotStuff), BufferedTransport::new());
        let copy = bamboo_types::Handoff {
            view: View(2),
            txs: txs(10, 7),
        };
        next.receive(NodeId(1), &Message::Handoff(copy), SimTime::ZERO, &mut wire);
        admit(&mut next, txs(3, 8), &mut wire);
        assert!(
            wire.sends.is_empty(),
            "node 2 leads view 2: it hands nothing off"
        );
        assert_eq!(next.mempool_stats().pending, 13);
        next.receive(NodeId(1), &proposal, SimTime(1), &mut wire);
        for voter in [0, 3] {
            let vote = Vote::new(
                block.id,
                block.view,
                NodeId(voter),
                &KeyPair::from_seed(voter),
            );
            next.receive(NodeId(voter), &Message::Vote(vote), SimTime(2), &mut wire);
        }
        assert_eq!(next.current_view(), View(2));
        let own = (wire.sends.iter())
            .find_map(|(_, message)| match &**message {
                Message::Proposal(b) if b.view == View(2) => Some(b.clone()),
                _ => None,
            })
            .expect("node 2 leads view 2");
        let clients: Vec<NodeId> = own.payload.iter().map(|tx| tx.id.client).collect();
        assert_eq!(clients, [NodeId(8); 3]);
        assert_eq!(next.mempool_stats().pending, 10, "the copies stay queued");
        let stats = next.mempool_stats();
        assert_eq!((stats.accepted, stats.handed_in), (3, 10));
    }

    /// The seats and views that `options`' Streamlet replica 0, having voted
    /// for node 1's view-1 proposal, sends and stamps its copies to.
    fn copies_after_voting(options: ReplicaOptions) -> Vec<(NodeId, View)> {
        let proposal = first_proposal(ProtocolKind::Streamlet);
        let mut voter = Replica::new(NodeId(0), ProtocolKind::Streamlet, config(4), options);
        let sent = sends(&mut voter, 1, &proposal);
        assert!(sent.iter().any(|(_, m)| matches!(**m, Message::Vote(_))));
        assert_eq!(
            (voter.current_view(), voter.safety.voted_view()),
            (View(1), View(1))
        );
        let mut wire = BufferedTransport::new();
        admit(&mut voter, txs(5, 9), &mut wire);
        (wire.sends.iter())
            .filter_map(|(to, message)| match &**message {
                Message::Handoff(copy) => Some((to.expect("a unicast"), copy.view)),
                _ => None,
            })
            .collect()
    }

    /// Under synchronous epochs view 2's leader proposes at its epoch
    /// boundary, not on a vote: a replica that voted in view 1 still hands
    /// its copy to view 2, where the responsive rule skips to view 3.
    #[test]
    fn a_paced_replica_that_voted_hands_its_copy_one_view_ahead() {
        let paced = ReplicaOptions {
            synchronous_epochs: true,
            ..ReplicaOptions::default()
        };
        assert_eq!(copies_after_voting(paced), [(NodeId(2), View(2))]);
        let responsive = ReplicaOptions::default();
        assert_eq!(copies_after_voting(responsive), [(NodeId(3), View(3))]);
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

    /// A silence entry changes nothing before its start; from it on, the
    /// seat withholds its proposal and gives the batch back to its pool.
    #[test]
    fn a_silence_entry_mutes_proposals_from_its_start() {
        let from = SimTime::ZERO + SimDuration::from_secs(1);
        let lead_at = |now: SimTime| {
            let options = ReplicaOptions::default();
            let strategy = ByzantineStrategy::Silence;
            let config = Config {
                attacks: vec![SeatAttack {
                    node: NodeId(1),
                    strategy,
                    from,
                }],
                ..config(4)
            };
            let mut replica = Replica::new(NodeId(1), ProtocolKind::HotStuff, config, options);
            let mut wire = BufferedTransport::new();
            admit(&mut replica, txs(25, 7), &mut wire);
            replica.start(now, &mut wire);
            let proposed = (wire.sends.iter()).any(|(_, m)| matches!(&**m, Message::Proposal(_)));
            (
                proposed,
                replica.mempool_stats().pending,
                replica.attack().withheld,
            )
        };
        assert_eq!(lead_at(SimTime(from.0 - 1)), (true, 15, 0), "honest before");
        for now in [from, from + SimDuration::from_secs(1)] {
            assert_eq!(lead_at(now), (false, 25, 1), "silent at {now:?}");
        }
    }
}
