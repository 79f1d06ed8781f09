//! Run accounting: every report a run ends with, built from one per-step
//! view, on either clock.
//!
//! The simulator's engine ([`crate::runner`]) only simulates: after each
//! replica step it hands one [`StepView`] to the [`Observer`] it owns, which
//! writes the [`RunReport`] at the end and leaves the engine only its own
//! counters to fill in. Random draws stay in the engine, in its event order;
//! a commit's response leg reaches the observer as a value. A live seat
//! ([`crate::live::run_live_node`]) shows each of its own steps, timed on the
//! wall clock, to an observer of its own ([`Observer::seat`]), and the cluster
//! folds the seats' books ([`fold_seats`]). The observer's fields are its
//! subscribers, all known at compile time, so there is no trait (DESIGN.md
//! §5, "Observation").

use bamboo_forest::{ExecWindow, Ledger};
use bamboo_pacemaker::LeaderElection;
use bamboo_types::{
    Block, BlockId, Config, DigestMap, NodeId, ProtocolKind, SimDuration, SimTime, Transaction,
    View,
};

use crate::live::SeatStatus;
use crate::metrics::{
    ClusterReport, Histogram, HostCounters, LatencyStats, Metrics, NodeNetStats, RecoveryReport,
    RunReport, SeatBooks, Stages, Utilization,
};
use crate::replica::Replica;
use crate::runner::RunOptions;
use crate::runtime::{NodeHost, SendTally, StepReport};

/// What one replica step did, as the engine saw it.
pub(crate) struct StepView<'a> {
    /// The replica that stepped, as the step left it: its id, view,
    /// timeout-driven view changes and ledger.
    pub replica: &'a Replica,
    /// When the replica's CPU took the event and was done with it.
    pub start: SimTime,
    pub finish: SimTime,
    /// The instant the step's commits count as made: on the simulated
    /// clock when the last commit record was written (`start` plus
    /// [`StepReport::commit_mark`]), on the live clock the step's end.
    pub committed: SimTime,
    /// The step's CPU bill and the blocks it committed, which end the
    /// replica's ledger.
    pub report: &'a StepReport,
    /// What the step put on the wire.
    pub sends: SendTally,
    /// At the observer replica, the instant each committed transaction's
    /// confirmation would reach its client, in commit order (a duplicate's
    /// is not booked); empty elsewhere.
    pub confirmed: &'a [SimTime],
}

/// The run's books: what every step adds to the report.
pub(crate) struct Observer {
    /// The replica whose ledger and commits are reported.
    pub node: NodeId,
    /// Commit latencies and the throughput series, at the observer replica.
    pub(crate) metrics: Metrics,
    /// The execute-once rule at the observer replica, its verdict on the
    /// last block, and the transactions it filtered.
    window: ExecWindow,
    executes: Vec<bool>,
    duplicates_filtered: u64,
    /// Messages and bytes put on the wire by every replica.
    pub messages: u64,
    bytes: u64,
    /// CPU utilization and the observer replica's view clock.
    load: Load,
    /// Where the committed transactions' time went.
    lifecycle: Lifecycle,
}

impl Observer {
    /// Empty books for a run of `config` reporting `observer`'s ledger, or
    /// the highest honest seat's.
    pub(crate) fn new(config: &Config, observer: Option<NodeId>, series: SimDuration) -> Self {
        let honest = |id: &NodeId| config.attacks.iter().all(|attack| attack.node != *id);
        let highest = (0..config.nodes as u64).rev().map(NodeId).find(honest);
        let node = observer.or(highest).expect("at most f < n seats attack");
        let span = (SimTime::ZERO, SimTime::ZERO + config.runtime);
        Self::over(config, node, series, span)
    }

    /// Empty books for `seat` of a live cluster running `config`, booted at
    /// `boot` and cut nowhere: a restarted seat opens new books.
    pub(crate) fn seat(config: &Config, seat: NodeId, boot: SimTime) -> Self {
        let span = (boot, SimTime(u64::MAX));
        Self::over(config, seat, SimDuration::from_secs(1), span)
    }

    /// Empty books reporting `node`'s commits, each instant cut to `span`.
    fn over(config: &Config, node: NodeId, series: SimDuration, span: (SimTime, SimTime)) -> Self {
        Self {
            node,
            metrics: Metrics::new(series),
            window: ExecWindow::default(),
            executes: Vec::new(),
            duplicates_filtered: 0,
            messages: 0,
            bytes: 0,
            load: Load {
                election: LeaderElection::new(config.nodes, config.leader_policy),
                begin: span.0,
                end: span.1,
                busy: vec![Busy::default(); config.nodes],
                view: None,
                by_qc: Histogram::new(),
                by_timeout: Histogram::new(),
            },
            lifecycle: Lifecycle {
                blocks: DigestMap::default(),
                stages: std::array::from_fn(|_| Histogram::new()),
            },
        }
    }

    /// Books one step.
    pub(crate) fn on_step(&mut self, step: &StepView) {
        let (node, ledger) = (step.replica.id(), step.replica.ledger());
        self.messages += step.sends.messages;
        self.bytes += step.sends.bytes;
        // A relay is not a dispatch: only the proposer's own send is, at
        // the instant it left.
        if let Some((block, sent)) =
            (step.sends.proposed.as_ref()).filter(|(block, _)| block.proposer == node)
        {
            self.lifecycle.on_proposal(block, *sent);
        }
        if node == self.node {
            // `committed` is the commit instant the client's submit→commit
            // latency is measured against; `confirmed` adds the response leg
            // (the paper's `t_L` term). Only what executes counts, once.
            let mut confirmed = step.confirmed;
            let first = ledger.len() - step.report.committed.len();
            for (at, block) in (first..).zip(&step.report.committed) {
                debug_assert_eq!(ledger.get(at).map(|c| c.block.id), Some(block.id));
                let (ours, rest) = confirmed.split_at(block.payload.len().min(confirmed.len()));
                confirmed = rest;
                self.duplicates_filtered += self.window.execute(ledger, at, &mut self.executes);
                let executes = &self.executes;
                let executed = || {
                    (block.payload.iter().zip(ours).zip(executes))
                        .filter_map(|(tx, &executes)| executes.then_some(tx))
                };
                for (tx, &at) in executed() {
                    self.metrics.record_commit(tx.issued_at, step.committed, at);
                }
                self.lifecycle.on_commit(block, step.committed, executed());
            }
        }
        self.load.on_step(step, self.node);
    }

    /// The run's report from the books and the hosts as the run left them,
    /// but for the engine's own counters (`events_*`, `queue_*`, `pending_txs`).
    pub(crate) fn finish(
        &self,
        config: &Config,
        protocol: ProtocolKind,
        hosts: &[NodeHost],
        options: &RunOptions,
    ) -> RunReport {
        let (host, end) = (&hosts[self.node.index()], self.load.end);
        let (observer, latency) = (host.replica(), self.metrics.latency());
        let status = SeatStatus {
            committed_txs: latency.count,
            committed_blocks: observer.ledger().len() as u64,
            view: observer.current_view().as_u64(),
            books: self.books(HostCounters::of(host), end),
            ..SeatStatus::default()
        };
        let honest = |id| config.attacks.iter().all(|attack| attack.node != id);
        let run = self.books(audit(hosts, honest), end);
        let mut report = RunReport::new(config, protocol, &status, run, latency);
        report.block_interval = observer.ledger().average_block_interval();
        report.throughput_series = self.metrics.throughput_series();
        report.ledger_fingerprint = observer.ledger().fingerprint().to_hex();
        report.recovery = recovery(config, hosts, options);
        let forks = hosts.iter().map(|h| h.replica().attack().forks_attempted);
        report.forks_attempted = forks.sum();
        report.stages = self.lifecycle.report();
        // Every replica's proposals are seen here, so every transaction the
        // observer counts was staged (`observe::tests` checks the sums).
        let staged = report.stages.dispatched.count;
        debug_assert_eq!(staged, report.committed_txs, "an unstaged commit");
        report
    }

    /// The books as of `now`, with the hosts' `counters`.
    pub(crate) fn books(&self, counters: HostCounters, now: SimTime) -> SeatBooks {
        SeatBooks {
            counters,
            messages: self.messages,
            bytes: self.bytes,
            lifetime: now.since(self.load.begin),
            utilization: self.load.report(now),
            latency: self.metrics.client_latency(),
            duplicates_filtered: self.duplicates_filtered,
        }
    }
}

impl RunReport {
    /// The one constructor, on either clock (DESIGN.md §5): the `observer`
    /// replica's progress and books over its lifetime, its end-to-end
    /// `latency`, and the `run`'s books (every host's counters and sends).
    /// What no seat status carries starts empty, for the simulator to fill.
    pub(crate) fn new(
        config: &Config,
        protocol: ProtocolKind,
        observer: &SeatStatus,
        run: SeatBooks,
        latency: LatencyStats,
    ) -> Self {
        let (own, counters) = (observer.books, run.counters);
        // A seat down at shutdown has no lifetime: one nanosecond, not 0/0.
        let duration_secs = own.lifetime.max(SimDuration::from_nanos(1)).as_secs_f64();
        let views_advanced = observer.view.saturating_sub(1).max(1);
        RunReport {
            protocol,
            nodes: config.nodes,
            byz_nodes: config.attacks.len(),
            duration_secs,
            throughput_tx_per_sec: observer.committed_txs as f64 / duration_secs,
            latency,
            client_latency: own.latency,
            committed_txs: observer.committed_txs,
            duplicates_filtered: own.duplicates_filtered,
            committed_blocks: observer.committed_blocks,
            views_advanced,
            chain_growth_rate: observer.committed_blocks as f64 / views_advanced as f64,
            block_interval: 0.0,
            timeout_view_changes: own.counters.timeout_view_changes,
            messages_sent: run.messages,
            bytes_sent: run.bytes,
            throughput_series: Vec::new(),
            safety_violations: counters.safety_violations,
            rejected_messages: counters.rejected_messages,
            client_auth_rejections: counters.client_auth_rejections,
            admissions: counters.admissions,
            admitted_requests: counters.admitted_requests,
            // Pool-full rejections are the backpressure signal: never silent.
            mempool: counters.mempool,
            pending_txs: 0,
            events_processed: 0,
            events_scheduled: 0,
            queue_peak_len: 0,
            queue_heap_peak: 0,
            ledger_fingerprint: String::new(),
            recovery: RecoveryReport::default(),
            utilization: run.utilization,
            forks_attempted: 0,
            stages: Stages::default(),
        }
    }
}

/// A live cluster's report: its seats' final statuses (`None`: down at
/// shutdown) folded into a [`RunReport`] as the simulator folds its hosts —
/// counters and sends summed, the busiest seat's utilization, the rest at the
/// observer seat, the last. Socket seats' verify pools' rejections count as
/// rejected messages, an inconsistent cluster as one more safety violation.
pub(crate) fn fold_seats(
    config: &Config,
    protocol: ProtocolKind,
    seats: &[Option<SeatStatus>],
    nets: Vec<NodeNetStats>,
    consistent: bool,
) -> ClusterReport {
    let (mut run, mut committed_blocks, mut max_view) = (SeatBooks::default(), Vec::new(), 0);
    for status in seats.iter().map(|status| status.unwrap_or_default()) {
        let books = status.books;
        run.counters.add(&books.counters);
        run.messages += books.messages;
        run.bytes += books.bytes;
        // The first of equals stays: the lowest id, as in the simulator.
        if books.utilization.u_max > run.utilization.u_max {
            run.utilization = books.utilization;
        }
        committed_blocks.push(status.committed_blocks as usize);
        max_view = max_view.max(status.view);
    }
    run.counters.safety_violations += u64::from(!consistent);
    run.counters.rejected_messages += nets.iter().map(|net| net.verify_rejected).sum::<u64>();
    let observer = seats.last().copied().flatten().unwrap_or_default();
    run.utilization.view_qc = observer.books.utilization.view_qc;
    run.utilization.view_timeout = observer.books.utilization.view_timeout;
    let run = RunReport::new(config, protocol, &observer, run, observer.books.latency);
    ClusterReport {
        committed_txs: run.committed_txs,
        safety_violations: run.safety_violations,
        timeout_view_changes: run.timeout_view_changes,
        auth_rejections: run.rejected_messages,
        client_auth_rejections: run.client_auth_rejections,
        run,
        committed_blocks,
        max_view,
        ledgers_consistent: consistent,
        nodes: nets,
    }
}

/// Where the CPU time goes and how long views last: per replica, the busy
/// time inside the books' span and the part of it in views the replica
/// leads; at the observer replica, each view's duration by how it ended.
/// Every instant is cut to the span, so U ≤ 1 and the views' durations sum
/// to at most its length.
struct Load {
    election: LeaderElection,
    /// The span: a simulated run's `[0, runtime]`; a live seat's from its
    /// boot, with no end.
    begin: SimTime,
    end: SimTime,
    busy: Vec<Busy>,
    /// The observer replica's view, since when, and its timeout-driven view
    /// changes then.
    view: Option<(View, SimTime, u64)>,
    by_qc: Histogram,
    by_timeout: Histogram,
}
/// One replica's CPU account.
#[derive(Clone, Copy, Default)]
struct Busy {
    total: SimDuration,
    /// The part spent in views the replica leads.
    led: SimDuration,
    /// The last view the leader check ran for, and its answer: a hashed
    /// election hashes once per view, not once per step.
    leads: Option<(View, bool)>,
}

impl Load {
    fn on_step(&mut self, step: &StepView, observer: NodeId) {
        let (start, finish) = (step.start.min(self.end), step.finish.min(self.end));
        let (node, current) = (step.replica.id(), step.replica.current_view());
        let busy = &mut self.busy[node.index()];
        let leads = match busy.leads {
            Some((view, leads)) if view == current => leads,
            _ => self.election.is_leader(node, current),
        };
        busy.leads = Some((current, leads));
        busy.total += finish.since(start);
        if leads {
            busy.led += finish.since(start);
        }
        if node != observer {
            return;
        }
        let timeouts_now = step.replica.timeout_view_changes();
        // A view ends when the step that leaves it is done. A timeout ended
        // it iff the replica's timeout-driven view changes rose in that step.
        // A certificate for a later view skips the views between: the same
        // step ended them, and they lasted no time.
        if let Some((view, since, timeouts)) = self.view {
            if view == current {
                return;
            }
            let clock = if timeouts_now > timeouts {
                &mut self.by_timeout
            } else {
                &mut self.by_qc
            };
            clock.record(finish.since(since));
            let skipped = current.as_u64().saturating_sub(view.as_u64() + 1);
            for _ in 0..skipped {
                clock.record(SimDuration::ZERO);
            }
        }
        self.view = Some((current, finish, timeouts_now));
    }

    /// The books up to `until`.
    fn report(&self, until: SimTime) -> Utilization {
        // A probe in the boot's nanosecond sees an empty span, not 0/0.
        let runtime = until.min(self.end).since(self.begin).as_nanos().max(1) as f64;
        // `max_by_key` keeps the last of equals: walk backwards for the
        // lowest id.
        let (busiest, busy) = (self.busy.iter().enumerate().rev())
            .max_by_key(|(_, busy)| busy.total)
            .expect("a run has replicas");
        let total = busy.total.as_nanos() as f64;
        Utilization {
            busiest: NodeId(busiest as u64),
            u_max: total / runtime,
            leader_share: if total > 0.0 {
                busy.led.as_nanos() as f64 / total
            } else {
                0.0
            },
            view_qc: self.by_qc.stats(),
            view_timeout: self.by_timeout.stats(),
        }
    }
}

/// Where each committed transaction's time goes: when its block was
/// dispatched and certified, kept per block from its dispatch until the
/// observer replica commits it, and the four stage histograms. A simulated
/// run sees every replica's proposals, so it times every block; a live seat
/// sees only its own.
struct Lifecycle {
    /// Per block dispatched and not yet committed at the observer: when its
    /// proposal was sent, and when the first proposal carrying its QC was.
    blocks: DigestMap<BlockId, (SimTime, Option<SimTime>)>,
    /// issued → dispatched → certified → committed → confirmed.
    stages: [Histogram; 4],
}

impl Lifecycle {
    /// `block`'s proposer sent it at `at`: it is dispatched, and the block
    /// its QC names is certified unless an earlier proposal certified it.
    fn on_proposal(&mut self, block: &Block, at: SimTime) {
        self.blocks.entry(block.id).or_insert((at, None));
        if let Some((_, certified)) = self.blocks.get_mut(&block.justify.block) {
            certified.get_or_insert(at);
        }
    }

    /// The observer committed `block` at `committed`; `executed` pairs each
    /// of its transactions that executed with the instant its confirmation
    /// reaches its client. A block committed before its QC travelled (a Streamlet notarization) is certified at
    /// the commit, so no stage the observer times runs backwards. The issue
    /// stamp is the client's: a live client may stamp on another clock, and
    /// a first stage that would be negative counts zero.
    fn on_commit<'a>(
        &mut self,
        block: &Block,
        committed: SimTime,
        executed: impl Iterator<Item = (&'a Transaction, &'a SimTime)>,
    ) {
        let Some((dispatched, certified)) = self.blocks.remove(&block.id) else {
            return;
        };
        let certified = certified.map_or(committed, |at| at.min(committed));
        for (tx, &confirmed) in executed {
            let instants = [tx.issued_at, dispatched, certified, committed, confirmed];
            debug_assert!(instants[1..].is_sorted(), "{:?}: {instants:?}", tx.id);
            for (stage, pair) in self.stages.iter_mut().zip(instants.windows(2)) {
                stage.record(pair[1].since(pair[0]));
            }
        }
    }

    fn report(&self) -> Stages {
        let [dispatched, certified, committed, confirmed] =
            self.stages.each_ref().map(Histogram::stats);
        Stages {
            dispatched,
            certified,
            committed,
            confirmed,
        }
    }
}

impl HostCounters {
    /// `host`'s counters: the one place a report reads them.
    pub(crate) fn of(host: &NodeHost) -> Self {
        let replica = host.replica();
        Self {
            safety_violations: replica.safety_violations(),
            rejected_messages: host.auth_rejections(),
            client_auth_rejections: host.client_auth_rejections(),
            timeout_view_changes: replica.timeout_view_changes(),
            records_replayed: replica.recovery_stats().records_replayed,
            admissions: host.admissions().0,
            admitted_requests: host.admissions().1,
            mempool: replica.mempool_stats(),
        }
    }

    /// Adds another host's counters: the one fold of every report, on
    /// either clock.
    pub(crate) fn add(&mut self, other: &HostCounters) {
        self.safety_violations += other.safety_violations;
        self.rejected_messages += other.rejected_messages;
        self.client_auth_rejections += other.client_auth_rejections;
        self.timeout_view_changes += other.timeout_view_changes;
        self.records_replayed += other.records_replayed;
        self.admissions += other.admissions;
        self.admitted_requests += other.admitted_requests;
        self.mempool.add(&other.mempool);
    }
}

/// The hosts' counters summed, with one more safety violation per adjacent
/// pair of honest hosts (Byzantine seats skipped, in the order given) whose
/// ledgers are not prefix-consistent.
fn audit(hosts: &[NodeHost], honest: impl Fn(NodeId) -> bool) -> HostCounters {
    let (mut sum, mut ledgers) = (HostCounters::default(), Vec::new());
    for host in hosts {
        sum.add(&HostCounters::of(host));
        if honest(host.replica().id()) {
            ledgers.push(host.replica().ledger());
        }
    }
    let forks = (ledgers.windows(2)).filter(|pair| !pair[0].consistent_with(pair[1]));
    sum.safety_violations += forks.count() as u64;
    sum
}

/// Folds the per-replica recovery counters and audits catch-up: every
/// restarted replica must end the run with a committed prefix matching the
/// chain the never-crashed honest replicas agree on.
fn recovery(config: &Config, hosts: &[NodeHost], options: &RunOptions) -> RecoveryReport {
    let replicas = || hosts.iter().map(NodeHost::replica);
    let mut recovery = RecoveryReport::default();
    for replica in replicas() {
        let stats = replica.recovery_stats();
        recovery.checkpoints_taken += stats.checkpoints_taken;
        recovery.checkpoint_bytes_written += stats.checkpoint_bytes_written;
        recovery.checkpoint_max_write_bytes =
            (recovery.checkpoint_max_write_bytes).max(stats.checkpoint_max_write_bytes);
        recovery.sync_requests += stats.sync_requests_sent;
        recovery.sync_responses += stats.sync_responses_served;
        recovery.sync_bytes += stats.sync_bytes_received;
        recovery.snapshots_installed += stats.snapshots_installed;
        recovery.blocks_synced += stats.blocks_synced;
        recovery.orphans_evicted += replica.forest().stats().orphans_evicted;
        recovery.amnesia_recoveries += u64::from(stats.restarted_at.is_some());
        recovery.durable_restarts += stats.durable_restarts;
        recovery.records_replayed += stats.records_replayed;
        recovery.corrupt_records_discarded += stats.corrupt_records_discarded;
        let replay_ms = stats.log_replay_nanos as f64 / 1_000_000.0;
        recovery.log_replay_ms = recovery.log_replay_ms.max(replay_ms);
    }
    // The reference chain is the shortest committed ledger among honest
    // replicas that never crashed: everything a restarted node must have
    // re-learned. With every honest node crashed at some point there is no
    // uninterrupted chain to audit against.
    let never_crashed = |r: &&Replica| {
        let crashed = (options.node_faults.iter()).any(|fault| fault.node == r.id());
        !crashed && config.attacks.iter().all(|attack| attack.node != r.id())
    };
    let reference = replicas().filter(never_crashed).map(Replica::ledger);
    let Some(target) = reference.min_by_key(|ledger| ledger.len()) else {
        return recovery;
    };
    // A block committed in the run's last view may still be on its way to a
    // replica that caught up long ago.
    let settled_by = SimTime::ZERO + config.runtime.saturating_sub(config.timeout);
    for replica in replicas() {
        let stats = replica.recovery_stats();
        let Some(restarted) = stats.restarted_at else {
            continue;
        };
        recovery.recovered_caught_up &= caught_up(replica.ledger(), target, settled_by);
        if let Some(done) = stats.caught_up_at {
            let millis = done.since(restarted).as_nanos() as f64 / 1_000_000.0;
            recovery.recovery_time_ms = recovery.recovery_time_ms.max(millis);
        }
    }
    recovery
}

/// Whether `ledger` agrees with `reference` and holds every block the
/// reference had committed by `settled_by`. Block ids bind each block's view
/// and transactions, so equal ids are the same committed chain.
fn caught_up(ledger: &Ledger, reference: &Ledger, settled_by: SimTime) -> bool {
    let settled = (reference.iter())
        .take_while(|committed| committed.committed_at <= settled_by)
        .count();
    ledger.len() >= settled && ledger.consistent_with(reference)
}

#[cfg(test)]
mod tests {
    use bamboo_types::{ByzantineStrategy, SeatAttack};

    use super::*;
    use crate::runner::{RunOptions, SimRunner};

    /// The stage gate: the observer stages every transaction it counts, and
    /// the stages telescope — their means sum to the end-to-end mean, and
    /// the first three to the client-observed one. Debug builds also assert
    /// each transaction's instants are ordered, so no stage runs backwards.
    #[test]
    fn every_counted_transaction_has_four_stages_that_sum_to_its_latency() {
        for protocol in ProtocolKind::evaluated() {
            let config = Config {
                nodes: 4,
                block_size: 100,
                runtime: SimDuration::from_millis(400),
                arrival_rate: Some(2_000.0),
                seed: 11,
                ..Config::default()
            };
            let report = SimRunner::new(config, protocol, RunOptions::default()).run();
            let (client, stages) = (report.client_latency, report.stages);
            let parts = [
                stages.dispatched,
                stages.certified,
                stages.committed,
                stages.confirmed,
            ];
            assert!(client.count > 0, "{protocol}");
            for part in parts {
                assert_eq!(part.count, client.count, "{protocol}: {stages:?}");
            }
            let sum = |parts: &[LatencyStats]| parts.iter().map(|part| part.mean_ms).sum::<f64>();
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
            let whole = report.latency.mean_ms;
            assert!(
                close(sum(&parts), whole),
                "{protocol}: {stages:?} vs {whole}"
            );
            let to_commit = client.mean_ms;
            assert!(
                close(sum(&parts[..3]), to_commit),
                "{protocol}: {to_commit}"
            );
        }
    }

    /// One fold on both clocks: a simulated run's hosts, each shown to
    /// [`fold_seats`] as a live seat's status, fold to the counters the
    /// run's own report sums, and the last seat's timeouts are the observer
    /// replica's.
    #[test]
    fn the_live_fold_of_simulated_hosts_sums_what_the_run_report_sums() {
        let mut attacks = SeatAttack::first_seats(2, ByzantineStrategy::ForgedVote);
        attacks[1].strategy = ByzantineStrategy::Silence;
        let config = Config {
            nodes: 7,
            block_size: 50,
            runtime: SimDuration::from_millis(400),
            arrival_rate: Some(3_000.0),
            timeout: SimDuration::from_millis(20),
            attacks,
            client_population: Some(1_000),
            signed_requests: true,
            seed: 2030,
            ..Config::default()
        };
        let protocol = ProtocolKind::HotStuff;
        let mut runner = SimRunner::new(config.clone(), protocol, RunOptions::default());
        let report = runner.run_to_end();
        let seats: Vec<Option<SeatStatus>> = (runner.hosts.iter())
            .map(|host| {
                let books = SeatBooks {
                    counters: HostCounters::of(host),
                    ..SeatBooks::default()
                };
                Some(SeatStatus {
                    books,
                    ..SeatStatus::default()
                })
            })
            .collect();
        let cluster = fold_seats(&config, protocol, &seats, Vec::new(), true);
        assert!(report.rejected_messages > 0, "forged votes are rejected");
        assert!(report.mempool.accepted > 0 && report.mempool.handed_off > 0);
        assert!(
            report.timeout_view_changes > 0,
            "the silent seat's views time out"
        );
        let counters = |r: &RunReport| {
            let sums = [
                r.safety_violations,
                r.rejected_messages,
                r.client_auth_rejections,
            ];
            let more = [r.admissions, r.admitted_requests, r.timeout_view_changes];
            (sums, more, r.mempool)
        };
        assert_eq!(counters(&cluster.run), counters(&report));
    }

    /// A proposal is dispatched when it leaves its proposer, once the CPU
    /// has assembled the block (the simulator's departure rule), not when
    /// the step ends: the proposer signs its own vote after the send.
    #[test]
    fn a_proposal_is_dispatched_when_it_leaves_not_when_its_step_ends() {
        let config = Config::default();
        let mut observer = Observer::new(&config, None, SimDuration::from_millis(100));
        let (leader, options) = (NodeId(1), Default::default());
        let mut host = NodeHost::new(leader, ProtocolKind::HotStuff, config.clone(), options);
        let (mut out, start) = (crate::BufferedTransport::new(), SimTime(1_000));
        let report = host.start(start, &mut out);
        let sends = out.tally_sends(config.nodes, |_, _, _, mark| start + mark);
        let (block, _) = sends.proposed.clone().expect("node 1 leads view 1");
        let finish = start + report.cpu;
        observer.on_step(&StepView {
            replica: host.replica(),
            start,
            finish,
            committed: finish,
            report: &report,
            sends,
            confirmed: &[],
        });
        let cpu = host.replica().cpu_model();
        let dispatched = observer.lifecycle.blocks.get(&block.id).map(|&(at, _)| at);
        assert_eq!(dispatched, Some(start + cpu.assemble_block(0)));
        assert_eq!(finish, start + cpu.assemble_block(0) + cpu.sign());
    }

    /// The catch-up audit forgives a restarted replica the blocks committed
    /// in the run's last view, and nothing else: a replica that never
    /// re-learned the chain, or learned another one, still fails it.
    #[test]
    fn the_catch_up_audit_waits_out_the_last_commit_and_only_it() {
        use crate::durability::testutil::grow;
        use bamboo_forest::BlockForest;
        // Each block of a grown chain commits at its height in microseconds.
        let grown = |blocks: usize| {
            let (mut forest, mut ledger) = (BlockForest::new(), Ledger::new());
            for _ in 0..blocks {
                grow(&mut forest, &mut ledger, 16);
            }
            ledger
        };
        let reference = grown(10);
        let (end, settled_by) = (SimTime(10_000), SimTime(8_000));
        // Two blocks short at the end: still in flight, so caught up...
        for len in [8, 9, 10, 12] {
            assert!(caught_up(&grown(len), &reference, settled_by), "{len}");
        }
        // ...though the audit at the last instant called it behind.
        assert!(!caught_up(&grown(9), &reference, end));
        // The positive controls: a replica that never synced stays where
        // its restart left it, and one on another chain agrees on nothing.
        assert!(!caught_up(&grown(3), &reference, settled_by));
        assert!(!caught_up(&Ledger::new(), &reference, settled_by));
        let shifted = Ledger::restore(reference.iter().skip(1).cloned().collect());
        assert!(!caught_up(&shifted, &reference, settled_by));
    }

    /// The default observer is the highest seat that does not attack, so a
    /// run reports an honest ledger wherever its attackers sit.
    #[test]
    fn the_default_observer_is_the_highest_honest_seat() {
        let last = SeatAttack {
            node: NodeId(3),
            strategy: ByzantineStrategy::Silence,
            from: SimTime::ZERO,
        };
        let config = Config {
            attacks: vec![last],
            ..Config::default()
        };
        let bucket = SimDuration::from_millis(500);
        assert_eq!(Observer::new(&config, None, bucket).node, NodeId(2));
        assert_eq!(
            Observer::new(&Config::default(), None, bucket).node,
            NodeId(3)
        );
        assert_eq!(
            Observer::new(&config, Some(NodeId(3)), bucket).node,
            NodeId(3)
        );
    }

    /// The view clock and the CPU account obey the replica's own counters.
    /// In a deterministic simulator these laws hold exactly, so a failure is
    /// an instrumentation bug.
    #[test]
    fn the_view_clock_obeys_the_replicas_own_counters() {
        for silenced in [false, true] {
            let mut config = Config {
                nodes: 4,
                block_size: 100,
                runtime: SimDuration::from_millis(400),
                arrival_rate: Some(2_000.0),
                seed: 11,
                ..Config::default()
            };
            if silenced {
                config.attacks = SeatAttack::first_seats(1, ByzantineStrategy::Silence);
                config.timeout = SimDuration::from_millis(20);
            }
            let runtime_ms = config.runtime.as_millis_f64();
            let report =
                SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default()).run();
            let load = report.utilization;
            // Busy time is never negative, so the largest U bounds them all.
            assert!(load.u_max > 0.0 && load.u_max <= 1.0, "{load:?}");
            assert!((0.0..=1.0).contains(&load.leader_share), "{load:?}");
            let (by_qc, by_timeout) = (load.view_qc, load.view_timeout);
            // The observer started in view 1 and left every view up to its
            // last once, a skipped one included.
            assert_eq!(by_qc.count + by_timeout.count, report.views_advanced);
            assert_eq!(by_timeout.count, report.timeout_view_changes);
            assert_eq!(silenced, by_timeout.count > 0, "{load:?}");
            // The sum comes back from two means: float rounding is the only
            // slack.
            let total_ms =
                by_qc.mean_ms * by_qc.count as f64 + by_timeout.mean_ms * by_timeout.count as f64;
            assert!(total_ms <= runtime_ms * (1.0 + 1e-12), "{total_ms} ms");
            assert!(by_qc.count > 0 && by_qc.max_ms > 0.0, "{load:?}");
        }
    }
}
