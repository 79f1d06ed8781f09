//! Run accounting: every report a run ends with, built from one per-step
//! view.
//!
//! The simulator's engine ([`crate::runner`]) only simulates: after each
//! replica step it hands one [`StepView`] to the [`Observer`] it owns, which
//! writes the [`RunReport`] at the end and leaves the engine only its own
//! counters to fill in. Random draws stay in the engine, in its event order;
//! a commit's response leg reaches the observer as a value. The observer's
//! fields are its subscribers, all known at compile time, so there is no
//! trait (DESIGN.md §5, "Observation").

use bamboo_forest::Ledger;
use bamboo_pacemaker::LeaderElection;
use bamboo_types::{Config, DigestSet, NodeId, ProtocolKind, SimDuration, SimTime, View};

use crate::metrics::{Histogram, MempoolTotals, Metrics, RecoveryReport, RunReport, Utilization};
use crate::replica::Replica;
use crate::runner::NodeFault;
use crate::runtime::{NodeHost, StepReport};

/// What one replica step did, as the engine saw it.
pub(crate) struct StepView<'a> {
    /// The replica that stepped, and when its CPU took the event and was
    /// done with it.
    pub node: NodeId,
    pub start: SimTime,
    pub finish: SimTime,
    /// The replica's view and its timeout-driven view changes after the step.
    pub view: View,
    pub timeout_view_changes: u64,
    /// The step's CPU bill and the blocks it committed.
    pub report: &'a StepReport,
    /// Messages the step put on the wire, one per recipient (a recipient
    /// behind a dropped link included), and their bytes.
    pub messages: u64,
    pub bytes: u64,
    /// At the observer replica, the instant each committed transaction's
    /// confirmation reaches its client, in commit order; empty elsewhere.
    pub confirmed: &'a [SimTime],
}

/// The run's books: what every step adds to the report.
pub(crate) struct Observer {
    /// The replica whose ledger and commits are reported.
    pub node: NodeId,
    /// Commit latencies and the throughput series, at the observer replica.
    metrics: Metrics,
    /// Messages and bytes put on the wire by every replica.
    pub messages: u64,
    bytes: u64,
    /// CPU utilization and the observer replica's view clock.
    load: Load,
}

impl Observer {
    /// Empty books for a run of `config` reporting `observer`'s ledger.
    pub(crate) fn new(config: &Config, observer: Option<NodeId>, series: SimDuration) -> Self {
        Self {
            node: observer.unwrap_or(NodeId(config.nodes as u64 - 1)),
            metrics: Metrics::new(series),
            messages: 0,
            bytes: 0,
            load: Load {
                election: LeaderElection::new(config.nodes, config.leader_policy),
                end: SimTime::ZERO + config.runtime,
                busy: vec![Busy::default(); config.nodes],
                view: None,
                by_qc: Histogram::new(),
                by_timeout: Histogram::new(),
            },
        }
    }

    /// Books one step.
    pub(crate) fn on_step(&mut self, step: &StepView) {
        self.messages += step.messages;
        self.bytes += step.bytes;
        if step.node == self.node {
            let blocks = &step.report.committed;
            let txs = blocks.iter().flat_map(|block| &block.payload);
            // `finish` is the commit instant the client's submit→commit
            // latency is measured against; `confirmed` adds the response leg
            // (the paper's `t_L` term).
            for (tx, &confirmed) in txs.zip(step.confirmed) {
                (self.metrics).record_commit(tx.issued_at, step.finish, confirmed);
            }
        }
        self.load.on_step(step, self.node);
    }

    /// The run's report from the books and the hosts as the run left them.
    /// The engine's own counters (`events_*`, `queue_*`, `pending_txs`) are
    /// left at zero for the engine to fill in.
    pub(crate) fn finish(
        &self,
        config: &Config,
        protocol: ProtocolKind,
        hosts: &[NodeHost],
        faults: &[NodeFault],
    ) -> RunReport {
        let observer = hosts[self.node.index()].replica();
        let audit = audit(config, hosts.iter());
        let duration_secs = config.runtime.as_secs_f64();
        let latency = self.metrics.latency();
        let committed_txs = latency.count;
        let committed_blocks = observer.ledger().len() as u64;
        let views_advanced = observer.current_view().as_u64().saturating_sub(1).max(1);
        let mut mempool = MempoolTotals::default();
        // Pool-full rejections are the backpressure signal: never silent.
        for host in hosts {
            mempool.add(&host.replica().mempool_stats());
        }
        RunReport {
            protocol,
            nodes: config.nodes,
            byz_nodes: config.byz_nodes,
            duration_secs,
            throughput_tx_per_sec: committed_txs as f64 / duration_secs,
            latency,
            client_latency: self.metrics.client_latency(),
            committed_txs,
            committed_blocks,
            views_advanced,
            chain_growth_rate: committed_blocks as f64 / views_advanced as f64,
            block_interval: observer.ledger().average_block_interval(),
            timeout_view_changes: observer.timeout_view_changes(),
            messages_sent: self.messages,
            bytes_sent: self.bytes,
            throughput_series: self.metrics.throughput_series(),
            safety_violations: audit.safety_violations,
            rejected_messages: audit.rejected_messages,
            client_auth_rejections: audit.client_auth_rejections,
            mempool,
            pending_txs: 0,
            events_processed: 0,
            events_scheduled: 0,
            queue_peak_len: 0,
            queue_heap_peak: 0,
            ledger_fingerprint: observer.ledger().fingerprint().to_hex(),
            recovery: recovery(config, hosts, faults),
            utilization: self.load.report(),
            forks_attempted: (hosts.iter())
                .map(|host| host.replica().attack().forks_attempted)
                .sum(),
        }
    }
}

/// Where the CPU time goes and how long views last: per replica, the busy
/// time inside the run and the part of it in views the replica leads; at
/// the observer replica, each view's duration by how it ended. Every
/// instant is cut at the end of the run, so U ≤ 1 and the views' durations
/// sum to at most the runtime.
struct Load {
    election: LeaderElection,
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
        let busy = &mut self.busy[step.node.index()];
        let leads = match busy.leads {
            Some((view, leads)) if view == step.view => leads,
            _ => self.election.is_leader(step.node, step.view),
        };
        busy.leads = Some((step.view, leads));
        busy.total += finish.since(start);
        if leads {
            busy.led += finish.since(start);
        }
        if step.node != observer {
            return;
        }
        // A view ends when the step that leaves it is done. A timeout ended
        // it iff the replica's timeout-driven view changes rose in that step.
        // A certificate for a later view skips the views between: the same
        // step ended them, and they lasted no time.
        if let Some((view, since, timeouts)) = self.view {
            if view == step.view {
                return;
            }
            let clock = if step.timeout_view_changes > timeouts {
                &mut self.by_timeout
            } else {
                &mut self.by_qc
            };
            clock.record(finish.since(since));
            let skipped = step.view.as_u64().saturating_sub(view.as_u64() + 1);
            for _ in 0..skipped {
                clock.record(SimDuration::ZERO);
            }
        }
        self.view = Some((step.view, finish, step.timeout_view_changes));
    }

    fn report(&self) -> Utilization {
        let runtime = self.end.since(SimTime::ZERO).as_nanos() as f64;
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

/// The audit every backend ends a run with, over the hosts it has.
#[derive(Default)]
pub(crate) struct Audit {
    /// Adjacent honest hosts (in the order given) whose ledgers are not
    /// prefix-consistent; 0 means no fork.
    pub forks: u64,
    /// Conflicting commits the replicas saw themselves, plus `forks`.
    pub safety_violations: u64,
    /// Messages the hosts' ingress stages rejected as forged or malformed.
    pub rejected_messages: u64,
    /// Signed client requests the hosts' edges rejected as forged.
    pub client_auth_rejections: u64,
}

/// Audits `hosts`: safety (Byzantine seats skipped in the fork check) and
/// the two rejection sums.
pub(crate) fn audit<'a>(config: &Config, hosts: impl Iterator<Item = &'a NodeHost>) -> Audit {
    let (mut audit, mut honest) = (Audit::default(), Vec::new());
    for host in hosts {
        let replica = host.replica();
        audit.safety_violations += replica.safety_violations();
        audit.rejected_messages += host.auth_rejections();
        audit.client_auth_rejections += host.client_auth_rejections();
        if !config.is_byzantine(replica.id()) {
            honest.push(replica.ledger());
        }
    }
    audit.forks = (honest.windows(2))
        .filter(|pair| !pair[0].consistent_with(pair[1]))
        .count() as u64;
    audit.safety_violations += audit.forks;
    // A batch has two holders, its origin and the leader it was handed to,
    // and still commits once (DESIGN.md §7.4). Honest ledgers are prefixes
    // of one another, so the longest speaks for all.
    let longest = honest.iter().max_by_key(|ledger| ledger.len());
    debug_assert!(
        longest.is_none_or(|ledger| commits_each_once(ledger)),
        "a transaction was committed twice"
    );
    audit
}

/// Whether no transaction appears twice in `ledger`.
fn commits_each_once(ledger: &Ledger) -> bool {
    let mut seen = DigestSet::default();
    (ledger.iter()).all(|committed| committed.block.payload.iter().all(|tx| seen.insert(tx.id)))
}

/// Folds the per-replica recovery counters and audits catch-up: every
/// restarted replica must end the run with a committed prefix matching the
/// chain the never-crashed honest replicas agree on.
fn recovery(config: &Config, hosts: &[NodeHost], faults: &[NodeFault]) -> RecoveryReport {
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
        !config.is_byzantine(r.id()) && faults.iter().all(|fault| fault.node != r.id())
    };
    let reference = replicas().filter(never_crashed).map(Replica::ledger);
    let Some(target) = reference.min_by_key(|ledger| ledger.len()) else {
        return recovery;
    };
    for replica in replicas() {
        let stats = replica.recovery_stats();
        let Some(restarted) = stats.restarted_at else {
            continue;
        };
        // Block ids bind each block's view and transactions, so equal ids
        // over the reference's length are the same committed chain.
        let ledger = replica.ledger();
        recovery.recovered_caught_up &=
            ledger.len() >= target.len() && ledger.consistent_with(target);
        if let Some(done) = stats.caught_up_at {
            let millis = done.since(restarted).as_nanos() as f64 / 1_000_000.0;
            recovery.recovery_time_ms = recovery.recovery_time_ms.max(millis);
        }
    }
    recovery
}

#[cfg(test)]
mod tests {
    use bamboo_types::{ByzantineStrategy, SimDuration};

    use super::*;
    use crate::runner::{RunOptions, SimRunner};

    /// The view clock and the CPU account obey the replica's own counters.
    /// In a deterministic simulator these laws hold exactly, so a failure is
    /// an instrumentation bug.
    #[test]
    fn the_view_clock_obeys_the_replicas_own_counters() {
        for silenced in [false, true] {
            let mut config = Config::builder()
                .nodes(4)
                .block_size(100)
                .runtime(SimDuration::from_millis(400))
                .arrival_rate(2_000.0)
                .seed(11)
                .build()
                .unwrap();
            if silenced {
                config.byz_nodes = 1;
                config.byzantine_strategy = ByzantineStrategy::Silence;
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
