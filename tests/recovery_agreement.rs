//! Crash-recovery with amnesia: replicas that actually come back.
//!
//! A recovered replica in earlier revisions kept its full pre-crash state —
//! an unrealistically kind failure model. These tests exercise the realistic
//! one: the replica loses everything volatile at the crash and restarts from
//! its latest checkpoint, re-learning the rest of the chain through the
//! state-transfer protocol (SyncRequest/SyncResponse).
//!
//! What must hold, on both deployment backends:
//!
//! * the recovered replica ends the run with a committed chain prefix
//!   identical to the never-crashed honest majority's — reached through
//!   checkpoints and state transfer alone, not through remembered state;
//! * on the simulator this is bit-for-bit deterministic, including the
//!   recovery metrics;
//! * the run report accounts for the recovery: checkpoints taken, sync
//!   round-trips, bytes moved, and the catch-up time.

use std::time::Duration;

use bamboo::core::{
    FaultTrigger, NodeFault, RecoverMode, RunOptions, RunReport, SimRunner, ThreadedCluster,
};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration, SimTime, View};

/// An 8-node cluster with checkpointing every 8 blocks — small enough that a
/// mid-run crash leaves the victim several checkpoints behind.
fn config(seed: u64) -> Config {
    Config {
        nodes: 8,
        block_size: 50,
        runtime: SimDuration::from_millis(200),
        arrival_rate: Some(4_000.0),
        timeout: SimDuration::from_millis(20),
        checkpoint_interval: Some(8),
        seed,
        ..Config::default()
    }
}

fn amnesia_fault(node: u64, crash_ms: u64, recover_ms: u64) -> NodeFault {
    NodeFault {
        node: NodeId(node),
        crash: FaultTrigger::At(SimTime(crash_ms * 1_000_000)),
        recover: Some(FaultTrigger::At(SimTime(recover_ms * 1_000_000))),
        mode: RecoverMode::Restart(None),
    }
}

fn run_config(config: Config, faults: Vec<NodeFault>) -> RunReport {
    let options = RunOptions {
        node_faults: faults,
        ..RunOptions::default()
    };
    SimRunner::new(config, ProtocolKind::HotStuff, options).run()
}

fn run(seed: u64, faults: Vec<NodeFault>) -> RunReport {
    run_config(config(seed), faults)
}

#[test]
fn amnesia_recovered_replica_rejoins_the_honest_chain() {
    let report = run(7, vec![amnesia_fault(2, 60, 120)]);
    assert_eq!(report.safety_violations, 0);
    assert!(report.committed_txs > 0, "cluster committed nothing");

    let recovery = report.recovery;
    assert_eq!(recovery.amnesia_recoveries, 1);
    assert!(
        recovery.recovered_caught_up,
        "node 2 restarted from its checkpoint but never matched the \
         never-crashed majority's committed prefix: {recovery:?}"
    );
    assert!(recovery.checkpoints_taken > 0, "no checkpoints were cut");
    assert!(
        recovery.sync_requests > 0,
        "no state transfer was requested"
    );
    assert!(recovery.sync_responses > 0, "no state transfer was served");
    assert!(recovery.sync_bytes > 0, "no sync bytes moved");
    assert!(
        recovery.blocks_synced > 0,
        "the recovered node re-learned no blocks: {recovery:?}"
    );
    assert!(
        recovery.recovery_time_ms > 0.0,
        "catch-up cannot be instantaneous: {recovery:?}"
    );
}

/// The crash leaves the victim far enough behind (its checkpoint predates
/// the serving replica's) that catch-up must go through a full snapshot
/// install, not just a ledger suffix.
#[test]
fn deep_amnesia_recovery_installs_a_snapshot() {
    let report = run(42, vec![amnesia_fault(3, 40, 160)]);
    assert_eq!(report.safety_violations, 0);
    let recovery = report.recovery;
    assert!(recovery.recovered_caught_up, "{recovery:?}");
    assert!(
        recovery.snapshots_installed > 0,
        "a 120 ms gap with 8-block checkpoints must transfer a snapshot: {recovery:?}"
    );
}

/// Recovery is part of the determinism contract: a second execution must
/// reproduce the ledger fingerprint *and* every recovery counter. (The name
/// predates the removal of the sharded engine; it is kept so the suite's
/// test list stays comparable across that change.)
#[test]
fn amnesia_recovery_is_deterministic_at_every_thread_count() {
    for seed in [7u64, 42, 2021] {
        let base = run(seed, vec![amnesia_fault(2, 60, 120)]);
        assert!(
            base.recovery.amnesia_recoveries == 1 && base.recovery.recovered_caught_up,
            "seed {seed}: baseline recovery failed — the comparison would be \
             vacuous: {:?}",
            base.recovery
        );
        let replay = run(seed, vec![amnesia_fault(2, 60, 120)]);
        let label = format!("seed={seed}");
        assert_eq!(
            base.ledger_fingerprint, replay.ledger_fingerprint,
            "{label}: ledger diverged"
        );
        assert_eq!(base.committed_txs, replay.committed_txs, "{label}");
        assert_eq!(base.events_processed, replay.events_processed, "{label}");
        assert_eq!(base.messages_sent, replay.messages_sent, "{label}");
        assert_eq!(base.recovery, replay.recovery, "{label}: recovery diverged");
    }
}

/// A *view-triggered* recovery restarts the replica at the opening edge of
/// the window after the boundary that saw the view — a different code path
/// from the time-triggered restarts every other recovery test schedules. It
/// must bring the victim back, from its checkpoint or from its durable log.
#[test]
fn view_triggered_restarts_rejoin_the_honest_chain() {
    for durable in [false, true] {
        let mut cfg = config(7);
        cfg.runtime = SimDuration::from_millis(100);
        cfg.durable_log = durable;
        let fault = NodeFault {
            node: NodeId(2),
            crash: FaultTrigger::AtView(View(5)),
            recover: Some(FaultTrigger::AtView(View(12))),
            mode: RecoverMode::Restart(None),
        };
        let report = run_config(cfg, vec![fault]);
        assert_eq!(report.safety_violations, 0, "durable={durable}");
        let recovery = report.recovery;
        assert_eq!(
            recovery.amnesia_recoveries, 1,
            "durable={durable}: no restart"
        );
        assert_eq!(recovery.durable_restarts, u64::from(durable));
        assert!(
            recovery.recovered_caught_up,
            "durable={durable}: {report:?}"
        );
    }
}

/// Control experiment: with no crash, the sync machinery must stay silent —
/// no requests, no checkpoint-driven behaviour change beyond taking them.
#[test]
fn healthy_runs_never_invoke_state_transfer() {
    let report = run(7, Vec::new());
    assert_eq!(report.safety_violations, 0);
    let recovery = report.recovery;
    assert_eq!(recovery.amnesia_recoveries, 0);
    assert_eq!(recovery.sync_requests, 0, "{recovery:?}");
    assert_eq!(recovery.sync_responses, 0, "{recovery:?}");
    assert_eq!(recovery.snapshots_installed, 0, "{recovery:?}");
    assert!(recovery.recovered_caught_up, "vacuously true");
    assert!(recovery.checkpoints_taken > 0, "checkpointing was on");
}

/// The same failure model on the live threaded cluster: crash a replica,
/// let the survivors extend the chain, bring the victim back with amnesia,
/// and check it re-joins through state transfer with a matching prefix.
#[test]
fn threaded_cluster_amnesia_recovery_rejoins_with_a_matching_prefix() {
    let config = Config {
        nodes: 4,
        block_size: 50,
        payload_size: 16,
        timeout: SimDuration::from_millis(50),
        runtime: SimDuration::from_millis(300),
        checkpoint_interval: Some(4),
        seed: 2024,
        ..Config::default()
    };
    let victim = NodeId(2);

    // Two-chain HotStuff, not chained HotStuff: with one of four seats down the
    // survivors must keep committing, and a three-chain in adjacent views
    // needs four consecutive live leaders (three proposals plus the collector
    // of the third QC) — round-robin over three live seats of four never has
    // them, so HS correctly stalls until the victim is back.
    let mut cluster = ThreadedCluster::spawn(config, ProtocolKind::TwoChainHotStuff);
    cluster.submit_round_robin(600, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(20)),
        "cluster never got off the ground ({} txs)",
        cluster.committed_txs()
    );

    cluster.crash(victim);
    let at_crash = cluster.committed_txs();
    cluster.submit_round_robin(600, 16);
    // The 3 survivors are exactly a quorum of 4: the chain keeps growing
    // while the victim is down, so it genuinely has something to re-learn.
    assert!(
        cluster.run_until_committed(at_crash + 100, Duration::from_secs(20)),
        "survivors stalled after the crash ({} txs)",
        cluster.committed_txs()
    );

    let restart = cluster.recover(victim, RecoverMode::Restart(None));
    restart.expect("a channel seat restarts in place");
    cluster.submit_round_robin(600, 16);
    let at_recovery = cluster.committed_txs();
    assert!(
        cluster.run_until_committed(at_recovery + 100, Duration::from_secs(20)),
        "cluster stalled after the recovery ({} txs)",
        cluster.committed_txs()
    );
    // Wall-clock slack for the victim's final sync round-trips to land.
    std::thread::sleep(Duration::from_millis(500));

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent, "honest ledgers diverged");

    let recovered = hosts[victim.index()].replica();
    let stats = recovered.recovery_stats();
    assert!(stats.restarted_at.is_some(), "the victim never restarted");
    assert!(stats.sync_requests_sent > 0, "{stats:?}");
    assert!(
        stats.blocks_synced > 0 || stats.snapshots_installed > 0,
        "recovery moved no state: {stats:?}"
    );
    // Prefix agreement against a never-crashed replica. The threaded runtime
    // is wall-clock, so the exact lengths at shutdown are scheduling-
    // dependent — but the shared prefix must match block for block, and the
    // victim must have rebuilt a nontrivial chain from an empty start.
    let reference = hosts[0].replica().ledger();
    let shared = recovered.ledger().len().min(reference.len());
    assert!(
        shared > 0,
        "the recovered replica rebuilt nothing (recovered {} / reference {})",
        recovered.ledger().len(),
        reference.len()
    );
    assert_eq!(
        recovered.ledger().chain_fingerprint_prefix(shared),
        reference.chain_fingerprint_prefix(shared),
        "recovered replica's chain prefix diverged from the reference"
    );
}
