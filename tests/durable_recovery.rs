//! Crash-recovery from the durable segment log: replicas that restart from
//! their own disk, not from thin air.
//!
//! PR 7's amnesia model wipes everything volatile and rebuilds the victim
//! through state transfer alone. These tests exercise the stronger model: the
//! replica persisted committed blocks, QCs, checkpoint images and — before
//! every vote — its `SafetyRecord{voted_view, locked_qc}` watermark, and a
//! restart replays that log so only the unpersisted *tail* has to come over
//! the network.
//!
//! What must hold, on both deployment backends:
//!
//! * the restarted replica re-joins the honest chain with a matching
//!   committed prefix, and the run report accounts for the replay
//!   (`records_replayed`, `corrupt_records_discarded`, `log_replay_ms`);
//! * every crash-point storage fault — torn tail, truncated segment, flipped
//!   CRC, dropped fsync batch — recovers the longest valid prefix without
//!   panicking, falling back to state transfer for whatever was mangled;
//! * the restored voted-view watermark makes double-voting impossible: every
//!   post-restart vote is strictly above it (a `debug_assert` in the vote
//!   path enforces this during `cargo test`, and the safety auditor would
//!   count any conflicting commit);
//! * on the simulator the whole story is bit-for-bit deterministic,
//!   including the replay counters.

use std::time::Duration;

use bamboo::core::{
    FaultTrigger, NodeFault, RecoverMode, RunOptions, RunReport, SimRunner, StorageFault,
    ThreadedCluster,
};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration, SimTime};

/// An 8-node cluster with the durable log on: tight 4 KiB segments and a
/// 4-record fsync batch so a 200 ms run exercises rotation, batching, and a
/// genuinely unsynced tail at the crash point.
fn config(seed: u64) -> Config {
    Config::builder()
        .nodes(8)
        .block_size(50)
        .runtime(SimDuration::from_millis(200))
        .arrival_rate(4_000.0)
        .timeout(SimDuration::from_millis(20))
        .checkpoint_interval(8)
        .durable_log(true)
        .fsync_interval(4)
        .segment_bytes(4096)
        .seed(seed)
        .build()
        .expect("valid config")
}

fn durable_fault(
    node: u64,
    crash_ms: u64,
    recover_ms: u64,
    storage_fault: Option<StorageFault>,
) -> NodeFault {
    NodeFault {
        node: NodeId(node),
        crash: FaultTrigger::At(SimTime(crash_ms * 1_000_000)),
        recover: Some(FaultTrigger::At(SimTime(recover_ms * 1_000_000))),
        mode: RecoverMode::Restart(storage_fault),
    }
}

fn run(seed: u64, faults: Vec<NodeFault>) -> RunReport {
    run_config(config(seed), faults)
}

fn run_config(config: Config, faults: Vec<NodeFault>) -> RunReport {
    let options = RunOptions {
        node_faults: faults,
        ..RunOptions::default()
    };
    SimRunner::new(config, ProtocolKind::HotStuff, options).run()
}

#[test]
fn durable_restart_replays_the_log_and_rejoins() {
    let report = run(7, vec![durable_fault(2, 60, 120, None)]);
    assert_eq!(report.safety_violations, 0);
    assert!(report.committed_txs > 0, "cluster committed nothing");

    let recovery = report.recovery;
    assert_eq!(recovery.durable_restarts, 1, "{recovery:?}");
    assert!(
        recovery.records_replayed > 0,
        "a clean crash after 60 ms must leave a replayable log: {recovery:?}"
    );
    assert!(
        recovery.log_replay_ms > 0.0,
        "replay has a modeled disk-I/O cost: {recovery:?}"
    );
    assert!(
        recovery.recovered_caught_up,
        "node 2 replayed its log but never matched the never-crashed \
         majority's committed prefix: {recovery:?}"
    );
}

/// With a short outage the replayed log covers everything but the tail:
/// state transfer may top up the newest blocks, but a full snapshot install
/// — the amnesia path's hallmark for any real gap — must not be needed.
#[test]
fn short_durable_outage_syncs_the_tail_without_a_snapshot() {
    let report = run(7, vec![durable_fault(2, 60, 70, None)]);
    assert_eq!(report.safety_violations, 0);
    let recovery = report.recovery;
    assert_eq!(recovery.durable_restarts, 1, "{recovery:?}");
    assert!(recovery.recovered_caught_up, "{recovery:?}");
    assert_eq!(
        recovery.snapshots_installed, 0,
        "a 10 ms gap after a log replay must not need a snapshot: {recovery:?}"
    );
}

/// Every crash-point storage fault recovers without panicking: the replay
/// keeps the longest valid prefix, counts the mangled suffix as discarded,
/// and state transfer covers the difference.
#[test]
fn every_crash_point_fault_recovers_without_panicking() {
    let faults = [
        ("torn_tail", StorageFault::TornTail),
        ("truncate_segment", StorageFault::TruncateSegment),
        ("corrupt_crc", StorageFault::CorruptCrc { record: 3 }),
        ("drop_fsync", StorageFault::DropFsync { index: 2 }),
    ];
    for (label, fault) in faults {
        let report = run(42, vec![durable_fault(3, 60, 120, Some(fault))]);
        assert_eq!(report.safety_violations, 0, "{label}");
        let recovery = report.recovery;
        assert_eq!(recovery.durable_restarts, 1, "{label}: {recovery:?}");
        assert!(
            recovery.recovered_caught_up,
            "{label}: the victim never re-joined the honest chain: {recovery:?}"
        );
    }

    // The dropped fsync is armed from the start of the run, so the batch
    // holding append 50 never reaches the platter. Above, the next checkpoint
    // cut prunes the holed segment long before the crash; with checkpoints
    // off the hole is still there at the restart, whose replay stops at it —
    // fewer records than a clean restart of the same run, the rest discarded.
    let mut uncut = config(42);
    uncut.checkpoint_interval = None;
    let holed = StorageFault::DropFsync { index: 50 };
    let clean = run_config(uncut.clone(), vec![durable_fault(3, 60, 120, None)]).recovery;
    let holed = run_config(uncut, vec![durable_fault(3, 60, 120, Some(holed))]).recovery;
    assert!(clean.records_replayed > 50 && clean.corrupt_records_discarded == 0);
    assert!(
        holed.records_replayed <= 50 && holed.corrupt_records_discarded > 0,
        "the dropped fsync left no hole: {holed:?} vs clean {clean:?}"
    );
    assert!(holed.recovered_caught_up, "{holed:?}");
}

/// A torn tail and a flipped CRC byte must surface in the report as
/// discarded records — corruption is counted, never silently absorbed.
#[test]
fn corrupting_faults_are_counted_as_discarded_records() {
    for (label, fault) in [
        ("torn_tail", StorageFault::TornTail),
        ("corrupt_crc", StorageFault::CorruptCrc { record: 3 }),
    ] {
        let report = run(42, vec![durable_fault(3, 60, 120, Some(fault))]);
        assert!(
            report.recovery.corrupt_records_discarded > 0,
            "{label}: corruption left no trace in the report: {:?}",
            report.recovery
        );
    }
}

/// Durable recovery is part of the determinism contract: a second execution
/// must reproduce the ledger fingerprint and every replay counter, for a
/// clean restart and for the nastiest corruption fault alike. (The name
/// predates the removal of the sharded engine; it is kept so the suite's
/// test list stays comparable across that change.)
#[test]
fn durable_recovery_is_deterministic_at_every_thread_count() {
    for seed in [7u64, 42, 2021] {
        for storage_fault in [None, Some(StorageFault::TornTail)] {
            let fault = || vec![durable_fault(2, 60, 120, storage_fault)];
            let base = run(seed, fault());
            assert!(
                base.recovery.durable_restarts == 1 && base.recovery.recovered_caught_up,
                "seed {seed}: baseline recovery failed — the comparison would \
                 be vacuous: {:?}",
                base.recovery
            );
            let replay = run(seed, fault());
            let label = format!("seed={seed} fault={storage_fault:?}");
            assert_eq!(
                base.ledger_fingerprint, replay.ledger_fingerprint,
                "{label}: ledger diverged"
            );
            assert_eq!(base.committed_txs, replay.committed_txs, "{label}");
            assert_eq!(base.events_processed, replay.events_processed, "{label}");
            assert_eq!(base.messages_sent, replay.messages_sent, "{label}");
            assert_eq!(
                base.recovery, replay.recovery,
                "{label}: recovery counters diverged"
            );
        }
    }
}

/// The same failure model on the live threaded cluster, with real files in a
/// per-cluster temp directory: crash a replica, let the survivors extend the
/// chain, restart the victim from its own on-disk segment log, and check it
/// re-joins with a matching prefix and a restored vote watermark.
#[test]
fn threaded_cluster_durable_restart_restores_the_vote_watermark() {
    let config = Config::builder()
        .nodes(4)
        .block_size(50)
        .payload_size(16)
        .timeout(SimDuration::from_millis(50))
        .runtime(SimDuration::from_millis(300))
        .checkpoint_interval(4)
        .durable_log(true)
        .fsync_interval(4)
        .seed(2026)
        .build()
        .expect("valid config");
    let victim = NodeId(2);

    // Two-chain HotStuff, not chained HotStuff: with one of four seats down the
    // survivors must keep committing, and a three-chain in adjacent views
    // needs four consecutive live leaders (three proposals plus the collector
    // of the third QC) — round-robin over three live seats of four never has
    // them, so HS correctly stalls until the victim is back.
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::TwoChainHotStuff);
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
    // while the victim is down, so its log is genuinely stale on restart.
    assert!(
        cluster.run_until_committed(at_crash + 100, Duration::from_secs(20)),
        "survivors stalled after the crash ({} txs)",
        cluster.committed_txs()
    );

    cluster.recover(victim, RecoverMode::Restart(None));
    cluster.submit_round_robin(600, 16);
    let at_recovery = cluster.committed_txs();
    assert!(
        cluster.run_until_committed(at_recovery + 100, Duration::from_secs(20)),
        "cluster stalled after the recovery ({} txs)",
        cluster.committed_txs()
    );
    // Wall-clock slack for the victim's final sync round-trips to land.
    cluster.run_for(Duration::from_millis(500));

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent, "honest ledgers diverged");

    let recovered = hosts[victim.index()].replica();
    let stats = recovered.recovery_stats();
    assert_eq!(stats.durable_restarts, 1, "{stats:?}");
    assert!(
        stats.records_replayed > 0,
        "the on-disk log replayed nothing: {stats:?}"
    );
    assert!(stats.restarted_at.is_some(), "the victim never restarted");
    // The watermark satellite: the replay restored a voted-view floor, and
    // the vote-path `debug_assert` (active under `cargo test`) would have
    // fired on any vote at or below it during the post-restart run.
    assert!(
        recovered.restored_voted_view().is_some(),
        "no SafetyRecord survived to restore the vote watermark: {stats:?}"
    );

    // Prefix agreement against a never-crashed replica. The threaded runtime
    // is wall-clock, so exact lengths at shutdown are scheduling-dependent —
    // but the shared prefix must match block for block.
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

/// A durable `recover` on a cluster spawned without `Config::durable_log` has no
/// log to replay: the restart degrades to amnesia — checkpoint plus state
/// transfer — exactly as its doc comment promises.
#[test]
fn threaded_durable_recovery_without_a_log_degrades_to_amnesia() {
    let config = Config::builder()
        .nodes(4)
        .block_size(50)
        .payload_size(16)
        .timeout(SimDuration::from_millis(50))
        .runtime(SimDuration::from_millis(300))
        .checkpoint_interval(4)
        .seed(2027)
        .build()
        .expect("valid config");
    let victim = NodeId(2);

    // Two-chain HotStuff, not chained HotStuff: with one of four seats down the
    // survivors must keep committing, and a three-chain in adjacent views
    // needs four consecutive live leaders (three proposals plus the collector
    // of the third QC) — round-robin over three live seats of four never has
    // them, so HS correctly stalls until the victim is back.
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::TwoChainHotStuff);
    cluster.submit_round_robin(600, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(20)),
        "cluster never got off the ground ({} txs)",
        cluster.committed_txs()
    );
    cluster.crash(victim);
    let at_crash = cluster.committed_txs();
    cluster.submit_round_robin(600, 16);
    assert!(
        cluster.run_until_committed(at_crash + 100, Duration::from_secs(20)),
        "survivors stalled after the crash ({} txs)",
        cluster.committed_txs()
    );
    cluster.recover(victim, RecoverMode::Restart(None));
    cluster.submit_round_robin(600, 16);
    let at_recovery = cluster.committed_txs();
    assert!(
        cluster.run_until_committed(at_recovery + 100, Duration::from_secs(20)),
        "cluster stalled after the recovery ({} txs)",
        cluster.committed_txs()
    );
    cluster.run_for(Duration::from_millis(500));

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent, "honest ledgers diverged");

    let recovered = hosts[victim.index()].replica();
    let stats = recovered.recovery_stats();
    assert!(recovered.storage().is_none(), "no log was configured");
    assert!(stats.restarted_at.is_some(), "the victim never restarted");
    assert_eq!(stats.durable_restarts, 0, "{stats:?}");
    assert_eq!(stats.records_replayed, 0, "{stats:?}");
    assert!(recovered.restored_voted_view().is_none());
    assert!(
        stats.sync_requests_sent > 0,
        "an amnesia restart state-transfers the lost history: {stats:?}"
    );

    let reference = hosts[0].replica().ledger();
    let shared = recovered.ledger().len().min(reference.len());
    assert!(shared > 0, "the recovered replica rebuilt nothing");
    assert_eq!(
        recovered.ledger().chain_fingerprint_prefix(shared),
        reference.chain_fingerprint_prefix(shared),
        "recovered replica's chain prefix diverged from the reference"
    );
}
