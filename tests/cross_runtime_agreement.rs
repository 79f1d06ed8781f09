//! Cross-runtime agreement: the same configuration driven through both
//! deployment backends — the deterministic simulator and the live threaded
//! cluster — must preserve safety for every protocol kind.
//!
//! Both backends drive the identical `Replica` state machine through the
//! shared `runtime` layer — one effect buffer, `BufferedTransport`, and one
//! step epilogue that tallies the sends and books the deadlines — so any
//! divergence here points at a backend bug, not a protocol bug.

use std::time::Duration;

use bamboo::core::{
    BufferedTransport, NodeHost, ReplicaOptions, RunOptions, SimRunner, ThreadedCluster,
};
use bamboo::types::{
    ClientRequest, Config, Message, NodeId, ProtocolKind, SharedBlock, SimDuration, SimTime,
    Transaction,
};

fn shared_config() -> Config {
    Config {
        nodes: 4,
        block_size: 50,
        payload_size: 16,
        timeout: SimDuration::from_millis(50),
        runtime: SimDuration::from_millis(300),
        seed: 2024,
        ..Config::default()
    }
}

#[test]
fn every_protocol_is_safe_on_the_simulator() {
    for protocol in ProtocolKind::evaluated() {
        let mut config = shared_config();
        config.arrival_rate = Some(3_000.0);
        let report = SimRunner::new(config, protocol, RunOptions::default()).run();
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} violated safety on the simulator"
        );
        assert!(
            report.committed_blocks > 0,
            "{protocol} committed nothing on the simulator"
        );
    }
}

#[test]
fn every_protocol_is_safe_on_the_threaded_cluster() {
    for protocol in ProtocolKind::evaluated() {
        let cluster = ThreadedCluster::spawn(shared_config(), protocol);
        cluster.submit_round_robin(600, 16);
        // Poll for observed commits rather than sleeping a fixed window so
        // the test does not flake on loaded CI runners.
        assert!(
            cluster.run_until_committed(50, Duration::from_secs(20)),
            "{protocol} committed only {} txs before the deadline",
            cluster.committed_txs()
        );
        // The live prefix oracle (the status history the shared driver
        // publishes): agreement is checked while the replicas still run, not
        // only on the ledgers they hand back at shutdown.
        let agreed = cluster.check_prefix_agreement();
        assert!(
            agreed.is_ok(),
            "{protocol}: replica {agreed:?} disagrees on the committed prefix while running"
        );
        let report = cluster.shutdown();
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} violated safety on the threaded cluster"
        );
        assert!(
            report.ledgers_consistent,
            "{protocol} honest ledgers diverged on the threaded cluster"
        );
        assert!(
            report.max_view > 1,
            "{protocol} made no progress on the threaded cluster"
        );
        assert!(
            report.committed_blocks.iter().any(|&c| c > 0),
            "{protocol} committed nothing on the threaded cluster: {:?}",
            report.committed_blocks
        );
    }
}

/// A configuration with paper-scale proposals (block_size >= 400): every
/// committed block moves a payload of tens of kilobytes, which is exactly the
/// regime the zero-copy (Arc-backed) message path exists for. Any payload
/// truncation or aliasing bug in that path shows up here as a safety
/// violation, a ledger divergence, or missing transactions.
fn large_payload_config() -> Config {
    Config {
        nodes: 4,
        block_size: 400,
        payload_size: 128,
        timeout: SimDuration::from_millis(50),
        runtime: SimDuration::from_millis(300),
        seed: 77,
        ..Config::default()
    }
}

#[test]
fn large_payload_blocks_are_safe_on_the_simulator() {
    for protocol in ProtocolKind::evaluated() {
        let mut config = large_payload_config();
        config.arrival_rate = Some(20_000.0);
        let report = SimRunner::new(config, protocol, RunOptions::default()).run();
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} violated safety with 400-tx blocks on the simulator"
        );
        assert!(
            report.committed_txs > 0,
            "{protocol} committed nothing with 400-tx blocks on the simulator"
        );
    }
}

#[test]
fn large_payload_blocks_are_safe_on_the_threaded_cluster() {
    for protocol in ProtocolKind::evaluated() {
        let cluster = ThreadedCluster::spawn(large_payload_config(), protocol);
        cluster.submit_round_robin(4_000, 128);
        assert!(
            cluster.run_until_committed(400, Duration::from_secs(20)),
            "{protocol} committed only {} txs before the deadline",
            cluster.committed_txs()
        );
        let report = cluster.shutdown();
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} violated safety with 400-tx blocks on the threaded cluster"
        );
        assert!(
            report.ledgers_consistent,
            "{protocol} honest ledgers diverged with 400-tx blocks"
        );
    }
}

#[test]
fn broadcast_proposal_shares_its_allocation_with_the_forest() {
    // Drive a leader replica directly and check the zero-copy invariant: the
    // block inside the broadcast `Message::Proposal` and the block stored in
    // the leader's own forest are the *same allocation*, with the payload
    // fully intact — not a truncated or re-serialised copy.
    let config = large_payload_config();
    let mut host = NodeHost::new(
        NodeId(1), // node 1 leads view 1
        ProtocolKind::HotStuff,
        config,
        ReplicaOptions::default(),
    );
    let txs: Vec<Transaction> = (0..400)
        .map(|i| Transaction::new(NodeId(9), i, 128, SimTime::ZERO))
        .collect();
    let mut transport = BufferedTransport::new();
    let requests = txs.iter().cloned().map(ClientRequest::unsigned).collect();
    host.handle_client_batch(requests, SimTime::ZERO, &mut transport);
    host.start(SimTime::ZERO, &mut transport);

    let proposal: &SharedBlock = transport
        .sends
        .iter()
        .find_map(|(to, message)| match (to, message.as_ref()) {
            (None, Message::Proposal(block)) => Some(block),
            _ => None,
        })
        .expect("leader broadcast a proposal");
    assert_eq!(proposal.payload.len(), 400, "payload not truncated");
    assert!(proposal.verify_id(), "payload binds to the block id");
    assert_eq!(proposal.payload, txs, "payload survives untouched");

    let stored = host
        .replica()
        .forest()
        .get_shared(proposal.id)
        .expect("leader stored its own proposal");
    assert!(
        SharedBlock::ptr_eq(proposal, stored),
        "broadcast and forest must share one allocation (zero-copy)"
    );
}

#[test]
fn both_backends_commit_comparable_work_for_hotstuff() {
    // Not a performance assertion — wall-clock and simulated time are not
    // comparable — but both backends must actually order transactions under
    // the same configuration.
    let mut sim_config = shared_config();
    sim_config.arrival_rate = Some(3_000.0);
    let sim = SimRunner::new(sim_config, ProtocolKind::HotStuff, RunOptions::default()).run();
    assert!(sim.committed_txs > 0, "simulator committed nothing");

    let cluster = ThreadedCluster::spawn(shared_config(), ProtocolKind::HotStuff);
    cluster.submit_round_robin(600, 16);
    assert!(
        cluster.run_until_committed(1, Duration::from_secs(20)),
        "threaded cluster committed nothing"
    );
    let report = cluster.shutdown();
    assert!(
        report.committed_txs > 0,
        "threaded cluster committed nothing"
    );
}
