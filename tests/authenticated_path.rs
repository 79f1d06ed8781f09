//! Cross-runtime tests of the authenticated message path.
//!
//! A Byzantine replica floods forged votes / forged quorum certificates at
//! the cluster, on both deployment backends. Every forgery must die at the
//! ingress stage (the `Authenticator` in `NodeHost` for the simulator, the
//! `VerifyPool` workers for the threaded cluster), honest ledgers must stay
//! consistent, and commit throughput must stay within tolerance of the honest
//! baseline — the attack buys the adversary nothing but wasted bandwidth.

use std::time::Duration;

use bamboo_core::threaded::Channels;
use bamboo_core::{
    BufferedTransport, LiveCluster, NodeHost, ReplicaOptions, RunOptions, SimRunner, StepReport,
    ThreadedCluster, DEFAULT_VERIFY_WORKERS,
};
use bamboo_crypto::{AggregateSignature, KeyPair};
use bamboo_types::{
    Authenticator, Block, BlockId, ByzantineStrategy, Config, Height, Message, NodeId,
    ProtocolKind, QuorumCert, SeatAttack, SharedBlock, SimDuration, SimTime, TimeoutVote,
    Transaction, View, Vote,
};

fn sim_config(strategy: ByzantineStrategy, byz: usize) -> Config {
    Config {
        nodes: 4,
        block_size: 100,
        runtime: SimDuration::from_millis(400),
        arrival_rate: Some(2_000.0),
        timeout: SimDuration::from_millis(20),
        seed: 11,
        attacks: SeatAttack::first_seats(byz, strategy),
        ..Config::default()
    }
}

#[test]
fn sim_forged_vote_flood_is_rejected_and_throughput_holds() {
    let honest = SimRunner::new(
        sim_config(ByzantineStrategy::Honest, 0),
        ProtocolKind::HotStuff,
        RunOptions::default(),
    )
    .run();
    assert_eq!(honest.rejected_messages, 0, "honest runs reject nothing");
    assert!(honest.committed_txs > 0);

    let attacked = SimRunner::new(
        sim_config(ByzantineStrategy::ForgedVote, 1),
        ProtocolKind::HotStuff,
        RunOptions::default(),
    )
    .run();
    assert!(
        attacked.rejected_messages > 0,
        "the flood must be observed and rejected"
    );
    assert_eq!(attacked.safety_violations, 0);
    assert!(
        attacked.committed_txs * 2 >= honest.committed_txs,
        "forged votes must not halve throughput: attacked {} vs honest {}",
        attacked.committed_txs,
        honest.committed_txs
    );
}

#[test]
fn sim_forged_qc_proposals_are_rejected_without_safety_impact() {
    let attacked = SimRunner::new(
        sim_config(ByzantineStrategy::ForgedQc, 1),
        ProtocolKind::HotStuff,
        RunOptions::default(),
    )
    .run();
    assert!(
        attacked.rejected_messages > 0,
        "forged-QC proposals must be rejected at ingress"
    );
    assert_eq!(attacked.safety_violations, 0);
    assert!(
        attacked.committed_txs > 0,
        "honest replicas keep committing around the attacker"
    );
    assert!(
        attacked.timeout_view_changes > 0,
        "the attacker's leadership views can only end by timeout"
    );
}

#[test]
fn sim_streamlet_rejects_forged_vote_broadcasts() {
    // Streamlet broadcasts (and echoes) votes, so the flood hits every
    // replica instead of just the next leader.
    let attacked = SimRunner::new(
        sim_config(ByzantineStrategy::ForgedVote, 1),
        ProtocolKind::Streamlet,
        RunOptions::default(),
    )
    .run();
    assert!(attacked.rejected_messages > 0);
    assert_eq!(attacked.safety_violations, 0);
    assert!(attacked.committed_txs > 0);
}

fn threaded_config() -> Config {
    Config {
        nodes: 4,
        block_size: 20,
        timeout: SimDuration::from_millis(50),
        attacks: SeatAttack::first_seats(1, ByzantineStrategy::ForgedVote),
        ..Config::default()
    }
}

#[test]
fn threaded_pool_rejects_forged_vote_flood() {
    // Every live cluster verifies off the consensus threads; asking for zero
    // workers clamps to one (the same rule as the TCP backend's node pools)
    // instead of selecting a separate inline mode.
    for verify_workers in [DEFAULT_VERIFY_WORKERS, 0] {
        let link = Channels::new(4, verify_workers);
        let cluster = LiveCluster::spawn_on(link, threaded_config(), ProtocolKind::HotStuff)
            .expect("channel seats boot");
        cluster.submit_round_robin(400, 16);
        assert!(
            cluster.run_until_committed(40, Duration::from_secs(20)),
            "cluster committed {} txs before the deadline",
            cluster.committed_txs()
        );
        let report = cluster.shutdown();
        assert!(
            report.auth_rejections > 0,
            "the verify pool must observe and reject the flood"
        );
        assert!(report.ledgers_consistent);
        assert_eq!(report.safety_violations, 0);
    }
}

#[test]
fn threaded_honest_cluster_rejects_nothing() {
    let config = Config {
        nodes: 4,
        block_size: 20,
        timeout: SimDuration::from_millis(50),
        ..Config::default()
    };
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
    cluster.submit_round_robin(200, 16);
    assert!(cluster.run_until_committed(40, Duration::from_secs(20)));
    let report = cluster.shutdown();
    assert_eq!(report.auth_rejections, 0);
    assert!(report.ledgers_consistent);
    assert_eq!(report.safety_violations, 0);
}

/// The one door a message has into a host: authenticated at ingress and
/// delivered with its proof token, or booked as a forgery.
fn ingress(
    host: &mut NodeHost,
    auth: &mut Authenticator,
    message: Message,
    now: SimTime,
    transport: &mut BufferedTransport,
) -> StepReport {
    match auth.authenticate(NodeId(1), message.clone()) {
        Ok(verified) => host.deliver(&verified, now, transport),
        Err(_) => host.reject_forged(&message),
    }
}

/// Transport-level injection: a forged message cannot become a proof token,
/// so it never reaches the replica state machine, on any backend that drives
/// `NodeHost`; the host books it instead.
#[test]
fn transport_level_forgeries_never_reach_the_replica() {
    let config = Config {
        nodes: 4,
        block_size: 10,
        ..Config::default()
    };
    // Node 3 is a follower in view 1.
    let mut host = NodeHost::new(
        NodeId(3),
        ProtocolKind::HotStuff,
        config,
        ReplicaOptions::default(),
    );
    let mut auth = Authenticator::for_nodes(4);
    let mut transport = BufferedTransport::new();
    host.start(SimTime::ZERO, &mut transport);
    assert_eq!(host.replica().current_view(), View(1));
    let block = BlockId(bamboo_crypto::Digest::of(b"target"));

    // 1. A vote carrying a signature minted with the wrong key.
    let forged_vote = Vote::new(block, View(1), NodeId(1), &KeyPair::from_seed(2));
    let report = ingress(
        &mut host,
        &mut auth,
        Message::Vote(forged_vote),
        SimTime(1_000),
        &mut transport,
    );
    assert_eq!(host.auth_rejections(), 1);
    assert!(
        report.cpu > SimDuration::ZERO,
        "discovering a forgery costs modeled CPU"
    );

    // Cases 2 and 3 hide a bad QC inside a genuinely signed timeout vote, as
    // its high-QC: the vote's own signature passes, the certificate must not.
    let timeout = |high_qc: QuorumCert| {
        Message::Timeout(TimeoutVote::new(
            View(5),
            NodeId(1),
            high_qc,
            &KeyPair::from_seed(1),
        ))
    };

    // 2. A sub-quorum aggregate: two genuine signatures where three are
    // required.
    let votes: Vec<Vote> = (0..2)
        .map(|i| Vote::new(block, View(5), NodeId(i), &KeyPair::from_seed(i)))
        .collect();
    let sub_quorum = QuorumCert::from_votes(block, View(5), &votes);
    ingress(
        &mut host,
        &mut auth,
        timeout(sub_quorum),
        SimTime(2_000),
        &mut transport,
    );
    assert_eq!(host.auth_rejections(), 2);

    // 3. A full-quorum QC whose signatures were all minted by a key outside
    // the validator set. If this were accepted the replica would jump to
    // view 6; it must stay in view 1.
    let junk = KeyPair::from_seed(u64::MAX);
    let msg = Vote::signing_bytes(block, View(5));
    let signatures: AggregateSignature = (0..3u64).map(|i| (i, junk.sign(&msg))).collect();
    let forged_qc = QuorumCert {
        block,
        view: View(5),
        signatures,
    };
    ingress(
        &mut host,
        &mut auth,
        timeout(forged_qc),
        SimTime(3_000),
        &mut transport,
    );
    assert_eq!(host.auth_rejections(), 3);
    assert_eq!(
        host.replica().current_view(),
        View(1),
        "a forged QC must not advance the view"
    );

    // 4. A genuine vote sails through and does not bump the counter.
    let honest_vote = Vote::new(block, View(1), NodeId(1), &KeyPair::from_seed(1));
    ingress(
        &mut host,
        &mut auth,
        Message::Vote(honest_vote),
        SimTime(4_000),
        &mut transport,
    );
    assert_eq!(host.auth_rejections(), 3, "honest traffic is not rejected");

    // 5. A proposal whose payload changed after its id was made: its QC
    // passes ingress, so the replica acts on that; the block id, checked
    // after it, does not bind, so nothing is stored or voted and the host
    // books the rejection.
    let mut tampered = Block::new(
        View(1),
        Height(1),
        BlockId::GENESIS,
        NodeId(1),
        QuorumCert::genesis(),
        Vec::new(),
    );
    (tampered.payload).push(Transaction::new(NodeId(9), 0, 16, SimTime::ZERO));
    let id = tampered.id;
    let mut wire = BufferedTransport::new();
    let report = ingress(
        &mut host,
        &mut auth,
        Message::Proposal(SharedBlock::new(tampered)),
        SimTime(5_000),
        &mut wire,
    );
    assert_eq!(host.auth_rejections(), 4);
    assert!(
        wire.sends.is_empty(),
        "no vote on a block that does not bind"
    );
    assert!(!host.replica().forest().contains(id));
    assert_eq!(report.cpu, host.replica().cpu_model().process_proposal(1));
}

/// The deterministic simulator with inline verification stays deterministic:
/// two identical attacked runs commit identical ledgers and reject the same
/// number of forgeries.
#[test]
fn attacked_sim_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut config = sim_config(ByzantineStrategy::ForgedVote, 1);
        config.seed = seed;
        SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default()).run()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.committed_txs, b.committed_txs);
    assert_eq!(a.committed_blocks, b.committed_blocks);
    assert_eq!(a.rejected_messages, b.rejected_messages);
    assert_eq!(a.views_advanced, b.views_advanced);
}
