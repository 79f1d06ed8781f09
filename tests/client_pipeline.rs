//! End-to-end tests of the client-ingress pipeline: signed requests from a
//! large open-loop client population, edge batch-verification, mempool
//! admission control, and client-observed latency reporting.
//!
//! The pipeline rides the same determinism contract as the rest of the
//! engine: with population mode and request signing both enabled, two
//! identical runs must stay bit-identical and agree on every admission
//! counter.

use std::time::Duration;

use bamboo_core::{
    BufferedTransport, MempoolStats, NodeHost, ReplicaOptions, RunOptions, RunReport, SimRunner,
    ThreadedCluster, CLIENT_ID_BASE,
};
use bamboo_crypto::KeyPair;
use bamboo_types::{
    ClientRequest, Config, NodeId, ProtocolKind, SimDuration, SimTime, Transaction,
};

const SEEDS: [u64; 3] = [7, 42, 2021];

/// A full-pipeline config: a million-client population issuing signed
/// requests into each replica's mempool.
fn pipeline_config(seed: u64) -> Config {
    Config {
        nodes: 8,
        block_size: 50,
        runtime: SimDuration::from_millis(100),
        arrival_rate: Some(4_000.0),
        client_population: Some(1_000_000),
        signed_requests: true,
        seed,
        ..Config::default()
    }
}

fn run(config: Config, protocol: ProtocolKind) -> RunReport {
    SimRunner::new(config, protocol, RunOptions::default()).run()
}

/// The signed-population pipeline is deterministic: the arrival stream,
/// admission decisions and client latencies of a second execution are
/// identical. (The name predates the removal of the sharded engine; it is
/// kept so the suite's test list stays comparable across that change.)
#[test]
fn signed_population_runs_are_identical_across_thread_counts() {
    for protocol in [ProtocolKind::HotStuff, ProtocolKind::TwoChainHotStuff] {
        for seed in SEEDS {
            let base = run(pipeline_config(seed), protocol);
            assert!(
                base.committed_txs > 0,
                "{protocol} seed {seed}: baseline committed nothing"
            );
            assert_eq!(
                base.client_auth_rejections, 0,
                "honest clients are never rejected"
            );
            assert!(base.mempool.accepted > 0, "arrivals must reach the mempool");
            let replay = run(pipeline_config(seed), protocol);
            let label = format!("{protocol} seed={seed}");
            assert_eq!(
                base.ledger_fingerprint, replay.ledger_fingerprint,
                "{label}: ledger diverged"
            );
            assert_eq!(base.committed_txs, replay.committed_txs, "{label}");
            assert_eq!(base.events_processed, replay.events_processed, "{label}");
            assert_eq!(base.mempool, replay.mempool, "{label}: admission diverged");
            assert_eq!(
                base.client_auth_rejections, replay.client_auth_rejections,
                "{label}"
            );
            assert!(
                (base.client_latency.mean_ms - replay.client_latency.mean_ms).abs() < 1e-12,
                "{label}: client latency diverged"
            );
        }
    }
}

/// Offered load far above mempool capacity: the surplus must be rejected at
/// admission, counted in the report, and accounted for exactly — nothing is
/// silently dropped, and the counters are deterministic.
#[test]
fn admission_control_counts_overflow_without_losing_transactions() {
    let tiny = |seed: u64| {
        let mut config = pipeline_config(seed);
        config.mempool_size = 16;
        config.arrival_rate = Some(50_000.0);
        config
    };
    let report = run(tiny(7), ProtocolKind::HotStuff);
    assert!(
        report.mempool.rejected > 0,
        "offered load above capacity must produce counted rejections"
    );
    assert!(
        report.committed_txs > 0,
        "admission control is not an outage"
    );
    // Every dispatch pops a previously accepted (or requeued) transaction.
    assert!(
        report.mempool.dispatched <= report.mempool.accepted + report.mempool.requeued,
        "dispatched {} exceeds admitted {} + requeued {}",
        report.mempool.dispatched,
        report.mempool.accepted,
        report.mempool.requeued
    );
    assert!(
        report.committed_txs <= report.mempool.dispatched,
        "commits can only come from dispatched transactions"
    );

    // The counters are part of the deterministic surface.
    let again = run(tiny(7), ProtocolKind::HotStuff);
    assert_eq!(report.mempool, again.mempool);
    assert_eq!(report.committed_txs, again.committed_txs);

    // A generously sized pool under the same load rejects nothing.
    let mut roomy = pipeline_config(7);
    roomy.arrival_rate = Some(50_000.0);
    let unconstrained = run(roomy, ProtocolKind::HotStuff);
    assert_eq!(unconstrained.mempool.rejected, 0);
    assert!(unconstrained.committed_txs >= report.committed_txs);
}

/// Client-observed latency (submit → commit) is reported alongside the
/// legacy end-to-end metric (submit → response received) and is strictly
/// the shorter of the two: it omits the commit-to-client response leg.
#[test]
fn client_latency_is_reported_and_excludes_the_response_leg() {
    let report = run(pipeline_config(7), ProtocolKind::HotStuff);
    assert!(report.client_latency.mean_ms > 0.0);
    assert!(report.client_latency.p50_ms <= report.client_latency.p99_ms);
    assert!(
        report.client_latency.mean_ms < report.latency.mean_ms,
        "client latency {} must undercut end-to-end latency {}",
        report.client_latency.mean_ms,
        report.latency.mean_ms
    );
}

/// A forged client signature dies at the simulator-backend edge: the
/// replica's mempool never sees the transaction and the rejection is
/// counted, while honest requests in the same batch are salvaged.
#[test]
fn forged_client_requests_die_at_the_sim_edge() {
    let config = Config {
        nodes: 4,
        block_size: 10,
        signed_requests: true,
        ..Config::default()
    };
    let mut host = NodeHost::new(
        NodeId(3),
        ProtocolKind::HotStuff,
        config,
        ReplicaOptions::default(),
    );
    let mut transport = BufferedTransport::new();
    host.start(SimTime::ZERO, &mut transport);

    let client = NodeId(CLIENT_ID_BASE + 5);
    let genuine = ClientRequest::signed(
        Transaction::new(client, 0, 8, SimTime(1_000)),
        &KeyPair::client_from_seed(client.as_u64()),
    );
    // Signed with a validator-style key instead of the client's derived key.
    let forged = ClientRequest::signed(
        Transaction::new(client, 1, 8, SimTime(1_000)),
        &KeyPair::from_seed(client.as_u64()),
    );
    let unsigned = ClientRequest::unsigned(Transaction::new(client, 2, 8, SimTime(1_000)));

    let report = host.handle_client_batch(
        vec![genuine, forged, unsigned],
        SimTime(2_000),
        &mut transport,
    );
    assert_eq!(host.client_auth_rejections(), 2);
    assert_eq!(
        host.replica().mempool_stats().pending,
        1,
        "only the genuine request is admitted"
    );
    assert!(
        report.cpu > SimDuration::ZERO,
        "edge verification costs modeled CPU"
    );

    // An all-genuine batch passes the batched check and rejects nothing.
    let clean: Vec<ClientRequest> = (0..8u64)
        .map(|seq| {
            ClientRequest::signed(
                Transaction::new(client, 10 + seq, 8, SimTime(3_000)),
                &KeyPair::client_from_seed(client.as_u64()),
            )
        })
        .collect();
    host.handle_client_batch(clean, SimTime(4_000), &mut transport);
    assert_eq!(host.client_auth_rejections(), 2, "no new rejections");
    assert_eq!(host.replica().mempool_stats().pending, 9);
}

/// The same forgery dies at the threaded-backend edge: both runtimes route
/// client traffic through `NodeHost::handle_client_batch`, so the guarantee
/// and the counter are identical.
#[test]
fn forged_client_requests_die_at_the_threaded_edge() {
    let config = Config {
        nodes: 4,
        block_size: 20,
        timeout: SimDuration::from_millis(50),
        signed_requests: true,
        ..Config::default()
    };
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);

    let client = NodeId(CLIENT_ID_BASE);
    let keypair = KeyPair::client_from_seed(client.as_u64());
    let wrong_key = KeyPair::client_from_seed(client.as_u64() + 1);
    for replica in 0..4u64 {
        let genuine: Vec<ClientRequest> = (0..100u64)
            .map(|i| {
                let tx = Transaction::new(client, replica * 1_000 + i, 16, SimTime::ZERO);
                ClientRequest::signed(tx, &keypair)
            })
            .collect();
        cluster.submit_requests(NodeId(replica), genuine);
        let forged: Vec<ClientRequest> = (0..4u64)
            .map(|i| {
                let tx = Transaction::new(client, 900_000 + replica * 100 + i, 16, SimTime::ZERO);
                ClientRequest::signed(tx, &wrong_key)
            })
            .collect();
        cluster.submit_requests(NodeId(replica), forged);
    }

    assert!(
        cluster.run_until_committed(40, Duration::from_secs(20)),
        "cluster committed {} txs before the deadline",
        cluster.committed_txs()
    );
    let report = cluster.shutdown();
    assert_eq!(
        report.client_auth_rejections, 16,
        "every forged request is rejected at the edge, nothing else"
    );
    assert_eq!(report.auth_rejections, 0, "replica traffic is all honest");
    assert!(report.ledgers_consistent);
    assert_eq!(report.safety_violations, 0);
}

/// A replica that leads none of its next views hands a copy of each batch it
/// admits to the leader its next vote helps wake, and hands on again what
/// that leader's view missed. The live cluster's report folds every
/// seat's handoff counters; copies still in flight at shutdown are neither
/// kept nor dropped, so the two receiver counters sum to at most what was
/// sent, first copies and re-handed ones. The simulator's report carries
/// the same counters and keeps copies out of the admission counters.
#[test]
fn handoffs_are_counted_apart_from_admissions_on_both_backends() {
    /// What either backend's mempool fold must show: copies were handed
    /// off, and no more were kept or dropped than were sent.
    fn copies_are_counted(pool: &MempoolStats) {
        assert!(pool.handed_off > 0, "{pool:?}");
        let sent = pool.handed_off + pool.rehanded;
        assert!(pool.handed_in + pool.handoff_dropped <= sent, "{pool:?}");
    }

    let config = Config {
        nodes: 8,
        block_size: 20,
        timeout: SimDuration::from_millis(50),
        ..Config::default()
    };
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::HotStuff);
    cluster.submit_round_robin(400, 16);
    assert!(
        cluster.run_until_committed(200, Duration::from_secs(20)),
        "cluster committed {} txs before the deadline",
        cluster.committed_txs()
    );
    let report = cluster.shutdown();
    copies_are_counted(&report.run.mempool);
    assert!(report.ledgers_consistent);

    let sim = run(pipeline_config(7), ProtocolKind::HotStuff);
    let pool = sim.mempool;
    copies_are_counted(&pool);
    assert!(pool.handed_in > 0, "{pool:?}");
    // Admissions never outnumber what the clients issued: a copy is neither
    // accepted nor rejected (with copies counted, they would near double).
    let issued = sim.committed_txs + sim.pending_txs;
    assert!(
        pool.accepted + pool.rejected <= issued,
        "{pool:?} of {issued}"
    );
    assert!(
        pool.handed_off * 2 > issued,
        "most batches are handed off at n = 8"
    );
}
