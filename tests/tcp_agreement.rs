//! Cross-runtime agreement over real sockets: the same configurations the
//! simulator and the threaded cluster agree on (`cross_runtime_agreement.rs`)
//! must also preserve safety when the replicas talk loopback TCP through the
//! `bamboo-net` transport — framed streams, per-peer writer threads with
//! reconnect, per-node verify pools.
//!
//! Prefix agreement is checked with the same ledger oracle the simulator
//! uses ([`chain_fingerprint_prefix`]): all honest replicas must have
//! committed byte-identical chains up to the shortest committed length.
//! Full-chain equality across backends is impossible — block packing depends
//! on wall-clock arrival timing — which is exactly why the oracle hashes the
//! chain-intrinsic prefix and not commit-time metadata.

use std::time::Duration;

use bamboo::net::{BackoffPolicy, ClusterSpec, ProcessCluster, TcpCluster};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration};

const ALL_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::HotStuff,
    ProtocolKind::TwoChainHotStuff,
    ProtocolKind::Streamlet,
    ProtocolKind::OriginalHotStuff,
];

fn shared_config() -> Config {
    Config::builder()
        .nodes(4)
        .block_size(50)
        .payload_size(16)
        .timeout(SimDuration::from_millis(50))
        .runtime(SimDuration::from_millis(300))
        .seed(2024)
        .build()
        .expect("valid config")
}

/// A backoff small enough that reconnect storms resolve within test budgets.
fn fast_backoff() -> BackoffPolicy {
    BackoffPolicy {
        initial: Duration::from_millis(5),
        max: Duration::from_millis(100),
    }
}

#[test]
fn every_protocol_reaches_prefix_agreement_over_loopback_tcp() {
    for protocol in ALL_PROTOCOLS {
        let mut cluster =
            TcpCluster::spawn(protocol, shared_config()).expect("cluster spawns on loopback");
        cluster.submit_round_robin(600, 16);
        assert!(
            cluster.run_until_committed(100, Duration::from_secs(30)),
            "{protocol} committed only {} txs cluster-wide before the deadline",
            cluster.committed_txs_floor()
        );
        let (report, hosts) = cluster.shutdown_with_hosts();
        assert_eq!(
            report.cluster.safety_violations, 0,
            "{protocol} violated safety over TCP"
        );
        assert!(
            report.cluster.ledgers_consistent,
            "{protocol} honest ledgers diverged over TCP"
        );
        assert!(
            report.cluster.max_view > 1,
            "{protocol} made no view progress over TCP"
        );

        // Explicit prefix-agreement via the ledger's cross-replica oracle.
        let ledgers: Vec<_> = hosts
            .iter()
            .flatten()
            .map(|h| h.replica().ledger())
            .collect();
        let min_len = ledgers.iter().map(|l| l.len()).min().unwrap_or(0);
        assert!(min_len > 0, "{protocol}: some replica committed nothing");
        let expected = ledgers[0].chain_fingerprint_prefix(min_len);
        for (index, ledger) in ledgers.iter().enumerate() {
            assert_eq!(
                ledger.chain_fingerprint_prefix(min_len),
                expected,
                "{protocol}: replica {index} disagrees on the first {min_len} blocks"
            );
        }
    }
}

#[test]
fn killed_peer_reconnects_with_backoff_and_catches_up() {
    // Two-chain HotStuff, not chained HotStuff: with one of four seats down the
    // survivors must keep committing, and a three-chain in adjacent views
    // needs four consecutive live leaders (three proposals plus the collector
    // of the third QC) — round-robin over three live seats of four never has
    // them, so HS correctly stalls until the victim is back.
    let protocol = ProtocolKind::TwoChainHotStuff;
    let mut cluster = TcpCluster::spawn_with(protocol, shared_config(), 1, fast_backoff())
        .expect("cluster spawns on loopback");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(30)),
        "cluster never reached the pre-kill target"
    );

    // Kill one replica. The three survivors are a quorum for n=4, so the
    // cluster keeps committing while the dead node's peers dial its corpse
    // on their backoff schedule and drop its frames.
    let victim = NodeId(2);
    cluster.kill(victim);
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(150, Duration::from_secs(30)),
        "survivors stopped committing after the kill"
    );

    // Restart on a fresh port. The replacement starts from genesis and must
    // catch up through the sync protocol; the floor-based poll only passes
    // once the restarted replica has the target too.
    cluster.restart(victim).expect("replacement spawns");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(250, Duration::from_secs(60)),
        "restarted replica never caught up (floor {})",
        cluster.committed_txs_floor()
    );

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.cluster.safety_violations, 0, "safety violated");
    assert!(
        report.cluster.ledgers_consistent,
        "ledgers diverged after the restart"
    );
    let restarted = hosts[victim.index()]
        .as_ref()
        .expect("restarted replica reports");
    assert!(
        restarted.replica().ledger().committed_txs() >= 250,
        "restarted replica holds only {} committed txs",
        restarted.replica().ledger().committed_txs()
    );

    // The survivors' outbound links to the victim must have reconnected —
    // at least one extra connect beyond the initial one (to the new port).
    let reconnects_to_victim: u64 = report
        .nodes
        .iter()
        .filter(|stats| stats.node != victim.as_u64())
        .flat_map(|stats| &stats.peers)
        .filter(|(peer, _)| *peer == victim.as_u64())
        .map(|(_, link)| link.reconnects)
        .sum();
    assert!(
        reconnects_to_victim > 0,
        "no surviving link ever reconnected to the restarted replica"
    );
    // Frames queued for the dead peer were dropped, not buffered forever.
    assert!(
        report.total_dropped() > 0,
        "expected dropped frames while the victim was down"
    );
}

/// The payoff of sharing the live driver with the threaded cluster: under
/// `Config::durable_log` every TCP node writes real segment files, and a
/// killed node's replacement boots from its own log instead of from genesis.
#[test]
fn killed_peer_restarts_from_its_durable_log_over_tcp() {
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
    // 2CHS for the reason given in the test above: HS at n = 4 commits nothing
    // while a seat is down.
    let protocol = ProtocolKind::TwoChainHotStuff;
    let mut cluster = TcpCluster::spawn_with(protocol, config, 1, fast_backoff())
        .expect("cluster spawns on loopback");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(30)),
        "cluster never reached the pre-kill target"
    );

    // The victim's threads and sockets go away; its segment files stay. The
    // survivors are a quorum, so its log is genuinely stale on restart.
    let victim = NodeId(2);
    cluster.kill(victim);
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(150, Duration::from_secs(30)),
        "survivors stopped committing after the kill"
    );

    cluster.restart(victim).expect("replacement spawns");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(250, Duration::from_secs(60)),
        "restarted replica never caught up (floor {})",
        cluster.committed_txs_floor()
    );

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.cluster.safety_violations, 0, "safety violated");
    assert!(report.cluster.ledgers_consistent, "ledgers diverged");

    let recovered = hosts[victim.index()]
        .as_ref()
        .expect("restarted replica reports")
        .replica();
    let stats = recovered.recovery_stats();
    assert_eq!(stats.durable_restarts, 1, "{stats:?}");
    assert!(
        stats.records_replayed > 0,
        "the on-disk log replayed nothing: {stats:?}"
    );
    assert!(
        recovered.restored_voted_view().is_some(),
        "no vote watermark was restored: {stats:?}"
    );

    let reference = hosts[0]
        .as_ref()
        .expect("never-killed replica reports")
        .replica()
        .ledger();
    let shared = recovered.ledger().len().min(reference.len());
    assert!(shared > 0, "the recovered replica rebuilt nothing");
    assert_eq!(
        recovered.ledger().chain_fingerprint_prefix(shared),
        reference.chain_fingerprint_prefix(shared),
        "recovered replica's chain prefix diverged from the reference"
    );
}

#[test]
fn signed_clients_commit_over_tcp() {
    let config = Config::builder()
        .nodes(4)
        .block_size(50)
        .payload_size(16)
        .timeout(SimDuration::from_millis(50))
        .runtime(SimDuration::from_millis(300))
        .seed(2024)
        .signed_requests(true)
        .build()
        .expect("valid config");
    let mut cluster =
        TcpCluster::spawn(ProtocolKind::HotStuff, config).expect("cluster spawns on loopback");
    cluster.submit_round_robin(400, 16);
    assert!(
        cluster.run_until_committed(100, Duration::from_secs(30)),
        "signed-client cluster never reached the target"
    );
    let report = cluster.shutdown();
    assert_eq!(report.cluster.safety_violations, 0);
    assert!(report.cluster.ledgers_consistent);
    assert_eq!(
        report.cluster.client_auth_rejections, 0,
        "properly signed requests were rejected at the edge"
    );
}

#[test]
fn multi_process_cluster_commits_and_prefix_agrees() {
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_tcp_replica"));
    let spec = ClusterSpec {
        nodes: 4,
        protocol: ProtocolKind::HotStuff,
        block_size: 50,
        payload_size: 16,
        timeout_ms: 50,
        seed: 2024,
        verify_workers: 1,
        checkpoint_interval: 0,
        signed_requests: false,
    };
    let mut cluster = ProcessCluster::launch(exe, spec).expect("replica processes launch");
    cluster
        .submit_round_robin(400, 16)
        .expect("client batches reach the replicas");
    assert!(
        cluster
            .run_until_committed(100, Duration::from_secs(30))
            .expect("status probes answer"),
        "replica processes never reached the commit target"
    );
    let agreed = cluster
        .check_prefix_agreement()
        .expect("prefix fingerprints match across processes");
    assert!(agreed > 0, "no common committed prefix across processes");
    let reports = cluster.shutdown().expect("replicas report on shutdown");
    assert_eq!(reports.len(), 4);
    for report in &reports {
        let safety = report
            .get("safety_violations")
            .and_then(|v| v.as_f64())
            .expect("report carries safety_violations");
        assert_eq!(safety, 0.0, "a replica process violated safety");
        let committed = report
            .get("committed_txs")
            .and_then(|v| v.as_f64())
            .expect("report carries committed_txs");
        assert!(committed >= 100.0, "a replica process lagged: {committed}");
    }
}
