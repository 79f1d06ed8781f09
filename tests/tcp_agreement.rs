//! Cross-runtime agreement over real sockets: the same configurations the
//! simulator and the channel link agree on (`cross_runtime_agreement.rs`)
//! must also preserve safety when the replicas talk loopback TCP through the
//! `bamboo-net` links — framed streams, per-peer writer threads with
//! reconnect, per-node verify pools — and every link of the one live
//! cluster passes the same conformance body.
//!
//! Prefix agreement is checked with the same ledger oracle the simulator
//! uses ([`chain_fingerprint_prefix`]): all honest replicas must have
//! committed byte-identical chains up to the shortest committed length.
//! Full-chain equality across backends is impossible — block packing depends
//! on wall-clock arrival timing — which is exactly why the oracle hashes the
//! chain-intrinsic prefix and not commit-time metadata.

use std::io::ErrorKind;
use std::time::Duration;

use bamboo::core::live::SeatLink;
use bamboo::core::metrics::SeatBooks;
use bamboo::core::scenario::metric;
use bamboo::core::{LiveCluster, RecoverMode, ThreadedCluster};
use bamboo::net::{BackoffPolicy, Processes, Sockets, TcpCluster};
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration};

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

/// A backoff small enough that reconnect storms resolve within test budgets.
fn fast_backoff() -> BackoffPolicy {
    BackoffPolicy {
        initial: Duration::from_millis(5),
        max: Duration::from_millis(100),
    }
}

#[test]
fn every_protocol_reaches_prefix_agreement_over_loopback_tcp() {
    for protocol in ProtocolKind::evaluated() {
        let cluster =
            TcpCluster::spawn(protocol, shared_config()).expect("cluster spawns on loopback");
        cluster.submit_round_robin(600, 16);
        assert!(
            cluster.run_until_committed(100, Duration::from_secs(30)),
            "{protocol} committed only {} txs cluster-wide before the deadline",
            cluster.committed_txs()
        );
        let (report, hosts) = cluster.shutdown_with_hosts();
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} violated safety over TCP"
        );
        assert!(
            report.ledgers_consistent,
            "{protocol} honest ledgers diverged over TCP"
        );
        assert!(
            report.max_view > 1,
            "{protocol} made no view progress over TCP"
        );
        // The seats book each message at the codec's length; the sockets
        // wrote those bytes plus frame headers and hellos, unless a frame
        // was dropped.
        if report.total_dropped() == 0 {
            assert!(
                report.run.bytes_sent <= report.total_bytes_sent(),
                "{protocol}: {} modeled bytes, {} on the sockets",
                report.run.bytes_sent,
                report.total_bytes_sent()
            );
        }

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
    let link = Sockets::new(4, 1, fast_backoff());
    let mut cluster =
        LiveCluster::spawn_on(link, shared_config(), protocol).expect("cluster spawns on loopback");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(30)),
        "cluster never reached the pre-kill target"
    );

    // Kill one replica. The three survivors are a quorum for n=4, so the
    // cluster keeps committing while the dead node's peers dial its corpse
    // on their backoff schedule and drop its frames.
    let victim = NodeId(2);
    cluster.crash(victim);
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(150, Duration::from_secs(30)),
        "survivors stopped committing after the kill"
    );

    // A killed socket seat lost its timers: it can restart, not resume.
    let resume = cluster.recover(victim, RecoverMode::Resume);
    assert_eq!(resume.map_err(|e| e.kind()), Err(ErrorKind::Unsupported));
    // Restart on a fresh port, with no checkpoint to restart from: the seat
    // must catch up through the sync protocol; the floor-based poll only
    // passes once the restarted replica has the target too.
    let restart = RecoverMode::Restart(None);
    cluster
        .recover(victim, restart)
        .expect("replacement spawns");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(250, Duration::from_secs(60)),
        "restarted replica never caught up (floor {})",
        cluster.committed_txs()
    );

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.safety_violations, 0, "safety violated");
    assert!(
        report.ledgers_consistent,
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

/// The payoff of sharing the live driver with the channel link: under
/// `Config::durable_log` every TCP node writes real segment files, and a
/// killed node's replacement boots from its own log instead of from genesis.
#[test]
fn killed_peer_restarts_from_its_durable_log_over_tcp() {
    let config = Config {
        nodes: 4,
        block_size: 50,
        payload_size: 16,
        timeout: SimDuration::from_millis(50),
        runtime: SimDuration::from_millis(300),
        checkpoint_interval: Some(4),
        durable_log: true,
        fsync_interval: 4,
        seed: 2026,
        ..Config::default()
    };
    // 2CHS for the reason given in the test above: HS at n = 4 commits nothing
    // while a seat is down.
    let protocol = ProtocolKind::TwoChainHotStuff;
    let link = Sockets::new(4, 1, fast_backoff());
    let mut cluster =
        LiveCluster::spawn_on(link, config, protocol).expect("cluster spawns on loopback");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(50, Duration::from_secs(30)),
        "cluster never reached the pre-kill target"
    );

    // The victim's threads and sockets go away; its segment files stay. The
    // survivors are a quorum, so its log is genuinely stale on restart.
    let victim = NodeId(2);
    cluster.crash(victim);
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(150, Duration::from_secs(30)),
        "survivors stopped committing after the kill"
    );

    let restart = RecoverMode::Restart(None);
    cluster
        .recover(victim, restart)
        .expect("replacement spawns");
    cluster.submit_round_robin(300, 16);
    assert!(
        cluster.run_until_committed(250, Duration::from_secs(60)),
        "restarted replica never caught up (floor {})",
        cluster.committed_txs()
    );

    let (report, hosts) = cluster.shutdown_with_hosts();
    assert_eq!(report.safety_violations, 0, "safety violated");
    assert!(report.ledgers_consistent, "ledgers diverged");

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
    let config = Config {
        nodes: 4,
        block_size: 50,
        payload_size: 16,
        timeout: SimDuration::from_millis(50),
        runtime: SimDuration::from_millis(300),
        seed: 2024,
        signed_requests: true,
        ..Config::default()
    };
    let cluster =
        TcpCluster::spawn(ProtocolKind::HotStuff, config).expect("cluster spawns on loopback");
    cluster.submit_round_robin(400, 16);
    assert!(
        cluster.run_until_committed(100, Duration::from_secs(30)),
        "signed-client cluster never reached the target"
    );
    let report = cluster.shutdown();
    assert_eq!(report.safety_violations, 0);
    assert!(report.ledgers_consistent);
    assert_eq!(
        report.client_auth_rejections, 0,
        "properly signed requests were rejected at the edge"
    );
}

/// The laws `observe::tests::the_view_clock_obeys_the_replicas_own_counters`
/// holds the simulator's observer to, on a live seat's books: U ∈ (0, 1],
/// some views ended by a QC, and the views' durations within the lifetime.
fn obeys_the_view_clock_laws(books: &SeatBooks, link: &str) {
    let load = books.utilization;
    assert!(load.u_max > 0.0 && load.u_max <= 1.0, "{link}: {load:?}");
    assert!(load.view_qc.count > 0, "{link}: {load:?}");
    let (by_qc, by_timeout) = (load.view_qc, load.view_timeout);
    let total_ms =
        by_qc.mean_ms * by_qc.count as f64 + by_timeout.mean_ms * by_timeout.count as f64;
    let lifetime_ms = books.lifetime.as_millis_f64();
    assert!(
        total_ms <= lifetime_ms * (1.0 + 1e-12),
        "{link}: {total_ms} ms of views in {lifetime_ms} ms"
    );
}

/// The one conformance body every link runs: n = 4 HotStuff commits, seat 3
/// crashes and restarts, and the cluster prefix-agrees with no violation. The
/// books of seat 0, which never crashed, obey the view-clock laws, and the
/// report carries utilization and — where the seats share the cluster's
/// clock — commit latency.
fn conform<L: SeatLink>(mut cluster: LiveCluster<L>, link: &str) {
    cluster.submit_round_robin(400, 16);
    let committed = cluster.run_until_committed(100, Duration::from_secs(30));
    assert!(committed, "{link}: no commits before the crash");
    cluster.crash(NodeId(3));
    let restart = cluster.recover(NodeId(3), RecoverMode::Restart(None));
    restart.unwrap_or_else(|e| panic!("{link}: seat 3 did not restart: {e}"));
    cluster.submit_round_robin(400, 16);
    let floor = cluster.run_until_committed(200, Duration::from_secs(60));
    assert!(
        floor,
        "{link}: seat 3 never caught up ({})",
        cluster.committed_txs()
    );
    let agreed = cluster.check_prefix_agreement();
    assert!(agreed.is_ok_and(|blocks| blocks > 0), "{link}: {agreed:?}");
    let never_crashed = cluster.probe(NodeId(0), 0).expect("seat 0 answers");
    obeys_the_view_clock_laws(&never_crashed.books, link);
    let report = cluster.shutdown();
    assert!(report.ledgers_consistent, "{link}: ledgers diverged");
    assert_eq!(report.safety_violations, 0, "{link}: safety violated");
    let (run, config) = (&report.run, shared_config());
    let load = run.utilization;
    assert!(load.u_max > 0.0 && load.u_max <= 1.0, "{link}: {load:?}");
    assert!(load.view_qc.count > 0, "{link}: {load:?}");
    // A seat process runs on its own clock and reports no latency.
    let shares_clock = link != "processes";
    assert_eq!(run.latency.count > 0, shares_clock, "{link}: {report:?}");
    // A live run reads through the simulator's names.
    let fields = [
        ("throughput", run.throughput_tx_per_sec),
        ("u_max", load.u_max),
        ("view_ms_qc", load.view_qc.mean_ms),
        ("views_by_timeout", run.timeout_view_changes as f64),
    ];
    for (name, field) in fields {
        let reading = metric(name).expect("a METRICS entry").3(run, &config);
        assert!(reading.is_finite(), "{link}: {name} reads {reading}");
        assert_eq!(reading, field, "{link}: {name}");
    }
}

#[test]
fn every_link_passes_the_one_conformance_body() {
    let (config, hs) = (shared_config(), ProtocolKind::HotStuff);
    conform(ThreadedCluster::spawn(config.clone(), hs), "channels");
    conform(TcpCluster::spawn(hs, config.clone()).unwrap(), "sockets");
    let processes = Processes::new(env!("CARGO_BIN_EXE_tcp_replica"));
    conform(
        LiveCluster::spawn_on(processes, config, hs).unwrap(),
        "processes",
    );
}

/// A killed seat process restarts from its own segment directory: a new
/// process replays the log the old one wrote, then catches up and agrees.
#[test]
fn killed_seat_process_replays_its_own_log() {
    let config = Config {
        nodes: 4,
        block_size: 50,
        payload_size: 16,
        timeout: SimDuration::from_millis(50),
        checkpoint_interval: Some(4),
        durable_log: true,
        fsync_interval: 4,
        seed: 2026,
        ..Config::default()
    };
    // 2CHS: HS at n = 4 commits nothing while a seat is down.
    let processes = Processes::new(env!("CARGO_BIN_EXE_tcp_replica"));
    let mut cluster = LiveCluster::spawn_on(processes, config, ProtocolKind::TwoChainHotStuff)
        .expect("seat processes launch");
    cluster.submit_round_robin(300, 16);
    assert!(cluster.run_until_committed(50, Duration::from_secs(30)));
    let victim = NodeId(2);
    cluster.crash(victim);
    cluster.submit_round_robin(300, 16);
    assert!(cluster.run_until_committed(150, Duration::from_secs(30)));
    // A SIGKILLed process keeps nothing in memory to resume from.
    let resume = cluster.recover(victim, RecoverMode::Resume);
    assert_eq!(resume.map_err(|e| e.kind()), Err(ErrorKind::Unsupported));
    let restart = RecoverMode::Restart(None);
    cluster
        .recover(victim, restart)
        .expect("replacement launches");
    cluster.submit_round_robin(300, 16);
    let caught_up = cluster.run_until_committed(250, Duration::from_secs(60));
    assert!(caught_up, "floor {}", cluster.committed_txs());
    let replayed = cluster.probe(victim, 0).expect("the seat answers");
    assert!(replayed.books.counters.records_replayed > 0, "{replayed:?}");
    assert!(cluster
        .check_prefix_agreement()
        .is_ok_and(|blocks| blocks > 0));
    assert_eq!(cluster.shutdown().safety_violations, 0);
}
