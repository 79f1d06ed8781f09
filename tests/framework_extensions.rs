//! Tests of the framework extension surface: the protocol beyond the three
//! evaluated ones (the OHS baseline) and the leader-election / configuration
//! options beyond the headline evaluation.

use bamboo::core::{RunOptions, SimRunner};
use bamboo::types::config::LeaderPolicy;
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration};

fn config(nodes: usize) -> Config {
    Config::builder()
        .nodes(nodes)
        .block_size(100)
        .runtime(SimDuration::from_millis(400))
        .arrival_rate(4_000.0)
        .seed(5)
        .build()
        .expect("valid config")
}

#[test]
fn extension_protocols_commit_without_safety_violations() {
    let protocol = ProtocolKind::OriginalHotStuff;
    let report = SimRunner::new(config(4), protocol, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0, "{protocol}");
    assert!(
        report.committed_blocks > 3,
        "{protocol} committed {} blocks",
        report.committed_blocks
    );
}

#[test]
fn ohs_baseline_lands_in_the_same_envelope_as_bamboo_hotstuff() {
    let hs = SimRunner::new(config(4), ProtocolKind::HotStuff, RunOptions::default()).run();
    let ohs = SimRunner::new(
        config(4),
        ProtocolKind::OriginalHotStuff,
        RunOptions::default(),
    )
    .run();
    let tput_ratio = ohs.throughput_tx_per_sec / hs.throughput_tx_per_sec.max(1.0);
    let latency_ratio = ohs.latency.mean_ms / hs.latency.mean_ms.max(1e-9);
    assert!(
        tput_ratio > 0.7 && tput_ratio < 1.3,
        "OHS throughput ratio {tput_ratio}"
    );
    assert!(
        latency_ratio > 0.6 && latency_ratio < 1.6,
        "OHS latency ratio {latency_ratio}"
    );
}

#[test]
fn hashed_leader_election_also_makes_progress() {
    let mut cfg = config(7);
    cfg.leader_policy = LeaderPolicy::Hashed;
    let report = SimRunner::new(cfg, ProtocolKind::HotStuff, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0);
    assert!(report.committed_blocks > 3);
}

#[test]
fn static_leader_is_supported() {
    let mut cfg = config(4);
    cfg.leader_policy = LeaderPolicy::Static(NodeId(2));
    let report = SimRunner::new(cfg, ProtocolKind::TwoChainHotStuff, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0);
    assert!(report.committed_blocks > 3);
}

#[test]
fn closed_loop_workload_drives_the_system() {
    // No arrival rate -> closed-loop clients with Table-I concurrency.
    let cfg = Config::builder()
        .nodes(4)
        .block_size(20)
        .concurrency(40)
        .runtime(SimDuration::from_millis(400))
        .seed(13)
        .build()
        .expect("valid config");
    let report = SimRunner::new(cfg, ProtocolKind::HotStuff, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0);
    assert!(
        report.committed_txs > 40,
        "closed loop committed {}",
        report.committed_txs
    );
}
