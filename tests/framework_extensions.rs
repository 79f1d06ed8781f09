//! Tests of the framework extension surface: the leader-election policies
//! and the closed-loop workload beyond the headline evaluation.

use bamboo::core::{RunOptions, SimRunner};
use bamboo::types::config::LeaderPolicy;
use bamboo::types::{Config, NodeId, ProtocolKind, SimDuration};

fn config(nodes: usize) -> Config {
    Config {
        nodes,
        block_size: 100,
        runtime: SimDuration::from_millis(400),
        arrival_rate: Some(4_000.0),
        seed: 5,
        ..Config::default()
    }
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
    let cfg = Config {
        nodes: 4,
        block_size: 20,
        concurrency: 40,
        runtime: SimDuration::from_millis(400),
        seed: 13,
        ..Config::default()
    };
    let report = SimRunner::new(cfg, ProtocolKind::HotStuff, RunOptions::default()).run();
    assert_eq!(report.safety_violations, 0);
    assert!(
        report.committed_txs > 40,
        "closed loop committed {}",
        report.committed_txs
    );
}
