//! End-to-end safety and liveness tests across the three evaluated protocols,
//! run on the deterministic simulator.

use bamboo::core::{
    FaultTrigger, FluctuationWindow, NodeFault, RecoverMode, RunOptions, SimRunner,
};
use bamboo::types::{ByzantineStrategy, Config, NodeId, ProtocolKind, SimDuration, SimTime};

fn config(nodes: usize) -> Config {
    Config::builder()
        .nodes(nodes)
        .block_size(100)
        .payload_size(32)
        .runtime(SimDuration::from_millis(500))
        .arrival_rate(5_000.0)
        .seed(77)
        .build()
        .expect("valid config")
}

#[test]
fn every_protocol_commits_and_preserves_safety_in_the_happy_path() {
    for protocol in ProtocolKind::evaluated() {
        let report = SimRunner::new(config(4), protocol, RunOptions::default()).run();
        assert_eq!(report.safety_violations, 0, "{protocol}");
        assert!(
            report.committed_blocks > 5,
            "{protocol} committed too little"
        );
        assert!(report.committed_txs > 0, "{protocol}");
        assert!(
            report.chain_growth_rate > 0.5,
            "{protocol} CGR {}",
            report.chain_growth_rate
        );
    }
}

#[test]
fn larger_clusters_still_commit() {
    for protocol in [ProtocolKind::HotStuff, ProtocolKind::TwoChainHotStuff] {
        let report = SimRunner::new(config(16), protocol, RunOptions::default()).run();
        assert_eq!(report.safety_violations, 0);
        assert!(report.committed_blocks > 3, "{protocol}");
    }
}

#[test]
fn commit_latency_ordering_matches_commit_rules() {
    // 2CHS commits one certified block earlier than HS; Streamlet commits on
    // consecutive-view chains. Under an unloaded, fault-free network, block
    // intervals must therefore order as: 2CHS < HS, and 2CHS <= SL.
    let hs = SimRunner::new(config(4), ProtocolKind::HotStuff, RunOptions::default()).run();
    let two = SimRunner::new(
        config(4),
        ProtocolKind::TwoChainHotStuff,
        RunOptions::default(),
    )
    .run();
    let sl = SimRunner::new(config(4), ProtocolKind::Streamlet, RunOptions::default()).run();
    assert!(
        two.block_interval < hs.block_interval,
        "2CHS BI {} vs HS BI {}",
        two.block_interval,
        hs.block_interval
    );
    assert!(two.latency.mean_ms < hs.latency.mean_ms);
    assert!(sl.block_interval <= hs.block_interval + 0.5);
}

#[test]
fn liveness_is_retained_under_silence_attack_with_adequate_timeouts() {
    for protocol in ProtocolKind::evaluated() {
        let mut cfg = config(8);
        cfg.byzantine_strategy = ByzantineStrategy::Silence;
        cfg.byz_nodes = 2;
        cfg.timeout = SimDuration::from_millis(20);
        cfg.runtime = SimDuration::from_millis(800);
        let report = SimRunner::new(cfg, protocol, RunOptions::default()).run();
        assert_eq!(report.safety_violations, 0, "{protocol}");
        assert!(
            report.committed_blocks > 3,
            "{protocol} lost liveness under silence attack ({} blocks)",
            report.committed_blocks
        );
        assert!(
            report.timeout_view_changes > 0,
            "{protocol} should have timed out on silent leaders"
        );
    }
}

#[test]
fn forking_attack_never_causes_conflicting_commits() {
    for protocol in ProtocolKind::evaluated() {
        let mut cfg = config(8);
        cfg.byzantine_strategy = ByzantineStrategy::Forking;
        cfg.byz_nodes = 2;
        let report = SimRunner::new(cfg, protocol, RunOptions::default()).run();
        assert_eq!(report.safety_violations, 0, "{protocol}");
        assert!(report.committed_blocks > 0, "{protocol}");
    }
}

#[test]
fn streamlet_is_immune_to_forking_while_hotstuff_is_not() {
    let mut cfg = config(8);
    cfg.byzantine_strategy = ByzantineStrategy::Forking;
    cfg.byz_nodes = 2;
    cfg.runtime = SimDuration::from_millis(800);
    let hs = SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, RunOptions::default()).run();
    let sl = SimRunner::new(cfg, ProtocolKind::Streamlet, RunOptions::default()).run();
    assert!(
        sl.chain_growth_rate > 0.9,
        "Streamlet CGR under forking was {}",
        sl.chain_growth_rate
    );
    assert!(
        hs.chain_growth_rate < sl.chain_growth_rate,
        "HotStuff CGR {} should be below Streamlet's {}",
        hs.chain_growth_rate,
        sl.chain_growth_rate
    );
}

#[test]
fn two_chain_is_more_forking_resilient_than_three_chain() {
    let mut cfg = config(8);
    cfg.byzantine_strategy = ByzantineStrategy::Forking;
    cfg.byz_nodes = 2;
    cfg.runtime = SimDuration::from_millis(800);
    let hs = SimRunner::new(cfg.clone(), ProtocolKind::HotStuff, RunOptions::default()).run();
    let two = SimRunner::new(cfg, ProtocolKind::TwoChainHotStuff, RunOptions::default()).run();
    assert!(
        two.chain_growth_rate >= hs.chain_growth_rate,
        "2CHS CGR {} should be at least HS CGR {}",
        two.chain_growth_rate,
        hs.chain_growth_rate
    );
}

const ALL_PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::HotStuff,
    ProtocolKind::TwoChainHotStuff,
    ProtocolKind::FastHotStuff,
    ProtocolKind::Streamlet,
    ProtocolKind::OriginalHotStuff,
];

/// A view timeout below the link delay is not a deployment anyone wants, but
/// it must cost liveness only: views then end before their proposal arrives,
/// the certified chain is full of view gaps, and a commit rule that accepts a
/// `k`-chain across such a gap lets honest replicas commit conflicting
/// blocks. Every hand-written scenario keeps the timeout 10× above the delay,
/// so this is the only place the regime is exercised.
#[test]
fn a_timeout_below_the_link_delay_costs_liveness_never_safety() {
    for protocol in ALL_PROTOCOLS {
        // The LAN link mean is 250 µs: three timeouts below it, one above.
        for timeout_us in [0, 50, 200, 500] {
            for seed in 1..=4 {
                let mut config = Config::builder()
                    .nodes(4)
                    .block_size(100)
                    .runtime(SimDuration::from_millis(200))
                    .arrival_rate(1_000.0)
                    .seed(seed)
                    .build()
                    .expect("valid config");
                config.timeout = SimDuration::from_micros(timeout_us);
                let report = SimRunner::new(config, protocol, RunOptions::default()).run();
                assert_eq!(
                    report.safety_violations, 0,
                    "{protocol}, {timeout_us} µs timeout, seed {seed}"
                );
            }
        }
    }
}

/// What the adjacent-view commit rule costs: chained HotStuff commits on three
/// consecutive proposals plus the collector of the third QC — four live
/// leaders in a row. Round-robin over four seats with one down never has
/// them, so HS stalls at n = 4 and runs at n = 5; the two-chain protocols and
/// Streamlet need at most three and run at both sizes.
#[test]
fn a_crashed_seat_stalls_hotstuff_only_when_no_four_live_leaders_are_consecutive() {
    for protocol in ALL_PROTOCOLS {
        for nodes in [4, 5] {
            let config = Config::builder()
                .nodes(nodes)
                .block_size(100)
                .runtime(SimDuration::from_millis(1_000))
                .timeout(SimDuration::from_millis(20))
                .arrival_rate(2_000.0)
                .seed(7)
                .build()
                .expect("valid config");
            let options = RunOptions {
                node_faults: vec![NodeFault {
                    node: NodeId(0),
                    crash: FaultTrigger::At(SimTime::ZERO),
                    recover: None,
                    mode: RecoverMode::Resume,
                }],
                ..RunOptions::default()
            };
            let report = SimRunner::new(config, protocol, options).run();
            assert_eq!(report.safety_violations, 0, "{protocol}, n = {nodes}");
            let stalls = protocol == ProtocolKind::HotStuff && nodes == 4;
            // OHS (the Fig. 9 reference) votes once per height and stalls at
            // either size once a view is lost: safety is all it is held to.
            if protocol != ProtocolKind::OriginalHotStuff {
                assert_eq!(
                    report.committed_txs == 0,
                    stalls,
                    "{protocol}, n = {nodes}: {} txs committed",
                    report.committed_txs
                );
            }
        }
    }
}

/// The harsher relative of the short-timeout grid: Fig. 15's t = 10 ms
/// setting, where a fluctuation window adds 10–100 ms to every link for four
/// seconds. Views are lost in runs, the chain forks, and a lock that moved
/// only to a *taller* block stayed on a stale branch with an old view, which
/// the voting rule then let newer conflicting proposals past: this exact run
/// (the figure's seed 6) had two-chain HotStuff replicas commit conflicting
/// blocks until the lock moved by view.
#[test]
fn lost_views_fork_the_chain_but_never_the_ledger() {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let config = Config::builder()
        .nodes(4)
        .block_size(400)
        .payload_size(128)
        .runtime(SimDuration::from_millis(8_200))
        .timeout(SimDuration::from_millis(10))
        .arrival_rate(30_000.0)
        .seed(6)
        .build()
        .expect("valid config");
    let options = RunOptions {
        fluctuations: vec![FluctuationWindow {
            start: at(4_000),
            end: at(8_000),
            min_extra: SimDuration::from_millis(10),
            max_extra: SimDuration::from_millis(100),
        }],
        // The figure's crash comes after this window closes; naming the node
        // keeps the observer, and so the run, the figure's own.
        silence_node_from: Some((NodeId(0), at(10_000))),
        ..RunOptions::default()
    };
    // (The `fig15_responsiveness` bench holds all 48 of its runs to the same
    // assertion; one run is what a debug-build test can afford.)
    let report = SimRunner::new(config, ProtocolKind::TwoChainHotStuff, options).run();
    assert_eq!(report.safety_violations, 0);
    assert!(report.committed_txs > 0);
}
