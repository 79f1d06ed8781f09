//! End-to-end safety and liveness tests across the three evaluated protocols,
//! run on the deterministic simulator.

use bamboo::core::parallel::default_workers;
use bamboo::core::{
    run_ordered, FaultTrigger, LinkFault, NodeFault, RecoverMode, RunOptions, SimRunner,
};
use bamboo::types::{
    ByzantineStrategy, Config, NodeId, ProtocolKind, SeatAttack, SimDuration, SimTime,
};

fn config(nodes: usize) -> Config {
    Config {
        nodes,
        block_size: 100,
        payload_size: 32,
        runtime: SimDuration::from_millis(500),
        arrival_rate: Some(5_000.0),
        seed: 77,
        ..Config::default()
    }
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
        cfg.attacks = SeatAttack::first_seats(2, ByzantineStrategy::Silence);
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
        cfg.attacks = SeatAttack::first_seats(2, ByzantineStrategy::Forking);
        let report = SimRunner::new(cfg, protocol, RunOptions::default()).run();
        assert_eq!(report.safety_violations, 0, "{protocol}");
        assert!(report.committed_blocks > 0, "{protocol}");
    }
}

#[test]
fn streamlet_is_immune_to_forking_while_hotstuff_is_not() {
    let mut cfg = config(8);
    cfg.attacks = SeatAttack::first_seats(2, ByzantineStrategy::Forking);
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
    cfg.attacks = SeatAttack::first_seats(2, ByzantineStrategy::Forking);
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

/// A view timeout below the link delay is not a deployment anyone wants, but
/// it must cost liveness only: views then end before their proposal arrives,
/// the certified chain is full of view gaps, and a commit rule that accepts a
/// `k`-chain across such a gap lets honest replicas commit conflicting
/// blocks. Every hand-written scenario keeps the timeout 10× above the delay,
/// so this is the only place the regime is exercised.
#[test]
fn a_timeout_below_the_link_delay_costs_liveness_never_safety() {
    for protocol in ProtocolKind::evaluated() {
        // The LAN link mean is 250 µs: three timeouts below it, one above.
        for timeout_us in [0, 50, 200, 500] {
            for seed in 1..=4 {
                let config = Config {
                    nodes: 4,
                    block_size: 100,
                    runtime: SimDuration::from_millis(200),
                    arrival_rate: Some(1_000.0),
                    seed,
                    timeout: SimDuration::from_micros(timeout_us),
                    ..Config::default()
                };
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
    for protocol in ProtocolKind::evaluated() {
        for nodes in [4, 5] {
            let config = Config {
                nodes,
                block_size: 100,
                runtime: SimDuration::from_millis(1_000),
                timeout: SimDuration::from_millis(20),
                arrival_rate: Some(2_000.0),
                seed: 7,
                ..Config::default()
            };
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
            assert_eq!(
                report.committed_txs == 0,
                stalls,
                "{protocol}, n = {nodes}: {} txs committed",
                report.committed_txs
            );
        }
    }
}

/// The harsher relative of the short-timeout grid: Fig. 15's t = 10 ms
/// setting (n = 4, 400-transaction blocks of 128-byte payloads, a 10 ms view
/// timeout), where a fluctuation window adds 10–100 ms to every link. Views
/// are lost in runs and the chain forks. Two rules have failed here:
///
/// * a lock that moved only to a *taller* block stayed on a stale branch
///   with an old view, which the voting rule then let newer conflicting
///   proposals past — two-chain HotStuff on the figure's own timeline at its
///   seed 6 (192 conflicting commits), the one run of that timeline here;
/// * a two-chain protocol that votes with no lock at all (Fast-HotStuff
///   without its highest-QC proof, since removed) committed conflicting
///   blocks at 30 ktx/s seed 2 and at 10 ktx/s seed 3 of the compressed
///   grid, and in 6 of 24 such runs over seeds 1–12.
///
/// Every protocol shipped must hold in every run. The grid compresses the
/// figure's timeline (four seconds of normal operation, four of fluctuation)
/// to one and two, which is what a debug-build test can afford; the
/// `fig15_responsiveness` bench holds all 48 of its full-length runs to the
/// same assertion.
#[test]
fn lost_views_fork_the_chain_but_never_the_ledger() {
    // `(normal, fluctuating)` milliseconds before the run's last 200.
    const FIGURE: (u64, u64) = (4_000, 4_000);
    const COMPRESSED: (u64, u64) = (1_000, 2_000);
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    let grid = (ProtocolKind::evaluated().into_iter())
        .flat_map(|protocol| [30_000.0, 10_000.0].map(|rate| (protocol, rate)))
        .flat_map(|(protocol, rate)| (1..=3).map(move |seed| (protocol, rate, seed, COMPRESSED)));
    // The long run first, so the pool's workers finish close together.
    let figure = (ProtocolKind::TwoChainHotStuff, 30_000.0, 6, FIGURE);
    let runs: Vec<_> = [figure].into_iter().chain(grid).collect();
    let jobs = runs
        .iter()
        .map(|&(protocol, rate, seed, (normal, fluctuating))| {
            move || {
                let config = Config {
                    nodes: 4,
                    block_size: 400,
                    payload_size: 128,
                    runtime: SimDuration::from_millis(normal + fluctuating + 200),
                    timeout: SimDuration::from_millis(10),
                    arrival_rate: Some(rate),
                    seed,
                    ..Config::default()
                };
                let options = RunOptions {
                    link_faults: vec![LinkFault::Fluctuation {
                        min_extra: SimDuration::from_millis(10),
                        max_extra: SimDuration::from_millis(100),
                        start: at(normal),
                        end: at(normal + fluctuating),
                    }],
                    ..RunOptions::default()
                };
                SimRunner::new(config, protocol, options).run()
            }
        });
    let reports = run_ordered(jobs.collect(), default_workers());
    for (&(protocol, rate, seed, timeline), report) in runs.iter().zip(&reports) {
        let label = format!("{protocol}, {rate} tx/s, seed {seed}, timeline {timeline:?}");
        assert_eq!(report.safety_violations, 0, "{label}");
        assert!(report.committed_txs > 0, "{label}");
    }
}
