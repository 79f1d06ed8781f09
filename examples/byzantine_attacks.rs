//! Demonstrates the two Byzantine strategies of the paper — the forking
//! attack and the silence attack — and how differently the three protocols
//! tolerate them (chain growth rate, block interval, throughput).
//!
//! ```bash
//! cargo run --release --example byzantine_attacks
//! ```

use bamboo::core::{RunOptions, SimRunner};
use bamboo::types::{ByzantineStrategy, Config, ProtocolKind, SimDuration, TypeError};

fn run(strategy: ByzantineStrategy, byz: usize, protocol: ProtocolKind) -> Result<(), TypeError> {
    let mut config = Config::builder()
        .nodes(16)
        .block_size(200)
        .payload_size(64)
        .runtime(SimDuration::from_millis(600))
        .timeout(SimDuration::from_millis(50))
        .seed(11)
        .arrival_rate(10_000.0)
        .build()?;
    config.byzantine_strategy = strategy;
    config.byz_nodes = byz;
    let report = SimRunner::new(config, protocol, RunOptions::default()).run();
    println!(
        "  {:<5} byz={byz} ({strategy}): throughput {:>8.0} tx/s | CGR {:>4.2} | BI {:>4.2} | latency {:>7.2} ms | safety violations {}",
        protocol.label(),
        report.throughput_tx_per_sec,
        report.chain_growth_rate,
        report.block_interval,
        report.latency.mean_ms,
        report.safety_violations,
    );
    assert_eq!(
        report.safety_violations, 0,
        "attacks must never break safety"
    );
    Ok(())
}

fn main() -> Result<(), TypeError> {
    println!("baseline (no Byzantine nodes):");
    for protocol in ProtocolKind::evaluated() {
        run(ByzantineStrategy::Honest, 0, protocol)?;
    }

    println!("\nforking attack (4 of 16 nodes propose conflicting blocks):");
    for protocol in ProtocolKind::evaluated() {
        run(ByzantineStrategy::Forking, 4, protocol)?;
    }

    println!("\nsilence attack (4 of 16 nodes withhold their proposals):");
    for protocol in ProtocolKind::evaluated() {
        run(ByzantineStrategy::Silence, 4, protocol)?;
    }

    println!(
        "\ntakeaway (matches the paper): Streamlet's longest-chain voting makes it immune\nto forking (CGR stays at 1); two-chain HotStuff loses less than HotStuff under\nforking because only one block can be overwritten; the silence attack hurts every\nprotocol because it wastes whole views."
    );
    Ok(())
}
