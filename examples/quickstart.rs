//! Quickstart: run a 4-node HotStuff deployment on the deterministic
//! simulator and print what it committed.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use bamboo::core::{RunOptions, SimRunner};
use bamboo::types::{Config, ProtocolKind, SimDuration};

fn main() {
    // A 4-replica deployment with the paper's Table-I defaults: block size
    // 400, 100 ms view timeout, open-loop clients at 20k tx/s.
    let config = Config {
        nodes: 4,
        block_size: 400,
        payload_size: 128,
        runtime: SimDuration::from_secs(2),
        arrival_rate: Some(20_000.0),
        seed: 7,
        ..Config::default()
    };

    println!("running chained HotStuff on {} replicas...", config.nodes);
    let report = SimRunner::new(config, ProtocolKind::HotStuff, RunOptions::default()).run();

    println!("\n== results ==");
    println!("{}", report.summary());
    println!("committed blocks      : {}", report.committed_blocks);
    println!("committed transactions: {}", report.committed_txs);
    println!("views advanced        : {}", report.views_advanced);
    println!(
        "chain growth rate     : {:.3} blocks/view",
        report.chain_growth_rate
    );
    println!("block interval        : {:.2} views", report.block_interval);
    println!("mean latency          : {:.2} ms", report.latency.mean_ms);
    println!("p99 latency           : {:.2} ms", report.latency.p99_ms);
    println!("messages sent         : {}", report.messages_sent);
    println!("safety violations     : {}", report.safety_violations);
    assert_eq!(report.safety_violations, 0);
}
