//! Run an actually concurrent in-process cluster: each replica on its own OS
//! thread, connected by channels — the "live" counterpart to the
//! deterministic simulator.
//!
//! ```bash
//! cargo run --release --example threaded_cluster
//! ```

use std::time::Duration;

use bamboo::core::threaded::ThreadedCluster;
use bamboo::types::{Config, ProtocolKind, SimDuration};

fn main() {
    let config = Config {
        nodes: 4,
        block_size: 100,
        timeout: SimDuration::from_millis(50),
        ..Config::default()
    };

    println!("spawning a 4-thread two-chain HotStuff cluster...");
    let cluster = ThreadedCluster::spawn(config, ProtocolKind::TwoChainHotStuff);

    // Feed it 2,000 transactions spread round-robin over the replicas and let
    // it run for half a second of wall-clock time.
    cluster.submit_round_robin(2_000, 64);
    std::thread::sleep(Duration::from_millis(500));
    println!(
        "committed so far (the floor over the replicas): {}",
        cluster.committed_txs()
    );

    let report = cluster.shutdown();
    println!("\n== shutdown report ==");
    println!(
        "committed blocks per replica: {:?}",
        report.committed_blocks
    );
    println!("highest view reached        : {}", report.max_view);
    println!(
        "ledgers pairwise consistent : {}",
        report.ledgers_consistent
    );
    // The same report a simulated run ends in, at the observer seat.
    println!("run                         : {}", report.run.summary());
    assert!(report.ledgers_consistent);
    assert_eq!(report.run.safety_violations, 0);
}
