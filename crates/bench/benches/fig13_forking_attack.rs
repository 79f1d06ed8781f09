//! Figure 13 — the forking attack: throughput, latency, chain growth rate and
//! block interval with 32 nodes and 0–10 Byzantine nodes.
//!
//! Expected shape: Streamlet is flat across all four metrics (immune to
//! forking); 2CHS outperforms HS because its attacker can only overwrite one
//! block instead of two; block intervals start at 2 (2CHS) and 3 (HS); HS
//! latency grows fastest because forked transactions are re-queued.
//!
//! Each point also counts the forking proposals its attackers produced:
//! Streamlet's are 0 (its voting rule leaves no fork target, so its attackers
//! propose honestly), while an HS or 2CHS attacker builds k − 1 blocks below
//! the certified tip (k = 3 and 2).

use bamboo_bench::{banner, bench_rows, eval_config, save_rows, Higher, Lower, Sim};
use bamboo_core::{run_all, RunOptions};
use bamboo_types::{ByzantineStrategy, ProtocolKind};

fn main() {
    banner("Figure 13: forking attack, 32 nodes, 0..10 Byzantine");
    let mut grid = Vec::new();
    let mut jobs = Vec::new();
    for protocol in ProtocolKind::evaluated() {
        for byz in [0usize, 2, 4, 6, 8, 10] {
            let runtime_ms = if protocol == ProtocolKind::Streamlet {
                200
            } else {
                400
            };
            let mut config = eval_config(32, 400, 128, runtime_ms);
            config.byzantine_strategy = ByzantineStrategy::Forking;
            config.byz_nodes = byz;
            config.arrival_rate = Some(20_000.0);
            grid.push((protocol, byz));
            jobs.push((config, protocol, RunOptions::default()));
        }
    }
    let reports = run_all(jobs);

    let mut out = bench_rows("fig13_forking_attack");
    for ((protocol, byz), report) in grid.into_iter().zip(reports) {
        assert_eq!(report.safety_violations, 0, "forking attack broke safety");
        let cgr = report.chain_growth_rate;
        let forks = report.forks_attempted as f64;
        out.point(
            Sim,
            &format!("{}/byz{byz}", protocol.label()),
            &[
                ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                ("latency", report.latency.mean_ms, "ms", Lower),
                ("chain_growth_rate", cgr, "ratio", Higher),
                ("block_interval", report.block_interval, "views", Lower),
                ("forks_attempted", forks, "count", Lower),
            ],
        );
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): Streamlet flat (immune); 2CHS degrades less than HS;\nBI starts at 2 (2CHS) vs 3 (HS); CGR and throughput fall as Byzantine count grows."
    );
}
