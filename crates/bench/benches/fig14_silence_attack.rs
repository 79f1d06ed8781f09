//! Figure 14 — the silence attack: throughput, latency, chain growth rate and
//! block interval with 32 nodes, 0–10 Byzantine nodes, timeout 50 ms.
//!
//! Expected shape: every protocol's throughput drops as silent proposers waste
//! views; HS and 2CHS share the same CGR pattern (the missing QC overwrites
//! the last block); Streamlet's CGR stays at 1 (no forks) and it degrades
//! gracefully; block intervals are higher than under the forking attack.

use bamboo_bench::{
    banner, bench_rows, eval_config, evaluated_protocols, save_rows, Higher, Lower, Sim,
};
use bamboo_core::{Benchmarker, RunOptions};
use bamboo_types::{ByzantineStrategy, ProtocolKind, SimDuration};

fn main() {
    banner("Figure 14: silence attack, 32 nodes, 0..10 Byzantine, 50 ms timeout");
    let mut out = bench_rows("fig14_silence_attack");
    for protocol in evaluated_protocols() {
        for byz in [0usize, 2, 4, 6, 8, 10] {
            let runtime_ms = if protocol == ProtocolKind::Streamlet {
                250
            } else {
                500
            };
            let mut config = eval_config(32, 400, 128, runtime_ms);
            config.byzantine_strategy = ByzantineStrategy::Silence;
            config.byz_nodes = byz;
            config.timeout = SimDuration::from_millis(50);
            let report = Benchmarker::new(config, protocol, RunOptions::default()).run_at(20_000.0);
            assert_eq!(report.safety_violations, 0, "silence attack broke safety");
            let (cgr, timeouts) = (report.chain_growth_rate, report.timeout_view_changes as f64);
            out.point(
                Sim,
                &format!("{}/byz{byz}", protocol.label()),
                &[
                    ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                    ("latency", report.latency.mean_ms, "ms", Lower),
                    ("chain_growth_rate", cgr, "ratio", Higher),
                    ("block_interval", report.block_interval, "views", Lower),
                    ("timeout_view_changes", timeouts, "count", Lower),
                ],
            );
        }
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): throughput drops with more silent proposers for all\nprotocols; Streamlet CGR stays at 1 and degrades gracefully; BI grows faster than\nunder the forking attack."
    );
}
