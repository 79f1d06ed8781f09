//! Figure 12 — scalability: peak throughput and latency for 4, 8, 16, 32 and
//! 64 replicas (block size 400, payload 128 B), averaged over repeated runs.
//!
//! Expected shape: throughput falls and latency rises with the number of
//! nodes for every protocol; HotStuff and 2CHS stay comparable, Streamlet
//! degrades fastest and its large-n points are of limited meaning due to its
//! cubic message complexity (the paper makes the same caveat for n > 64).

use bamboo_bench::stats::mean_std;
use bamboo_bench::{banner, bench_rows, eval_config, save_rows, Higher, Lower, Sim};
use bamboo_core::{Benchmarker, RunOptions};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Figure 12: scalability, 4..64 nodes (block 400, payload 128 B)");
    let sizes = [4usize, 8, 16, 32, 64];
    let seeds = [2021u64, 2022, 2023];
    // Build the whole grid up front and run it as one parallel batch on the
    // bounded sweep pool; results come back in input order, so the per-point
    // aggregation below is identical to the old sequential loop.
    let mut grid: Vec<(ProtocolKind, usize)> = Vec::new();
    let mut jobs = Vec::new();
    for protocol in ProtocolKind::evaluated() {
        for &nodes in &sizes {
            // Streamlet's O(n^3) message complexity makes large-n runs very
            // slow (and, as the paper notes, not very meaningful); shorten the
            // measurement window as n grows.
            let runtime_ms = match (protocol, nodes) {
                (ProtocolKind::Streamlet, 64) => 250,
                (ProtocolKind::Streamlet, 32) => 300,
                (_, 64) => 250,
                _ => 400,
            };
            // Offered load scaled down as n grows (the paper's testbed also
            // saturates at lower rates for larger clusters).
            let rate = 60_000.0 / (nodes as f64 / 4.0).sqrt();
            grid.push((protocol, nodes));
            for &seed in &seeds {
                let mut config = eval_config(nodes, 400, 128, runtime_ms);
                config.seed = seed;
                config.arrival_rate = Some(rate);
                jobs.push((config, protocol, RunOptions::default()));
            }
        }
    }
    let reports = Benchmarker::run_all(jobs);

    let mut out = bench_rows("fig12_scalability");
    for (index, (protocol, nodes)) in grid.into_iter().enumerate() {
        let runs = &reports[index * seeds.len()..(index + 1) * seeds.len()];
        let throughputs: Vec<f64> = runs.iter().map(|r| r.throughput_tx_per_sec).collect();
        let latencies: Vec<f64> = runs.iter().map(|r| r.latency.mean_ms).collect();
        let (mean_tput, std_tput) = mean_std(&throughputs);
        let (mean_lat, std_lat) = mean_std(&latencies);
        out.point(
            Sim,
            &format!("{}/n{nodes}", protocol.label()),
            &[
                ("throughput_mean", mean_tput, "tx/s", Higher),
                ("throughput_std", std_tput, "tx/s", Lower),
                ("latency_mean", mean_lat, "ms", Lower),
                ("latency_std", std_lat, "ms", Lower),
            ],
        );
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): throughput drops and latency grows with n; HS and 2CHS\nremain comparable; Streamlet scales worst."
    );
}
