//! Large-n scalability sweep: HotStuff, 2CHS and Streamlet at
//! n ∈ {16, 64, 128, 256} — the figure-class experiment the pre-PR-4 engine
//! was too slow to run routinely. All points execute as one parallel batch
//! on the bounded sweep pool (`run_all`); results come back in
//! input order, so every simulator-clock row is stable across worker counts.
//!
//! Beyond throughput/latency, each point records the events it processed,
//! the event-queue high-water mark in pending deliveries (`queue_peak`) and
//! in heap entries (`heap_peak`: a broadcast is one entry), and the sweep as
//! a whole records the *engine's* speed (simulation events per wall-clock
//! second — the one wall-clock row), so the scalability of the simulator
//! itself is tracked alongside the scalability of the protocols.
//!
//! Expected shape (paper, Fig. 12 extended): throughput falls and latency
//! rises with n for every protocol; HS and 2CHS stay comparable while
//! Streamlet's cubic message complexity makes its large-n points explode in
//! cost — its measurement windows are shortened accordingly, and the paper
//! makes the same caveat for n > 64.

use std::time::Instant;

use bamboo_bench::{banner, bench_rows, eval_config, save_rows, Higher, Lower, Sim, Wall};
use bamboo_core::{run_all, RunOptions};
use bamboo_types::{Config, ProtocolKind};

/// Measurement window per point. Streamlet's O(n^3) vote echoing means a
/// *single view* at n = 256 is ~16M message deliveries, so its two largest
/// windows are deliberately shorter than one commit latency: those points
/// measure the engine driving the cubic storm deterministically (the events
/// and queue-peak rows), not protocol throughput — the paper makes
/// the same "of limited meaning" caveat for Streamlet beyond n = 64.
fn runtime_ms(protocol: ProtocolKind, nodes: usize) -> u64 {
    match (protocol, nodes) {
        (ProtocolKind::Streamlet, 256) => 6,
        (ProtocolKind::Streamlet, 128) => 15,
        (ProtocolKind::Streamlet, 64) => 250,
        (ProtocolKind::Streamlet, _) => 300,
        (_, 256) => 60,
        (_, 128) => 100,
        _ => 200,
    }
}

fn main() {
    banner("Scalability sweep: HS / 2CHS / SL at n = 16, 64, 128, 256");
    let sizes = [16usize, 64, 128, 256];
    let protocols = [
        ProtocolKind::HotStuff,
        ProtocolKind::TwoChainHotStuff,
        ProtocolKind::Streamlet,
    ];
    let mut grid: Vec<(ProtocolKind, usize)> = Vec::new();
    let mut points: Vec<(Config, ProtocolKind, RunOptions)> = Vec::new();
    for &protocol in &protocols {
        for &nodes in &sizes {
            let mut config = eval_config(nodes, 400, 128, runtime_ms(protocol, nodes));
            // Offered load scaled down as n grows, as in Fig. 12.
            config.arrival_rate = Some(60_000.0 / (nodes as f64 / 4.0).sqrt());
            grid.push((protocol, nodes));
            points.push((config, protocol, RunOptions::default()));
        }
    }

    let started = Instant::now();
    let reports = run_all(points);
    let wall = started.elapsed();
    let total_events: u64 = reports.iter().map(|r| r.events_processed).sum();
    let events_per_sec = total_events as f64 / wall.as_secs_f64();
    let points = reports.len();

    let mut out = bench_rows("scalability_large_n");
    for ((protocol, nodes), report) in grid.into_iter().zip(reports) {
        assert_eq!(
            report.safety_violations, 0,
            "{protocol} n={nodes} violated safety"
        );
        out.point(
            Sim,
            &format!("{}/n{nodes}", protocol.label()),
            &[
                ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                ("latency", report.latency.mean_ms, "ms", Lower),
                ("blocks", report.committed_blocks as f64, "count", Higher),
                ("events", report.events_processed as f64, "count", Lower),
                ("queue_peak", report.queue_peak_len as f64, "count", Lower),
                ("heap_peak", report.queue_heap_peak as f64, "count", Lower),
            ],
        );
    }
    // One draw per sweep: the differ can print its delta but never resolves
    // a direction from it.
    let rate = ("events_per_sec", events_per_sec, "events/s", Higher);
    out.point(Wall, "engine", &[rate]);
    save_rows(&out);
    println!(
        "\n{points} points, {total_events} simulation events in {:.1} s wall ({events_per_sec:.0} events/s end-to-end)",
        wall.as_secs_f64(),
    );
}
