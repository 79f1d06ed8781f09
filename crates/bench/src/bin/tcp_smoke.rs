//! Loopback TCP smoke benchmark: a multi-process [`ProcessCluster`] on
//! 127.0.0.1 — one OS process per replica, the driver talking to every
//! replica over real framed sockets.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bamboo-bench --bin tcp_smoke -- [--quick] [--protocol HS] [--nodes N]
//! ```
//!
//! The binary re-executes **itself** as the replica processes: a child
//! launched with the replica spec in `BAMBOO_TCP_REPLICA_SPEC` short-circuits
//! into [`bamboo_net::maybe_run_replica`] before any driver code runs.
//!
//! This measures plumbing, not consensus capacity: loopback TCP has no
//! propagation delay, so the interesting numbers are the status-probe
//! round-trip latency (a full driver→replica→driver socket round trip
//! through the frame codec), reconnect counts (zero on a healthy run), and
//! dropped outbound frames (startup races only). The rows
//! (`target/bamboo-bench/tcp_smoke.rows.json`, keyed `protocol/nN/process/…`)
//! feed `bench_diff`; the round trips are emitted as four sample sets so a
//! move in them can resolve against their own spread.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bamboo_bench::{banner, save_rows, stats, Higher, Lower, RowFile, Tier, Wall};
use bamboo_net::{ClusterSpec, ProcessCluster};
use bamboo_types::Json;
use bamboo_types::ProtocolKind;

/// Probe round-trips measured against replica 0 after the commit target,
/// reported as [`RTT_SAMPLES`] consecutive sets of p50/p99.
const RTT_PROBES: usize = 200;
const RTT_SAMPLES: usize = 4;

fn sum_report(reports: &[Json], key: &str) -> u64 {
    reports
        .iter()
        .filter_map(|r| r.get(key).and_then(|v| v.as_f64()))
        .sum::<f64>() as u64
}

fn run() -> Result<RowFile, String> {
    let mut quick = false;
    let mut protocol = ProtocolKind::HotStuff;
    let mut nodes: usize = 4;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--protocol" => {
                let label = args.next().ok_or("--protocol needs a label")?;
                protocol = ProtocolKind::from_label(&label)
                    .ok_or_else(|| format!("unknown protocol label {label:?}"))?;
            }
            "--nodes" => {
                nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 4)
                    .ok_or("--nodes needs an integer >= 4")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }

    let target: u64 = if quick { 200 } else { 1000 };
    let window = Duration::from_secs(if quick { 30 } else { 120 });
    let spec_seed = 2024;
    let spec = ClusterSpec {
        nodes,
        protocol,
        block_size: 50,
        payload_size: 16,
        timeout_ms: 50,
        seed: spec_seed,
        verify_workers: 1,
        checkpoint_interval: 0,
        signed_requests: false,
    };
    banner(&format!(
        "TCP loopback smoke — {} replica processes, {}, target {target} txs",
        nodes,
        protocol.label()
    ));

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let started = Instant::now();
    let mut cluster =
        ProcessCluster::launch(&exe, spec).map_err(|e| format!("cluster launch failed: {e}"))?;
    cluster
        .submit_round_robin(target * 4, 16)
        .map_err(|e| format!("client submission failed: {e}"))?;
    let reached = cluster
        .run_until_committed(target, window)
        .map_err(|e| format!("status polling failed: {e}"))?;
    let elapsed = started.elapsed();
    if !reached {
        return Err(format!(
            "cluster committed only {} of {target} txs within {:.0} s",
            cluster.committed_txs_floor().unwrap_or(0),
            window.as_secs_f64()
        ));
    }

    // Status round-trip latency against replica 0: a full socket round trip
    // through the frame codec, answered by the replica's reader thread.
    let mut rtts_us = Vec::with_capacity(RTT_PROBES);
    for _ in 0..RTT_PROBES {
        let probe_started = Instant::now();
        cluster
            .probe(0, 0)
            .map_err(|e| format!("status probe failed: {e}"))?;
        rtts_us.push(probe_started.elapsed().as_secs_f64() * 1e6);
    }

    let agreed = cluster
        .check_prefix_agreement()
        .map_err(|e| format!("prefix agreement check failed: {e}"))?;
    if agreed == 0 {
        return Err("no common committed prefix across replica processes".into());
    }

    let reports = cluster
        .shutdown()
        .map_err(|e| format!("cluster shutdown failed: {e}"))?;
    let safety = sum_report(&reports, "safety_violations");
    if safety > 0 {
        return Err(format!("{safety} safety violation(s) over loopback TCP"));
    }
    let committed = reports
        .iter()
        .filter_map(|r| r.get("committed_txs").and_then(|v| v.as_f64()))
        .fold(0.0f64, f64::max) as u64;
    let throughput = committed as f64 / elapsed.as_secs_f64();
    let reconnects = sum_report(&reports, "reconnects");
    let bytes_sent = sum_report(&reports, "bytes_sent");
    let dropped = sum_report(&reports, "send_queue_dropped");

    println!(
        "  {:<5} n={nodes}  {committed} txs in {:.2} s ({throughput:.0} tx/s)  \
         prefix agreement over {agreed} blocks",
        protocol.label(),
        elapsed.as_secs_f64()
    );
    println!("  {bytes_sent} bytes sent");

    let mut out = RowFile::new("tcp_smoke", Tier::from_quick(quick), spec_seed);
    let key = format!("{}/n{nodes}/process", protocol.label());
    out.point(Wall, &key, &[("throughput", throughput, "tx/s", Higher)]);
    for set in rtts_us.chunks(RTT_PROBES / RTT_SAMPLES) {
        let rtt = |q| stats::percentile(set, q).expect("non-empty set");
        let (p50, p99) = (rtt(0.50), rtt(0.99));
        out.point(
            Wall,
            &key,
            &[
                ("rtt_p50_us", p50, "us", Lower),
                ("rtt_p99_us", p99, "us", Lower),
            ],
        );
    }
    out.point(
        Wall,
        &key,
        &[
            ("reconnects", reconnects as f64, "count", Lower),
            ("send_queue_dropped", dropped as f64, "count", Lower),
        ],
    );
    Ok(out)
}

fn main() -> ExitCode {
    // Child processes: the env var routes execution into the replica loop.
    if bamboo_net::maybe_run_replica() {
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(rows) => {
            save_rows(&rows);
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("tcp_smoke FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}
