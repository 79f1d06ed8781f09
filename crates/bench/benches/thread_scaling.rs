//! Thread-scaling bench for the window-barrier parallel engine.
//!
//! Runs the *same* n = 256 HotStuff configuration at 1, 2 and 4 engine
//! shards, timing each run individually and asserting that every thread
//! count commits the **identical ledger fingerprint** — the speedup claim is
//! only meaningful because the answer is bit-for-bit the same.
//!
//! The artifact (`target/bamboo-bench/thread_scaling.json`) records, per
//! thread count: events processed, wall seconds, events/s, the fingerprint,
//! and the queue statistics (summed and per-shard peak). `bench_diff`
//! compares events/s per `threads` key against the matching key of the
//! latest snapshot — never across thread counts, since those measure
//! different parallelism, not a regression.
//!
//! No speed-up has been observed yet. Snapshots up to BENCH_pr9.json ran on
//! a 1-CPU host, where the 2- and 4-shard points can only measure barrier
//! overhead (~0.9x). On the 2-core host of BENCH_pr15.json, ten alternating
//! runs of this configuration read 107k / 98k / 93k events/s at 1 / 2 / 4
//! shards before PR 15's single window loop and 110k / 106k / 96k after it
//! (medians; run-to-run spread about ±15%) — the sharded side is still
//! slower than one shard. For the sharded engine to earn its keep, a host
//! with at least four cores must show the 4-shard point at 1.5x or more of
//! the 1-shard point (DESIGN.md §5.3). The `host_cpus` field records what
//! the measurement ran on so readers can interpret the ratios.

use std::time::Instant;

use bamboo_bench::{banner, eval_config, save_json, Json, ToJson};
use bamboo_core::{RunOptions, SimRunner};
use bamboo_types::ProtocolKind;

struct ScalingPoint {
    threads: usize,
    events_processed: u64,
    wall_secs: f64,
    events_per_sec: f64,
    fingerprint: String,
    queue_peak_len: u64,
    max_shard_queue_peak: u64,
}

impl ToJson for ScalingPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::from(self.threads)),
            ("events_processed", Json::from(self.events_processed)),
            ("wall_secs", Json::from(self.wall_secs)),
            ("events_per_sec", Json::from(self.events_per_sec)),
            ("fingerprint", Json::from(self.fingerprint.as_str())),
            ("queue_peak_len", Json::from(self.queue_peak_len)),
            (
                "max_shard_queue_peak",
                Json::from(self.max_shard_queue_peak),
            ),
        ])
    }
}

fn main() {
    let nodes = 256usize;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    banner(&format!(
        "Thread scaling: HS at n = {nodes}, threads = 1 / 2 / 4 ({host_cpus} host cpu(s))"
    ));

    let mut points: Vec<ScalingPoint> = Vec::new();
    for threads in [1usize, 2, 4] {
        // A longer window than the scalability sweep's n = 256 point so the
        // rate is dominated by steady-state window execution, not by the
        // fixed per-run setup (key generation, shard construction).
        let mut config = eval_config(nodes, 400, 128, 250);
        config.arrival_rate = Some(60_000.0 / (nodes as f64 / 4.0).sqrt());
        let options = RunOptions {
            threads,
            ..RunOptions::default()
        };
        let started = Instant::now();
        let report = SimRunner::new(config, ProtocolKind::HotStuff, options).run();
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(report.safety_violations, 0, "threads={threads}");
        let events_per_sec = report.events_processed as f64 / wall;
        println!(
            "threads={threads}   events = {:>10}   wall = {:>6.2} s   rate = {:>10.0} events/s   fp {}",
            report.events_processed,
            wall,
            events_per_sec,
            &report.ledger_fingerprint[..16],
        );
        points.push(ScalingPoint {
            threads,
            events_processed: report.events_processed,
            wall_secs: wall,
            events_per_sec,
            fingerprint: report.ledger_fingerprint,
            queue_peak_len: report.queue_peak_len,
            max_shard_queue_peak: report.max_shard_queue_peak,
        });
    }

    // The determinism contract is part of the bench: a speedup that changes
    // the answer is not a speedup.
    let base_fp = points[0].fingerprint.clone();
    for point in &points[1..] {
        assert_eq!(
            point.fingerprint, base_fp,
            "threads={} diverged from the single-thread ledger",
            point.threads
        );
    }
    let speedup =
        points.last().map(|p| p.events_per_sec).unwrap_or(0.0) / points[0].events_per_sec.max(1e-9);

    let artifact = Json::obj([
        ("protocol", Json::from("HS")),
        ("nodes", Json::from(nodes)),
        ("host_cpus", Json::from(host_cpus)),
        ("points", points.to_json()),
        ("speedup_4_vs_1", Json::from(speedup)),
    ]);
    save_json("thread_scaling", &artifact);
    println!(
        "\nspeedup (4 threads vs 1) = {speedup:.2}x on {host_cpus} host cpu(s); \
         all fingerprints identical"
    );
}
