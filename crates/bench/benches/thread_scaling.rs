//! Thread-scaling bench for the window-barrier parallel engine.
//!
//! Runs the *same* n = 256 HotStuff configuration at 1, 2 and 4 engine
//! shards, timing each run individually and asserting that every thread
//! count commits the **identical ledger fingerprint** — the speedup claim is
//! only meaningful because the answer is bit-for-bit the same.
//!
//! The rows record, per thread count (`HS/n256/tT/…`): wall-clock events/s,
//! and the events processed and queue statistics (summed and per-shard
//! peak) of the run. Thread counts are different row names, so `bench_diff`
//! never compares across them — they measure different parallelism, not a
//! regression.
//!
//! No speed-up has been observed yet. Snapshots up to BENCH_pr9.json ran on
//! a 1-CPU host, where the 2- and 4-shard points can only measure barrier
//! overhead (~0.9x). On the 2-core host of BENCH_pr15.json, ten alternating
//! runs of this configuration read 107k / 98k / 93k events/s at 1 / 2 / 4
//! shards before PR 15's single window loop and 110k / 106k / 96k after it
//! (medians; run-to-run spread about ±15%) — the sharded side is still
//! slower than one shard. For the sharded engine to earn its keep, a host
//! with at least four cores must show the 4-shard point at 1.5x or more of
//! the 1-shard point (DESIGN.md §5.3). The file header's `host_cpus` records
//! what the measurement ran on so readers can interpret the ratios.

use std::time::Instant;

use bamboo_bench::{banner, bench_rows, eval_config, save_rows, Higher, Lower, Sim, Wall};
use bamboo_core::{RunOptions, SimRunner};
use bamboo_types::ProtocolKind;

fn main() {
    let nodes = 256usize;
    let mut out = bench_rows("thread_scaling");
    let host_cpus = out.host_cpus;
    banner(&format!(
        "Thread scaling: HS at n = {nodes}, threads = 1 / 2 / 4 ({host_cpus} host cpu(s))"
    ));

    let mut rates: Vec<f64> = Vec::new();
    let mut single_thread_fp: Option<String> = None;
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
            "threads={threads}   wall = {wall:>6.2} s   rate = {events_per_sec:>10.0} events/s"
        );
        // The determinism contract is part of the bench: a speedup that
        // changes the answer is not a speedup.
        let fingerprint = &report.ledger_fingerprint;
        assert_eq!(
            fingerprint,
            single_thread_fp.get_or_insert_with(|| fingerprint.clone()),
            "threads={threads} diverged from the single-thread ledger"
        );
        let shard_peak = report.max_shard_queue_peak as f64;
        let fp32 = u32::from_str_radix(&fingerprint[..8], 16).expect("hex fingerprint");
        let key = format!("HS/n{nodes}/t{threads}");
        let rate = ("events_per_sec", events_per_sec, "events/s", Higher);
        out.point(Wall, &key, &[rate]);
        out.point(
            Sim,
            &key,
            &[
                ("events", report.events_processed as f64, "count", Lower),
                ("ledger_fp32", f64::from(fp32), "u32", Lower),
                // Layout-dependent by design: compared per thread count only.
                ("queue_peak", report.queue_peak_len as f64, "count", Lower),
                ("max_shard_queue_peak", shard_peak, "count", Lower),
            ],
        );
        rates.push(events_per_sec);
    }
    let speedup = rates[2] / rates[0].max(1e-9);
    save_rows(&out);
    println!(
        "\nspeedup (4 threads vs 1) = {speedup:.2}x on {host_cpus} host cpu(s); \
         all fingerprints identical"
    );
}
