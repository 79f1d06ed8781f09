//! Figure 15 — responsiveness test.
//!
//! Paper setting: 4 nodes, high request rate, two timeout settings (10 ms and
//! 100 ms). A 10-second window of network fluctuation (delays between 10 and
//! 100 ms) is injected, after which one node crashes (performs a silence
//! attack). The output is the committed-throughput time series.
//!
//! Expected shape: with t=10 ms every protocol stalls during the fluctuation;
//! the responsive protocol (HotStuff) resumes at network speed immediately
//! after it ends, while the non-responsive protocols recover only via timeouts
//! (and may stall entirely once the crashed node's views come around). With
//! t=100 ms all protocols retain liveness but at much lower throughput.

use bamboo_bench::{banner, bench_rows, eval_config, evaluated_protocols, save_rows, Higher, Sim};
use bamboo_core::{FluctuationWindow, RunOptions, SimRunner};
use bamboo_types::{NodeId, SimDuration, SimTime};

fn main() {
    banner("Figure 15: responsiveness under network fluctuation + crash (t10 vs t100)");
    // Timeline (compressed relative to the paper's 40 s wall-clock run):
    //   0-4 s    : normal operation
    //   4-8 s    : network fluctuation, one-way delays 10..100 ms
    //   10 s onw.: node 0 crashes (silence)
    let total = SimDuration::from_secs(14);
    let fluctuation = FluctuationWindow {
        start: SimTime::ZERO + SimDuration::from_secs(4),
        end: SimTime::ZERO + SimDuration::from_secs(8),
        min_extra: SimDuration::from_millis(10),
        max_extra: SimDuration::from_millis(100),
    };
    let crash_at = SimTime::ZERO + SimDuration::from_secs(10);

    let mut out = bench_rows("fig15_responsiveness");
    for timeout_ms in [10u64, 100] {
        for protocol in evaluated_protocols() {
            let mut config = eval_config(4, 400, 128, 14_000);
            config.runtime = total;
            config.timeout = SimDuration::from_millis(timeout_ms);
            config.arrival_rate = Some(30_000.0);
            let options = RunOptions {
                fluctuations: vec![fluctuation],
                silence_node_from: Some((NodeId(0), crash_at)),
                // In the t100 setting the paper makes every protocol wait for
                // the timeout after a view change; in the t10 setting all
                // protocols propose as soon as a quorum of messages arrives.
                replica: bamboo_core::ReplicaOptions {
                    wait_for_timeout_on_view_change: timeout_ms >= 100,
                    ..Default::default()
                },
                series_bucket: SimDuration::from_millis(500),
                ..Default::default()
            };
            let report = SimRunner::new(config, protocol, options).run();
            println!(
                "\n{}-t{timeout_ms}: total committed {} txs, timeout view changes {}",
                protocol.label(),
                report.committed_txs,
                report.timeout_view_changes
            );
            // One row per 500 ms bucket, keyed by the bucket's start, plus
            // the run's total.
            let key = format!("{}-t{timeout_ms}", protocol.label());
            print!("  tput (ktx/s per 500 ms): ");
            for sample in &report.throughput_series {
                print!("{:.0} ", sample.tx_per_sec / 1_000.0);
                let at_ms = sample.at.as_nanos() / 1_000_000;
                let name = format!("{key}/at{at_ms:05}ms/throughput");
                out.push(Sim, name, sample.tx_per_sec, "tx/s", Higher);
            }
            println!();
            let committed = report.committed_txs as f64;
            out.point(Sim, &key, &[("total_committed", committed, "tx", Higher)]);
        }
    }
    save_rows(&out);
    println!(
        "\nExpected shape (paper): all protocols stall during the fluctuation window with\nt=10 ms; HotStuff (responsive) resumes immediately afterwards and rides out the\ncrash with periodic dips; non-responsive protocols recover more slowly or stall.\nWith t=100 ms everything stays live but at lower throughput."
    );
}
