//! Table II — transaction arrival rate vs transaction throughput.
//!
//! Paper setting: HotStuff, block size 400, 4 replicas, arrival rates from
//! roughly 20k to 130k tx/s. The paper's observation is that committed
//! throughput tracks the arrival rate almost exactly until saturation; this
//! bench reproduces that table on the simulated substrate (absolute rates are
//! scaled to the simulator's capacity, the tracking behaviour is the result
//! under test).

use bamboo_bench::{banner, bench_rows, eval_config, save_rows, Higher, Lower, Sim};
use bamboo_core::{run_all, RunOptions};
use bamboo_types::ProtocolKind;

fn main() {
    banner("Table II: arrival rate vs throughput (HotStuff, bsize=400, 4 replicas)");

    // The paper sweeps 20k..131k tx/s on its testbed; the simulated substrate
    // saturates at a different absolute rate, so the ladder covers the same
    // relative range (sub-saturation up to just past saturation).
    let rates = [
        10_000.0, 20_000.0, 40_000.0, 60_000.0, 80_000.0, 100_000.0, 120_000.0,
    ];
    let reports = run_all(
        rates
            .iter()
            .map(|&rate| {
                let mut config = eval_config(4, 400, 0, 800);
                config.arrival_rate = Some(rate);
                (config, ProtocolKind::HotStuff, RunOptions::default())
            })
            .collect(),
    );
    let mut out = bench_rows("table2_arrival_vs_throughput");
    for (&rate, report) in rates.iter().zip(&reports) {
        let error = 100.0 * (report.throughput_tx_per_sec - rate).abs() / rate;
        out.point(
            Sim,
            &format!("HS/a{rate:.0}"),
            &[
                ("throughput", report.throughput_tx_per_sec, "tx/s", Higher),
                ("tracking_error", error, "%", Lower),
            ],
        );
    }
    save_rows(&out);
    println!("\nExpected shape (paper): throughput ≈ arrival rate until the system saturates.");
}
