//! Compare HotStuff, two-chain HotStuff and Streamlet head-to-head on the
//! same workload — the core use case of the Bamboo framework.
//!
//! ```bash
//! cargo run --release --example protocol_comparison
//! ```

use bamboo::core::{run_all, RunOptions};
use bamboo::model::{ModelParams, PerfModel};
use bamboo::types::{Config, ProtocolKind, SimDuration, TypeError};

fn main() -> Result<(), TypeError> {
    let config = Config::builder()
        .nodes(4)
        .block_size(400)
        .payload_size(128)
        .runtime(SimDuration::from_millis(800))
        .seed(3)
        .build()?;

    // Every protocol at offered loads doubling from 5k to 80k tx/s, run as
    // one batch of independent simulations.
    let rates = [5_000.0, 10_000.0, 20_000.0, 40_000.0, 80_000.0];
    let mut points = Vec::new();
    for protocol in ProtocolKind::evaluated() {
        for rate in rates {
            let mut point = config.clone();
            point.arrival_rate = Some(rate);
            points.push((point, protocol, RunOptions::default()));
        }
    }
    let reports = run_all(points);

    println!("protocol | offered (tx/s) | throughput (ktx/s) | latency (ms) | p99 (ms)");
    println!("{:-<78}", "");
    for (protocol, curve) in ProtocolKind::evaluated()
        .into_iter()
        .zip(reports.chunks(rates.len()))
    {
        for (rate, report) in rates.iter().zip(curve) {
            println!(
                "{:<8} | {:>14.0} | {:>18.1} | {:>12.2} | {:>8.2}",
                protocol.label(),
                rate,
                report.throughput_tx_per_sec / 1_000.0,
                report.latency.mean_ms,
                report.latency.p99_ms
            );
        }
        let peak = curve
            .iter()
            .map(|report| report.throughput_tx_per_sec)
            .fold(0.0, f64::max);
        println!(
            "{:<8} | peak throughput {:.1} ktx/s, unloaded latency {:.2} ms",
            protocol.label(),
            peak / 1_000.0,
            curve[0].latency.mean_ms
        );
        println!("{:-<78}", "");
    }

    // The analytical model gives a back-of-the-envelope sanity check.
    println!("\nanalytical model (unloaded latency prediction):");
    for protocol in ProtocolKind::evaluated() {
        let model = PerfModel::new(protocol, ModelParams::from_config(&config));
        println!(
            "  {:<5} t_s = {:.3} ms, commit after {:.3} ms, predicted latency {:.3} ms",
            protocol.label(),
            model.params.t_s() * 1e3,
            model.t_commit() * 1e3,
            model.latency(5_000.0) * 1e3
        );
    }
    Ok(())
}
