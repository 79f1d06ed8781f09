//! Cross-validation between the analytical model and the simulator — the
//! repository-level version of the paper's Fig. 8 check.

use bamboo::core::{run_all, RunOptions, SimRunner};
use bamboo::model::{ModelParams, PerfModel};
use bamboo::types::{Config, ProtocolKind, SimDuration};

fn eval_config(nodes: usize, block_size: usize) -> Config {
    Config::builder()
        .nodes(nodes)
        .block_size(block_size)
        .payload_size(0)
        .runtime(SimDuration::from_millis(400))
        .seed(42)
        .build()
        .expect("valid config")
}

/// `config` at offered load `rate`, as one point of a `run_all` batch.
fn point(config: &Config, protocol: ProtocolKind, rate: f64) -> (Config, ProtocolKind, RunOptions) {
    let mut config = config.clone();
    config.arrival_rate = Some(rate);
    (config, protocol, RunOptions::default())
}

#[test]
fn model_and_simulation_agree_on_unloaded_latency_within_a_small_factor() {
    // Low load: the queueing term is negligible and latency should be close to
    // t_L + t_s + t_commit. The band is deliberately loose (a factor of five) —
    // the paper's claim is that the model gives a back-of-the-envelope
    // estimate, and the model ignores the wait for a transaction's replica to
    // rotate into leadership, which grows with N.
    let mut grid = Vec::new();
    let mut points = Vec::new();
    for (nodes, bsize) in [(4usize, 100usize), (4, 400), (8, 400)] {
        let config = eval_config(nodes, bsize);
        for protocol in ProtocolKind::evaluated() {
            let model = PerfModel::new(protocol, ModelParams::from_config(&config));
            // Streamlet's broadcast-and-echo traffic saturates the real system
            // far earlier than the model's happy-path service time predicts
            // (the paper absorbs this into re-measured parameters, §V-E), so
            // probe it at a load that is low for both model and simulator.
            let rate = if protocol == ProtocolKind::Streamlet {
                (model.saturation_rate() * 0.2).min(20_000.0)
            } else {
                model.saturation_rate() * 0.2
            };
            grid.push((nodes, bsize, protocol, model.latency(rate) * 1e3));
            points.push(point(&config, protocol, rate));
        }
    }
    for ((nodes, bsize, protocol, predicted_ms), report) in grid.into_iter().zip(run_all(points)) {
        let measured_ms = report.latency.mean_ms;
        // Streamlet's broadcast-and-echo traffic is only captured by the
        // model through re-measured parameters (§V-E), so for SL we only
        // require the model to be a sane lower bound.
        let upper_factor = if protocol == ProtocolKind::Streamlet {
            10.0
        } else {
            5.0
        };
        assert!(
            measured_ms < predicted_ms * upper_factor && measured_ms > predicted_ms / 5.0,
            "{protocol} {nodes}/{bsize}: measured {measured_ms:.2} ms vs model {predicted_ms:.2} ms"
        );
    }
}

#[test]
fn model_predicts_relative_latency_ordering_of_the_protocols() {
    let config = eval_config(4, 400);
    let params = ModelParams::from_config(&config);
    let hs = PerfModel::new(ProtocolKind::HotStuff, params);
    let two = PerfModel::new(ProtocolKind::TwoChainHotStuff, params);
    // The model predicts 2CHS is one service time faster than HS.
    assert!(two.latency(1_000.0) < hs.latency(1_000.0));

    // The simulator must show the same ordering.
    let reports = run_all(vec![
        point(&config, ProtocolKind::HotStuff, 5_000.0),
        point(&config, ProtocolKind::TwoChainHotStuff, 5_000.0),
    ]);
    assert!(reports[1].latency.mean_ms < reports[0].latency.mean_ms);
}

#[test]
fn throughput_tracks_arrival_rate_below_saturation_as_in_table_two() {
    let config = eval_config(4, 400);
    let rates = [10_000.0, 30_000.0, 60_000.0];
    let points = rates
        .iter()
        .map(|&rate| point(&config, ProtocolKind::HotStuff, rate))
        .collect();
    for (rate, report) in rates.into_iter().zip(run_all(points)) {
        let error = (report.throughput_tx_per_sec - rate).abs() / rate;
        assert!(
            error < 0.15,
            "throughput {} should track arrival rate {rate} (error {:.1}%)",
            report.throughput_tx_per_sec,
            error * 100.0
        );
    }
}

#[test]
fn model_saturation_rate_brackets_simulated_peak_throughput() {
    let config = eval_config(4, 400);
    let model = PerfModel::new(ProtocolKind::HotStuff, ModelParams::from_config(&config));
    let saturation = model.saturation_rate();
    // Well above the modelled saturation point the simulator must commit fewer
    // transactions than offered (i.e. it has indeed saturated).
    let (config, protocol, options) = point(&config, ProtocolKind::HotStuff, saturation * 3.0);
    let report = SimRunner::new(config, protocol, options).run();
    assert!(
        report.throughput_tx_per_sec < saturation * 3.0 * 0.9,
        "simulator did not saturate: {} tx/s at offered {}",
        report.throughput_tx_per_sec,
        saturation * 3.0
    );
}
